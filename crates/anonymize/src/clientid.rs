//! clientID anonymisation by order of appearance (paper §2.4).
//!
//! The paper rejects hashing (trivially reversible over a 2³² space by
//! exhaustive application) and shuffling (too weak), and instead encodes
//! each clientID "according to their order of appearance in the captured
//! data: the first one is anonymised with the value 0, the second with 1
//! and so on". Billions of lookups plus millions of insertions make
//! "classical data structures (like hashtables or trees) … too slow
//! and/or too space consuming"; the authors use a direct-index array of
//! 2³² integers (16 GB) giving anonymisation by "a direct memory access
//! operation only".
//!
//! [`DirectArrayAnonymizer`] is that structure with a configurable index
//! width (tests and the campaign default to 24 bits). Its table is
//! paged in lazily, so the full 32-bit width runs on a host with far
//! less than 16 GB: only the pages holding seen ids are resident.
//! [`HashMapAnonymizer`] and [`BTreeAnonymizer`] are the "classical"
//! baselines the paper dismisses; bench `anonymize_clientid` (ablation
//! A1) quantifies the comparison.

use etw_edonkey::ids::ClientId;
use std::collections::{BTreeMap, HashMap};

/// Cells per slab, as a power of two. A table wider than this is split
/// into slabs of 2²⁸ cells (1 GiB), each its own zeroed allocation: the
/// kernel's heuristic overcommit refuses a single 16 GiB allocation on a
/// host with less memory than that, but grants every 1 GiB slab.
const SLAB_BITS: u32 = 28;
/// Cells per 4 KiB page, as a power of two.
const PAGE_BITS: u32 = 10;

/// Order-of-appearance encoder for clientIDs.
///
/// Implementations must be deterministic: the n-th *distinct* clientID
/// pushed receives the value `n-1`, regardless of structure.
pub trait ClientIdAnonymizer {
    /// Returns the anonymised value for `id`, assigning the next integer
    /// on first sight.
    fn anonymize(&mut self, id: ClientId) -> u32;

    /// Number of distinct clientIDs seen so far.
    fn distinct(&self) -> u32;

    /// Looks up without inserting (`None` if never seen).
    fn lookup(&self, id: ClientId) -> Option<u32>;

    /// Implementation name for reports.
    fn name(&self) -> &'static str;
}

/// The paper's direct-index array: one cell per possible clientID.
///
/// Each cell holds its clientID's value + 1, so 0 means "not yet seen"
/// and a fresh table is all zeroes. The table comes from zeroed
/// allocations, which the OS maps page by page on first write:
/// construction is O(1) at every width and resident memory grows with
/// the 4 KiB pages actually touched, not with `2^width_bits`. A bitmap
/// with one bit per page records which pages have been written; a first
/// sight in an untouched page writes its cell without reading it first
/// (one page fault instead of a zero-page read fault followed by a
/// copy-on-write fault), and [`appearance_order`](Self::appearance_order)
/// walks only the touched pages.
///
/// At the paper's full 32-bit width the array covers the entire clientID
/// space. At narrower test/campaign widths, clientIDs beyond the array —
/// real on live traffic, where high-ID clients and the peer-server
/// addresses in ServerList answers are full IPv4 addresses — spill into
/// a hash side-table instead of being a hard error: the array keeps the
/// dense low-ID space at one memory access, the spill absorbs the sparse
/// remainder, and the order-of-appearance contract holds across both.
/// (Sparse ids belong in the spill: each one would cost a whole page in
/// any page-granular table, against a few bytes in the hash.)
///
/// Values are `u32`, as in the paper, so at width 32 the 2³²-th distinct
/// clientID has no value to take.
pub struct DirectArrayAnonymizer {
    /// Slabs of at most 2^[`SLAB_BITS`] cells; slab `s` covers raw ids
    /// `s << SLAB_BITS ..`.
    slabs: Vec<Vec<u32>>,
    /// One bit per page of cells, set on the page's first write.
    touched: Vec<u64>,
    spill: HashMap<u32, u32>,
    next: u32,
    width_bits: u32,
}

impl DirectArrayAnonymizer {
    /// Creates an array covering clientIDs below `2^width_bits`.
    ///
    /// `width_bits = 32` reproduces the paper's 16 GB configuration
    /// exactly; smaller widths cover proportionally smaller clientID
    /// spaces (the campaign generates IDs inside the configured space).
    /// Either way nothing is resident until ids arrive.
    pub fn new(width_bits: u32) -> Self {
        assert!((1..=32).contains(&width_bits), "width must be 1..=32");
        let cells = 1usize << width_bits;
        let slab_cells = cells.min(1 << SLAB_BITS);
        let pages = cells.div_ceil(1 << PAGE_BITS);
        DirectArrayAnonymizer {
            slabs: (0..cells / slab_cells)
                .map(|_| vec![0u32; slab_cells])
                .collect(),
            touched: vec![0u64; pages.div_ceil(64)],
            spill: HashMap::new(),
            next: 0,
            width_bits,
        }
    }

    /// Address-space size of the table in bytes (the paper's 16 GB
    /// figure at width 32); resident memory is
    /// [`pages_touched`](Self::pages_touched) pages.
    pub fn table_bytes(&self) -> usize {
        self.slabs.iter().map(Vec::len).sum::<usize>() * std::mem::size_of::<u32>()
    }

    /// Index width in bits.
    pub fn width_bits(&self) -> u32 {
        self.width_bits
    }

    /// Number of 4 KiB table pages written so far: the table's resident
    /// footprint, read off the page bitmap.
    pub fn pages_touched(&self) -> usize {
        self.touched.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Raw clientIDs in order of first appearance. This is the entire
    /// checkpointable state of the anonymiser: replaying the returned
    /// IDs through [`ClientIdAnonymizer::anonymize`] rebuilds an
    /// identical table, which is what [`DirectArrayAnonymizer::from_order`]
    /// does on campaign resume. Reads only the touched pages and the
    /// spill table.
    // etwlint: source(raw-id): returns the raw clientID table for checkpointing
    pub fn appearance_order(&self) -> Vec<u32> {
        let mut order = vec![0u32; self.next as usize];
        for (w, &word) in self.touched.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let first = (w * 64 + bits.trailing_zeros() as usize) << PAGE_BITS;
                bits &= bits - 1;
                let slab = &self.slabs[first >> SLAB_BITS];
                let start = first & ((1 << SLAB_BITS) - 1);
                let end = slab.len().min(start + (1 << PAGE_BITS));
                for (i, &cell) in slab[start..end].iter().enumerate() {
                    if cell != 0 {
                        order[cell as usize - 1] = (first + i) as u32;
                    }
                }
            }
        }
        for (&raw, &v) in &self.spill {
            order[v as usize] = raw;
        }
        order
    }

    /// Rebuilds an anonymiser from a checkpointed appearance order.
    // etwlint: sanitize(raw-id): raw checkpoint ids are replayed into the private table
    pub fn from_order(width_bits: u32, order: &[u32]) -> Self {
        let mut a = DirectArrayAnonymizer::new(width_bits);
        for &raw in order {
            a.anonymize(ClientId(raw));
        }
        a
    }

    /// Number of clientIDs that fell outside the array and live in the
    /// spill side-table (0 at the paper's full 32-bit width).
    pub fn spilled(&self) -> usize {
        self.spill.len()
    }
}

impl ClientIdAnonymizer for DirectArrayAnonymizer {
    #[inline]
    // etwlint: sanitize(raw-id): raw id becomes its appearance-order index
    fn anonymize(&mut self, id: ClientId) -> u32 {
        let raw = id.raw();
        let cell = self
            .slabs
            .get_mut((raw >> SLAB_BITS) as usize)
            .and_then(|slab| slab.get_mut((raw & ((1 << SLAB_BITS) - 1)) as usize));
        if let Some(cell) = cell {
            let page = (raw >> PAGE_BITS) as usize;
            let word = &mut self.touched[page / 64];
            let bit = 1 << (page % 64);
            if *word & bit == 0 {
                // First write to this page: every cell in it is still
                // zero, so write without reading.
                *word |= bit;
            } else if *cell != 0 {
                return *cell - 1;
            }
            let v = self.next;
            self.next += 1;
            *cell = v + 1;
            v
        } else {
            let next = &mut self.next;
            *self.spill.entry(raw).or_insert_with(|| {
                let v = *next;
                *next += 1;
                v
            })
        }
    }

    fn distinct(&self) -> u32 {
        self.next
    }

    fn lookup(&self, id: ClientId) -> Option<u32> {
        let raw = id.raw();
        let cell = self
            .slabs
            .get((raw >> SLAB_BITS) as usize)
            .and_then(|slab| slab.get((raw & ((1 << SLAB_BITS) - 1)) as usize));
        match cell {
            // Cells of untouched pages read as zero: unseen.
            Some(&cell) => cell.checked_sub(1),
            None => self.spill.get(&raw).copied(),
        }
    }

    fn name(&self) -> &'static str {
        "direct_array"
    }
}

/// Baseline: std `HashMap` (SipHash), the "hashtable" the paper found too
/// slow at capture rates.
#[derive(Default)]
pub struct HashMapAnonymizer {
    map: HashMap<u32, u32>,
}

impl HashMapAnonymizer {
    /// Empty anonymiser.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ClientIdAnonymizer for HashMapAnonymizer {
    // etwlint: sanitize(raw-id): raw id becomes its appearance-order index
    fn anonymize(&mut self, id: ClientId) -> u32 {
        let next = self.map.len() as u32;
        *self.map.entry(id.raw()).or_insert(next)
    }

    fn distinct(&self) -> u32 {
        self.map.len() as u32
    }

    fn lookup(&self, id: ClientId) -> Option<u32> {
        self.map.get(&id.raw()).copied()
    }

    fn name(&self) -> &'static str {
        "hashmap"
    }
}

/// Baseline: `BTreeMap` (the "trees" of the paper's comparison).
#[derive(Default)]
pub struct BTreeAnonymizer {
    map: BTreeMap<u32, u32>,
}

impl BTreeAnonymizer {
    /// Empty anonymiser.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ClientIdAnonymizer for BTreeAnonymizer {
    // etwlint: sanitize(raw-id): raw id becomes its appearance-order index
    fn anonymize(&mut self, id: ClientId) -> u32 {
        let next = self.map.len() as u32;
        *self.map.entry(id.raw()).or_insert(next)
    }

    fn distinct(&self) -> u32 {
        self.map.len() as u32
    }

    fn lookup(&self, id: ClientId) -> Option<u32> {
        self.map.get(&id.raw()).copied()
    }

    fn name(&self) -> &'static str {
        "btreemap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn all_impls(width: u32) -> Vec<Box<dyn ClientIdAnonymizer>> {
        vec![
            Box::new(DirectArrayAnonymizer::new(width)),
            Box::new(HashMapAnonymizer::new()),
            Box::new(BTreeAnonymizer::new()),
        ]
    }

    #[test]
    fn order_of_appearance() {
        for mut a in all_impls(16) {
            assert_eq!(a.anonymize(ClientId(500)), 0, "{}", a.name());
            assert_eq!(a.anonymize(ClientId(7)), 1);
            assert_eq!(a.anonymize(ClientId(500)), 0, "repeat keeps value");
            assert_eq!(a.anonymize(ClientId(65_000)), 2);
            assert_eq!(a.distinct(), 3);
        }
    }

    #[test]
    fn lookup_does_not_insert() {
        for mut a in all_impls(16) {
            assert_eq!(a.lookup(ClientId(9)), None);
            assert_eq!(a.distinct(), 0, "{}", a.name());
            a.anonymize(ClientId(9));
            assert_eq!(a.lookup(ClientId(9)), Some(0));
        }
    }

    #[test]
    fn implementations_agree_differentially() {
        // The HashMap is the oracle; the paper's structure must encode
        // identically on a random stream with repetitions.
        let mut rng = StdRng::seed_from_u64(99);
        let stream: Vec<ClientId> = (0..20_000)
            .map(|_| ClientId(rng.gen_range(0..1u32 << 16)))
            .collect();
        let mut direct = DirectArrayAnonymizer::new(16);
        let mut oracle = HashMapAnonymizer::new();
        let mut btree = BTreeAnonymizer::new();
        for &id in &stream {
            let want = oracle.anonymize(id);
            assert_eq!(direct.anonymize(id), want);
            assert_eq!(btree.anonymize(id), want);
        }
        assert_eq!(direct.distinct(), oracle.distinct());
        assert_eq!(btree.distinct(), oracle.distinct());
    }

    #[test]
    fn anonymized_values_are_dense() {
        // Paper: "anonymised clientID are integers between 0 and N-1".
        let mut a = DirectArrayAnonymizer::new(16);
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            seen.insert(a.anonymize(ClientId(rng.gen_range(0..1u32 << 16))));
        }
        let n = a.distinct();
        assert_eq!(seen.len() as u32, n);
        assert!(seen.iter().all(|&v| v < n));
    }

    #[test]
    fn table_bytes_matches_width() {
        let a = DirectArrayAnonymizer::new(20);
        assert_eq!(a.table_bytes(), (1usize << 20) * 4);
        assert_eq!(a.width_bits(), 20);
        // The paper's configuration: width 32 → 16 GB (not allocated in
        // tests, just arithmetic).
        let cells: usize = 1 << 32;
        assert_eq!(cells * 4, 16 * (1usize << 30));
    }

    #[test]
    fn out_of_space_ids_spill_without_panicking() {
        // Live traffic carries clientIDs beyond a narrow array: high-ID
        // clients and peer-server addresses are full IPv4 addresses. They
        // must encode through the spill side-table, in the same dense
        // order-of-appearance sequence as array-resident IDs.
        let mut a = DirectArrayAnonymizer::new(8);
        assert_eq!(a.anonymize(ClientId(3)), 0);
        assert_eq!(a.anonymize(ClientId(0x5216_0a01)), 1, "spilled id");
        assert_eq!(a.anonymize(ClientId(7)), 2);
        assert_eq!(a.anonymize(ClientId(0x5216_0a01)), 1, "repeat keeps value");
        assert_eq!(a.distinct(), 3);
        assert_eq!(a.spilled(), 1);
        assert_eq!(a.lookup(ClientId(0x5216_0a01)), Some(1));
        assert_eq!(a.lookup(ClientId(0x5216_0a02)), None);
        // The checkpointable order covers both halves and round-trips.
        let order = a.appearance_order();
        assert_eq!(order, vec![3, 0x5216_0a01, 7]);
        let b = DirectArrayAnonymizer::from_order(8, &order);
        assert_eq!(b.lookup(ClientId(0x5216_0a01)), Some(1));
        assert_eq!(b.distinct(), 3);
    }

    #[test]
    fn paper_width_pages_in_lazily() {
        // The paper's 2^32-cell table constructs without 16 GB of RAM:
        // only the pages written to are resident, counted by the bitmap.
        let mut a = DirectArrayAnonymizer::new(32);
        assert_eq!(a.table_bytes(), 16 * (1usize << 30));
        assert_eq!(a.pages_touched(), 0);
        let mut rng = StdRng::seed_from_u64(32);
        let ids: Vec<u32> = (0..10_000).map(|_| rng.gen()).collect();
        for &raw in &ids {
            a.anonymize(ClientId(raw));
        }
        assert!(a.pages_touched() <= 10_000, "{} pages", a.pages_touched());
        assert_eq!(a.spilled(), 0, "width 32 never spills");
        assert_eq!(a.lookup(ClientId(ids[0])), Some(0));
        let order = a.appearance_order();
        assert_eq!(order.len() as u32, a.distinct());
        let b = DirectArrayAnonymizer::from_order(32, &order);
        assert_eq!(b.appearance_order(), order);
        assert_eq!(b.pages_touched(), a.pages_touched());
    }

    #[test]
    fn pages_are_marked_on_first_write_only() {
        let mut a = DirectArrayAnonymizer::new(16);
        // Cells 0..1024 share a page; 1024 starts the next one.
        assert_eq!(a.lookup(ClientId(5)), None);
        assert_eq!(a.pages_touched(), 0, "lookup marks nothing");
        assert_eq!(a.anonymize(ClientId(1023)), 0);
        assert_eq!(a.anonymize(ClientId(0)), 1);
        assert_eq!(a.pages_touched(), 1);
        assert_eq!(a.anonymize(ClientId(1024)), 2);
        assert_eq!(a.anonymize(ClientId(1023)), 0, "repeat in a touched page");
        assert_eq!(a.pages_touched(), 2);
        assert_eq!(a.appearance_order(), vec![1023, 0, 1024]);
    }

    #[test]
    fn high_and_low_ids_both_encoded() {
        let mut a = DirectArrayAnonymizer::new(32 - 8); // 24-bit space
        let low = ClientId::low(42);
        assert_eq!(a.anonymize(low), 0);
        assert_eq!(a.distinct(), 1);
    }
}
