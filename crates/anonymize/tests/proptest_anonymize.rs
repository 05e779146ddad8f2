//! Property-based tests for the anonymisation structures: all
//! implementations must agree with a reference oracle, values must be a
//! dense 0..N prefix, and the scheme must be deterministic and
//! repetition-consistent.

use etw_anonymize::clientid::{
    BTreeAnonymizer, ClientIdAnonymizer, DirectArrayAnonymizer, HashMapAnonymizer,
};
use etw_anonymize::fields::anonymize_filesize;
use etw_anonymize::fileid::{
    BucketedArrays, ByteSelector, FileIdAnonymizer, HashMapFileAnonymizer, SingleSortedArray,
};
use etw_anonymize::scheme::PaperScheme;
use etw_edonkey::ids::{ClientId, FileId};
use etw_edonkey::messages::Message;
use proptest::prelude::*;
use std::collections::HashMap;

/// ClientID streams that mix dense low IDs, repeated high IDs and IDs
/// drawn from the whole 32-bit space, so narrow tables both index and
/// spill, and every table touches pages far apart.
fn mixed_client_ids() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(
        prop_oneof![
            0u32..4096,
            0u32..4096,
            (0u32..64).prop_map(|k| 0xC0A8_0000 + k * 0x0101),
            any::<u32>(),
        ],
        1..400,
    )
}

/// Checks the direct table against the `HashMapAnonymizer` oracle at
/// `width` on `stream`: values, `distinct()`, `spilled()`,
/// `appearance_order()` and a `from_order` round trip.
fn direct_matches_oracle(width: u32, stream: &[u32]) -> Result<(), TestCaseError> {
    let mut direct = DirectArrayAnonymizer::new(width);
    let mut oracle = HashMapAnonymizer::new();
    let mut order = Vec::new();
    for &raw in stream {
        let id = ClientId(raw);
        let want = oracle.anonymize(id);
        if want as usize == order.len() {
            order.push(raw);
        }
        prop_assert_eq!(direct.anonymize(id), want);
    }
    prop_assert_eq!(direct.distinct(), oracle.distinct());
    let beyond = order
        .iter()
        .filter(|&&raw| u64::from(raw) >> width != 0)
        .count();
    prop_assert_eq!(direct.spilled(), beyond);
    prop_assert_eq!(direct.appearance_order(), order.clone());
    let rebuilt = DirectArrayAnonymizer::from_order(width, &order);
    prop_assert_eq!(rebuilt.distinct(), oracle.distinct());
    prop_assert_eq!(rebuilt.spilled(), beyond);
    prop_assert_eq!(rebuilt.pages_touched(), direct.pages_touched());
    prop_assert_eq!(rebuilt.appearance_order(), order.clone());
    for &raw in &order {
        prop_assert_eq!(rebuilt.lookup(ClientId(raw)), oracle.lookup(ClientId(raw)));
    }
    Ok(())
}

proptest! {
    /// The lazily paged table against the oracle at the campaign-style
    /// narrow widths and at the paper's full 2^32.
    #[test]
    fn direct_table_matches_oracle_at_every_width(stream in mixed_client_ids()) {
        for width in [16, 24, 32] {
            direct_matches_oracle(width, &stream)?;
        }
    }

    /// Differential test: every clientID encoder computes the identical
    /// order-of-appearance function.
    #[test]
    fn clientid_encoders_agree(stream in prop::collection::vec(0u32..(1 << 14), 1..500)) {
        let mut reference: HashMap<u32, u32> = HashMap::new();
        let mut direct = DirectArrayAnonymizer::new(14);
        let mut hash = HashMapAnonymizer::new();
        let mut btree = BTreeAnonymizer::new();
        for &raw in &stream {
            let n = reference.len() as u32;
            let want = *reference.entry(raw).or_insert(n);
            let id = ClientId(raw);
            prop_assert_eq!(direct.anonymize(id), want);
            prop_assert_eq!(hash.anonymize(id), want);
            prop_assert_eq!(btree.anonymize(id), want);
        }
        prop_assert_eq!(direct.distinct() as usize, reference.len());
    }

    /// Differential test for the fileID encoders, under both byte
    /// selectors and with pollution mixed in.
    #[test]
    fn fileid_encoders_agree(
        identities in prop::collection::vec(0u64..300, 1..400),
        forged in prop::collection::vec(0u64..100, 0..100),
    ) {
        let mut stream: Vec<FileId> = identities.iter().map(|&i| FileId::of_identity(i)).collect();
        stream.extend(forged.iter().map(|&c| FileId::forged(c, [0x00, 0x00])));
        let mut reference: HashMap<FileId, u64> = HashMap::new();
        let mut first = BucketedArrays::new(ByteSelector::FIRST_TWO);
        let mut alt = BucketedArrays::new(ByteSelector::ALTERNATIVE);
        let mut single = SingleSortedArray::new();
        let mut hash = HashMapFileAnonymizer::new();
        for id in &stream {
            let n = reference.len() as u64;
            let want = *reference.entry(*id).or_insert(n);
            prop_assert_eq!(first.anonymize(id), want);
            prop_assert_eq!(alt.anonymize(id), want);
            prop_assert_eq!(single.anonymize(id), want);
            prop_assert_eq!(hash.anonymize(id), want);
        }
        // Bucket sizes always sum to the number of distinct IDs.
        prop_assert_eq!(
            first.bucket_sizes().iter().sum::<usize>() as u64,
            first.distinct()
        );
        prop_assert_eq!(
            alt.bucket_sizes().iter().sum::<usize>() as u64,
            alt.distinct()
        );
    }

    /// Anonymised values form a dense prefix 0..N-1 — the property the
    /// paper highlights as making "further use of the dataset much
    /// easier".
    #[test]
    fn values_form_dense_prefix(stream in prop::collection::vec(0u32..2048, 1..300)) {
        let mut a = DirectArrayAnonymizer::new(11);
        let mut seen = std::collections::HashSet::new();
        for &raw in &stream {
            seen.insert(a.anonymize(ClientId(raw)));
        }
        let n = a.distinct();
        prop_assert_eq!(seen.len() as u32, n);
        for v in 0..n {
            prop_assert!(seen.contains(&v), "hole at {}", v);
        }
    }

    /// Filesize anonymisation is monotone and bounded by 1 KB resolution.
    #[test]
    fn filesize_kb_properties(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(anonymize_filesize(lo) <= anonymize_filesize(hi));
        prop_assert!(lo / 1024 == anonymize_filesize(lo));
    }

    /// Scheme determinism: anonymising the same stream twice with fresh
    /// schemes yields identical records.
    #[test]
    fn scheme_deterministic(
        peers in prop::collection::vec(0u32..(1 << 12), 1..60),
        ids in prop::collection::vec(0u64..50, 1..60),
    ) {
        let msgs: Vec<(ClientId, Message)> = peers
            .iter()
            .zip(ids.iter())
            .map(|(&p, &i)| {
                (
                    ClientId(p),
                    Message::GetSources {
                        file_ids: vec![FileId::of_identity(i)],
                    },
                )
            })
            .collect();
        let run = || {
            let mut s = PaperScheme::paper(12);
            msgs.iter()
                .enumerate()
                .map(|(k, (p, m))| s.anonymize(k as u64, *p, m))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}
