//! Per-client session generator — the campaign's traffic source.
//!
//! Each client is a small phase machine (connect → announce shares →
//! announce forged decoys → ask about files) driven by its **own** RNG,
//! seeded by `(campaign seed, global client index)`. Every draw a client
//! ever makes — session behaviour *and* the wire-level randomness the
//! capture path needs (corruption, TCP/UDP noise) — comes from that one
//! stream, so the emitted event sequence is invariant under any partition
//! of the population: [`SessionShard`] workers own disjoint client
//! subsets and [`MergedSessions`] k-way-merges them on `(t_us, gidx)`
//! into the exact one-shard order (each client has at most one pending
//! event, and `gidx` breaks ties). The stream holds only *client
//! queries*; the directory server produces the answers, as in the
//! measured system where the capture saw both directions.
//!
//! Events carry the query already encoded to wire bytes (built from
//! per-file blobs precomputed once in [`SourceBlobs`]) plus a compact
//! [`SrcOp`] so the downstream per-shard server indexes never re-decode.

use crate::catalog::Catalog;
use crate::clients::Population;
use etw_edonkey::ids::{ClientId, FileId};
use etw_edonkey::tags::special;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

/// eDonkey datagram marker byte.
const MARKER: u8 = 0xE3;

/// Session tuning parameters.
#[derive(Clone, Debug)]
pub struct GeneratorParams {
    /// Virtual campaign duration in seconds (the paper: ten weeks).
    pub duration_secs: u64,
    /// Probability that an ask is preceded by a metadata search (the
    /// rest go straight to a source query, e.g. resumed downloads).
    pub p_search_first: f64,
    /// Probability that a search carries a file-size constraint.
    pub p_size_constraint: f64,
    /// Probability of a management query at connect time.
    pub p_management: f64,
    /// Files per OfferFiles announcement message.
    pub announce_chunk: usize,
    /// Probability that an announcement uses an oversized chunk (these
    /// are the datagrams that exceed the MTU and exercise IP
    /// fragmentation, rare as in the paper).
    pub p_large_chunk: f64,
}

impl Default for GeneratorParams {
    fn default() -> Self {
        GeneratorParams {
            duration_secs: 7 * 86_400, // one virtual week by default
            p_search_first: 0.8,
            p_size_constraint: 0.15,
            p_management: 0.5,
            announce_chunk: 12,
            p_large_chunk: 0.003,
        }
    }
}

/// Wire-level randomness parameters, pre-drawn per event in the client
/// stream so frame synthesis downstream stays partition-invariant. The
/// default is a clean wire: no corruption and no noise.
#[derive(Clone, Debug, Default)]
pub struct WireParams {
    /// Probability a datagram is corrupted in flight.
    pub p_corrupt: f64,
    /// Probability corruption is structural (truncation) rather than a
    /// well-formed-header/garbage-body replacement.
    pub p_corrupt_structural: f64,
    /// Probability a query event is accompanied by a TCP flight.
    pub p_tcp_noise: f64,
    /// Probability a query event is accompanied by a stray UDP datagram.
    pub p_udp_noise: f64,
}

/// Management queries (answered statically by the directory server).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MgmtOp {
    /// `StatusRequest`: echoed challenge + live user/file counts.
    Status {
        /// Challenge echoed verbatim in the answer.
        challenge: u32,
    },
    /// `GetServerList`.
    ServerList,
    /// `ServerDescRequest`.
    Desc,
}

/// One file entry of an `OfferFiles` announcement, reduced to what the
/// shard index needs: the (possibly forged) ID plus the catalog file that
/// supplies name/size/type metadata (the decoy file for forged entries).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PubEntry {
    /// Announced file ID (forged for polluter decoys).
    pub file_id: FileId,
    /// Catalog index backing the entry's metadata tags.
    pub file_idx: u32,
}

/// Compact query operation mirroring the wire message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SrcOp {
    /// Management query.
    Mgmt(MgmtOp),
    /// `OfferFiles` announcement (no answer).
    Offer(Vec<PubEntry>),
    /// Keyword search over the first `n_kws` keywords of catalog file
    /// `file_idx`, optionally size-constrained.
    Search {
        /// Catalog file whose keywords form the query.
        file_idx: u32,
        /// Number of leading keywords ANDed together (≥ 1).
        n_kws: u8,
        /// Optional minimum-size constraint (`FILESIZE >= value`).
        size_min: Option<u32>,
    },
    /// `GetSources` for one file.
    Sources {
        /// Queried file ID.
        file_id: FileId,
    },
}

impl SrcOp {
    /// True when the server answers this query with a datagram.
    pub fn has_answer(&self) -> bool {
        !matches!(self, SrcOp::Offer(_))
    }
}

/// Per-event wire randomness, pre-drawn from the owning client's RNG in a
/// fixed order (query corruption, answer corruption, TCP flight, UDP
/// stray) so the capture path needs no RNG of its own.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NoiseDraws {
    /// Query datagram corrupted in flight.
    pub query_corrupt: bool,
    /// Query corruption is structural (truncation).
    pub query_structural: bool,
    /// Answer datagram corrupted in flight.
    pub answer_corrupt: bool,
    /// Answer corruption is structural.
    pub answer_structural: bool,
    /// TCP noise flight length (0 = no flight, otherwise 1..=4).
    pub tcp_flight: u8,
    /// Per-flight-frame source addresses.
    pub tcp_src: [u32; 4],
    /// Per-flight-frame payload lengths (40..1400).
    pub tcp_len: [u16; 4],
    /// Stray UDP payload length (0 = none, otherwise 4..64).
    pub udp_len: u8,
    /// Stray UDP payload bytes (first byte forced to 0x17, a non-eDonkey
    /// marker).
    pub udp_payload: [u8; 63],
}

/// One generated source event: envelope, encoded query, op, wire draws.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SrcEvent {
    /// Virtual emission time in microseconds.
    pub t_us: u64,
    /// Global client index (merge tie-break; stable across shardings).
    pub gidx: u32,
    /// Sender.
    pub client: ClientId,
    /// Sender UDP port.
    pub port: u16,
    /// Encoded query datagram payload (marker + opcode + body).
    pub query: Vec<u8>,
    /// Compact operation for the shard indexes.
    pub op: SrcOp,
    /// Pre-drawn wire randomness.
    pub wire: NoiseDraws,
}

/// Per-file wire fragments precomputed once per campaign and shared by
/// generator workers (query encoding) and server shards (answer entries).
pub struct SourceBlobs {
    /// Per catalog file: the three metadata tags (FILENAME, FILESIZE,
    /// FILETYPE) encoded back-to-back, *without* the TagList count.
    tags3: Vec<Box<[u8]>>,
    /// Per catalog file: keyword atoms (`0x01 + str16`) encoded
    /// back-to-back, with end offsets per atom.
    kw_atoms: Vec<Box<[u8]>>,
    kw_ends: Vec<[u16; 4]>,
    kw_counts: Vec<u8>,
}

fn put_special_name(out: &mut Vec<u8>, name: u8) {
    out.extend_from_slice(&[0x01, 0x00, name]);
}

fn put_str_tag(out: &mut Vec<u8>, name: u8, value: &str) {
    out.push(0x02);
    put_special_name(out, name);
    out.extend_from_slice(&(value.len() as u16).to_le_bytes());
    out.extend_from_slice(value.as_bytes());
}

fn put_u32_tag(out: &mut Vec<u8>, name: u8, value: u32) {
    out.push(0x03);
    put_special_name(out, name);
    out.extend_from_slice(&value.to_le_bytes());
}

impl SourceBlobs {
    /// Precomputes the per-file fragments for `catalog`.
    pub fn build(catalog: &Catalog) -> Self {
        let n = catalog.len();
        let mut tags3 = Vec::with_capacity(n);
        let mut kw_atoms = Vec::with_capacity(n);
        let mut kw_ends = Vec::with_capacity(n);
        let mut kw_counts = Vec::with_capacity(n);
        for f in catalog.files() {
            let mut t = Vec::with_capacity(24 + f.name.len());
            put_str_tag(&mut t, special::FILENAME, &f.name);
            put_u32_tag(&mut t, special::FILESIZE, f.size);
            put_str_tag(&mut t, special::FILETYPE, f.kind.tag_value());
            tags3.push(t.into_boxed_slice());

            let mut atoms = Vec::with_capacity(8 * f.keywords.len());
            let mut ends = [0u16; 4];
            for (i, kw) in f.keywords.iter().take(4).enumerate() {
                atoms.push(0x01);
                atoms.extend_from_slice(&(kw.len() as u16).to_le_bytes());
                atoms.extend_from_slice(kw.as_bytes());
                ends[i] = atoms.len() as u16;
            }
            kw_counts.push(f.keywords.len().min(4) as u8);
            kw_ends.push(ends);
            kw_atoms.push(atoms.into_boxed_slice());
        }
        SourceBlobs {
            tags3,
            kw_atoms,
            kw_ends,
            kw_counts,
        }
    }

    /// The three metadata tags of file `idx`, encoded without a count.
    pub fn tags3(&self, idx: u32) -> &[u8] {
        &self.tags3[idx as usize]
    }

    /// Appends one encoded `FileEntry` for `idx` (id + provider + the
    /// 3-tag TagList) to `out`.
    pub fn put_entry(
        &self,
        out: &mut Vec<u8>,
        file_id: &FileId,
        client: ClientId,
        port: u16,
        idx: u32,
    ) {
        out.extend_from_slice(file_id.as_bytes());
        out.extend_from_slice(&client.raw().to_le_bytes());
        out.extend_from_slice(&port.to_le_bytes());
        out.extend_from_slice(&3u32.to_le_bytes());
        out.extend_from_slice(self.tags3(idx));
    }

    /// Appends the search expression for the first `n` keywords of file
    /// `idx` (left-deep AND chain, optional min-size constraint).
    pub fn put_search_expr(&self, out: &mut Vec<u8>, idx: u32, n: u8, size_min: Option<u32>) {
        if size_min.is_some() {
            out.extend_from_slice(&[0x00, 0x00]);
        }
        for _ in 1..n {
            out.extend_from_slice(&[0x00, 0x00]);
        }
        let end = self.kw_ends[idx as usize][(n - 1) as usize] as usize;
        out.extend_from_slice(&self.kw_atoms[idx as usize][..end]);
        if let Some(half) = size_min {
            out.push(0x03);
            out.extend_from_slice(&half.to_le_bytes());
            out.push(0x01); // NumCmp::Min
            put_special_name(out, special::FILESIZE);
        }
    }

    /// Keyword count available for file `idx` (1..=4).
    pub fn kw_count(&self, idx: u32) -> u8 {
        self.kw_counts[idx as usize]
    }
}

/// Derives the independent RNG for global client `gidx`.
fn client_rng(seed: u64, gidx: u32) -> StdRng {
    StdRng::seed_from_u64(splitmix64(
        (seed ^ 0x7365_7373_696f_6e73)
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(1 + gidx as u64)),
    ))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Clone, Debug)]
enum Phase {
    Connect,
    Announce { offset: u32 },
    AnnounceForged { offset: u32 },
    Ask { done: u32 },
    GetSourcesFor { file_idx: u32, done: u32 },
    Done,
}

struct ClientState {
    gidx: u32,
    rng: StdRng,
    phase: Phase,
    asked: HashSet<u32>,
    shared: Vec<u32>,
}

/// One generator worker owning the clients with `gidx % n_shards ==
/// shard`; yields that subset's events in `(t_us, gidx)` order.
pub struct SessionShard {
    catalog: Arc<Catalog>,
    population: Arc<Population>,
    blobs: Arc<SourceBlobs>,
    params: GeneratorParams,
    wire: WireParams,
    states: Vec<ClientState>,
    /// Heap of (t_us, local state index) — gidx order coincides with
    /// local index order within a shard, so local ties break like global.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl SessionShard {
    /// Builds the worker for `shard` of `n_shards`; deterministic in
    /// `seed` and independent of `n_shards` at the per-client level.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        catalog: Arc<Catalog>,
        population: Arc<Population>,
        blobs: Arc<SourceBlobs>,
        params: GeneratorParams,
        wire: WireParams,
        seed: u64,
        shard: usize,
        n_shards: usize,
    ) -> Self {
        assert!(n_shards > 0 && shard < n_shards);
        let n_clients = population.clients().len();
        let mut states = Vec::with_capacity(n_clients / n_shards + 1);
        let mut heap = BinaryHeap::with_capacity(n_clients / n_shards + 1);
        let horizon_us = (params.duration_secs * 900_000).max(1);
        // Epoch-marked scratch table for shared-set dedup: one u32 slot
        // per catalog file, a client's draws are "seen" when the slot
        // holds its epoch. Replaces a per-client HashSet — same distinct
        // set for the same draw sequence, no hashing and no per-client
        // allocation.
        let mut mark: Vec<u32> = vec![0; catalog.len()];
        let mut epoch = 0u32;
        for gidx in (shard..n_clients).step_by(n_shards) {
            let p = &population.clients()[gidx];
            let mut rng = client_rng(seed, gidx as u32);
            epoch += 1;
            let mut shared: Vec<u32> = Vec::with_capacity(p.n_shared as usize);
            let mut attempts = 0u32;
            while (shared.len() as u32) < p.n_shared && attempts < p.n_shared * 8 {
                let f = catalog.sample_provided(&mut rng) as u32;
                if mark[f as usize] != epoch {
                    mark[f as usize] = epoch;
                    shared.push(f);
                }
                attempts += 1;
            }
            shared.sort_unstable();
            // Arrivals spread uniformly over the first 90% of the campaign.
            let start_us = rng.gen_range(0..horizon_us);
            heap.push(Reverse((start_us, states.len() as u32)));
            states.push(ClientState {
                gidx: gidx as u32,
                rng,
                phase: Phase::Connect,
                asked: HashSet::new(),
                shared,
            });
        }
        SessionShard {
            catalog,
            population,
            blobs,
            params,
            wire,
            states,
            heap,
        }
    }

    fn schedule(&mut self, li: u32, at_us: u64) {
        if at_us < self.params.duration_secs * 1_000_000 {
            self.heap.push(Reverse((at_us, li)));
        } else {
            self.states[li as usize].phase = Phase::Done;
        }
    }

    fn step(&mut self, li: u32, now_us: u64) -> Option<(SrcOp, Vec<u8>)> {
        let gidx = self.states[li as usize].gidx;
        let profile = &self.population.clients()[gidx as usize];
        let (n_forged, n_asks) = (profile.n_forged, profile.n_asks);
        let phase = self.states[li as usize].phase.clone();
        match phase {
            Phase::Connect => {
                self.states[li as usize].phase = if !self.states[li as usize].shared.is_empty() {
                    Phase::Announce { offset: 0 }
                } else if n_forged > 0 {
                    Phase::AnnounceForged { offset: 0 }
                } else {
                    Phase::Ask { done: 0 }
                };
                let gap = exp_gap_us(&mut self.states[li as usize].rng, 2.0);
                self.schedule(li, now_us + gap);
                let rng = &mut self.states[li as usize].rng;
                if rng.gen_bool(self.params.p_management) {
                    let (op, query) = if rng.gen_bool(0.6) {
                        let challenge: u32 = rng.gen();
                        let mut q = Vec::with_capacity(6);
                        q.extend_from_slice(&[MARKER, 0x96]);
                        q.extend_from_slice(&challenge.to_le_bytes());
                        (SrcOp::Mgmt(MgmtOp::Status { challenge }), q)
                    } else if rng.gen_bool(0.5) {
                        (SrcOp::Mgmt(MgmtOp::ServerList), vec![MARKER, 0xA0])
                    } else {
                        (SrcOp::Mgmt(MgmtOp::Desc), vec![MARKER, 0xA2])
                    };
                    Some((op, query))
                } else {
                    None
                }
            }
            Phase::Announce { offset } => {
                let chunk = chunk_size(&mut self.states[li as usize].rng, &self.params);
                let shared_len = self.states[li as usize].shared.len();
                let end = (offset as usize + chunk).min(shared_len);
                let client = profile.id;
                let port = profile.port;
                let mut entries = Vec::with_capacity(end - offset as usize);
                let mut query = Vec::with_capacity(2 + 4 + 80 * (end - offset as usize));
                query.extend_from_slice(&[MARKER, 0x15]);
                query.extend_from_slice(&((end - offset as usize) as u32).to_le_bytes());
                for k in offset as usize..end {
                    let fidx = self.states[li as usize].shared[k];
                    let id = self.catalog.file(fidx as usize).id;
                    self.blobs.put_entry(&mut query, &id, client, port, fidx);
                    entries.push(PubEntry {
                        file_id: id,
                        file_idx: fidx,
                    });
                }
                self.states[li as usize].phase = if end < shared_len {
                    Phase::Announce { offset: end as u32 }
                } else if n_forged > 0 {
                    Phase::AnnounceForged { offset: 0 }
                } else {
                    Phase::Ask { done: 0 }
                };
                let gap = exp_gap_us(&mut self.states[li as usize].rng, 3.0);
                self.schedule(li, now_us + gap);
                Some((SrcOp::Offer(entries), query))
            }
            Phase::AnnounceForged { offset } => {
                let chunk = chunk_size(&mut self.states[li as usize].rng, &self.params) as u32;
                let end = (offset + chunk).min(n_forged);
                let client = profile.id;
                let port = profile.port;
                let prefix = if client.raw().is_multiple_of(2) {
                    [0x00, 0x00]
                } else {
                    [0x00, 0x01]
                };
                let mut entries = Vec::with_capacity((end - offset) as usize);
                let mut query = Vec::with_capacity(2 + 4 + 80 * (end - offset) as usize);
                query.extend_from_slice(&[MARKER, 0x15]);
                query.extend_from_slice(&(end - offset).to_le_bytes());
                for seq in offset..end {
                    let decoy_idx = {
                        let rng = &mut self.states[li as usize].rng;
                        self.catalog.sample_sought(rng) as u32
                    };
                    let counter = ((gidx as u64) << 32) | seq as u64;
                    let id = FileId::forged(counter, prefix);
                    self.blobs
                        .put_entry(&mut query, &id, client, port, decoy_idx);
                    entries.push(PubEntry {
                        file_id: id,
                        file_idx: decoy_idx,
                    });
                }
                self.states[li as usize].phase = if end < n_forged {
                    Phase::AnnounceForged { offset: end }
                } else {
                    Phase::Ask { done: 0 }
                };
                let gap = exp_gap_us(&mut self.states[li as usize].rng, 3.0);
                self.schedule(li, now_us + gap);
                Some((SrcOp::Offer(entries), query))
            }
            Phase::Ask { done } => {
                if done >= n_asks {
                    self.states[li as usize].phase = Phase::Done;
                    return None;
                }
                let file_idx = self.pick_ask(li);
                let p_search_first = self.params.p_search_first;
                if self.states[li as usize].rng.gen_bool(p_search_first) {
                    self.states[li as usize].phase = Phase::GetSourcesFor { file_idx, done };
                    let gap = exp_gap_us(&mut self.states[li as usize].rng, 4.0);
                    self.schedule(li, now_us + gap.max(500_000));
                    let (n_kws, size_min) = {
                        let kw_max = self.blobs.kw_count(file_idx);
                        let rng = &mut self.states[li as usize].rng;
                        let n = kw_max.min(1 + rng.gen_range(0..3) as u8);
                        let size_min = if rng.gen_bool(self.params.p_size_constraint) {
                            Some(self.catalog.file(file_idx as usize).size / 2)
                        } else {
                            None
                        };
                        (n, size_min)
                    };
                    let mut query = Vec::with_capacity(64);
                    query.extend_from_slice(&[MARKER, 0x98]);
                    self.blobs
                        .put_search_expr(&mut query, file_idx, n_kws, size_min);
                    Some((
                        SrcOp::Search {
                            file_idx,
                            n_kws,
                            size_min,
                        },
                        query,
                    ))
                } else {
                    self.states[li as usize].phase = Phase::Ask { done: done + 1 };
                    let gap = self.ask_gap(li, now_us, done + 1);
                    self.schedule(li, now_us + gap);
                    Some(self.sources_query(file_idx))
                }
            }
            Phase::GetSourcesFor { file_idx, done } => {
                self.states[li as usize].phase = Phase::Ask { done: done + 1 };
                let gap = self.ask_gap(li, now_us, done + 1);
                self.schedule(li, now_us + gap);
                Some(self.sources_query(file_idx))
            }
            Phase::Done => None,
        }
    }

    fn sources_query(&self, file_idx: u32) -> (SrcOp, Vec<u8>) {
        let file_id = self.catalog.file(file_idx as usize).id;
        let mut query = Vec::with_capacity(18);
        query.extend_from_slice(&[MARKER, 0x9A]);
        query.extend_from_slice(file_id.as_bytes());
        (SrcOp::Sources { file_id }, query)
    }

    fn pick_ask(&mut self, li: u32) -> u32 {
        for _ in 0..4 {
            let f = {
                let rng = &mut self.states[li as usize].rng;
                self.catalog.sample_sought(rng) as u32
            };
            if !self.states[li as usize].asked.contains(&f) {
                self.states[li as usize].asked.insert(f);
                return f;
            }
        }
        if self.states[li as usize].asked.len() >= self.catalog.len() {
            let rng = &mut self.states[li as usize].rng;
            return self.catalog.sample_sought(rng) as u32;
        }
        loop {
            let f = {
                let rng = &mut self.states[li as usize].rng;
                rng.gen_range(0..self.catalog.len()) as u32
            };
            if self.states[li as usize].asked.insert(f) {
                return f;
            }
        }
    }

    fn ask_gap(&mut self, li: u32, now_us: u64, done: u32) -> u64 {
        let gidx = self.states[li as usize].gidx;
        let n_asks = self.population.clients()[gidx as usize].n_asks;
        let remaining_asks = n_asks.saturating_sub(done) + 1;
        let soft_end = self.params.duration_secs * 1_000_000 / 100 * 97;
        let remaining_secs = soft_end.saturating_sub(now_us) as f64 / 1e6;
        let mean = (remaining_secs / remaining_asks as f64).clamp(1.0, 3_600.0);
        exp_gap_us(&mut self.states[li as usize].rng, mean)
    }

    /// Draws the event's wire randomness; fixed order, one stream.
    fn draw_wire(&mut self, li: u32, has_answer: bool) -> NoiseDraws {
        let w = self.wire.clone();
        let rng = &mut self.states[li as usize].rng;
        let query_corrupt = rng.gen_bool(w.p_corrupt);
        let query_structural = query_corrupt && rng.gen_bool(w.p_corrupt_structural);
        let answered = has_answer && !query_corrupt;
        let answer_corrupt = answered && rng.gen_bool(w.p_corrupt);
        let answer_structural = answer_corrupt && rng.gen_bool(w.p_corrupt_structural);
        let mut tcp_flight = 0u8;
        let mut tcp_src = [0u32; 4];
        let mut tcp_len = [0u16; 4];
        if rng.gen_bool(w.p_tcp_noise) {
            tcp_flight = rng.gen_range(1..=4u32) as u8;
            for i in 0..tcp_flight as usize {
                tcp_src[i] = rng.gen();
                tcp_len[i] = rng.gen_range(40..1400u32) as u16;
            }
        }
        let mut udp_len = 0u8;
        let mut udp_payload = [0u8; 63];
        if rng.gen_bool(w.p_udp_noise) {
            udp_len = rng.gen_range(4..64u32) as u8;
            rng.fill(&mut udp_payload[..udp_len as usize]);
            udp_payload[0] = 0x17;
        }
        NoiseDraws {
            query_corrupt,
            query_structural,
            answer_corrupt,
            answer_structural,
            tcp_flight,
            tcp_src,
            tcp_len,
            udp_len,
            udp_payload,
        }
    }
}

fn exp_gap_us(rng: &mut StdRng, mean_secs: f64) -> u64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    ((-u.ln() * mean_secs).min(86_400.0 * 7.0) * 1e6) as u64
}

fn chunk_size(rng: &mut StdRng, params: &GeneratorParams) -> usize {
    if rng.gen_bool(params.p_large_chunk) {
        params.announce_chunk * 4
    } else {
        params.announce_chunk
    }
}

impl Iterator for SessionShard {
    type Item = SrcEvent;

    fn next(&mut self) -> Option<SrcEvent> {
        while let Some(Reverse((now_us, li))) = self.heap.pop() {
            if let Some((op, query)) = self.step(li, now_us) {
                let wire = self.draw_wire(li, op.has_answer());
                let s = &self.states[li as usize];
                let profile = &self.population.clients()[s.gidx as usize];
                return Some(SrcEvent {
                    t_us: now_us,
                    gidx: s.gidx,
                    client: profile.id,
                    port: profile.port,
                    query,
                    op,
                    wire,
                });
            }
        }
        None
    }
}

/// Serially k-way-merges `shards` into the global `(t_us, gidx)` order —
/// the reference merge the threaded source must reproduce. Used by tests,
/// the examples and the single-shard fast path.
pub struct MergedSessions {
    shards: Vec<SessionShard>,
    heads: Vec<Option<SrcEvent>>,
}

impl MergedSessions {
    /// Builds all `n_shards` workers and primes the merge.
    pub fn new(
        catalog: Arc<Catalog>,
        population: Arc<Population>,
        blobs: Arc<SourceBlobs>,
        params: GeneratorParams,
        wire: WireParams,
        seed: u64,
        n_shards: usize,
    ) -> Self {
        let mut shards: Vec<SessionShard> = (0..n_shards)
            .map(|s| {
                SessionShard::new(
                    catalog.clone(),
                    population.clone(),
                    blobs.clone(),
                    params.clone(),
                    wire.clone(),
                    seed,
                    s,
                    n_shards,
                )
            })
            .collect();
        let heads = shards.iter_mut().map(|s| s.next()).collect();
        MergedSessions { shards, heads }
    }
}

impl Iterator for MergedSessions {
    type Item = SrcEvent;

    fn next(&mut self) -> Option<SrcEvent> {
        let mut best: Option<usize> = None;
        for (i, h) in self.heads.iter().enumerate() {
            if let Some(ev) = h {
                let better = match best {
                    None => true,
                    Some(b) => {
                        let bh = self.heads[b].as_ref().unwrap();
                        (ev.t_us, ev.gidx) < (bh.t_us, bh.gidx)
                    }
                };
                if better {
                    best = Some(i);
                }
            }
        }
        let i = best?;
        let ev = self.heads[i].take();
        self.heads[i] = self.shards[i].next();
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogParams;
    use crate::clients::{ClientClass, PopulationParams};
    use etw_edonkey::messages::{FileEntry, Message};
    use etw_edonkey::search::{NumCmp, SearchExpr};
    use etw_edonkey::tags::{Tag, TagList, TagName};

    fn setup(
        n_clients: usize,
        n_files: usize,
    ) -> (Arc<Catalog>, Arc<Population>, Arc<SourceBlobs>) {
        let catalog = Catalog::generate(
            &CatalogParams {
                n_files,
                ..CatalogParams::default()
            },
            1,
        );
        let pop = Population::generate(
            &PopulationParams {
                n_clients,
                id_space_bits: 20,
                ..PopulationParams::default()
            },
            2,
        );
        let blobs = SourceBlobs::build(&catalog);
        (Arc::new(catalog), Arc::new(pop), Arc::new(blobs))
    }

    fn wire_params() -> WireParams {
        WireParams {
            p_corrupt: 0.0068,
            p_corrupt_structural: 0.78,
            p_tcp_noise: 0.8,
            p_udp_noise: 0.01,
        }
    }

    fn params(duration_secs: u64) -> GeneratorParams {
        GeneratorParams {
            duration_secs,
            ..GeneratorParams::default()
        }
    }

    fn merged(n_shards: usize, seed: u64, n_clients: usize) -> Vec<SrcEvent> {
        let (catalog, pop, blobs) = setup(n_clients, 2000);
        MergedSessions::new(
            catalog,
            pop,
            blobs,
            params(3_600),
            wire_params(),
            seed,
            n_shards,
        )
        .collect()
    }

    #[test]
    fn sharding_is_partition_invariant() {
        let one = merged(1, 7, 250);
        assert!(one.len() > 500, "only {} events", one.len());
        for s in [2usize, 3, 4, 8] {
            let many = merged(s, 7, 250);
            assert_eq!(one, many, "shard count {s} diverged");
        }
    }

    #[test]
    fn merged_stream_is_time_ordered() {
        let events = merged(4, 9, 200);
        for w in events.windows(2) {
            assert!((w[0].t_us, w[0].gidx) <= (w[1].t_us, w[1].gidx));
        }
        assert!(events.iter().all(|e| e.t_us < 3_600_000_000));
    }

    /// Rebuilds each event's query as a [`Message`] and checks the
    /// hand-encoded bytes match the reference encoder exactly.
    #[test]
    fn query_bytes_match_reference_encoder() {
        let (catalog, pop, blobs) = setup(200, 1500);
        let events: Vec<SrcEvent> = MergedSessions::new(
            catalog.clone(),
            pop,
            blobs,
            params(3_600),
            wire_params(),
            11,
            2,
        )
        .collect();
        let mut offers = 0;
        let mut searches = 0;
        for ev in &events {
            let msg = match &ev.op {
                SrcOp::Mgmt(MgmtOp::Status { challenge }) => Message::StatusRequest {
                    challenge: *challenge,
                },
                SrcOp::Mgmt(MgmtOp::ServerList) => Message::GetServerList,
                SrcOp::Mgmt(MgmtOp::Desc) => Message::ServerDescRequest,
                SrcOp::Offer(entries) => {
                    offers += 1;
                    Message::OfferFiles {
                        files: entries
                            .iter()
                            .map(|e| {
                                let f = catalog.file(e.file_idx as usize);
                                FileEntry {
                                    file_id: e.file_id,
                                    client_id: ev.client,
                                    port: ev.port,
                                    tags: TagList(vec![
                                        Tag::str(special::FILENAME, f.name.clone()),
                                        Tag::u32(special::FILESIZE, f.size),
                                        Tag::str(special::FILETYPE, f.kind.tag_value()),
                                    ]),
                                }
                            })
                            .collect(),
                    }
                }
                SrcOp::Search {
                    file_idx,
                    n_kws,
                    size_min,
                } => {
                    searches += 1;
                    let f = catalog.file(*file_idx as usize);
                    let mut expr = SearchExpr::keyword(f.keywords[0].clone());
                    for kw in f.keywords.iter().take(*n_kws as usize).skip(1) {
                        expr = SearchExpr::and(expr, SearchExpr::keyword(kw.clone()));
                    }
                    if let Some(half) = size_min {
                        expr = SearchExpr::and(
                            expr,
                            SearchExpr::MetaNum {
                                name: TagName::Special(special::FILESIZE),
                                cmp: NumCmp::Min,
                                value: *half,
                            },
                        );
                    }
                    Message::SearchRequest { expr }
                }
                SrcOp::Sources { file_id } => Message::GetSources {
                    file_ids: vec![*file_id],
                },
            };
            assert_eq!(
                ev.query,
                msg.encode(),
                "query bytes diverge for {:?}",
                ev.op
            );
        }
        assert!(
            offers > 50 && searches > 100,
            "{offers} offers, {searches} searches"
        );
    }

    #[test]
    fn announcements_cover_shared_files() {
        let (catalog, pop, blobs) = setup(150, 2000);
        let events: Vec<SrcEvent> = MergedSessions::new(
            catalog.clone(),
            pop.clone(),
            blobs,
            params(86_400),
            wire_params(),
            5,
            2,
        )
        .collect();
        use std::collections::HashMap;
        let mut announced: HashMap<u32, HashSet<FileId>> = HashMap::new();
        for e in &events {
            if let SrcOp::Offer(entries) = &e.op {
                let set = announced.entry(e.client.raw()).or_default();
                set.extend(entries.iter().map(|en| en.file_id));
            }
        }
        let legit: HashSet<FileId> = catalog.files().iter().map(|f| f.id).collect();
        let mut checked = 0;
        for p in pop.clients().iter().filter(|p| p.n_shared > 0) {
            if let Some(set) = announced.get(&p.id.raw()) {
                let legit_count = set.iter().filter(|id| legit.contains(id)).count() as u32;
                // Zipf dedup may give slightly fewer distinct files than
                // requested for very large shares, never more.
                assert!(
                    legit_count <= p.n_shared,
                    "client shared more than profiled"
                );
                if p.n_shared <= 100 {
                    assert!(legit_count >= 1, "client announced nothing");
                }
                checked += 1;
            }
        }
        assert!(
            checked > 50,
            "too few announcing clients checked: {checked}"
        );
    }

    #[test]
    fn capped_clients_ask_exactly_52_distinct_files() {
        let (catalog, pop, blobs) = setup(400, 3000);
        let events: Vec<SrcEvent> = MergedSessions::new(
            catalog,
            pop.clone(),
            blobs,
            params(86_400),
            wire_params(),
            7,
            4,
        )
        .collect();
        use std::collections::HashMap;
        let mut asked: HashMap<u32, HashSet<FileId>> = HashMap::new();
        for e in &events {
            if let SrcOp::Sources { file_id } = &e.op {
                asked.entry(e.client.raw()).or_default().insert(*file_id);
            }
        }
        let mut at_52 = 0;
        let mut total = 0;
        for p in pop.of_class(ClientClass::CappedSearcher) {
            if let Some(set) = asked.get(&p.id.raw()) {
                assert!(set.len() <= 52, "capped client asked {} files", set.len());
                total += 1;
                if set.len() == 52 {
                    at_52 += 1;
                }
            }
        }
        assert!(total > 20, "only {total} capped clients seen");
        assert!(
            at_52 as f64 > 0.8 * total as f64,
            "spike too smeared: {at_52}/{total} at exactly 52"
        );
    }

    #[test]
    fn polluters_announce_forged_prefixes() {
        let events = {
            let (catalog, pop, blobs) = setup(600, 2000);
            let v: Vec<SrcEvent> =
                MergedSessions::new(catalog, pop, blobs, params(86_400), wire_params(), 8, 2)
                    .collect();
            v
        };
        let mut forged = 0u64;
        for e in &events {
            if let SrcOp::Offer(entries) = &e.op {
                for en in entries {
                    let b = en.file_id.as_bytes();
                    if b[0] == 0 && (b[1] == 0 || b[1] == 1) {
                        forged += 1;
                    }
                }
            }
        }
        assert!(forged > 500, "only {forged} forged announcements");
    }

    #[test]
    fn wire_draws_present_at_plausible_rates() {
        let events = merged(2, 13, 300);
        let n = events.len() as f64;
        let tcp = events.iter().filter(|e| e.wire.tcp_flight > 0).count() as f64;
        let corrupt = events.iter().filter(|e| e.wire.query_corrupt).count() as f64;
        assert!(tcp / n > 0.7 && tcp / n < 0.9, "tcp rate {}", tcp / n);
        assert!(corrupt / n < 0.03, "corrupt rate {}", corrupt / n);
        for e in &events {
            if e.wire.udp_len > 0 {
                assert_eq!(e.wire.udp_payload[0], 0x17);
            }
            assert!(!e.wire.answer_corrupt || e.op.has_answer());
            assert!(!(e.wire.answer_corrupt && e.wire.query_corrupt));
        }
    }
}
