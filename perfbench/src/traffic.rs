//! The campaign's traffic, rebuilt from the program's public parts: the
//! source's session generator (`MergedSessions`), its directory index
//! (`ShardIndex` over the catalog's `TokenTable`, as one shard) and the
//! wire path (`datagram_frames`, `tcp_noise_frame_bytes`). Answers are
//! laid out byte for byte as the campaign's source lays them out.
//!
//! Unchanged ([`Reshape::none`]), these are the frames the campaign's
//! source hands its pipeline whenever the capture ring loses none; the
//! traced `campaign` run checks that by dataset digest and times the
//! layers on them. `replay` reshapes the same traffic in the three ways
//! its workload asks for and changes nothing else, so its message mix,
//! list lengths, file names and sizes, noise and corruption are the
//! campaign's.

use etw_core::config::CampaignConfig;
use etw_core::pipeline::TimedFrame;
use etw_core::source::TokenTable;
use etw_core::wirepath::{datagram_frames, tcp_noise_frame_bytes, Direction, SERVER_IP};
use etw_edonkey::ids::{ClientId, FileId, LOW_ID_LIMIT};
use etw_edonkey::messages::Message;
use etw_edonkey::tags::special;
use etw_netsim::clock::VirtualTime;
use etw_server::shard::ShardIndex;
use etw_workload::session::{MergedSessions, MgmtOp, PubEntry, SourceBlobs, SrcOp, WireParams};
use etw_workload::{Catalog, Population};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// eDonkey datagram marker byte.
const MARKER: u8 = 0xE3;
/// The campaign source's answer limits and identity.
const MAX_SEARCH_RESULTS: usize = 15;
const ANSWER_MAX_SOURCES: usize = 50;
const STORE_MAX_SOURCES: usize = 500;
const SERVER_NAME: &str = "TenWeeksServer";
const SERVER_DESC: &str = "simulated eDonkey directory server";

/// How a workload departs from the campaign's traffic.
#[derive(Clone, Debug)]
pub struct Reshape {
    /// Give every client a random ID across the whole 32-bit space in
    /// place of its campaign ID (which fits the anonymiser's 24 bits).
    pub wide_client_ids: bool,
    /// Probability that an announced file is replaced by one never seen
    /// before.
    pub p_fresh_file: f64,
    /// Files per `OfferFiles` announcement.
    pub announce_chunk: usize,
    /// Client queries kept: a prefix of the campaign's stream.
    pub max_queries: usize,
}

impl Reshape {
    /// The campaign's own traffic.
    pub fn none(config: &CampaignConfig) -> Reshape {
        Reshape {
            wide_client_ids: false,
            p_fresh_file: 0.0,
            announce_chunk: config.generator.announce_chunk,
            max_queries: usize::MAX,
        }
    }
}

/// Clean client queries by message type: GetSources, SearchRequest,
/// OfferFiles, StatusRequest, GetServerList, ServerDescRequest.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mix {
    get_sources: u64,
    search: u64,
    offer: u64,
    status: u64,
    server_list: u64,
    desc: u64,
}

impl Mix {
    fn count(&mut self, op: &SrcOp) {
        match op {
            SrcOp::Sources { .. } => self.get_sources += 1,
            SrcOp::Search { .. } => self.search += 1,
            SrcOp::Offer(_) => self.offer += 1,
            SrcOp::Mgmt(MgmtOp::Status { .. }) => self.status += 1,
            SrcOp::Mgmt(MgmtOp::ServerList) => self.server_list += 1,
            SrcOp::Mgmt(MgmtOp::Desc) => self.desc += 1,
        }
    }

    /// The shares as one report fragment.
    pub fn describe(&self) -> String {
        let total = (self.get_sources
            + self.search
            + self.offer
            + self.status
            + self.server_list
            + self.desc)
            .max(1) as f64;
        let pct = |n: u64| 100.0 * n as f64 / total;
        format!(
            "GetSources {:.1}%, search {:.1}%, offer {:.1}%, status {:.1}%, server list {:.1}%, description {:.1}%",
            pct(self.get_sources),
            pct(self.search),
            pct(self.offer),
            pct(self.status),
            pct(self.server_list),
            pct(self.desc)
        )
    }
}

/// What went into the frames.
#[derive(Debug, Default)]
pub struct Stats {
    /// Ethernet frames.
    pub frames: u64,
    /// Well-formed eDonkey datagrams (queries and answers).
    pub clean: u64,
    /// Datagrams corrupted on the wire.
    pub corrupted: u64,
    /// Non-eDonkey UDP datagrams to the server port.
    pub udp_noise: u64,
    /// TCP frames.
    pub tcp_noise: u64,
    /// eDonkey `OfferFiles` datagrams.
    pub offers: u64,
    /// Of those, the ones split into IP fragments.
    pub offers_fragmented: u64,
    /// Clean client queries by type.
    pub mix: Mix,
}

/// Damages an encoded message the way the campaign's source does: a
/// structural truncation, or a well-formed header over a garbage body.
fn damage(bytes: &mut Vec<u8>, structural: bool) {
    if structural {
        if bytes.len() <= 2 {
            bytes.push(0xff);
        } else {
            bytes.truncate(2);
        }
    } else {
        bytes.clear();
        bytes.extend_from_slice(&[MARKER, 0x98, 0x7f]);
    }
}

/// A random high ID: any 32-bit value the wire path does not map to a
/// low ID's 10/8 address or to the server.
fn wide_id(rng: &mut StdRng) -> ClientId {
    loop {
        let raw: u32 = rng.gen();
        if raw >= LOW_ID_LIMIT && raw >> 24 != 0x0a && raw != SERVER_IP {
            return ClientId(raw);
        }
    }
}

/// The campaign's ServerList answer: eight peer servers inside the
/// compressed clientID space (ip = i).
fn serverlist_answer() -> Vec<u8> {
    let mut out = vec![MARKER, 0xA1, 8];
    for i in 1..=8u32 {
        out.extend_from_slice(&i.to_le_bytes());
        out.extend_from_slice(&(4661 + (i % 4) as u16).to_le_bytes());
    }
    out
}

fn desc_answer() -> Vec<u8> {
    let mut out = vec![MARKER, 0xA3];
    for s in [SERVER_NAME, SERVER_DESC] {
        out.extend_from_slice(&(s.len() as u16).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    out
}

/// Builds the traffic of `config`'s campaign, reshaped by `shape`.
pub fn build(config: &CampaignConfig, shape: &Reshape) -> (Vec<TimedFrame>, Stats) {
    let catalog = Arc::new(Catalog::generate(&config.catalog, config.seed ^ 1));
    let population = Arc::new(Population::generate(&config.population, config.seed ^ 2));
    let blobs = Arc::new(SourceBlobs::build(&catalog));
    let token = TokenTable::build(&catalog);
    let mut generator = config.generator.clone();
    generator.announce_chunk = shape.announce_chunk;
    let wire = WireParams {
        p_corrupt: config.p_corrupt,
        p_corrupt_structural: config.p_corrupt_structural,
        p_tcp_noise: config.p_tcp_noise,
        p_udp_noise: config.p_udp_noise,
    };
    let events = MergedSessions::new(
        catalog,
        population,
        Arc::clone(&blobs),
        generator,
        wire,
        config.seed ^ 3,
        1,
    );
    let mut index = ShardIndex::new(token.n_tokens(), STORE_MAX_SOURCES);
    let mut users: HashSet<u32> = HashSet::new();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7265_706c_6179); // "replay"
    let mut wide: HashMap<ClientId, ClientId> = HashMap::new();
    let mut frames = Vec::new();
    let mut stats = Stats::default();
    let mut ident = 0u16;
    let mtu = config.mtu;
    for (seq, ev) in events.take(shape.max_queries).enumerate() {
        let ts = VirtualTime(ev.t_us);
        let client = if shape.wide_client_ids {
            *wide.entry(ev.client).or_insert_with(|| wide_id(&mut rng))
        } else {
            ev.client
        };
        let mut query = ev.query;
        let mut answer = None;
        let mut is_offer = false;
        if ev.wire.query_corrupt {
            // A corrupted query never reaches the server.
            stats.corrupted += 1;
            damage(&mut query, ev.wire.query_structural);
        } else {
            stats.clean += 1;
            users.insert(client.raw());
            stats.mix.count(&ev.op);
            answer = match ev.op {
                SrcOp::Mgmt(MgmtOp::Status { challenge }) => {
                    let mut out = vec![MARKER, 0x97];
                    out.extend_from_slice(&challenge.to_le_bytes());
                    out.extend_from_slice(&(users.len() as u32).to_le_bytes());
                    out.extend_from_slice(&index.file_count().to_le_bytes());
                    Some(out)
                }
                SrcOp::Mgmt(MgmtOp::ServerList) => Some(serverlist_answer()),
                SrcOp::Mgmt(MgmtOp::Desc) => Some(desc_answer()),
                SrcOp::Offer(mut entries) => {
                    is_offer = true;
                    if shape.wide_client_ids || shape.p_fresh_file > 0.0 {
                        for e in entries.iter_mut() {
                            if rng.gen_bool(shape.p_fresh_file) {
                                let mut id = [0u8; 16];
                                rng.fill(&mut id[..]);
                                e.file_id = FileId(id);
                            }
                        }
                        query = reshape_offer(&query, client, &entries);
                    }
                    for (idx, e) in entries.iter().enumerate() {
                        index.publish(
                            (seq as u64, idx as u16),
                            e.file_id,
                            e.file_idx,
                            token.size(e.file_idx),
                            token.pub_toks(e.file_idx),
                            client.raw(),
                            ev.port,
                        );
                    }
                    None
                }
                SrcOp::Search {
                    file_idx,
                    n_kws,
                    size_min,
                } => {
                    let toks = token.kw_toks(file_idx);
                    let mut hits = Vec::with_capacity(MAX_SEARCH_RESULTS);
                    index.search(
                        &toks[..n_kws as usize],
                        size_min,
                        MAX_SEARCH_RESULTS,
                        &mut hits,
                    );
                    hits.sort_unstable_by_key(|h| h.key);
                    hits.truncate(MAX_SEARCH_RESULTS);
                    let mut out = vec![MARKER, 0x99];
                    out.extend_from_slice(&(hits.len() as u32).to_le_bytes());
                    for h in &hits {
                        out.extend_from_slice(h.file_id.as_bytes());
                        out.extend_from_slice(&h.provider.to_le_bytes());
                        out.extend_from_slice(&h.provider_port.to_le_bytes());
                        out.extend_from_slice(&4u32.to_le_bytes());
                        out.extend_from_slice(blobs.tags3(h.meta_idx));
                        out.push(0x03);
                        out.extend_from_slice(&[0x01, 0x00, special::SOURCES]);
                        out.extend_from_slice(&h.n_sources.to_le_bytes());
                    }
                    Some(out)
                }
                SrcOp::Sources { file_id } => {
                    let mut sources = Vec::with_capacity(ANSWER_MAX_SOURCES);
                    index.sources_for(&file_id, ANSWER_MAX_SOURCES, &mut sources);
                    let mut out = vec![MARKER, 0x9B];
                    out.extend_from_slice(file_id.as_bytes());
                    out.push(sources.len() as u8);
                    for (cid, port) in &sources {
                        out.extend_from_slice(&cid.to_le_bytes());
                        out.extend_from_slice(&port.to_le_bytes());
                    }
                    Some(out)
                }
            };
        }
        let mut emit = |payload: &[u8], dir: Direction, frames: &mut Vec<TimedFrame>| -> u64 {
            ident = ident.wrapping_add(1);
            let before = frames.len();
            datagram_frames(payload, client, ev.port, dir, ident, mtu, |bytes| {
                frames.push(TimedFrame { ts, bytes })
            });
            (frames.len() - before) as u64
        };
        let pieces = emit(&query, Direction::ToServer, &mut frames);
        if is_offer {
            stats.offers += 1;
            stats.offers_fragmented += u64::from(pieces > 1);
        }
        if let Some(mut a) = answer {
            if ev.wire.answer_corrupt {
                stats.corrupted += 1;
                damage(&mut a, ev.wire.answer_structural);
            } else {
                stats.clean += 1;
            }
            emit(&a, Direction::FromServer, &mut frames);
        }
        for i in 0..ev.wire.tcp_flight as usize {
            stats.tcp_noise += 1;
            frames.push(TimedFrame {
                ts,
                bytes: tcp_noise_frame_bytes(
                    ev.wire.tcp_src[i],
                    SERVER_IP,
                    ev.wire.tcp_len[i] as usize,
                ),
            });
        }
        if ev.wire.udp_len > 0 {
            stats.udp_noise += 1;
            emit(
                &ev.wire.udp_payload[..ev.wire.udp_len as usize],
                Direction::ToServer,
                &mut frames,
            );
        }
    }
    stats.frames = frames.len() as u64;
    (frames, stats)
}

/// Re-encodes an `OfferFiles` query with `client` as every entry's
/// owner and the entries' (possibly fresh) fileIDs.
fn reshape_offer(query: &[u8], client: ClientId, entries: &[PubEntry]) -> Vec<u8> {
    let mut msg = Message::decode(query).expect("the session generator's queries decode");
    if let Message::OfferFiles { files } = &mut msg {
        for (f, e) in files.iter_mut().zip(entries) {
            f.client_id = client;
            f.file_id = e.file_id;
        }
    }
    msg.encode()
}
