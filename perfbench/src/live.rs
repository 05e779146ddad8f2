//! `live`: the real serving loop on loopback. `ServerNet` answers a
//! `Swarm` of UDP sessions driven by one generator thread, while the
//! `LiveCapture` tap and collector record every datagram through a
//! 256-slot queue. The load is a closed loop: each session sends its
//! next request only after the previous one is answered (or times out)
//! plus a fixed think time, with no burst and no impairment. The swarm's
//! in-flight cap bounds concurrency. The run measures at a nominal think
//! time, then climbs a short ladder of shorter think times; afterwards
//! the captured frames go through the pipeline, untimed, as a
//! correctness check.

use crate::common::{
    median, peak_rss_mb, pipeline_conservation, reset_peak_rss, settle_heap, timed, Cost,
    DigestSink,
};
use crate::ledger::{Ledger, Row};
use crate::outcome::Outcome;
use crate::Params;
use etw_anonymize::scheme::PaperScheme;
use etw_core::livecap::LiveCapture;
use etw_core::pipeline::{
    run_capture_pipeline_batched, run_capture_pipeline_with, PipelineOptions, TailConfig,
    TimedFrame,
};
use etw_core::wirepath::{encapsulate, Direction, Recovered, WireDecoder};
use etw_faults::LinkDirection;
use etw_server::net::{NetConfig, PacketTap};
use etw_server::swarm::{run_loopback_soak, soak_gate_failures, Roster, SoakConfig, SwarmConfig};
use etw_telemetry::{Registry, Snapshot};
use etw_xmlout::writer::DatasetWriter;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Client sessions (one UDP socket each).
const SESSIONS: usize = 256;
/// Capture queue slots, as `repro bench` sizes the tap.
const TAP_QUEUE: usize = 256;
/// Think time at the nominal rate, in µs.
const NOMINAL_THINK_US: u64 = 8_000;
/// Think times of the rate ladder above the nominal rate, in µs.
const LADDER_THINK_US: [u64; 3] = [6_000, 4_000, 3_000];
/// Request-initiation window of one nominal soak, in µs.
const NOMINAL_US: u64 = 2_000_000;
/// Request-initiation window of one ladder rung, in µs.
const RUNG_US: u64 = 1_500_000;
/// The repo's capture-loss budget (`repro bench`), in permille.
const LOSS_BUDGET_PERMILLE: f64 = 50.0;
/// clientID width of the anonymiser in the correctness pipeline.
const WIDTH_BITS: u32 = 24;

/// Wraps the program's tap: stamps the first datagram the server loop
/// handled (the workload's first output: the capture's first packet)
/// and, when traced, times every call into `PacketTap::packet`.
struct BenchTap {
    inner: Box<dyn PacketTap>,
    first_packet: Arc<OnceLock<Instant>>,
    tap_ns: Option<Arc<AtomicU64>>,
}

impl PacketTap for BenchTap {
    fn packet(&mut self, dir: LinkDirection, peer: SocketAddr, payload: &[u8], now_us: u64) {
        if self.first_packet.get().is_none() {
            let _ = self.first_packet.set(Instant::now());
        }
        match &self.tap_ns {
            Some(ns) => {
                let t0 = Instant::now();
                self.inner.packet(dir, peer, payload, now_us);
                ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            None => self.inner.packet(dir, peer, payload, now_us),
        }
    }
}

/// One loopback soak and what it produced.
struct Soak {
    think_us: u64,
    cost: Cost,
    setup_ns: u64,
    /// Peak RSS of the process during the soak, in MB.
    peak_mb: f64,
    run_s: f64,
    answered: u64,
    requests: u64,
    failed: u64,
    tapped: u64,
    dropped: u64,
    records: u64,
    tap_ns: u64,
    snapshot: Snapshot,
    frames: Vec<TimedFrame>,
}

impl Soak {
    fn loss_permille(&self) -> f64 {
        1000.0 * self.dropped as f64 / self.tapped.max(1) as f64
    }

    fn answered_per_s(&self) -> f64 {
        self.answered as f64 / self.run_s
    }
}

/// Runs one soak at `think_us` and checks its ledgers and its capture.
/// Keeps the captured frames only when `keep_frames`.
fn soak(
    out: &mut Outcome,
    params: &Params,
    think_us: u64,
    duration_us: u64,
    keep_frames: bool,
) -> Soak {
    settle_heap();
    reset_peak_rss();
    let registry = Registry::new();
    let roster = Roster::default();
    let (capture, tap) = LiveCapture::start(&registry, &roster, TAP_QUEUE);
    let first_packet = Arc::new(OnceLock::new());
    let tap_ns = params.trace.then(|| Arc::new(AtomicU64::new(0)));
    let tap = Box::new(BenchTap {
        inner: tap,
        first_packet: Arc::clone(&first_packet),
        tap_ns: tap_ns.clone(),
    });
    let cfg = SoakConfig {
        swarm: SwarmConfig {
            sessions: SESSIONS,
            seed: params.seed,
            duration_us,
            think_min_us: think_us,
            think_max_us: think_us,
            burst_len_us: 0,
            ..SwarmConfig::default()
        },
        net: NetConfig::default(),
        server_fault: None,
    };
    let t0 = Instant::now();
    let ((result, captured), cost) = timed(|| {
        let result = run_loopback_soak(cfg, &registry, &roster, Some(tap));
        (result, capture.finish())
    });
    let peak_mb = peak_rss_mb();
    let snap = registry.snapshot();
    let (run_s, gave_up, noise) = match result {
        Ok(o) => {
            if let Some(e) = o.server_error {
                out.failures.push(format!("live: serving loop failed: {e}"));
            }
            (
                o.report.duration_us as f64 / 1e6,
                o.report.gave_up,
                o.report.noise,
            )
        }
        Err(e) => {
            out.failures.push(format!("live: soak failed: {e}"));
            (f64::NAN, 0, 0)
        }
    };
    for f in soak_gate_failures(&snap, false, false) {
        out.failures
            .push(format!("live soak (think {think_us} µs): {f}"));
    }
    let records = check_capture(out, params, &captured.frames);
    Soak {
        think_us,
        cost,
        setup_ns: first_packet
            .get()
            .map_or(cost.wall_ns, |t| (*t - t0).as_nanos() as u64),
        peak_mb,
        run_s,
        answered: snap.counter("server.net.answered_total"),
        requests: snap.counter("swarm.sent_total") - noise,
        failed: gave_up + snap.counter("server.shed_total"),
        tapped: captured.tapped,
        dropped: captured.tap_dropped,
        records,
        tap_ns: tap_ns.map_or(0, |ns| ns.load(Ordering::Relaxed)),
        snapshot: snap,
        frames: if keep_frames {
            captured.frames
        } else {
            Vec::new()
        },
    }
}

/// The untimed correctness check: the captured frames go through the
/// batched pipeline and the serial oracle, which must agree byte for
/// byte, conserve their counts, and yield records. Returns the records.
fn check_capture(out: &mut Outcome, params: &Params, frames: &[TimedFrame]) -> u64 {
    let writer = DatasetWriter::new(DigestSink::new()).expect("digest sink never fails");
    let (stats, _, _, writer) = run_capture_pipeline_batched(
        frames.iter().cloned(),
        2,
        PaperScheme::paper(WIDTH_BITS),
        None,
        &Registry::disabled(),
        &PipelineOptions::default(),
        TailConfig::default(),
        writer,
        |_, _| {},
    )
    .expect("digest sink never fails");
    let got = params.tamper(writer.finish().expect("digest sink never fails").digest());
    let mut serial = DatasetWriter::new(DigestSink::new()).expect("digest sink never fails");
    run_capture_pipeline_with(
        frames.iter().cloned(),
        2,
        PaperScheme::paper(WIDTH_BITS),
        None,
        &Registry::disabled(),
        &PipelineOptions::default(),
        |r| serial.write_record(&r).expect("digest sink never fails"),
        |_| {},
    );
    let want = serial.finish().expect("digest sink never fails").digest();
    out.check(got == want, || {
        format!("live: captured dataset digest {got} != serial oracle {want}")
    });
    out.check(stats.records > 0, || {
        "live: captured frames decoded into no records".into()
    });
    out.failures.extend(pipeline_conservation(
        "live capture",
        &stats,
        frames.len() as u64,
    ));
    stats.records
}

/// Runs the workload.
pub fn run(params: &Params) -> Outcome {
    if params.trace {
        traced(params)
    } else {
        untraced(params)
    }
}

fn untraced(params: &Params) -> Outcome {
    let mut out = Outcome::default();
    let budget = Duration::from_secs_f64(params.seconds * 0.6);
    let start = Instant::now();
    let mut nominal = Vec::new();
    while nominal.len() < 3 || start.elapsed() < budget {
        let s = soak_in_child(&mut out, params, NOMINAL_THINK_US, NOMINAL_US);
        nominal.push(s);
    }
    let med = |f: &dyn Fn(&Soak) -> f64| median(&nominal.iter().map(f).collect::<Vec<_>>());
    let answered = med(&|s| s.answered_per_s());
    let loss = med(&|s| s.loss_permille());
    out.set("answered_per_s", answered);
    out.set("records_per_s", med(&|s| s.records as f64 / s.run_s));
    out.set("setup_s", med(&|s| s.setup_ns as f64 / 1e9));
    out.set("capture_loss_permille", loss);
    out.attempted = nominal.iter().map(|s| s.requests).sum();
    out.failed = nominal.iter().map(|s| s.failed).sum();
    out.set(
        "failed_permille",
        1000.0 * out.failed as f64 / out.attempted.max(1) as f64,
    );
    for s in &nominal {
        out.report.push(describe("nominal", s));
    }

    // The ladder: the highest rate that keeps capture loss within the
    // budget with no failed request.
    let mut sustained = if loss <= LOSS_BUDGET_PERMILLE && out.failed == 0 {
        answered
    } else {
        0.0
    };
    for think_us in LADDER_THINK_US {
        let s = soak_in_child(&mut out, params, think_us, RUNG_US);
        out.report.push(describe("ladder", &s));
        if s.loss_permille() <= LOSS_BUDGET_PERMILLE && s.failed == 0 {
            sustained = sustained.max(s.answered_per_s());
        }
    }
    out.set("sustained_answered_per_s", sustained);
    out.set("peak_rss_mb", med(&|s| s.peak_mb));
    out
}

/// Runs one untraced soak in a child process of its own, so its peak
/// memory and allocator state are its own, as in a fresh capture run.
/// The child is this binary with `--soak`; see [`soak_child`].
fn soak_in_child(out: &mut Outcome, params: &Params, think_us: u64, duration_us: u64) -> Soak {
    let mut cmd = std::process::Command::new(std::env::current_exe().expect("own executable"));
    cmd.args(["--workload", "live", "--trace", "0"])
        .args(["--seed", &params.seed.to_string()])
        .args(["--seconds", &params.seconds.to_string()])
        .args(["--soak", &format!("{think_us}:{duration_us}")]);
    if params.inject == Some(crate::Inject::Digest) {
        cmd.args(["--inject", "digest"]);
    }
    let child = cmd.output();
    let stdout = child
        .as_ref()
        .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
        .unwrap_or_default();
    let mut fields = std::collections::HashMap::new();
    for line in stdout.lines() {
        if let Some(msg) = line.strip_prefix("fail ") {
            out.failures.push(msg.to_owned());
        } else if let Some(rest) = line.strip_prefix("soak ") {
            for kv in rest.split_whitespace() {
                if let Some((k, v)) = kv.split_once('=') {
                    fields.insert(k.to_owned(), v.parse::<f64>().unwrap_or(f64::NAN));
                }
            }
        }
    }
    if !matches!(&child, Ok(o) if o.status.success()) || fields.is_empty() {
        out.failures.push(format!(
            "live: soak child (think {think_us} µs) failed: {child:?}"
        ));
    }
    let f = |k: &str| fields.get(k).copied().unwrap_or(f64::NAN);
    let n = |k: &str| f(k) as u64;
    Soak {
        think_us,
        cost: Cost {
            wall_ns: n("wall_ns"),
            cpu_ns: n("cpu_ns"),
        },
        setup_ns: n("setup_ns"),
        peak_mb: f("peak_mb"),
        run_s: f("run_s"),
        answered: n("answered"),
        requests: n("requests"),
        failed: n("failed"),
        tapped: n("tapped"),
        dropped: n("dropped"),
        records: n("records"),
        tap_ns: 0,
        snapshot: Snapshot::default(),
        frames: Vec::new(),
    }
}

/// The child side of [`soak_in_child`]: one soak, reported as a `soak`
/// line of key=value fields and one `fail` line per failed check.
pub fn soak_child(params: &Params, think_us: u64, duration_us: u64) {
    let mut out = Outcome::default();
    let s = soak(&mut out, params, think_us, duration_us, false);
    println!(
        "soak wall_ns={} cpu_ns={} setup_ns={} peak_mb={} run_s={} answered={} requests={} \
         failed={} tapped={} dropped={} records={}",
        s.cost.wall_ns,
        s.cost.cpu_ns,
        s.setup_ns,
        s.peak_mb,
        s.run_s,
        s.answered,
        s.requests,
        s.failed,
        s.tapped,
        s.dropped,
        s.records
    );
    for f in out.failures {
        println!("fail {f}");
    }
}

fn describe(phase: &str, s: &Soak) -> String {
    format!(
        "live {phase}: think {} µs, {:.0} answered/s over {:.3} s, {} requests, {} failed, \
         {} tapped, {} dropped ({:.2}‰), {} records, setup {:.4} s, peak {:.1} MB",
        s.think_us,
        s.answered_per_s(),
        s.run_s,
        s.requests,
        s.failed,
        s.tapped,
        s.dropped,
        s.loss_permille(),
        s.records,
        s.setup_ns as f64 / 1e9,
        s.peak_mb
    )
}

/// Times the collector's work in isolation: `encapsulate` plus frame
/// serialisation over the payloads the tap delivered (recovered from
/// the captured frames).
fn collector_ns_per_packet(frames: &[TimedFrame]) -> (f64, u64) {
    let mut wire = WireDecoder::new();
    let mut payloads = Vec::new();
    for f in frames {
        if let Recovered::Udp {
            peer,
            direction,
            payload,
            ..
        } = wire.push(f.ts, &f.bytes)
        {
            payloads.push((peer, direction, payload.to_vec()));
        }
    }
    let n = payloads.len() as u64;
    let mut out: Vec<TimedFrame> = Vec::with_capacity(frames.len());
    let t0 = Instant::now();
    for (i, (peer, dir, bytes)) in payloads.into_iter().enumerate() {
        let port = if dir == Direction::ToServer {
            4662
        } else {
            4665
        };
        for f in encapsulate(bytes, peer, port, dir, (i as u16).max(1), 1500) {
            out.push(TimedFrame {
                ts: frames[0].ts,
                bytes: f.to_bytes(),
            });
        }
    }
    let ns = t0.elapsed().as_nanos() as u64;
    (ns as f64 / n.max(1) as f64, n)
}

fn traced(params: &Params) -> Outcome {
    let mut out = Outcome::default();
    // Layers this workload does not execute.
    out.set_not_applicable(&[
        "source.ns_per_frame",
        "decode.ns_per_frame",
        "decode.ok_per_datagram",
        "decode.channel_stalls",
        "pipeline.ns_per_record",
        "pipeline.unaccounted_share",
        "reorder.depth_hwm",
        "anonymize.ns_per_record",
        "anonymize.first_seen_share",
        "anonymize.spilled",
        "format.ns_per_record",
        "format.bytes_per_record",
        "write.ns_per_record",
        "serial.ns_per_record",
        "trace.overhead_share",
    ]);
    let budget = Duration::from_secs_f64(params.seconds * 0.6);
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 2 || start.elapsed() < budget {
        let keep = reps.is_empty();
        reps.push(soak(&mut out, params, NOMINAL_THINK_US, NOMINAL_US, keep));
    }
    let (collector_ns, _) = collector_ns_per_packet(&reps[0].frames);
    let s = &reps[reps.len() - 1];
    let snap = &s.snapshot;
    // Service time over the soak's wall time: the share of the run the
    // thread spent handling datagrams rather than polling idle sockets.
    let share = |stage: &str| {
        snap.counter(&format!("stage.{stage}.busy_ns_total")) as f64 / s.cost.wall_ns as f64
    };
    out.set("net.busy_share", share("net"));
    out.set(
        "net.queue_depth_hwm",
        snap.gauge("server.net.queue_depth_hwm") as f64,
    );
    out.set("net.shed", snap.counter("server.shed_total") as f64);
    out.set(
        "net.malformed",
        snap.counter("server.net.malformed_total") as f64,
    );
    out.set(
        "tap.ns_per_packet",
        s.tap_ns as f64 / s.tapped.max(1) as f64,
    );
    out.set(
        "tap.queue_depth_hwm",
        snap.gauge("chan.live_tap.depth_hwm") as f64,
    );
    out.set("tap.dropped", s.dropped as f64);
    out.set("collector.ns_per_packet", collector_ns);
    out.set("swarm.busy_share", share("swarm"));
    out.set(
        "swarm.timeouts",
        snap.counter("swarm.timeouts_total") as f64,
    );

    let collected = s.tapped - s.dropped;
    let ledger = Ledger {
        workload: "live",
        wall_ns: s.cost.wall_ns,
        total_ns: s.cost.cpu_ns,
        rows: vec![
            Row::counter(snap, "net", "stage.net.busy_ns_total"),
            Row::counter(snap, "swarm", "stage.swarm.busy_ns_total"),
            Row::isolated("tap", s.tap_ns, "timed PacketTap::packet"),
            Row::isolated(
                "collector",
                (collector_ns * collected as f64) as u64,
                "timed encapsulate x collected packets",
            ),
        ],
    };
    out.set("ledger.accounted_share", ledger.accounted_share());
    out.ledger = Some(ledger);
    out.attempted = s.requests;
    out.failed = s.failed;
    for s in &reps {
        out.report.push(describe("traced", s));
    }
    out
}
