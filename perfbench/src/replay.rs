//! `replay`: the campaign's traffic for the same seed, reshaped in three
//! ways and fed to `run_capture_pipeline_batched` with
//! `PaperScheme::paper(24)`. It bypasses the traffic source, and it
//! drives the anonymiser with inserts: clientIDs span the full 32-bit
//! space (most land in the direct array's spill table) and half the
//! announced files are new. Announcements are long enough to fragment
//! at MTU 1500. Everything else (message mix, list lengths, names,
//! sizes, noise and corruption) is the campaign's; see `traffic`.

use crate::campaign;
use crate::common::{
    header_len, median, peak_rss_mb, pipeline_conservation, reset_peak_rss, settle_heap, timed,
    Cost, Digest, DigestSink, FirstOutput,
};
use crate::layers;
use crate::ledger::{Ledger, Row};
use crate::outcome::Outcome;
use crate::traffic::{self, Reshape, Stats as CorpusStats};
use crate::Params;
use etw_anonymize::scheme::PaperScheme;
use etw_core::pipeline::{
    run_capture_pipeline_batched, run_capture_pipeline_with, PipelineOptions, PipelineStats,
    TailConfig, TimedFrame, TraceOptions,
};
use etw_telemetry::{Registry, Snapshot};
use etw_xmlout::writer::DatasetWriter;
use std::time::{Duration, Instant};

/// clientID width of the anonymiser's direct array.
const WIDTH_BITS: u32 = 24;
/// Decode workers, as in the default campaign.
const DECODE_WORKERS: usize = 4;

/// How replay departs from the campaign's traffic.
fn reshape() -> Reshape {
    Reshape {
        wide_client_ids: true,
        p_fresh_file: 0.5,
        // Twice the campaign's 12 files per announcement: enough to pass
        // MTU 1500, where the campaign's announcements rarely do.
        announce_chunk: 24,
        max_queries: 60_000,
    }
}

/// Builds the seeded corpus, in capture order.
pub fn corpus(seed: u64) -> (Vec<TimedFrame>, CorpusStats) {
    traffic::build(&campaign::config(seed), &reshape())
}

/// One timed `run_capture_pipeline_batched` call over the corpus.
struct Rep {
    cost: Cost,
    setup_ns: u64,
    /// Peak RSS of the process during this run, in MB.
    peak_mb: f64,
    stats: PipelineStats,
    digest: Digest,
    /// clientIDs in the anonymiser's spill table at the end of the run.
    spilled: usize,
    snapshot: Snapshot,
}

fn run_once(frames: &[TimedFrame], registry: &Registry, opts: &PipelineOptions) -> Rep {
    settle_heap();
    reset_peak_rss();
    let probe = FirstOutput::after(header_len());
    let writer =
        DatasetWriter::new(DigestSink::probed(probe.clone())).expect("digest sink never fails");
    let t0 = Instant::now();
    // The corpus is handed over frame by frame as fresh buffers, the way
    // a capture ring hands them to the pipeline.
    let (result, cost) = timed(|| {
        run_capture_pipeline_batched(
            frames.iter().cloned(),
            DECODE_WORKERS,
            PaperScheme::paper(WIDTH_BITS),
            None,
            registry,
            opts,
            TailConfig::default(),
            writer,
            |_, _| {},
        )
    });
    let (stats, scheme, _, writer) = result.expect("digest sink never fails");
    let digest = writer.finish().expect("digest sink never fails").digest();
    let setup_ns = probe
        .at()
        .map_or(cost.wall_ns, |t| (t - t0).as_nanos() as u64)
        .min(cost.wall_ns);
    Rep {
        cost,
        setup_ns,
        peak_mb: peak_rss_mb(),
        stats,
        digest,
        spilled: scheme.client_encoder().spilled(),
        snapshot: registry.snapshot(),
    }
}

/// The repo's serial oracle over the same corpus:
/// `run_capture_pipeline_with` into `DatasetWriter::write_record`.
fn oracle(frames: &[TimedFrame]) -> (Digest, u64, Cost) {
    let ((digest, records), cost) = timed(|| {
        let mut w = DatasetWriter::new(DigestSink::new()).expect("digest sink never fails");
        run_capture_pipeline_with(
            frames.iter().cloned(),
            DECODE_WORKERS,
            PaperScheme::paper(WIDTH_BITS),
            None,
            &Registry::disabled(),
            &PipelineOptions::default(),
            |r| w.write_record(&r).expect("digest sink never fails"),
            |_| {},
        );
        let records = w.records();
        (
            w.finish().expect("digest sink never fails").digest(),
            records,
        )
    });
    (digest, records, cost)
}

fn check_reps(
    out: &mut Outcome,
    params: &Params,
    reps: &[&Rep],
    corpus: &CorpusStats,
    oracle: Digest,
    records: u64,
) {
    for (i, rep) in reps.iter().enumerate() {
        let got = params.tamper(rep.digest);
        out.check(got == oracle, || {
            format!("replay run {i}: dataset digest {got} != serial oracle {oracle}")
        });
        let s = &rep.stats;
        out.check(s.records == records, || {
            format!(
                "replay run {i}: {} records, serial oracle wrote {records}",
                s.records
            )
        });
        // Every clean datagram decodes; a corrupted one may or may not.
        out.check(
            s.records >= corpus.clean && s.records <= corpus.clean + corpus.corrupted,
            || {
                format!(
                    "replay run {i}: {} records from {} clean + {} corrupted datagrams",
                    s.records, corpus.clean, corpus.corrupted
                )
            },
        );
        out.check(s.not_udp == corpus.tcp_noise, || {
            format!(
                "replay run {i}: {} non-UDP frames, {} generated",
                s.not_udp, corpus.tcp_noise
            )
        });
        out.failures
            .extend(pipeline_conservation("replay", s, corpus.frames));
    }
}

/// Runs the workload.
pub fn run(params: &Params) -> Outcome {
    let (frames, corpus) = corpus(params.seed);
    let mut out = if params.trace {
        traced(params, &frames, &corpus)
    } else {
        untraced(params, &frames, &corpus)
    };
    out.report.insert(
        0,
        format!(
            "replay corpus: {} frames ({} clean, {} corrupted, {} udp noise, {} tcp noise); \
             {} of {} announcements fragmented",
            corpus.frames,
            corpus.clean,
            corpus.corrupted,
            corpus.udp_noise,
            corpus.tcp_noise,
            corpus.offers_fragmented,
            corpus.offers
        ),
    );
    out.report
        .insert(1, format!("replay mix: {}", corpus.mix.describe()));
    out
}

fn untraced(params: &Params, frames: &[TimedFrame], corpus: &CorpusStats) -> Outcome {
    let mut out = Outcome::default();
    let budget = Duration::from_secs_f64(params.seconds);
    let start = Instant::now();
    let opts = PipelineOptions::default();
    let mut reps = Vec::new();
    while reps.len() < 3 || start.elapsed() < budget {
        reps.push(run_once(frames, &Registry::disabled(), &opts));
    }
    let (oracle_digest, oracle_records, _) = oracle(frames);
    check_reps(
        &mut out,
        params,
        &reps.iter().collect::<Vec<_>>(),
        corpus,
        oracle_digest,
        oracle_records,
    );
    let rate = |f: &dyn Fn(&Rep) -> u64| {
        median(
            &reps
                .iter()
                .map(|r| f(r) as f64 * 1e9 / (r.cost.wall_ns - r.setup_ns) as f64)
                .collect::<Vec<_>>(),
        )
    };
    out.set("records_per_s", rate(&|r| r.stats.records));
    out.set("answered_per_s", rate(&|r| r.stats.from_server));
    out.set(
        "setup_s",
        median(
            &reps
                .iter()
                .map(|r| r.setup_ns as f64 / 1e9)
                .collect::<Vec<_>>(),
        ),
    );
    let last = &reps[reps.len() - 1].stats;
    out.attempted = last.frames;
    out.failed = last.shed;
    out.set(
        "failed_permille",
        1000.0 * out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.report.push(format!(
        "replay: {} runs, {} records each, digest {oracle_digest}",
        reps.len(),
        last.records
    ));
    out.report.push(format!(
        "runs: records/s {:?}, setup s {:?}",
        reps.iter()
            .map(|r| (r.stats.records as f64 * 1e9 / (r.cost.wall_ns - r.setup_ns) as f64).round())
            .collect::<Vec<_>>(),
        reps.iter()
            .map(|r| r.setup_ns as f64 / 1e9)
            .collect::<Vec<_>>()
    ));
    out.set(
        "peak_rss_mb",
        median(&reps.iter().map(|r| r.peak_mb).collect::<Vec<_>>()),
    );
    out
}

fn traced(params: &Params, frames: &[TimedFrame], corpus: &CorpusStats) -> Outcome {
    let mut out = Outcome::default();
    // Layers this workload does not execute.
    out.set_not_applicable(&[
        "source.ns_per_frame",
        "trace.overhead_share",
        "net.busy_share",
        "net.queue_depth_hwm",
        "net.shed",
        "net.malformed",
        "tap.ns_per_packet",
        "tap.queue_depth_hwm",
        "tap.dropped",
        "collector.ns_per_packet",
        "swarm.busy_share",
        "swarm.timeouts",
    ]);
    let plain_opts = PipelineOptions::default();
    let traced_opts = PipelineOptions {
        trace: Some(TraceOptions {
            ring_slots: 256,
            ..TraceOptions::default()
        }),
        ..PipelineOptions::default()
    };
    let budget = Duration::from_secs_f64(params.seconds / 2.0);
    let start = Instant::now();
    let mut plain = Vec::new();
    while plain.len() < 2 || start.elapsed() < budget {
        plain.push(run_once(frames, &Registry::disabled(), &plain_opts));
    }
    let rep = run_once(frames, &Registry::new(), &traced_opts);
    let (oracle_digest, oracle_records, oracle_cost) = oracle(frames);
    let reps: Vec<&Rep> = plain.iter().chain(std::iter::once(&rep)).collect();
    check_reps(
        &mut out,
        params,
        &reps,
        corpus,
        oracle_digest,
        oracle_records,
    );

    // The layers in isolation, chained: their output must be the same
    // dataset the pipeline wrote.
    let decoded = layers::decode(frames);
    let anonymized = layers::anonymize(&decoded.messages, WIDTH_BITS);
    let written = layers::format_and_write(anonymized.batches.iter().map(Vec::as_slice));
    let chained = params.tamper(written.digest);
    out.check(chained == oracle_digest, || {
        format!("replay: isolated decode→anonymize→format→write digest {chained} != serial oracle {oracle_digest}")
    });

    let plain_ns = median(
        &plain
            .iter()
            .map(|r| r.cost.wall_ns as f64)
            .collect::<Vec<_>>(),
    );
    let records = written.records.max(1) as f64;
    let snap = &rep.snapshot;
    let probes = anonymized.scheme.file_encoder().probe_stats();
    out.set(
        "decode.ns_per_frame",
        decoded.ns as f64 / decoded.frames.max(1) as f64,
    );
    out.set(
        "decode.ok_per_datagram",
        decoded.ok as f64 / decoded.datagrams.max(1) as f64,
    );
    out.set(
        "decode.channel_stalls",
        (snap.counter("chan.decode_in.stalls_total") + snap.counter("chan.decode_out.stalls_total"))
            as f64,
    );
    out.set(
        "reorder.depth_hwm",
        snap.gauge("stage.reorder.depth_hwm") as f64,
    );
    out.set("pipeline.ns_per_record", plain_ns / records);
    let isolated = (decoded.ns + anonymized.ns + written.format_ns + written.write_ns) as f64;
    out.set(
        "pipeline.unaccounted_share",
        (plain_ns - isolated) / plain_ns,
    );
    out.set("anonymize.ns_per_record", anonymized.ns as f64 / records);
    out.set(
        "anonymize.first_seen_share",
        probes.inserts as f64 / probes.probes.max(1) as f64,
    );
    out.set("anonymize.spilled", rep.spilled as f64);
    out.set("format.ns_per_record", written.format_ns as f64 / records);
    out.set(
        "format.bytes_per_record",
        written.body_bytes as f64 / records,
    );
    out.set("write.ns_per_record", written.write_ns as f64 / records);
    out.set(
        "serial.ns_per_record",
        oracle_cost.wall_ns as f64 / oracle_records.max(1) as f64,
    );

    let ledger = Ledger {
        workload: "replay",
        wall_ns: plain_ns as u64,
        total_ns: median(
            &plain
                .iter()
                .map(|r| r.cost.cpu_ns as f64)
                .collect::<Vec<_>>(),
        ) as u64,
        rows: vec![
            Row::isolated(
                "decode",
                decoded.cpu_ns,
                "WireDecoder::push + Decoder::push",
            ),
            Row::isolated("anonymize", anonymized.cpu_ns, "anonymize_batch"),
            Row::isolated("format", written.format_cpu_ns, "encode_batch"),
            Row::isolated("write", written.write_cpu_ns, "write_encoded"),
        ],
    };
    out.set("ledger.accounted_share", ledger.accounted_share());
    out.ledger = Some(ledger);
    out.attempted = rep.stats.frames;
    out.failed = rep.stats.shed + snap.counter("faults.worker.tombstoned_total");
    out.report.push(format!(
        "replay traced: {} untraced runs (median wall {:.3} s), 1 traced run ({:.3} s)",
        plain.len(),
        plain_ns / 1e9,
        rep.cost.wall_ns as f64 / 1e9
    ));
    out
}
