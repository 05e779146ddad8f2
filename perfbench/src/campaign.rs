//! `campaign`: the paper's offline path. A full dataset-production run
//! through `try_run_campaign_to_writer` with the default
//! `CampaignConfig` (10k clients, 2^24 IDs, 50k files, one source
//! shard, default `TailConfig`), shortened to a fixed virtual duration.

use crate::common::{
    header_len, median, peak_rss_mb, pipeline_conservation, reset_peak_rss, settle_heap, timed,
    Cost, Digest, DigestSink, FirstOutput,
};
use crate::layers;
use crate::ledger::{Ledger, Row};
use crate::outcome::Outcome;
use crate::traffic::{self, Reshape};
use crate::Params;
use etw_core::campaign::{run_campaign, try_run_campaign_to_writer, CampaignReport};
use etw_core::config::CampaignConfig;
use etw_core::pipeline::TailConfig;
use etw_core::source::run_source_only;
use etw_telemetry::{Registry, Snapshot};
use etw_xmlout::writer::DatasetWriter;
use std::time::{Duration, Instant};

/// Virtual seconds of server life each campaign simulates.
pub const VIRTUAL_SECS: u64 = 60;

/// The default campaign for `seed`, cut to [`VIRTUAL_SECS`].
pub fn config(seed: u64) -> CampaignConfig {
    let mut c = CampaignConfig {
        seed,
        ..CampaignConfig::default()
    };
    c.generator.duration_secs = VIRTUAL_SECS;
    c
}

/// One timed `try_run_campaign_to_writer` call.
struct Rep {
    cost: Cost,
    setup_ns: u64,
    /// Peak RSS of the process during this run, in MB.
    peak_mb: f64,
    report: CampaignReport,
    digest: Digest,
    snapshot: Snapshot,
}

impl Rep {
    /// Wall time after the first record was written.
    fn measured_s(&self) -> f64 {
        (self.cost.wall_ns - self.setup_ns) as f64 / 1e9
    }
}

fn run_once(config: &CampaignConfig, registry: &Registry) -> Rep {
    settle_heap();
    reset_peak_rss();
    let probe = FirstOutput::after(header_len());
    let writer =
        DatasetWriter::new(DigestSink::probed(probe.clone())).expect("digest sink never fails");
    let t0 = Instant::now();
    let (result, cost) = timed(|| {
        try_run_campaign_to_writer(config, registry, TailConfig::default(), writer, |_| {})
    });
    let (report, writer) = result.expect("campaign run failed");
    let digest = writer.finish().expect("digest sink never fails").digest();
    let setup_ns = probe
        .at()
        .map_or(cost.wall_ns, |t| (t - t0).as_nanos() as u64)
        .min(cost.wall_ns);
    Rep {
        cost,
        setup_ns,
        peak_mb: peak_rss_mb(),
        report,
        digest,
        snapshot: registry.snapshot(),
    }
}

/// The repo's serial oracle: the same campaign through
/// `run_capture_pipeline_with` and `DatasetWriter::write_record`.
fn oracle(config: &CampaignConfig) -> (Digest, u64, Cost) {
    let ((digest, records), cost) = timed(|| {
        let mut w = DatasetWriter::new(DigestSink::new()).expect("digest sink never fails");
        run_campaign(config, |r| {
            w.write_record(&r).expect("digest sink never fails");
        });
        let records = w.records();
        (
            w.finish().expect("digest sink never fails").digest(),
            records,
        )
    });
    (digest, records, cost)
}

/// Checks shared by both modes: every measured run reproduced the
/// oracle's bytes and its counts conserve.
fn check_reps(out: &mut Outcome, params: &Params, reps: &[&Rep], oracle: Digest, records: u64) {
    for (i, rep) in reps.iter().enumerate() {
        let got = params.tamper(rep.digest);
        out.check(got == oracle, || {
            format!("campaign run {i}: dataset digest {got} != serial oracle {oracle}")
        });
        out.check(rep.report.records == records, || {
            format!(
                "campaign run {i}: {} records, serial oracle wrote {records}",
                rep.report.records
            )
        });
        let c = &rep.report.capture;
        out.check(c.offered == c.captured + c.lost, || {
            format!("campaign run {i}: capture ring does not conserve: {c:?}")
        });
        let failures = pipeline_conservation("campaign", &rep.report.pipeline, c.captured);
        out.failures.extend(failures);
    }
}

/// Runs the workload: untraced campaigns for `params.seconds`, or the
/// traced per-layer run.
pub fn run(params: &Params) -> Outcome {
    let config = config(params.seed);
    if params.trace {
        traced(params, &config)
    } else {
        untraced(params, &config)
    }
}

fn untraced(params: &Params, config: &CampaignConfig) -> Outcome {
    let mut out = Outcome::default();
    let budget = Duration::from_secs_f64(params.seconds);
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 3 || start.elapsed() < budget {
        reps.push(run_once(config, &Registry::disabled()));
    }
    let (oracle_digest, oracle_records, _) = oracle(config);
    check_reps(
        &mut out,
        params,
        &reps.iter().collect::<Vec<_>>(),
        oracle_digest,
        oracle_records,
    );

    let rate = |f: &dyn Fn(&Rep) -> u64| {
        median(
            &reps
                .iter()
                .map(|r| f(r) as f64 / r.measured_s())
                .collect::<Vec<_>>(),
        )
    };
    out.set("records_per_s", rate(&|r| r.report.records));
    out.set("answered_per_s", rate(&|r| r.report.pipeline.from_server));
    out.set(
        "setup_s",
        median(
            &reps
                .iter()
                .map(|r| r.setup_ns as f64 / 1e9)
                .collect::<Vec<_>>(),
        ),
    );
    let last = &reps[reps.len() - 1].report;
    out.attempted = last.pipeline.frames;
    out.failed = last.pipeline.shed;
    out.set(
        "failed_permille",
        1000.0 * out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.report.push(format!(
        "campaign: {} runs of {VIRTUAL_SECS} virtual s, {} frames -> {} records each, digest {oracle_digest}",
        reps.len(),
        last.pipeline.frames,
        last.records
    ));
    out.report.push(format!(
        "runs: records/s {:?}, setup s {:?}",
        reps.iter()
            .map(|r| (r.report.records as f64 * 1e9 / (r.cost.wall_ns - r.setup_ns) as f64).round())
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

fn traced(params: &Params, config: &CampaignConfig) -> Outcome {
    let mut out = Outcome::default();
    // Layers this workload does not execute.
    out.set_not_applicable(&[
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
    let mut traced_config = config.clone();
    traced_config.trace_ring_slots = 256;

    // Untraced and traced campaigns alternate, so drift on the host
    // lands on both sides of the overhead ratio.
    let budget = Duration::from_secs_f64(params.seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() < 2 || start.elapsed() < budget {
        let even = plain.len() % 2 == 0;
        for is_traced in [even, !even] {
            if is_traced {
                traced.push(run_once(&traced_config, &Registry::new()));
            } else {
                plain.push(run_once(config, &Registry::disabled()));
            }
        }
    }
    let wall = |reps: &[Rep]| {
        median(
            &reps
                .iter()
                .map(|r| r.cost.wall_ns as f64)
                .collect::<Vec<_>>(),
        )
    };
    let (plain_ns, traced_ns) = (wall(&plain), wall(&traced));

    let ((side, _bytes), source_cost) = timed(|| run_source_only(config, &Registry::disabled()));
    let (oracle_digest, oracle_records, oracle_cost) = oracle(config);
    let reps: Vec<&Rep> = plain.iter().chain(traced.iter()).collect();
    check_reps(&mut out, params, &reps, oracle_digest, oracle_records);

    // The layers in isolation, chained over the campaign's traffic
    // rebuilt from its public parts. When the capture ring lost nothing,
    // their output must be the dataset the campaign wrote.
    let (frames, traffic) = traffic::build(config, &Reshape::none(config));
    out.report.push(format!(
        "campaign mix: {}; {} of {} announcements fragmented",
        traffic.mix.describe(),
        traffic.offers_fragmented,
        traffic.offers
    ));
    let decoded = layers::decode(&frames);
    drop(frames);
    let anonymized = layers::anonymize(&decoded.messages, config.client_space_bits);
    let written = layers::format_and_write(anonymized.batches.iter().map(Vec::as_slice));
    let rep = &traced[traced.len() - 1];
    if rep.report.capture.lost == 0 {
        let chained = params.tamper(written.digest);
        out.check(chained == oracle_digest, || {
            format!("campaign: isolated decode→anonymize→format→write over the rebuilt traffic: digest {chained} != serial oracle {oracle_digest}")
        });
    } else {
        out.report.push(format!(
            "campaign: the capture ring lost {} frames; the layers ran on the lossless traffic",
            rep.report.capture.lost
        ));
    }

    let snap = &rep.snapshot;
    let p = &rep.report.pipeline;
    let records = written.records.max(1) as f64;
    let probes = anonymized.scheme.file_encoder().probe_stats();
    out.set(
        "source.ns_per_frame",
        source_cost.wall_ns as f64 / side.captured.max(1) as f64,
    );
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
    out.set("pipeline.ns_per_record", plain_ns / p.records.max(1) as f64);
    out.set("anonymize.ns_per_record", anonymized.ns as f64 / records);
    out.set(
        "anonymize.first_seen_share",
        probes.inserts as f64 / probes.probes.max(1) as f64,
    );
    out.set(
        "anonymize.spilled",
        anonymized.scheme.client_encoder().spilled() as f64,
    );
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
    out.set("trace.overhead_share", traced_ns / plain_ns - 1.0);

    // Wall time of the whole call against the isolated layer times it
    // contains.
    let isolated =
        (source_cost.wall_ns + decoded.ns + anonymized.ns + written.format_ns + written.write_ns)
            as f64;
    out.set(
        "pipeline.unaccounted_share",
        (plain_ns - isolated) / plain_ns,
    );

    let ledger = Ledger {
        workload: "campaign",
        wall_ns: plain_ns as u64,
        total_ns: median(
            &plain
                .iter()
                .map(|r| r.cost.cpu_ns as f64)
                .collect::<Vec<_>>(),
        ) as u64,
        rows: vec![
            Row::isolated("source", source_cost.cpu_ns, "run_source_only"),
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
    out.attempted = p.frames;
    out.failed = p.shed + snap.counter("faults.worker.tombstoned_total");
    out.report.push(format!(
        "campaign traced: {} untraced / {} traced runs, median wall {:.3} s / {:.3} s",
        plain.len(),
        traced.len(),
        plain_ns / 1e9,
        traced_ns / 1e9
    ));
    out
}
