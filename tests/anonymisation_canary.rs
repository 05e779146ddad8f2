//! Anonymisation canary: the runtime complement to the etwlint taint
//! pass. The static analysis proves no raw-id dataflow path reaches a
//! byte-emitting sink *within* the call graph it can see; channels,
//! thread hand-offs and byte-level formatting are over-approximated
//! away. This test closes that gap end to end: it drives the batched
//! capture pipeline with frames carrying distinctive sentinel raw
//! identifiers, then scans every externally visible byte surface —
//! dataset XML, checkpoint sidecars, flight-recorder dumps, and the
//! Prometheus exposition — for every plausible encoding of the
//! sentinels (dotted-quad, decimal, hex, raw bytes).

use edonkey_ten_weeks::anonymize::fileid::ByteSelector;
use edonkey_ten_weeks::anonymize::scheme::PaperScheme;
use edonkey_ten_weeks::core::checkpoint::Checkpoint;
use edonkey_ten_weeks::core::pipeline::{
    run_capture_pipeline_batched, PipelineOptions, TailConfig, TimedFrame, TraceOptions,
};
use edonkey_ten_weeks::core::wirepath::{encapsulate, Direction};
use edonkey_ten_weeks::edonkey::ids::{ClientId, FileId};
use edonkey_ten_weeks::edonkey::messages::{Message, Source};
use edonkey_ten_weeks::netsim::clock::VirtualTime;
use edonkey_ten_weeks::sentinel::{
    assert_surface_clean, SENTINEL_FILE, SENTINEL_FILE_2, SENTINEL_IP_A, SENTINEL_IP_B,
};
use edonkey_ten_weeks::telemetry::Registry;
use edonkey_ten_weeks::xmlout::writer::DatasetWriter;
use std::fs;
use std::path::PathBuf;

fn frame(ts: u64, msg: Message, peer: ClientId, dir: Direction, ident: u16) -> TimedFrame {
    let frames = encapsulate(msg.encode(), peer, 4672, dir, ident, 1500);
    assert_eq!(frames.len(), 1, "canary messages must fit one frame");
    TimedFrame {
        ts: VirtualTime(ts),
        bytes: frames[0].to_bytes(),
    }
}

#[test]
fn no_sentinel_raw_id_reaches_any_output_surface() {
    let scratch = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("canary_{}", std::process::id()));
    let dump_dir = scratch.join("flight");
    fs::create_dir_all(&dump_dir).expect("scratch dir");

    let client_a = ClientId::from_ipv4(SENTINEL_IP_A);
    let client_b = ClientId::from_ipv4(SENTINEL_IP_B);
    let file_a = FileId(SENTINEL_FILE);
    let file_b = FileId(SENTINEL_FILE_2);

    // A stream exercising every id-carrying path: the record's peer,
    // embedded provider clientIDs, and fileIDs in both directions —
    // spread across checkpoint boundaries so sidecars and flight dumps
    // capture mid-stream state that includes the sentinels.
    let frames = vec![
        frame(
            1_000,
            Message::StatusRequest { challenge: 7 },
            client_a,
            Direction::ToServer,
            1,
        ),
        frame(
            2_000,
            Message::GetSources {
                file_ids: vec![file_a, file_b],
            },
            client_a,
            Direction::ToServer,
            2,
        ),
        frame(
            250_000,
            Message::FoundSources {
                file_id: file_a,
                sources: vec![
                    Source {
                        client_id: client_a,
                        port: 4662,
                    },
                    Source {
                        client_id: client_b,
                        port: 4662,
                    },
                ],
            },
            client_b,
            Direction::FromServer,
            3,
        ),
        frame(
            500_000,
            Message::GetSources {
                file_ids: vec![file_b],
            },
            client_b,
            Direction::ToServer,
            4,
        ),
        frame(
            750_000,
            Message::StatusRequest { challenge: 9 },
            client_b,
            Direction::ToServer,
            5,
        ),
    ];

    let registry = Registry::new();
    let opts = PipelineOptions {
        checkpoint_interval_us: 200_000,
        resume: None,
        faults: None,
        trace: Some(TraceOptions {
            ring_slots: 64,
            dump_dir: Some(dump_dir.clone()),
            max_dumps: 16,
        }),
    };
    let tail = TailConfig {
        batch_records: 2,
        batch_queue: 2,
        anon_shards: 1,
    };

    let seed = 0xCAFE;
    let mut sidecars = Vec::new();
    let (stats, _scheme, _fig3, writer) = run_capture_pipeline_batched(
        frames.into_iter(),
        2,
        PaperScheme::paper(24),
        Some(ByteSelector::FIRST_TWO),
        &registry,
        &opts,
        tail,
        DatasetWriter::new(Vec::new()).expect("vec writer"),
        |cut, writer_bytes| {
            let cp = Checkpoint::from_pipeline(seed, cut, writer_bytes);
            let path = scratch.join(format!("cp_{}.etwckpt", sidecars.len()));
            cp.write_atomic(&path).expect("sidecar write");
            sidecars.push(path);
        },
    )
    .expect("pipeline");
    assert!(stats.records >= 5, "all five canary messages must decode");
    assert!(!sidecars.is_empty(), "checkpoint cuts must fire mid-stream");

    // Surface 1: the dataset bytes.
    let dataset = writer.finish().expect("vec write");
    assert_surface_clean("dataset xml", &dataset);

    // Surface 2: every checkpoint sidecar — and they must still decode,
    // so the masking is not hiding corruption.
    for path in &sidecars {
        let bytes = fs::read(path).expect("sidecar read");
        assert_surface_clean("checkpoint sidecar", &bytes);
        let cp = Checkpoint::read(path).expect("sidecar decodes");
        assert!(
            cp.client_order.contains(&client_a.raw()),
            "sealed sidecar must still round-trip the real order"
        );
    }

    // Surface 3: flight-recorder dumps (checkpoint cuts dump).
    let mut dumps = 0;
    for entry in fs::read_dir(&dump_dir).expect("dump dir") {
        let path = entry.expect("dir entry").path();
        let bytes = fs::read(&path).expect("dump read");
        assert_surface_clean("flight dump", &bytes);
        dumps += 1;
    }
    assert!(dumps > 0, "checkpoint cuts must produce flight dumps");

    // Surface 4: the Prometheus exposition.
    let metrics = registry.snapshot().render_prometheus();
    assert_surface_clean("/metrics", metrics.as_bytes());

    fs::remove_dir_all(&scratch).ok();
}
