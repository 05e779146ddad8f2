//! Active measurement — the complementary method the paper's conclusion
//! proposes: instead of capturing at the server, act as a client and
//! *probe*. Demonstrates (1) capture–recapture estimation of the index
//! size from two keyword sweeps, (2) Chao1 richness estimation from one
//! sweep, and (3) the popularity bias of client-side sampling — the
//! caveat the paper raises when it warns its statistics "are subject to
//! measurement bias".
//!
//! ```text
//! cargo run --release --example active_probe
//! ```

use edonkey_ten_weeks::edonkey::{ClientId, Message};
use edonkey_ten_weeks::probe::estimate::chao1;
use edonkey_ten_weeks::probe::prober::{estimate_index_size, popularity_bias, ActiveProber};
use edonkey_ten_weeks::server::engine::ServerEngine;
use edonkey_ten_weeks::telemetry::Registry;
use edonkey_ten_weeks::workload::catalog::{Catalog, CatalogParams};
use edonkey_ten_weeks::workload::clients::{Population, PopulationParams};
use edonkey_ten_weeks::workload::session::{
    GeneratorParams, MergedSessions, SourceBlobs, SrcOp, WireParams,
};
use std::collections::HashSet;
use std::sync::Arc;

fn main() {
    // Populate a live server through ordinary client announcements.
    let catalog = Arc::new(Catalog::generate(
        &CatalogParams {
            n_files: 20_000,
            ..CatalogParams::default()
        },
        1,
    ));
    let population = Population::generate(
        &PopulationParams {
            n_clients: 2_000,
            id_space_bits: 22,
            ..PopulationParams::default()
        },
        2,
    );
    let mut server = ServerEngine::default();
    let sessions = MergedSessions::new(
        Arc::clone(&catalog),
        Arc::new(population),
        Arc::new(SourceBlobs::build(&catalog)),
        GeneratorParams {
            duration_secs: 2 * 3_600,
            ..GeneratorParams::default()
        },
        WireParams::default(),
        3,
        1,
    );
    for ev in sessions {
        if matches!(ev.op, SrcOp::Offer(_)) {
            let msg = Message::decode(&ev.query).expect("session queries decode");
            server.handle(ev.client, &msg);
        }
    }
    let truth = server.index().file_count();
    println!("ground truth: server indexes {truth} files\n");

    // The probe dictionary: the same keyword vocabulary clients use.
    let vocab: Vec<String> = {
        let mut set = HashSet::new();
        for f in catalog.files() {
            for kw in &f.keywords {
                set.insert(kw.clone());
            }
        }
        let mut v: Vec<String> = set.into_iter().collect();
        v.sort();
        v
    };
    println!("probe dictionary: {} keywords", vocab.len());

    // Two independent sweeps → capture–recapture. Both probers report
    // into one registry (the probe.* metric namespace).
    let registry = Registry::new();
    let mut p1 = ActiveProber::new(ClientId(0x0030_0001), vocab.clone(), 10);
    let mut p2 = ActiveProber::new(ClientId(0x0030_0002), vocab.clone(), 20);
    p1.attach_telemetry(&registry);
    p2.attach_telemetry(&registry);
    let s1 = p1.sweep(&mut server, 400, 2_000);
    let s2 = p2.sweep(&mut server, 400, 0);
    println!(
        "sweep 1: {} files, {} sources discovered ({} searches, {} source queries)",
        s1.files.len(),
        s1.sources.len(),
        s1.searches,
        s1.source_queries
    );
    println!("sweep 2: {} files discovered", s2.files.len());

    let est = estimate_index_size(&s1, &s2);
    println!(
        "\ncapture-recapture: n1={} n2={} recaptured={} → estimated index = {:.0} ± {:.0} (truth {truth})",
        est.n1, est.n2, est.recaptured, est.estimated_files, est.sd
    );
    let err = (est.estimated_files - truth as f64).abs() / truth as f64;
    println!("relative error: {:.1} %", err * 100.0);
    println!(
        "note the failure mode: capture-recapture assumes *uniform independent* samples,\n\
         but keyword sweeps rediscover the same popular, keyword-rich files ({} of {} recaptured),\n\
         so the estimator collapses to the size of the reachable head. This is the measurement\n\
         bias (Stutzbach et al.) the paper cites — and why its server-side passive capture, which\n\
         sees every query, is the stronger instrument.",
        est.recaptured, est.n1
    );

    // Chao1 from provider-count frequencies of sweep 1.
    let f1 = s1.sources_per_file.values().filter(|&&n| n == 1).count() as u64;
    let f2 = s1.sources_per_file.values().filter(|&&n| n == 2).count() as u64;
    println!(
        "\nChao1 on provider frequencies: observed {} files with sources, f1={f1}, f2={f2} → ≥ {:.0} files have providers",
        s1.sources_per_file.len(),
        chao1(s1.sources_per_file.len() as u64, f1, f2)
    );

    let snap = registry.snapshot();
    println!(
        "\nprobe telemetry: {} searches, {} source queries, {} answers, {} timeouts",
        snap.counter("probe.searches_total"),
        snap.counter("probe.source_queries_total"),
        snap.counter("probe.answers_total"),
        snap.counter("probe.timeouts_total"),
    );

    // The bias the paper warns about.
    if let Some(bias) = popularity_bias(&s1, &server) {
        println!(
            "\nsampling bias: probed files have {bias:.2}x the mean provider count of the whole index"
        );
        println!(
            "(client-side probing over-represents popular content — the paper's §3 caveat, quantified)"
        );
    }
}
