//! Pollution study — reproduces the paper's §2.4 detective story: forged
//! fileIDs (pollution, as studied by Lee et al., the paper's ref. [12])
//! silently concentrate in anonymisation buckets 0 and 256 when the
//! arrays are indexed by the first two fileID bytes, and a different
//! byte pair fixes it.
//!
//! Sweeps the polluter share of the population and prints, for each
//! level, the bucket imbalance under both selectors — showing the
//! phenomenon appears *only* with pollution and *only* under first-two-
//! bytes indexing.
//!
//! ```text
//! cargo run --release --example pollution_study
//! ```

use edonkey_ten_weeks::anonymize::fileid::{BucketedArrays, ByteSelector, FileIdAnonymizer};
use edonkey_ten_weeks::workload::catalog::{Catalog, CatalogParams};
use edonkey_ten_weeks::workload::clients::{ClassMix, Population, PopulationParams};
use edonkey_ten_weeks::workload::session::{
    GeneratorParams, MergedSessions, SourceBlobs, SrcOp, WireParams,
};
use std::sync::Arc;

fn main() {
    let catalog = Arc::new(Catalog::generate(
        &CatalogParams {
            n_files: 5_000,
            ..CatalogParams::default()
        },
        1,
    ));
    let blobs = Arc::new(SourceBlobs::build(&catalog));

    println!(
        "{:>12} {:>14} {:>14} {:>10} {:>10}",
        "polluter %", "max(first2)", "max(altbytes)", "bucket0", "bucket256"
    );

    for polluter_pct in [0.0, 0.5, 1.0, 2.0, 5.0] {
        let mix = ClassMix {
            polluter: polluter_pct / 100.0,
            ..ClassMix::paper_like()
        };
        let population = Population::generate(
            &PopulationParams {
                n_clients: 1_000,
                id_space_bits: 20,
                mix,
                ..PopulationParams::default()
            },
            2,
        );
        let sessions = MergedSessions::new(
            Arc::clone(&catalog),
            Arc::new(population),
            Arc::clone(&blobs),
            GeneratorParams {
                duration_secs: 3_600,
                ..GeneratorParams::default()
            },
            WireParams::default(),
            3,
            1,
        );

        // Feed every announced fileID through both stores, exactly as
        // the capture machine's anonymiser would.
        let mut first = BucketedArrays::new(ByteSelector::FIRST_TWO);
        let mut alt = BucketedArrays::new(ByteSelector::ALTERNATIVE);
        for ev in sessions {
            if let SrcOp::Offer(entries) = &ev.op {
                for e in entries {
                    first.anonymize(&e.file_id);
                    alt.anonymize(&e.file_id);
                }
            }
        }
        let sizes = first.bucket_sizes();
        println!(
            "{:>12.1} {:>14} {:>14} {:>10} {:>10}",
            polluter_pct,
            first.max_bucket_size(),
            alt.max_bucket_size(),
            sizes[0],
            sizes[256],
        );
    }

    println!(
        "\nReading the table: without pollution both selectors stay balanced; \
         as polluters join, buckets 0/256 under first-two-bytes indexing absorb \
         every forged ID while the alternative byte pair stays flat — the paper's Fig. 3."
    );
}
