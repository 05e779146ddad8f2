//! Property tests for the synthetic population and the session
//! generator: the invariants every campaign run relies on.

use etw_edonkey::messages::Message;
use etw_workload::catalog::{Catalog, CatalogParams};
use etw_workload::clients::{ClientClass, Population, PopulationParams};
use etw_workload::session::{GeneratorParams, MergedSessions, SourceBlobs, SrcEvent, WireParams};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn small_catalog(n_files: usize, seed: u64) -> Catalog {
    Catalog::generate(
        &CatalogParams {
            n_files,
            ..CatalogParams::default()
        },
        seed,
    )
}

/// The merged query stream of `n_shards` session workers, wire noise off.
fn sessions(
    catalog: Catalog,
    pop: Population,
    duration_secs: u64,
    seed: u64,
    n_shards: usize,
) -> MergedSessions {
    let blobs = SourceBlobs::build(&catalog);
    MergedSessions::new(
        Arc::new(catalog),
        Arc::new(pop),
        Arc::new(blobs),
        GeneratorParams {
            duration_secs,
            ..GeneratorParams::default()
        },
        WireParams::default(),
        seed,
        n_shards,
    )
}

/// Decodes an event's query, failing the case unless it is a
/// client-to-server message.
fn client_query(ev: &SrcEvent) -> Result<Message, TestCaseError> {
    let msg = Message::decode(&ev.query).map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
    prop_assert!(msg.is_client_to_server(), "{msg:?}");
    Ok(msg)
}

fn shard_counts() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(4)]
}

/// Body of `senders_and_share_bounds`: every event's sender is a
/// population member, and per-client announced distinct files never
/// exceed the profile.
fn check_senders_and_share_bounds(seed: u64, n_shards: usize) -> TestCaseResult {
    let catalog = small_catalog(800, seed);
    let pop = Population::generate(
        &PopulationParams {
            n_clients: 80,
            id_space_bits: 18,
            scanner_max_asks: 200,
            heavy_max_shared: 150,
            ..PopulationParams::default()
        },
        seed ^ 3,
    );
    let members: HashMap<u32, u32> = pop
        .clients()
        .iter()
        .map(|c| (c.id.raw(), c.n_shared + c.n_forged))
        .collect();
    let mut announced: HashMap<u32, HashSet<etw_edonkey::FileId>> = HashMap::new();
    for ev in sessions(catalog, pop, 2_000, seed ^ 4, n_shards) {
        prop_assert!(members.contains_key(&ev.client.raw()), "unknown sender");
        if let Message::OfferFiles { files } = client_query(&ev)? {
            let set = announced.entry(ev.client.raw()).or_default();
            for f in files {
                set.insert(f.file_id);
            }
        }
    }
    for (client, set) in &announced {
        let budget = members[client];
        prop_assert!(
            set.len() as u32 <= budget,
            "client {client} announced {} > budget {budget}",
            set.len()
        );
    }
    Ok(())
}

/// The recorded case in `proptest_workload.proptest-regressions`, which
/// the vendored runner does not replay.
#[test]
fn senders_and_share_bounds_seed_313() {
    for n_shards in [1, 2, 4] {
        check_senders_and_share_bounds(313, n_shards).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The event stream is time-ordered and bounded by the campaign
    /// duration, for any population size, duration and shard count.
    #[test]
    fn stream_ordered_and_bounded(
        n_clients in 5usize..120,
        duration in 300u64..4_000,
        seed in 0u64..1_000,
        n_shards in shard_counts(),
    ) {
        let catalog = small_catalog(500, seed);
        let pop = Population::generate(
            &PopulationParams {
                n_clients,
                id_space_bits: 18,
                scanner_max_asks: 300,
                heavy_max_shared: 100,
                ..PopulationParams::default()
            },
            seed ^ 1,
        );
        let mut last = 0u64;
        let mut n = 0u64;
        for ev in sessions(catalog, pop, duration, seed ^ 2, n_shards) {
            prop_assert!(ev.t_us >= last, "time went backwards");
            prop_assert!(ev.t_us < duration * 1_000_000);
            client_query(&ev)?;
            last = ev.t_us;
            n += 1;
        }
        prop_assert!(n > 0);
    }

    /// See [`check_senders_and_share_bounds`].
    #[test]
    fn senders_and_share_bounds(seed in 0u64..500, n_shards in shard_counts()) {
        check_senders_and_share_bounds(seed, n_shards)?;
    }

    /// Catalog popularity sampling always returns valid indices and the
    /// most popular rank dominates.
    #[test]
    fn catalog_sampling_valid(n_files in 10usize..3_000, seed in 0u64..500) {
        let catalog = small_catalog(n_files, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::SeedableRng;
        for _ in 0..500 {
            let p = catalog.sample_provided(&mut rng);
            let s = catalog.sample_sought(&mut rng);
            prop_assert!(p < n_files);
            prop_assert!(s < n_files);
        }
    }

    /// Population class counts roughly follow the mix (chi-square-free
    /// sanity: each configured-nonzero class appears given enough
    /// clients).
    #[test]
    fn population_mix_represented(seed in 0u64..200) {
        let pop = Population::generate(
            &PopulationParams {
                n_clients: 3_000,
                id_space_bits: 20,
                ..PopulationParams::default()
            },
            seed,
        );
        for class in ClientClass::ALL {
            prop_assert!(
                pop.of_class(class).next().is_some(),
                "class {class:?} absent at n=3000"
            );
        }
        // Casual is the majority class.
        let casual = pop.of_class(ClientClass::Casual).count();
        prop_assert!(casual * 2 > pop.len());
    }
}
