//! Persistence contracts of the on-disk index store:
//!
//! * **bit-identity** — a saved-then-opened index answers queries exactly
//!   like the index that built it: same `(distance, id)` results, same
//!   NDC, same `ged.calls` deltas, and the same EXPLAIN tier attribution
//!   (with the reconciliation invariant `lb + tau + full == ndc` holding
//!   on both sides), across both routers, several seeds, and the sharded
//!   fan-out;
//! * **corruption safety** — a truncated file, a flipped byte, and a
//!   future format version come back as typed [`StoreError`]s, never a
//!   panic or silently wrong data.

use lan_core::{
    Fanout, InitStrategy, L2RouteIndex, LanConfig, LanIndex, RouteStrategy, SearchRequest,
    SearchResponse, ShardedLanIndex,
};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::ModelConfig;
use lan_pg::PgConfig;
use lan_store::StoreError;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn tiny_cfg() -> LanConfig {
    LanConfig {
        pg: PgConfig::new(4),
        model: ModelConfig {
            embed_dim: 8,
            epochs: 1,
            max_samples_per_epoch: 80,
            nh_cover_k: 6,
            clusters: 3,
            top_clusters: 2,
            mlp_hidden: 8,
            ..ModelConfig::default()
        },
        ds: 1.0,
        quant: lan_core::QuantConfig::default(),
    }
}

fn tiny_dataset(graphs: usize) -> Dataset {
    Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(graphs)
            .with_queries(12)
            .with_metric(lan_ged::GedMethod::Hungarian),
    )
}

/// A fresh path under the system temp dir (no external tempfile crate).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "lan_store_test_{}_{tag}_{n}.lan",
        std::process::id()
    ))
}

struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

const STRATEGIES: [(InitStrategy, RouteStrategy); 3] = [
    (
        InitStrategy::LanIs,
        RouteStrategy::LanRoute { use_cg: true },
    ),
    (
        InitStrategy::LanIs,
        RouteStrategy::LanRoute { use_cg: false },
    ),
    (InitStrategy::HnswIs, RouteStrategy::HnswRoute),
];

#[test]
fn flat_index_round_trips_bit_identically() {
    let built = LanIndex::build(tiny_dataset(40), tiny_cfg());
    let path = scratch("flat");
    let _cleanup = TempFile(path.clone());
    let bytes = built.save(&path).expect("save");
    assert!(bytes > 0);
    let loaded = LanIndex::open(&path).expect("open");

    assert_eq!(loaded.build_ndc, built.build_ndc);
    assert_eq!(loaded.dataset.graphs.len(), built.dataset.graphs.len());
    assert_eq!(loaded.report.gamma_star, built.report.gamma_star);

    lan_obs::set_enabled(true);
    for (init, route) in STRATEGIES {
        for qi in 0..6usize {
            let q = built.dataset.queries[qi].clone();
            for seed in [0u64, 7] {
                let req = SearchRequest {
                    init,
                    route,
                    seed,
                    ..SearchRequest::new(3, 4)
                };
                let s0 = lan_obs::snapshot();
                let a = built.search(&q, &req).outcome;
                let built_calls = lan_obs::snapshot()
                    .diff(&s0)
                    .counter(lan_obs::names::GED_CALLS);

                let s1 = lan_obs::snapshot();
                let b = loaded.search(&q, &req).outcome;
                let loaded_calls = lan_obs::snapshot()
                    .diff(&s1)
                    .counter(lan_obs::names::GED_CALLS);

                let tag = format!("init={init:?} route={route:?} qi={qi} seed={seed}");
                assert_eq!(a.results, b.results, "results diverged ({tag})");
                assert_eq!(a.ndc, b.ndc, "NDC diverged ({tag})");
                assert_eq!(built_calls, loaded_calls, "ged.calls diverged ({tag})");
            }
        }
    }
}

#[test]
fn flat_index_explain_attribution_survives_reload() {
    let built = LanIndex::build(tiny_dataset(40), tiny_cfg());
    let path = scratch("explain");
    let _cleanup = TempFile(path.clone());
    built.save(&path).expect("save");
    let loaded = LanIndex::open(&path).expect("open");

    for (init, route) in STRATEGIES {
        for qi in 0..4usize {
            let q = built.dataset.queries[qi].clone();
            let req = SearchRequest {
                init,
                route,
                explain: true,
                ..SearchRequest::new(3, 4)
            };
            let explained = |r: SearchResponse| (r.outcome, r.explain.expect("plan requested"));
            let (a, ea) = explained(built.search(&q, &req));
            let (b, eb) = explained(loaded.search(&q, &req));
            let tag = format!("init={init:?} route={route:?} qi={qi}");
            assert_eq!(a.results, b.results, "results diverged ({tag})");
            // Reconciliation holds on both sides and the per-tier split
            // is identical: the loaded index routes through the same
            // cascade with the same cached signatures.
            assert_eq!(
                ea.tiers.attributed(),
                ea.ndc,
                "built reconciliation ({tag})"
            );
            assert_eq!(
                eb.tiers.attributed(),
                eb.ndc,
                "loaded reconciliation ({tag})"
            );
            assert_eq!(ea.ndc, eb.ndc, "explain NDC diverged ({tag})");
            assert_eq!(
                (
                    ea.tiers.lb_prunes,
                    ea.tiers.tau_aborts,
                    ea.tiers.full_solves
                ),
                (
                    eb.tiers.lb_prunes,
                    eb.tiers.tau_aborts,
                    eb.tiers.full_solves
                ),
                "tier attribution diverged ({tag})"
            );
            assert_eq!(ea.hops, eb.hops, "hops diverged ({tag})");
            assert_eq!(ea.cache_hits, eb.cache_hits, "cache hits diverged ({tag})");
        }
    }
}

#[test]
fn sharded_index_round_trips_bit_identically() {
    let ds = tiny_dataset(60);
    let built = ShardedLanIndex::build(&ds, &tiny_cfg(), 3);
    let path = scratch("sharded");
    let _cleanup = TempFile(path.clone());
    built.save(&path).expect("save");
    let loaded = ShardedLanIndex::open(&path).expect("open");

    assert_eq!(loaded.num_shards(), built.num_shards());
    assert_eq!(loaded.len(), built.len());
    assert_eq!(loaded.global_ids, built.global_ids);

    for (init, route) in STRATEGIES {
        for qi in 0..4usize {
            let q = ds.queries[qi].clone();
            for seed in [0u64, 7] {
                let req = SearchRequest {
                    init,
                    route,
                    seed,
                    ..SearchRequest::new(3, 4)
                };
                let a = built.search(&q, &req, Fanout::Seq).outcome;
                let b = loaded.search(&q, &req, Fanout::Seq).outcome;
                let tag = format!("init={init:?} route={route:?} qi={qi} seed={seed}");
                assert_eq!(a.results, b.results, "results diverged ({tag})");
                assert_eq!(a.ndc, b.ndc, "NDC diverged ({tag})");
                // The parallel fan-out over loaded shards must agree too.
                let p = loaded.search(&q, &req, Fanout::Par).outcome;
                assert_eq!(a.results, p.results, "parallel fan-out diverged ({tag})");
            }
        }
    }
}

#[test]
fn l2route_round_trips_bit_identically() {
    let built = LanIndex::build(tiny_dataset(40), tiny_cfg());
    let l2 = L2RouteIndex::build(&built, 4);
    let path = scratch("l2");
    let _cleanup = TempFile(path.clone());
    l2.save(&path).expect("save");
    let loaded = L2RouteIndex::open(&path).expect("open");
    assert_eq!(loaded.embeds, l2.embeds);
    for qi in 0..4usize {
        let q = built.dataset.queries[qi].clone();
        let (ra, na, _, _) = l2.search(&built, &q, 3, 4);
        let (rb, nb, _, _) = loaded.search(&built, &q, 3, 4);
        assert_eq!(ra, rb, "results diverged qi={qi}");
        assert_eq!(na, nb, "NDC diverged qi={qi}");
    }
}

/// `expect_err` without a `Debug` bound on the success side (indexes are
/// deliberately not `Debug` — they hold the whole database).
fn open_err(path: &std::path::Path, why: &str) -> StoreError {
    match LanIndex::open(path) {
        Err(e) => e,
        Ok(_) => panic!("open unexpectedly succeeded: {why}"),
    }
}

#[test]
fn corrupted_files_are_typed_errors_never_panics() {
    let built = LanIndex::build(tiny_dataset(30), tiny_cfg());
    let path = scratch("corrupt");
    let _cleanup = TempFile(path.clone());
    built.save(&path).expect("save");
    let good = std::fs::read(&path).expect("read back");

    // Truncation at every granularity: mid-superblock, mid-table,
    // mid-section. All must produce a typed error.
    for frac in [0.1, 0.3, 0.5, 0.9, 0.999] {
        let cut = (good.len() as f64 * frac) as usize;
        let tpath = scratch("trunc");
        let _tc = TempFile(tpath.clone());
        std::fs::write(&tpath, &good[..cut]).unwrap();
        let err = open_err(&tpath, "truncated file must fail");
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::BadChecksum { .. }
                    | StoreError::BadMagic
                    | StoreError::Corrupt { .. }
                    | StoreError::MissingSection { .. }
            ),
            "unexpected error for cut at {cut}/{}: {err:?}",
            good.len()
        );
    }

    // A single flipped byte anywhere in a section must trip a checksum
    // (or decode) error — sample positions across the whole file.
    for pos in (0..good.len()).step_by(good.len() / 23 + 1) {
        let mut bad = good.clone();
        bad[pos] ^= 0xA5;
        let bpath = scratch("flip");
        let _bc = TempFile(bpath.clone());
        std::fs::write(&bpath, &bad).unwrap();
        // Any typed error is acceptable; opening must never succeed with
        // silently wrong bytes in a checksummed region, and never panic.
        match LanIndex::open(&bpath) {
            Err(_) => {}
            Ok(_) => panic!("flipped byte at {pos} went undetected"),
        }
    }

    // A future format version is refused up front.
    let mut future = good.clone();
    // Version u32 sits right after the 8-byte magic (little-endian).
    future[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let fpath = scratch("future");
    let _fc = TempFile(fpath.clone());
    std::fs::write(&fpath, &future).unwrap();
    let err = open_err(&fpath, "future version must fail");
    assert!(
        matches!(err, StoreError::BadVersion { .. }),
        "expected BadVersion, got {err:?}"
    );

    // Wrong magic.
    let mut nomagic = good;
    nomagic[0] ^= 0xFF;
    let mpath = scratch("magic");
    let _mc = TempFile(mpath.clone());
    std::fs::write(&mpath, &nomagic).unwrap();
    let err = open_err(&mpath, "bad magic must fail");
    assert!(matches!(err, StoreError::BadMagic), "got {err:?}");

    // Opening a flat file as sharded (and vice versa) is a typed miss.
    let spath = scratch("wrongkind");
    let _sc = TempFile(spath.clone());
    built.save(&spath).expect("save");
    let err = match ShardedLanIndex::open(&spath) {
        Err(e) => e,
        Ok(_) => panic!("opening a flat file as sharded must fail"),
    };
    assert!(
        matches!(err, StoreError::MissingSection { .. }),
        "got {err:?}"
    );
}
