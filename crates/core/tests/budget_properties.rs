//! Budget contract of query execution (the robustness layer's core
//! properties):
//!
//! * an **unlimited** budget is a true no-op — results and NDC are
//!   bit-identical to the unbudgeted search;
//! * a finite cap **equal** to the unbudgeted NDC never blocks (the
//!   reservation protocol charges exactly the cache misses), so it is
//!   also bit-identical and still reports `Converged`;
//! * any finite cap is **strict**: measured NDC never exceeds it, even
//!   summed across shards sharing one budget — and the query degrades
//!   gracefully (tagged termination, best-so-far results, no panic);
//! * `termination != Converged` **iff** the budget actually bound.

mod common;

use common::{run, run_served, SHAPES};
use lan_core::{
    BudgetCtx, Fanout, InitStrategy, LanConfig, LanIndex, QueryBudget, RouteStrategy,
    SearchRequest, ShardedLanIndex, Termination,
};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::ModelConfig;
use lan_pg::PgConfig;
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

fn force_threads() {
    // Serialized via the shared env lock — a raw set_var would race the
    // num_threads() readers of concurrently running tests.
    lan_par::testenv::with_env(&[], || std::env::set_var("LAN_THREADS", "4"));
}

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

fn dataset() -> Dataset {
    Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(48)
            .with_queries(10)
            .with_metric(lan_ged::GedMethod::Hungarian),
    )
}

fn single_fixture() -> &'static LanIndex {
    static FIXTURE: OnceLock<LanIndex> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        force_threads();
        LanIndex::build(dataset(), tiny_cfg())
    })
}

fn sharded_fixture() -> &'static ShardedLanIndex {
    static FIXTURE: OnceLock<ShardedLanIndex> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        force_threads();
        ShardedLanIndex::build(&dataset(), &tiny_cfg(), 2)
    })
}

fn strategies(full_lan: bool) -> (InitStrategy, RouteStrategy) {
    if full_lan {
        (
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: true },
        )
    } else {
        (InitStrategy::HnswIs, RouteStrategy::HnswRoute)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Unlimited and exactly-sufficient budgets reproduce the unbudgeted
    /// search bit-for-bit; any tighter cap binds strictly and tags the
    /// outcome. Together: `termination != Converged` iff the cap bound.
    /// Holds with and without an EXPLAIN plan.
    #[test]
    fn ndc_cap_is_strict_and_exact(
        seed in 0u64..1_000_000,
        k in 1usize..=8,
        b in 4usize..=16,
        full_lan in any::<bool>(),
    ) {
        let index = single_fixture();
        let q = dataset().queries[(seed % 10) as usize].clone();
        let (init, route) = strategies(full_lan);
        let req = SearchRequest { init, route, seed, ..SearchRequest::new(k, b) };
        let base = index.search(&q, &req).outcome;
        prop_assert_eq!(base.termination, Termination::Converged);

        for explain in [false, true] {
            let with = |budget: QueryBudget| SearchRequest { budget, explain, ..req.clone() };

            // Unlimited budget: bit-identical (the fast path is literally
            // the unbudgeted code).
            let same = index.search(&q, &with(QueryBudget::unlimited())).outcome;
            prop_assert_eq!(&base.results, &same.results);
            prop_assert_eq!(base.ndc, same.ndc);
            prop_assert_eq!(same.termination, Termination::Converged);

            // A cap equal to the unbudgeted NDC never blocks: every charge
            // is a real cache miss, so the peek-then-charge path must also
            // be bit-identical — this exercises the finite-budget
            // accounting.
            let exact = with(QueryBudget::unlimited().with_max_ndc(base.ndc));
            let tight = index.search(&q, &exact).outcome;
            prop_assert_eq!(&base.results, &tight.results, "exact cap changed results");
            prop_assert_eq!(base.ndc, tight.ndc, "exact cap changed NDC");
            prop_assert_eq!(tight.termination, Termination::Converged);

            // Any smaller cap must bind: NDC never exceeds it and the
            // outcome is tagged degraded. No panic, results stay sorted.
            for cap in [1usize, base.ndc / 2, base.ndc.saturating_sub(1)] {
                if cap == 0 || cap >= base.ndc {
                    continue;
                }
                let capped = with(QueryBudget::unlimited().with_max_ndc(cap));
                let out = index.search(&q, &capped).outcome;
                prop_assert!(out.ndc <= cap, "cap {} exceeded: ndc {}", cap, out.ndc);
                prop_assert!(out.termination.is_degraded(),
                    "cap {} < unbudgeted NDC {} must degrade", cap, base.ndc);
                prop_assert!(out.results.windows(2).all(|w| w[0].0 <= w[1].0));
            }
        }
    }

    /// Every sharded shape (both fan-outs and the serving front-end's
    /// per-shard calls plus merge, each with and without an EXPLAIN plan)
    /// obeys the same contract, with one budget shared across every
    /// shard: the cap bounds the *summed* NDC, and unlimited budgets stay
    /// identical to the unbudgeted sequential path.
    #[test]
    fn sharded_budget_is_shared_and_strict(
        seed in 0u64..1_000_000,
        k in 1usize..=6,
        b in 4usize..=12,
        full_lan in any::<bool>(),
    ) {
        force_threads();
        let sharded = sharded_fixture();
        let q = dataset().queries[(seed % 10) as usize].clone();
        let (init, route) = strategies(full_lan);
        let req = SearchRequest { init, route, seed, ..SearchRequest::new(k, b) };
        let base = sharded.search(&q, &req, Fanout::Seq).outcome;
        prop_assert_eq!(base.termination, Termination::Converged);

        for shape in SHAPES {
            for explain in [false, true] {
                let with = |budget: QueryBudget| SearchRequest { budget, explain, ..req.clone() };
                let unl = run(sharded, &q, &with(QueryBudget::unlimited()), shape).outcome;
                prop_assert_eq!(&base.results, &unl.results);
                prop_assert_eq!(base.ndc, unl.ndc);

                // A shared finite cap bounds the summed NDC.
                for cap in [1usize, base.ndc / 3, base.ndc / 2] {
                    if cap == 0 {
                        continue;
                    }
                    let capped = with(QueryBudget::unlimited().with_max_ndc(cap));
                    let out = run(sharded, &q, &capped, shape).outcome;
                    prop_assert!(out.ndc <= cap, "{:?} shards: {} > cap {}", shape, out.ndc, cap);
                    if cap < base.ndc {
                        prop_assert!(out.termination.is_degraded());
                    }
                }
            }
        }
    }
}

/// An already-expired deadline stops the query before any distance work —
/// gracefully: empty or partial results, `Deadline` tag, no panic.
#[test]
fn expired_deadline_degrades_gracefully() {
    let index = single_fixture();
    let q = dataset().queries[0].clone();
    let req = SearchRequest {
        init: InitStrategy::HnswIs,
        route: RouteStrategy::HnswRoute,
        budget: QueryBudget::unlimited().with_deadline(Duration::ZERO),
        ..SearchRequest::new(5, 8)
    };
    let out = index.search(&q, &req).outcome;
    assert_eq!(out.termination, Termination::Deadline);
    assert_eq!(out.ndc, 0, "no distance may be charged after the deadline");
}

/// The hop cap bounds exploration without cancelling anything: the query
/// ends degraded with at most `max_hops` explored nodes' worth of work
/// per shard. Runs in the serving shape, which owns the shared context.
#[test]
fn hop_cap_bounds_exploration() {
    let sharded = sharded_fixture();
    let q = dataset().queries[1].clone();
    let req = SearchRequest {
        init: InitStrategy::HnswIs,
        route: RouteStrategy::HnswRoute,
        ..SearchRequest::new(5, 16)
    };
    let base = sharded.search(&q, &req, Fanout::Seq).outcome;
    let req = SearchRequest {
        budget: QueryBudget::unlimited().with_max_hops(1),
        ..req
    };
    let ctx = BudgetCtx::new(&req.budget);
    let out = run_served(sharded, &q, &req, &ctx).outcome;
    assert!(out.termination.is_degraded());
    assert!(!ctx.cancelled(), "a hop cap must not cancel sibling shards");
    assert!(
        out.ndc <= base.ndc,
        "hop-capped NDC {} exceeds uncapped {}",
        out.ndc,
        base.ndc
    );
}

/// The harness reads `LAN_NDC_BUDGET` / `LAN_DEADLINE_MS` per batch; a
/// capped environment degrades queries instead of failing the batch, and
/// unsetting the variables restores exact unbudgeted behavior.
#[test]
fn harness_env_budget_roundtrip() {
    use lan_core::harness;
    let index = single_fixture();
    let test_q: Vec<usize> = index.dataset.split.test.clone();
    let truths = harness::ground_truths(index, &test_q, 5);
    let (init, route) = strategies(false);

    let (base, _) = harness::run_point(index, &test_q, &truths, 5, 8, init, route);
    let (capped, _) = lan_par::testenv::with_env(&[("LAN_NDC_BUDGET", Some("2"))], || {
        harness::run_point(index, &test_q, &truths, 5, 8, init, route)
    });
    assert!(
        capped.avg_ndc <= 2.0,
        "per-query cap leaked: {}",
        capped.avg_ndc
    );
    let (restored, _) = lan_par::testenv::with_env(&[("LAN_NDC_BUDGET", None)], || {
        harness::run_point(index, &test_q, &truths, 5, 8, init, route)
    });
    assert_eq!(base.recall, restored.recall);
    assert_eq!(base.avg_ndc, restored.avg_ndc);
}
