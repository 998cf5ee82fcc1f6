//! EXPLAIN-plan reconciliation properties: the per-tier NDC attribution
//! must sum *exactly* to the query's NDC — which equals the `ged.calls`
//! registry delta — under every termination cause and in every shard
//! fan-out shape, and collecting a plan must never perturb the search.
//!
//! The tests read global-registry deltas and flip the EXPLAIN switch, so
//! every test serializes on one lock (they share this binary's process
//! with nothing else).

mod common;

use common::{run, SHAPES};
use lan_core::{
    InitStrategy, LanConfig, LanIndex, QueryBudget, QueryOutcome, RouteStrategy, SearchRequest,
    SearchResponse, ShardedLanIndex,
};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::ModelConfig;
use lan_obs::explain::QueryExplain;
use lan_pg::PgConfig;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Serializes tests: they diff the global `ged.calls` counter and toggle
/// the global EXPLAIN switch.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
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

fn tiny_dataset() -> Dataset {
    Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(40)
            .with_queries(10)
            .with_metric(lan_ged::GedMethod::Hungarian),
    )
}

fn index() -> &'static LanIndex {
    static INDEX: OnceLock<LanIndex> = OnceLock::new();
    INDEX.get_or_init(|| LanIndex::build(tiny_dataset(), tiny_cfg()))
}

fn sharded() -> &'static ShardedLanIndex {
    static SHARDED: OnceLock<ShardedLanIndex> = OnceLock::new();
    SHARDED.get_or_init(|| ShardedLanIndex::build(&tiny_dataset(), &tiny_cfg(), 2))
}

/// The reconciliation contract on one (outcome, plan) pair, against the
/// `ged.calls` delta observed around the search.
fn assert_reconciles(out: &QueryOutcome, ex: &QueryExplain, ged_delta: u64, what: &str) {
    assert_eq!(
        ex.tiers.attributed(),
        ex.ndc,
        "{what}: tier attribution must sum to the plan's NDC"
    );
    assert_eq!(ex.ndc, out.ndc as u64, "{what}: plan NDC != outcome NDC");
    assert_eq!(ex.ndc, ged_delta, "{what}: plan NDC != ged.calls delta");
    assert_eq!(
        ex.lookups(),
        ex.ndc + ex.cache_hits,
        "{what}: lookups != ndc + cache_hits"
    );
    assert_eq!(
        ex.termination,
        out.termination.as_str(),
        "{what}: termination string drifted"
    );
}

fn explained(resp: SearchResponse) -> (QueryOutcome, QueryExplain) {
    (resp.outcome, resp.explain.expect("plan requested"))
}

fn ged_calls() -> u64 {
    lan_obs::counter(lan_obs::names::GED_CALLS).get()
}

#[test]
fn tiers_reconcile_under_every_termination_cause() {
    let _l = lock();
    lan_obs::set_enabled(true);
    let index = index();
    let budgets: Vec<(&str, QueryBudget)> = vec![
        ("unlimited", QueryBudget::unlimited()),
        ("ndc_0", QueryBudget::unlimited().with_max_ndc(0)),
        ("ndc_3", QueryBudget::unlimited().with_max_ndc(3)),
        ("ndc_10", QueryBudget::unlimited().with_max_ndc(10)),
        (
            "deadline_0",
            QueryBudget::unlimited().with_deadline(Duration::ZERO),
        ),
        ("hops_1", QueryBudget::unlimited().with_max_hops(1)),
    ];
    let mut causes = std::collections::BTreeSet::new();
    for (init, route) in [
        (
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: true },
        ),
        (InitStrategy::HnswIs, RouteStrategy::HnswRoute),
    ] {
        for qi in 0..3usize {
            let q = index.dataset.queries[qi].clone();
            for (label, budget) in &budgets {
                let req = SearchRequest {
                    init,
                    route,
                    seed: qi as u64,
                    budget: budget.clone(),
                    explain: true,
                    ..SearchRequest::new(5, 10)
                };
                let before = ged_calls();
                let (out, ex) = explained(index.search(&q, &req));
                let delta = ged_calls() - before;
                causes.insert(ex.termination.clone());
                assert_reconciles(&out, &ex, delta, &format!("{label}/{}", route.as_str()));
                // The budget block must report the limits verbatim.
                assert_eq!(
                    ex.budget.max_ndc,
                    budget.max_ndc.map(|v| v as u64),
                    "{label}"
                );
                assert_eq!(
                    ex.budget.max_hops,
                    budget.max_hops.map(|v| v as u64),
                    "{label}"
                );
            }
        }
    }
    // The sweep must actually have exercised distinct termination causes,
    // not converged everywhere.
    assert!(causes.contains("converged"), "causes seen: {causes:?}");
    assert!(causes.contains("ndc_budget"), "causes seen: {causes:?}");
    assert!(causes.contains("deadline"), "causes seen: {causes:?}");
    assert!(causes.len() >= 3, "causes seen: {causes:?}");
}

#[test]
fn sharded_fanout_reconciles_in_every_shape() {
    let _l = lock();
    lan_obs::set_enabled(true);
    let sharded = sharded();
    let q = sharded.shards[0].dataset.queries[0].clone();
    let req = SearchRequest {
        seed: 1,
        explain: true,
        ..SearchRequest::new(5, 10)
    };

    for (label, budget) in [
        ("unlimited", QueryBudget::unlimited()),
        ("ndc_8", QueryBudget::unlimited().with_max_ndc(8)),
    ] {
        let req = SearchRequest {
            budget: budget.clone(),
            ..req.clone()
        };
        // `SHAPES` starts with the sequential fan-out, the reference.
        let mut seq: Option<(QueryOutcome, QueryExplain)> = None;
        for shape in SHAPES {
            let label = format!("{shape:?}/{label}");
            let before = ged_calls();
            let (out, ex) = explained(run(sharded, &q, &req, shape));
            let delta = ged_calls() - before;
            assert_reconciles(&out, &ex, delta, &label);
            assert!(!ex.shards.is_empty(), "merged plan lost its sub-plans");
            // The merged counters are exactly the sums of the sub-plans.
            let sub_ndc: u64 = ex.shards.iter().map(|s| s.ndc).sum();
            let sub_tiers: u64 = ex.shards.iter().map(|s| s.tiers.attributed()).sum();
            assert_eq!(ex.ndc, sub_ndc, "{label}: merged NDC != sum of shard NDC");
            assert_eq!(ex.tiers.attributed(), sub_tiers, "{label}");
            assert_eq!(
                ex.timeline.len(),
                ex.shards.len(),
                "{label}: one timeline entry per searched shard"
            );
            // Each `shard.N` entry is that shard's finish offset from the
            // query start: after the shard's own run, before the merge.
            for (entry, shard) in ex.timeline.iter().zip(&ex.shards) {
                assert!(
                    shard.total_ns <= entry.elapsed_ns && entry.elapsed_ns <= ex.total_ns,
                    "{label}: {} finished at {} ns, outside [{}, {}]",
                    entry.stage,
                    entry.elapsed_ns,
                    shard.total_ns,
                    ex.total_ns
                );
            }
            match &seq {
                None => seq = Some((out, ex)),
                // Every shape is bit-identical to sequential when no
                // budget races the shards.
                Some((sout, sex)) if budget.is_unlimited() => {
                    assert_eq!(sout.results, out.results, "{label}");
                    assert_eq!(sex.ndc, ex.ndc, "{label}");
                    assert_eq!(sex.tiers, ex.tiers, "{label}");
                }
                Some(_) => {}
            }
        }
    }
}

#[test]
fn collecting_a_plan_never_perturbs_the_search() {
    let _l = lock();
    lan_obs::set_enabled(true);
    let index = index();
    for (init, route) in [
        (
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: true },
        ),
        (
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: false },
        ),
        (InitStrategy::HnswIs, RouteStrategy::HnswRoute),
        (
            InitStrategy::RandIs,
            RouteStrategy::LanRoute { use_cg: true },
        ),
    ] {
        for qi in 0..4usize {
            let q = index.dataset.queries[qi].clone();
            let req = SearchRequest {
                init,
                route,
                seed: qi as u64,
                ..SearchRequest::new(5, 10)
            };
            let plain = index.search(&q, &req).outcome;
            let explain = SearchRequest {
                explain: true,
                ..req
            };
            let (explained, ex) = explained(index.search(&q, &explain));
            assert_eq!(plain.results, explained.results, "{}", route.as_str());
            assert_eq!(plain.ndc, explained.ndc, "{}", route.as_str());
            assert_eq!(ex.init, init.as_str());
            assert_eq!(ex.route, route.as_str());
            assert_eq!(ex.query, qi as u64);
        }
    }
}

#[test]
fn env_gated_emission_lands_in_the_ring() {
    let _l = lock();
    lan_obs::set_enabled(true);
    let index = index();
    let q = index.dataset.queries[0].clone();

    lan_obs::explain::set_enabled(false);
    lan_obs::explain::drain();
    let _ = index.search(&q, &SearchRequest::new(5, 10));
    assert!(
        lan_obs::explain::drain().is_empty(),
        "disabled EXPLAIN must emit nothing"
    );

    lan_obs::explain::set_enabled(true);
    let plain = index.search(&q, &SearchRequest::new(5, 10)).outcome;
    let lines = lan_obs::explain::drain();
    lan_obs::explain::set_enabled(false);
    assert_eq!(lines.len(), 1, "one emitted plan per top-level search");
    let line = &lines[0];
    assert!(line.starts_with('{') && line.ends_with('}'), "JSONL shape");
    assert!(
        line.contains(&format!("\"ndc\":{}", plain.ndc)),
        "emitted plan must carry the query's NDC: {line}"
    );

    // Sharded top-level searches emit exactly one (merged) plan too, in
    // every shape — per-shard sub-searches must not double-emit.
    let sharded = sharded();
    lan_obs::explain::set_enabled(true);
    for shape in SHAPES {
        let _ = run(sharded, &q, &SearchRequest::new(5, 10), shape);
    }
    // A plan the request asked for belongs to the caller, not the ring.
    let asked = SearchRequest {
        explain: true,
        ..SearchRequest::new(5, 10)
    };
    let _ = index.search(&q, &asked);
    for shape in SHAPES {
        let _ = run(sharded, &q, &asked, shape);
    }
    let lines = lan_obs::explain::drain();
    lan_obs::explain::set_enabled(false);
    assert_eq!(
        lines.len(),
        SHAPES.len(),
        "one merged plan per sharded search"
    );
    assert!(
        lines.iter().all(|l| l.contains("\"stage\":\"shard.0\"")),
        "merged plans must carry per-shard timeline entries"
    );
}
