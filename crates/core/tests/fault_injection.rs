//! End-to-end fault-injection contract: with a fault plan active, every
//! query still completes (no panic, no error), the injected faults are
//! deterministic (two identical runs return identical results), and the
//! recovery policy is visible in the `fault.*` counters.
//!
//! This lives in its own test binary: the fault plan is process-global, so
//! activating it here must not interleave with the budget-equivalence
//! assertions of `budget_properties.rs` (separate binary = separate
//! process). Within this binary, every test serializes on the shared env
//! lock.

use lan_core::{LanConfig, LanIndex, SearchRequest};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::ModelConfig;
use lan_obs::names;
use lan_pg::faults::{set_plan, FaultPlan};
use lan_pg::PgConfig;
use std::sync::OnceLock;

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

fn fixture() -> &'static LanIndex {
    static FIXTURE: OnceLock<LanIndex> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = Dataset::generate(
            DatasetSpec::syn()
                .with_graphs(48)
                .with_queries(10)
                .with_metric(lan_ged::GedMethod::Hungarian),
        );
        LanIndex::build(ds, tiny_cfg())
    })
}

/// Runs every test query at the given plan and returns the result lists.
fn run_all(index: &LanIndex, plan: Option<FaultPlan>) -> Vec<Vec<(f64, u32)>> {
    set_plan(plan);
    let out = index
        .dataset
        .split
        .test
        .iter()
        .map(|&qi| {
            let q = &index.dataset.queries[qi];
            let req = SearchRequest {
                seed: qi as u64,
                ..SearchRequest::new(5, 8)
            };
            let out = index.search(q, &req).outcome;
            assert!(
                out.results.iter().all(|&(d, _)| d.is_finite() && d >= 0.0),
                "faulted query {qi} produced a non-finite distance"
            );
            out.results
        })
        .collect();
    set_plan(None);
    out
}

#[test]
fn faulted_queries_complete_and_are_deterministic() {
    let _l = lan_par::testenv::lock();
    let index = fixture();

    let clean = run_all(index, None);
    // 5% timeouts + 1% failures: every query completes; two identical
    // runs inject identical faults and return identical results.
    let plan = FaultPlan::parse("ged_timeout:0.05,ged_fail:0.01,seed=42").unwrap();
    let once = run_all(index, Some(plan));
    let twice = run_all(index, Some(plan));
    assert_eq!(once, twice, "fault injection is not deterministic");
    assert_eq!(clean.len(), once.len());

    // A zero-rate plan is indistinguishable from no plan.
    let zero = run_all(index, Some(FaultPlan::none()));
    assert_eq!(clean, zero);
}

#[test]
fn fault_counters_track_the_recovery_policy() {
    let _l = lan_par::testenv::lock();
    let index = fixture();
    lan_obs::set_enabled(true);

    let before = lan_obs::snapshot();
    // Rate 0.5: plenty of faults; some retries also fault → fallbacks.
    let _ = run_all(
        index,
        Some(FaultPlan::parse("ged_timeout:0.5,seed=7").unwrap()),
    );
    let delta = lan_obs::snapshot().diff(&before);

    let injected = delta.counter(names::FAULT_INJECTED);
    let retried = delta.counter(names::FAULT_RETRIED);
    let fallback = delta.counter(names::FAULT_FALLBACK);
    assert!(injected > 0, "no faults injected at rate 0.5");
    assert!(retried > 0, "faults must be retried first");
    assert_eq!(
        injected,
        retried + fallback,
        "every injected fault is either the first attempt (retried) or the second (fallback)"
    );
}
