//! Robustness curves for the budget + fault-tolerance layer, written to
//! `results/BENCH_budget.json`:
//!
//! 1. **recall vs NDC budget** — the test workload runs under NDC caps
//!    swept as fractions of the unlimited average NDC. Degradation is
//!    graceful by contract: every query completes (best-so-far results, a
//!    tagged termination, never a panic), and the measured NDC never
//!    exceeds the cap — the cap is strict even summed across shards.
//! 2. **recall vs fault rate** — distance computations fault
//!    deterministically at swept rates (`ged_timeout` spec); the
//!    retry-then-fallback recovery keeps every query answering, and the
//!    `fault.*` counters quantify the recovery work.
//!
//! An ambient `LAN_FAULTS` plan (as set by the CI `fault-smoke` job)
//! applies to the budget sweep, so the two robustness mechanisms are also
//! exercised *together*; the fault sweep then sets its own plans and
//! restores the ambient one afterwards.
//!
//! ```text
//! cargo run --release -p lan-bench --bin budget_curve [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the run to CI size and asserts the robustness
//! invariants (strict caps, degraded counts, fault counters) hard.

use lan_bench::{bench_lan_config, k_for, sized_spec, Scale};
use lan_core::{
    Fanout, InitStrategy, LanConfig, QueryBudget, RouteStrategy, SearchRequest, ShardedLanIndex,
};
use lan_datasets::{Dataset, DatasetSpec};
use lan_graph::Graph;
use lan_models::ModelConfig;
use lan_obs::names;
use lan_pg::faults::{self, FaultPlan};
use lan_pg::PgConfig;

struct BatchStats {
    avg_recall: f64,
    avg_ndc: f64,
    max_ndc: usize,
    degraded: usize,
}

fn run_batch(
    sharded: &ShardedLanIndex,
    queries: &[(usize, Graph)],
    truth_kth: &[f64],
    k: usize,
    b: usize,
    budget: &QueryBudget,
) -> BatchStats {
    let init = InitStrategy::LanIs;
    let route = RouteStrategy::LanRoute { use_cg: true };
    let mut recall_sum = 0.0;
    let mut ndc_sum = 0usize;
    let mut max_ndc = 0usize;
    let mut degraded = 0usize;
    for ((qi, q), &kth) in queries.iter().zip(truth_kth) {
        let req = SearchRequest {
            init,
            route,
            seed: *qi as u64,
            budget: budget.clone(),
            ..SearchRequest::new(k, b)
        };
        let out = sharded.search(q, &req, Fanout::Seq).outcome;
        recall_sum += lan_datasets::recall_at_k_ties(&out.results, kth, k);
        ndc_sum += out.ndc;
        max_ndc = max_ndc.max(out.ndc);
        if out.termination.is_degraded() {
            degraded += 1;
        }
    }
    let n = queries.len().max(1) as f64;
    BatchStats {
        avg_recall: recall_sum / n,
        avg_ndc: ndc_sum as f64 / n,
        max_ndc,
        degraded,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = Scale::from_env();
    // Counters must record for the exported robustness metrics.
    lan_obs::set_enabled(true);
    let (k, num_shards, spec, cfg) = if smoke {
        let spec = DatasetSpec::syn()
            .with_graphs(40)
            .with_queries(10)
            .with_metric(lan_ged::GedMethod::Hungarian);
        let cfg = LanConfig {
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
        };
        (5usize, 2usize, spec, cfg)
    } else {
        (
            k_for(scale),
            4usize,
            sized_spec(DatasetSpec::syn(), scale),
            bench_lan_config(scale),
        )
    };
    let b = 2 * k;

    // The ambient plan (from LAN_FAULTS, e.g. the CI fault-smoke job)
    // stays active for the budget sweep; the fault sweep restores it.
    let ambient = faults::active_plan();
    eprintln!(
        "generating {} graphs / {} queries (ambient faults: {})...",
        spec.num_graphs,
        spec.num_queries,
        ambient.map_or("none".to_string(), |p| format!(
            "timeout {} fail {} seed {}",
            p.timeout_rate, p.fail_rate, p.seed
        )),
    );
    let dataset = Dataset::generate(spec);
    let sharded = ShardedLanIndex::build(&dataset, &cfg, num_shards);

    let queries: Vec<(usize, Graph)> = dataset
        .split
        .test
        .iter()
        .map(|&qi| (qi, dataset.queries[qi].clone()))
        .collect();
    let truth_kth: Vec<f64> = queries
        .iter()
        .map(|(_, q)| {
            dataset
                .ground_truth_knn(q, k)
                .last()
                .map(|&(d, _)| d)
                .unwrap_or(f64::INFINITY)
        })
        .collect();
    eprintln!("running {} queries, k = {k}, b = {b}", queries.len());

    // --- Curve 1: recall vs NDC budget. ---
    let unlimited = run_batch(
        &sharded,
        &queries,
        &truth_kth,
        k,
        b,
        &QueryBudget::unlimited(),
    );
    eprintln!(
        "  unlimited          recall {:.3}  avg NDC {:>7.1}  degraded {}",
        unlimited.avg_recall, unlimited.avg_ndc, unlimited.degraded
    );
    let fractions = [0.1f64, 0.25, 0.5, 0.75, 1.0];
    let mut budget_points = Vec::new();
    for &frac in &fractions {
        let cap = ((unlimited.avg_ndc * frac) as usize).max(1);
        let stats = run_batch(
            &sharded,
            &queries,
            &truth_kth,
            k,
            b,
            &QueryBudget::unlimited().with_max_ndc(cap),
        );
        eprintln!(
            "  cap {cap:>5} ({frac:>4.2}x)  recall {:.3}  avg NDC {:>7.1}  degraded {}",
            stats.avg_recall, stats.avg_ndc, stats.degraded
        );
        assert!(
            stats.max_ndc <= cap,
            "strict-cap violation: per-query NDC {} > cap {cap}",
            stats.max_ndc
        );
        budget_points.push(format!(
            "    {{\"ndc_cap\": {cap}, \"fraction\": {frac}, \"avg_recall\": {:.4}, \"avg_ndc\": {:.2}, \"max_ndc\": {}, \"degraded_queries\": {}}}",
            stats.avg_recall, stats.avg_ndc, stats.max_ndc, stats.degraded
        ));
        if smoke && frac <= 0.25 {
            assert!(
                stats.degraded > 0,
                "a {frac}x NDC cap must degrade some queries"
            );
        }
    }

    // --- Curve 2: recall vs fault rate. ---
    let rates = [0.0f64, 0.02, 0.05, 0.1, 0.2];
    let mut fault_points = Vec::new();
    let mut injected_at_5pct = 0u64;
    for &rate in &rates {
        let plan = FaultPlan {
            timeout_rate: rate,
            fail_rate: 0.0,
            seed: 7,
        };
        faults::set_plan((rate > 0.0).then_some(plan));
        let before = lan_obs::snapshot();
        let stats = run_batch(
            &sharded,
            &queries,
            &truth_kth,
            k,
            b,
            &QueryBudget::unlimited(),
        );
        let delta = lan_obs::snapshot().diff(&before);
        let injected = delta.counter(names::FAULT_INJECTED);
        let retried = delta.counter(names::FAULT_RETRIED);
        let fallback = delta.counter(names::FAULT_FALLBACK);
        if rate == 0.05 {
            injected_at_5pct = injected;
        }
        eprintln!(
            "  fault rate {rate:>4.2}    recall {:.3}  injected {injected:>5}  retried {retried:>5}  fallback {fallback:>4}",
            stats.avg_recall
        );
        fault_points.push(format!(
            "    {{\"fault_rate\": {rate}, \"avg_recall\": {:.4}, \"avg_ndc\": {:.2}, \"fault.injected\": {injected}, \"fault.retried\": {retried}, \"fault.fallback\": {fallback}}}",
            stats.avg_recall, stats.avg_ndc
        ));
    }
    faults::set_plan(ambient);

    if smoke {
        assert!(
            injected_at_5pct > 0,
            "a 5% fault rate must inject faults on this workload"
        );
    }

    // --- Export. ---
    let snap = lan_obs::snapshot();
    let robustness_counters = [
        names::QUERY_DEGRADED,
        names::BUDGET_NDC_EXHAUSTED,
        names::BUDGET_DEADLINE_EXCEEDED,
        names::BUDGET_CANCELLED,
        names::FAULT_INJECTED,
        names::FAULT_RETRIED,
        names::FAULT_FALLBACK,
        names::GED_TIMEOUT_FALLBACK,
    ];
    let counters_json: Vec<String> = robustness_counters
        .iter()
        .map(|&n| format!("    \"{n}\": {}", snap.counter(n)))
        .collect();
    if smoke {
        assert!(
            snap.counter(names::QUERY_DEGRADED) > 0,
            "degraded queries must be counted"
        );
    }

    std::fs::create_dir_all("results").expect("create results/");
    let json = format!(
        "{{\n  \"bench\": \"budget_curve\",\n{}  \"num_shards\": {num_shards},\n  \"queries\": {},\n  \"k\": {k},\n  \"beam\": {b},\n  \"ambient_faults\": \"{}\",\n  \"unlimited\": {{\"avg_recall\": {:.4}, \"avg_ndc\": {:.2}, \"degraded_queries\": {}}},\n  \"recall_vs_ndc_budget\": [\n{}\n  ],\n  \"recall_vs_fault_rate\": [\n{}\n  ],\n  \"counters\": {{\n{}\n  }}\n}}\n",
        lan_bench::host_header_json(),
        queries.len(),
        ambient.map_or("none".to_string(), |p| format!(
            "ged_timeout:{},ged_fail:{},seed={}",
            p.timeout_rate, p.fail_rate, p.seed
        )),
        unlimited.avg_recall,
        unlimited.avg_ndc,
        unlimited.degraded,
        budget_points.join(",\n"),
        fault_points.join(",\n"),
        counters_json.join(",\n"),
    );
    std::fs::write("results/BENCH_budget.json", &json).expect("write results/BENCH_budget.json");
    eprintln!("wrote results/BENCH_budget.json");
    if smoke {
        eprintln!("smoke assertions passed: strict caps, graceful degradation, fault recovery");
    }
}
