//! Threshold-gated GED kernel cascade vs the ungated metric, written to
//! `results/BENCH_ged.json`.
//!
//! Two production workloads, each run twice over the same dataset — once
//! with the plain oracle (every routing probe is a full GED solve) and
//! once with the cascade oracle (`Dataset::distance_within`, which may
//! answer a probe from the precomputed graph signatures):
//!
//! 1. `routing` — HNSW entry descent + Algorithm 1 beam search per test
//!    query, the paper's query path;
//! 2. `ground_truth` — brute-force k-NN scans (recall ground truth),
//!    where the chunked cascade freezes the running k-th distance as the
//!    pruning threshold.
//!
//! Both sides must return bit-identical results with identical NDC (the
//! cascade is NDC-invisible by construction — a gated answer still counts
//! as a distance computation); the win is measured purely in
//! `ged.full_evals`, the number of full solver runs. The acceptance gate
//! asserts the cascade cuts full evaluations by at least 2x at equal
//! results (hence equal recall).
//!
//! The JSON also carries a `cascade_counters` block — the end-of-run
//! registry totals for the full stacked cascade, cheapest tier first
//! (admissible lower bounds → tau-aborted solves → full solves).
//!
//! ```text
//! cargo run --release -p lan-bench --bin ged_kernels [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the run to CI size; the equivalence assertions and
//! the 2x gate run in both modes.

use lan_datasets::{Dataset, DatasetSpec};
use lan_ged::{GedBound, GedMethod};
use lan_graph::Graph;
use lan_obs::names;
use lan_pg::{
    beam_search, BudgetCtx, DistBound, DistCache, PairCache, PgConfig, ProximityGraph,
    QueryDistance,
};
use std::time::Instant;

/// The cascade oracle: same exact distance as the closure oracle, plus
/// the threshold-gated path (mirrors lan-core's per-query oracle).
struct CascadeOracle<'a> {
    ds: &'a Dataset,
    q: &'a Graph,
}

impl QueryDistance for CascadeOracle<'_> {
    fn distance(&self, id: u32) -> f64 {
        self.ds.distance(self.q, id)
    }

    fn distance_within(&self, id: u32, tau: f64) -> DistBound {
        match self.ds.distance_within(self.q, id, tau) {
            GedBound::Exact(d) => DistBound::Exact(d),
            GedBound::AtLeast(lb) => DistBound::AtLeast(lb),
        }
    }
}

struct Setup {
    ds: Dataset,
    pg: ProximityGraph,
    query_idx: Vec<usize>,
    b: usize,
    k: usize,
}

fn build(smoke: bool) -> Setup {
    let (graphs, queries, used) = if smoke { (160, 16, 12) } else { (400, 40, 30) };
    let spec = DatasetSpec::syn()
        .with_graphs(graphs)
        .with_queries(queries)
        .with_metric(GedMethod::Hungarian);
    eprintln!("generating {graphs} graphs / {queries} queries...");
    let ds = Dataset::generate(spec);
    let pair_fn = |a: u32, b: u32| ds.pair_distance(a, b);
    let pairs = PairCache::new(&pair_fn);
    let pg = ProximityGraph::build(ds.graphs.len(), &pairs, &PgConfig::new(6));
    Setup {
        ds,
        pg,
        query_idx: (0..used).collect(),
        b: 4,
        k: 3,
    }
}

/// Full GED solver runs since `before`, per the engine's own counter.
fn full_evals(before: &lan_obs::Snapshot) -> usize {
    lan_obs::snapshot()
        .diff(before)
        .counter(names::GED_FULL_EVALS) as usize
}

/// Per-query routing outcome: `(entry node, results, NDC)`.
type RouteOutcome = (u32, Vec<(f64, u32)>, usize);

/// One query of the routing workload: entry descent + Algorithm 1.
fn route_one(s: &Setup, oracle: &dyn QueryDistance) -> RouteOutcome {
    let cache = DistCache::new(oracle);
    let entry = s.pg.hnsw_entry(&cache, &BudgetCtx::unlimited());
    let rr = beam_search(
        s.pg.base(),
        &cache,
        &[entry],
        s.b,
        s.k,
        &BudgetCtx::unlimited(),
    );
    (entry, rr.results, rr.ndc)
}

/// Runs the routing workload over every query; `gated` selects the
/// cascade oracle vs the plain closure oracle (the seed path). Returns
/// `(per-query outcomes, full evals, wall time us)`.
fn run_routing(s: &Setup, gated: bool) -> (Vec<RouteOutcome>, usize, f64) {
    let before = lan_obs::snapshot();
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(s.query_idx.len());
    for &qi in &s.query_idx {
        let q = &s.ds.queries[qi];
        out.push(if gated {
            route_one(s, &CascadeOracle { ds: &s.ds, q })
        } else {
            // The closure oracle cannot produce bounds: the seed path.
            route_one(s, &|id: u32| s.ds.distance(q, id))
        });
    }
    let us = t0.elapsed().as_secs_f64() * 1e6;
    (out, full_evals(&before), us)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    lan_obs::set_enabled(true);
    let s = build(smoke);

    // --- 1. Routing: plain oracle vs cascade oracle. ---
    let (seed_out, routing_seed_full, routing_seed_us) = run_routing(&s, false);
    let (casc_out, routing_casc_full, routing_casc_us) = run_routing(&s, true);
    assert_eq!(
        seed_out, casc_out,
        "cascade routing diverged from the plain oracle (results / entry / NDC)"
    );
    let routing_ratio = routing_seed_full as f64 / routing_casc_full.max(1) as f64;
    eprintln!(
        "routing        seed {routing_seed_full:>6} full evals ({routing_seed_us:>9.0}us)  \
         cascade {routing_casc_full:>6} ({routing_casc_us:>9.0}us)  reduction {routing_ratio:.2}x"
    );

    // --- 2. Ground-truth k-NN: the lb-ordered cascade scan vs full scan
    //        (same k as the routing workload: recall@k's denominator). ---
    let gt_k = s.k;
    let before = lan_obs::snapshot();
    let t0 = Instant::now();
    let full_scan: Vec<Vec<(f64, u32)>> = s
        .query_idx
        .iter()
        .map(|&qi| {
            let q = &s.ds.queries[qi];
            let mut all: Vec<(f64, u32)> = (0..s.ds.graphs.len() as u32)
                .map(|i| (s.ds.distance(q, i), i))
                .collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            all.truncate(gt_k);
            all
        })
        .collect();
    let gt_seed_us = t0.elapsed().as_secs_f64() * 1e6;
    let gt_seed_full = full_evals(&before);

    let before = lan_obs::snapshot();
    let t0 = Instant::now();
    let cascade_scan: Vec<Vec<(f64, u32)>> = s
        .query_idx
        .iter()
        .map(|&qi| s.ds.ground_truth_knn(&s.ds.queries[qi], gt_k))
        .collect();
    let gt_casc_us = t0.elapsed().as_secs_f64() * 1e6;
    let gt_casc_full = full_evals(&before);
    assert_eq!(
        full_scan, cascade_scan,
        "cascade ground truth diverged from the full scan"
    );
    let gt_ratio = gt_seed_full as f64 / gt_casc_full.max(1) as f64;
    eprintln!(
        "ground_truth   seed {gt_seed_full:>6} full evals ({gt_seed_us:>9.0}us)  \
         cascade {gt_casc_full:>6} ({gt_casc_us:>9.0}us)  reduction {gt_ratio:.2}x"
    );

    let overall_ratio = (routing_seed_full + gt_seed_full) as f64
        / (routing_casc_full + gt_casc_full).max(1) as f64;
    // The full stacked cascade, cheapest tier first, as end-of-run
    // registry totals.
    let lb_prunes = lan_obs::counter(names::GED_LB_PRUNE).get();
    let early_aborts = lan_obs::counter(names::GED_EARLY_ABORT).get();
    let full_total = lan_obs::counter(names::GED_FULL_EVALS).get();
    eprintln!(
        "overall reduction {overall_ratio:.2}x  (ged.lb_prune {lb_prunes}, \
         ged.early_abort {early_aborts}, ged.full_evals {full_total})"
    );

    // The acceptance gate: at bit-identical results (asserted above, so
    // recall is equal by construction), the cascade must at least halve
    // the number of full GED solver runs, overall and on the
    // filter-verify scan where the signatures carry the load. Routing
    // only ever probes proximity-graph neighbors — graphs that are close
    // by construction, where a lower bound rarely clears the pool gate —
    // so its reduction is structurally modest; it is still asserted to
    // never cost an extra solve.
    assert!(
        gt_ratio >= 2.0,
        "ground-truth full-eval reduction {gt_ratio:.2}x below the 2x acceptance floor"
    );
    assert!(
        overall_ratio >= 2.0,
        "overall full-eval reduction {overall_ratio:.2}x below the 2x acceptance floor"
    );
    assert!(
        routing_casc_full <= routing_seed_full,
        "cascade routing paid extra full evals: {routing_casc_full} > {routing_seed_full}"
    );

    std::fs::create_dir_all("results").expect("create results/");
    let json = format!(
        "{{\n  \"bench\": \"ged_kernels\",\n{}  \"smoke\": {smoke},\n  \"graphs\": {},\n  \"queries\": {},\n  \"b\": {},\n  \"k\": {},\n  \"equivalence\": \"ok\",\n  \"routing\": {{\"seed_full_evals\": {routing_seed_full}, \"cascade_full_evals\": {routing_casc_full}, \"reduction\": {routing_ratio:.3}, \"seed_us\": {routing_seed_us:.0}, \"cascade_us\": {routing_casc_us:.0}}},\n  \"ground_truth\": {{\"k\": {gt_k}, \"seed_full_evals\": {gt_seed_full}, \"cascade_full_evals\": {gt_casc_full}, \"reduction\": {gt_ratio:.3}, \"seed_us\": {gt_seed_us:.0}, \"cascade_us\": {gt_casc_us:.0}}},\n  \"reduction\": {overall_ratio:.3},\n  \"ged_lb_prune\": {lb_prunes},\n  \"ged_early_abort\": {early_aborts},\n  \"cascade_counters\": {{\"ged.lb_prune\": {lb_prunes}, \"ged.early_abort\": {early_aborts}, \"ged.full_evals\": {full_total}}}\n}}\n",
        lan_bench::host_header_json(),
        s.ds.graphs.len(),
        s.query_idx.len(),
        s.b,
        s.k,
    );
    std::fs::write("results/BENCH_ged.json", &json).expect("write results/BENCH_ged.json");
    eprintln!("wrote results/BENCH_ged.json");
}
