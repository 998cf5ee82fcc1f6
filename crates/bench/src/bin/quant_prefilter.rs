//! Quantized-embedding prefilter tier above the GED cascade, written to
//! `results/BENCH_quant.json`.
//!
//! Two workloads, each over an index whose code books (binary sign codes
//! and scalar u8 codes over the GIN embeddings) are built once at index
//! time:
//!
//! 1. `ground_truth` — the admissible filter-verify scan
//!    (`Dataset::ground_truth_knn`) with candidates visited in calibrated
//!    quantized order, on a small exact-GED workload, against a frozen
//!    replica of the scan exactly as PR-5 shipped it. Results must be
//!    bit-identical (the skip decisions come only from the admissible
//!    cascade, never the visit order); the acceptance gate asserts the
//!    quantized-ordered scan cuts `ged.full_evals` a further ≥ 1.3x over
//!    the PR-5 scan. The bench also reports the current *plain* scan so
//!    the saving is attributable: investigating this tier established
//!    that visit order alone moves essentially nothing here — under a
//!    non-aborting metric (Hungarian, BestOfThree) the ascending-lb order
//!    is provably optimal over visit orders (every candidate whose
//!    signature bound clears the final threshold must be solved in any
//!    order, and the lb order solves nothing else), and under the
//!    tau-aborting exact solver even the oracle ascending-true-distance
//!    order measures at cost parity, because the threshold converges
//!    during the mandatory ungated warm-up chunks. The savings instead
//!    come from the threshold-boundary refinement that same investigation
//!    produced: `lb == t` candidates are re-resolved with a nudged
//!    threshold (`ged_within` at `t + 1`) instead of an unbounded solve,
//!    so boundary aborts stay aborts instead of paying a full A\* run.
//!
//! 2. `routing` — the full LAN query path with the non-admissible
//!    quantized prefilter consulted ahead of `distance_within`, swept over
//!    `margin` for both modes. Each sweep point records tie-aware recall,
//!    total NDC, and the `quant.prefilter.*` counters; the acceptance gate
//!    asserts some sweep point holds recall ≥ 0.98 at strictly lower NDC
//!    than the tier-off baseline, and that the shipped default
//!    (`scalar:1.5`) stays at recall ≥ 0.98.
//!
//! The SIMD kernel path actually taken (`popcnt`/AVX2 vs scalar fallback)
//! is recorded alongside the `quant.kernel.*` call counters.
//!
//! ```text
//! cargo run --release -p lan-bench --bin quant_prefilter [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the run to CI size; every equivalence assertion and
//! acceptance gate runs in both modes. This binary intentionally does not
//! write `BENCH_obs.json` (that artifact belongs to the `throughput` run
//! checked by `obs_check`).

use lan_core::{LanConfig, LanIndex, QuantConfig, QuantMode, SearchRequest};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::ModelConfig;
use lan_obs::names;
use lan_pg::PgConfig;
use std::time::Instant;

/// Full GED solver runs since `before`, per the engine's own counter.
fn full_evals(before: &lan_obs::Snapshot) -> usize {
    lan_obs::snapshot()
        .diff(before)
        .counter(names::GED_FULL_EVALS) as usize
}

/// The ground-truth scan exactly as PR-5 shipped it — the baseline the
/// acceptance gate measures against. Ascending-lb visit order, chunks of
/// 8 with a frozen threshold, and a full *unbounded* re-solve of every
/// boundary (`lb == t`) candidate — the behavior the current scan's
/// nudged-threshold boundary refinement replaces. Kept as a frozen
/// replica so the comparison survives future changes to the library scan;
/// the bench asserts its results are identical to both current paths.
fn pr5_scan(ds: &Dataset, q: &lan_graph::Graph, k: usize) -> Vec<(f64, u32)> {
    const CHUNK: usize = 8;
    let n = ds.graphs.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    let keys: Vec<f64> = ds
        .graphs
        .iter()
        .map(|g| {
            lan_ged::lower_bounds::label_size_lb(q, g)
                .max(lan_ged::lower_bounds::label_degree_lb(q, g))
        })
        .collect();
    order.sort_by(|&a, &b| {
        keys[a as usize]
            .total_cmp(&keys[b as usize])
            .then(a.cmp(&b))
    });
    let mut best: Vec<(f64, u32)> = Vec::with_capacity(k + CHUNK);
    for chunk_ids in order.chunks(CHUNK) {
        let t = if best.len() >= k {
            best[k - 1].0
        } else {
            f64::INFINITY
        };
        for &i in chunk_ids {
            if t.is_finite() {
                match ds.distance_within(q, i, t) {
                    lan_ged::GedBound::Exact(d) => best.push((d, i)),
                    lan_ged::GedBound::AtLeast(lb) if lb > t => {}
                    lan_ged::GedBound::AtLeast(_) => best.push((ds.distance(q, i), i)),
                }
            } else {
                best.push((ds.distance(q, i), i));
            }
        }
        best.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        best.truncate(k);
    }
    best
}

fn mode_name(mode: QuantMode) -> &'static str {
    match mode {
        QuantMode::Off => "off",
        QuantMode::Binary => "binary",
        QuantMode::Scalar => "scalar",
    }
}

/// One margin-sweep point of the routing workload.
struct SweepPoint {
    mode: QuantMode,
    margin: f64,
    recall: f64,
    total_ndc: usize,
    prefilter_evals: u64,
    prefilter_pruned: u64,
    wall_us: f64,
}

/// Runs the routing workload at the index's current quant config.
fn run_routing(
    index: &LanIndex,
    query_idx: &[usize],
    truth_kth: &[f64],
    k: usize,
    b: usize,
) -> SweepPoint {
    let before = lan_obs::snapshot();
    let t0 = Instant::now();
    let mut total_ndc = 0usize;
    let mut recall_sum = 0.0f64;
    for (&qi, &kth) in query_idx.iter().zip(truth_kth) {
        let req = SearchRequest {
            seed: qi as u64,
            ..SearchRequest::new(k, b)
        };
        let out = index.search(&index.dataset.queries[qi], &req).outcome;
        total_ndc += out.ndc;
        recall_sum += lan_datasets::recall_at_k_ties(&out.results, kth, k);
    }
    let wall_us = t0.elapsed().as_secs_f64() * 1e6;
    let delta = lan_obs::snapshot().diff(&before);
    SweepPoint {
        mode: index.cfg.quant.mode,
        margin: index.cfg.quant.margin,
        recall: recall_sum / query_idx.len() as f64,
        total_ndc,
        prefilter_evals: delta.counter(names::QUANT_PREFILTER_EVALS),
        prefilter_pruned: delta.counter(names::QUANT_PREFILTER_PRUNED),
        wall_us,
    }
}

/// Builds a bench index: PG + models + quantized code books, tier off
/// (each workload sets its own programmatic QuantConfig — no `LAN_QUANT`
/// races).
fn build_index(spec: DatasetSpec) -> LanIndex {
    let cfg = LanConfig {
        pg: PgConfig::new(6),
        model: ModelConfig {
            embed_dim: 32,
            epochs: 3,
            max_samples_per_epoch: 400,
            nh_cover_k: 16,
            clusters: 4,
            top_clusters: 2,
            mlp_hidden: 16,
            ..ModelConfig::default()
        },
        ds: 1.0,
        quant: QuantConfig {
            mode: QuantMode::Off,
            margin: 1.5,
        },
    };
    eprintln!(
        "generating {} graphs / {} queries ({:?})...",
        spec.num_graphs, spec.num_queries, spec.metric
    );
    let ds = Dataset::generate(spec);
    eprintln!("building index (PG + models + quantized code books)...");
    let t0 = Instant::now();
    let index = LanIndex::build(ds, cfg);
    eprintln!("index ready in {:.1}s", t0.elapsed().as_secs_f64());
    assert!(
        index.models.quant.is_some(),
        "quantized code books must build at index time"
    );
    index
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    lan_obs::set_enabled(true);

    // --- 1. Ground truth: PR-5 scan vs current scans. ---
    // A small workload scanned under *exact* GED (the tau-aborting
    // solver, where the boundary refinement converts unbounded re-solves
    // into cheap aborts; see the module docs for the attribution).
    // `avg_nodes = 7` keeps every ungated exact solve far below the
    // timeout, so the scans stay deterministic.
    //
    // The index itself (embeddings, code books, calibration) is built
    // under the cheap Hungarian metric — the code books only order the
    // visit sequence, and Hungarian GED is a tight upper bound on exact
    // GED — and the scans run on a metric-flipped clone of the dataset.
    let (gt_graphs, gt_queries, gt_used) = if smoke { (120, 12, 10) } else { (240, 24, 16) };
    let mut gt_spec = DatasetSpec::syn()
        .with_graphs(gt_graphs)
        .with_queries(gt_queries)
        .with_metric(lan_ged::GedMethod::Hungarian);
    gt_spec.avg_nodes = 7;
    let mut gt_index = build_index(gt_spec);
    let mut ds_exact = gt_index.dataset.clone();
    ds_exact.spec.metric = lan_ged::GedMethod::Exact { timeout_ms: 5_000 };
    let gt_idx: Vec<usize> = (0..gt_used).collect();
    let gt_k = 10usize;

    let before = lan_obs::snapshot();
    let t0 = Instant::now();
    let pr5: Vec<Vec<(f64, u32)>> = gt_idx
        .iter()
        .map(|&qi| pr5_scan(&ds_exact, &ds_exact.queries[qi], gt_k))
        .collect();
    let gt_pr5_us = t0.elapsed().as_secs_f64() * 1e6;
    let gt_pr5_full = full_evals(&before);

    let before = lan_obs::snapshot();
    let t0 = Instant::now();
    let plain: Vec<Vec<(f64, u32)>> = gt_idx
        .iter()
        .map(|&qi| ds_exact.ground_truth_knn(&ds_exact.queries[qi], gt_k))
        .collect();
    let gt_plain_us = t0.elapsed().as_secs_f64() * 1e6;
    let gt_plain_full = full_evals(&before);
    assert_eq!(pr5, plain, "current plain scan diverged from the PR-5 scan");
    let plain_ratio = gt_pr5_full as f64 / gt_plain_full.max(1) as f64;
    eprintln!(
        "ground_truth   pr5 {gt_pr5_full:>6} full evals ({gt_pr5_us:>9.0}us)  \
         plain  {gt_plain_full:>6} ({gt_plain_us:>9.0}us)  reduction {plain_ratio:.2}x"
    );

    let mut gt_mode_json = Vec::new();
    let mut gt_best_ratio = 0.0f64;
    for mode in [QuantMode::Binary, QuantMode::Scalar] {
        gt_index.cfg.quant = QuantConfig { mode, margin: 1.5 };
        let before = lan_obs::snapshot();
        let t0 = Instant::now();
        let ordered: Vec<Vec<(f64, u32)>> = gt_idx
            .iter()
            .map(|&qi| {
                let q = &ds_exact.queries[qi];
                let keys = gt_index.quant_keys(q).expect("quantized keys must exist");
                ds_exact.ground_truth_knn_ordered(q, gt_k, Some(&keys))
            })
            .collect();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let full = full_evals(&before);
        assert_eq!(
            pr5, ordered,
            "{:?}-ordered ground truth diverged from the PR-5 scan",
            mode
        );
        let ratio = gt_pr5_full as f64 / full.max(1) as f64;
        gt_best_ratio = gt_best_ratio.max(ratio);
        eprintln!(
            "ground_truth   pr5 {gt_pr5_full:>6} full evals ({gt_pr5_us:>9.0}us)  \
             {:<6} {full:>6} ({us:>9.0}us)  further reduction {ratio:.2}x",
            mode_name(mode)
        );
        gt_mode_json.push(format!(
            "\"{}\": {{\"full_evals\": {full}, \"further_reduction\": {ratio:.3}, \"us\": {us:.0}}}",
            mode_name(mode)
        ));
    }

    // --- 2. Routing: tier-off baseline vs margin sweep per mode, on the
    //        production-shaped Hungarian workload. ---
    let (graphs, queries, used) = if smoke { (160, 16, 12) } else { (400, 40, 30) };
    let mut index = build_index(
        DatasetSpec::syn()
            .with_graphs(graphs)
            .with_queries(queries)
            .with_metric(lan_ged::GedMethod::Hungarian),
    );
    let query_idx: Vec<usize> = (0..used).collect();
    let (k, b) = (5usize, 20usize);
    let truth_kth: Vec<f64> = query_idx
        .iter()
        .map(|&qi| {
            index
                .dataset
                .ground_truth_knn(&index.dataset.queries[qi], k)
                .last()
                .map(|&(d, _)| d)
                .unwrap_or(f64::INFINITY)
        })
        .collect();
    index.cfg.quant = QuantConfig {
        mode: QuantMode::Off,
        margin: 1.5,
    };
    let baseline = run_routing(&index, &query_idx, &truth_kth, k, b);
    eprintln!(
        "routing        off             recall {:.3}  total NDC {:>6}",
        baseline.recall, baseline.total_ndc
    );

    let mut points = Vec::new();
    for mode in [QuantMode::Binary, QuantMode::Scalar] {
        for margin in [1.0f64, 1.05, 1.1, 1.15, 1.25, 1.5, 2.0] {
            index.cfg.quant = QuantConfig { mode, margin };
            let p = run_routing(&index, &query_idx, &truth_kth, k, b);
            eprintln!(
                "routing        {:<6} m={margin:<4} recall {:.3}  total NDC {:>6}  \
                 prefilter {:>5} evals / {:>5} pruned",
                mode_name(mode),
                p.recall,
                p.total_ndc,
                p.prefilter_evals,
                p.prefilter_pruned
            );
            points.push(p);
        }
    }

    // --- Acceptance gates. ---
    assert!(
        gt_best_ratio >= 1.3,
        "quantized-ordered scan cut full evals only {gt_best_ratio:.2}x \
         (acceptance floor: a further 1.3x over the PR-5 scan)"
    );
    let op = points
        .iter()
        .filter(|p| p.recall >= 0.98 && p.total_ndc < baseline.total_ndc)
        .min_by_key(|p| p.total_ndc)
        .expect("no sweep point held recall >= 0.98 at lower NDC than the tier-off baseline");
    eprintln!(
        "operating point: {} m={} recall {:.3} NDC {} (baseline {})",
        mode_name(op.mode),
        op.margin,
        op.recall,
        op.total_ndc,
        baseline.total_ndc
    );
    let default_pt = points
        .iter()
        .find(|p| p.mode == QuantMode::Scalar && p.margin == 1.5)
        .expect("default operating point missing from the sweep");
    assert!(
        default_pt.recall >= 0.98,
        "shipped default (scalar:1.5) recall {:.3} below 0.98",
        default_pt.recall
    );

    let kernel_simd = lan_obs::counter(names::QUANT_KERNEL_SIMD).get();
    let kernel_scalar = lan_obs::counter(names::QUANT_KERNEL_SCALAR).get();
    let kernel_path = match lan_tensor::kernel_path() {
        lan_tensor::KernelPath::Simd => "simd",
        lan_tensor::KernelPath::Scalar => "scalar",
    };
    eprintln!(
        "kernel path {kernel_path} (quant.kernel.simd {kernel_simd}, quant.kernel.scalar {kernel_scalar})"
    );

    std::fs::create_dir_all("results").expect("create results/");
    let curves: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"mode\": \"{}\", \"margin\": {}, \"recall\": {:.4}, \"total_ndc\": {}, \
                 \"prefilter_evals\": {}, \"prefilter_pruned\": {}, \"us\": {:.0}}}",
                mode_name(p.mode),
                p.margin,
                p.recall,
                p.total_ndc,
                p.prefilter_evals,
                p.prefilter_pruned,
                p.wall_us
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"quant_prefilter\",\n{}  \"smoke\": {smoke},\n  \"equivalence\": \"ok\",\n  \"kernel_path\": \"{kernel_path}\",\n  \"kernel_calls\": {{\"simd\": {kernel_simd}, \"scalar\": {kernel_scalar}}},\n  \"ground_truth\": {{\"graphs\": {}, \"queries\": {}, \"k\": {gt_k}, \"pr5_full_evals\": {gt_pr5_full}, \"plain_full_evals\": {gt_plain_full}, \"plain_reduction\": {plain_ratio:.3}, {}, \"best_further_reduction\": {gt_best_ratio:.3}}},\n  \"routing\": {{\n    \"graphs\": {}, \"queries\": {}, \"k\": {k}, \"b\": {b},\n    \"baseline\": {{\"recall\": {:.4}, \"total_ndc\": {}}},\n    \"operating_point\": {{\"mode\": \"{}\", \"margin\": {}, \"recall\": {:.4}, \"total_ndc\": {}}},\n    \"curves\": [\n{}\n    ]\n  }}\n}}\n",
        lan_bench::host_header_json(),
        gt_index.dataset.graphs.len(),
        gt_idx.len(),
        gt_mode_json.join(", "),
        index.dataset.graphs.len(),
        query_idx.len(),
        baseline.recall,
        baseline.total_ndc,
        mode_name(op.mode),
        op.margin,
        op.recall,
        op.total_ndc,
        curves.join(",\n"),
    );
    std::fs::write("results/BENCH_quant.json", &json).expect("write results/BENCH_quant.json");
    eprintln!("wrote results/BENCH_quant.json");
}
