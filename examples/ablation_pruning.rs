//! Ablation: how much of LAN's win comes from each component?
//!
//! Compares, on one dataset and one beam size:
//!   1. full LAN (learned init + learned pruning + CG),
//!   2. learned pruning without CG,
//!   3. learned init with exhaustive routing,
//!   4. plain HNSW (no learning),
//!   5. np_route with the *oracle* ranker (the Theorem 1 upper bound on
//!      what learned pruning could ever achieve).
//!
//! ```text
//! cargo run --release --example ablation_pruning
//! ```

use lan_core::{harness, InitStrategy, LanConfig, LanIndex, RouteStrategy};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::ModelConfig;
use lan_pg::np_route::{np_route, OracleRanker};
use lan_pg::{BudgetCtx, DistCache, PgConfig};

fn main() {
    let dataset = Dataset::generate(DatasetSpec::aids().with_graphs(200).with_queries(30));
    let cfg = LanConfig {
        pg: PgConfig::new(6),
        model: ModelConfig {
            embed_dim: 16,
            epochs: 3,
            nh_cover_k: 30,
            clusters: 6,
            ..ModelConfig::default()
        },
        ds: 1.0,
        quant: lan_core::QuantConfig::default(),
    };
    println!("building index...");
    let index = LanIndex::build(dataset, cfg);
    let test_q = index.dataset.split.test.clone();
    let k = 10;
    let b = 20;
    let truths = harness::ground_truths(&index, &test_q, k);

    println!(
        "\nAblation on {} ({} test queries, k = {k}, b = {b}):",
        index.dataset.spec.name,
        test_q.len()
    );
    println!(
        "{:<34} {:>8} {:>9} {:>8}",
        "variant", "recall", "avg NDC", "QPS"
    );
    for (label, init, route) in [
        (
            "LAN (full)",
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: true },
        ),
        (
            "LAN w/o CG",
            InitStrategy::LanIs,
            RouteStrategy::LanRoute { use_cg: false },
        ),
        (
            "LAN_IS + exhaustive routing",
            InitStrategy::LanIs,
            RouteStrategy::HnswRoute,
        ),
        (
            "HNSW (no learning)",
            InitStrategy::HnswIs,
            RouteStrategy::HnswRoute,
        ),
    ] {
        let (p, _) = harness::run_point(&index, &test_q, &truths, k, b, init, route);
        println!(
            "{label:<34} {:>8.3} {:>9.1} {:>8.2}",
            p.recall, p.avg_ndc, p.qps
        );
    }

    // Oracle pruning: the idealized Theorem 1 router.
    let mut recall_sum = 0.0;
    let mut ndc_sum = 0usize;
    let t0 = std::time::Instant::now();
    for (i, &qi) in test_q.iter().enumerate() {
        let q = index.dataset.queries[qi].clone();
        let qd = |id: u32| index.dataset.distance(&q, id);
        let cache = DistCache::new(&qd);
        let entry = index.pg.hnsw_entry(&cache, &BudgetCtx::unlimited());
        let oracle = OracleRanker::new(&qd, index.cfg.model.batch_pct);
        let r = np_route(
            index.pg.base(),
            &cache,
            &oracle,
            &[entry],
            b,
            k,
            1.0,
            &BudgetCtx::unlimited(),
        );
        recall_sum += lan_datasets::recall_at_k_ties(&r.results, truths[i], k);
        ndc_sum += r.ndc;
    }
    let n = test_q.len() as f64;
    println!(
        "{:<34} {:>8.3} {:>9.1} {:>8.2}   <- idealized bound",
        "oracle pruning (Theorem 1)",
        recall_sum / n,
        ndc_sum as f64 / n,
        n / t0.elapsed().as_secs_f64()
    );
}
