//! Quickstart: build a LAN index over a small synthetic graph database and
//! answer a k-ANN query.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lan_core::{LanConfig, LanIndex, SearchRequest};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::ModelConfig;
use lan_pg::PgConfig;

fn main() {
    // 1. A graph database. DatasetSpec presets mirror the paper's datasets;
    //    here: a 150-graph SYN-like database with 20 queries.
    let dataset = Dataset::generate(DatasetSpec::syn().with_graphs(150).with_queries(20));
    println!(
        "database: {} graphs (avg |V| = {:.1}, avg |E| = {:.1}), {} queries",
        dataset.graphs.len(),
        dataset.avg_nodes(),
        dataset.avg_edges(),
        dataset.queries.len()
    );

    // 2. Build the index: proximity graph + trained models + compressed
    //    GNN-graphs. All offline.
    let cfg = LanConfig {
        pg: PgConfig::new(5),
        model: ModelConfig {
            embed_dim: 16,
            epochs: 3,
            nh_cover_k: 20,
            clusters: 5,
            ..ModelConfig::default()
        },
        ds: 1.0,
        quant: lan_core::QuantConfig::default(),
    };
    println!("building index (PG construction + model training)...");
    let t0 = std::time::Instant::now();
    let index = LanIndex::build(dataset, cfg);
    println!(
        "index built in {:.1}s — gamma* = {}, M_nh precision = {:.2}",
        t0.elapsed().as_secs_f64(),
        index.report.gamma_star,
        index.report.nh_precision
    );

    // 3. Query: the 10 approximate nearest neighbors of a test query.
    let qi = index.dataset.split.test[0];
    let query = index.dataset.queries[qi].clone();
    let out = index.search(&query, &SearchRequest::new(10, 20)).outcome;
    println!("\nLAN top-10 (distance, graph id): {:?}", out.results);
    println!(
        "NDC = {} (vs {} for a full scan); query time {:.1} ms ({:.0}% GED, {:.0}% GNN)",
        out.ndc,
        index.dataset.graphs.len(),
        out.total_time.as_secs_f64() * 1000.0,
        100.0 * out.distance_time.as_secs_f64() / out.total_time.as_secs_f64(),
        100.0 * out.gnn_time.as_secs_f64() / out.total_time.as_secs_f64(),
    );

    // 4. Check against the exact answer.
    let truth = index.dataset.ground_truth_knn(&query, 10);
    let kth = truth.last().unwrap().0;
    let recall = lan_datasets::recall_at_k_ties(&out.results, kth, 10);
    println!("tie-aware recall@10 = {recall:.2}");
}
