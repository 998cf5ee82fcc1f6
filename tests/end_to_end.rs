//! Cross-crate integration: the full LAN pipeline through the public API of
//! the umbrella crate.

use lan_suite::core::{InitStrategy, L2RouteIndex, LanConfig, LanIndex, SearchRequest};
use lan_suite::datasets::{Dataset, DatasetSpec};
use lan_suite::ged::GedMethod;
use lan_suite::models::ModelConfig;
use lan_suite::pg::PgConfig;

fn build() -> LanIndex {
    let dataset = Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(70)
            .with_queries(15)
            .with_metric(GedMethod::Hungarian),
    );
    LanIndex::build(
        dataset,
        LanConfig {
            pg: PgConfig::new(4),
            model: ModelConfig {
                embed_dim: 8,
                epochs: 2,
                max_samples_per_epoch: 150,
                nh_cover_k: 10,
                clusters: 3,
                top_clusters: 2,
                mlp_hidden: 8,
                ..ModelConfig::default()
            },
            ds: 1.0,
            quant: lan_core::QuantConfig::default(),
        },
    )
}

#[test]
fn full_pipeline_produces_quality_results() {
    let index = build();
    let mut recall_sum = 0.0;
    let k = 5;
    let qs = &index.dataset.split.test;
    for &qi in qs {
        let q = index.dataset.queries[qi].clone();
        let out = index.search(&q, &SearchRequest::new(k, 12)).outcome;
        assert_eq!(out.results.len(), k);
        let truth = index.dataset.ground_truth_knn(&q, k);
        let kth = truth.last().unwrap().0;
        recall_sum += lan_suite::datasets::recall_at_k_ties(&out.results, kth, k);
        // NDC must beat a full scan.
        assert!(out.ndc < index.dataset.graphs.len());
    }
    let recall = recall_sum / qs.len() as f64;
    assert!(recall >= 0.6, "end-to-end recall too low: {recall}");
}

#[test]
fn queries_from_outside_the_workload_work() {
    // A caller's own graph (not from the generated workload).
    let index = build();
    let g = lan_suite::graph::Graph::from_edges(
        vec![0, 1, 2, 0, 1],
        &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
    )
    .unwrap();
    let out = index.search(&g, &SearchRequest::new(3, 8)).outcome;
    assert_eq!(out.results.len(), 3);
    assert!(out.results[0].0 >= 0.0);
}

#[test]
fn l2route_and_strategies_compose() {
    let index = build();
    let l2 = L2RouteIndex::build(&index, 4);
    let q = index.dataset.queries[0].clone();
    let (res, ndc, _, _) = l2.search(&index, &q, 3, 12);
    assert_eq!(res.len(), 3);
    assert_eq!(ndc, 12);

    for init in [
        InitStrategy::LanIs,
        InitStrategy::HnswIs,
        InitStrategy::RandIs,
    ] {
        let req = SearchRequest {
            init,
            seed: 1,
            ..SearchRequest::new(3, 8)
        };
        let out = index.search(&q, &req).outcome;
        assert_eq!(out.results.len(), 3);
    }
}

#[test]
fn deterministic_given_seed() {
    let i1 = build();
    let i2 = build();
    let q = i1.dataset.queries[2].clone();
    let req = SearchRequest {
        seed: 9,
        ..SearchRequest::new(4, 10)
    };
    let a = i1.search(&q, &req).outcome;
    let b = i2.search(&q, &req).outcome;
    assert_eq!(a.results, b.results);
    assert_eq!(a.ndc, b.ndc);
}
