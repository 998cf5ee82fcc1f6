//! End-to-end contracts of the quantized prefilter tier:
//!
//! * the quantized-ordered ground-truth scan is result-identical to the
//!   plain lb-ordered scan (same neighbors, distances, tie-breaks — hence
//!   the same final threshold);
//! * a routing prefilter with an effectively-infinite margin never fires
//!   and is bit-identical to the tier being off;
//! * with a tight margin the tier actually engages (surrogate evaluations
//!   observed) and still returns k results.

use lan_core::{InitStrategy, LanConfig, LanIndex, QuantConfig, QuantMode, SearchRequest};
use lan_datasets::{Dataset, DatasetSpec};
use lan_models::ModelConfig;
use lan_pg::PgConfig;

fn tiny_index(quant: QuantConfig) -> LanIndex {
    let ds = Dataset::generate(
        DatasetSpec::syn()
            .with_graphs(40)
            .with_queries(10)
            .with_metric(lan_ged::GedMethod::Hungarian),
    );
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
        quant,
    };
    LanIndex::build(ds, cfg)
}

#[test]
fn quant_ordered_ground_truth_identical_to_plain() {
    for mode in [QuantMode::Binary, QuantMode::Scalar] {
        let index = tiny_index(QuantConfig { mode, margin: 1.5 });
        assert!(index.models.quant.is_some(), "quant store must build");
        for qi in 0..5usize {
            let q = index.dataset.queries[qi].clone();
            for k in [1usize, 4, 9] {
                let plain = index.dataset.ground_truth_knn(&q, k);
                let quant = index.ground_truth(&q, k);
                assert_eq!(quant, plain, "mode={mode:?} q={qi} k={k}");
            }
        }
    }
}

#[test]
fn huge_margin_prefilter_is_bit_identical_to_off() {
    // A margin so large the skip test can never pass: the prefilter is
    // consulted but never fires, so routing must match the off-tier run
    // bit for bit (results, NDC) — the end-to-end analogue of lan-pg's
    // NeverSkip property test.
    let off = tiny_index(QuantConfig {
        mode: QuantMode::Off,
        margin: 1.5,
    });
    let huge = tiny_index(QuantConfig {
        mode: QuantMode::Scalar,
        margin: 1e9,
    });
    let (k, b) = (3usize, 4usize);
    for qi in 0..6usize {
        let q = off.dataset.queries[qi].clone();
        let req = SearchRequest {
            init: InitStrategy::HnswIs,
            ..SearchRequest::new(k, b)
        };
        let a = off.search(&q, &req).outcome;
        let z = huge.search(&q, &req).outcome;
        assert_eq!(a.results, z.results, "q={qi}");
        assert_eq!(a.ndc, z.ndc, "q={qi}");
    }
}

#[test]
fn tight_margin_engages_the_tier() {
    let index = tiny_index(QuantConfig {
        mode: QuantMode::Scalar,
        margin: 1.0,
    });
    let (k, b) = (3usize, 4usize);
    let before = lan_obs::snapshot();
    for qi in 0..6usize {
        let q = index.dataset.queries[qi].clone();
        let req = SearchRequest {
            init: InitStrategy::HnswIs,
            ..SearchRequest::new(k, b)
        };
        let out = index.search(&q, &req).outcome;
        assert_eq!(out.results.len(), k, "q={qi}");
    }
    let delta = lan_obs::snapshot().diff(&before);
    assert!(
        delta.counter(lan_obs::names::QUANT_PREFILTER_EVALS) > 0,
        "prefilter never consulted — tier not wired into routing"
    );
}
