//! Molecule similarity search — the cheminformatics scenario from the
//! paper's introduction: find the compounds most structurally similar to a
//! query molecule (similar structure ⇒ similar function).
//!
//! Builds an AIDS-like compound database, searches with LAN, and compares
//! the work against both the exhaustive-routing baseline and a full
//! database scan.
//!
//! ```text
//! cargo run --release --example chem_search
//! ```

use lan_core::{InitStrategy, LanConfig, LanIndex, RouteStrategy, SearchRequest};
use lan_datasets::{Dataset, DatasetSpec};
use lan_graph::{perturb::perturb, Graph};
use lan_models::ModelConfig;
use lan_pg::PgConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // An AIDS-like compound database: 51 atom types, ~25 atoms per
    // molecule, valence-capped chain/ring structures.
    let dataset = Dataset::generate(DatasetSpec::aids().with_graphs(200).with_queries(20));
    println!(
        "compound database: {} molecules, avg {:.1} atoms / {:.1} bonds",
        dataset.graphs.len(),
        dataset.avg_nodes(),
        dataset.avg_edges()
    );

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
    println!("indexing (this cost is offline and amortized over all queries)...");
    let index = LanIndex::build(dataset, cfg);

    // The "chemist's query": a lightly modified variant of a known compound
    // — e.g. a candidate molecule differing by a few atoms/bonds.
    let mut rng = StdRng::seed_from_u64(7);
    let base: &Graph = &index.dataset.graphs[42];
    let (candidate, edits) = perturb(&mut rng, base, 3, index.dataset.spec.num_labels);
    println!(
        "\nquery molecule: {} atoms, {} bonds ({} edits away from compound #42)",
        candidate.node_count(),
        candidate.edge_count(),
        edits
    );

    let k = 5;
    let out = index.search(&candidate, &SearchRequest::new(k, 16)).outcome;
    println!("\nLAN: {k} most similar compounds (GED, id):");
    for &(d, id) in &out.results {
        let g = &index.dataset.graphs[id as usize];
        println!(
            "  compound #{id:<4} GED = {d:<4} ({} atoms, {} bonds)",
            g.node_count(),
            g.edge_count()
        );
    }
    println!(
        "\ncost: {} GED computations vs {} for a linear scan ({}x fewer)",
        out.ndc,
        index.dataset.graphs.len(),
        index.dataset.graphs.len() / out.ndc.max(1)
    );

    // Sanity: compound #42 (or a 0-distance duplicate) should surface.
    let hit = out
        .results
        .iter()
        .any(|&(d, id)| id == 42 || d <= edits as f64);
    println!("query's source compound found or matched: {hit}");

    // Compare against the exhaustive-routing baseline (same index).
    let baseline = SearchRequest {
        init: InitStrategy::HnswIs,
        route: RouteStrategy::HnswRoute,
        ..SearchRequest::new(k, 16)
    };
    let hnsw = index.search(&candidate, &baseline).outcome;
    println!(
        "baseline (exhaustive routing): same top distance = {}, NDC = {} ({:+.0}% vs LAN)",
        hnsw.results[0].0,
        hnsw.ndc,
        100.0 * (hnsw.ndc as f64 - out.ndc as f64) / out.ndc.max(1) as f64
    );
}
