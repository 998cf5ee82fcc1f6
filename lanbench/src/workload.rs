//! The workloads: what each one builds, how it is queried, and why it
//! was chosen. `BENCHMARK.json` at the repository root carries the same
//! names and one-line reasons.

use lan_core::{LanConfig, QuantConfig};
use lan_datasets::DatasetSpec;
use lan_ged::GedMethod;
use lan_models::ModelConfig;
use lan_pg::PgConfig;

/// Problem size: `Full` is what the benchmark measures; `Tiny` runs every
/// code path in seconds for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }
}

/// How queries reach the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// In-process search calls, the query batch fanned over `lan_threads`
    /// workers.
    Batch,
    /// `lan_serve::serve` on loopback, driven by a closed loop of this
    /// many client connections (one thread each).
    Served { clients: usize },
}

/// One workload, fully pinned.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Dataset preset with its size and metric. The database is fixed per
    /// workload (the preset's seed); `--seed` draws the query set.
    pub spec: DatasetSpec,
    /// `None`: one flat `LanIndex`; `Some(n)`: a `ShardedLanIndex` of `n`.
    pub shards: Option<usize>,
    pub k: usize,
    pub b: usize,
    /// Timed query set size (test split padded with perturbations).
    pub queries: usize,
    pub access: Access,
    /// Independent set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Lowest acceptable mean tie-aware recall@k.
    pub recall_floor: f64,
    pub cfg: LanConfig,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &["syn1k-batch", "aids-bo3-batch", "syn1k-serve"];

fn lan_config(model: ModelConfig) -> LanConfig {
    LanConfig {
        pg: PgConfig::new(6),
        model,
        ds: 1.0,
        // Built explicitly so `LAN_QUANT` can never leak in.
        quant: QuantConfig::default(),
    }
}

/// The scale campaign's lean model configuration (its 1k tier), with
/// one epoch of 120 samples so that three set-ups fit in one run.
fn syn_model() -> ModelConfig {
    ModelConfig {
        embed_dim: 16,
        epochs: 1,
        max_samples_per_epoch: 120,
        nh_cover_k: 20,
        clusters: 6,
        top_clusters: 2,
        mlp_hidden: 16,
        ..ModelConfig::default()
    }
}

/// The figure binaries' `small` model configuration, with one epoch of
/// 250 samples so that three set-ups fit in one run.
fn aids_model() -> ModelConfig {
    ModelConfig {
        embed_dim: 16,
        epochs: 1,
        max_samples_per_epoch: 250,
        nh_cover_k: 30,
        clusters: 6,
        top_clusters: 3,
        mlp_hidden: 16,
        ..ModelConfig::default()
    }
}

fn tiny_model() -> ModelConfig {
    ModelConfig {
        embed_dim: 8,
        epochs: 1,
        max_samples_per_epoch: 60,
        nh_cover_k: 6,
        clusters: 2,
        top_clusters: 1,
        mlp_hidden: 8,
        ..ModelConfig::default()
    }
}

/// Looks a workload up by name.
pub fn workload(name: &str, size: Size) -> Option<Workload> {
    let tiny = size == Size::Tiny;
    // Cheap Hungarian GED, so GNN scoring, routing and the shard fan-out
    // carry a large share of query time, and model training dominates
    // set-up: where a training-loop or GNN change shows.
    let syn = |name: &'static str, access: Access| Workload {
        name,
        spec: DatasetSpec::syn()
            .with_graphs(if tiny { 48 } else { 1_000 })
            .with_queries(if tiny { 20 } else { 80 })
            .with_metric(GedMethod::Hungarian),
        shards: Some(if tiny { 2 } else { 4 }),
        k: if tiny { 5 } else { 10 },
        b: if tiny { 10 } else { 20 },
        queries: if tiny { 12 } else { 256 },
        access,
        setups: if tiny { 1 } else { 3 },
        recall_floor: if tiny { 0.2 } else { 0.9 },
        cfg: lan_config(if tiny { tiny_model() } else { syn_model() }),
    };
    match name {
        "syn1k-batch" => Some(syn("syn1k-batch", Access::Batch)),
        // The same index saved, opened and served: the only workload that
        // runs `lan-store` open and `lan-serve` (admission, micro-batching,
        // fused co-batched scoring, framing, TCP). The protocol answers one
        // frame at a time per connection, so the load is a closed loop; an
        // open loop would need more connections than two cores allow.
        "syn1k-serve" => Some(syn("syn1k-serve", Access::Served { clients: 2 })),
        // The paper's cost regime: BestOfThree GED dominates query time
        // and PG-build distance calls dominate set-up, so a GED cascade
        // change shows here and barely moves the SYN workloads. The only
        // workload on the flat (unsharded) search path.
        "aids-bo3-batch" => Some(Workload {
            name: "aids-bo3-batch",
            spec: DatasetSpec::aids()
                .with_graphs(if tiny { 40 } else { 96 })
                .with_queries(20),
            shards: None,
            k: if tiny { 5 } else { 10 },
            b: if tiny { 10 } else { 20 },
            queries: if tiny { 12 } else { 196 },
            access: Access::Batch,
            setups: if tiny { 1 } else { 3 },
            recall_floor: if tiny { 0.2 } else { 0.9 },
            cfg: lan_config(if tiny { tiny_model() } else { aids_model() }),
        }),
        _ => None,
    }
}
