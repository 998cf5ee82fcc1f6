//! The learned [`NeighborRanker`] adapter: plugs `M_rk` into `np_route`.

use crate::models::{LanModels, QueryContext};
use lan_pg::np_route::NeighborRanker;

/// Ranks neighbors with the trained `M_rk` models (paper §IV-C). Inside the
/// query neighborhood (`d(G, Q) <= γ*`) neighbors are partitioned into
/// predicted batches; outside, all neighbors form a single batch (no
/// pruning), exactly as §IV-C prescribes.
///
/// Scoring runs on the tape-free fast path: pair embeddings come from the
/// per-query cache in `ctx` (computed once per database graph per query),
/// and by default a hop's neighbors are stacked into one batched
/// fused-head forward. [`LearnedRanker::per_neighbor`] scores each
/// neighbor as its own 1-row batch through the same kernels —
/// bit-identical results, kept for the equivalence property tests.
pub struct LearnedRanker<'a> {
    pub models: &'a LanModels,
    pub ctx: &'a QueryContext,
    /// Use the compressed GNN-graph inputs (paper §VI) for the database
    /// side of every cross-graph forward.
    pub use_cg: bool,
    /// Stack the whole hop into one fused forward (default) instead of
    /// scoring neighbors one at a time.
    pub batched: bool,
}

impl<'a> LearnedRanker<'a> {
    pub fn new(models: &'a LanModels, ctx: &'a QueryContext, use_cg: bool) -> Self {
        LearnedRanker {
            models,
            ctx,
            use_cg,
            batched: true,
        }
    }

    /// A ranker that scores neighbors one at a time (same kernels, same
    /// cache, bit-identical batches — just no stacking).
    pub fn per_neighbor(models: &'a LanModels, ctx: &'a QueryContext, use_cg: bool) -> Self {
        LearnedRanker {
            models,
            ctx,
            use_cg,
            batched: false,
        }
    }
}

impl NeighborRanker for LearnedRanker<'_> {
    fn rank(&self, node: u32, neighbors: &[u32], d_node: f64) -> Vec<Vec<u32>> {
        if self.batched {
            self.models
                .rank_batches(self.ctx, node, neighbors, d_node, self.use_cg)
        } else {
            self.models
                .rank_batches_per_neighbor(self.ctx, node, neighbors, d_node, self.use_cg)
        }
    }
}
