//! The L2route baseline [28], adapted to graph databases exactly as the
//! paper does: "we first convert graphs into embedding vectors and then use
//! L2route on the embedding vectors for k-ANN search".
//!
//! Graphs are embedded with the trained GIN embedder; the query retrieves a
//! candidate set by routing in L2 embedding space, then verifies the
//! candidates with true (counted) GED and returns the best `k`. Recall
//! against the GED ground truth is bounded by embedding quality, so high
//! recall demands a large candidate set — and therefore a large NDC. That
//! is the effect behind L2route's position in Fig. 5.

use crate::index::LanIndex;
use lan_graph::Graph;
use lan_obs::TimerCell;
use lan_pg::{beam_search, BudgetCtx, DistCache, PairCache, PgConfig, ProximityGraph};
use std::time::{Duration, Instant};

/// L2route's own index: an HNSW over the embedding vectors.
pub struct L2RouteIndex {
    pub pg: ProximityGraph,
    pub embeds: Vec<Vec<f32>>,
}

fn l2(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) as f64 * (x - y) as f64)
        .sum::<f64>()
        .sqrt()
}

impl L2RouteIndex {
    /// Builds the embedding-space proximity graph from the LAN index's
    /// trained embedder (vector distances are cheap; construction is fast).
    pub fn build(index: &LanIndex, m: usize) -> Self {
        let embeds = index.models.db_embeds.clone();
        let pair_fn = |a: u32, b: u32| l2(&embeds[a as usize], &embeds[b as usize]);
        let pairs = PairCache::new_uncounted(&pair_fn);
        let pg = ProximityGraph::build(embeds.len(), &pairs, &PgConfig::new(m));
        L2RouteIndex { pg, embeds }
    }

    /// Answers a k-ANN query: route in embedding space to collect
    /// `candidates` nearest vectors, then verify them with true GED.
    ///
    /// Returns `(results, ndc, total_time, distance_time)`.
    pub fn search(
        &self,
        index: &LanIndex,
        q: &Graph,
        k: usize,
        candidates: usize,
    ) -> (Vec<(f64, u32)>, usize, Duration, Duration) {
        let t0 = Instant::now();
        let qe = index.models.embed(q);
        // Cheap vector routing (uncounted: the paper's NDC counts *graph*
        // distance computations, which are the expensive operation).
        let vq = |id: u32| l2(&self.embeds[id as usize], &qe);
        let vcache = DistCache::new_uncounted(&vq);
        let entry = self.pg.hnsw_entry(&vcache, &BudgetCtx::unlimited());
        let cand = beam_search(
            self.pg.base(),
            &vcache,
            &[entry],
            candidates.max(k),
            candidates.max(k),
            &BudgetCtx::unlimited(),
        );

        // Verification with true GED — this is the counted cost. The timer
        // is atomic because DistCache requires a Sync distance closure.
        let dist_timer = TimerCell::new();
        let qd = |id: u32| dist_timer.time(|| index.dataset.distance(q, id));
        let gcache = DistCache::new(&qd);
        let mut verified: Vec<(f64, u32)> =
            cand.ids().iter().map(|&id| (gcache.get(id), id)).collect();
        // total_cmp: a NaN distance (poisoned metric) sorts after every
        // finite candidate instead of scrambling the comparator.
        verified.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        verified.truncate(k);
        let ndc = gcache.ndc();
        drop(gcache);
        (verified, ndc, t0.elapsed(), dist_timer.total())
    }
}
