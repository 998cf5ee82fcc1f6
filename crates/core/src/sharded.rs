//! Sharded (distributed-style) k-ANN search — the paper's protocol for
//! large databases (§VII-D: "we randomly split the dataset into equal-size
//! sub-datasets and sequentially perform k-ANN search on each sub-dataset")
//! and the conclusion's future-work direction, made a first-class citizen.
//!
//! Each shard is a complete [`LanIndex`] (its own proximity graph, models,
//! and CGs) over a slice of the database; a query runs on every shard and
//! the per-shard top-k are merged. Shard-local graph ids are remapped back
//! to global database ids.

use crate::index::{LanConfig, LanIndex};
use crate::query::{
    budget_explain, InitStrategy, QueryOutcome, RouteStrategy, SearchRequest, SearchResponse,
};
use lan_datasets::{Dataset, DatasetSpec, WorkloadSplit};
use lan_graph::Graph;
use lan_obs::explain::{QueryExplain, TierBreakdown, TimelineEvent};
use lan_pg::budget::{BudgetCtx, QueryBudget};
use std::time::{Duration, Instant};

/// How [`ShardedLanIndex::search`] runs its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fanout {
    /// One shard after another on the calling thread; shards after a
    /// budget exhaustion are skipped.
    Seq,
    /// Every shard concurrently on the `lan-par` executor.
    Par,
}

/// A database partitioned into independently indexed shards.
pub struct ShardedLanIndex {
    pub shards: Vec<LanIndex>,
    /// `global_ids[s][local]` = global database id of shard `s`'s graph
    /// `local`.
    pub global_ids: Vec<Vec<u32>>,
}

impl ShardedLanIndex {
    /// Splits `dataset` into `num_shards` contiguous equal-size shards and
    /// builds one LAN index per shard, in parallel across shards (models
    /// are trained per shard against its own sub-database).
    ///
    /// Each shard receives a *slim* query workload — only the train and
    /// validation query graphs, with the split indices remapped — instead
    /// of a clone of the full workload: training touches nothing else, and
    /// test queries arrive by reference at search time.
    pub fn build(dataset: &Dataset, cfg: &LanConfig, num_shards: usize) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        let n = dataset.graphs.len();
        assert!(num_shards <= n, "more shards than graphs");
        // Global ids are u32; the `lo as u32..hi as u32` remap below would
        // silently wrap past that, aliasing shards onto the same ids.
        assert!(
            n <= u32::MAX as usize + 1,
            "database of {n} objects exceeds the u32 global-id space"
        );
        let chunk = n.div_ceil(num_shards);

        let train_queries: Vec<Graph> = dataset
            .split
            .train
            .iter()
            .map(|&qi| dataset.queries[qi].clone())
            .collect();
        let val_queries: Vec<Graph> = dataset
            .split
            .val
            .iter()
            .map(|&qi| dataset.queries[qi].clone())
            .collect();
        let slim_queries: Vec<Graph> = train_queries.iter().chain(&val_queries).cloned().collect();
        let slim_split = WorkloadSplit {
            train: (0..train_queries.len()).collect(),
            val: (train_queries.len()..slim_queries.len()).collect(),
            test: Vec::new(),
        };

        let ranges: Vec<(usize, usize)> = (0..num_shards)
            .map(|s| (s * chunk, ((s + 1) * chunk).min(n)))
            .collect();
        let shards: Vec<LanIndex> =
            lan_par::par_map_dyn(&ranges, lan_par::Grain::Fine, |&(lo, hi)| {
                let sub = Dataset {
                    spec: DatasetSpec {
                        num_graphs: hi - lo,
                        ..dataset.spec.clone()
                    },
                    graphs: dataset.graphs[lo..hi].to_vec(),
                    queries: slim_queries.clone(),
                    split: slim_split.clone(),
                };
                LanIndex::build(sub, cfg.clone())
            });
        let global_ids = ranges
            .into_iter()
            .map(|(lo, hi)| (lo as u32..hi as u32).collect())
            .collect();
        ShardedLanIndex { shards, global_ids }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total indexed graphs across shards.
    pub fn len(&self) -> usize {
        self.global_ids.iter().map(Vec::len).sum()
    }

    /// True when no graphs are indexed (construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// k-ANN over every shard with merged global results (the paper's
    /// sub-database protocol). All shards share one [`BudgetCtx`], so the
    /// NDC cap is global across the query; once one shard exhausts it,
    /// the sequential fan-out skips the remaining shards (their
    /// best-so-far is simply absent from the merge) and the parallel one
    /// cancels its siblings mid-flight.
    ///
    /// Both fan-outs are bit-identical under an unlimited budget (each
    /// shard's search is deterministic and shard-local, and the merge is
    /// order-independent); only `total_time` differs. With a *finite*
    /// budget the parallel per-shard results depend on which shard's
    /// computations won the budget race, so they are best-so-far but not
    /// run-to-run deterministic — only the invariants (NDC ≤ cap,
    /// degraded tag set) are guaranteed.
    ///
    /// # Panics
    ///
    /// As [`LanIndex::search`]: when `req` uses the learned models, if `q`
    /// has no nodes or a node label that is not below the index's label
    /// count.
    pub fn search(&self, q: &Graph, req: &SearchRequest, fanout: Fanout) -> SearchResponse {
        let t0 = Instant::now();
        let ctx = BudgetCtx::new(&req.budget);
        let answers: Vec<(SearchResponse, Duration)> = match fanout {
            Fanout::Seq => {
                let mut answers = Vec::with_capacity(self.shards.len());
                for s in 0..self.shards.len() {
                    if ctx.cancelled() {
                        break;
                    }
                    answers.push((self.search_shard(s, q, req, &ctx), t0.elapsed()));
                }
                answers
            }
            Fanout::Par => {
                let idx: Vec<usize> = (0..self.shards.len()).collect();
                // Worker threads have empty trace thread-locals; re-attach
                // the caller's traced query id so per-shard hops keep
                // their `q`.
                let traced = lan_obs::trace::active_query();
                lan_par::par_map_dyn(&idx, lan_par::Grain::Fine, |&s| {
                    let _t = lan_obs::trace::propagate(traced);
                    (self.search_shard(s, q, req, &ctx), t0.elapsed())
                })
            }
        };
        self.merge(req, &ctx, t0, answers)
    }

    /// [`Self::search`] (sequential) with positional arguments;
    /// `lanbench/` calls it.
    #[allow(clippy::too_many_arguments)]
    pub fn search_budgeted(
        &self,
        q: &Graph,
        k: usize,
        b: usize,
        init: InitStrategy,
        route: RouteStrategy,
        seed: u64,
        budget: &QueryBudget,
    ) -> QueryOutcome {
        let req = SearchRequest {
            init,
            route,
            seed,
            budget: budget.clone(),
            ..SearchRequest::new(k, b)
        };
        self.search(q, &req, Fanout::Seq).outcome
    }

    /// [`Self::search`] (sequential) returning the merged EXPLAIN plan;
    /// `lanbench/` calls it.
    pub fn search_explain(
        &self,
        q: &Graph,
        k: usize,
        b: usize,
        init: InitStrategy,
        route: RouteStrategy,
        seed: u64,
    ) -> (QueryOutcome, QueryExplain) {
        let req = SearchRequest {
            init,
            route,
            seed,
            explain: true,
            ..SearchRequest::new(k, b)
        };
        self.search(q, &req, Fanout::Seq).into_explained()
    }

    /// Shard `s`'s slice of a fan-out query, with shard seed `req.seed ^
    /// s` under the query's shared budget context. The response carries
    /// the shard's sub-plan when the request asked for one or the EXPLAIN
    /// ring is live; nothing is emitted here. An external fan-out (the
    /// serving front-end) that runs every shard through this and hands
    /// the answers to [`Self::merge`] reproduces [`Self::search`] bit for
    /// bit.
    pub fn search_shard(
        &self,
        s: usize,
        q: &Graph,
        req: &SearchRequest,
        ctx: &BudgetCtx,
    ) -> SearchResponse {
        let shard_req = SearchRequest {
            seed: req.seed ^ s as u64,
            ..req.collecting()
        };
        self.shards[s].search_in(q, &shard_req, ctx)
    }

    /// Merges per-shard answers, in shard order, into the query's
    /// response. Each answer pairs a [`Self::search_shard`] response with
    /// that shard's finish offset from `t0`, the query start.
    ///
    /// The outcome remaps local ids through `global_ids`, sums NDC and the
    /// distance/GNN time components, keeps the `(distance, id)`-sorted
    /// top-k, and measures `total_time` from `t0`. When the shards carried
    /// sub-plans, the merged plan sums their counts and init/route times
    /// (CPU time under a parallel fan-out), nests them under `shards`, and
    /// adds one `shard.N` timeline entry per answer with the cumulative
    /// NDC and the finish offset. The plan is returned if `req.explain`,
    /// otherwise emitted to the EXPLAIN ring — the one emission point of
    /// every fan-out.
    pub fn merge(
        &self,
        req: &SearchRequest,
        ctx: &BudgetCtx,
        t0: Instant,
        answers: Vec<(SearchResponse, Duration)>,
    ) -> SearchResponse {
        let mut merged: Vec<(f64, u32)> = Vec::new();
        let mut ndc = 0usize;
        let mut distance_time = Duration::ZERO;
        let mut gnn_time = Duration::ZERO;
        // A merged plan needs every shard's sub-plan (the EXPLAIN switch
        // may flip mid-query).
        let collected = !answers.is_empty() && answers.iter().all(|(r, _)| r.explain.is_some());
        let mut plans: Vec<QueryExplain> = Vec::new();
        let mut timeline: Vec<TimelineEvent> = Vec::new();
        let track_shards = lan_obs::enabled();
        for (s, (resp, finished)) in answers.into_iter().enumerate() {
            let out = resp.outcome;
            if track_shards {
                lan_obs::counter(&lan_obs::names::shard_ndc(s)).add(out.ndc as u64);
            }
            ndc += out.ndc;
            distance_time += out.distance_time;
            gnn_time += out.gnn_time;
            merged.extend(
                out.results
                    .into_iter()
                    .map(|(d, local)| (d, self.global_ids[s][local as usize])),
            );
            if let Some(ex) = resp.explain.filter(|_| collected) {
                timeline.push(TimelineEvent {
                    stage: format!("shard.{s}"),
                    ndc: ndc as u64,
                    elapsed_ns: finished.as_nanos() as u64,
                });
                plans.push(ex);
            }
        }
        merged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        merged.truncate(req.k);
        let outcome = QueryOutcome {
            results: merged,
            ndc,
            total_time: t0.elapsed(),
            distance_time,
            gnn_time,
            termination: ctx.termination(),
        };
        let explain = collected.then(|| merged_plan(&outcome, req, ctx, plans, timeline));
        SearchResponse { outcome, explain }.deliver(req)
    }
}

/// The fan-out's merged EXPLAIN plan: counts (NDC, hits, hops, tiers) and
/// the init/route times summed over the sub-plans, the distance/GNN times
/// and `total_ns` taken from the merged outcome.
fn merged_plan(
    merged: &QueryOutcome,
    req: &SearchRequest,
    ctx: &BudgetCtx,
    plans: Vec<QueryExplain>,
    timeline: Vec<TimelineEvent>,
) -> QueryExplain {
    let mut tiers = TierBreakdown::default();
    let mut init_ns = 0u64;
    let mut route_ns = 0u64;
    let mut cache_hits = 0u64;
    let mut hops = 0u64;
    for p in &plans {
        tiers.accumulate(&p.tiers);
        init_ns += p.init_ns;
        route_ns += p.route_ns;
        cache_hits += p.cache_hits;
        hops += p.hops;
    }
    QueryExplain {
        query: req.seed,
        k: req.k,
        b: req.b,
        init: req.init.as_str().to_string(),
        route: req.route.as_str().to_string(),
        termination: merged.termination.as_str().to_string(),
        total_ns: merged.total_time.as_nanos() as u64,
        init_ns,
        route_ns,
        dist_ns: merged.distance_time.as_nanos() as u64,
        gnn_ns: merged.gnn_time.as_nanos() as u64,
        ndc: merged.ndc as u64,
        cache_hits,
        hops,
        tiers,
        budget: budget_explain(ctx),
        timeline,
        shards: plans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lan_models::ModelConfig;
    use lan_pg::PgConfig;

    fn tiny_cfg() -> LanConfig {
        LanConfig {
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
            quant: crate::index::QuantConfig::default(),
        }
    }

    #[test]
    fn sharded_search_merges_globally() {
        let dataset = Dataset::generate(
            DatasetSpec::syn()
                .with_graphs(60)
                .with_queries(8)
                .with_metric(lan_ged::GedMethod::Hungarian),
        );
        let sharded = ShardedLanIndex::build(&dataset, &tiny_cfg(), 3);
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(sharded.len(), 60);

        let q = dataset.queries[0].clone();
        // Beam >= shard size: each shard's connected base layer is fully
        // explored, so the merge must be exact.
        let req = SearchRequest {
            init: InitStrategy::HnswIs,
            route: RouteStrategy::HnswRoute,
            ..SearchRequest::new(5, 32)
        };
        let out = sharded.search(&q, &req, Fanout::Seq).outcome;
        assert_eq!(out.results.len(), 5);
        assert!(out.results.windows(2).all(|w| w[0].0 <= w[1].0));
        // Global ids must span the whole database range, not one shard.
        assert!(out.results.iter().all(|&(_, id)| (id as usize) < 60));

        // Sharded exhaustive search must match the single-index ground
        // truth distances (every shard scans its slice thoroughly at a
        // beam this large relative to shard size).
        let gt = dataset.ground_truth_knn(&q, 5);
        let d_merged: Vec<f64> = out.results.iter().map(|&(d, _)| d).collect();
        let d_truth: Vec<f64> = gt.iter().map(|&(d, _)| d).collect();
        assert_eq!(d_merged, d_truth, "sharded merge lost quality");
    }

    #[test]
    #[should_panic(expected = "more shards than graphs")]
    fn too_many_shards_rejected() {
        let dataset = Dataset::generate(
            DatasetSpec::syn()
                .with_graphs(3)
                .with_queries(2)
                .with_metric(lan_ged::GedMethod::Hungarian),
        );
        let _ = ShardedLanIndex::build(&dataset, &tiny_cfg(), 10);
    }
}
