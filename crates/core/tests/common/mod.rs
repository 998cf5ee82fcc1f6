//! The shapes a sharded query can run in, shared by the table-driven
//! equivalence suites: the two in-process fan-outs of
//! [`ShardedLanIndex::search`], and the serving front-end's shape —
//! every shard through [`ShardedLanIndex::search_shard`] under one budget
//! context, answers handed to [`ShardedLanIndex::merge`].

use lan_core::{BudgetCtx, Fanout, SearchRequest, SearchResponse, ShardedLanIndex};
use lan_graph::Graph;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub enum Shape {
    Fanout(Fanout),
    Served,
}

pub const SHAPES: [Shape; 3] = [
    Shape::Fanout(Fanout::Seq),
    Shape::Fanout(Fanout::Par),
    Shape::Served,
];

pub fn run(
    sharded: &ShardedLanIndex,
    q: &Graph,
    req: &SearchRequest,
    shape: Shape,
) -> SearchResponse {
    match shape {
        Shape::Fanout(fanout) => sharded.search(q, req, fanout),
        Shape::Served => {
            let ctx = BudgetCtx::new(&req.budget);
            run_served(sharded, q, req, &ctx)
        }
    }
}

/// The serving shape under a caller-owned context, so a test can inspect
/// the context afterwards.
pub fn run_served(
    sharded: &ShardedLanIndex,
    q: &Graph,
    req: &SearchRequest,
    ctx: &BudgetCtx,
) -> SearchResponse {
    let t0 = Instant::now();
    let answers = (0..sharded.num_shards())
        .map(|s| (sharded.search_shard(s, q, req, ctx), t0.elapsed()))
        .collect();
    sharded.merge(req, ctx, t0, answers)
}
