//! Bit-identity of threshold-gated routing with the seed (ungated) path.
//!
//! The GED kernel cascade lets the metric answer a routing probe with an
//! admissible lower bound instead of a full solve whenever the bound
//! reaches the live threshold and strictly beats the pool gate. The
//! contract is that this changes **nothing observable**: results, NDC,
//! cache hit counts, exploration order, and termination tags are all
//! bit-identical to running the plain exact metric — only the number of
//! full solver runs drops. These tests drive both routers (plus the HNSW
//! entry descent and the budgeted variants) with a synthetic
//! bound-returning oracle against the plain closure oracle and compare
//! everything.

use lan_pg::np_route::{np_route, NoPruneRanker, OracleRanker};
use lan_pg::{
    beam_search, BudgetCtx, DistBound, DistCache, PairCache, PgConfig, ProximityGraph, QueryBudget,
    QueryDistance,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A gated oracle over a fixed distance table: `distance_within` answers
/// with the admissible lower bound `max(d - slack, 0) * tightness` when it
/// reaches `tau`, and with the exact value otherwise. `slack = 0`,
/// `tightness = 1` makes the bound *equal* to the distance — the maximal
/// pruning regime, full of boundary ties, which is exactly where the
/// strict-gate logic has to hold the line.
struct BoundOracle<'a> {
    d: &'a [f64],
    slack: f64,
    tightness: f64,
    full_evals: AtomicUsize,
}

impl<'a> BoundOracle<'a> {
    fn new(d: &'a [f64], slack: f64, tightness: f64) -> Self {
        assert!((0.0..=1.0).contains(&tightness) && slack >= 0.0);
        BoundOracle {
            d,
            slack,
            tightness,
            full_evals: AtomicUsize::new(0),
        }
    }

    fn lb(&self, id: u32) -> f64 {
        (self.d[id as usize] - self.slack).max(0.0) * self.tightness
    }
}

impl QueryDistance for BoundOracle<'_> {
    fn distance(&self, id: u32) -> f64 {
        self.full_evals.fetch_add(1, Ordering::Relaxed);
        self.d[id as usize]
    }

    fn distance_within(&self, id: u32, tau: f64) -> DistBound {
        let lb = self.lb(id);
        if tau.is_finite() && lb >= tau {
            DistBound::AtLeast(lb)
        } else {
            DistBound::Exact(self.distance(id))
        }
    }
}

fn random_connected_adj(rng: &mut StdRng, n: usize, extra: usize) -> Vec<Vec<u32>> {
    let mut adj = vec![Vec::new(); n];
    for i in 1..n {
        let j = rng.gen_range(0..i);
        adj[i].push(j as u32);
        adj[j].push(i as u32);
    }
    for _ in 0..extra {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !adj[a].contains(&(b as u32)) {
            adj[a].push(b as u32);
            adj[b].push(a as u32);
        }
    }
    for l in &mut adj {
        l.sort_unstable();
    }
    adj
}

/// Asserts two route results are bit-identical (distances compared by
/// bits, not tolerance).
fn assert_same_route(seedr: &lan_pg::RouteResult, gated: &lan_pg::RouteResult, what: &str) {
    assert_eq!(
        seedr.results.len(),
        gated.results.len(),
        "{what}: result len"
    );
    for (a, b) in seedr.results.iter().zip(&gated.results) {
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "{what}: distance bits");
        assert_eq!(a.1, b.1, "{what}: result id");
    }
    assert_eq!(seedr.ndc, gated.ndc, "{what}: NDC");
    assert_eq!(
        seedr.exploration_order, gated.exploration_order,
        "{what}: exploration order"
    );
    assert_eq!(seedr.termination, gated.termination, "{what}: termination");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both routers, integer-tied distances (the GED regime), every bound
    /// tightness from useless to exact: gated == seed on results, NDC,
    /// hits, exploration order.
    #[test]
    fn gated_routing_is_bit_identical(
        seed in any::<u64>(),
        n in 4usize..40,
        b in 1usize..8,
        y in prop::sample::select(vec![10usize, 20, 34, 50, 100]),
        slack in prop::sample::select(vec![0.0f64, 1.0, 3.0]),
        tightness in prop::sample::select(vec![1.0f64, 0.7, 0.3]),
        tied in any::<bool>(),
    ) {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(seed);
        let adj = random_connected_adj(&mut rng, n, n);
        let dists: Vec<f64> = if tied {
            (0..n).map(|_| rng.gen_range(0..8) as f64).collect()
        } else {
            let mut d: Vec<f64> = (0..n).map(|i| i as f64).collect();
            d.shuffle(&mut rng);
            d
        };
        let entry = rng.gen_range(0..n) as u32;
        let k = b.min(3);

        let f = |id: u32| dists[id as usize];
        let gated = BoundOracle::new(&dists, slack, tightness);

        // Algorithm 1 (beam search).
        let c1 = DistCache::new(&f);
        let bs_seed = beam_search(&adj, &c1, &[entry], b, k, &BudgetCtx::unlimited());
        let c2 = DistCache::new(&gated);
        let bs_gated = beam_search(&adj, &c2, &[entry], b, k, &BudgetCtx::unlimited());
        assert_same_route(&bs_seed, &bs_gated, "beam_search");
        prop_assert_eq!(c1.hits(), c2.hits(), "beam_search hits");
        prop_assert!(gated.full_evals.load(Ordering::Relaxed) <= bs_seed.ndc);

        // Algorithms 2-4 (np_route, oracle ranker).
        let oracle = OracleRanker::new(&f, y);
        let c3 = DistCache::new(&f);
        let np_seed = np_route(&adj, &c3, &oracle, &[entry], b, k, 1.0, &BudgetCtx::unlimited());
        let gated2 = BoundOracle::new(&dists, slack, tightness);
        let c4 = DistCache::new(&gated2);
        let np_gated = np_route(&adj, &c4, &oracle, &[entry], b, k, 1.0, &BudgetCtx::unlimited());
        assert_same_route(&np_seed, &np_gated, "np_route");
        prop_assert_eq!(c3.hits(), c4.hits(), "np_route hits");

        // NoPruneRanker (baseline-degenerate np_route).
        let c5 = DistCache::new(&f);
        let nop_seed = np_route(&adj, &c5, &NoPruneRanker, &[entry], b, k, 1.0, &BudgetCtx::unlimited());
        let gated3 = BoundOracle::new(&dists, slack, tightness);
        let c6 = DistCache::new(&gated3);
        let nop_gated = np_route(&adj, &c6, &NoPruneRanker, &[entry], b, k, 1.0, &BudgetCtx::unlimited());
        assert_same_route(&nop_seed, &nop_gated, "np_route/noprune");
        prop_assert_eq!(c5.hits(), c6.hits(), "np_route/noprune hits");
    }

    /// Budgeted routing under every NDC cap: the gated run degrades at the
    /// same point, with the same best-so-far pool, as the seed run.
    #[test]
    fn gated_budgeted_routing_is_bit_identical(
        seed in any::<u64>(),
        n in 5usize..25,
        b in 1usize..5,
        slack in prop::sample::select(vec![0.0f64, 2.0]),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let adj = random_connected_adj(&mut rng, n, n / 2);
        let dists: Vec<f64> = (0..n).map(|_| rng.gen_range(0..10) as f64).collect();
        let entry = rng.gen_range(0..n) as u32;
        let f = |id: u32| dists[id as usize];
        let oracle = OracleRanker::new(&f, 20);

        let free_cache = DistCache::new(&f);
        let free = np_route(&adj, &free_cache, &oracle, &[entry], b, 2, 1.0, &BudgetCtx::unlimited());

        for cap in (1..=free.ndc).step_by(2) {
            let ctx_s = BudgetCtx::new(&QueryBudget::default().with_max_ndc(cap));
            let cs = DistCache::new(&f);
            let rs = np_route(&adj, &cs, &oracle, &[entry], b, 2, 1.0, &ctx_s);

            let gated = BoundOracle::new(&dists, slack, 1.0);
            let ctx_g = BudgetCtx::new(&QueryBudget::default().with_max_ndc(cap));
            let cg = DistCache::new(&gated);
            let rg = np_route(&adj, &cg, &oracle, &[entry], b, 2, 1.0, &ctx_g);
            assert_same_route(&rs, &rg, "np_route budgeted");

            let ctx_s2 = BudgetCtx::new(&QueryBudget::default().with_max_ndc(cap));
            let cs2 = DistCache::new(&f);
            let bs = beam_search(&adj, &cs2, &[entry], b, 2, &ctx_s2);
            let gated2 = BoundOracle::new(&dists, slack, 1.0);
            let ctx_g2 = BudgetCtx::new(&QueryBudget::default().with_max_ndc(cap));
            let cg2 = DistCache::new(&gated2);
            let bg = beam_search(&adj, &cg2, &[entry], b, 2, &ctx_g2);
            assert_same_route(&bs, &bg, "beam_search budgeted");
        }
    }
}

#[test]
fn gated_hnsw_entry_descent_is_bit_identical() {
    // A real hierarchical index over 1-D points; the gated descent must
    // pick the same entry with the same NDC and hit counts.
    let mut rng = StdRng::seed_from_u64(7);
    let pts: Vec<f64> = (0..160).map(|_| rng.gen_range(0.0..100.0)).collect();
    let pf = |a: u32, b: u32| (pts[a as usize] - pts[b as usize]).abs();
    let pc = PairCache::new(&pf);
    let pg = ProximityGraph::build(pts.len(), &pc, &PgConfig::new(6));

    for qi in 0..20 {
        let q = (qi as f64) * 5.3;
        let qdists: Vec<f64> = pts.iter().map(|p| (p - q).abs()).collect();
        let f = |id: u32| qdists[id as usize];
        let c1 = DistCache::new(&f);
        let e_seed = pg.hnsw_entry(&c1, &BudgetCtx::unlimited());
        for (slack, tightness) in [(0.0, 1.0), (1.0, 1.0), (0.0, 0.5)] {
            let gated = BoundOracle::new(&qdists, slack, tightness);
            let c2 = DistCache::new(&gated);
            let e_gated = pg.hnsw_entry(&c2, &BudgetCtx::unlimited());
            assert_eq!(e_seed, e_gated, "entry node");
            assert_eq!(c1.ndc(), c2.ndc(), "descent NDC");
            assert_eq!(c1.hits(), c2.hits(), "descent hits");
        }
    }
}

#[test]
fn tight_bounds_actually_save_full_evals() {
    // The equivalence above would hold trivially if the cascade never
    // pruned; this pins down that an exact bound (lb == d) does cut full
    // solver runs well below NDC on a structured instance.
    let n = 300usize;
    let mut rng = StdRng::seed_from_u64(11);
    let adj = random_connected_adj(&mut rng, n, 2 * n);
    // One tight cluster near the query, everything else far away.
    let dists: Vec<f64> = (0..n)
        .map(|i| if i < 12 { i as f64 } else { 40.0 + i as f64 })
        .collect();
    let f = |id: u32| dists[id as usize];
    let c1 = DistCache::new(&f);
    let seed_route = beam_search(&adj, &c1, &[0], 4, 3, &BudgetCtx::unlimited());

    let gated = BoundOracle::new(&dists, 0.0, 1.0);
    let c2 = DistCache::new(&gated);
    let gated_route = beam_search(&adj, &c2, &[0], 4, 3, &BudgetCtx::unlimited());
    assert_same_route(&seed_route, &gated_route, "structured beam_search");

    let full = gated.full_evals.load(Ordering::Relaxed);
    assert!(
        full * 2 <= seed_route.ndc,
        "cascade saved too little: {full} full evals vs {} NDC",
        seed_route.ndc
    );
}
