//! Routing properties beyond the in-crate unit tests: proptest-driven
//! Theorem 1 sweeps, multi-entry behavior, and index quality on metric
//! point sets.

use lan_pg::np_route::{np_route, NoPruneRanker, OracleRanker};
use lan_pg::{
    beam_search, brute_force_knn, BudgetCtx, DistCache, PairCache, PgConfig, ProximityGraph,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1 with proptest-driven shapes: distinct distances, any batch
    /// percentage, any gamma step, multiple entry points.
    #[test]
    fn theorem1_proptest(
        seed in any::<u64>(),
        n in 4usize..40,
        b in 1usize..8,
        y in prop::sample::select(vec![5usize, 10, 20, 25, 34, 50, 100]),
        num_entries in 1usize..3,
    ) {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(seed);
        let adj = random_connected_adj(&mut rng, n, n);
        let mut dists: Vec<f64> = (0..n).map(|i| i as f64).collect();
        dists.shuffle(&mut rng);
        let entries: Vec<u32> =
            (0..num_entries.min(n)).map(|_| rng.gen_range(0..n) as u32).collect();
        let k = b.min(3);

        let f = |id: u32| dists[id as usize];
        let c1 = DistCache::new(&f);
        let bs = beam_search(&adj, &c1, &entries, b, k, &BudgetCtx::unlimited());
        let c2 = DistCache::new(&f);
        let oracle = OracleRanker::new(&f, y);
        let np = np_route(&adj, &c2, &oracle, &entries, b, k, 1.0, &BudgetCtx::unlimited());
        prop_assert_eq!(&bs.results, &np.results);
        prop_assert!(np.ndc <= bs.ndc, "np {} > bs {}", np.ndc, bs.ndc);

        // NoPrune degenerates to the baseline exactly.
        let c3 = DistCache::new(&f);
        let nop = np_route(&adj, &c3, &NoPruneRanker, &entries, b, k, 1.0, &BudgetCtx::unlimited());
        prop_assert_eq!(&nop.results, &bs.results);
        prop_assert_eq!(nop.ndc, bs.ndc);
    }

    /// Larger gamma steps trade extra exploration for fewer rounds but must
    /// never change the result under distinct distances.
    #[test]
    fn gamma_step_invariance(seed in any::<u64>(), ds in prop::sample::select(vec![1.0f64, 2.0, 5.0, 10.0])) {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 20usize;
        let adj = random_connected_adj(&mut rng, n, n);
        let mut dists: Vec<f64> = (0..n).map(|i| i as f64).collect();
        dists.shuffle(&mut rng);
        let f = |id: u32| dists[id as usize];
        let c1 = DistCache::new(&f);
        let bs = beam_search(&adj, &c1, &[0], 4, 2, &BudgetCtx::unlimited());
        let c2 = DistCache::new(&f);
        let oracle = OracleRanker::new(&f, 20);
        let np = np_route(&adj, &c2, &oracle, &[0], 4, 2, ds, &BudgetCtx::unlimited());
        prop_assert_eq!(bs.results, np.results, "ds = {}", ds);
    }
}

#[test]
fn index_recall_scales_with_beam() {
    // On a well-behaved metric space (1-D points), recall@10 must be
    // non-degenerate and improve (weakly) with the beam size.
    let mut rng = StdRng::seed_from_u64(5);
    let n = 400usize;
    let pts: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1000.0)).collect();
    let pts2 = pts.clone();
    let f = move |a: u32, b: u32| (pts2[a as usize] - pts2[b as usize]).abs();
    let pairs = PairCache::new(&f);
    let pg = ProximityGraph::build(n, &pairs, &PgConfig::new(8));

    let mut prev_recall = 0.0;
    for b in [10usize, 40, 160] {
        let mut total = 0.0;
        for t in 0..10 {
            let q = 100.0 * t as f64;
            let pts_c = pts.clone();
            let qd = move |id: u32| (pts_c[id as usize] - q).abs();
            let truth = brute_force_knn(n, &qd, 10);
            let dc = DistCache::new(&qd);
            let entry = pg.hnsw_entry(&dc, &BudgetCtx::unlimited());
            let res = beam_search(pg.base(), &dc, &[entry], b, 10, &BudgetCtx::unlimited());
            let t_ids: std::collections::HashSet<u32> = truth.iter().map(|&(_, i)| i).collect();
            total += res.ids().iter().filter(|i| t_ids.contains(i)).count() as f64 / 10.0;
        }
        let recall = total / 10.0;
        assert!(
            recall >= prev_recall - 0.05,
            "recall regressed with beam {b}"
        );
        prev_recall = recall;
    }
    assert!(prev_recall > 0.95, "recall at b=160 too low: {prev_recall}");
}

#[test]
fn oracle_route_on_point_index_saves_ndc() {
    let mut rng = StdRng::seed_from_u64(6);
    let n = 300usize;
    let pts: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1000.0)).collect();
    let pts2 = pts.clone();
    let f = move |a: u32, b: u32| (pts2[a as usize] - pts2[b as usize]).abs();
    let pairs = PairCache::new(&f);
    let pg = ProximityGraph::build(n, &pairs, &PgConfig::new(8));

    let mut bs_total = 0usize;
    let mut np_total = 0usize;
    for t in 0..10 {
        let q = 57.0 + 95.0 * t as f64;
        let pts_c = pts.clone();
        let qd = move |id: u32| (pts_c[id as usize] - q).abs();
        let dc1 = DistCache::new(&qd);
        let entry = pg.hnsw_entry(&dc1, &BudgetCtx::unlimited());
        let bs = beam_search(pg.base(), &dc1, &[entry], 20, 10, &BudgetCtx::unlimited());
        let dc2 = DistCache::new(&qd);
        let entry2 = pg.hnsw_entry(&dc2, &BudgetCtx::unlimited());
        let oracle = OracleRanker::new(&qd, 20);
        let np = np_route(
            pg.base(),
            &dc2,
            &oracle,
            &[entry2],
            20,
            10,
            1.0,
            &BudgetCtx::unlimited(),
        );
        assert_eq!(
            bs.results.iter().map(|r| r.0).collect::<Vec<_>>(),
            np.results.iter().map(|r| r.0).collect::<Vec<_>>()
        );
        bs_total += bs.ndc;
        np_total += np.ndc;
    }
    assert!(
        np_total < bs_total,
        "oracle pruning saved nothing: {np_total} vs {bs_total}"
    );
}
