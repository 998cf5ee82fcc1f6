//! Edge cases of the routing layer: disconnection, tiny pools, oversized k.

use lan_pg::np_route::{np_route, OracleRanker};
use lan_pg::{beam_search, BudgetCtx, DistCache};

#[test]
fn disconnected_component_unreachable() {
    // Two components: entry in the first; the optimum lives in the second
    // and must NOT be found (the router only follows edges).
    let adj: Vec<Vec<u32>> = vec![vec![1], vec![0], vec![3], vec![2]];
    let d = [5.0, 4.0, 0.0, 1.0];
    let f = |id: u32| d[id as usize];
    let cache = DistCache::new(&f);
    let r = beam_search(&adj, &cache, &[0], 4, 2, &BudgetCtx::unlimited());
    assert_eq!(r.ids(), vec![1, 0]);

    let cache2 = DistCache::new(&f);
    let oracle = OracleRanker::new(&f, 20);
    let r2 = np_route(
        &adj,
        &cache2,
        &oracle,
        &[0],
        4,
        2,
        1.0,
        &BudgetCtx::unlimited(),
    );
    assert_eq!(r2.ids(), vec![1, 0]);
}

#[test]
fn k_larger_than_reachable_set() {
    let adj: Vec<Vec<u32>> = vec![vec![1], vec![0]];
    let f = |id: u32| id as f64;
    let cache = DistCache::new(&f);
    let r = beam_search(&adj, &cache, &[0], 10, 5, &BudgetCtx::unlimited());
    assert_eq!(r.results.len(), 2, "cannot return more than reachable");
}

#[test]
fn beam_smaller_than_k_returns_beam_many() {
    let adj: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![0], vec![0], vec![0]];
    let f = |id: u32| id as f64;
    let cache = DistCache::new(&f);
    let r = beam_search(&adj, &cache, &[0], 2, 4, &BudgetCtx::unlimited());
    assert!(r.results.len() <= 2, "pool size bounds the result count");
}

#[test]
fn duplicate_entries_are_deduplicated() {
    let adj: Vec<Vec<u32>> = vec![vec![1], vec![0]];
    let f = |id: u32| id as f64;
    let cache = DistCache::new(&f);
    let r = beam_search(&adj, &cache, &[0, 0, 0], 4, 2, &BudgetCtx::unlimited());
    assert_eq!(r.ids(), vec![0, 1]);
    assert_eq!(r.ndc, 2);
}

#[test]
fn np_route_zero_distance_entry() {
    // The entry IS the optimum; stage 1 terminates immediately and stage 2
    // must still scan qualified neighbors before stopping.
    let adj: Vec<Vec<u32>> = vec![vec![1, 2], vec![0, 2], vec![0, 1]];
    let d = [0.0, 1.0, 2.0];
    let f = |id: u32| d[id as usize];
    let cache = DistCache::new(&f);
    let oracle = OracleRanker::new(&f, 50);
    let r = np_route(
        &adj,
        &cache,
        &oracle,
        &[0],
        3,
        3,
        1.0,
        &BudgetCtx::unlimited(),
    );
    assert_eq!(r.ids(), vec![0, 1, 2]);
}

#[test]
#[should_panic(expected = "gamma step must be positive")]
fn np_route_rejects_zero_step() {
    let adj: Vec<Vec<u32>> = vec![vec![]];
    let f = |_: u32| 0.0;
    let cache = DistCache::new(&f);
    let oracle = OracleRanker::new(&f, 20);
    let _ = np_route(
        &adj,
        &cache,
        &oracle,
        &[0],
        1,
        1,
        0.0,
        &BudgetCtx::unlimited(),
    );
}

#[test]
#[should_panic(expected = "beam size must be at least 1")]
fn beam_search_rejects_zero_beam() {
    let adj: Vec<Vec<u32>> = vec![vec![]];
    let f = |_: u32| 0.0;
    let cache = DistCache::new(&f);
    let _ = beam_search(&adj, &cache, &[0], 0, 1, &BudgetCtx::unlimited());
}
