//! Criterion microbenchmark: baseline beam search vs oracle np_route on a
//! synthetic metric space — isolates the Algorithm 2 control-flow overhead
//! and its NDC savings from the GED cost.

use criterion::{criterion_group, criterion_main, Criterion};
use lan_pg::np_route::{np_route, OracleRanker};
use lan_pg::{beam_search, BudgetCtx, DistCache, PairCache, PgConfig, ProximityGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn setup(n: usize) -> (Vec<Vec<u32>>, Vec<f64>, u32) {
    let mut rng = StdRng::seed_from_u64(3);
    let pts: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..100.0)).collect();
    let pts2 = pts.clone();
    let f = move |a: u32, b: u32| (pts2[a as usize] - pts2[b as usize]).abs();
    let pairs = PairCache::new(&f);
    let pg = ProximityGraph::build(n, &pairs, &PgConfig::new(8));
    let q = 37.5f64;
    let dists: Vec<f64> = pts.iter().map(|p| (p - q).abs()).collect();
    (pg.base().to_vec(), dists, pg.entry)
}

fn bench_routing(c: &mut Criterion) {
    let (adj, dists, entry) = setup(2000);
    let mut group = c.benchmark_group("routing");
    group.bench_function("baseline_beam", |b| {
        b.iter(|| {
            let f = |id: u32| dists[id as usize];
            let cache = DistCache::new(&f);
            beam_search(&adj, &cache, &[entry], 32, 10, &BudgetCtx::unlimited())
        })
    });
    group.bench_function("np_route_oracle", |b| {
        b.iter(|| {
            let f = |id: u32| dists[id as usize];
            let cache = DistCache::new(&f);
            let oracle = OracleRanker::new(&f, 20);
            np_route(
                &adj,
                &cache,
                &oracle,
                &[entry],
                32,
                10,
                1.0,
                &BudgetCtx::unlimited(),
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_routing
}
criterion_main!(benches);
