//! Criterion microbenchmark pinning down the observability layer's cost:
//! counter increments, histogram records, and spans, with the registry
//! enabled vs disabled — the "zero-overhead when disabled" claim, plus an
//! end-to-end routing comparison showing the enabled cost drowns in the
//! distance computations it measures.

use criterion::{criterion_group, criterion_main, Criterion};
use lan_obs::span;
use lan_pg::np_route::{np_route, OracleRanker};
use lan_pg::{BudgetCtx, DistCache, PairCache, PgConfig, ProximityGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_primitives(c: &mut Criterion) {
    let counter = lan_obs::counter("bench.obs.counter");
    let hist = lan_obs::histogram("bench.obs.hist");
    let mut group = c.benchmark_group("obs_primitives");

    lan_obs::set_enabled(false);
    group.bench_function("counter_inc_disabled", |b| b.iter(|| counter.inc()));
    group.bench_function("histogram_record_disabled", |b| b.iter(|| hist.record(42)));
    group.bench_function("span_disabled", |b| {
        b.iter(|| {
            let _s = span("bench.obs.span");
        })
    });

    lan_obs::set_enabled(true);
    group.bench_function("counter_inc_enabled", |b| b.iter(|| counter.inc()));
    group.bench_function("histogram_record_enabled", |b| b.iter(|| hist.record(42)));
    group.bench_function("span_enabled", |b| {
        b.iter(|| {
            let _s = span("bench.obs.span");
        })
    });
    group.finish();
}

/// The EXPLAIN/profiler disabled paths: the acceptance bar is a single
/// relaxed atomic load per check — same cost class as
/// `counter_inc_disabled` above, nanoseconds against a microseconds-scale
/// query. `span_profile_off` shows an *enabled metrics* span still pays
/// nothing extra for the profiler being off.
fn bench_explain_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_explain");

    lan_obs::explain::set_enabled(false);
    lan_obs::profile::set_enabled(false);
    group.bench_function("explain_enabled_check_disabled", |b| {
        b.iter(lan_obs::explain::enabled)
    });
    group.bench_function("profile_enabled_check_disabled", |b| {
        b.iter(lan_obs::profile::enabled)
    });
    lan_obs::set_enabled(true);
    group.bench_function("span_profile_off", |b| {
        b.iter(|| {
            let _s = span("bench.obs.span");
        })
    });
    lan_obs::profile::set_enabled(true);
    group.bench_function("span_profile_on", |b| {
        b.iter(|| {
            let _s = span("bench.obs.span");
        })
    });
    lan_obs::profile::set_enabled(false);
    group.finish();
}

fn bench_routing_overhead(c: &mut Criterion) {
    let n = 2000usize;
    let mut rng = StdRng::seed_from_u64(3);
    let pts: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..100.0)).collect();
    let pts2 = pts.clone();
    let pf = move |a: u32, b: u32| (pts2[a as usize] - pts2[b as usize]).abs();
    let pairs = PairCache::new_uncounted(&pf);
    let pg = ProximityGraph::build(n, &pairs, &PgConfig::new(8));
    let dists: Vec<f64> = pts.iter().map(|p| (p - 37.5).abs()).collect();
    let entry = pg.entry;
    let adj = pg.base().to_vec();

    let mut group = c.benchmark_group("obs_routing");
    for (label, on) in [
        ("np_route_metrics_off", false),
        ("np_route_metrics_on", true),
    ] {
        lan_obs::set_enabled(on);
        group.bench_function(label, |b| {
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
    }
    lan_obs::set_enabled(true);
    group.finish();
}

criterion_group!(
    benches,
    bench_primitives,
    bench_explain_overhead,
    bench_routing_overhead
);
criterion_main!(benches);
