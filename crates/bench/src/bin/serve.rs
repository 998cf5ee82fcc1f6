//! Closed-loop serving load generator, written to
//! `results/BENCH_serve.json`.
//!
//! Boots the `lan-serve` front-end in-process over a `LAN_STORE`-cached
//! SYN tier (1k graphs / 4 shards under `--smoke`, 10k / 8 shards
//! otherwise — the scale campaign's cache keys, so a primed store boots
//! in seconds) and drives it with N closed-loop TCP clients, sweeping
//! N ∈ {1, 8, 64, 256} under two serving configurations:
//!
//! * **batch1** — micro-batching disabled (`batch = 1`, no batch wait):
//!   every query is scored alone, the pre-serving baseline;
//! * **batched** — the default micro-batch (`batch = 8`) with a bounded
//!   batch wait: each shard worker runs a batch's queries concurrently,
//!   every query scoring its own hops (no cross-query fusion).
//!
//! The request schedule is fixed per sweep point (client `c`'s `j`-th
//! request is query `(c·R + j) mod |Q|` with the query index as seed),
//! so both configurations answer the *same* request multiset and the
//! FNV-1a digest over full result lists (distance bits, ids, order, NDC)
//! must match between them — batching that changed any result bit would
//! show here. Per sweep point the bench records QPS, exact p50/p95/p99
//! client-side latency, batch-occupancy summary (from the
//! `serve.batch.occupancy` histogram), shed count, and total NDC; an
//! overload probe with an already-expired deadline then checks that load
//! shedding degrades into typed `overloaded` responses at rate 1.0.
//!
//! At 64 clients on a host with ≥ 4 hardware threads, batched QPS must
//! be ≥ 1.5x batch1 QPS at equal recall (digest equality *is* the equal
//! recall proof); below 4 threads the run is tagged
//! `"gate_status": "underprovisioned"` and no floor applies.
//!
//! ```text
//! cargo run --release -p lan-bench --bin serve [-- --smoke]
//! ```

use lan_bench::{build_sharded_cached, finish_obs, host_threads, underprovisioned};
use lan_core::{LanConfig, QuantConfig, ShardedLanIndex};
use lan_datasets::{Dataset, DatasetSpec};
use lan_graph::Graph;
use lan_models::ModelConfig;
use lan_pg::PgConfig;
use lan_serve::{serve, Client, Response, SearchCall, ServeConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const K: usize = 10;
const B: usize = 2 * K;
const QUERIES: usize = 120;
const CLIENT_SWEEP: &[usize] = &[1, 8, 64, 256];
const BATCHED_BATCH: usize = 8;
const BATCHED_WAIT_US: u64 = 1000;

/// The scale campaign's index configuration (shared `LAN_STORE` keys).
fn serve_bench_config() -> LanConfig {
    LanConfig {
        pg: PgConfig::new(6),
        model: ModelConfig {
            embed_dim: 16,
            epochs: 2,
            max_samples_per_epoch: 300,
            nh_cover_k: 20,
            clusters: 6,
            top_clusters: 2,
            mlp_hidden: 16,
            ..ModelConfig::default()
        },
        ds: 1.0,
        quant: QuantConfig::default(),
    }
}

/// One answered request: (request id, full result list, NDC).
type ReqResult = (usize, Vec<(f64, u32)>, u64);

/// FNV-1a over rid-ordered full result lists — distance bits, ids,
/// order, and NDC all feed the digest (the equal-recall proof between
/// serving configurations).
fn digest(outs: &[ReqResult]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for (rid, results, ndc) in outs {
        eat(*rid as u64);
        eat(results.len() as u64);
        for &(d, id) in results {
            eat(d.to_bits());
            eat(id as u64);
        }
        eat(*ndc);
    }
    h
}

/// Exact percentile over the recorded per-request latencies.
fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct LoadRun {
    requests: usize,
    wall_s: f64,
    qps: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    shed: u64,
    digest: u64,
    total_ndc: u64,
    occupancy_batches: u64,
    occupancy_mean_x1000: u64,
}

impl LoadRun {
    fn to_json(&self) -> String {
        format!(
            "{{\"requests\": {}, \"wall_s\": {:.4}, \"qps\": {:.3}, \"p50_us\": {}, \
             \"p95_us\": {}, \"p99_us\": {}, \"shed\": {}, \"digest\": \"{:#018x}\", \
             \"total_ndc\": {}, \"occupancy_batches\": {}, \"occupancy_mean_x1000\": {}}}",
            self.requests,
            self.wall_s,
            self.qps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.shed,
            self.digest,
            self.total_ndc,
            self.occupancy_batches,
            self.occupancy_mean_x1000,
        )
    }
}

/// Drives `clients` closed-loop TCP clients against a freshly booted
/// server (ephemeral port, `batch`/`wait_us` serving configuration),
/// `per_client` requests each, and collects the sweep-point record.
fn run_load(
    index: &Arc<ShardedLanIndex>,
    queries: &Arc<Vec<Graph>>,
    clients: usize,
    per_client: usize,
    batch: usize,
    wait_us: u64,
    deadline_ms: Option<u64>,
) -> LoadRun {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        batch,
        batch_wait: Duration::from_micros(wait_us),
        max_inflight: 1024,
    };
    let handle = serve(Arc::clone(index), cfg).expect("bind ephemeral port");
    let addr = handle.addr();
    let before = lan_obs::snapshot();
    let t0 = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let queries = Arc::clone(queries);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect load client");
                let mut oks: Vec<ReqResult> = Vec::new();
                let mut lat_us: Vec<u64> = Vec::new();
                let mut shed = 0u64;
                for j in 0..per_client {
                    let rid = c * per_client + j;
                    let qi = rid % queries.len();
                    let mut call = SearchCall::new(&queries[qi], K, B, qi as u64);
                    call.deadline_ms = deadline_ms;
                    let t_req = Instant::now();
                    let resp = client.search(&call).expect("request round-trip");
                    lat_us.push(t_req.elapsed().as_micros() as u64);
                    match resp {
                        Response::Ok(ok) => oks.push((rid, ok.results, ok.ndc)),
                        Response::Overloaded { .. } => shed += 1,
                        Response::Error { reason } => panic!("request {rid} rejected: {reason}"),
                    }
                }
                (oks, lat_us, shed)
            })
        })
        .collect();
    let mut oks: Vec<ReqResult> = Vec::new();
    let mut lat_us: Vec<u64> = Vec::new();
    let mut shed = 0u64;
    for t in threads {
        let (o, l, s) = t.join().expect("load client thread");
        oks.extend(o);
        lat_us.extend(l);
        shed += s;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    handle.shutdown();
    let diff = lan_obs::snapshot().diff(&before);
    let occ = diff.histogram(lan_obs::names::SERVE_BATCH_OCCUPANCY);
    oks.sort_by_key(|&(rid, _, _)| rid);
    lat_us.sort_unstable();
    let requests = clients * per_client;
    LoadRun {
        requests,
        wall_s,
        qps: requests as f64 / wall_s.max(1e-12),
        p50_us: percentile_us(&lat_us, 0.50),
        p95_us: percentile_us(&lat_us, 0.95),
        p99_us: percentile_us(&lat_us, 0.99),
        shed,
        digest: digest(&oks),
        total_ndc: oks.iter().map(|&(_, _, ndc)| ndc).sum(),
        occupancy_batches: occ.count,
        occupancy_mean_x1000: (occ.mean() * 1000.0) as u64,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (num_graphs, num_shards, total_requests): (usize, usize, usize) = if smoke {
        (1_000, 4, 96)
    } else {
        (10_000, 8, 256)
    };
    eprintln!("=== serve bench: {num_graphs} graphs, {num_shards} shards ===");
    let spec = DatasetSpec::syn()
        .with_graphs(num_graphs)
        .with_queries(QUERIES)
        .with_metric(lan_ged::GedMethod::Hungarian);
    let dataset = Dataset::generate_par(spec);
    let t0 = Instant::now();
    let index = Arc::new(build_sharded_cached(
        &dataset,
        &serve_bench_config(),
        num_shards,
    ));
    eprintln!("  index ready in {:.1}s", t0.elapsed().as_secs_f64());
    let queries = Arc::new(dataset.queries.clone());

    let mut sweep_jsons: Vec<String> = Vec::new();
    let mut gate_status = if underprovisioned() {
        "underprovisioned".to_string()
    } else {
        "pending".to_string()
    };
    let mut grand_total_ndc = 0u64;
    for &clients in CLIENT_SWEEP {
        let per_client = total_requests.div_ceil(clients);
        let solo = run_load(&index, &queries, clients, per_client, 1, 0, None);
        let batched = run_load(
            &index,
            &queries,
            clients,
            per_client,
            BATCHED_BATCH,
            BATCHED_WAIT_US,
            None,
        );
        // Digest equality is the equal-recall proof: same request
        // multiset, bit-identical answers under both configurations.
        assert_eq!(
            solo.digest, batched.digest,
            "{clients} clients: batched results diverged from batch=1"
        );
        assert_eq!(
            solo.total_ndc, batched.total_ndc,
            "{clients} clients: batched NDC diverged from batch=1"
        );
        assert_eq!(
            (solo.shed, batched.shed),
            (0, 0),
            "unexpected shed in sweep"
        );
        let speedup = batched.qps / solo.qps.max(1e-12);
        eprintln!(
            "  clients={clients:<4} batch1 {:>8.2} QPS | batched {:>8.2} QPS \
             ({speedup:.2}x, occupancy {:.2}, p95 {}us -> {}us)",
            solo.qps,
            batched.qps,
            batched.occupancy_mean_x1000 as f64 / 1000.0,
            solo.p95_us,
            batched.p95_us,
        );
        if clients == 64 && !underprovisioned() {
            if speedup >= 1.5 {
                gate_status = "passed".to_string();
            } else {
                panic!(
                    "batched QPS gate: {speedup:.2}x at 64 clients on a {}-thread host \
                     (floor: 1.5x with >= 4 threads)",
                    host_threads()
                );
            }
        }
        grand_total_ndc += solo.total_ndc + batched.total_ndc;
        sweep_jsons.push(format!(
            "    {{\n      \"clients\": {clients},\n      \"speedup\": {speedup:.3},\n      \
             \"batch1\": {},\n      \"batched\": {}\n    }}",
            solo.to_json(),
            batched.to_json(),
        ));
    }

    // Overload probe: an already-expired deadline must shed every request
    // as a typed `overloaded` response — the degradation path, exercised
    // deterministically.
    let overload = run_load(
        &index,
        &queries,
        8,
        4,
        BATCHED_BATCH,
        BATCHED_WAIT_US,
        Some(0),
    );
    assert_eq!(
        overload.shed as usize, overload.requests,
        "expired-deadline probe must shed every request"
    );
    eprintln!(
        "  overload probe: {}/{} shed (typed overloaded)",
        overload.shed, overload.requests
    );

    std::fs::create_dir_all("results").expect("create results/");
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n{}  \"underprovisioned\": {},\n  \"smoke\": {smoke},\n  \
         \"k\": {K},\n  \"b\": {B},\n  \"graphs\": {num_graphs},\n  \
         \"num_shards\": {num_shards},\n  \"gate_status\": \"{gate_status}\",\n  \
         \"sweep\": [\n{}\n  ],\n  \"overload\": {{\"requests\": {}, \"shed\": {}, \
         \"shed_rate\": {:.1}}}\n}}\n",
        lan_bench::host_header_json(),
        underprovisioned(),
        sweep_jsons.join(",\n"),
        overload.requests,
        overload.shed,
        overload.shed as f64 / overload.requests as f64,
    );
    std::fs::write("results/BENCH_serve.json", &json).expect("write results/BENCH_serve.json");
    eprintln!("wrote results/BENCH_serve.json");
    finish_obs("serve", &[("total_ndc", grand_total_ndc)]);
}
