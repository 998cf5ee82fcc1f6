//! Paper-scale benchmark campaign: 1k → 10k → 100k graph tiers, written
//! to `results/BENCH_scale.json`.
//!
//! The paper evaluates LAN on SYN up to 1M graphs; this campaign walks
//! the same curve as far as a workstation reasonably goes. Each tier:
//!
//! 1. generates its database with the seed-deterministic **parallel**
//!    generator (`Dataset::generate_par` — bit-identical at any thread
//!    count, so the `LAN_STORE` cache key stays valid across hosts);
//! 2. builds (or `open`s from `LAN_STORE`) a sharded index, shard count
//!    re-tuned per tier (see the table in DESIGN.md);
//! 3. computes exact ground truth for 120 queries;
//! 4. runs the query batch under all three `LAN_SCHED` executors —
//!    `seq`, `static`, `ws` — asserting result/NDC/`ged.calls`/EXPLAIN
//!    tier-attribution identity, and timing each;
//! 5. sweeps the beam width for a recall–QPS–NDC curve;
//! 6. samples the peak-RSS gauge and checks it against the tier's
//!    recorded memory ceiling.
//!
//! A ≥ 3x work-stealing speedup over sequential is asserted at the 10k
//! tier — but only on hosts with ≥ 4 hardware threads; below that the
//! run is tagged `"underprovisioned": true` and no speedup gate applies
//! (a 1x "speedup" on 1 core is the host's property, not a regression).
//!
//! ```text
//! cargo run --release -p lan-bench --bin scale [-- --smoke]
//! ```
//!
//! `--smoke` runs the 1k tier only (CI-sized; minutes, and seconds when
//! `LAN_STORE` already holds the index).

use lan_bench::{build_sharded_cached, finish_obs, host_threads, underprovisioned};
use lan_core::{Fanout, LanConfig, QuantConfig, SearchRequest, ShardedLanIndex};
use lan_datasets::{recall_at_k_ties, Dataset, DatasetSpec};
use lan_graph::Graph;
use lan_models::ModelConfig;
use lan_par::testenv;
use lan_pg::PgConfig;
use std::time::Instant;

const K: usize = 10;
const QUERIES: usize = 120;

/// Tier table: name, database size, shard count, memory ceiling.
///
/// Shard counts are re-tuned per tier (smaller shards bound the HNSW
/// insert frontier and give the shard fan-out enough grains to steal);
/// ceilings are generous envelopes over the measured peaks — the gate
/// exists to catch an accidental O(n²) materialization, not to squeeze.
const TIERS: &[(&str, usize, usize, i64)] = &[
    ("1k", 1_000, 4, 2_000_000),
    ("10k", 10_000, 8, 4_000_000),
    ("100k", 100_000, 16, 8_000_000),
];

/// Index configuration for the campaign. Deliberately lean: the campaign
/// measures search scaling, and the Hungarian metric keeps the 100k tier
/// tractable on a workstation (BestOfThree at the 10k tier alone took
/// ~10 minutes of build in `BENCH_persist.json`).
fn scale_config() -> LanConfig {
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

/// FNV-1a over the full result lists — distances bit-for-bit, ids, and
/// order all feed the digest, so any scheduling-induced divergence shows.
fn digest(outs: &[lan_core::QueryOutcome]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for o in outs {
        eat(o.results.len() as u64);
        for &(d, id) in &o.results {
            eat(d.to_bits());
            eat(id as u64);
        }
        eat(o.ndc as u64);
    }
    h
}

struct ModeRun {
    wall_s: f64,
    qps: f64,
    digest: u64,
    total_ndc: u64,
    ged_calls: u64,
}

/// Runs the full query batch under one `LAN_SCHED` executor and captures
/// everything the identity contract covers.
fn run_mode(
    sched: &str,
    sharded: &ShardedLanIndex,
    queries: &[(usize, Graph)],
    b: usize,
) -> ModeRun {
    testenv::with_env(&[("LAN_SCHED", Some(sched))], || {
        let before = lan_obs::snapshot();
        let t0 = Instant::now();
        let outs: Vec<lan_core::QueryOutcome> =
            lan_par::par_map_dyn(queries, lan_par::Grain::Fine, |(qi, q)| {
                sharded
                    .search(
                        q,
                        &SearchRequest {
                            seed: *qi as u64,
                            ..SearchRequest::new(K, b)
                        },
                        Fanout::Seq,
                    )
                    .outcome
            });
        let wall = t0.elapsed().as_secs_f64();
        let ged_calls = lan_obs::snapshot()
            .diff(&before)
            .counter(lan_obs::names::GED_CALLS);
        ModeRun {
            wall_s: wall,
            qps: queries.len() as f64 / wall.max(1e-12),
            digest: digest(&outs),
            total_ndc: outs.iter().map(|o| o.ndc as u64).sum(),
            ged_calls,
        }
    })
}

/// Summed EXPLAIN tier attribution over a query subset — the scheduler
/// must not move a single evaluation between cascade tiers.
fn tier_attribution(
    sched: &str,
    sharded: &ShardedLanIndex,
    queries: &[(usize, Graph)],
    b: usize,
) -> (u64, u64, u64) {
    testenv::with_env(&[("LAN_SCHED", Some(sched))], || {
        let mut sums = (0u64, 0u64, 0u64);
        for (qi, q) in queries {
            let req = SearchRequest {
                seed: *qi as u64,
                explain: true,
                ..SearchRequest::new(K, b)
            };
            let ex = sharded
                .search(q, &req, Fanout::Seq)
                .explain
                .expect("plan requested");
            sums.0 += ex.tiers.lb_prunes;
            sums.1 += ex.tiers.tau_aborts;
            sums.2 += ex.tiers.full_solves;
        }
        sums
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let tiers: &[(&str, usize, usize, i64)] = if smoke { &TIERS[..1] } else { TIERS };
    let cfg = scale_config();
    let b_main = 2 * K;
    let beams = [K, 2 * K, 4 * K];
    let mut tier_jsons: Vec<String> = Vec::new();
    let mut grand_total_ndc: u64 = 0;

    for &(name, num_graphs, num_shards, mem_ceiling_kb) in tiers {
        eprintln!("=== tier {name}: {num_graphs} graphs, {num_shards} shards ===");
        let spec = DatasetSpec::syn()
            .with_graphs(num_graphs)
            .with_queries(QUERIES)
            .with_metric(lan_ged::GedMethod::Hungarian);
        let t0 = Instant::now();
        let dataset = Dataset::generate_par(spec);
        let gen_s = t0.elapsed().as_secs_f64();
        eprintln!(
            "  generated in {gen_s:.1}s (avg |V| = {:.1})",
            dataset.avg_nodes()
        );

        let t0 = Instant::now();
        let sharded = build_sharded_cached(&dataset, &cfg, num_shards);
        let build_s = t0.elapsed().as_secs_f64();
        eprintln!("  index ready in {build_s:.1}s");

        let queries: Vec<(usize, Graph)> = dataset.queries.iter().cloned().enumerate().collect();
        let t0 = Instant::now();
        let truth_kth: Vec<f64> = lan_par::par_map_dyn(&queries, lan_par::Grain::Fine, |(_, q)| {
            dataset
                .ground_truth_knn(q, K)
                .last()
                .map(|&(d, _)| d)
                .unwrap_or(f64::INFINITY)
        });
        let gt_s = t0.elapsed().as_secs_f64();
        eprintln!("  ground truth in {gt_s:.1}s");

        // The scheduler-identity contract, checked end to end at bench
        // scale (the property tests pin it at unit scale).
        let seq = run_mode("seq", &sharded, &queries, b_main);
        let sta = run_mode("static", &sharded, &queries, b_main);
        let ws = run_mode("ws", &sharded, &queries, b_main);
        assert_eq!(
            seq.digest, sta.digest,
            "static results diverged from sequential"
        );
        assert_eq!(
            seq.digest, ws.digest,
            "work-stealing results diverged from sequential"
        );
        assert_eq!(seq.total_ndc, sta.total_ndc, "static NDC diverged");
        assert_eq!(seq.total_ndc, ws.total_ndc, "work-stealing NDC diverged");
        assert_eq!(seq.ged_calls, sta.ged_calls, "static ged.calls diverged");
        assert_eq!(
            seq.ged_calls, ws.ged_calls,
            "work-stealing ged.calls diverged"
        );
        let explain_subset = &queries[..queries.len().min(8)];
        let tiers_seq = tier_attribution("seq", &sharded, explain_subset, b_main);
        let tiers_ws = tier_attribution("ws", &sharded, explain_subset, b_main);
        assert_eq!(
            tiers_seq, tiers_ws,
            "EXPLAIN tier attribution diverged across schedulers"
        );
        let speedup = ws.qps / seq.qps.max(1e-12);
        eprintln!(
            "  seq {:.2} QPS | static {:.2} QPS | ws {:.2} QPS (speedup {speedup:.2}x)",
            seq.qps, sta.qps, ws.qps
        );
        if name == "10k" && !underprovisioned() {
            assert!(
                speedup >= 3.0,
                "work-stealing speedup {speedup:.2}x at the 10k tier on a {}-thread host \
                 (floor: 3x with >= 4 threads)",
                host_threads()
            );
        }
        grand_total_ndc += seq.total_ndc + sta.total_ndc + ws.total_ndc;
        // Per plan, `lb_prunes + tau_aborts + full_solves == ndc` (the
        // reconciliation obs_check enforces).
        grand_total_ndc += tiers_seq.0 + tiers_seq.1 + tiers_seq.2;
        grand_total_ndc += tiers_ws.0 + tiers_ws.1 + tiers_ws.2;

        // Recall–QPS–NDC curve over the beam sweep (work-stealing mode).
        let mut curve: Vec<(usize, f64, f64, f64)> = Vec::new();
        for &b in &beams {
            let outs: Vec<lan_core::QueryOutcome> =
                lan_par::par_map_dyn(&queries, lan_par::Grain::Fine, |(qi, q)| {
                    sharded
                        .search(
                            q,
                            &SearchRequest {
                                seed: *qi as u64,
                                ..SearchRequest::new(K, b)
                            },
                            Fanout::Seq,
                        )
                        .outcome
                });
            let recall = outs
                .iter()
                .zip(&truth_kth)
                .map(|(o, &kth)| recall_at_k_ties(&o.results, kth, K))
                .sum::<f64>()
                / outs.len() as f64;
            let ndc: u64 = outs.iter().map(|o| o.ndc as u64).sum();
            grand_total_ndc += ndc;
            let wall: f64 = outs.iter().map(|o| o.total_time.as_secs_f64()).sum();
            let qps = outs.len() as f64 / wall.max(1e-12);
            eprintln!(
                "  b={b:<3} recall@{K}={recall:.3} QPS={qps:.2} avgNDC={:.1}",
                ndc as f64 / outs.len() as f64
            );
            curve.push((b, recall, qps, ndc as f64 / outs.len() as f64));
        }
        // Curve-shape sanity: recall must not collapse as the beam widens
        // (the parity contract the CI smoke run holds the 1k tier to).
        let first = curve.first().unwrap().1;
        let last = curve.last().unwrap().1;
        assert!(
            last + 1e-9 >= first - 0.05,
            "recall curve degenerates with beam width: {first:.3} -> {last:.3}"
        );

        let peak_rss_kb = lan_obs::mem::sample_peak_rss();
        if peak_rss_kb > 0 {
            assert!(
                peak_rss_kb < mem_ceiling_kb,
                "tier {name} peak RSS {peak_rss_kb} kB exceeds the recorded ceiling \
                 {mem_ceiling_kb} kB"
            );
        }
        eprintln!("  peak RSS {peak_rss_kb} kB (ceiling {mem_ceiling_kb} kB)");

        let curve_json: Vec<String> = curve
            .iter()
            .map(|&(b, recall, qps, avg_ndc)| {
                format!(
                    "        {{\"b\": {b}, \"recall\": {recall:.4}, \"qps\": {qps:.3}, \
                     \"avg_ndc\": {avg_ndc:.2}}}"
                )
            })
            .collect();
        tier_jsons.push(format!(
            "    {{\n      \"tier\": \"{name}\",\n      \"graphs\": {num_graphs},\n      \
             \"queries\": {},\n      \"num_shards\": {num_shards},\n      \
             \"gen_wall_s\": {gen_s:.3},\n      \"build_wall_s\": {build_s:.3},\n      \
             \"ground_truth_wall_s\": {gt_s:.3},\n      \"total_ndc\": {},\n      \
             \"sequential\": {{\"wall_s\": {:.4}, \"qps\": {:.3}}},\n      \
             \"static\": {{\"wall_s\": {:.4}, \"qps\": {:.3}}},\n      \
             \"work_stealing\": {{\"wall_s\": {:.4}, \"qps\": {:.3}}},\n      \
             \"speedup\": {speedup:.3},\n      \"peak_rss_kb\": {peak_rss_kb},\n      \
             \"mem_ceiling_kb\": {mem_ceiling_kb},\n      \"curve\": [\n{}\n      ]\n    }}",
            queries.len(),
            seq.total_ndc,
            seq.wall_s,
            seq.qps,
            sta.wall_s,
            sta.qps,
            ws.wall_s,
            ws.qps,
            curve_json.join(",\n"),
        ));
    }

    std::fs::create_dir_all("results").expect("create results/");
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n{}  \"underprovisioned\": {},\n  \"smoke\": {smoke},\n  \
         \"k\": {K},\n  \"tiers\": [\n{}\n  ]\n}}\n",
        lan_bench::host_header_json(),
        underprovisioned(),
        tier_jsons.join(",\n"),
    );
    std::fs::write("results/BENCH_scale.json", &json).expect("write results/BENCH_scale.json");
    eprintln!("wrote results/BENCH_scale.json");
    finish_obs("scale", &[("total_ndc", grand_total_ndc)]);
}
