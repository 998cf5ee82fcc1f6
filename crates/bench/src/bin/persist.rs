//! Persistent-store cold-start benchmark, written to
//! `results/BENCH_persist.json`.
//!
//! Measures the point of the on-disk index store: a process that `open`s
//! a saved index answers queries after milliseconds of IO instead of the
//! minutes of GED computations and model training a rebuild costs. The
//! run builds an index, saves it, reopens it, and
//!
//! * asserts **bit-identity** — the loaded index answers a probe workload
//!   (both routers, several seeds) with exactly the same `(distance, id)`
//!   results and NDC as the index that built it;
//! * records the **cold-start ratio** `build_wall_s / load_wall_s` and
//!   gates it: ≥ 50x at the 10k-graph tier (the acceptance criterion),
//!   ≥ 10x at smoke size.
//!
//! ```text
//! cargo run --release -p lan-bench --bin persist [-- --smoke]
//! cargo run --release -p lan-bench --bin persist -- --smoke --save  /tmp/idx.lan
//! cargo run --release -p lan-bench --bin persist -- --smoke --check /tmp/idx.lan
//! ```
//!
//! The `--save`/`--check` pair splits the run across two *processes* for
//! the CI `persist-smoke` job: `--save` builds, probes, saves the store
//! file plus a `<path>.digest` of the probe answers; `--check` starts
//! cold, opens the file, re-runs the probe workload, and exits nonzero
//! unless every digest matches — a cross-process replay of the
//! bit-identity contract (no build-state can leak into the loaded run).

use lan_bench::{build_index_exact, sized_spec, Scale};
use lan_core::{InitStrategy, LanIndex, RouteStrategy, SearchRequest};
use lan_datasets::DatasetSpec;
use std::process::ExitCode;
use std::time::Instant;

/// Probe workload: every strategy pair the store must replay identically.
const STRATEGIES: [(InitStrategy, RouteStrategy, &str); 3] = [
    (
        InitStrategy::LanIs,
        RouteStrategy::LanRoute { use_cg: true },
        "lan",
    ),
    (
        InitStrategy::LanIs,
        RouteStrategy::LanRoute { use_cg: false },
        "lan_nocg",
    ),
    (InitStrategy::HnswIs, RouteStrategy::HnswRoute, "hnsw"),
];

/// FNV-1a64 over a query outcome: distance bit patterns, ids, and NDC.
/// Bit-exact equality of outcomes <=> equal digests.
fn digest(results: &[(f64, u32)], ndc: usize) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |b: u64| {
        for i in 0..8 {
            h ^= (b >> (8 * i)) & 0xff;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for &(d, id) in results {
        mix(d.to_bits());
        mix(id as u64);
    }
    mix(ndc as u64);
    h
}

/// Runs the probe workload, one digest per (strategy, query, seed).
fn probe(index: &LanIndex, queries: usize) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let nq = index.dataset.queries.len().min(queries);
    for (init, route, tag) in STRATEGIES {
        for qi in 0..nq {
            let q = index.dataset.queries[qi].clone();
            for seed in [0u64, 7] {
                let req = SearchRequest {
                    init,
                    route,
                    seed,
                    ..SearchRequest::new(5, 8)
                };
                let o = index.search(&q, &req).outcome;
                out.push((format!("{tag}.q{qi}.s{seed}"), digest(&o.results, o.ndc)));
            }
        }
    }
    out
}

fn spec_for(smoke: bool) -> (DatasetSpec, usize) {
    if smoke {
        let spec = sized_spec(DatasetSpec::syn(), Scale::Small);
        (spec, 4)
    } else {
        // The acceptance tier: 10k SYN graphs — the scale the ROADMAP's
        // every-run-rebuilds-the-world bottleneck caps today.
        (DatasetSpec::syn().with_graphs(10_000).with_queries(40), 6)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let path_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .map(|i| args.get(i + 1).cloned().expect("flag needs a path"))
    };
    let (spec, probe_queries) = spec_for(smoke);

    // --check: the cold process. Nothing is built; open + probe + compare.
    if let Some(path) = path_after("--check") {
        let t0 = Instant::now();
        let index = match LanIndex::open(path.as_ref()) {
            Ok(i) => i,
            Err(e) => {
                eprintln!("persist: FAIL: cannot open {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let load_s = t0.elapsed().as_secs_f64();
        let fresh = probe(&index, probe_queries);
        let expected = std::fs::read_to_string(format!("{path}.digest"))
            .expect("read digest file written by --save");
        let mut bad = 0usize;
        let mut lines = expected.lines();
        for (key, d) in &fresh {
            match lines.next() {
                Some(l) if l == format!("{key} {d:016x}") => {}
                Some(l) => {
                    eprintln!("persist: MISMATCH {key}: saved run '{l}', cold run {d:016x}");
                    bad += 1;
                }
                None => {
                    eprintln!("persist: MISMATCH {key}: missing from saved digest");
                    bad += 1;
                }
            }
        }
        eprintln!(
            "persist: cold process loaded {} graphs in {load_s:.4}s, \
             {} probes checked, {bad} mismatches",
            index.dataset.graphs.len(),
            fresh.len()
        );
        if bad > 0 {
            return ExitCode::FAILURE;
        }
        eprintln!("persist: OK (cold process bit-identical)");
        return ExitCode::SUCCESS;
    }

    // Build (the cost the store amortizes away) — build_index_exact
    // bypasses the LAN_STORE cache and the scale's database re-sizing:
    // the whole point is measuring a real rebuild at this exact tier.
    let scale = Scale::from_env();
    let t0 = Instant::now();
    let index = build_index_exact(spec, scale);
    let build_s = t0.elapsed().as_secs_f64();
    let digests = probe(&index, probe_queries);

    // --save: persist store + digests for a later --check process.
    if let Some(path) = path_after("--save") {
        let bytes = index.save(path.as_ref()).expect("save index");
        let body: String = digests
            .iter()
            .map(|(k, d)| format!("{k} {d:016x}\n"))
            .collect();
        std::fs::write(format!("{path}.digest"), body).expect("write digest");
        eprintln!(
            "persist: saved {bytes} bytes to {path} (+ {} probe digests)",
            digests.len()
        );
        return ExitCode::SUCCESS;
    }

    // In-process benchmark: save, reopen, compare, gate, report.
    let store_path =
        std::env::temp_dir().join(format!("lan_persist_bench_{}.lan", std::process::id()));
    let t1 = Instant::now();
    let bytes = index.save(&store_path).expect("save index");
    let save_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let loaded = LanIndex::open(&store_path).expect("open index");
    let load_s = t2.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&store_path);

    let fresh = probe(&loaded, probe_queries);
    let mismatches = digests.iter().zip(&fresh).filter(|(a, b)| a != b).count();
    assert_eq!(
        mismatches, 0,
        "loaded index diverged from the build on {mismatches} probes"
    );

    let speedup = build_s / load_s.max(1e-9);
    let tier = if smoke { "smoke" } else { "10k" };
    let gate = if smoke { 10.0 } else { 50.0 };
    eprintln!(
        "persist: tier={tier} graphs={} build={build_s:.2}s save={save_s:.3}s \
         load={load_s:.4}s bytes={bytes} cold-start speedup={speedup:.0}x (gate {gate:.0}x)",
        loaded.dataset.graphs.len()
    );
    assert!(
        speedup >= gate,
        "cold-start load is only {speedup:.1}x faster than rebuild (gate {gate:.0}x)"
    );

    std::fs::create_dir_all("results").expect("create results/");
    let json = format!(
        "{{\n  \"bench\": \"persist\",\n{}  \"tier\": \"{tier}\",\n  \"graphs\": {},\n  \
         \"probes\": {},\n  \"store_bytes\": {bytes},\n  \"build_wall_s\": {build_s:.3},\n  \
         \"save_wall_s\": {save_s:.4},\n  \"load_wall_s\": {load_s:.5},\n  \
         \"cold_start_speedup\": {speedup:.1},\n  \"identity_mismatches\": {mismatches}\n}}\n",
        lan_bench::host_header_json(),
        loaded.dataset.graphs.len(),
        fresh.len(),
    );
    std::fs::write("results/BENCH_persist.json", &json).expect("write results/BENCH_persist.json");
    eprintln!("wrote results/BENCH_persist.json");
    ExitCode::SUCCESS
}
