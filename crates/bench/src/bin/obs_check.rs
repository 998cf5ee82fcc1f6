//! Schema check for the exported observability artifacts — the CI gate
//! behind the `obs-smoke` job.
//!
//! ```text
//! obs_check <BENCH_obs.json> [trace.jsonl] [explain.jsonl]
//! ```
//!
//! Verifies that the metrics snapshot contains every counter the query
//! path is instrumented with, that the exported `ged.calls` equals the
//! bench's independently summed `total_ndc` (the NDC-equals-cache-misses
//! invariant end to end), and — when a trace file is given — that it is
//! non-empty, line-delimited JSON with the expected hop fields. When an
//! EXPLAIN file is given, every line must be a complete plan whose tier
//! attribution reconciles exactly: `lb_prunes + tau_aborts + full_solves
//! == ndc`. Exits non-zero on the first violation.

use std::process::ExitCode;

/// Counters every instrumented bench run must have exported.
const REQUIRED_COUNTERS: &[&str] = &[
    "ged.calls",
    "ged.cache.hit",
    "ged.cache.miss",
    "route.hops",
    "route.batches_opened",
    "gnn.forward_calls",
    "gnn.infer.forwards",
    "gnn.infer.cache.hit",
    "gnn.infer.cache.miss",
    "query.count",
    // The EXPLAIN / profiler / trace families register at LanIndex build
    // time; zeros when the switches are off — presence is the contract.
    "explain.queries",
    "explain.dropped",
    "profile.spans",
    "trace.dropped",
    // Peak-RSS gauge, sampled at phase boundaries (`lan_obs::mem`). Zero
    // on non-Linux hosts — presence is the schema contract there too.
    "mem.peak_rss_kb",
];

/// Finds `"key": <number>` in a JSON document and parses the number.
/// A tiny scanner, not a JSON parser — the documents are machine-written
/// by `lan-obs`'s exporter with exactly this shape.
fn json_u64(doc: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("obs_check: FAIL: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(obs_path) = args.first() else {
        return fail("usage: obs_check <BENCH_obs.json> [trace.jsonl]");
    };
    let doc = match std::fs::read_to_string(obs_path) {
        Ok(d) => d,
        Err(e) => return fail(&format!("cannot read {obs_path}: {e}")),
    };

    for key in REQUIRED_COUNTERS {
        if json_u64(&doc, key).is_none() {
            return fail(&format!("{obs_path} is missing required counter {key:?}"));
        }
    }

    let ged_calls = json_u64(&doc, "ged.calls").unwrap();
    match json_u64(&doc, "total_ndc") {
        Some(total_ndc) if total_ndc != ged_calls => {
            return fail(&format!(
                "ged.calls ({ged_calls}) != bench-reported total_ndc ({total_ndc})"
            ));
        }
        Some(total_ndc) => {
            eprintln!("obs_check: ged.calls == total_ndc == {total_ndc}");
        }
        None => eprintln!("obs_check: no total_ndc in {obs_path}; skipping NDC cross-check"),
    }
    if json_u64(&doc, "query.count") == Some(0) {
        return fail("query.count is 0 — the bench ran no queries");
    }
    if cfg!(target_os = "linux") && json_u64(&doc, "mem.peak_rss_kb") == Some(0) {
        return fail("mem.peak_rss_kb is 0 on Linux — the peak-RSS probe never sampled");
    }

    if let Some(trace_path) = args.get(1) {
        let trace = match std::fs::read_to_string(trace_path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("cannot read {trace_path}: {e}")),
        };
        let mut hops = 0usize;
        for (i, line) in trace.lines().enumerate() {
            if !(line.starts_with('{') && line.ends_with('}')) {
                return fail(&format!("{trace_path}:{}: not a JSON object", i + 1));
            }
            if line.contains("\"ev\":\"hop\"") {
                for field in ["\"q\":", "\"hop\":", "\"node\":", "\"d\":", "\"gamma\":"] {
                    if !line.contains(field) {
                        return fail(&format!(
                            "{trace_path}:{}: hop event missing {field}",
                            i + 1
                        ));
                    }
                }
                hops += 1;
            }
        }
        if hops == 0 {
            return fail(&format!("{trace_path} contains no hop events"));
        }
        eprintln!("obs_check: {hops} hop events OK in {trace_path}");
    }

    if let Some(explain_path) = args.get(2) {
        let plans = match std::fs::read_to_string(explain_path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("cannot read {explain_path}: {e}")),
        };
        let mut n = 0usize;
        for (i, line) in plans.lines().enumerate() {
            if !(line.starts_with('{') && line.ends_with('}')) {
                return fail(&format!("{explain_path}:{}: not a JSON object", i + 1));
            }
            for field in [
                "\"q\":",
                "\"k\":",
                "\"b\":",
                "\"init\":",
                "\"route\":",
                "\"term\":",
                "\"ns\":",
                "\"ndc\":",
                "\"cache_hits\":",
                "\"hops\":",
                "\"tiers\":",
                "\"budget\":",
                "\"timeline\":",
                "\"shards\":",
            ] {
                if !line.contains(field) {
                    return fail(&format!(
                        "{explain_path}:{}: EXPLAIN plan missing {field}",
                        i + 1
                    ));
                }
            }
            // Tier reconciliation per plan. The scanner reads the *first*
            // occurrence of each key, which is the top-level (merged) plan
            // — "tiers" precedes the nested "shards" sub-plans by schema.
            let ndc = json_u64(line, "ndc");
            let lb = json_u64(line, "lb_prunes");
            let tau = json_u64(line, "tau_aborts");
            let full = json_u64(line, "full_solves");
            match (ndc, lb, tau, full) {
                (Some(ndc), Some(lb), Some(tau), Some(full)) => {
                    if lb + tau + full != ndc {
                        return fail(&format!(
                            "{explain_path}:{}: tier attribution {lb}+{tau}+{full} != ndc {ndc}",
                            i + 1
                        ));
                    }
                }
                _ => {
                    return fail(&format!(
                        "{explain_path}:{}: plan missing ndc/tier counts",
                        i + 1
                    ))
                }
            }
            n += 1;
        }
        if n == 0 {
            return fail(&format!("{explain_path} contains no EXPLAIN plans"));
        }
        let emitted = json_u64(&doc, "explain.queries").unwrap_or(0);
        if emitted == 0 {
            return fail("explain.queries is 0 but an EXPLAIN file was produced");
        }
        eprintln!("obs_check: {n} EXPLAIN plans reconcile in {explain_path}");
    }

    eprintln!("obs_check: OK");
    ExitCode::SUCCESS
}
