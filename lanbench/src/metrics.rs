//! The metric catalogue and the result line.
//!
//! Every metric the benchmark prints is declared here once, with its unit
//! and direction; `BENCHMARK.json` at the repository root lists the same
//! names (a test keeps the two in step). With `--trace 0` the result line
//! carries exactly the [`END_TO_END`] metrics, with `--trace 1` exactly
//! the [`PER_LAYER`] ones.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the index sees, measured with tracing off. The same
/// names on every workload; on the served workload a query is one request
/// as the client sees it.
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s", Lower),
    m("setup_cpu_s", "s", Lower),
    m("qps", "1/s", Higher),
    m("query_p50_ms", "ms", Lower),
    m("query_p95_ms", "ms", Lower),
    m("query_cpu_ms", "ms", Lower),
    m("recall_at_k", "ratio", Higher),
    m("ndc_per_query", "count", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("answered_share", "ratio", Higher),
];

/// One or more numbers per crate layer, from the traced pass and the
/// program's own published counters. A layer a workload does not run
/// (the store and the server on the offline workloads, the shard fan-out
/// on the flat index) reads 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    m("datasets.generate_s", "s", Lower),
    m("pg.build_s", "s", Lower),
    m("pg.build_ndc", "count", Lower),
    m("core.train_dists_s", "s", Lower),
    m("models.train_s", "s", Lower),
    m("models.nh_precision", "ratio", Higher),
    m("build.unattributed_ms", "ms", Lower),
    m("core.init_ms", "ms", Lower),
    m("core.route_ms", "ms", Lower),
    m("core.fanout_ms", "ms", Lower),
    m("core.unattributed_ms", "ms", Lower),
    m("ged.ms_per_query", "ms", Lower),
    m("ged.full_solve_share", "ratio", Lower),
    m("ged.full_evals_per_query", "count", Lower),
    m("ged.cache_hit_rate", "ratio", Higher),
    m("gnn.ms_per_query", "ms", Lower),
    m("gnn.forwards_per_query", "count", Lower),
    m("gnn.cache_hit_rate", "ratio", Higher),
    m("pg.hops_per_query", "count", Lower),
    m("pg.batches_opened_per_query", "count", Lower),
    m("pg.gamma_prune_share", "ratio", Higher),
    m("par.busy_share", "ratio", Higher),
    m("store.save_s", "s", Lower),
    m("store.open_s", "s", Lower),
    m("store.bytes", "bytes", Lower),
    m("serve.server_ms", "ms", Lower),
    m("serve.wire_ms", "ms", Lower),
    m("serve.batch_occupancy", "count", Higher),
    m("serve.cross_query_share", "ratio", Higher),
    m("serve.shed", "count", Lower),
    m("obs.trace_overhead", "ratio", Lower),
];

/// Metric and workload names: a letter or digit first, then at most 63
/// more of `[A-Za-z0-9_.-]`.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// Units: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Why a result line could not be rendered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    Missing(String),
    Unexpected(String),
    NotFinite(String),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Missing(n) => write!(f, "metric {n} was not measured"),
            ReportError::Unexpected(n) => write!(f, "metric {n} is not declared"),
            ReportError::NotFinite(n) => write!(f, "metric {n} is not a finite number"),
        }
    }
}

/// Renders the final result line: exactly the `specs` metrics, each
/// with its unit and its value as measured (shortest round-trip digits).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[MetricSpec],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, ReportError> {
    for name in values.keys() {
        if !specs.iter().any(|s| s.name == *name) {
            return Err(ReportError::Unexpected(name.to_string()));
        }
    }
    let mut body = String::new();
    for (i, spec) in specs.iter().enumerate() {
        let v = *values
            .get(spec.name)
            .ok_or_else(|| ReportError::Missing(spec.name.into()))?;
        if !v.is_finite() {
            return Err(ReportError::NotFinite(spec.name.into()));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            spec.name, spec.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_charset_is_enforced() {
        for ok in [
            "qps",
            "setup_s",
            "ged.ms_per_query",
            "syn1k-batch",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".dot",
            "-dash",
            "a b",
            "é",
            "x/y",
            "a:b",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for s in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(s.name), "{}", s.name);
            assert!(valid_unit(s.unit), "{}", s.unit);
            assert!(seen.insert(s.name), "duplicate metric {}", s.name);
        }
    }

    #[test]
    fn result_line_requires_exactly_the_declared_metrics() {
        let specs = &END_TO_END[..2];
        let mut v = BTreeMap::new();
        v.insert("setup_s", 1.25);
        assert_eq!(
            result_line(true, 3, 0, specs, &v),
            Err(ReportError::Missing("setup_cpu_s".into()))
        );
        v.insert("setup_cpu_s", 2.5);
        let line = result_line(true, 3, 0, specs, &v).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_cpu_s\": {\"value\": 2.5, \"unit\": \"s\"}}}"
        );
        v.insert("qps", 1.0);
        assert_eq!(
            result_line(true, 3, 0, specs, &v),
            Err(ReportError::Unexpected("qps".into()))
        );
        v.remove("qps");
        v.insert("setup_s", f64::NAN);
        assert_eq!(
            result_line(true, 3, 0, specs, &v),
            Err(ReportError::NotFinite("setup_s".into()))
        );
    }
}
