//! One benchmark run: set up the workload from scratch, measure it with
//! tracing off, check its answers, and (with tracing on) take a second
//! pass over the same queries that splits the time into layers.

use crate::cpu;
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::reconcile::{sum_matches, sum_within, Tolerance};
use crate::stats;
use crate::trace::{self, SpanId, Tracer};
use crate::workload::{Access, Workload};
use lan_core::{
    InitStrategy, LanIndex, QueryBudget, QueryOutcome, RouteStrategy, ShardedLanIndex, Termination,
};
use lan_datasets::{recall_at_k_ties, Dataset};
use lan_graph::Graph;
use lan_obs::explain::QueryExplain;
use lan_obs::json::Value;
use lan_obs::names;
use lan_serve::{serve, Client, Response, SearchCall, ServeConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const INIT: InitStrategy = InitStrategy::LanIs;
const ROUTE: RouteStrategy = RouteStrategy::LanRoute { use_cg: true };

/// Timed queries a run needs so that ten lie beyond the 95th percentile.
pub const MIN_SAMPLES: usize = 200;

/// Passes a run makes at least: the second one is checked against the
/// first, and it dilutes a short burst of load from other processes.
const MIN_PASSES: usize = 2;

/// Served answers compared bit for bit with the offline fan-out.
const SERVED_CHECK: usize = 96;

/// Build layers (`span.build.{pg,train_dists,models}`) against the
/// enclosing `span.build`: 2% plus 10 ms per index built.
const BUILD_LAYERS_TOL: Tolerance = Tolerance::new(0.02, 0.010);
/// The `span.build` total against the build call's wall time.
const BUILD_WALL_TOL: Tolerance = Tolerance::new(0.02, 0.020);
/// A query's `init + route` against its total (per index searched):
/// 10% plus 0.2 ms.
const QUERY_TOL: Tolerance = Tolerance::new(0.10, 0.2e-3);
/// `dist + gnn <= total`, and server latency <= client latency: timer
/// granularity only.
const WITHIN_TOL: Tolerance = Tolerance::new(0.0, 1e-6);

/// Environment variables the LAN crates read, cleared before anything
/// runs so no caller's setting leaks into the measurement.
const CLEARED_ENV: &[&str] = &[
    "LAN_STORE",
    "LAN_NDC_BUDGET",
    "LAN_DEADLINE_MS",
    "LAN_MAX_HOPS",
    "LAN_EXPLAIN",
    "LAN_TRACE",
    "LAN_TRACE_SAMPLE",
    "LAN_PROFILE",
    "LAN_QUANT",
    "LAN_FAULTS",
    "LAN_METRICS",
    "LAN_GED_POLL_STRIDE",
    "LAN_SCALE",
];

/// Pins the configuration: `LAN_THREADS` = host threads, `LAN_SCHED=ws`,
/// and every other `LAN_*` knob (including all `LAN_SERVE_*`) cleared.
/// Must run before any other thread starts.
pub fn pin_env(host_threads: usize) {
    for key in CLEARED_ENV {
        std::env::remove_var(key);
    }
    let serve_keys: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LAN_SERVE_"))
        .collect();
    for key in serve_keys {
        std::env::remove_var(key);
    }
    std::env::set_var("LAN_THREADS", host_threads.to_string());
    std::env::set_var("LAN_SCHED", "ws");
}

/// splitmix64: derives independent seeds from the run seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// The index under test.
// ---------------------------------------------------------------------------

enum Index {
    Flat(Box<LanIndex>),
    Sharded(Arc<ShardedLanIndex>),
}

impl Index {
    fn search(&self, q: &Graph, k: usize, b: usize, seed: u64) -> QueryOutcome {
        match self {
            Index::Flat(ix) => ix.search_with(q, k, b, INIT, ROUTE, seed),
            Index::Sharded(ix) => {
                ix.search_budgeted(q, k, b, INIT, ROUTE, seed, &QueryBudget::unlimited())
            }
        }
    }

    fn search_explain(
        &self,
        q: &Graph,
        k: usize,
        b: usize,
        seed: u64,
    ) -> (QueryOutcome, QueryExplain) {
        match self {
            Index::Flat(ix) => ix.search_explain(q, k, b, INIT, ROUTE, seed),
            Index::Sharded(ix) => ix.search_explain(q, k, b, INIT, ROUTE, seed),
        }
    }

    fn shards(&self) -> Vec<&LanIndex> {
        match self {
            Index::Flat(ix) => vec![ix],
            Index::Sharded(ix) => ix.shards.iter().collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------------

/// What one set-up cost, from outside the calls and from the program's
/// published `span.build.*` histograms.
#[derive(Debug, Clone, Default)]
struct SetupRecord {
    wall_s: f64,
    cpu_s: f64,
    generate_s: f64,
    build_wall_s: f64,
    /// Σ `span.build` (one per index built; thread time when shards build
    /// in parallel).
    build_span_s: f64,
    pg_s: f64,
    train_dists_s: f64,
    models_s: f64,
    build_ndc: u64,
    nh_precision: f64,
    save_s: f64,
    open_s: f64,
    bytes: u64,
}

fn span_sum_s(diff: &lan_obs::Snapshot, name: &str) -> f64 {
    diff.histogram(&format!("span.{name}.ns")).sum as f64 / 1e9
}

fn cpu_now() -> Result<Duration, String> {
    cpu::process_cpu().map_err(|e| e.to_string())
}

fn store_dir() -> PathBuf {
    PathBuf::from(".lanbench_out")
}

/// Generates the dataset and builds the index from scratch (then saves
/// and re-opens it for the served workload). Never reads a cache.
fn set_up(
    w: &Workload,
    tracer: &Tracer,
    round: u64,
) -> Result<(Dataset, Index, SetupRecord), String> {
    let spec = w.spec.clone();
    let before = lan_obs::snapshot();
    let cpu0 = cpu_now()?;
    let t0 = Instant::now();
    let mut rec = SetupRecord::default();
    let (dataset, index) = tracer.span("setup", None, Some(round), |sid| -> Result<_, String> {
        let t = Instant::now();
        let dataset = tracer.span("datasets.generate", Some(sid), None, |_| {
            Dataset::generate_par(spec)
        });
        rec.generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let index = tracer.span("core.build", Some(sid), None, |_| match w.shards {
            None => Index::Flat(Box::new(LanIndex::build(dataset.clone(), w.cfg.clone()))),
            Some(n) => Index::Sharded(Arc::new(ShardedLanIndex::build(&dataset, &w.cfg, n))),
        });
        rec.build_wall_s = t.elapsed().as_secs_f64();
        let index = match (index, w.access) {
            (Index::Sharded(ix), Access::Served { .. }) => {
                let dir = store_dir();
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("create {}: {e}", dir.display()))?;
                let path = dir.join(format!("{}-{}.lan", w.name, std::process::id()));
                let t = Instant::now();
                rec.bytes = tracer
                    .span("store.save", Some(sid), None, |_| ix.save(&path))
                    .map_err(|e| format!("save: {e}"))?;
                rec.save_s = t.elapsed().as_secs_f64();
                drop(ix);
                let t = Instant::now();
                let opened = tracer
                    .span("store.open", Some(sid), None, |_| {
                        ShardedLanIndex::open(&path)
                    })
                    .map_err(|e| format!("open: {e}"))?;
                rec.open_s = t.elapsed().as_secs_f64();
                let _ = std::fs::remove_file(&path);
                Index::Sharded(Arc::new(opened))
            }
            (index, _) => index,
        };
        Ok((dataset, index))
    })?;
    rec.wall_s = t0.elapsed().as_secs_f64();
    rec.cpu_s = (cpu_now()? - cpu0).as_secs_f64();
    let diff = lan_obs::snapshot().diff(&before);
    rec.build_span_s = span_sum_s(&diff, "build");
    rec.pg_s = span_sum_s(&diff, "build.pg");
    rec.train_dists_s = span_sum_s(&diff, "build.train_dists");
    rec.models_s = span_sum_s(&diff, "build.models");
    let shards = index.shards();
    rec.build_ndc = shards.iter().map(|s| s.build_ndc as u64).sum();
    rec.nh_precision = stats::mean(
        &shards
            .iter()
            .map(|s| s.report.nh_precision)
            .collect::<Vec<_>>(),
    );
    Ok((dataset, index, rec))
}

// ---------------------------------------------------------------------------
// Queries and answers.
// ---------------------------------------------------------------------------

/// The query set drawn by `seed`: the dataset's test split, padded with
/// one seeded perturbation (1–4 edits) each of database graphs drawn
/// without replacement. Train and validation queries are never used: the
/// models saw them. Drawing without replacement keeps the mix of graph
/// sizes, and with it the per-query cost, close to the database's own.
fn query_set(ds: &Dataset, n: usize, seed: u64) -> Vec<Graph> {
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    let mut qs: Vec<Graph> = ds
        .split
        .test
        .iter()
        .take(n)
        .map(|&i| ds.queries[i].clone())
        .collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(mix(seed));
    let mut order: Vec<usize> = (0..ds.graphs.len()).collect();
    order.shuffle(&mut rng);
    for &g in order.iter().cycle().take(n - qs.len()) {
        let t = rng.gen_range(1..=4);
        qs.push(lan_graph::perturb::perturb(&mut rng, &ds.graphs[g], t, ds.spec.num_labels).0);
    }
    qs
}

/// One answered query, as the caller saw it.
#[derive(Debug, Clone)]
struct Answer {
    results: Vec<(f64, u32)>,
    ndc: u64,
    converged: bool,
    latency_ns: u64,
    /// `Some(reason)` when the query was refused or errored.
    refused: Option<String>,
}

impl Answer {
    fn from_outcome(o: QueryOutcome, latency_ns: u64) -> Self {
        Answer {
            results: o.results,
            ndc: o.ndc as u64,
            converged: o.termination == Termination::Converged,
            latency_ns,
            refused: None,
        }
    }

    fn from_response(r: std::io::Result<Response>, latency_ns: u64) -> (Self, Option<Value>) {
        let refused = |reason: String| Answer {
            results: Vec::new(),
            ndc: 0,
            converged: false,
            latency_ns,
            refused: Some(reason),
        };
        match r {
            Ok(Response::Ok(ok)) => (
                Answer {
                    results: ok.results,
                    ndc: ok.ndc,
                    converged: ok.termination == Termination::Converged.as_str(),
                    latency_ns,
                    refused: None,
                },
                ok.explain,
            ),
            Ok(Response::Overloaded { reason }) => (refused(format!("overloaded: {reason}")), None),
            Ok(Response::Error { reason }) => (refused(format!("error: {reason}")), None),
            Err(e) => (refused(format!("transport: {e}")), None),
        }
    }

    /// Results and NDC bit for bit (not the latency).
    fn same_as(&self, other: &Answer) -> bool {
        self.ndc == other.ndc
            && self.results.len() == other.results.len()
            && self
                .results
                .iter()
                .zip(&other.results)
                .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1 == b.1)
    }
}

/// FNV-1a over every answer's results (distance bits, ids, order) and NDC.
fn digest(answers: &[Answer]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for a in answers {
        eat(a.results.len() as u64);
        for &(d, id) in &a.results {
            eat(d.to_bits());
            eat(id as u64);
        }
        eat(a.ndc);
    }
    h
}

/// Checks an answer against the database: `min(k, n)` distinct ids in
/// ascending `(distance, id)` order, each distance equal to a fresh
/// evaluation of the operational metric.
fn validate(ds: &Dataset, q: &Graph, k: usize, a: &Answer) -> Result<(), String> {
    if let Some(r) = &a.refused {
        return Err(r.clone());
    }
    if !a.converged {
        return Err("terminated before converging".into());
    }
    let want = k.min(ds.graphs.len());
    if a.results.len() != want {
        return Err(format!("{} results, expected {want}", a.results.len()));
    }
    let mut ids = std::collections::HashSet::new();
    for (i, &(d, id)) in a.results.iter().enumerate() {
        if id as usize >= ds.graphs.len() || !ids.insert(id) {
            return Err(format!("bad or repeated id {id}"));
        }
        if i > 0 {
            let (pd, pid) = a.results[i - 1];
            if pd.total_cmp(&d).then(pid.cmp(&id)) != std::cmp::Ordering::Less {
                return Err("results not in ascending (distance, id) order".into());
            }
        }
        let truth = ds.distance(q, id);
        if truth.to_bits() != d.to_bits() {
            return Err(format!("distance to {id} reported {d}, actual {truth}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Query-time plans (offline `QueryExplain` or served EXPLAIN JSON).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Plan {
    total_ns: f64,
    init_ns: f64,
    route_ns: f64,
    dist_ns: f64,
    gnn_ns: f64,
    ndc: u64,
    lb: u64,
    tau: u64,
    full: u64,
    shards: Vec<Plan>,
}

impl Plan {
    fn from_explain(ex: &QueryExplain) -> Plan {
        Plan {
            total_ns: ex.total_ns as f64,
            init_ns: ex.init_ns as f64,
            route_ns: ex.route_ns as f64,
            dist_ns: ex.dist_ns as f64,
            gnn_ns: ex.gnn_ns as f64,
            ndc: ex.ndc,
            lb: ex.tiers.lb_prunes,
            tau: ex.tiers.tau_aborts,
            full: ex.tiers.full_solves,
            shards: ex.shards.iter().map(Plan::from_explain).collect(),
        }
    }

    fn from_json(v: &Value) -> Result<Plan, String> {
        let num = |path: &[&str]| -> Result<f64, String> {
            let mut cur = v;
            for key in path {
                cur = cur
                    .get(key)
                    .ok_or_else(|| format!("explain plan lacks {}", path.join(".")))?;
            }
            cur.as_f64()
                .ok_or_else(|| format!("explain field {} is not a number", path.join(".")))
        };
        let shards = match v.get("shards") {
            Some(Value::Arr(items)) => items
                .iter()
                .map(Plan::from_json)
                .collect::<Result<_, _>>()?,
            _ => return Err("explain plan lacks shards".into()),
        };
        Ok(Plan {
            total_ns: num(&["ns", "total"])?,
            init_ns: num(&["ns", "init"])?,
            route_ns: num(&["ns", "route"])?,
            dist_ns: num(&["ns", "dist"])?,
            gnn_ns: num(&["ns", "gnn"])?,
            ndc: num(&["ndc"])? as u64,
            lb: num(&["tiers", "lb_prunes"])? as u64,
            tau: num(&["tiers", "tau_aborts"])? as u64,
            full: num(&["tiers", "full_solves"])? as u64,
            shards,
        })
    }

    /// The plans that ran a search themselves: the shard sub-plans, or the
    /// plan itself for a flat index.
    fn leaves(&self) -> Vec<&Plan> {
        if self.shards.is_empty() {
            vec![self]
        } else {
            self.shards.iter().collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Passes.
// ---------------------------------------------------------------------------

/// One pass over the query set: answers in query order, plans when
/// traced, and the pass wall time.
struct Pass {
    answers: Vec<Answer>,
    plans: Vec<Plan>,
    wall_s: f64,
}

/// Everything a pass needs; `clients` is empty on batch workloads.
struct Runner<'a> {
    w: &'a Workload,
    index: &'a Index,
    queries: &'a [Graph],
    clients: Vec<Client>,
    /// CPU time the client threads spent (framing, JSON, socket calls).
    client_cpu: Duration,
}

impl Runner<'_> {
    fn pass(&mut self, traced: Option<(&Tracer, SpanId)>) -> Result<Pass, String> {
        let (k, b) = (self.w.k, self.w.b);
        let t0 = Instant::now();
        let rows: Vec<(Answer, Option<Plan>)> = if self.clients.is_empty() {
            let idx: Vec<usize> = (0..self.queries.len()).collect();
            let (index, queries) = (self.index, self.queries);
            lan_par::par_map_dyn(&idx, lan_par::Grain::Fine, |&qi| {
                let q = &queries[qi];
                let t = Instant::now();
                match traced {
                    None => (
                        Answer::from_outcome(index.search(q, k, b, qi as u64), elapsed_ns(t)),
                        None,
                    ),
                    Some((tracer, parent)) => {
                        let (o, ex) = tracer.span(
                            "core.search_explain",
                            Some(parent),
                            Some(qi as u64),
                            |_| index.search_explain(q, k, b, qi as u64),
                        );
                        (
                            Answer::from_outcome(o, elapsed_ns(t)),
                            Some(Plan::from_explain(&ex)),
                        )
                    }
                }
            })
            .into_iter()
            .collect()
        } else {
            self.served_pass(traced)?
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let mut answers = Vec::with_capacity(rows.len());
        let mut plans = Vec::new();
        for (a, p) in rows {
            answers.push(a);
            if let Some(p) = p {
                plans.push(p);
            }
        }
        Ok(Pass {
            answers,
            plans,
            wall_s,
        })
    }

    /// Closed loop: client `c` sends queries `c, c + C, c + 2C, …`, each
    /// only after the previous reply arrived.
    fn served_pass(
        &mut self,
        traced: Option<(&Tracer, SpanId)>,
    ) -> Result<Vec<(Answer, Option<Plan>)>, String> {
        let (k, b) = (self.w.k, self.w.b);
        let queries = self.queries;
        let n_clients = self.clients.len();
        let mut slots: Vec<Option<(Answer, Option<Plan>)>> = vec![None; queries.len()];
        type Row = (usize, Answer, Option<Result<Plan, String>>);
        let per_client: Vec<(Vec<Row>, Duration)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        let cpu0 = cpu::thread_cpu();
                        let mut out = Vec::new();
                        for qi in (c..queries.len()).step_by(n_clients) {
                            let mut call = SearchCall::new(&queries[qi], k, b, qi as u64);
                            call.explain = traced.is_some();
                            let t = Instant::now();
                            let resp = match traced {
                                None => client.search(&call),
                                Some((tracer, parent)) => tracer.span(
                                    "serve.client.search",
                                    Some(parent),
                                    Some(qi as u64),
                                    |_| client.search(&call),
                                ),
                            };
                            let (a, plan) = Answer::from_response(resp, elapsed_ns(t));
                            out.push((qi, a, plan.map(|v| Plan::from_json(&v))));
                        }
                        let cpu = match (cpu0, cpu::thread_cpu()) {
                            (Ok(a), Ok(b)) => b.saturating_sub(a),
                            _ => Duration::ZERO,
                        };
                        (out, cpu)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        for (rows, cpu) in per_client {
            self.client_cpu += cpu;
            for (qi, a, plan) in rows {
                let plan = plan.transpose()?;
                if traced.is_some() && plan.is_none() && a.refused.is_none() {
                    return Err(format!(
                        "query {qi}: explain requested but no plan returned"
                    ));
                }
                slots[qi] = Some((a, plan));
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every query answered"))
            .collect())
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A correctness or reconciliation check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What a run produced.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub checks: Vec<Check>,
    /// Context for the report line (configuration, sizes, counts).
    pub context: Vec<(&'static str, String)>,
    pub spans: Vec<trace::Span>,
}

struct Checks(Vec<Check>);

impl Checks {
    fn push(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.0.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    fn reconciled<T>(&mut self, name: &str, r: Result<T, crate::reconcile::Mismatch>) {
        match r {
            Ok(_) => self.push(name, true, ""),
            Err(m) => self.push(name, false, m.to_string()),
        }
    }
}

fn counter_delta(after: &lan_obs::Snapshot, before: &lan_obs::Snapshot, name: &str) -> u64 {
    after.counter(name).saturating_sub(before.counter(name))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs the workload once.
pub fn run(w: &Workload, args: &RunArgs) -> Result<RunOutput, String> {
    let tracer = Tracer::new(args.trace);
    let served = matches!(w.access, Access::Served { .. });
    let lan_threads = lan_par::num_threads();
    let mut checks = Checks(Vec::new());
    let mut context: Vec<(&'static str, String)> = Vec::new();

    // Set-up, several times; the last index is the one queried.
    let mut setups: Vec<SetupRecord> = Vec::new();
    let mut last: Option<(Dataset, Index)> = None;
    for round in 0..w.setups {
        drop(last.take());
        let (ds, index, rec) = set_up(w, &tracer, round as u64)?;
        setups.push(rec);
        last = Some((ds, index));
    }
    let (dataset, index) = last.expect("at least one set-up");
    let build_gap_ms = check_builds(w, &setups, index.shards().len(), lan_threads, &mut checks);

    // Queries and ground truth (untimed).
    let queries = query_set(&dataset, w.queries, args.seed);
    let t_gt = Instant::now();
    let truth_kth: Vec<f64> = lan_par::par_map_dyn(&queries, lan_par::Grain::Fine, |q| {
        dataset
            .ground_truth_knn(q, w.k)
            .last()
            .map_or(f64::INFINITY, |&(d, _)| d)
    });
    context.push(("ground_truth_s", t_gt.elapsed().as_secs_f64().to_string()));

    let (handle, clients, offline_reference) = match (w.access, &index) {
        (Access::Batch, _) => (None, Vec::new(), Vec::new()),
        (Access::Served { clients }, Index::Sharded(ix)) => {
            // The served answers must equal the offline fan-out's; checked
            // on the first `SERVED_CHECK` queries to bound the run time.
            let idx: Vec<usize> = (0..queries.len().min(SERVED_CHECK)).collect();
            let reference = lan_par::par_map_dyn(&idx, lan_par::Grain::Fine, |&qi| {
                Answer::from_outcome(index.search(&queries[qi], w.k, w.b, qi as u64), 0)
            });
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".parse().expect("loopback address"),
                ..ServeConfig::default()
            };
            let handle = tracer
                .span("serve.boot", None, None, |_| serve(Arc::clone(ix), cfg))
                .map_err(|e| format!("serve: {e}"))?;
            let conns = (0..clients)
                .map(|_| Client::connect(handle.addr()).map_err(|e| format!("connect: {e}")))
                .collect::<Result<Vec<_>, _>>()?;
            (Some(handle), conns, reference)
        }
        (Access::Served { .. }, Index::Flat(_)) => {
            return Err("served workloads need a sharded index".into())
        }
    };
    let mut runner = Runner {
        w,
        index: &index,
        queries: &queries,
        clients,
        client_cpu: Duration::ZERO,
    };

    let win = measure(&mut runner, args.seconds)?;
    let first = &win.first;

    // Correctness of the first pass against the database, then recall.
    let invalid: Vec<String> = lan_par::par_map_dyn(
        &first.iter().enumerate().collect::<Vec<_>>(),
        lan_par::Grain::Fine,
        |&(qi, a)| {
            validate(&dataset, &queries[qi], w.k, a)
                .err()
                .map(|e| format!("query {qi}: {e}"))
        },
    )
    .into_iter()
    .flatten()
    .collect();
    let mut failed = win.repeat_failed + invalid.len() as u64;
    let mut attempted = win.latencies_ms.len() as u64;
    checks.push("answers_valid", invalid.is_empty(), first_three(&invalid));
    let recall = stats::mean(
        &first
            .iter()
            .zip(&truth_kth)
            .map(|(a, &kth)| recall_at_k_ties(&a.results, kth, w.k))
            .collect::<Vec<_>>(),
    );
    checks.push(
        "recall_floor",
        recall >= w.recall_floor,
        format!("recall {recall:.4} vs floor {}", w.recall_floor),
    );
    checks.push(
        "passes_repeat_bit_identically",
        win.repeat_failed == 0 && win.pass_walls.len() >= MIN_PASSES,
        format!(
            "{} passes; {} of {attempted} answers differ from the first pass",
            win.pass_walls.len(),
            win.repeat_failed
        ),
    );
    checks.push(
        "ndc_equals_ged_calls",
        win.ndc_matches_calls,
        "per pass: Σ NDC == ged.calls delta",
    );
    if served {
        let same = first
            .iter()
            .zip(&offline_reference)
            .filter(|(a, r)| a.same_as(r))
            .count();
        checks.push(
            "served_equals_offline",
            same == offline_reference.len(),
            format!(
                "{same}/{} bit-identical to ShardedLanIndex::search_budgeted",
                offline_reference.len()
            ),
        );
    }
    let samples = win.latencies_ms.len();
    checks.push(
        "p95_supported",
        stats::supports_percentile(samples, 95.0),
        format!(
            "{samples} timed queries, highest supported percentile {:?}",
            stats::highest_supported_percentile(samples)
        ),
    );

    let med = |f: fn(&SetupRecord) -> f64| {
        stats::median(&setups.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let mut e2e: BTreeMap<&'static str, f64> = BTreeMap::new();
    e2e.insert("setup_s", med(|r| r.wall_s));
    e2e.insert("setup_cpu_s", med(|r| r.cpu_s));
    e2e.insert("qps", samples as f64 / win.wall_s);
    e2e.insert(
        "query_p50_ms",
        stats::percentile(&win.latencies_ms, 50.0).unwrap_or(0.0),
    );
    e2e.insert(
        "query_p95_ms",
        stats::percentile(&win.latencies_ms, 95.0).unwrap_or(0.0),
    );
    e2e.insert("query_cpu_ms", win.cpu_s * 1e3 / samples as f64);
    e2e.insert("recall_at_k", recall);
    e2e.insert("ndc_per_query", win.ndc_total as f64 / samples as f64);
    e2e.insert("answered_share", 1.0 - failed as f64 / samples as f64);

    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    if args.trace {
        let traced = tracer.span("pass.traced", None, None, |pid| {
            traced_pass(&mut runner, &tracer, pid, &win, &mut checks, &mut layer)
        })?;
        attempted += traced.attempted;
        failed += traced.failed;
    }

    // Stop serving; the server's published metrics over the window.
    let mut shed = 0.0;
    if let Some(h) = handle {
        runner.clients.clear();
        h.shutdown();
        let (before, after) = (&win.snap_before, &win.snap_after);
        let occ = after
            .histogram(names::SERVE_BATCH_OCCUPANCY)
            .diff(&before.histogram(names::SERVE_BATCH_OCCUPANCY));
        let sd = |name: &str| counter_delta(after, before, name) as f64;
        layer.insert("serve.batch_occupancy", occ.mean());
        layer.insert(
            "serve.cross_query_share",
            ratio(sd(names::FUSED_XQUERY), sd(names::FUSED_CALLS)),
        );
        shed = counter_delta(&lan_obs::snapshot(), before, names::SERVE_SHED) as f64;
        let server_mean_ms = after
            .histogram(names::SERVE_LATENCY_NS)
            .diff(&before.histogram(names::SERVE_LATENCY_NS))
            .mean()
            / 1e6;
        let client_mean_ms = stats::mean(&win.latencies_ms);
        checks.push(
            "server_mean_within_client_mean",
            server_mean_ms <= client_mean_ms,
            format!("serve.latency_ns mean {server_mean_ms:.4} ms vs client mean {client_mean_ms:.4} ms"),
        );
    }
    for name in [
        "serve.server_ms",
        "serve.wire_ms",
        "serve.batch_occupancy",
        "serve.cross_query_share",
    ] {
        layer.entry(name).or_insert(0.0);
    }
    layer.insert("serve.shed", shed);
    layer.insert("datasets.generate_s", med(|r| r.generate_s));
    layer.insert("pg.build_s", med(|r| r.pg_s));
    layer.insert("pg.build_ndc", med(|r| r.build_ndc as f64));
    layer.insert("core.train_dists_s", med(|r| r.train_dists_s));
    layer.insert("models.train_s", med(|r| r.models_s));
    layer.insert("models.nh_precision", med(|r| r.nh_precision));
    layer.insert("build.unattributed_ms", build_gap_ms);
    layer.insert(
        "par.busy_share",
        win.cpu_s / (win.wall_s * lan_threads as f64),
    );
    layer.insert("store.save_s", med(|r| r.save_s));
    layer.insert("store.open_s", med(|r| r.open_s));
    layer.insert("store.bytes", med(|r| r.bytes as f64));
    let peak_kb = lan_obs::mem::peak_rss_kb().unwrap_or(0);
    e2e.insert("peak_rss_mb", peak_kb as f64 / 1024.0);

    context.extend([
        ("workload", w.name.to_string()),
        ("seed", args.seed.to_string()),
        ("host_threads", crate::host_threads().to_string()),
        ("lan_threads", lan_threads.to_string()),
        ("lan_sched", lan_par::sched().as_str().to_string()),
        ("index_source", "built".to_string()),
        ("graphs", w.spec.num_graphs.to_string()),
        (
            "shards",
            w.shards.map_or("flat".to_string(), |n| n.to_string()),
        ),
        ("metric", format!("{:?}", w.spec.metric)),
        ("k", w.k.to_string()),
        ("b", w.b.to_string()),
        ("query_set", queries.len().to_string()),
        ("timed_queries", samples.to_string()),
        ("passes", win.pass_walls.len().to_string()),
        ("setups", w.setups.to_string()),
        (
            "clients",
            match w.access {
                Access::Served { clients } => clients.to_string(),
                Access::Batch => "0".into(),
            },
        ),
        ("window_s", win.wall_s.to_string()),
        (
            "client_cpu_ms_per_query",
            (win.client_cpu.as_secs_f64() * 1e3 / samples as f64).to_string(),
        ),
    ]);
    let correct = checks.0.iter().all(|c| c.ok);
    Ok(RunOutput {
        correct,
        attempted,
        failed,
        metrics: if args.trace { layer } else { e2e },
        checks: checks.0,
        context,
        spans: tracer.spans(),
    })
}

fn first_three(items: &[String]) -> String {
    items.iter().take(3).cloned().collect::<Vec<_>>().join("; ")
}

/// The program's build-phase spans must add up to the build call, per
/// set-up. Returns the median build time (ms) outside the named phases.
fn check_builds(
    w: &Workload,
    setups: &[SetupRecord],
    n_indexes: usize,
    lan_threads: usize,
    checks: &mut Checks,
) -> f64 {
    let mut gaps = Vec::new();
    for (i, r) in setups.iter().enumerate() {
        let layers = [r.pg_s, r.train_dists_s, r.models_s];
        let tol = Tolerance::new(
            BUILD_LAYERS_TOL.rel,
            BUILD_LAYERS_TOL.abs * n_indexes as f64,
        );
        checks.reconciled(
            &format!("setup{i}.build_layers_sum_to_build_span"),
            sum_matches("span.build", r.build_span_s, &layers, tol),
        );
        let layer_sum: f64 = layers.iter().sum();
        if w.shards.is_none() {
            checks.reconciled(
                &format!("setup{i}.build_span_matches_wall"),
                sum_matches(
                    "build wall",
                    r.build_wall_s,
                    &[r.build_span_s],
                    BUILD_WALL_TOL,
                ),
            );
            gaps.push((r.build_wall_s - layer_sum) * 1e3);
        } else {
            // Shards build in parallel: their spans sum to between one and
            // `lan_threads` times the call's wall time.
            checks.reconciled(
                &format!("setup{i}.shard_spans_cover_wall"),
                sum_within(
                    "shard spans >= wall",
                    r.build_span_s,
                    &[r.build_wall_s],
                    BUILD_WALL_TOL,
                ),
            );
            checks.reconciled(
                &format!("setup{i}.shard_spans_within_threads"),
                sum_within(
                    "shard spans <= wall x threads",
                    r.build_wall_s * lan_threads as f64,
                    &[r.build_span_s],
                    BUILD_WALL_TOL,
                ),
            );
            gaps.push((r.build_span_s - layer_sum) * 1e3);
        }
    }
    stats::median(&gaps).unwrap_or(0.0)
}

/// The untraced measurement window.
struct Window {
    /// The first pass's answers, in query order.
    first: Vec<Answer>,
    latencies_ms: Vec<f64>,
    pass_walls: Vec<f64>,
    repeat_failed: u64,
    ndc_total: u64,
    ndc_matches_calls: bool,
    first_ged_calls: u64,
    wall_s: f64,
    cpu_s: f64,
    client_cpu: Duration,
    snap_before: lan_obs::Snapshot,
    snap_after: lan_obs::Snapshot,
}

/// Whole passes over the query set, tracing off, until `seconds` have
/// passed, at least [`MIN_SAMPLES`] queries were timed and at least
/// [`MIN_PASSES`] passes made. Latencies come back sorted.
fn measure(runner: &mut Runner, seconds: f64) -> Result<Window, String> {
    let snap_before = lan_obs::snapshot();
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut pass_walls: Vec<f64> = Vec::new();
    let mut first: Option<Vec<Answer>> = None;
    let (mut repeat_failed, mut ndc_total, mut first_ged_calls) = (0u64, 0u64, 0u64);
    let mut ndc_matches_calls = true;
    let cpu0 = cpu_now()?;
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let hard_stop = budget * 3 + Duration::from_secs(30);
    loop {
        let before = lan_obs::snapshot();
        let pass = runner.pass(None)?;
        let calls = counter_delta(&lan_obs::snapshot(), &before, names::GED_CALLS);
        ndc_matches_calls &= pass.answers.iter().map(|a| a.ndc).sum::<u64>() == calls;
        pass_walls.push(pass.wall_s);
        for (qi, a) in pass.answers.iter().enumerate() {
            latencies_ms.push(a.latency_ns as f64 / 1e6);
            ndc_total += a.ndc;
            // The first pass is validated against the database by the
            // caller; later passes must repeat it bit for bit.
            if let Some(f) = &first {
                repeat_failed += (a.refused.is_some() || !a.converged || !a.same_as(&f[qi])) as u64;
            }
        }
        if first.is_none() {
            first_ged_calls = calls;
            first = Some(pass.answers);
        }
        let e = t0.elapsed();
        let enough = latencies_ms.len() >= MIN_SAMPLES && pass_walls.len() >= MIN_PASSES;
        if (e >= budget && enough) || e >= hard_stop {
            break;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = (cpu_now()? - cpu0).as_secs_f64();
    latencies_ms.sort_by(f64::total_cmp);
    Ok(Window {
        first: first.expect("at least one pass"),
        latencies_ms,
        pass_walls,
        repeat_failed,
        ndc_total,
        ndc_matches_calls,
        first_ged_calls,
        wall_s,
        cpu_s,
        client_cpu: runner.client_cpu,
        snap_before,
        snap_after: lan_obs::snapshot(),
    })
}

/// Queries and failures of the traced pass.
struct TracedCounts {
    attempted: u64,
    failed: u64,
}

/// A second pass over the same queries with EXPLAIN plans and spans:
/// checks it against the untraced pass, reconciles every plan, and fills
/// the query-time per-layer metrics.
fn traced_pass(
    runner: &mut Runner,
    tracer: &Tracer,
    parent: SpanId,
    win: &Window,
    checks: &mut Checks,
    layer: &mut BTreeMap<&'static str, f64>,
) -> Result<TracedCounts, String> {
    let served = !runner.clients.is_empty();
    let before = lan_obs::snapshot();
    let pass = runner.pass(Some((tracer, parent)))?;
    let after = lan_obs::snapshot();
    let d = |name: &str| counter_delta(&after, &before, name) as f64;
    let n = pass.answers.len() as f64;
    if pass.plans.len() != pass.answers.len() {
        return Err(format!(
            "{} plans for {} queries",
            pass.plans.len(),
            pass.answers.len()
        ));
    }
    let failed = pass
        .answers
        .iter()
        .zip(&win.first)
        .filter(|(a, f)| a.refused.is_some() || !a.converged || !a.same_as(f))
        .count() as u64;
    checks.push(
        "traced_equals_untraced",
        digest(&pass.answers) == digest(&win.first) && failed == 0,
        format!("{failed} answers differ"),
    );
    let traced_calls = d(names::GED_CALLS) as u64;
    checks.push(
        "traced_ged_calls_equal",
        traced_calls == win.first_ged_calls,
        format!("traced {traced_calls} vs untraced {}", win.first_ged_calls),
    );

    // Per-query reconciliation.
    let (mut tiers_ok, mut split_bad, mut within_bad) = (true, Vec::new(), Vec::new());
    let (mut unattributed, mut fanout) = (Vec::new(), Vec::new());
    for (qi, p) in pass.plans.iter().enumerate() {
        tiers_ok &= p.lb + p.tau + p.full == p.ndc && p.ndc == pass.answers[qi].ndc;
        let mut gap_ns = 0.0;
        for leaf in p.leaves() {
            tiers_ok &= leaf.lb + leaf.tau + leaf.full == leaf.ndc;
            gap_ns += leaf.total_ns - leaf.init_ns - leaf.route_ns;
            let split = sum_matches(
                "init + route",
                leaf.total_ns * 1e-9,
                &[leaf.init_ns * 1e-9, leaf.route_ns * 1e-9],
                QUERY_TOL,
            );
            // Served shard searches share two cores with the server's
            // other threads, so a search can be preempted between its
            // stages: there the gap is reported, not checked.
            if let (Err(e), false) = (split, served) {
                split_bad.push(format!("query {qi}: {e}"));
            }
            if let Err(e) = sum_within(
                "dist + gnn",
                leaf.total_ns * 1e-9,
                &[leaf.dist_ns * 1e-9, leaf.gnn_ns * 1e-9],
                WITHIN_TOL,
            ) {
                within_bad.push(format!("query {qi}: {e}"));
            }
        }
        unattributed.push(gap_ns / 1e6);
        let shard_totals = p.shards.iter().map(|s| s.total_ns);
        fanout.push(if p.shards.is_empty() {
            0.0
        } else if served {
            // Served shards run in parallel: outside the slowest shard.
            (p.total_ns - shard_totals.fold(0.0, f64::max)) / 1e6
        } else {
            // Sequential fan-out: everything outside the shard searches.
            (p.total_ns - shard_totals.sum::<f64>()) / 1e6
        });
    }
    checks.push(
        "tiers_reconcile_with_ndc",
        tiers_ok,
        "lb + tau + full == ndc on every plan and sub-plan",
    );
    if !served {
        checks.push(
            "init_plus_route_matches_total",
            split_bad.is_empty(),
            format!("tolerance {QUERY_TOL} s; {}", first_three(&split_bad)),
        );
    }
    checks.push(
        "dist_plus_gnn_within_total",
        within_bad.is_empty(),
        first_three(&within_bad),
    );
    let fanout_negative = fanout.iter().filter(|&&f| f < -1e-3).count();
    checks.push(
        "fanout_non_negative",
        fanout_negative == 0,
        format!("{fanout_negative} queries"),
    );

    let per_query = |f: fn(&Plan) -> f64| {
        stats::mean(
            &pass
                .plans
                .iter()
                .map(|p| p.leaves().iter().map(|l| f(l)).sum::<f64>())
                .collect::<Vec<_>>(),
        )
    };
    let (lb, tau, full) = pass.plans.iter().fold((0u64, 0u64, 0u64), |acc, p| {
        (acc.0 + p.lb, acc.1 + p.tau, acc.2 + p.full)
    });
    let hit_rate = |hit: &str, miss: &str| ratio(d(hit), d(hit) + d(miss));
    layer.insert("core.init_ms", per_query(|p| p.init_ns) / 1e6);
    layer.insert("core.route_ms", per_query(|p| p.route_ns) / 1e6);
    layer.insert("core.fanout_ms", stats::mean(&fanout));
    layer.insert("core.unattributed_ms", stats::mean(&unattributed));
    layer.insert("ged.ms_per_query", per_query(|p| p.dist_ns) / 1e6);
    layer.insert(
        "ged.full_solve_share",
        ratio(full as f64, (lb + tau + full) as f64),
    );
    layer.insert("ged.full_evals_per_query", d(names::GED_FULL_EVALS) / n);
    layer.insert(
        "ged.cache_hit_rate",
        hit_rate(names::GED_CACHE_HIT, names::GED_CACHE_MISS),
    );
    layer.insert("gnn.ms_per_query", per_query(|p| p.gnn_ns) / 1e6);
    layer.insert("gnn.forwards_per_query", d(names::GNN_INFER_FORWARDS) / n);
    layer.insert(
        "gnn.cache_hit_rate",
        hit_rate(names::GNN_INFER_CACHE_HIT, names::GNN_INFER_CACHE_MISS),
    );
    layer.insert("pg.hops_per_query", d(names::ROUTE_HOPS) / n);
    layer.insert(
        "pg.batches_opened_per_query",
        d(names::ROUTE_BATCHES_OPENED) / n,
    );
    // γ stops among the batch loop's decisions (open a batch or stop).
    let prunes = d(names::ROUTE_GAMMA_PRUNES);
    layer.insert(
        "pg.gamma_prune_share",
        ratio(prunes, prunes + d(names::ROUTE_BATCHES_OPENED)),
    );
    layer.insert(
        "obs.trace_overhead",
        pass.wall_s / stats::median(&win.pass_walls).unwrap_or(pass.wall_s),
    );

    if served {
        // The server's own time (its EXPLAIN total) against the client's.
        let mut server_ms: Vec<f64> = pass.plans.iter().map(|p| p.total_ns / 1e6).collect();
        let mut client_ms: Vec<f64> = pass
            .answers
            .iter()
            .map(|a| a.latency_ns as f64 / 1e6)
            .collect();
        let late = server_ms
            .iter()
            .zip(&client_ms)
            .filter(|(s, c)| sum_within("server <= client", **c, &[**s], WITHIN_TOL).is_err())
            .count();
        checks.push(
            "server_latency_within_client",
            late == 0,
            format!("{late} requests"),
        );
        server_ms.sort_by(f64::total_cmp);
        client_ms.sort_by(f64::total_cmp);
        let s50 = stats::percentile(&server_ms, 50.0).unwrap_or(0.0);
        let c50 = stats::percentile(&client_ms, 50.0).unwrap_or(0.0);
        layer.insert("serve.server_ms", s50);
        layer.insert("serve.wire_ms", c50 - s50);
    }
    Ok(TracedCounts {
        attempted: pass.answers.len() as u64,
        failed,
    })
}

/// Renders the run's context and checks as one JSON line.
pub fn report_line(out: &RunOutput) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let ctx: Vec<String> = out
        .context
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", esc(v)))
        .collect();
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"check\": \"{}\", \"ok\": {}, \"detail\": \"{}\"}}",
                esc(&c.name),
                c.ok,
                esc(&c.detail)
            )
        })
        .collect();
    format!(
        "{{\"report\": {{{}}}, \"checks\": [{}]}}",
        ctx.join(", "),
        checks.join(", ")
    )
}

/// The result line for the run (end-to-end or per-layer metrics).
pub fn result_line(out: &RunOutput, trace: bool) -> Result<String, metrics::ReportError> {
    let specs = if trace { PER_LAYER } else { END_TO_END };
    metrics::result_line(out.correct, out.attempted, out.failed, specs, &out.metrics)
}

/// Writes the run's spans and prints a self-time table to stderr.
pub fn write_spans(out: &RunOutput, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
    let dir = store_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    trace::write_jsonl(Path::new(&path), &out.spans)?;
    eprintln!(
        "{:<24} {:>7} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, (count, total, self_ns)) in trace::summary(&out.spans) {
        eprintln!(
            "{name:<24} {count:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    Ok(path)
}
