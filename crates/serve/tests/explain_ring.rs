//! Served EXPLAIN plans: one merged plan per query, whose timeline says
//! when each shard finished. A test binary of its own because it flips
//! the process-global EXPLAIN switch; the other test here requests its
//! plan, and a requested plan never goes to the ring.

use lan_core::{LanConfig, ShardedLanIndex};
use lan_datasets::{Dataset, DatasetSpec};
use lan_obs::json::{parse, Value};
use lan_serve::{serve, Client, Response, SearchCall, ServeConfig, ServerHandle};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn tiny_cfg() -> LanConfig {
    LanConfig {
        pg: lan_pg::PgConfig::new(4),
        model: lan_models::ModelConfig {
            embed_dim: 8,
            epochs: 1,
            max_samples_per_epoch: 80,
            nh_cover_k: 6,
            clusters: 3,
            top_clusters: 2,
            mlp_hidden: 8,
            ..lan_models::ModelConfig::default()
        },
        ds: 1.0,
        quant: lan_core::QuantConfig::default(),
    }
}

fn dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| {
        Dataset::generate(
            DatasetSpec::syn()
                .with_graphs(48)
                .with_queries(10)
                .with_metric(lan_ged::GedMethod::Hungarian),
        )
    })
}

fn boot() -> ServerHandle {
    static FIXTURE: OnceLock<Arc<ShardedLanIndex>> = OnceLock::new();
    let index = FIXTURE.get_or_init(|| Arc::new(ShardedLanIndex::build(dataset(), &tiny_cfg(), 3)));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        batch: 4,
        batch_wait: Duration::from_micros(500),
        max_inflight: 8,
    };
    serve(Arc::clone(index), cfg).expect("bind ephemeral port")
}

fn num(v: &Value, path: &[&str]) -> u64 {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("plan field {path:?} missing"));
    }
    cur.as_f64()
        .unwrap_or_else(|| panic!("plan field {path:?} not a number")) as u64
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Arr(items)) => items,
        _ => panic!("plan field {key} is not an array"),
    }
}

/// With `LAN_EXPLAIN` on, a served query that did not ask for its plan
/// emits exactly one plan — the merged one, carrying the request seed and
/// the per-shard timeline — never one per shard.
#[test]
fn served_query_emits_one_merged_plan() {
    let handle = boot();
    let mut client = Client::connect(handle.addr()).unwrap();
    let seed = 5u64;
    lan_obs::explain::set_enabled(true);
    lan_obs::explain::drain();
    let resp = client
        .search(&SearchCall::new(&dataset().queries[1], 5, 8, seed))
        .unwrap();
    let lines = lan_obs::explain::drain();
    lan_obs::explain::set_enabled(false);
    let Response::Ok(ok) = resp else {
        panic!("expected ok, got {resp:?}")
    };
    assert!(ok.explain.is_none(), "an unrequested plan crossed the wire");
    assert_eq!(
        lines.len(),
        1,
        "one emitted plan per served query: {lines:?}"
    );
    let plan = parse(&lines[0]).expect("emitted plan is JSON");
    assert_eq!(num(&plan, &["q"]), seed, "plan must carry the request seed");
    assert_eq!(num(&plan, &["ndc"]), ok.ndc);
    let timeline = array(&plan, "timeline");
    assert!(
        timeline
            .iter()
            .any(|e| e.get("stage") == Some(&Value::Str("shard.0".into()))),
        "merged plan must carry the shard.0 timeline entry: {}",
        lines[0]
    );
}

/// Each `shard.N` entry of a served plan is that shard's finish offset
/// from the query's arrival: no earlier than the shard's own run time,
/// no later than the whole query.
#[test]
fn served_timeline_offsets_lie_within_the_plan() {
    let handle = boot();
    let mut client = Client::connect(handle.addr()).unwrap();
    for seed in 0..4u64 {
        let call = SearchCall {
            explain: true,
            ..SearchCall::new(&dataset().queries[seed as usize], 5, 8, seed)
        };
        let Response::Ok(ok) = client.search(&call).unwrap() else {
            panic!("seed {seed}: expected ok")
        };
        let plan = ok.explain.as_ref().expect("explain plan attached");
        let total = num(plan, &["ns", "total"]);
        let timeline = array(plan, "timeline");
        let shards = array(plan, "shards");
        assert_eq!(timeline.len(), shards.len(), "seed {seed}");
        for (entry, shard) in timeline.iter().zip(shards) {
            let (sub, at) = (num(shard, &["ns", "total"]), num(entry, &["ns"]));
            assert!(
                sub <= at && at <= total,
                "seed {seed}: shard finished at {at} ns, outside [{sub}, {total}]"
            );
        }
    }
}
