//! `lan-serve`: the online k-ANN query service.
//!
//! The offline pipeline (`lan-core`) answers one query per call; this
//! crate turns a built [`ShardedLanIndex`] into a network service that
//! answers many concurrent queries without changing a single result bit:
//!
//! * [`proto`] — length-prefixed JSON frames over TCP, plus a
//!   `GET /metrics` Prometheus endpoint on the same port;
//! * [`admission`] — global in-flight cap with per-tenant fair share;
//! * [`server`] — per-shard micro-batching workers, each running
//!   [`ShardedLanIndex::search_shard`] for the queries of its batch, and
//!   one [`ShardedLanIndex::merge`] per answered query;
//! * [`client`] — a minimal blocking client;
//! * [`config`] — `LAN_SERVE_*` knobs through the strict `lan_par::env`
//!   parser.
//!
//! The equivalence contract — served results, NDC, and EXPLAIN tier
//! attribution bit-identical to the in-process `ShardedLanIndex::search`
//! — is property-tested end to end (TCP round-trip included) in
//! `tests/equivalence.rs`.
//!
//! [`ShardedLanIndex`]: lan_core::ShardedLanIndex
//! [`ShardedLanIndex::search_shard`]: lan_core::ShardedLanIndex::search_shard
//! [`ShardedLanIndex::merge`]: lan_core::ShardedLanIndex::merge

pub mod admission;
pub mod client;
pub mod config;
pub mod proto;
pub mod server;

pub use admission::{Admission, AdmitError};
pub use client::Client;
pub use config::ServeConfig;
pub use proto::{OkResponse, Response, SearchCall};
pub use server::{serve, ServerHandle};
