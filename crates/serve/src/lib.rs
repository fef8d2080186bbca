//! # dispersion-serve
//!
//! Dispersion-as-a-service: the declarative
//! [`ExperimentSpec`](dispersion_sim::spec::ExperimentSpec) →
//! [`Runner`](dispersion_sim::runner::Runner) →
//! [`Sink`](dispersion_sim::sink::Sink) pipeline behind a long-running
//! HTTP/1.1 job server — std-only (`TcpListener`, threads, atomics), no
//! external dependencies.
//!
//! * [`http`] — hand-rolled request parsing, responses, chunked writer;
//! * [`spec_json`] — the JSON wire form of a spec (canonical roundtrip);
//! * [`jobs`] — bounded job queue, the in-process worker pool, the one
//!   record landing step, NDJSON checkpoint durability, blocking record
//!   streams;
//! * `exec` (private) — the one cell executor the in-process pool and
//!   the shard worker share: cell-grained round-robin claim order,
//!   chunk-progress sink, checkpoint append, claim → run → land loop;
//! * [`metrics`] — `/metrics` text exposition counters;
//! * [`server`] — socket front-end and routing;
//! * [`shard`] — multi-process shard fabric: worker protocol, worker
//!   session loop, coordinator pool (`--shards k`);
//! * [`client`] — a small blocking client (tests, soak, benches) plus
//!   deterministic reconnect [`client::Backoff`].
//!
//! ## API sketch
//!
//! | Endpoint | Effect |
//! |---|---|
//! | `POST /jobs` | spec JSON → `201 {"id":N,"cells":M}` |
//! | `GET /jobs` | list job ids, states, shard placement |
//! | `GET /jobs/<id>` | status + per-cell trial counts |
//! | `GET /jobs/<id>/records` | chunked NDJSON stream, `Last-Record` resume |
//! | `DELETE /jobs/<id>` | cooperative cancel |
//! | `POST /shutdown` | ask the process to drain and exit |
//! | `GET /healthz`, `GET /metrics` | liveness, counters |
//!
//! Determinism contract: a job's record stream is **byte-identical** to
//! running the same spec in-process, at any worker count, across server
//! kills and restarts — the `(seed, cell, trial)` RNG derivation and
//! chunk-ordered merging are shared with
//! [`run_cell`](dispersion_sim::runner::run_cell). See `docs/serve.md`
//! for the full protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod exec;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod server;
pub mod shard;
pub mod spec_json;

pub use client::Client;
pub use jobs::JobStore;
pub use server::{Server, ServerConfig};
