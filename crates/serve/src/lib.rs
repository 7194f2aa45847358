//! carbon-serve: the simulator exposed as a TCP job service.
//!
//! Zero registry dependencies — the wire format is length-prefixed JSON
//! (4-byte big-endian frame length, then a UTF-8 JSON body) built on the
//! shared [`carbon_json`] module, and all concurrency is std threads plus
//! the deterministic carbon-runtime executor.
//!
//! The crate is organised as:
//!
//! - [`protocol`] — frame reader/writer and the request/response envelope;
//! - [`job`] — the job model (`op`, `dc_sweep`, `ac_sweep`, `transient`,
//!   `fig2`, `fig5`, `fig7`, `econ_point`, `econ_campaign`, plus the
//!   fast-path `ping` and `stats`) with up-front validation and
//!   deterministic result rendering;
//! - [`cache`] — content-addressed response cache (sharded LRU over
//!   canonical job keys) with single-flight deduplication of identical
//!   in-flight solves;
//! - [`server`] — an acceptor and one thread per connection, which runs
//!   each job itself under a counting gate (the slots cap how many jobs
//!   run at once, and a bounded wait list answers `busy` when full),
//!   with graceful drain shutdown. `ping`/`stats` and every resident
//!   cache hit are answered without the gate: a hit is neither
//!   validated nor given a slot;
//! - [`client`] — a minimal blocking client used by the tests and by
//!   the `servebench` load generator.
//!
//! Every server also owns an always-on `carbon-metrics` registry
//! (per-kind latency and queue-wait histograms, admission counters,
//! wait-list gauges) exposed through the `stats` job kind.
//!
//! # A request over the wire
//!
//! A request is one frame holding an envelope, `{"id":…,"job":{…}}`;
//! the response frame echoes the `id` beside a `"status"` and, when
//! that is `"ok"`, the `"result"`. This starts a server on an ephemeral
//! loopback port and asks it for an adaptive §V campaign, grown until
//! the 95 % CI half-width on the functional yield is 0.01:
//!
//! ```
//! use carbon_json::Json;
//! use carbon_serve::{Client, Server, ServerConfig};
//!
//! let server = Server::start("127.0.0.1:0", ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let request = Json::parse(
//!     r#"{"id":1,"job":{"kind":"fig7","target_ci":0.01,"max_devices":100000}}"#,
//! )?;
//! let response = client.call(&request)?;
//! assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));
//! let scalars = response.get("result").and_then(|r| r.get("scalars"));
//! let scalar = |name| scalars.and_then(|s| s.get(name)).and_then(Json::as_f64);
//! assert_eq!(scalar("devices"), Some(4096.0));
//! assert_eq!(scalar("rounds"), Some(4.0));
//! assert_eq!(scalar("converged"), Some(1.0));
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Determinism at the service boundary
//!
//! For a given request body, the response body is byte-identical
//! regardless of slot count, connection count, or arrival order: jobs
//! run on the deterministic executor, responses carry no timestamps, and
//! floats are rendered with Rust's shortest-round-trip formatter. The
//! fast-path kinds (`ping`, `stats`) are the deliberate exception: they
//! report uptime and latency aggregates, which is operational state,
//! not simulation output. Metrics recording itself never feeds back
//! into any queued job's response bytes.
//!
//! The response cache rides on this contract rather than weakening it:
//! because an `ok` response is a pure function of the canonical job
//! body, serving stored bytes (with the requester's own `id` spliced
//! in) is byte-identical to re-solving, and the cold/warm digest gate
//! in the determinism suite proves it stays that way.

pub mod cache;
pub mod client;
pub mod job;
mod metrics;
pub mod protocol;
#[cfg(test)]
mod serve_load;
pub mod server;

// Lets test code shared with the integration tests name this crate.
#[cfg(test)]
extern crate self as carbon_serve;

pub use client::Client;
pub use job::{Job, JobError};
pub use protocol::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
pub use server::{Server, ServerConfig, ServerStats, DEFAULT_CACHE_BYTES, MIN_CACHE_BYTES};
