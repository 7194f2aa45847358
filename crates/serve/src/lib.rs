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
//!   `fig2`, `fig5`, `fig7`, plus the fast-path `ping` and `stats`) with
//!   up-front validation and deterministic result rendering;
//! - [`queue`] — bounded MPMC job queue with admission control;
//! - [`cache`] — content-addressed response cache (sharded LRU over
//!   canonical job keys) with single-flight deduplication of identical
//!   in-flight solves;
//! - [`server`] — acceptor + worker pool with graceful drain shutdown,
//!   plus the admission-free fast path answering `ping`/`stats` on the
//!   connection thread;
//! - [`client`] — a minimal blocking client used by the tests and by
//!   the `servebench` load generator.
//!
//! Every server also owns an always-on `carbon-metrics` registry
//! (per-kind latency and queue-wait histograms, admission counters,
//! queue gauges) exposed through the `stats` job kind.
//!
//! # Determinism at the service boundary
//!
//! For a given request body, the response body is byte-identical
//! regardless of worker count, connection count, or arrival order: jobs
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
pub mod queue;
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
