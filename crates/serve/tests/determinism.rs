//! Determinism at the service boundary (the PR 5 acceptance bar,
//! re-proven every PR since): the same job set produces byte-identical
//! response bodies per job id regardless of `CARBON_THREADS`, server
//! worker count, connection count, arrival order — and, since the
//! response cache landed, regardless of whether a response was solved
//! fresh, served from the cache, or coalesced onto an identical
//! in-flight solve.
//!
//! For every `CARBON_THREADS` in 1/2/4/8, workers in 1/4, and the
//! cache enabled (default budget) and disabled (`cache_bytes: 0`):
//!
//! - a **cold** pass over a fresh server (every key misses),
//! - a **warm** pass over the *same* server (with the cache on, every
//!   key hits),
//! - a **mixed interleaved** pass over another fresh server, where
//!   every job is submitted twice with adjacent ids — cold and warm
//!   requests racing through the queue together, exercising
//!   single-flight coalescing under multiple connections,
//!
//! must all produce responses byte-identical (modulo the echoed id) to
//! one shared reference across the whole matrix.
//!
//! Two golden digests pin those bytes across PRs:
//!
//! - the 1000-job mixed schedule over 8 connections, at every
//!   `CARBON_THREADS`, untraced and then traced; a traced run must
//!   record one `serve.request` span per admitted request;
//! - the schedule's first 200 jobs run twice over one server, where
//!   both passes must match and the cache's hit/miss split and latency
//!   histograms are exact.
//!
//! The schedule and its loopback runner live in `load/mod.rs`, which
//! the library's `serve_load` unit tests share.
//!
//! Kept as its own integration-test binary with a single `#[test]` so
//! the `CARBON_THREADS` environment variable and the global trace
//! subscriber are never touched concurrently with another test.

use std::collections::{BTreeMap, BTreeSet};

use carbon_json::Json;
use carbon_serve::{Server, ServerConfig, DEFAULT_CACHE_BYTES};
use carbon_trace::collect::Collector;

mod load;
use load::{
    digest_of, fetch_stats, floats, nodes, request_body, run_set, schedule, DIVIDER_DECK, RC_DECK,
};

/// The mixed job bodies (no ids). Every kind that can complete quickly
/// is represented, over two different decks.
fn jobs() -> Vec<Json> {
    vec![
        Json::obj()
            .push("kind", "op")
            .push("deck", RC_DECK)
            .push("nodes", nodes(&["in", "out"])),
        Json::obj()
            .push("kind", "op")
            .push("deck", DIVIDER_DECK)
            .push("nodes", nodes(&["mid"])),
        Json::obj()
            .push("kind", "dc_sweep")
            .push("deck", DIVIDER_DECK)
            .push("source", "V1")
            .push("from", 0.0)
            .push("to", 2.0)
            .push("step", 0.1)
            .push("nodes", nodes(&["mid", "top"])),
        Json::obj()
            .push("kind", "ac_sweep")
            .push("deck", RC_DECK)
            .push("source", "V1")
            .push("fstart", 1.0)
            .push("fstop", 1e6)
            .push("points_per_decade", 7)
            .push("nodes", nodes(&["out"])),
        Json::obj()
            .push("kind", "transient")
            .push("deck", RC_DECK)
            .push("tstep", 2e-5)
            .push("tstop", 4e-3)
            .push("nodes", nodes(&["out"])),
        // The adaptive method's accept/reject sequence is a pure
        // function of the deck, so its variable grid must render
        // byte-identically too.
        Json::obj()
            .push("kind", "transient")
            .push("deck", DIVIDER_DECK)
            .push("tstep", 2e-5)
            .push("tstop", 4e-3)
            .push("method", "adaptive")
            .push("options", Json::obj().push("lte_reltol", 1e-4))
            .push("nodes", nodes(&["mid"])),
        Json::obj().push("kind", "fig7"),
        Json::obj()
            .push("kind", "econ_point")
            .push("node", "cnt28")
            .push("area_cm2", 1.0)
            .push("d0", 0.2)
            .push("purity", 0.999)
            .push("devices", 512),
        // A 512-cell campaign (2 nodes × 4 areas × 4 d0 × 16
        // purities): the acceptance-criterion grid, evaluated
        // cell-parallel over the chunked executor, so its response
        // exercises the cross-thread byte-identity contract hardest.
        Json::obj()
            .push("kind", "econ_campaign")
            .push("nodes", nodes(&["cnt90", "cnt28"]))
            .push("areas_cm2", floats(&[0.25, 0.5, 1.0, 2.0]))
            .push("d0", floats(&[0.05, 0.1, 0.2, 0.5]))
            .push(
                "purities",
                Json::Arr(
                    (0..16)
                        .map(|i| Json::Num(0.9 + 0.0999 * f64::from(i) / 15.0))
                        .collect(),
                ),
            )
            .push("devices", 256)
            .push("seed", 2014),
    ]
}

/// FNV-1a 64 of the 1000-job schedule's responses.
const SCHEDULE_GOLDEN: u64 = 0xfdcd_6232_d9eb_0ced;

/// FNV-1a 64 of each pass when the schedule's first 200 jobs run twice
/// over one server: the cache may change latency, never bytes.
const CACHE_GOLDEN: u64 = 0x4ab8_1de0_ca61_841c;

/// The server the golden runs use. With 1024 queue slots, no request
/// of 8 one-in-flight connections can be answered `busy`.
fn golden_server() -> Server {
    let config = ServerConfig {
        workers: 2,
        queue_depth: 1024,
        default_timeout_ms: None,
        cache_bytes: DEFAULT_CACHE_BYTES,
    };
    Server::start("127.0.0.1:0", config).expect("bind loopback")
}

/// The 1000-job schedule over 8 connections matches its golden; with
/// `collector` installed as the global subscriber, the run records one
/// `serve.request` span per admitted request.
fn check_schedule_golden(collector: Option<&Collector>, context: &str) {
    let server = golden_server();
    let responses = run_set(server.local_addr(), &schedule(1000), 8);
    let stats = server.shutdown();
    assert_eq!(responses.len(), 1000, "every job answered once ({context})");
    let digest = digest_of(&responses);
    assert!(
        digest == SCHEDULE_GOLDEN,
        "schedule digest {digest:016x}, golden {SCHEDULE_GOLDEN:016x} ({context})"
    );
    assert_eq!(stats.accepted, 1000, "{context}");
    assert_eq!(stats.protocol_errors, 0, "{context}");
    if let Some(collector) = collector {
        assert_eq!(
            collector.spans("serve.request").len() as u64,
            stats.accepted,
            "one serve.request span per admitted request ({context})"
        );
    }
}

/// The schedule's first 200 jobs, twice over one server on 4
/// connections: both passes match the golden, the first solves each
/// of the 11 distinct bodies once, the second is all hits, and the
/// `stats` snapshot keeps hits and misses in separate histograms.
fn check_cache_golden() {
    let (jobs, connections, passes) = (200, 4, 2);
    let kinds: BTreeSet<&str> = (0..jobs).map(|i| request_body(i).0).collect();
    let want = [
        "ac_sweep",
        "dc_sweep",
        "econ_campaign",
        "econ_point",
        "fig7",
        "op",
        "transient",
    ];
    assert_eq!(kinds, BTreeSet::from(want), "the schedule mixes every kind");

    let server = golden_server();
    let requests = schedule(jobs);
    let mut pass_hits = Vec::new();
    for pass in 0..passes {
        let before = server.stats().cache_hits;
        let responses = run_set(server.local_addr(), &requests, connections);
        assert_eq!(responses.len(), jobs, "pass {pass}");
        let digest = digest_of(&responses);
        assert!(
            digest == CACHE_GOLDEN,
            "pass {pass} digest {digest:016x}, golden {CACHE_GOLDEN:016x}"
        );
        pass_hits.push(server.stats().cache_hits - before);
    }
    let snapshot = fetch_stats(server.local_addr());
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 400);
    assert_eq!((stats.cache_hits, stats.cache_misses), (389, 11));
    assert_eq!(pass_hits, [189, 200], "the warm pass is all hits");

    // Hits record only to the hit histogram, misses only to the
    // per-kind solve histograms, and the fast path to neither.
    let Some(Json::Obj(histograms)) = snapshot.get("histograms") else {
        panic!("stats snapshot without histograms");
    };
    let count = |name: &str| -> Option<u64> {
        let (_, histogram) = histograms.iter().find(|(n, _)| n == name)?;
        histogram.get("count")?.as_u64()
    };
    assert_eq!(count("serve.cache.hit_latency_ns"), Some(stats.cache_hits));
    let solved: u64 = histograms
        .iter()
        .filter(|(name, _)| name.starts_with("serve.latency_ns."))
        .map(|(name, _)| count(name).unwrap())
        .sum();
    assert_eq!(solved, stats.cache_misses);
    assert_eq!(count("serve.latency_ns.ping"), None);
    assert_eq!(count("serve.latency_ns.stats"), None);
    let pings = snapshot.get("counters").and_then(|c| c.get("serve.ping"));
    assert_eq!(
        pings.and_then(Json::as_u64),
        Some((connections * passes) as u64),
        "one ping per connection per pass"
    );
}

/// One pass over the job set: ids `0..n`, one request per job.
fn single_set() -> Vec<String> {
    jobs()
        .into_iter()
        .enumerate()
        .map(|(id, job)| Json::obj().push("id", id).push("job", job).render())
        .collect()
}

/// The mixed cold/warm set: every job twice with adjacent ids
/// (`2k` and `2k + 1`), so duplicates race through the queue together
/// and exercise single-flight coalescing. Response for id `i`
/// describes job `i / 2`.
fn interleaved_set() -> Vec<String> {
    jobs()
        .into_iter()
        .enumerate()
        .flat_map(|(k, job)| {
            [
                Json::obj()
                    .push("id", 2 * k)
                    .push("job", job.clone())
                    .render(),
                Json::obj().push("id", 2 * k + 1).push("job", job).render(),
            ]
        })
        .collect()
}

/// The response bytes from the first comma on — everything except the
/// echoed `{"id":<id>` prefix, which is the only part of an `ok`
/// response allowed to differ between requests for the same job.
fn suffix(body: &[u8]) -> &[u8] {
    let comma = body
        .iter()
        .position(|&b| b == b',')
        .expect("response has fields beyond id");
    &body[comma..]
}

/// Asserts one pass's responses are all `ok` and byte-identical
/// (modulo the echoed id) to the reference suffixes, `job_of` mapping
/// a response id to its job index.
fn check_against_reference(
    got: &BTreeMap<u64, Vec<u8>>,
    reference: &mut Option<BTreeMap<u64, Vec<u8>>>,
    job_of: impl Fn(u64) -> u64,
    context: &str,
) {
    for (id, body) in got {
        let text = std::str::from_utf8(body).unwrap();
        assert!(
            text.contains("\"status\":\"ok\""),
            "job {id} not ok under {context}: {text}"
        );
    }
    match reference {
        None => {
            *reference = Some(
                got.iter()
                    .map(|(id, body)| (job_of(*id), suffix(body).to_vec()))
                    .collect(),
            );
        }
        Some(reference) => {
            for (id, body) in got {
                assert_eq!(
                    suffix(body),
                    &reference[&job_of(*id)],
                    "job {id} response drifted under {context}"
                );
            }
        }
    }
}

#[test]
fn responses_are_byte_identical_cold_warm_and_interleaved() {
    let n = jobs().len() as u64;
    let mut reference: Option<BTreeMap<u64, Vec<u8>>> = None;
    for threads in ["1", "2", "4", "8"] {
        std::env::set_var("CARBON_THREADS", threads);
        for workers in [1usize, 4] {
            let connections = workers.clamp(1, 4);
            for cache_bytes in [DEFAULT_CACHE_BYTES, 0] {
                let config = ServerConfig {
                    workers,
                    queue_depth: 64,
                    default_timeout_ms: None,
                    cache_bytes,
                };
                let context =
                    format!("CARBON_THREADS={threads} workers={workers} cache_bytes={cache_bytes}");

                // Cold then warm over one server.
                let server = Server::start("127.0.0.1:0", config.clone()).expect("bind loopback");
                let cold = run_set(server.local_addr(), &single_set(), connections);
                assert_eq!(
                    cold.len(),
                    n as usize,
                    "every job answered once ({context})"
                );
                check_against_reference(&cold, &mut reference, |id| id, &format!("{context} cold"));
                let warm = run_set(server.local_addr(), &single_set(), connections);
                check_against_reference(&warm, &mut reference, |id| id, &format!("{context} warm"));
                let stats = server.shutdown();
                assert_eq!(stats.protocol_errors, 0);
                assert_eq!(stats.accepted, 2 * n, "{context}");
                assert_eq!(stats.completed, 2 * n, "{context}");
                assert_eq!(
                    stats.cache_hits + stats.cache_misses,
                    stats.accepted,
                    "every admitted job classified exactly once ({context})"
                );
                if cache_bytes > 0 {
                    // All jobs are distinct, so the cold pass misses n
                    // times and the warm pass hits n times — exactly.
                    assert_eq!(stats.cache_hits, n, "warm pass all-hit ({context})");
                    assert_eq!(stats.cache_misses, n, "cold pass all-miss ({context})");
                } else {
                    assert_eq!(stats.cache_hits, 0, "disabled cache never hits ({context})");
                }

                // Mixed cold/warm interleaved over a fresh server:
                // each job twice with adjacent ids, racing together.
                let server = Server::start("127.0.0.1:0", config).expect("bind loopback");
                let mixed = run_set(server.local_addr(), &interleaved_set(), connections);
                assert_eq!(mixed.len(), 2 * n as usize, "{context}");
                check_against_reference(
                    &mixed,
                    &mut reference,
                    |id| id / 2,
                    &format!("{context} interleaved"),
                );
                let stats = server.shutdown();
                assert_eq!(stats.protocol_errors, 0);
                assert_eq!(stats.accepted, 2 * n, "{context}");
                assert_eq!(stats.completed, 2 * n, "{context}");
                assert_eq!(
                    stats.cache_hits + stats.cache_misses,
                    stats.accepted,
                    "{context}"
                );
                if cache_bytes > 0 {
                    // Whichever twin resolves first leads the solve;
                    // the other is served from the cache or coalesces
                    // onto the flight — either way it counts as a hit,
                    // so the split is exact even under races.
                    assert_eq!(
                        stats.cache_hits, n,
                        "one hit per duplicated job ({context})"
                    );
                    assert_eq!(
                        stats.cache_misses, n,
                        "one solve per distinct job ({context})"
                    );
                } else {
                    assert_eq!(stats.cache_hits, 0, "{context}");
                    assert_eq!(stats.cache_misses, 2 * n, "{context}");
                }
            }
        }
    }

    std::env::set_var("CARBON_THREADS", "2");
    check_cache_golden();
    // Untraced first: an installed global subscriber cannot be removed.
    for traced in [false, true] {
        for threads in ["1", "2", "4", "8"] {
            std::env::set_var("CARBON_THREADS", threads);
            let collector = traced.then(|| {
                let collector = Collector::new();
                carbon_trace::install_global(collector.clone());
                collector
            });
            let context = format!("CARBON_THREADS={threads} traced={traced}");
            check_schedule_golden(collector.as_deref(), &context);
        }
    }
    std::env::remove_var("CARBON_THREADS");
}
