//! Cache-layer behaviour through the real server: single-flight
//! coalescing (N identical submissions cost one solve), eviction under
//! a small byte budget with byte-identical re-solves, `stats`
//! flattening of the cache instruments, and `cache_bytes` validation.
//!
//! The coalescing proof reads the process-global
//! `spice.newton.solves.dc` counter, so every other test in this
//! binary sticks to `transient` jobs (whose solves — including the
//! t=0 operating point — record to `spice.newton.solves.tran`) or to
//! no jobs at all; test binaries themselves run sequentially under
//! `cargo test`.

use carbon_json::Json;
use carbon_serve::{Client, Server, ServerConfig};

const RC_DECK: &str = "* rc low-pass\nV1 in 0 1\nR1 in out 1k\nC1 out 0 1u\n.end\n";

fn start(config: ServerConfig) -> Server {
    Server::start("127.0.0.1:0", config).expect("bind loopback")
}

fn op_request(id: &str) -> String {
    Json::obj()
        .push("id", id)
        .push(
            "job",
            Json::obj()
                .push("kind", "op")
                .push("deck", RC_DECK)
                .push("nodes", Json::Arr(vec![Json::Str("out".into())])),
        )
        .render()
}

/// A short transient over a parameter-varied deck: distinct `i` means
/// a distinct deck text, hence a distinct canonical key.
fn transient_request(id: usize, deck_index: usize) -> String {
    let deck = format!(
        "* vary {deck_index}\nV1 in 0 1\nR1 in out {}\nC1 out 0 1u\n.end\n",
        1000 + deck_index
    );
    Json::obj()
        .push("id", id)
        .push(
            "job",
            Json::obj()
                .push("kind", "transient")
                .push("deck", deck)
                .push("tstep", 1e-5)
                .push("tstop", 1e-4)
                .push("nodes", Json::Arr(vec![Json::Str("out".into())])),
        )
        .render()
}

fn dc_solves() -> u64 {
    carbon_metrics::global()
        .counter("spice.newton.solves.dc")
        .total()
}

#[test]
fn identical_submissions_coalesce_to_one_dc_solve() {
    // Baseline: what one op job costs in DC Newton solves.
    let server = start(ServerConfig {
        workers: 2,
        queue_depth: 64,
        ..ServerConfig::default()
    });
    let before = dc_solves();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let solo = client
        .call_raw(op_request("solo").as_bytes())
        .expect("solo response");
    assert!(std::str::from_utf8(&solo)
        .unwrap()
        .contains("\"status\":\"ok\""));
    let one_job = dc_solves() - before;
    assert!(one_job > 0, "an op job performs at least one DC solve");
    server.shutdown();

    // N threads submit the byte-identical request (same id, same job)
    // against a fresh server: single-flight + the cache mean exactly
    // one solve happens, and every thread gets identical bytes.
    let n = 8;
    let server = start(ServerConfig {
        workers: 4,
        queue_depth: 64,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let before = dc_solves();
    let responses: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client
                        .call_raw(op_request("shared").as_bytes())
                        .expect("response")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let herd = dc_solves() - before;
    assert_eq!(
        herd, one_job,
        "a thundering herd of {n} identical jobs costs exactly one solve"
    );
    for body in &responses {
        assert_eq!(
            body, &responses[0],
            "all coalesced responses are byte-identical"
        );
    }
    assert!(std::str::from_utf8(&responses[0])
        .unwrap()
        .contains("\"status\":\"ok\""));
    let stats = server.shutdown();
    assert_eq!(stats.accepted, n as u64);
    assert_eq!(stats.completed, n as u64);
    assert_eq!(stats.cache_misses, 1, "one leader solved");
    assert_eq!(stats.cache_hits, n as u64 - 1, "everyone else was served");
    assert_eq!(stats.cache_insertions, 1);
}

#[test]
fn small_budget_evicts_deterministically_and_resolves_byte_identically() {
    // 60 distinct keys across 16 shards: by pigeonhole some shard sees
    // at least four, and the budget holds fewer than that per shard —
    // evictions are guaranteed, whatever the key distribution.
    let distinct = 60;
    let server = start(ServerConfig {
        workers: 2,
        queue_depth: 64,
        cache_bytes: 16 * 1024,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let first: Vec<Vec<u8>> = (0..distinct)
        .map(|i| {
            client
                .call_raw(transient_request(i, i).as_bytes())
                .expect("response")
        })
        .collect();
    for (i, body) in first.iter().enumerate() {
        assert!(
            std::str::from_utf8(body)
                .unwrap()
                .contains("\"status\":\"ok\""),
            "job {i} failed"
        );
    }
    let mid = server.stats();
    assert_eq!(mid.cache_misses, distinct as u64, "every key was cold");
    assert!(
        mid.cache_insertions > 0,
        "short transient responses fit the shard budget"
    );
    assert!(
        mid.cache_evicted_bytes > 0,
        "the byte budget forced evictions (insertions {}, evicted {})",
        mid.cache_insertions,
        mid.cache_evicted_bytes
    );

    // Second sweep with the same ids: evicted keys re-solve, resident
    // keys hit — and every response is byte-identical to round one
    // either way. That is the whole point of the byte-identity
    // contract: eviction can cost time, never correctness.
    let second: Vec<Vec<u8>> = (0..distinct)
        .map(|i| {
            client
                .call_raw(transient_request(i, i).as_bytes())
                .expect("response")
        })
        .collect();
    assert_eq!(first, second, "responses drifted across eviction pressure");
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 2 * distinct as u64);
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        stats.accepted,
        "classification invariant"
    );
    assert!(
        stats.cache_hits > mid.cache_hits || stats.cache_misses > mid.cache_misses,
        "second sweep made progress"
    );
}

#[test]
fn stats_flattens_the_cache_instruments() {
    let server = start(ServerConfig {
        workers: 2,
        queue_depth: 64,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Two identical transients: one miss (inserted), one hit.
    for id in ["a", "b"] {
        let body = Json::obj()
            .push("id", id)
            .push(
                "job",
                Json::obj()
                    .push("kind", "transient")
                    .push("deck", RC_DECK)
                    .push("tstep", 1e-5)
                    .push("tstop", 1e-4)
                    .push("nodes", Json::Arr(vec![Json::Str("out".into())])),
            )
            .render();
        let raw = client.call_raw(body.as_bytes()).expect("response");
        assert!(std::str::from_utf8(&raw)
            .unwrap()
            .contains("\"status\":\"ok\""));
    }
    let response = client
        .call(
            &Json::obj()
                .push("id", "stats")
                .push("job", Json::obj().push("kind", "stats")),
        )
        .expect("stats response");
    let result = response.get("result").expect("stats result");
    let counter = |name: &str| {
        result
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats counters missing {name}"))
    };
    assert_eq!(counter("serve.accepted"), 2);
    assert_eq!(counter("serve.cache.hit"), 1);
    assert_eq!(counter("serve.cache.miss"), 1);
    assert_eq!(counter("serve.cache.insert"), 1);
    assert_eq!(counter("serve.cache.evict_bytes"), 0);
    assert_eq!(counter("serve.cache.coalesced"), 0);
    let bytes = result
        .get("gauges")
        .and_then(|g| g.get("serve.cache.bytes"))
        .and_then(Json::as_u64)
        .expect("stats gauges missing serve.cache.bytes");
    assert!(bytes > 0, "one resident entry has nonzero footprint");
    // The hit landed in the dedicated histogram, not a per-kind solve
    // histogram (satellite: hits must not skew solve baselines).
    let hist_count = |name: &str| {
        result
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats histograms missing {name}"))
    };
    assert_eq!(hist_count("serve.cache.hit_latency_ns"), 1);
    assert_eq!(hist_count("serve.latency_ns.transient"), 1);
    // The hit was answered on the connection thread: only the miss
    // ever waited in the queue.
    assert_eq!(hist_count("serve.queue_wait_ns.transient"), 1);
    server.shutdown();
}

#[test]
fn cache_bytes_validation_names_the_field() {
    let err = match Server::start(
        "127.0.0.1:0",
        ServerConfig {
            cache_bytes: 1024,
            ..ServerConfig::default()
        },
    ) {
        Err(err) => err,
        Ok(_) => panic!("a 1 KiB budget must be rejected"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(
        err.to_string().contains("config.cache_bytes"),
        "validation names the field: {err}"
    );
    // Zero is the documented off switch, not an error.
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            cache_bytes: 0,
            ..ServerConfig::default()
        },
    )
    .expect("cache_bytes: 0 disables cleanly");
    server.shutdown();
}
