//! End-to-end service tests: protocol round trips, validation at the
//! boundary, backpressure, deadlines, and graceful drain.

use carbon_json::Json;
use carbon_serve::job::{MAX_SWEEP_POINTS, MAX_TRAN_STEPS};
use carbon_serve::{Client, Server, ServerConfig};

const RC_DECK: &str = "* rc low-pass\nV1 in 0 1\nR1 in out 1k\nC1 out 0 1u\n.end\n";

fn start(workers: usize, queue_depth: usize) -> Server {
    Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            queue_depth,
            default_timeout_ms: None,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
}

fn nodes(names: &[&str]) -> Json {
    Json::Arr(names.iter().map(|n| Json::Str((*n).to_owned())).collect())
}

#[test]
fn round_trips_every_job_kind() {
    let server = start(2, 16);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let requests = [
        Json::obj().push("id", 1).push(
            "job",
            Json::obj()
                .push("kind", "op")
                .push("deck", RC_DECK)
                .push("nodes", nodes(&["in", "out"])),
        ),
        Json::obj().push("id", 2).push(
            "job",
            Json::obj()
                .push("kind", "dc_sweep")
                .push("deck", RC_DECK)
                .push("source", "V1")
                .push("from", 0.0)
                .push("to", 1.0)
                .push("step", 0.5)
                .push("nodes", nodes(&["out"])),
        ),
        Json::obj().push("id", 3).push(
            "job",
            Json::obj()
                .push("kind", "ac_sweep")
                .push("deck", RC_DECK)
                .push("source", "V1")
                .push("fstart", 1.0)
                .push("fstop", 1e4)
                .push("points_per_decade", 5)
                .push("nodes", nodes(&["out"])),
        ),
        Json::obj().push("id", 4).push(
            "job",
            Json::obj()
                .push("kind", "transient")
                .push("deck", RC_DECK)
                .push("tstep", 1e-5)
                .push("tstop", 1e-3)
                .push("nodes", nodes(&["out"])),
        ),
        Json::obj()
            .push("id", 5)
            .push("job", Json::obj().push("kind", "fig7")),
    ];
    for request in &requests {
        let response = client.call(request).unwrap();
        assert_eq!(
            response.get("status").and_then(Json::as_str),
            Some("ok"),
            "request {} -> {}",
            request.render(),
            response.render()
        );
        assert_eq!(response.get("id"), request.get("id"), "id echoed");
        assert!(response.get("result").is_some());
    }
    let stats = server.shutdown();
    assert_eq!(stats.accepted, requests.len() as u64);
    assert_eq!(stats.completed, requests.len() as u64);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn ac_response_shows_the_rc_corner() {
    let server = start(1, 4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    // f_c = 1/(2π·RC) ≈ 159 Hz for 1k · 1µ: magnitude at 1 Hz ≈ 1,
    // at 100 kHz ≈ 0.
    let response = client
        .call(
            &Json::obj().push("id", "ac").push(
                "job",
                Json::obj()
                    .push("kind", "ac_sweep")
                    .push("deck", RC_DECK)
                    .push("source", "V1")
                    .push("fstart", 1.0)
                    .push("fstop", 1e5)
                    .push("points_per_decade", 4)
                    .push("nodes", nodes(&["out"])),
            ),
        )
        .unwrap();
    assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));
    let mags = response
        .get("result")
        .and_then(|r| r.get("nodes"))
        .and_then(|n| n.get("out"))
        .and_then(|o| o.get("magnitude"))
        .and_then(Json::as_array)
        .unwrap();
    let first = mags.first().and_then(Json::as_f64).unwrap();
    let last = mags.last().and_then(Json::as_f64).unwrap();
    assert!(first > 0.99, "passband magnitude {first}");
    assert!(last < 0.01, "stopband magnitude {last}");
}

#[test]
fn oversized_response_is_a_render_error_and_the_worker_serves_on() {
    let server = start(1, 4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    // 99 999 points (under the AC point budget) × 4 probed nodes
    // render about 18 MB, more than one frame holds.
    let ladder = "* rc ladder\nV1 n0 0 1\nR1 n0 n1 1k\nC1 n1 0 1n\nR2 n1 n2 1k\nC2 n2 0 1n\n\
                  R3 n2 n3 1k\nC3 n3 0 1n\nR4 n3 n4 1k\nC4 n4 0 1n\n.end\n";
    let response = client
        .call(
            &Json::obj().push("id", "big").push(
                "job",
                Json::obj()
                    .push("kind", "ac_sweep")
                    .push("deck", ladder)
                    .push("source", "V1")
                    .push("fstart", 1.0)
                    .push("fstop", 1e9)
                    .push("points_per_decade", 11_111)
                    .push("nodes", nodes(&["n1", "n2", "n3", "n4"])),
            ),
        )
        .expect("the connection survives");
    assert_eq!(response.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(response.get("stage").and_then(Json::as_str), Some("render"));
    let message = response.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("16777216"), "{message}");

    // Same connection, same single worker: an ordinary job is `ok`.
    let response = client
        .call(
            &Json::obj().push("id", "small").push(
                "job",
                Json::obj()
                    .push("kind", "op")
                    .push("deck", RC_DECK)
                    .push("nodes", nodes(&["out"])),
            ),
        )
        .unwrap();
    assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));
    let stats = server.shutdown();
    assert_eq!(stats.errored, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cache_insertions, 1, "the render error is not cached");
}

#[test]
fn invalid_requests_get_structured_errors_and_the_connection_survives() {
    let server = start(1, 4);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Not JSON at all.
    let resp = client.call_raw(b"hello, world").unwrap();
    let parsed = Json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    assert_eq!(parsed.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(parsed.get("stage").and_then(Json::as_str), Some("parse"));

    // Valid JSON, missing id.
    let resp = client
        .call(&Json::obj().push("job", Json::obj().push("kind", "fig7")))
        .unwrap();
    assert_eq!(resp.get("stage").and_then(Json::as_str), Some("validate"));

    // Unknown kind: the message lists the valid choices.
    let resp = client
        .call(
            &Json::obj()
                .push("id", 9)
                .push("job", Json::obj().push("kind", "warp_drive")),
        )
        .unwrap();
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
    let message = resp.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("warp_drive"), "{message}");
    assert!(message.contains("dc_sweep"), "{message}");

    // Bad field value, field named.
    let resp = client
        .call(
            &Json::obj().push("id", 10).push(
                "job",
                Json::obj()
                    .push("kind", "transient")
                    .push("deck", RC_DECK)
                    .push("tstep", 2.0)
                    .push("tstop", 1.0)
                    .push("nodes", nodes(&["out"])),
            ),
        )
        .unwrap();
    let message = resp.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("job.tstep"), "{message}");

    // Over budget, so rejected before anything is built. Unchecked, the
    // 1e18-point sweep aborts the server and the 1e15-step runs never
    // end (the adaptive one's max_step forces at least 1e15 steps).
    let sweep = r#"{"kind":"dc_sweep","source":"V1","from":0,"to":1e13,"step":1e-5}"#;
    let tran = r#"{"kind":"transient","tstep":1e-15,"tstop":1}"#;
    let adaptive = r#"{"kind":"transient","method":"adaptive","tstep":1e-15,"tstop":1,
        "options":{"max_step":1e-15}}"#;
    for (job, field, budget) in [
        (sweep, "job.step", MAX_SWEEP_POINTS),
        (tran, "job.tstep", MAX_TRAN_STEPS),
        (adaptive, "job.options.max_step", MAX_TRAN_STEPS),
    ] {
        let job = Json::parse(job)
            .unwrap()
            .push("deck", RC_DECK)
            .push("nodes", nodes(&["out"]));
        let resp = client
            .call(&Json::obj().push("id", 12).push("job", job))
            .unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(resp.get("stage").and_then(Json::as_str), Some("validate"));
        let message = resp.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains(field), "{message}");
        assert!(message.contains(&budget.to_string()), "{message}");
    }

    // The connection still works after every rejection, and the one
    // worker survived to run the final job.
    let resp = client
        .call(
            &Json::obj()
                .push("id", 11)
                .push("job", Json::obj().push("kind", "fig7")),
        )
        .unwrap();
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 1, "only the final good job was admitted");
    assert!(stats.protocol_errors >= 3);
}

#[test]
fn deadline_produces_a_timeout_response() {
    let server = start(1, 4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    // ~10^6 transient steps would take seconds; the 5 ms deadline fires
    // at a per-step checkpoint long before that.
    let response = client
        .call(
            &Json::obj().push("id", "slow").push("timeout_ms", 5).push(
                "job",
                Json::obj()
                    .push("kind", "transient")
                    .push("deck", RC_DECK)
                    .push("tstep", 1e-9)
                    .push("tstop", 1e-3)
                    .push("nodes", nodes(&["out"])),
            ),
        )
        .unwrap();
    assert_eq!(
        response.get("status").and_then(Json::as_str),
        Some("timeout"),
        "{}",
        response.render()
    );
    let stats = server.shutdown();
    assert_eq!(stats.timed_out, 1);
}

#[test]
fn full_queue_answers_busy_without_blocking() {
    // One worker, depth 1: a slow job occupies the worker, one more
    // waits in the queue, and every further concurrent request must be
    // bounced with `busy`.
    let server = start(1, 1);
    let addr = server.local_addr();
    let slow_request = Json::obj()
        .push("id", "slow")
        .push(
            "job",
            Json::obj()
                .push("kind", "transient")
                .push("deck", RC_DECK)
                .push("tstep", 1e-8)
                .push("tstop", 2e-3)
                .push("nodes", nodes(&["out"])),
        )
        .render();
    let statuses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let body = slow_request.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let resp = client
                        .call(&Json::parse(&body).unwrap())
                        .expect("every request gets a response");
                    resp.get("status")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_owned()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let busy = statuses.iter().filter(|s| *s == "busy").count();
    let ok = statuses.iter().filter(|s| *s == "ok").count();
    assert!(
        busy >= 1,
        "expected at least one busy response: {statuses:?}"
    );
    assert!(ok >= 1, "expected at least one completion: {statuses:?}");
    assert_eq!(busy + ok, statuses.len(), "no other statuses: {statuses:?}");
    let stats = server.shutdown();
    assert_eq!(stats.rejected_busy, busy as u64);
    assert_eq!(stats.accepted, ok as u64);
}

#[test]
fn ping_echoes_id_and_reports_version_and_uptime() {
    let server = start(1, 4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let response = client
        .call(
            &Json::obj()
                .push("id", "are-you-there")
                .push("job", Json::obj().push("kind", "ping")),
        )
        .unwrap();
    assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        response.get("id").and_then(Json::as_str),
        Some("are-you-there")
    );
    let result = response.get("result").unwrap();
    assert_eq!(
        result.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(result.get("uptime_ms").and_then(Json::as_u64).is_some());
    // Ping bypasses admission: nothing was accepted or completed.
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 0);
    assert_eq!(stats.completed, 0);
}

#[test]
fn stats_reports_counters_gauges_and_per_kind_histograms() {
    let server = start(2, 8);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let op_jobs = 3;
    for i in 0..op_jobs {
        // Distinct decks, so each job is a cache miss that solves and
        // records to the per-kind latency histogram (hits record to
        // `serve.cache.hit_latency_ns` instead — covered in cache.rs).
        let deck = format!(
            "* op {i}\nV1 in 0 1\nR1 in out {}\nC1 out 0 1u\n.end\n",
            1000 + i
        );
        let response = client
            .call(
                &Json::obj().push("id", i).push(
                    "job",
                    Json::obj()
                        .push("kind", "op")
                        .push("deck", deck)
                        .push("nodes", nodes(&["out"])),
                ),
            )
            .unwrap();
        assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));
    }
    let response = client
        .call(
            &Json::obj()
                .push("id", "snap")
                .push("job", Json::obj().push("kind", "stats")),
        )
        .unwrap();
    assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));
    let result = response.get("result").unwrap();
    assert!(result.get("uptime_ms").and_then(Json::as_u64).is_some());

    let counters = result.get("counters").unwrap();
    let get = |section: &Json, name: &str| section.get(name).and_then(Json::as_u64);
    assert_eq!(get(counters, "serve.accepted"), Some(op_jobs));
    assert_eq!(get(counters, "serve.completed"), Some(op_jobs));
    assert_eq!(get(counters, "serve.rejected_busy"), Some(0));
    assert_eq!(get(counters, "serve.timed_out"), Some(0));
    assert_eq!(get(counters, "serve.stats"), Some(1));
    assert!(get(counters, "serve.worker_busy_ns").unwrap() > 0);
    assert_eq!(get(counters, "serve.cache.hit"), Some(0));
    assert_eq!(get(counters, "serve.cache.miss"), Some(op_jobs));

    let gauges = result.get("gauges").unwrap();
    assert_eq!(get(gauges, "serve.workers"), Some(2));
    assert_eq!(get(gauges, "serve.queue_capacity"), Some(8));
    assert_eq!(get(gauges, "serve.queue_depth"), Some(0));

    // Every queued kind is pre-registered, so the histogram section
    // lists all seven latency histograms even though only `op` ran.
    let histograms = result.get("histograms").unwrap();
    let op_latency = histograms.get("serve.latency_ns.op").unwrap();
    assert_eq!(get(op_latency, "count"), Some(op_jobs));
    assert!(get(op_latency, "p50").unwrap() <= get(op_latency, "p99").unwrap());
    for kind in ["dc_sweep", "ac_sweep", "transient", "fig2", "fig5", "fig7"] {
        let hist = histograms
            .get(&format!("serve.latency_ns.{kind}"))
            .unwrap_or_else(|| panic!("latency histogram for {kind} not pre-registered"));
        assert_eq!(get(hist, "count"), Some(0));
    }
    assert_eq!(
        histograms
            .get("serve.queue_wait_ns.op")
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64),
        Some(op_jobs)
    );
}

#[test]
fn fast_path_answers_while_the_queue_is_full() {
    // One worker, depth 1: two slow jobs fill the worker and the
    // queue. While they grind, a queued job kind must bounce with
    // `busy` — but `ping` and `stats` are answered on the connection
    // thread, before admission, so a saturated server stays
    // observable.
    let server = start(1, 1);
    let addr = server.local_addr();
    let slow_request = Json::obj()
        .push("id", "slow")
        .push(
            "job",
            Json::obj()
                .push("kind", "transient")
                .push("deck", RC_DECK)
                .push("tstep", 1e-8)
                .push("tstop", 2e-3)
                .push("nodes", nodes(&["out"])),
        )
        .render();
    std::thread::scope(|scope| {
        let spawn_slow = |body: String| {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let resp = client.call(&Json::parse(&body).unwrap()).unwrap();
                resp.get("status")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_owned()
            })
        };

        let mut probe = Client::connect(addr).unwrap();
        let fetch_stats = |client: &mut Client| {
            let resp = client
                .call(
                    &Json::obj()
                        .push("id", "probe")
                        .push("job", Json::obj().push("kind", "stats")),
                )
                .unwrap();
            assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
            resp.get("result").cloned().unwrap()
        };
        // Polls the fast path until the server reaches the given
        // (accepted, completed, queue_depth) state.
        let mut wait_for = |accepted: u64, depth: u64, what: &str| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            loop {
                let snap = fetch_stats(&mut probe);
                let counter = |name: &str| {
                    snap.get("counters")
                        .unwrap()
                        .get(name)
                        .and_then(Json::as_u64)
                        .unwrap()
                };
                let gauge_depth = snap
                    .get("gauges")
                    .unwrap()
                    .get("serve.queue_depth")
                    .and_then(Json::as_u64)
                    .unwrap();
                if counter("serve.accepted") == accepted
                    && counter("serve.completed") == 0
                    && gauge_depth == depth
                {
                    break;
                }
                assert!(std::time::Instant::now() < deadline, "timed out: {what}");
                std::thread::yield_now();
            }
        };

        // Admit the slow jobs one at a time so neither is bounced:
        // the first must be on the worker (queue empty again) before
        // the second is sent to fill the queue.
        let first = spawn_slow(slow_request.clone());
        wait_for(1, 0, "first slow job picked up by the worker");
        let second = spawn_slow(slow_request.clone());
        wait_for(2, 1, "second slow job waiting in the queue");
        let slow_handles = [first, second];

        // A queued kind is bounced...
        let busy = probe
            .call(
                &Json::obj().push("id", "bounced").push(
                    "job",
                    Json::obj()
                        .push("kind", "op")
                        .push("deck", RC_DECK)
                        .push("nodes", nodes(&["out"])),
                ),
            )
            .unwrap();
        assert_eq!(busy.get("status").and_then(Json::as_str), Some("busy"));

        // ...but the fast path still answers.
        let pong = probe
            .call(
                &Json::obj()
                    .push("id", "still-there")
                    .push("job", Json::obj().push("kind", "ping")),
            )
            .unwrap();
        assert_eq!(pong.get("status").and_then(Json::as_str), Some("ok"));
        let snap = fetch_stats(&mut probe);
        assert_eq!(
            snap.get("counters")
                .unwrap()
                .get("serve.rejected_busy")
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            snap.get("gauges")
                .unwrap()
                .get("serve.queue_depth")
                .and_then(Json::as_u64),
            Some(1),
            "the queued slow job is still waiting"
        );

        for h in slow_handles {
            assert_eq!(h.join().unwrap(), "ok");
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.rejected_busy, 1);
}

#[test]
fn graceful_drain_answers_every_admitted_job() {
    let server = start(2, 32);
    let addr = server.local_addr();
    let responses: Vec<Json> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|conn| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    (0..5)
                        .map(|i| {
                            client
                                .call(
                                    &Json::obj().push("id", conn * 100 + i).push(
                                        "job",
                                        Json::obj()
                                            .push("kind", "op")
                                            .push("deck", RC_DECK)
                                            .push("nodes", nodes(&["out"])),
                                    ),
                                )
                                .unwrap()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(responses.len(), 20);
    assert!(responses
        .iter()
        .all(|r| r.get("status").and_then(Json::as_str) == Some("ok")));
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 20);
    assert_eq!(stats.completed, 20);
    assert_eq!(stats.connections, 4);
    assert_eq!(stats.protocol_errors, 0);
}
