//! End-to-end service tests: protocol round trips, validation at the
//! boundary, backpressure, deadlines, and graceful drain.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use carbon_json::Json;
use carbon_serve::job::{MAX_SWEEP_POINTS, MAX_TRAN_STEPS};
use carbon_serve::{read_frame, write_frame, Client, Server, ServerConfig, MAX_FRAME_LEN};

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

    // That job is now resident, but the envelope is checked before the
    // cache is: a bad id or timeout is still a validation error.
    let resp = client
        .call_raw(br#"{"id":[1],"job":{"kind":"fig7"}}"#)
        .unwrap();
    let resp = Json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    assert_eq!(resp.get("stage").and_then(Json::as_str), Some("validate"));
    let message = resp.get("message").and_then(Json::as_str).unwrap();
    assert_eq!(message, "request.id must be a scalar");
    let resp = client
        .call(
            &Json::obj()
                .push("id", 13)
                .push("timeout_ms", 0)
                .push("job", Json::obj().push("kind", "fig7")),
        )
        .unwrap();
    assert_eq!(resp.get("stage").and_then(Json::as_str), Some("validate"));
    let message = resp.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("request.timeout_ms"), "{message}");

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 1, "only the final good job was admitted");
    assert_eq!(stats.cache_hits, 0, "a rejected envelope never hits");
    assert!(stats.protocol_errors >= 3);
}

/// A raw loopback connection whose reads give up after 30 s, so a
/// server that never answers fails the test instead of hanging it.
fn raw_connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

fn parse(body: &[u8]) -> Json {
    Json::parse(std::str::from_utf8(body).unwrap()).unwrap()
}

/// Every in-tree writer sends a frame in one write, but another peer
/// may split it anywhere. A header, a 150 ms pause, then the body one
/// byte per segment is still one request: it gets the bytes `Client`
/// gets, and the connection serves on.
#[test]
fn a_frame_split_across_segments_is_one_request() {
    let server = start(1, 4);
    let request = Json::obj()
        .push("id", 21)
        .push(
            "job",
            Json::obj()
                .push("kind", "op")
                .push("deck", RC_DECK)
                .push("nodes", nodes(&["in", "out"])),
        )
        .render();
    let mut raw = raw_connect(&server);
    let header = u32::try_from(request.len()).unwrap().to_be_bytes();
    raw.write_all(&header).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    for byte in request.as_bytes() {
        raw.write_all(std::slice::from_ref(byte)).unwrap();
    }
    let split = read_frame(&mut raw).unwrap().expect("a response frame");
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(split, client.call_raw(request.as_bytes()).unwrap());

    let second = Json::obj().push("id", 22).push(
        "job",
        Json::obj()
            .push("kind", "dc_sweep")
            .push("deck", RC_DECK)
            .push("source", "V1")
            .push("from", 0.0)
            .push("to", 1.0)
            .push("step", 0.5)
            .push("nodes", nodes(&["out"])),
    );
    write_frame(&mut raw, second.render().as_bytes()).unwrap();
    let resp = parse(&read_frame(&mut raw).unwrap().expect("a second response"));
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(resp.get("id"), second.get("id"));

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.protocol_errors, 0);
}

/// A header over `MAX_FRAME_LEN` leaves a body the server never reads,
/// so the stream cannot be resynchronised. The server answers one
/// `parse` error naming the declared length and the limit, counts it,
/// closes that connection, and serves the next one.
#[test]
fn an_oversized_frame_header_is_answered_then_the_connection_closes() {
    let server = start(1, 4);
    let mut raw = raw_connect(&server);
    raw.write_all(&0xFFFF_FFFF_u32.to_be_bytes()).unwrap();
    let resp = parse(&read_frame(&mut raw).unwrap().expect("an error frame"));
    assert_eq!(resp.get("id"), Some(&Json::Null));
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(resp.get("stage").and_then(Json::as_str), Some("parse"));
    let message = resp.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("4294967295"), "{message}");
    assert!(message.contains(&MAX_FRAME_LEN.to_string()), "{message}");
    assert!(
        read_frame(&mut raw).unwrap().is_none(),
        "the server closes after the error frame"
    );

    let mut client = Client::connect(server.local_addr()).unwrap();
    let resp = client
        .call(
            &Json::obj()
                .push("id", 1)
                .push("job", Json::obj().push("kind", "fig7")),
        )
        .unwrap();
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));

    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.accepted, 1);
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
    // queue. While they grind, a job that needs a worker must bounce
    // with `busy` — but `ping`, `stats` and a resident cache hit are
    // answered on the connection thread, before admission, so a
    // saturated server stays observable and keeps serving repeats.
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
        // Prime the cache with a body the bounced request below does
        // not share.
        let resident = Json::obj().push(
            "job",
            Json::obj()
                .push("kind", "op")
                .push("deck", RC_DECK)
                .push("nodes", nodes(&["in"])),
        );
        let primed = probe.call(&resident.clone().push("id", "primed")).unwrap();
        assert_eq!(primed.get("status").and_then(Json::as_str), Some("ok"));
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
        // (accepted, queue_depth) state, with only the primed job
        // completed.
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
                    && counter("serve.completed") == 1
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
        wait_for(2, 0, "first slow job picked up by the worker");
        let second = spawn_slow(slow_request.clone());
        wait_for(3, 1, "second slow job waiting in the queue");
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

        // ...and so does the resident body, with the primed result.
        let hit = probe.call(&resident.push("id", "hit")).unwrap();
        assert_eq!(hit.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(hit.get("result"), primed.get("result"));
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
    // The primed job, the two slow jobs and the hit.
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 4);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.cache_hits, 1);
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

/// A connection that stays open after its last response has its thread
/// blocked in a read. The drain ends that read at once, so shutdown
/// does not wait for the peer to send or close. The drain itself waits
/// at most one 5 ms accept poll; the 40 ms bound leaves room for a
/// loaded test host.
#[test]
fn shutdown_does_not_wait_on_an_idle_connection() {
    let server = start(1, 4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let pong = client
        .call(
            &Json::obj()
                .push("id", "idle")
                .push("job", Json::obj().push("kind", "ping")),
        )
        .unwrap();
    assert_eq!(pong.get("status").and_then(Json::as_str), Some("ok"));

    let started = Instant::now();
    let stats = server.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(40),
        "shutdown took {took:?} with one idle connection"
    );
    assert_eq!(stats.connections, 1);
    drop(client);
}
