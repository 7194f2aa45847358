//! The golden load: a deterministic mixed request schedule and the
//! loopback runner that sends it over parallel connections.
//!
//! Shared by the determinism suite, which pins the schedule's digests
//! at scale, and by the `serve_load` unit tests in the library, which
//! run a few dozen of its jobs and check the server's accounting. It
//! names the library as `carbon_serve` in both.

use std::collections::BTreeMap;

use carbon_json::{Fnv, Json};
use carbon_serve::Client;

pub const RC_DECK: &str = "* rc low-pass\nV1 in 0 1\nR1 in out 1k\nC1 out 0 1u\n.end\n";
pub const DIVIDER_DECK: &str =
    "* loaded divider\nV1 top 0 2\nR1 top mid 2k\nR2 mid 0 2k\nC1 mid 0 10n\n.end\n";

pub fn nodes(names: &[&str]) -> Json {
    Json::Arr(names.iter().map(|n| Json::Str((*n).to_owned())).collect())
}

pub fn floats(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// Job `i` of the golden schedule, as `(kind, request body)`. Every
/// 97th job is a full `fig7` campaign, every 89th a small
/// wafer-economics campaign; the rest cycle through the four circuit
/// analyses plus an `econ_point` whose purity walks a four-value set.
/// Eleven distinct job bodies in all.
pub fn request_body(i: usize) -> (&'static str, String) {
    let (kind, job) = if i % 97 == 96 {
        ("fig7", Json::obj().push("kind", "fig7"))
    } else if i % 89 == 88 {
        ("econ_campaign", econ_campaign_body())
    } else {
        match i % 6 {
            0 => (
                "op",
                Json::obj()
                    .push("kind", "op")
                    .push("deck", RC_DECK)
                    .push("nodes", nodes(&["in", "out"])),
            ),
            1 => (
                "dc_sweep",
                Json::obj()
                    .push("kind", "dc_sweep")
                    .push("deck", DIVIDER_DECK)
                    .push("source", "V1")
                    .push("from", 0.0)
                    .push("to", 2.0)
                    .push("step", 0.25)
                    .push("nodes", nodes(&["mid"])),
            ),
            2 => (
                "ac_sweep",
                Json::obj()
                    .push("kind", "ac_sweep")
                    .push("deck", RC_DECK)
                    .push("source", "V1")
                    .push("fstart", 1.0)
                    .push("fstop", 1e5)
                    .push("points_per_decade", 5)
                    .push("nodes", nodes(&["out"])),
            ),
            3 => (
                "transient",
                Json::obj()
                    .push("kind", "transient")
                    .push("deck", RC_DECK)
                    .push("tstep", 1e-5)
                    .push("tstop", 1e-3)
                    .push("nodes", nodes(&["out"])),
            ),
            4 => ("econ_point", econ_point_body(ECON_PURITIES[(i / 6) % 4])),
            _ => (
                "op",
                Json::obj()
                    .push("kind", "op")
                    .push("deck", DIVIDER_DECK)
                    .push("nodes", nodes(&["mid", "top"])),
            ),
        }
    };
    (kind, Json::obj().push("id", i).push("job", job).render())
}

/// Purity axis of the schedule's `econ_point` slot: it spans the
/// metallic-removal cliff, so the responses differ materially.
const ECON_PURITIES: [f64; 4] = [0.95, 0.99, 0.999, 0.9999];

/// A single wafer-economics point on the `cnt28` preset, in
/// fixed-sample mode.
fn econ_point_body(purity: f64) -> Json {
    Json::obj()
        .push("kind", "econ_point")
        .push("node", "cnt28")
        .push("area_cm2", 1.0)
        .push("d0", 0.2)
        .push("purity", purity)
        .push("devices", 512)
        .push("seed", 0)
}

/// The schedule's small wafer-economics campaign: 2 nodes × 2 areas ×
/// 2 defect densities × 3 purities = 24 cells at 128 devices each,
/// negative-binomial clustering.
fn econ_campaign_body() -> Json {
    Json::obj()
        .push("kind", "econ_campaign")
        .push("nodes", nodes(&["cnt90", "cnt28"]))
        .push("areas_cm2", floats(&[0.5, 1.0]))
        .push("d0", floats(&[0.1, 0.3]))
        .push("purities", floats(&[0.95, 0.99, 0.999]))
        .push("yield_model", "negative_binomial")
        .push("alpha", 2.0)
        .push("devices", 128)
        .push("seed", 2014)
}

/// The request bodies of the schedule's first `jobs` jobs.
pub fn schedule(jobs: usize) -> Vec<String> {
    (0..jobs).map(|i| request_body(i).1).collect()
}

/// FNV-1a 64 over one pass's responses in id order: each contributes
/// its id as 8 big-endian bytes, then its body, then `\n`. Every
/// response must be `ok`.
pub fn digest_of(responses: &BTreeMap<u64, Vec<u8>>) -> u64 {
    let mut h = Fnv::new();
    for (id, body) in responses {
        let text = std::str::from_utf8(body).unwrap();
        assert!(
            text.contains("\"status\":\"ok\""),
            "job {id} not ok: {text}"
        );
        h.write(&id.to_be_bytes());
        h.write(body);
        h.write(b"\n");
    }
    h.finish()
}

/// The server's `stats` snapshot (the response's `result`), fetched
/// over a fresh connection.
pub fn fetch_stats(addr: std::net::SocketAddr) -> Json {
    let mut client = Client::connect(addr).expect("connect");
    let response = client
        .call(
            &Json::obj()
                .push("id", "stats")
                .push("job", Json::obj().push("kind", "stats")),
        )
        .expect("stats response");
    response.get("result").cloned().expect("stats result")
}

/// Runs `requests` against one server over `connections` parallel
/// connections (round-robin assignment) and returns the raw response
/// bytes keyed by job id.
///
/// Each connection also exercises the metrics fast path — a `ping`
/// before its jobs and a `stats` snapshot after — interleaved with the
/// queued work. Those responses carry uptime and latency aggregates
/// (the documented determinism exception), so they are checked for
/// `ok` but excluded from the byte comparison.
pub fn run_set(
    addr: std::net::SocketAddr,
    requests: &[String],
    connections: usize,
) -> BTreeMap<u64, Vec<u8>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let mine: Vec<&String> = requests.iter().skip(c).step_by(connections).collect();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    fast_path_call(&mut client, "ping");
                    let responses: Vec<(u64, Vec<u8>)> = mine
                        .into_iter()
                        .map(|body| {
                            let raw = client.call_raw(body.as_bytes()).expect("response");
                            let id =
                                Json::parse(std::str::from_utf8(&raw).expect("utf-8 response"))
                                    .expect("JSON response")
                                    .get("id")
                                    .and_then(Json::as_u64)
                                    .expect("response carries the job id");
                            (id, raw)
                        })
                        .collect();
                    fast_path_call(&mut client, "stats");
                    responses
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
}

/// Sends one fast-path request (`ping` or `stats`) and asserts it is
/// answered `ok` on the connection thread. The body is intentionally
/// not returned: fast-path responses are operational state, not
/// simulation output, and never enter the determinism comparison.
fn fast_path_call(client: &mut Client, kind: &str) {
    let response = client
        .call(
            &Json::obj()
                .push("id", format!("fast-{kind}"))
                .push("job", Json::obj().push("kind", kind)),
        )
        .expect("fast-path response");
    assert_eq!(
        response.get("status").and_then(Json::as_str),
        Some("ok"),
        "{kind} answered {}",
        response.render()
    );
}
