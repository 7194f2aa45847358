//! The served path: an in-process `carbon_serve::Server` on loopback,
//! driven by closed-loop clients, and the in-process oracle its
//! responses are checked against.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use carbon_json::Json;
use carbon_serve::{Client, Job, Server, ServerConfig};

use crate::fnv;
use crate::host;
use crate::workload::{JobList, Request};

/// Closed-loop connections, one per core of the 2-vCPU reference host.
/// One connection leaves a vCPU idle, and idle vCPUs wake slowly
/// enough to halve throughput in some runs.
pub const CONNECTIONS: usize = 2;

/// A started server with connected, warmed-up clients.
pub struct Rig {
    /// The server under test.
    pub server: Server,
    /// One client per connection.
    pub clients: Vec<Client>,
}

/// Starts a server with the default configuration, connects
/// [`CONNECTIONS`] clients, sends one untimed `ping` per connection
/// and primes the cache with the list's working set.
///
/// # Errors
///
/// Any socket failure, or a priming request not answered `ok`.
pub fn set_up(list: &JobList) -> Result<Rig, String> {
    let server = Server::start("127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for c in 0..CONNECTIONS {
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let warm = Json::obj()
            .push("id", format!("warmup-{c}"))
            .push("job", Json::obj().push("kind", "ping"));
        expect_ok(&mut client, &warm.render())?;
        clients.push(client);
    }
    for body in &list.priming {
        expect_ok(&mut clients[0], body)?;
    }
    Ok(Rig { server, clients })
}

fn expect_ok(client: &mut Client, body: &str) -> Result<Vec<u8>, String> {
    let response = client
        .call_raw(body.as_bytes())
        .map_err(|e| format!("set-up request: {e}"))?;
    if !response_is_ok(&response) {
        return Err(format!(
            "set-up request not answered ok: {}",
            String::from_utf8_lossy(&response)
        ));
    }
    Ok(response)
}

/// Whether a response envelope reports `"status":"ok"`. The server
/// renders `{"id":<id>,"status":...}`, and the ids this benchmark
/// sends contain no comma, so the status follows the first comma.
fn response_is_ok(response: &[u8]) -> bool {
    response.starts_with(b"{\"id\":")
        && response
            .iter()
            .position(|&b| b == b',')
            .is_some_and(|p| response[p..].starts_with(b",\"status\":\"ok\""))
}

/// How one request ended, as its client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Answered `ok`.
    Ok,
    /// Answered `busy`, `timeout` or `error`.
    Refused,
    /// The connection failed, or the request was never sent because
    /// its connection had failed.
    Protocol,
}

/// One request's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Round trip, frame written to response frame read, ns.
    pub round_trip_ns: u64,
    /// FNV-1a 64 of the response bytes.
    pub digest: u64,
    /// Response size, bytes.
    pub response_bytes: u64,
    /// When the response was read, ns after the pass began.
    pub done_ns: u64,
    /// How it ended.
    pub status: Status,
}

const UNSENT: Outcome = Outcome {
    round_trip_ns: 0,
    digest: 0,
    response_bytes: 0,
    done_ns: 0,
    status: Status::Protocol,
};

/// One closed-loop pass over a job list.
pub struct Pass {
    /// Outcome of request `i` at index `i`.
    pub outcomes: Vec<Outcome>,
    /// Wall time from the first request sent to the last response read.
    pub wall: Duration,
    /// Nonvoluntary context switches of the client threads.
    pub client_nvcsw: u64,
}

impl Pass {
    /// Requests answered `ok`.
    pub fn ok(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == Status::Ok)
            .count()
    }

    /// FNV-1a 64 over the per-response digests in id order.
    pub fn digest(&self) -> u64 {
        let mut h = carbon_json::Fnv::new();
        for o in &self.outcomes {
            h.write(&o.digest.to_le_bytes());
        }
        h.finish()
    }
}

/// Sends every request over `clients`, each waiting for its
/// reply before taking the next request index from a shared counter.
/// The bodies are rendered before this is called; a client keeps only
/// a digest of each response. Completion times count from `started`.
pub fn run_pass(clients: &mut [Client], requests: &[Request], started: Instant) -> Pass {
    let next = AtomicUsize::new(0);
    let per_client: Vec<(Vec<(usize, Outcome)>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::with_capacity(requests.len() / CONNECTIONS + 1);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(i) else {
                            break;
                        };
                        let sent = Instant::now();
                        let outcome = match client.call_raw(request.body.as_bytes()) {
                            Ok(response) => Outcome {
                                round_trip_ns: nanos(sent.elapsed()),
                                done_ns: nanos(started.elapsed()),
                                digest: fnv(&response),
                                response_bytes: response.len() as u64,
                                status: if response_is_ok(&response) {
                                    Status::Ok
                                } else {
                                    Status::Refused
                                },
                            },
                            Err(_) => UNSENT,
                        };
                        out.push((i, outcome));
                        if outcome.status == Status::Protocol {
                            break;
                        }
                    }
                    (out, host::own_nvcsw())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut outcomes = vec![UNSENT; requests.len()];
    let mut client_nvcsw = 0;
    for (out, nvcsw) in per_client {
        client_nvcsw += nvcsw;
        for (i, o) in out {
            outcomes[i] = o;
        }
    }
    Pass {
        outcomes,
        wall,
        client_nvcsw,
    }
}

/// Saturating nanoseconds of a duration.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The `ok` response envelope the server sends for a job result:
/// `id`, `status`, `kind`, `result`, in that order.
pub fn ok_envelope(id: &Json, kind: &str, result: Json) -> Json {
    Json::obj()
        .push("id", id.clone())
        .push("status", "ok")
        .push("kind", kind)
        .push("result", result)
}

/// Digests of the responses the server should have sent for the
/// requests at `indices`, each from an in-process `Job::from_json`,
/// `Job::run` and envelope render without server or cache. A body
/// repeated in the list is solved once and its response re-stamped
/// with each request's id, as the server's cache does.
///
/// # Errors
///
/// A request does not parse, validate or run.
pub fn expected_digests(list: &JobList, indices: &[usize]) -> Result<Vec<u64>, String> {
    let mut solved: HashMap<&str, Vec<u8>> = HashMap::new();
    indices
        .iter()
        .map(|&i| {
            let body = &list.requests[i].body;
            let (id_part, job_text) = body
                .split_once(",\"job\":")
                .ok_or_else(|| format!("request {i} has no job field"))?;
            if !solved.contains_key(job_text) {
                let response = solve(body)?;
                solved.insert(job_text, response[id_part.len()..].to_vec());
            }
            let suffix = &solved[job_text];
            let mut h = carbon_json::Fnv::new();
            h.write(id_part.as_bytes());
            h.write(suffix);
            Ok(h.finish())
        })
        .collect()
}

/// The `ok` response for one request envelope, solved in-process.
fn solve(body: &str) -> Result<Vec<u8>, String> {
    let envelope = Json::parse(body).map_err(|e| format!("parse: {e}"))?;
    let id = envelope.get("id").ok_or("request has no id")?;
    let job_field = envelope.get("job").ok_or("request has no job")?;
    let job = Job::from_json(job_field).map_err(|e| e.to_string())?;
    let result = job.run().map_err(|e| e.to_string())?;
    Ok(ok_envelope(id, job.kind(), result).render().into_bytes())
}
