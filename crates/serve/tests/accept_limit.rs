//! A server that runs out of file descriptors accepts again once they
//! come back: a failed `accept` is retried, never the end of the
//! acceptor.
//!
//! The test runs its own binary again under `ulimit -n 64`, so only
//! that child process runs short of descriptors.

use std::net::TcpStream;
use std::process::Command;
use std::time::Duration;

use carbon_json::Json;
use carbon_serve::{Client, Server, ServerConfig};

/// Set in the child process, which does the work under the low limit.
const CHILD: &str = "CARBON_SERVE_ACCEPT_LIMIT_CHILD";

const NAME: &str = "a_failed_accept_does_not_stop_the_server";

#[test]
fn a_failed_accept_does_not_stop_the_server() {
    if std::env::var_os(CHILD).is_some() {
        run_out_of_descriptors_then_ping();
        return;
    }
    let output = Command::new("sh")
        .arg("-c")
        .arg(format!("ulimit -n 64 && exec \"$0\" --exact {NAME}"))
        .arg(std::env::current_exe().unwrap())
        .env(CHILD, "1")
        .output()
        .expect("run the child under sh");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "child failed ({}):\n{stdout}\n{stderr}",
        output.status
    );
    assert!(
        stdout.contains("1 passed"),
        "the child ran no test:\n{stdout}"
    );
}

/// Opens client sockets until `connect` fails for want of a descriptor,
/// holds them while the acceptor's own `accept` fails the same way,
/// drops them, and then expects a fresh connection to be served.
fn run_out_of_descriptors_then_ping() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    let mut held = Vec::new();
    while let Ok(stream) = TcpStream::connect(addr) {
        held.push(stream);
        assert!(held.len() < 64, "connect never ran out of descriptors");
    }
    std::thread::sleep(Duration::from_millis(50));
    drop(held);

    let mut client = Client::connect(addr).expect("connect once descriptors are back");
    let pong = client
        .call(
            &Json::obj()
                .push("id", 1)
                .push("job", Json::obj().push("kind", "ping")),
        )
        .expect("ping answered");
    assert_eq!(pong.get("status").and_then(Json::as_str), Some("ok"));
    drop(client);
    let stats = server.shutdown();
    assert!(stats.connections >= 1);
}
