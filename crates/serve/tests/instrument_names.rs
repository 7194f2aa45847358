//! The instrument table in DESIGN.md §13 is the one list of registry
//! instrument names. This test runs one job of each queued kind through
//! an in-process server, fetches `stats`, and holds the snapshot to the
//! table: every reported name has a row of the same kind, and every
//! carbon-serve row is reported (the server pre-registers them all).

use std::collections::{BTreeMap, BTreeSet};

use carbon_json::Json;
use carbon_serve::job::QUEUED_JOB_KINDS;
use carbon_serve::{Client, Server, ServerConfig};

const DESIGN: &str = include_str!("../../../DESIGN.md");
const BEGIN: &str = "<!-- instrument-names:begin -->";
const END: &str = "<!-- instrument-names:end -->";

const RC_DECK: &str = "* rc low-pass\nV1 in 0 1\nR1 in out 1k\nC1 out 0 1u\n.end\n";

/// The table as concrete name → (kind, owning crate). A `<kind>` row
/// stands for one instrument per queued job kind.
fn table() -> BTreeMap<String, (String, String)> {
    let begin = DESIGN.find(BEGIN).expect("begin marker in DESIGN.md");
    let end = DESIGN.find(END).expect("end marker in DESIGN.md");
    let mut rows = BTreeMap::new();
    for line in DESIGN[begin + BEGIN.len()..end].lines() {
        // `| `name` | kind | unit | crate |` splits into six cells; the
        // header and separator rows have no backticked name.
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let ["", name, kind, _unit, krate, ""] = cells[..] else {
            continue;
        };
        let Some(name) = name.strip_prefix('`').and_then(|n| n.strip_suffix('`')) else {
            continue;
        };
        let names: Vec<String> = if name.contains("<kind>") {
            QUEUED_JOB_KINDS
                .iter()
                .map(|k| name.replace("<kind>", k))
                .collect()
        } else {
            vec![name.to_owned()]
        };
        for name in names {
            let previous = rows.insert(name.clone(), (kind.to_owned(), krate.to_owned()));
            assert!(previous.is_none(), "`{name}` has two rows");
        }
    }
    rows
}

fn nodes(names: &[&str]) -> Json {
    Json::Arr(names.iter().map(|n| Json::Str((*n).to_owned())).collect())
}

fn floats(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// One small job of every queued kind, in `QUEUED_JOB_KINDS` order.
fn one_job_per_kind() -> Vec<Json> {
    vec![
        Json::obj()
            .push("kind", "op")
            .push("deck", RC_DECK)
            .push("nodes", nodes(&["out"])),
        Json::obj()
            .push("kind", "dc_sweep")
            .push("deck", RC_DECK)
            .push("source", "V1")
            .push("from", 0.0)
            .push("to", 1.0)
            .push("step", 0.5)
            .push("nodes", nodes(&["out"])),
        Json::obj()
            .push("kind", "ac_sweep")
            .push("deck", RC_DECK)
            .push("source", "V1")
            .push("fstart", 1.0)
            .push("fstop", 1e4)
            .push("points_per_decade", 2)
            .push("nodes", nodes(&["out"])),
        Json::obj()
            .push("kind", "transient")
            .push("deck", RC_DECK)
            .push("tstep", 1e-4)
            .push("tstop", 1e-3)
            .push("nodes", nodes(&["out"])),
        Json::obj().push("kind", "fig2"),
        Json::obj().push("kind", "fig5"),
        Json::obj().push("kind", "fig7"),
        Json::obj()
            .push("kind", "econ_point")
            .push("node", "cnt28")
            .push("area_cm2", 1.0)
            .push("d0", 0.2)
            .push("purity", 0.999)
            .push("devices", 64),
        Json::obj()
            .push("kind", "econ_campaign")
            .push("nodes", nodes(&["cnt28"]))
            .push("areas_cm2", floats(&[1.0]))
            .push("d0", floats(&[0.2]))
            .push("purities", floats(&[0.99, 0.999]))
            .push("devices", 64),
    ]
}

#[test]
fn stats_snapshot_matches_the_design_table() {
    let table = table();
    assert!(!table.is_empty(), "no rows between the DESIGN.md markers");

    let server = Server::start("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).unwrap();
    let jobs = one_job_per_kind();
    let kinds: Vec<&str> = jobs
        .iter()
        .filter_map(|j| j.get("kind").and_then(Json::as_str))
        .collect();
    assert_eq!(kinds, QUEUED_JOB_KINDS);
    for (i, job) in jobs.into_iter().enumerate() {
        let response = client
            .call(&Json::obj().push("id", i).push("job", job))
            .unwrap();
        assert_eq!(
            response.get("status").and_then(Json::as_str),
            Some("ok"),
            "{}",
            response.render()
        );
    }
    let response = client
        .call(
            &Json::obj()
                .push("id", "snap")
                .push("job", Json::obj().push("kind", "stats")),
        )
        .unwrap();
    let result = response.get("result").expect("stats result");

    let mut reported = BTreeSet::new();
    for kind in ["counter", "gauge", "histogram"] {
        let Some(Json::Obj(section)) = result.get(&format!("{kind}s")) else {
            panic!("stats has no {kind}s section: {}", result.render());
        };
        for (name, _) in section {
            let Some((row_kind, _)) = table.get(name) else {
                panic!("`{name}` is reported by stats but has no row in DESIGN.md §13");
            };
            assert_eq!(
                row_kind, kind,
                "`{name}` is a {kind}, the table says {row_kind}"
            );
            reported.insert(name.as_str());
        }
    }
    for (name, (_, krate)) in &table {
        if krate == "carbon-serve" {
            assert!(
                reported.contains(name.as_str()),
                "carbon-serve row `{name}` is not pre-registered"
            );
        }
    }
    server.shutdown();
}
