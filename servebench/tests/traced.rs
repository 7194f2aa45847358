//! The traced run is consistent. One test in its own binary: the
//! solver and executor counters live in a process-global registry, so
//! nothing else may run jobs while it reads them.

use servebench::ledger::{self, PER_LAYER};
use servebench::workload::Workload;
use servebench::END_TO_END;

#[test]
fn traced_counts_repeat_exactly_and_layers_fit_in_the_round_trip() {
    for (w, len) in [
        (Workload::Interactive, 2000),
        (Workload::Circuit, 200),
        (Workload::Campaign, 60),
    ] {
        let list = w.job_list_of_len(5, len);
        let a = ledger::trace(&list).expect("traced run");
        let b = ledger::trace(&list).expect("traced run");
        for t in [&a, &b] {
            assert!(t.problems.is_empty(), "{w:?}: {:?}", t.problems);
            assert!(t.warnings.is_empty(), "{w:?}: {:?}", t.warnings);
            assert_eq!(t.failed, 0, "{w:?}");
            assert!(t.value("serve.transport_us").unwrap() >= 0.0, "{w:?}");
            for (name, _) in PER_LAYER {
                assert!(t.value(name).is_some(), "{w:?} lacks {name}");
            }
        }
        assert_eq!(a.counts, b.counts, "{w:?}");
        assert_eq!(a.digest, b.digest, "{w:?}");
        let c = a.counts;
        match w {
            Workload::Interactive => {
                assert_eq!(c.cache_hits * 10, list.requests.len() as u64 * 9);
                assert_eq!(c.cache_inserts * 10, list.requests.len() as u64);
            }
            Workload::Circuit => {
                assert!(c.newton_solves > 0 && c.tran_steps > 0 && c.sparse_factors > 0);
                assert_eq!(c.cache_inserts, list.requests.len() as u64);
                assert_eq!(c.executor_chunks, 0);
            }
            Workload::Campaign => {
                assert!(c.executor_chunks > 0);
                assert_eq!(c.newton_solves, 0);
            }
        }
    }
}

#[test]
fn benchmark_manifest_lists_the_metrics_the_binary_prints() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let manifest = carbon_json::Json::parse(&text).expect("BENCHMARK.json is JSON");
    for (section, expected) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(String, String)> = manifest
            .get(section)
            .and_then(carbon_json::Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(carbon_json::Json::as_str)
                        .unwrap()
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect();
        let expected: Vec<(String, String)> = expected
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(listed, expected, "{section}");
    }
}
