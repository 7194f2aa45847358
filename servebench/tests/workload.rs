//! The job-list generator: deterministic, seed-varied, exact shares.

use std::collections::{BTreeSet, HashSet};
use std::time::Instant;

use carbon_json::Json;
use servebench::drive;
use servebench::workload::{JobList, Kind, Workload};

fn job_keys(list: &JobList) -> Vec<u64> {
    list.requests
        .iter()
        .map(|r| {
            Json::parse(&r.body)
                .expect("bodies are JSON")
                .get("job")
                .expect("bodies carry a job")
                .canonical_key()
        })
        .collect()
}

fn kinds(list: &JobList) -> Vec<Kind> {
    list.requests.iter().map(|r| r.kind).collect()
}

#[test]
fn same_seed_gives_a_byte_identical_list() {
    for w in Workload::ALL {
        assert_eq!(
            w.job_list_of_len(7, 400),
            w.job_list_of_len(7, 400),
            "{w:?}"
        );
    }
}

#[test]
fn another_seed_changes_every_body_but_not_the_kind_shares() {
    for w in Workload::ALL {
        let a = w.job_list_of_len(7, 400);
        let b = w.job_list_of_len(8, 400);
        assert_eq!(kinds(&a), kinds(&b), "{w:?}");
        assert_eq!(a.repeat_fraction(), b.repeat_fraction(), "{w:?}");
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_ne!(x.body, y.body, "{w:?}");
        }
        for list in [&a, &b] {
            let present: BTreeSet<Kind> = kinds(list).into_iter().collect();
            for kind in &present {
                let count = list.requests.iter().filter(|r| r.kind == *kind).count();
                assert_eq!(count * present.len(), list.requests.len(), "{w:?} {kind:?}");
            }
        }
    }
}

#[test]
fn run_lists_are_whole_granules() {
    for w in Workload::ALL {
        for seconds in [1, 7, 20] {
            assert_eq!(w.list_len(seconds) % w.granule(), 0, "{w:?}");
            assert!(w.list_len(seconds) >= w.list_len(1) * seconds as usize / 2);
        }
    }
}

#[test]
fn circuit_and_campaign_bodies_never_repeat() {
    for w in [Workload::Circuit, Workload::Campaign] {
        let list = w.job_list_of_len(3, 3000);
        let keys = job_keys(&list);
        let distinct: HashSet<u64> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len(), "{w:?}");
        assert!(list.priming.is_empty());
        assert_eq!(list.repeat_fraction(), 0.0);
    }
}

#[test]
fn interactive_repeats_only_primed_bodies_and_fresh_ones_never_repeat() {
    let list = Workload::Interactive.job_list_of_len(3, 4000);
    assert_eq!(list.repeat_fraction(), 0.9);
    let primed: HashSet<u64> = list
        .priming
        .iter()
        .map(|b| Json::parse(b).unwrap().get("job").unwrap().canonical_key())
        .collect();
    let mut fresh = HashSet::new();
    for (request, key) in list.requests.iter().zip(job_keys(&list)) {
        if request.repeat {
            assert!(primed.contains(&key));
        } else {
            assert!(!primed.contains(&key));
            assert!(fresh.insert(key), "a fresh body repeated");
        }
    }
}

#[test]
fn interactive_hit_share_equals_the_repeat_fraction() {
    let list = Workload::Interactive.job_list_of_len(11, 400);
    let mut rig = drive::set_up(&list).expect("set-up");
    let before = rig.server.stats();
    let pass = drive::run_pass(&mut rig.clients, &list.requests, Instant::now());
    let after = rig.server.stats();
    assert_eq!(pass.ok(), list.requests.len());
    let hits = after.cache_hits - before.cache_hits;
    let accepted = after.accepted - before.accepted;
    assert_eq!(accepted, list.requests.len() as u64);
    assert_eq!(hits as f64 / accepted as f64, list.repeat_fraction());
    let all: Vec<usize> = (0..list.requests.len()).collect();
    let expected = drive::expected_digests(&list, &all).expect("in-process solve");
    for (o, e) in pass.outcomes.iter().zip(expected) {
        assert_eq!(o.digest, e);
    }
}
