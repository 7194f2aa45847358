//! Small loads through an in-process server. The determinism suite
//! pins the golden schedule's digests at a thousand jobs; these tests
//! run a few dozen of its jobs over two loopback connections and check
//! the server's own accounting: every job answered once, the cache's
//! hit/miss split, and which histogram each answer lands in.

#[path = "../tests/load/mod.rs"]
mod load;

mod tests {
    use std::collections::BTreeMap;

    use carbon_json::{Fnv, Json};

    use super::load::{digest_of, fetch_stats, request_body, run_set, schedule};
    use crate::{Server, ServerConfig, DEFAULT_CACHE_BYTES};

    /// The seven kinds the golden schedule mixes.
    const KINDS: [&str; 7] = [
        "op",
        "dc_sweep",
        "ac_sweep",
        "transient",
        "fig7",
        "econ_point",
        "econ_campaign",
    ];

    fn start(cache_bytes: u64) -> Server {
        let config = ServerConfig {
            workers: 2,
            queue_depth: 64,
            default_timeout_ms: None,
            cache_bytes,
        };
        Server::start("127.0.0.1:0", config).expect("bind loopback")
    }

    /// Runs the schedule's first `jobs` jobs `passes` times over one
    /// server on two connections. Returns each pass's digest and cache
    /// hits, the final `stats` snapshot, and the server's counters.
    fn run_passes(
        cache_bytes: u64,
        jobs: usize,
        passes: usize,
    ) -> (Vec<u64>, Vec<u64>, Json, crate::ServerStats) {
        let server = start(cache_bytes);
        let requests = schedule(jobs);
        let (mut digests, mut hits) = (Vec::new(), Vec::new());
        for _ in 0..passes {
            let before = server.stats().cache_hits;
            let responses = run_set(server.local_addr(), &requests, 2);
            assert_eq!(responses.len(), jobs, "every job answered once");
            digests.push(digest_of(&responses));
            hits.push(server.stats().cache_hits - before);
        }
        let snapshot = fetch_stats(server.local_addr());
        (digests, hits, snapshot, server.shutdown())
    }

    fn counter(snapshot: &Json, name: &str) -> Option<u64> {
        snapshot.get("counters")?.get(name)?.as_u64()
    }

    fn histogram_count(snapshot: &Json, name: &str) -> Option<u64> {
        snapshot
            .get("histograms")?
            .get(name)?
            .get("count")?
            .as_u64()
    }

    #[test]
    fn distribution_is_deterministic_and_mixed() {
        let kinds: Vec<&str> = (0..200).map(|i| request_body(i).0).collect();
        assert_eq!(
            kinds,
            (0..200).map(|i| request_body(i).0).collect::<Vec<_>>()
        );
        assert_eq!(schedule(200), schedule(200));
        for kind in KINDS {
            assert!(kinds.contains(&kind), "missing {kind}");
        }
        let (_, body) = request_body(3);
        assert!(body.contains("\"id\":3"));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let fnv = |bytes: &[u8]| {
            let mut h = Fnv::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
        // A pass digest hashes each response as its id in 8 big-endian
        // bytes, then its body, then `\n`.
        let body = b"{\"id\":7,\"status\":\"ok\"}".to_vec();
        let mut framed = 7u64.to_be_bytes().to_vec();
        framed.extend_from_slice(&body);
        framed.push(b'\n');
        assert_eq!(digest_of(&BTreeMap::from([(7, body)])), fnv(&framed));
    }

    #[test]
    fn small_load_runs_clean() {
        let (digests, _, snapshot, stats) = run_passes(DEFAULT_CACHE_BYTES, 20, 1);
        assert_eq!(digests.len(), 1);
        assert_eq!(stats.accepted + stats.rejected_busy, 20);
        assert_eq!(stats.completed, stats.accepted);
        assert_eq!(stats.timed_out, 0);
        assert_eq!(stats.errored, 0);
        assert_eq!(stats.protocol_errors, 0);
        // Counters are in the snapshot even at zero.
        for name in [
            "serve.rejected_busy",
            "serve.timed_out",
            "serve.cache.hit",
            "serve.cache.miss",
        ] {
            assert!(counter(&snapshot, name).is_some(), "no counter {name}");
        }
        assert_eq!(counter(&snapshot, "serve.accepted"), Some(stats.accepted));
        assert!(histogram_count(&snapshot, "serve.latency_ns.op").unwrap() > 0);
        // One ping per connection; one stats call per connection plus
        // the snapshot fetch itself.
        assert_eq!(counter(&snapshot, "serve.ping"), Some(2));
        assert_eq!(counter(&snapshot, "serve.stats"), Some(3));
    }

    #[test]
    fn second_pass_is_all_hits_and_histograms_stay_separate() {
        let (digests, hits, snapshot, stats) = run_passes(DEFAULT_CACHE_BYTES, 24, 2);
        assert_eq!(
            digests[0], digests[1],
            "cold and warm passes must produce byte-identical responses"
        );
        // 24 jobs with 9 distinct bodies: each is solved once, every
        // repeat is served from the cache, and pass 2 is all hits.
        assert_eq!(stats.accepted, 48);
        assert_eq!((stats.cache_hits, stats.cache_misses), (39, 9));
        assert_eq!(hits[1], 24, "the warm pass is all hits");
        // Hits land only in the hit histogram, misses only in the
        // per-kind solve histograms, so cached repeats cannot skew
        // solve latency.
        assert_eq!(
            histogram_count(&snapshot, "serve.cache.hit_latency_ns"),
            Some(stats.cache_hits)
        );
        let Some(Json::Obj(histograms)) = snapshot.get("histograms") else {
            panic!("stats snapshot without histograms");
        };
        let solved: u64 = histograms
            .iter()
            .filter(|(name, _)| name.starts_with("serve.latency_ns."))
            .map(|(name, _)| histogram_count(&snapshot, name).unwrap())
            .sum();
        assert_eq!(solved, stats.cache_misses);
        // The fast-path kinds have no latency histogram at all.
        assert_eq!(histogram_count(&snapshot, "serve.latency_ns.ping"), None);
        assert_eq!(histogram_count(&snapshot, "serve.latency_ns.stats"), None);
    }

    #[test]
    fn disabled_cache_still_runs_clean_with_zero_hits() {
        let (digests, hits, _, stats) = run_passes(0, 12, 2);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(hits, [0, 0]);
        assert_eq!(stats.cache_misses, 24, "all jobs solved");
        assert_eq!(digests[0], digests[1]);
    }
}
