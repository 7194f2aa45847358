//! Aggregation of a `carbon-trace` JSONL file into benchmark records.
//!
//! `carbon-bench trace-summary <trace.jsonl>` reads a raw event stream
//! (one JSON object per span / instant, as written by the
//! `CARBON_TRACE` exporter) line by line with [`Json::parse`], and
//! folds it into the bench harness's row, [`Record`], which
//! [`crate::compare`] consumes:
//!
//! ```text
//! {"id":"trace/spice.newton_solve/dur_ns","median_ns":8100,"min_ns":7300,"max_ns":9800,"iters":101}
//! {"id":"trace/spice.newton_solve/iters","median_ns":3,"min_ns":2,"max_ns":9,"iters":101}
//! {"id":"trace/instant/spice.sparse.stale_pivot","median_ns":1,"min_ns":1,"max_ns":1,"iters":1}
//! ```
//!
//! Span durations and integer span fields become median/min/max rows
//! (`iters` = number of spans observed); instants become count rows.
//! Counts and gauges live in the `carbon-metrics` registry, not in the
//! trace. The payoff: a captured trace can be diffed against a
//! committed baseline with the exact `compare` machinery that gates
//! wall-clock benchmarks, so a convergence regression (more Newton
//! iterations, more repivots) fails CI the same way a slowdown does.

use std::collections::BTreeMap;
use std::fmt;

use carbon_json::Json;
use carbon_runtime::bench::Record;

/// A summarized trace: every statistic, sorted by id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Aggregated rows in id order (deterministic output): `median_ns`,
    /// `min_ns` and `max_ns` over the observations, `iters` their count.
    pub stats: Vec<Record>,
    /// Events whose line could not be classified (not JSON, unknown
    /// `ev` value or missing mandatory key). Zero on a well-formed
    /// trace.
    pub skipped: usize,
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.stats {
            writeln!(f, "{}", s.render())?;
        }
        Ok(())
    }
}

/// The row of one id's observations: median, extremes and count.
fn from_samples(id: String, samples: &mut [u64]) -> Record {
    samples.sort_unstable();
    Record {
        id,
        median_ns: samples[samples.len() / 2],
        min_ns: samples[0],
        max_ns: samples[samples.len() - 1],
        iters: samples.len() as u64,
    }
}

/// Aggregates a trace JSONL text into benchmark-schema statistics.
///
/// A span field is aggregated when it reads as a non-negative `Int`
/// ([`Json::as_u64`]): counts such as Newton iterations, repivots and
/// chunk sizes. Floats, strings, bools, nulls and integers above
/// `i64::MAX` are skipped.
pub fn summarize(text: &str) -> TraceSummary {
    let mut span_durs: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut span_fields: BTreeMap<(String, String), Vec<u64>> = BTreeMap::new();
    let mut instants: BTreeMap<String, u64> = BTreeMap::new();
    let mut skipped = 0usize;

    for line in text.lines().filter(|line| !line.trim().is_empty()) {
        let Ok(event) = Json::parse(line) else {
            skipped += 1;
            continue;
        };
        let text_of = |key| event.get(key).and_then(Json::as_str);
        match (text_of("ev"), text_of("name")) {
            (Some("span"), Some(name)) => {
                let Some(dur) = event.get("dur_ns").and_then(Json::as_u64) else {
                    skipped += 1;
                    continue;
                };
                span_durs.entry(name.to_owned()).or_default().push(dur);
                if let Some(Json::Obj(fields)) = event.get("fields") {
                    for (key, value) in fields {
                        if let Some(value) = value.as_u64() {
                            span_fields
                                .entry((name.to_owned(), key.clone()))
                                .or_default()
                                .push(value);
                        }
                    }
                }
            }
            (Some("instant"), Some(name)) => *instants.entry(name.to_owned()).or_insert(0) += 1,
            _ => skipped += 1,
        }
    }

    let durs = span_durs
        .into_iter()
        .map(|(name, mut durs)| from_samples(format!("trace/{name}/dur_ns"), &mut durs));
    let fields = span_fields
        .into_iter()
        .map(|((name, key), mut values)| from_samples(format!("trace/{name}/{key}"), &mut values));
    let instants = instants.into_iter().map(|(name, hits)| Record {
        id: format!("trace/instant/{name}"),
        median_ns: hits,
        min_ns: hits,
        max_ns: hits,
        iters: hits,
    });
    let mut stats: Vec<Record> = durs.chain(fields).chain(instants).collect();
    stats.sort_by(|a, b| a.id.cmp(&b.id));
    TraceSummary { stats, skipped }
}

/// Folds a span tree into flamegraph-style folded stacks.
///
/// Each output line is `root;child;grandchild <self_ns>` — the span's
/// name path from its outermost ancestor, and the total time spent in
/// spans with that path *excluding* time inside their child spans
/// (flamegraph "self" semantics, in nanoseconds). Lines are sorted by
/// path, so the output is deterministic and feeds directly into
/// `flamegraph.pl` / `inferno-flamegraph`.
///
/// Spans whose recorded parent id is absent from the trace (e.g. a
/// truncated capture) root their own stack; parent chains are
/// depth-capped defensively. Instants are ignored.
pub fn folded(text: &str) -> String {
    struct SpanRec {
        name: String,
        parent: Option<u64>,
        dur: u64,
        child_ns: u64,
    }
    let mut spans: BTreeMap<u64, SpanRec> = BTreeMap::new();
    for line in text.lines() {
        let Ok(event) = Json::parse(line) else {
            continue;
        };
        if event.get("ev").and_then(Json::as_str) != Some("span") {
            continue;
        }
        let int = |key| event.get(key).and_then(Json::as_u64);
        let (Some(name), Some(id), Some(dur)) = (
            event.get("name").and_then(Json::as_str),
            int("id"),
            int("dur_ns"),
        ) else {
            continue;
        };
        spans.insert(
            id,
            SpanRec {
                name: name.to_owned(),
                parent: int("parent"),
                dur,
                child_ns: 0,
            },
        );
    }
    let child_durs: Vec<(u64, u64)> = spans
        .values()
        .filter_map(|s| s.parent.map(|p| (p, s.dur)))
        .collect();
    for (parent, dur) in child_durs {
        if let Some(rec) = spans.get_mut(&parent) {
            rec.child_ns += dur;
        }
    }
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for rec in spans.values() {
        let mut path = vec![rec.name.as_str()];
        let mut cursor = rec.parent;
        // Depth cap against malformed traces with parent cycles.
        for _ in 0..64 {
            let Some(parent) = cursor.and_then(|id| spans.get(&id)) else {
                break;
            };
            path.push(parent.name.as_str());
            cursor = parent.parent;
        }
        path.reverse();
        *stacks.entry(path.join(";")).or_insert(0) += rec.dur.saturating_sub(rec.child_ns);
    }
    let mut out = String::new();
    for (path, self_ns) in stacks {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&self_ns.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = concat!(
        "{\"ev\":\"span\",\"name\":\"spice.newton_solve\",\"id\":1,\"thread\":1,",
        "\"start_ns\":0,\"dur_ns\":900,\"fields\":{\"iters\":3,\"converged\":true,",
        "\"residual\":1.2e-10,\"matrix\":\"dense\"}}\n",
        "{\"ev\":\"span\",\"name\":\"spice.newton_solve\",\"id\":2,\"thread\":1,",
        "\"start_ns\":1000,\"dur_ns\":500,\"fields\":{\"iters\":9}}\n",
        "{\"ev\":\"span\",\"name\":\"spice.newton_solve\",\"id\":3,\"thread\":2,",
        "\"start_ns\":1200,\"dur_ns\":700,\"fields\":{\"iters\":4}}\n",
        "{\"ev\":\"instant\",\"name\":\"spice.continuation_halve\",\"thread\":1,",
        "\"at_ns\":50,\"fields\":{\"depth\":1}}\n",
    );

    #[test]
    fn aggregates_span_durations_and_fields() {
        let summary = summarize(TRACE);
        assert_eq!(summary.skipped, 0);
        let by_id: BTreeMap<&str, &Record> =
            summary.stats.iter().map(|s| (s.id.as_str(), s)).collect();

        let dur = by_id["trace/spice.newton_solve/dur_ns"];
        assert_eq!(
            (dur.median_ns, dur.min_ns, dur.max_ns, dur.iters),
            (700, 500, 900, 3)
        );

        let iters = by_id["trace/spice.newton_solve/iters"];
        assert_eq!((iters.median_ns, iters.min_ns, iters.max_ns), (4, 3, 9));

        let halvings = by_id["trace/instant/spice.continuation_halve"];
        assert_eq!(halvings.median_ns, 1);

        // Non-integer fields (bool, float, string) are not aggregated.
        assert!(!by_id.contains_key("trace/spice.newton_solve/converged"));
        assert!(!by_id.contains_key("trace/spice.newton_solve/residual"));
        assert!(!by_id.contains_key("trace/spice.newton_solve/matrix"));
    }

    #[test]
    fn output_is_compare_compatible_and_sorted() {
        let summary = summarize(TRACE);
        let rendered = summary.to_string();
        let parsed = crate::compare::parse_jsonl(&rendered).expect("schema round-trips");
        assert_eq!(parsed, summary.stats);
        let ids: Vec<&str> = summary.stats.iter().map(|s| s.id.as_str()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        // Diffing a summary against itself gates clean.
        let cmp = crate::compare::compare(&parsed, &parsed, 0.10);
        assert!(cmp.regressions().is_empty());
    }

    #[test]
    fn unknown_events_are_counted_not_fatal() {
        let summary = summarize("{\"ev\":\"mystery\",\"name\":\"x\"}\nnot json\n");
        assert_eq!(summary.skipped, 2);
        assert!(summary.stats.is_empty());
    }

    #[test]
    fn folded_stacks_report_self_time_per_path() {
        // root(1000) -> inner(600) -> leaf(100); second root(50); and a
        // span whose parent is missing from the capture.
        let trace = concat!(
            "{\"ev\":\"span\",\"name\":\"leaf\",\"id\":3,\"parent\":2,\"thread\":1,",
            "\"start_ns\":20,\"dur_ns\":100,\"fields\":{}}\n",
            "{\"ev\":\"span\",\"name\":\"inner\",\"id\":2,\"parent\":1,\"thread\":1,",
            "\"start_ns\":10,\"dur_ns\":600,\"fields\":{}}\n",
            "{\"ev\":\"span\",\"name\":\"root\",\"id\":1,\"thread\":1,",
            "\"start_ns\":0,\"dur_ns\":1000,\"fields\":{}}\n",
            "{\"ev\":\"span\",\"name\":\"root\",\"id\":4,\"thread\":1,",
            "\"start_ns\":2000,\"dur_ns\":50,\"fields\":{}}\n",
            "{\"ev\":\"span\",\"name\":\"orphan\",\"id\":9,\"parent\":77,\"thread\":2,",
            "\"start_ns\":0,\"dur_ns\":5,\"fields\":{}}\n",
            "{\"ev\":\"instant\",\"name\":\"noise\",\"thread\":1,\"at_ns\":1,\"fields\":{}}\n",
        );
        let out = folded(trace);
        assert_eq!(
            out,
            "orphan 5\nroot 450\nroot;inner 500\nroot;inner;leaf 100\n"
        );
    }

    #[test]
    fn folded_merges_repeated_paths() {
        let trace = concat!(
            "{\"ev\":\"span\",\"name\":\"work\",\"id\":1,\"thread\":1,",
            "\"start_ns\":0,\"dur_ns\":10,\"fields\":{}}\n",
            "{\"ev\":\"span\",\"name\":\"work\",\"id\":2,\"thread\":1,",
            "\"start_ns\":20,\"dur_ns\":30,\"fields\":{}}\n",
        );
        assert_eq!(folded(trace), "work 40\n");
        assert_eq!(folded(""), "");
    }

    #[test]
    fn only_non_negative_json_integers_are_aggregated() {
        let line = "{\"ev\":\"span\",\"name\":\"s\",\"id\":1,\"thread\":1,\"start_ns\":0,\
                    \"dur_ns\":1,\"fields\":{\"label\":\"a,}\\\"b\",\"n\":7,\"neg\":-2,\
                    \"big\":18446744073709551615,\"x\":2.0}}";
        let ids: Vec<String> = summarize(line).stats.into_iter().map(|s| s.id).collect();
        assert_eq!(ids, ["trace/s/dur_ns", "trace/s/n"]);
    }
}
