//! Aggregation of a `carbon-trace` JSONL file into benchmark records.
//!
//! `carbon-bench trace-summary <trace.jsonl>` folds a raw event stream
//! (one JSON object per span / instant, as written by the
//! `CARBON_TRACE` exporter) into the same flat JSONL schema the bench
//! harness emits and [`crate::compare`] consumes:
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

use carbon_json::{find_string_end, string_field, u64_field};

/// One aggregated statistic from a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStat {
    /// Record id, e.g. `"trace/spice.newton_solve/dur_ns"`.
    pub id: String,
    /// Median of the observations (the count for instants).
    pub median: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Number of observations folded in.
    pub count: u64,
}

impl TraceStat {
    fn from_samples(id: String, samples: &mut [u64]) -> Self {
        samples.sort_unstable();
        Self {
            id,
            median: samples[samples.len() / 2],
            min: samples[0],
            max: samples[samples.len() - 1],
            count: samples.len() as u64,
        }
    }

    /// Renders the stat as one harness-schema JSONL line (no newline).
    pub fn render(&self) -> String {
        format!(
            "{{\"id\":\"{}\",\"median_ns\":{},\"min_ns\":{},\"max_ns\":{},\"iters\":{}}}",
            self.id, self.median, self.min, self.max, self.count
        )
    }
}

/// A summarized trace: every statistic, sorted by id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Aggregated rows in id order (deterministic output).
    pub stats: Vec<TraceStat>,
    /// Events whose line could not be classified (unknown `ev` value or
    /// missing mandatory key). Zero on a well-formed trace.
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

/// Extracts the integer-valued entries of the `"fields":{...}` object
/// of a trace line. Floats, strings, bools and nulls are skipped —
/// only counts (Newton iterations, repivots, queue depths) are
/// meaningful to aggregate.
fn integer_fields(line: &str) -> Vec<(String, u64)> {
    let Some(start) = line.find("\"fields\":{") else {
        return Vec::new();
    };
    let body = &line[start + "\"fields\":{".len()..];
    let mut out = Vec::new();
    let mut rest = body;
    // Each iteration consumes one `"key":value` pair.
    while let Some(key_start) = rest.find('"') {
        let after_key = &rest[key_start + 1..];
        let Some(key_end) = find_string_end(after_key) else {
            break;
        };
        let key = &after_key[..key_end];
        let Some(value) = after_key[key_end + 1..].strip_prefix(':') else {
            break;
        };
        if let Some(string_value) = value.strip_prefix('"') {
            // String value: skip past its closing quote.
            let Some(end) = find_string_end(string_value) else {
                break;
            };
            rest = &string_value[end + 1..];
        } else {
            let literal: &str = value.split_terminator([',', '}']).next().unwrap_or("");
            if !literal.is_empty() && literal.bytes().all(|b| b.is_ascii_digit()) {
                if let Ok(v) = literal.parse::<u64>() {
                    out.push((key.to_owned(), v));
                }
            }
            rest = &value[literal.len()..];
        }
        match rest.as_bytes().first() {
            Some(b',') => rest = &rest[1..],
            _ => break,
        }
    }
    out
}

/// Aggregates a trace JSONL text into benchmark-schema statistics.
pub fn summarize(text: &str) -> TraceSummary {
    let mut span_durs: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut span_fields: BTreeMap<(String, String), Vec<u64>> = BTreeMap::new();
    let mut instants: BTreeMap<String, u64> = BTreeMap::new();
    let mut skipped = 0usize;

    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let classified = (|| {
            let ev = string_field(line, "ev")?;
            let name = string_field(line, "name")?;
            match ev.as_str() {
                "span" => {
                    let dur = u64_field(line, "dur_ns")?;
                    span_durs.entry(name.clone()).or_default().push(dur);
                    for (key, value) in integer_fields(line) {
                        span_fields
                            .entry((name.clone(), key))
                            .or_default()
                            .push(value);
                    }
                }
                "instant" => *instants.entry(name).or_insert(0) += 1,
                _ => return None,
            }
            Some(())
        })();
        if classified.is_none() {
            skipped += 1;
        }
    }

    let mut stats = Vec::new();
    for (name, mut durs) in span_durs {
        stats.push(TraceStat::from_samples(
            format!("trace/{name}/dur_ns"),
            &mut durs,
        ));
    }
    for ((name, key), mut values) in span_fields {
        stats.push(TraceStat::from_samples(
            format!("trace/{name}/{key}"),
            &mut values,
        ));
    }
    for (name, hits) in instants {
        stats.push(TraceStat {
            id: format!("trace/instant/{name}"),
            median: hits,
            min: hits,
            max: hits,
            count: hits,
        });
    }
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
        let line = line.trim();
        if string_field(line, "ev").as_deref() != Some("span") {
            continue;
        }
        let (Some(name), Some(id), Some(dur)) = (
            string_field(line, "name"),
            u64_field(line, "id"),
            u64_field(line, "dur_ns"),
        ) else {
            continue;
        };
        spans.insert(
            id,
            SpanRec {
                name,
                parent: u64_field(line, "parent"),
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
        let by_id: BTreeMap<&str, &TraceStat> =
            summary.stats.iter().map(|s| (s.id.as_str(), s)).collect();

        let dur = by_id["trace/spice.newton_solve/dur_ns"];
        assert_eq!(
            (dur.median, dur.min, dur.max, dur.count),
            (700, 500, 900, 3)
        );

        let iters = by_id["trace/spice.newton_solve/iters"];
        assert_eq!((iters.median, iters.min, iters.max), (4, 3, 9));

        let halvings = by_id["trace/instant/spice.continuation_halve"];
        assert_eq!(halvings.median, 1);

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
        assert_eq!(parsed.len(), summary.stats.len());
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
    fn field_scanner_survives_tricky_strings() {
        let line = "{\"ev\":\"span\",\"name\":\"s\",\"id\":1,\"thread\":1,\"start_ns\":0,\
                    \"dur_ns\":1,\"fields\":{\"label\":\"a,}\\\"b\",\"n\":7}}";
        assert_eq!(integer_fields(line), vec![("n".to_owned(), 7)]);
    }
}
