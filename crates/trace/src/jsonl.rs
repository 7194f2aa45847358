//! Line-delimited JSON trace exporter — the subscriber behind
//! `CARBON_TRACE=path.jsonl`.
//!
//! One JSON object per event, flushed per line so a crash (or the
//! process exiting without dropping the global subscriber, which lives
//! in a `static`) loses at most the event being written:
//!
//! ```text
//! {"ev":"span","name":"spice.newton_solve","id":7,"parent":3,"thread":1,"start_ns":120,"dur_ns":8100,"fields":{"iters":4,"converged":true}}
//! {"ev":"instant","name":"spice.continuation_halve","parent":9,"thread":2,"at_ns":9000,"fields":{"v_from":0.5,"v_to":0.75}}
//! ```
//!
//! The schema is flat; `carbon-bench`'s `trace-summary` reads each line
//! back with `carbon_json::Json::parse`. Non-finite floats serialize as
//! `null` to keep every line valid JSON. The exporter writes each line
//! by hand from the shared `carbon-json` escaping and float primitives
//! rather than through a `Json` tree: it runs once per event, and a
//! `Value::U64` above `i64::MAX` has no lossless `Json` form. So the
//! exporter, the bench tooling, and the `carbon-serve` protocol all
//! speak one dialect.

use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use carbon_json::{escape, write_f64};

use crate::{Event, Field, Subscriber, Value};

/// Writes each event as one JSON line to a file.
#[derive(Debug)]
pub struct JsonlWriter {
    out: Mutex<File>,
}

impl JsonlWriter {
    /// Creates (truncating) the trace file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self {
            out: Mutex::new(File::create(path)?),
        })
    }

    /// Renders one event as its JSON line (no trailing newline).
    pub fn render(event: &Event) -> String {
        let mut s = String::with_capacity(128);
        match event {
            Event::Span {
                name,
                id,
                parent,
                thread,
                start_ns,
                dur_ns,
                fields,
            } => {
                let _ = write!(s, "{{\"ev\":\"span\",\"name\":\"{}\"", escape(name));
                let _ = write!(s, ",\"id\":{id}");
                if let Some(p) = parent {
                    let _ = write!(s, ",\"parent\":{p}");
                }
                let _ = write!(
                    s,
                    ",\"thread\":{thread},\"start_ns\":{start_ns},\"dur_ns\":{dur_ns}"
                );
                render_fields(&mut s, fields);
                s.push('}');
            }
            Event::Instant {
                name,
                parent,
                thread,
                at_ns,
                fields,
            } => {
                let _ = write!(s, "{{\"ev\":\"instant\",\"name\":\"{}\"", escape(name));
                if let Some(p) = parent {
                    let _ = write!(s, ",\"parent\":{p}");
                }
                let _ = write!(s, ",\"thread\":{thread},\"at_ns\":{at_ns}");
                render_fields(&mut s, fields);
                s.push('}');
            }
        }
        s
    }
}

fn render_fields(s: &mut String, fields: &[Field]) {
    if fields.is_empty() {
        return;
    }
    s.push_str(",\"fields\":{");
    for (k, f) in fields.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":", escape(f.key));
        render_value(s, &f.value);
    }
    s.push('}');
}

fn render_value(s: &mut String, v: &Value) {
    match v {
        Value::U64(v) => {
            let _ = write!(s, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(s, "{v}");
        }
        Value::F64(v) => write_f64(s, *v),
        Value::Bool(v) => {
            let _ = write!(s, "{v}");
        }
        Value::Str(v) => {
            let _ = write!(s, "\"{}\"", escape(v));
        }
    }
}

impl Subscriber for JsonlWriter {
    fn event(&self, event: &Event) {
        let line = Self::render(event);
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        // A failed write (disk full, closed fd) silently drops the
        // event: telemetry must never take the simulation down.
        let _ = writeln!(out, "{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_span_with_fields() {
        let line = JsonlWriter::render(&Event::Span {
            name: "spice.newton_solve",
            id: 7,
            parent: Some(3),
            thread: 1,
            start_ns: 120,
            dur_ns: 8100,
            fields: vec![
                Field::new("iters", 4u64),
                Field::new("converged", true),
                Field::new("residual", 2.5e-10),
            ],
        });
        assert_eq!(
            line,
            "{\"ev\":\"span\",\"name\":\"spice.newton_solve\",\"id\":7,\"parent\":3,\
             \"thread\":1,\"start_ns\":120,\"dur_ns\":8100,\
             \"fields\":{\"iters\":4,\"converged\":true,\"residual\":2.5e-10}}"
        );
    }

    #[test]
    fn renders_rootless_span_without_parent_key() {
        let line = JsonlWriter::render(&Event::Span {
            name: "root",
            id: 1,
            parent: None,
            thread: 1,
            start_ns: 0,
            dur_ns: 5,
            fields: vec![],
        });
        assert!(!line.contains("parent"), "{line}");
        assert!(!line.contains("fields"), "{line}");
    }

    #[test]
    fn renders_instant() {
        let i = JsonlWriter::render(&Event::Instant {
            name: "x",
            parent: None,
            thread: 1,
            at_ns: 9,
            fields: vec![Field::new("v", Value::Str("a\"b".into()))],
        });
        assert!(i.contains("\"v\":\"a\\\"b\""), "{i}");
    }

    #[test]
    fn non_finite_floats_stay_valid_json() {
        let line = JsonlWriter::render(&Event::Instant {
            name: "x",
            parent: None,
            thread: 1,
            at_ns: 0,
            fields: vec![
                Field::new("nan", f64::NAN),
                Field::new("inf", f64::INFINITY),
            ],
        });
        assert!(line.contains("\"nan\":null"), "{line}");
        assert!(line.contains("\"inf\":null"), "{line}");
    }

    #[test]
    fn writes_lines_to_file() {
        let dir = std::env::temp_dir().join("carbon-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("unit-{}.jsonl", std::process::id()));
        let writer = JsonlWriter::create(&path).unwrap();
        for at_ns in [1, 2] {
            writer.event(&Event::Instant {
                name: "unit.tick",
                parent: None,
                thread: 1,
                at_ns,
                fields: vec![],
            });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn escape_handles_control_characters() {
        assert_eq!(escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
        assert_eq!(escape("\u{01}"), "\\u0001");
    }
}
