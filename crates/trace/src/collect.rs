//! An in-memory [`Subscriber`] that records every event — the test
//! harness's window into the instrumentation layer.

use std::sync::{Arc, Mutex, PoisonError};

use crate::{Event, Subscriber, Value};

/// Collects events into a vector behind a mutex. Cheap to share
/// (`Arc`), queryable while collection continues.
#[derive(Debug, Default)]
pub struct Collector {
    events: Mutex<Vec<Event>>,
}

impl Collector {
    /// Creates a shareable collector.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Snapshot of every event received so far, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Every span event with the given name.
    pub fn spans(&self, name: &str) -> Vec<Event> {
        self.events()
            .into_iter()
            .filter(|e| matches!(e, Event::Span { .. }) && e.name() == name)
            .collect()
    }

    /// The values of field `key` across every span named `name`, in
    /// arrival order (spans without the field are skipped).
    pub fn span_field(&self, name: &str, key: &str) -> Vec<Value> {
        self.events()
            .iter()
            .filter_map(|e| match e {
                Event::Span {
                    name: n, fields, ..
                } if *n == name => fields
                    .iter()
                    .find(|f| f.key == key)
                    .map(|f| f.value.clone()),
                _ => None,
            })
            .collect()
    }
}

impl Subscriber for Collector {
    fn event(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{with_subscriber, Field};

    #[test]
    fn span_field_extraction() {
        let c = Collector::new();
        with_subscriber(c.clone(), || {
            let mut s = crate::span!("t.solve");
            s.record("iters", 7u64);
            drop(s);
            let mut s = crate::span!("t.solve");
            s.record("iters", 9u64);
            s.record("residual", 1e-10);
            drop(s);
        });
        assert_eq!(
            c.span_field("t.solve", "iters"),
            vec![Value::U64(7), Value::U64(9)]
        );
        assert_eq!(c.span_field("t.solve", "residual"), vec![Value::F64(1e-10)]);
        assert!(c.span_field("t.absent", "iters").is_empty());
    }

    #[test]
    fn collector_is_shareable_across_threads() {
        let c = Collector::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    c.event(&Event::Instant {
                        name: "t.parallel",
                        parent: None,
                        thread: t,
                        at_ns: 0,
                        fields: vec![Field::new("t", t)],
                    });
                });
            }
        });
        assert_eq!(c.events().len(), 4);
    }
}
