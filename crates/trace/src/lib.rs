//! Zero-dependency instrumentation for the carbon-electronics stack:
//! structured spans and instants, and a pluggable [`Subscriber`] with a
//! JSONL exporter.
//!
//! The simulation stack got fast by being adaptive — replay
//! refactorization with a staleness fallback, warm-started sweeps with
//! step-halving continuation, chunked parallel campaigns — and adaptive
//! code is opaque: the *decisions* (how many Newton iterations, replay
//! or full factorization, how many halvings) are invisible in the final
//! numbers. This crate makes those decisions first-class, machine
//! readable telemetry while preserving the workspace's two contracts:
//!
//! * **Hermetic** — no registry dependencies, `std` only.
//! * **Free when off** — every probe starts with [`enabled`], a
//!   thread-local flag read plus one relaxed atomic load. No allocation,
//!   no clock read, no formatting happens unless a subscriber is
//!   installed.
//!
//! # Model
//!
//! Two event kinds ([`Event`]):
//!
//! * **Spans** — named, timed regions with key/value fields, nested via
//!   a thread-local stack ([`span!`] returns an RAII guard; the
//!   completed span is dispatched on drop).
//! * **Instants** — point events with fields (e.g. one continuation
//!   step-halving).
//!
//! Counts and gauges (one replay refactorization, a queue depth) are
//! not trace events: they live in the always-on `carbon-metrics`
//! registry, so each event is counted in exactly one place.
//!
//! Events go to a [`Subscriber`]: either the process-global one —
//! installed explicitly with [`install_global`] or implicitly from the
//! `CARBON_TRACE=path.jsonl` environment variable, which opens a
//! [`jsonl::JsonlWriter`] — or a thread-local one scoped by
//! [`with_subscriber`], which tests use to capture events without
//! cross-test interference.
//!
//! # Determinism
//!
//! Tracing observes; it never participates. No simulation value ever
//! depends on a trace query, so results stay bit-identical with tracing
//! on or off, at any `CARBON_THREADS`. Trace *files* are diagnostics,
//! not artifacts: timings and event interleavings differ run to run.

#![deny(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::must_use_candidate,
    clippy::return_self_not_must_use,
    clippy::missing_panics_doc
)]

pub mod collect;
pub mod jsonl;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once, OnceLock, RwLock};
use std::time::Instant;

/// Environment variable that activates the global JSONL exporter: set
/// `CARBON_TRACE=path.jsonl` and the first probe in the process opens
/// the file and streams every event to it.
pub const ENV_VAR: &str = "CARBON_TRACE";

/// A field value attached to a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, indices).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (residuals, voltages).
    F64(f64),
    /// Boolean (decisions).
    Bool(bool),
    /// String (names chosen at runtime).
    Str(String),
}

impl Value {
    /// The value as `f64` if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::U64(v) => Some(*v as f64),
            Self::I64(v) => Some(*v as f64),
            Self::F64(v) => Some(*v),
            Self::Bool(_) | Self::Str(_) => None,
        }
    }

    /// The value as `u64` if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::U64(v) => Some(*v),
            _ => None,
        }
    }
}

macro_rules! value_from {
    ($($ty:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$ty> for Value {
            fn from(v: $ty) -> Self {
                Self::$variant(v as $conv)
            }
        }
    )*};
}
value_from!(u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
            i64 => I64 as i64, i32 => I64 as i64,
            f64 => F64 as f64, f32 => F64 as f64);

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Self::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Self::Str(v)
    }
}

/// One key/value field on a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name (static so the disabled path never allocates keys).
    pub key: &'static str,
    /// Field value.
    pub value: Value,
}

impl Field {
    /// Builds a field from anything convertible to [`Value`].
    pub fn new(key: &'static str, value: impl Into<Value>) -> Self {
        Self {
            key,
            value: value.into(),
        }
    }
}

/// One telemetry event delivered to a [`Subscriber`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A completed span (dispatched when its guard drops).
    Span {
        /// Span name.
        name: &'static str,
        /// Process-unique span id.
        id: u64,
        /// Id of the enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// Reporting thread (small sequential id, not the OS tid).
        thread: u64,
        /// Start offset from the trace epoch, ns.
        start_ns: u64,
        /// Span duration, ns.
        dur_ns: u64,
        /// Fields recorded while the span was open.
        fields: Vec<Field>,
    },
    /// A point event.
    Instant {
        /// Event name.
        name: &'static str,
        /// Id of the enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// Reporting thread.
        thread: u64,
        /// Offset from the trace epoch, ns.
        at_ns: u64,
        /// Event fields.
        fields: Vec<Field>,
    },
}

impl Event {
    /// The event's name, whatever its kind.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Span { name, .. } | Self::Instant { name, .. } => name,
        }
    }
}

/// Sink for telemetry events. Implementations must be cheap enough to
/// call from solver inner loops *when tracing is on* and must tolerate
/// concurrent calls from executor worker threads.
pub trait Subscriber: Send + Sync {
    /// Receives one event.
    fn event(&self, event: &Event);
}

static GLOBAL: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL: RefCell<Option<Arc<dyn Subscriber>>> = const { RefCell::new(None) };
    static LOCAL_ENABLED: Cell<bool> = const { Cell::new(false) };
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds since the process's trace epoch (first probe).
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Small sequential id of the calling thread (assigned on first use).
fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        let id = t.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        t.set(id);
        id
    })
}

/// Whether any subscriber is installed — the guard every probe starts
/// with. When this returns `false` the probe does nothing further: no
/// clock read, no allocation, no field conversion.
#[inline]
pub fn enabled() -> bool {
    LOCAL_ENABLED.with(Cell::get) || global_enabled()
}

#[inline]
fn global_enabled() -> bool {
    ENV_INIT.call_once(init_global_from_env);
    GLOBAL_ENABLED.load(Ordering::Acquire)
}

fn init_global_from_env() {
    let Ok(path) = std::env::var(ENV_VAR) else {
        return;
    };
    if path.is_empty() {
        return;
    }
    match jsonl::JsonlWriter::create(&path) {
        Ok(writer) => {
            *GLOBAL
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Arc::new(writer));
            GLOBAL_ENABLED.store(true, Ordering::Release);
        }
        Err(e) => eprintln!("carbon-trace: cannot open {ENV_VAR}={path}: {e}"),
    }
}

/// Installs `subscriber` as the process-global sink, replacing any
/// previous one (including an env-installed JSONL writer). Prefer
/// [`with_subscriber`] in tests — the global sink sees events from
/// *every* thread of the process.
pub fn install_global(subscriber: Arc<dyn Subscriber>) {
    // Burn the env initializer first so a later lazy init cannot clobber
    // an explicit install.
    ENV_INIT.call_once(|| {});
    *GLOBAL
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(subscriber);
    GLOBAL_ENABLED.store(true, Ordering::Release);
}

/// Runs `f` with `subscriber` installed as this thread's sink. Events
/// from the calling thread go to `subscriber` (shadowing the global
/// sink); events from other threads — executor workers included — are
/// *not* captured, so pair this with a single-threaded executor when a
/// test needs worker events.
pub fn with_subscriber<R>(subscriber: Arc<dyn Subscriber>, f: impl FnOnce() -> R) -> R {
    struct Restore {
        prev: Option<Arc<dyn Subscriber>>,
        prev_enabled: bool,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL.with(|l| *l.borrow_mut() = self.prev.take());
            LOCAL_ENABLED.with(|e| e.set(self.prev_enabled));
        }
    }
    let _restore = Restore {
        prev: LOCAL.with(|l| l.borrow_mut().replace(subscriber)),
        prev_enabled: LOCAL_ENABLED.with(|e| e.replace(true)),
    };
    f()
}

/// Delivers `event` to the active subscriber: the thread-local one if
/// set, otherwise the global one.
pub fn dispatch(event: &Event) {
    let handled = LOCAL.with(|l| {
        if let Some(sub) = l.borrow().as_ref() {
            sub.event(event);
            true
        } else {
            false
        }
    });
    if handled {
        return;
    }
    if let Some(sub) = GLOBAL
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .as_ref()
    {
        sub.event(event);
    }
}

/// RAII guard for a named, timed region. Create with [`Span::enter`] or
/// the [`span!`] macro; the completed span (duration plus any recorded
/// fields) is dispatched when the guard drops. A guard created while
/// tracing is disabled is inert and costs nothing.
#[must_use = "a span measures the region until the guard drops"]
pub struct Span(Option<ActiveSpan>);

struct ActiveSpan {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start: Instant,
    start_ns: u64,
    fields: Vec<Field>,
}

impl Span {
    /// Opens a span (if tracing is enabled) and pushes it on the calling
    /// thread's span stack, making it the parent of nested probes.
    pub fn enter(name: &'static str) -> Self {
        if !enabled() {
            return Self(None);
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        let start_ns = now_ns();
        Self(Some(ActiveSpan {
            name,
            id,
            parent,
            start: Instant::now(),
            start_ns,
            fields: Vec::new(),
        }))
    }

    /// Attaches a field to the span. A no-op on inert guards.
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) {
        if let Some(active) = &mut self.0 {
            active.fields.push(Field::new(key, value.into()));
        }
    }

    /// Whether this guard is live (tracing was enabled at creation) —
    /// lets callers skip expensive field computation.
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else {
            return;
        };
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards normally drop in LIFO order, but be robust to a
            // span held across an early return past its children.
            if let Some(pos) = stack.iter().rposition(|&id| id == active.id) {
                stack.remove(pos);
            }
        });
        dispatch(&Event::Span {
            name: active.name,
            id: active.id,
            parent: active.parent,
            thread: thread_id(),
            start_ns: active.start_ns,
            dur_ns: active.start.elapsed().as_nanos() as u64,
            fields: active.fields,
        });
    }
}

/// Emits a point event with fields (skipped when tracing is disabled —
/// prefer the [`instant!`] macro, which also skips field conversion).
pub fn instant(name: &'static str, fields: Vec<Field>) {
    if !enabled() {
        return;
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    dispatch(&Event::Instant {
        name,
        parent,
        thread: thread_id(),
        at_ns: now_ns(),
        fields,
    });
}

/// Opens a [`Span`] guard: `span!("spice.newton_solve")`, optionally
/// with initial fields: `span!("runtime.chunk", "chunk" = c, "items" = n)`.
///
/// Field expressions are only evaluated when tracing is enabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
    ($name:expr, $($key:literal = $val:expr),+ $(,)?) => {{
        let mut span = $crate::Span::enter($name);
        if span.is_live() {
            $(span.record($key, $val);)+
        }
        span
    }};
}

/// Emits a point event with fields:
/// `instant!("spice.continuation_halve", "v_from" = a, "v_to" = b)`.
///
/// Field expressions are only evaluated when tracing is enabled.
#[macro_export]
macro_rules! instant {
    ($name:expr) => {
        $crate::instant($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($key:literal = $val:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::instant($name, ::std::vec![
                $($crate::Field::new($key, $val),)+
            ]);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::Collector;

    #[test]
    fn disabled_probes_are_inert() {
        // No subscriber on this thread (and none installed globally by
        // this test): guards are inert and record() is a no-op.
        assert!(!LOCAL_ENABLED.with(Cell::get));
        let mut s = span!("unit.off");
        assert!(!s.is_live());
        s.record("k", 1u64);
        drop(s);
        instant!("unit.off.bare");
        instant!("unit.off.instant", "v" = 1.0);
    }

    #[test]
    fn spans_nest_and_record_fields() {
        let collector = Collector::new();
        with_subscriber(collector.clone(), || {
            let mut outer = span!("unit.outer");
            outer.record("points", 3usize);
            {
                let _inner = span!("unit.inner", "k" = 7u64);
                instant!("unit.tick", "v" = 2.5);
            }
        });
        let events = collector.events();
        assert_eq!(events.len(), 3, "{events:?}");
        // Inner span completes first.
        let Event::Span {
            name: inner_name,
            parent: inner_parent,
            fields: inner_fields,
            ..
        } = &events[1]
        else {
            panic!("expected inner span, got {:?}", events[1]);
        };
        assert_eq!(*inner_name, "unit.inner");
        assert_eq!(inner_fields, &[Field::new("k", 7u64)]);
        let Event::Span {
            name: outer_name,
            id: outer_id,
            parent: outer_parent,
            ..
        } = &events[2]
        else {
            panic!("expected outer span, got {:?}", events[2]);
        };
        assert_eq!(*outer_name, "unit.outer");
        assert_eq!(*outer_parent, None);
        assert_eq!(*inner_parent, Some(*outer_id));
        // The instant nests under the inner span.
        let Event::Instant { parent, .. } = &events[0] else {
            panic!("expected instant, got {:?}", events[0]);
        };
        assert!(parent.is_some());
    }

    #[test]
    fn with_subscriber_restores_previous_state() {
        let a = Collector::new();
        let b = Collector::new();
        with_subscriber(a.clone(), || {
            with_subscriber(b.clone(), || instant!("unit.inner.only"));
            instant!("unit.outer.only");
        });
        let names = |c: &Collector| c.events().iter().map(Event::name).collect::<Vec<_>>();
        assert_eq!(names(&b), ["unit.inner.only"]);
        assert_eq!(names(&a), ["unit.outer.only"]);
        assert!(!LOCAL_ENABLED.with(Cell::get));
    }

    #[test]
    fn value_conversions_and_views() {
        assert_eq!(Value::from(3usize).as_u64(), Some(3));
        assert_eq!(Value::from(-2i32), Value::I64(-2));
        assert_eq!(Value::from(1.5f64).as_f64(), Some(1.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::Bool(false).as_f64(), None);
        assert_eq!(Value::F64(1.0).as_u64(), None);
    }

    #[test]
    fn span_durations_are_monotonic() {
        let collector = Collector::new();
        with_subscriber(collector.clone(), || {
            let _s = span!("unit.timed");
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let spans = collector.spans("unit.timed");
        assert_eq!(spans.len(), 1);
        let Event::Span { dur_ns, .. } = &spans[0] else {
            unreachable!()
        };
        assert!(*dur_ns >= 1_000_000, "dur {dur_ns} ns");
    }

    #[test]
    fn out_of_order_drop_keeps_stack_consistent() {
        let collector = Collector::new();
        with_subscriber(collector.clone(), || {
            let outer = span!("unit.a");
            let inner = span!("unit.b");
            drop(outer); // misuse: parent dropped first
            let sibling = span!("unit.c");
            drop(sibling);
            drop(inner);
        });
        let events = collector.events();
        assert_eq!(events.len(), 3);
        // The stack self-heals: c's parent is b (still open), not a.
        let id_of = |name: &str| {
            collector.spans(name).first().map(|e| match e {
                Event::Span { id, .. } => *id,
                Event::Instant { .. } => unreachable!(),
            })
        };
        let Event::Span { parent, .. } = collector.spans("unit.c")[0].clone() else {
            unreachable!()
        };
        assert_eq!(parent, id_of("unit.b"));
    }
}
