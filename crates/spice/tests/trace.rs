//! End-to-end tests of the instrumentation layer: the metrics registry
//! must count what the solver actually did (factorizations, replays,
//! staleness fallbacks, step halvings) and the trace must carry the
//! causal detail, without perturbing any result.
//!
//! The registry is process-global, so every test in this binary holds
//! [`REGISTRY`] and reads counter deltas around the call it checks.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use carbon_spice::{Circuit, DcOptions, FetCurve, SpiceError, TranOptions, Waveform};
use carbon_trace::collect::Collector;
use carbon_trace::{with_subscriber, Event, Value};

static REGISTRY: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` and returns how much each named global counter grew.
fn deltas<const N: usize, R>(names: [&str; N], f: impl FnOnce() -> R) -> (R, [u64; N]) {
    let total = |name: &str| carbon_metrics::global().counter(name).total();
    let before = names.map(total);
    let out = f();
    let mut grown = names.map(total);
    for (g, b) in grown.iter_mut().zip(before) {
        *g -= b;
    }
    (out, grown)
}

/// The number of instants named `name` the collector saw.
fn instants(collector: &Collector, name: &str) -> usize {
    collector
        .events()
        .iter()
        .filter(|e| matches!(e, Event::Instant { .. }) && e.name() == name)
        .count()
}

/// The solver bench's nonlinear workload: `n` forward diode drops from
/// a 5 V source. The diode conductances swing by many decades over the
/// first Newton iterations, which drives the sparse LU's pivot-growth
/// staleness check.
fn diode_chain(n: usize) -> Circuit {
    let mut ckt = Circuit::new();
    ckt.voltage_source("v", "n0", "0", 5.0);
    ckt.resistor("r", "n0", "d0", 1e3).expect("unique");
    for i in 0..n {
        ckt.diode(
            &format!("d{i}"),
            &format!("d{i}"),
            &format!("d{}", i + 1),
            1e-15,
            1.0,
        )
        .expect("unique");
    }
    ckt.resistor("rt", &format!("d{n}"), "0", 10.0)
        .expect("unique");
    ckt
}

#[test]
fn stale_pivot_fallback_happens_exactly_once_and_is_traced() {
    let _lock = lock();
    let collector = Collector::new();
    let (traced, [factors, repivots, replays]) = deltas(
        [
            "spice.sparse.factor",
            "spice.sparse.repivot",
            "spice.sparse.replay",
        ],
        || with_subscriber(collector.clone(), || diode_chain(24).op()),
    );
    let traced = traced.expect("chain solves");

    // The cold solve starts from the flat initial guess, so the first
    // factorization's pivot order goes stale exactly once as the diode
    // conductances jump; every later iteration replays cleanly.
    assert_eq!(factors, 1);
    assert_eq!(repivots, 1, "staleness fallback must fire exactly once");
    assert!(replays >= 1);

    // The fallback leaves a locatable instant event.
    let stale: Vec<Event> = collector
        .events()
        .into_iter()
        .filter(|e| matches!(e, Event::Instant { .. }) && e.name() == "spice.sparse.stale_pivot")
        .collect();
    assert_eq!(stale.len(), 1);
    if let Event::Instant { fields, .. } = &stale[0] {
        assert!(fields.iter().any(|f| f.key == "iter"));
        let n = fields
            .iter()
            .find(|f| f.key == "n")
            .and_then(|f| f.value.as_u64())
            .expect("stale_pivot records the system size");
        assert!(n >= 25, "24-diode chain has at least 25 unknowns, got {n}");
    }

    // Observation must not participate: the traced solution is
    // bit-identical to an untraced one.
    let untraced = diode_chain(24).op().expect("chain solves");
    for node in (0..=24).map(|i| format!("d{i}")) {
        assert_eq!(
            traced.voltage(&node).expect("node"),
            untraced.voltage(&node).expect("node"),
            "tracing changed the solution at {node}"
        );
    }
}

#[test]
fn dc_sweep_spans_nest_newton_solves() {
    let _lock = lock();
    let mut ckt = Circuit::new();
    ckt.voltage_source("vin", "in", "0", 0.0);
    ckt.resistor("r1", "in", "out", 1e3).expect("unique");
    ckt.diode("d1", "out", "0", 1e-15, 1.0).expect("unique");

    let collector = Collector::new();
    with_subscriber(collector.clone(), || {
        ckt.dc_sweep("vin", 0.0, 1.0, 0.1, DcOptions::default())
            .expect("sweeps")
    });

    let sweeps = collector.spans("spice.dc_sweep");
    assert_eq!(sweeps.len(), 1);
    assert_eq!(
        collector.span_field("spice.dc_sweep", "points"),
        vec![Value::U64(11)]
    );
    let total = match collector.span_field("spice.dc_sweep", "total_iters")[..] {
        [Value::U64(t)] => t,
        ref other => panic!("missing total_iters: {other:?}"),
    };
    assert!(total >= 11, "at least one Newton iteration per point");

    // Every Newton solve ran inside the sweep span.
    let sweep_id = match sweeps[0] {
        Event::Span { id, .. } => id,
        _ => unreachable!(),
    };
    let solves = collector.spans("spice.newton_solve");
    assert!(!solves.is_empty());
    for ev in &solves {
        if let Event::Span { parent, .. } = ev {
            assert_eq!(*parent, Some(sweep_id), "newton span escaped the sweep");
        }
    }
}

/// Series-R / shunt-C ladder with `n` stages; n ≥ 16 puts the AC sweep
/// on the sparse replay path.
fn rc_ladder(n: usize) -> Circuit {
    let mut ckt = Circuit::new();
    ckt.voltage_source("vin", "n0", "0", 0.0);
    for k in 0..n {
        ckt.resistor(
            &format!("r{k}"),
            &format!("n{k}"),
            &format!("n{}", k + 1),
            1e3,
        )
        .expect("unique");
        ckt.capacitor(&format!("c{k}"), &format!("n{}", k + 1), "0", 1e-12)
            .expect("unique");
    }
    ckt
}

const AC_COUNTERS: [&str; 3] = [
    "spice.sparse.ac_factor",
    "spice.sparse.ac_replay",
    "spice.sparse.ac_repivot",
];

#[test]
fn ac_sweep_traces_one_factor_and_replays_the_rest() {
    let _lock = lock();
    let ckt = rc_ladder(20);
    let freqs: Vec<f64> = (0..12).map(|k| 1e5 * 10f64.powf(k as f64 / 3.0)).collect();

    let collector = Collector::new();
    let (traced, [factors, replays, repivots]) = deltas(AC_COUNTERS, || {
        with_subscriber(collector.clone(), || ckt.ac_sweep("vin", &freqs))
    });
    let traced = traced.expect("sweeps");

    // The factor/replay schedule is the whole point of the sparse AC
    // path: one full factorization at the first frequency, and every
    // other point either replays or (rarely) falls back to a repivot.
    assert_eq!(factors, 1);
    assert_eq!(
        replays + repivots,
        (freqs.len() - 1) as u64,
        "every non-head frequency is a replay or a repivot"
    );

    // The sweep span carries the system size, point count, and path.
    let sweeps = collector.spans("spice.ac_sweep");
    assert_eq!(sweeps.len(), 1);
    assert_eq!(
        collector.span_field("spice.ac_sweep", "points"),
        vec![Value::U64(freqs.len() as u64)]
    );
    assert_eq!(
        collector.span_field("spice.ac_sweep", "method"),
        vec![Value::Str("sparse".into())]
    );
    assert_eq!(
        collector.span_field("spice.ac_sweep", "n"),
        vec![Value::U64(22)],
        "21 nodes plus the source branch"
    );

    // Observation must not participate.
    let untraced = ckt.ac_sweep("vin", &freqs).expect("sweeps");
    assert_eq!(traced.solutions(), untraced.solutions());
}

/// A deliberately broken device: the drain current steps discontinuously
/// once the gate passes threshold, so Newton two-cycles between the
/// on- and off-branches and no amount of step halving can converge the
/// bias points beyond the step.
struct SnapFet;

impl FetCurve for SnapFet {
    fn ids(&self, vgs: f64, vds: f64) -> f64 {
        if vgs >= 0.6 && vds >= 0.5 {
            1.5e-3
        } else {
            0.0
        }
    }
}

#[test]
fn continuation_exhaustion_reports_sweep_value_and_residual() {
    let _lock = lock();
    let mut ckt = Circuit::new();
    ckt.voltage_source("vdd", "vdd", "0", 1.0);
    ckt.voltage_source("vin", "g", "0", 0.0);
    ckt.resistor("rl", "vdd", "d", 1e3).expect("unique");
    ckt.fet("m1", "d", "g", "0", Arc::new(SnapFet))
        .expect("fet");

    let collector = Collector::new();
    let (result, [halvings]) = deltas(["spice.continuation_halvings"], || {
        with_subscriber(collector.clone(), || {
            ckt.dc_sweep("vin", 0.0, 1.0, 0.25, DcOptions::default())
        })
    });
    let err = result.expect_err("the snap device cannot converge past threshold");

    match err {
        SpiceError::ContinuationExhausted {
            sweep_value,
            iterations,
            residual,
        } => {
            assert!(
                (0.5..=0.75).contains(&sweep_value),
                "failure must be localized past the 0.6 V threshold, got {sweep_value}"
            );
            assert!(iterations > 0);
            assert!(
                residual.is_finite() && residual > 0.0,
                "residual must be the real last Newton update, got {residual}"
            );
            // The operator-facing message carries both diagnostics.
            let msg = SpiceError::ContinuationExhausted {
                sweep_value,
                iterations,
                residual,
            }
            .to_string();
            assert!(msg.contains("sweep value"), "{msg}");
            assert!(msg.contains("residual"), "{msg}");
        }
        other => panic!("expected ContinuationExhausted, got {other:?}"),
    }

    // The retry ladder is visible in the trace: halvings were burned
    // before giving up, each one an instant the registry also counts,
    // and the exhaustion itself is an instant event.
    let halves = instants(&collector, "spice.continuation_halve");
    assert!(halves >= 1);
    assert_eq!(halvings, halves as u64);
    assert_eq!(instants(&collector, "spice.continuation_exhausted"), 1);
}

#[test]
fn transient_factors_once_and_replays_every_newton_iteration() {
    let _lock = lock();
    // 20-node RC ladder → 21 unknowns, over the sparse threshold (16),
    // so the transient runs on the sparse LU path.
    let build = || {
        let mut ckt = Circuit::new();
        ckt.voltage_source_wave(
            "v",
            "n0",
            "0",
            Waveform::Pulse {
                low: 0.0,
                high: 1.0,
                delay: 1e-9,
                rise: 0.0,
                fall: 0.0,
                width: 1.0,
                period: 0.0,
            },
        )
        .unwrap();
        for s in 0..20 {
            ckt.resistor(
                &format!("r{s}"),
                &format!("n{s}"),
                &format!("n{}", s + 1),
                1e3,
            )
            .unwrap();
            ckt.capacitor(&format!("c{s}"), &format!("n{}", s + 1), "0", 1e-12)
                .unwrap();
        }
        ckt
    };
    for adaptive in [false, true] {
        let collector = Collector::new();
        let (steps, [factors, replays, repivots, counted_steps]) = deltas(
            [
                "spice.sparse.factor",
                "spice.sparse.replay",
                "spice.sparse.repivot",
                "spice.tran.steps",
            ],
            || {
                with_subscriber(collector.clone(), || {
                    let ckt = build();
                    let tran = if adaptive {
                        ckt.transient(1e-9, 1e-7, TranOptions::adaptive()).unwrap()
                    } else {
                        ckt.transient(1e-9, 1e-7, TranOptions::default()).unwrap()
                    };
                    tran.accepted_steps()
                })
            },
        );
        assert_eq!(
            factors, 1,
            "adaptive = {adaptive}: symbolic analysis + first factorization happen once per analysis"
        );
        assert_eq!(repivots, 0, "a linear ladder never goes stale");
        assert!(
            replays as usize >= steps,
            "adaptive = {adaptive}: every subsequent Newton iteration replays \
             (got {replays} replays over {steps} steps)"
        );
        // The span carries the step accounting.
        let spans = collector.spans("spice.transient");
        assert_eq!(spans.len(), 1);
        let methods = collector.span_field("spice.transient", "method");
        assert_eq!(
            methods,
            vec![Value::Str(
                if adaptive { "adaptive" } else { "fixed" }.into()
            )]
        );
        let recorded: Vec<u64> = collector
            .span_field("spice.transient", "steps")
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        assert_eq!(recorded, vec![steps as u64]);
        assert_eq!(counted_steps, steps as u64);
    }
}
