//! Byte-identity of the adaptive step sequence: the accept/reject/grow
//! /shrink decisions are a pure function of the deck, so the variable
//! grid — every time point and every voltage, to the last bit — must
//! not move with `CARBON_THREADS`, with tracing, or across runs.
//!
//! Kept as its own integration-test binary with a single `#[test]` so
//! the `CARBON_THREADS` environment variable is never mutated
//! concurrently with another test.

use carbon_spice::{Circuit, TranOptions, Waveform};
use carbon_trace::collect::Collector;
use carbon_trace::with_subscriber;

/// A deck with both fast and slow dynamics plus a pulse edge, so the
/// controller exercises growth, shrink-on-reject, and breakpoint
/// landing in one run.
fn deck() -> Circuit {
    let mut ckt = Circuit::new();
    ckt.voltage_source_wave(
        "v",
        "in",
        "0",
        Waveform::Pulse {
            low: 0.0,
            high: 1.0,
            delay: 1e-8,
            rise: 1e-9,
            fall: 1e-9,
            width: 5e-7,
            period: 0.0,
        },
    )
    .unwrap();
    ckt.resistor("r1", "in", "fast", 1e2).unwrap();
    ckt.capacitor("c1", "fast", "0", 1e-11).unwrap();
    ckt.resistor("r2", "fast", "slow", 1e4).unwrap();
    ckt.capacitor("c2", "slow", "0", 1e-9).unwrap();
    ckt
}

/// The full result as raw bit patterns: times, then every node trace.
fn run_bits() -> Vec<u64> {
    let tran = deck()
        .transient(1e-9, 2e-6, TranOptions::adaptive())
        .unwrap();
    let mut bits: Vec<u64> = tran.times().iter().map(|t| t.to_bits()).collect();
    bits.push(tran.accepted_steps() as u64);
    bits.push(tran.rejected_steps() as u64);
    for node in tran.node_names().to_vec() {
        bits.extend(tran.voltages(&node).unwrap().iter().map(|v| v.to_bits()));
    }
    bits
}

#[test]
fn adaptive_step_sequence_is_byte_identical_across_threads_and_tracing() {
    let reference = run_bits();
    assert!(reference.len() > 20, "non-trivial grid");
    // Repeated runs in the same configuration.
    assert_eq!(run_bits(), reference, "repeat run drifted");
    // Every thread count, untraced and traced.
    for threads in ["1", "2", "4", "8"] {
        std::env::set_var("CARBON_THREADS", threads);
        assert_eq!(
            run_bits(),
            reference,
            "untraced run drifted at CARBON_THREADS={threads}"
        );
        let collector = Collector::new();
        let traced = with_subscriber(collector.clone(), run_bits);
        assert_eq!(
            traced, reference,
            "traced run drifted at CARBON_THREADS={threads}"
        );
        assert!(
            !collector.spans("spice.transient").is_empty(),
            "tracing was actually live"
        );
    }
    std::env::remove_var("CARBON_THREADS");
}
