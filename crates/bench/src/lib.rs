//! Shared workload builders for the `harness = false` bench groups,
//! which run on the in-tree `carbon_runtime::bench` harness (see
//! `DESIGN.md` §3 for the experiment-to-bench mapping):
//!
//! * `figures` — one benchmark per paper figure/claim, timing the full
//!   regeneration of each artifact (`carbon-core::figN::run`),
//! * `solver` — scaling of the MNA circuit-simulation substrate,
//! * `montecarlo` — the §V statistics workloads and the device-model
//!   evaluation costs (live ballistic solve vs table lookup),
//! * `tran` — fixed vs adaptive transient stepping,
//! * `econ` — the wafer-economics campaign engine.

#![deny(missing_docs)]

pub mod compare;
pub mod summary;

use carbon_spice::Circuit;

/// Builds an `n`-stage resistor ladder driven by 1 V — the standard
/// linear-solver scaling workload (`2n` nodes, `2n + 1` elements).
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn resistor_ladder(n: usize) -> Circuit {
    assert!(n > 0, "ladder needs at least one stage");
    let mut ckt = Circuit::new();
    ckt.voltage_source("v", "n0", "0", 1.0);
    for i in 0..n {
        ckt.resistor(
            &format!("rs{i}"),
            &format!("n{i}"),
            &format!("n{}", i + 1),
            1e3,
        )
        .expect("unique names");
        ckt.resistor(&format!("rp{i}"), &format!("n{}", i + 1), "0", 1e3)
            .expect("unique names");
    }
    ckt
}

/// Builds a diode chain of `n` junctions from a 5 V source — a
/// nonlinear Newton-convergence workload.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn diode_chain(n: usize) -> Circuit {
    assert!(n > 0, "chain needs at least one diode");
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

/// Builds an `n`-stage series-R / shunt-C ladder driven by an AC unit
/// stimulus — the sparse AC replay workload (`n + 1` node unknowns
/// plus the source branch, one capacitor per stage).
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn rc_ladder(n: usize) -> Circuit {
    assert!(n > 0, "ladder needs at least one stage");
    let mut ckt = Circuit::new();
    ckt.voltage_source("vin", "n0", "0", 0.0);
    for i in 0..n {
        ckt.resistor(
            &format!("r{i}"),
            &format!("n{i}"),
            &format!("n{}", i + 1),
            1e3,
        )
        .expect("unique names");
        ckt.capacitor(&format!("c{i}"), &format!("n{}", i + 1), "0", 1e-12)
            .expect("unique names");
    }
    ckt
}

/// Builds the stiff power-on-ramp deck: a PWL supply ramping 0 → 1 V
/// over 10 ns into two RC sections with time constants 1 ns and 10 µs —
/// four decades apart, so a fixed grid fine enough for the fast corner
/// wastes ~10⁴ steps on the slow tail while the LTE controller grows
/// right through it. The canonical `tran_ramp` adaptive-speedup
/// workload (horizon 50 µs, initial step 1 ns).
pub fn tran_ramp() -> Circuit {
    let mut ckt = Circuit::new();
    ckt.voltage_source_wave(
        "vramp",
        "in",
        "0",
        carbon_spice::Waveform::Pwl(vec![(0.0, 0.0), (1e-8, 1.0)]),
    )
    .expect("unique names");
    ckt.resistor("r1", "in", "fast", 1e2).expect("unique names");
    ckt.capacitor("c1", "fast", "0", 1e-11)
        .expect("unique names");
    ckt.resistor("r2", "fast", "slow", 1e4)
        .expect("unique names");
    ckt.capacitor("c2", "slow", "0", 1e-9)
        .expect("unique names");
    ckt
}

/// Horizon of the [`tran_ramp`] workload, s.
pub const TRAN_RAMP_TSTOP: f64 = 5e-5;

/// Initial/fixed step of the [`tran_ramp`] workload, s (50 000 fixed
/// steps over the horizon).
pub const TRAN_RAMP_TSTEP: f64 = 1e-9;

/// A square-law FET pair for ring benches: n-type for `sign = 1.0`,
/// p-type mirror for `sign = -1.0`.
#[derive(Debug)]
struct SquareLaw {
    k: f64,
    vt: f64,
    sign: f64,
}

impl carbon_spice::FetCurve for SquareLaw {
    fn ids(&self, vgs: f64, vds: f64) -> f64 {
        let (vgs, vds) = (self.sign * vgs, self.sign * vds);
        let ids = if vds < 0.0 {
            -self.square_law(vgs - vds, -vds)
        } else {
            self.square_law(vgs, vds)
        };
        self.sign * ids
    }
}

impl SquareLaw {
    fn square_law(&self, vgs: f64, vds: f64) -> f64 {
        let vov = vgs - self.vt;
        if vov <= 0.0 {
            0.0
        } else if vds < vov {
            self.k * (vov * vds - 0.5 * vds * vds)
        } else {
            0.5 * self.k * vov * vov
        }
    }
}

/// Builds an odd-`stages` square-law CMOS ring oscillator with 10 fF
/// stage loads and a start-up kick pulse sized for the `horizon` — the
/// `tran_ring` oscillating-transient workload (`2·stages + 2` unknowns,
/// sparse path from 7 stages up).
///
/// # Panics
///
/// Panics if `stages` is even or below 3.
pub fn ring_osc(stages: usize, horizon: f64) -> Circuit {
    assert!(
        stages >= 3 && stages % 2 == 1,
        "ring needs an odd stage count >= 3"
    );
    let mut ckt = Circuit::new();
    ckt.voltage_source("vdd", "vdd", "0", 1.0);
    for s in 0..stages {
        let input = format!("n{s}");
        let output = format!("n{}", (s + 1) % stages);
        ckt.fet(
            &format!("mp{s}"),
            &output,
            &input,
            "vdd",
            std::sync::Arc::new(SquareLaw {
                k: 2e-3,
                vt: 0.3,
                sign: -1.0,
            }),
        )
        .expect("unique names");
        ckt.fet(
            &format!("mn{s}"),
            &output,
            &input,
            "0",
            std::sync::Arc::new(SquareLaw {
                k: 2e-3,
                vt: 0.3,
                sign: 1.0,
            }),
        )
        .expect("unique names");
        ckt.capacitor(&format!("cl{s}"), &output, "0", 1e-14)
            .expect("unique names");
    }
    ckt.current_source_wave(
        "ikick",
        "n0",
        "0",
        carbon_spice::Waveform::Pulse {
            low: 0.0,
            high: 6e-5,
            delay: 0.0,
            rise: 0.0,
            fall: 0.0,
            width: horizon / 50.0,
            period: 0.0,
        },
    )
    .expect("unique names");
    ckt
}

/// A linear small-signal FET: `gm = 1 mS`, `gds = 10 µS` everywhere.
#[derive(Debug)]
struct LinearFet;

impl carbon_spice::FetCurve for LinearFet {
    fn ids(&self, vgs: f64, vds: f64) -> f64 {
        1e-3 * vgs + 1e-5 * vds
    }
}

/// Builds a common-source FET amplifier with a capacitive load — the
/// small-circuit AC workload (a handful of unknowns, dense solver
/// path), whose corner the gm/gds linearization fixes analytically.
pub fn fet_cs_amp() -> Circuit {
    let mut ckt = Circuit::new();
    ckt.voltage_source("vdd", "vdd", "0", 1.0);
    ckt.voltage_source("vin", "g", "0", 0.5);
    ckt.resistor("rl", "vdd", "d", 1e5).expect("unique names");
    ckt.capacitor("cl", "d", "0", 1e-13).expect("unique names");
    ckt.fet("m1", "d", "g", "0", std::sync::Arc::new(LinearFet))
        .expect("unique names");
    ckt
}

/// FNV-1a 64-bit hash — the digest every deterministic `carbon-bench`
/// report prints, and the one `tests/digest_matrix.rs` pins them with.
/// The implementation lives in `carbon-json` (it also derives the
/// serve cache's canonical job keys).
pub use carbon_json::Fnv;

/// `n` log-spaced frequencies over `lo..=hi` — the grid every AC
/// bench and smoke target sweeps.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn log_freqs(n: usize, lo: f64, hi: f64) -> Vec<f64> {
    assert!(n >= 2, "a log grid needs at least two points");
    (0..n)
        .map(|k| lo * (hi / lo).powf(k as f64 / (n - 1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use carbon_spice::{AcOptions, TranOptions};

    #[test]
    fn ladder_solves() {
        let op = resistor_ladder(20).op().expect("solvable");
        assert!(op.voltage("n20").expect("node") > 0.0);
    }

    #[test]
    fn diode_chain_solves() {
        let op = diode_chain(4).op().expect("solvable");
        // Four forward drops from 5 V leave a positive tail voltage.
        let tail = op.voltage("d4").expect("node");
        assert!((0.0..5.0).contains(&tail));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn ladder_rejects_zero() {
        let _ = resistor_ladder(0);
    }

    #[test]
    fn rc_ladder_sweeps_and_rolls_off() {
        let ckt = rc_ladder(20);
        let freqs = log_freqs(10, 1e3, 1e9);
        let ac = ckt
            .ac_sweep("vin", &freqs, AcOptions::default())
            .expect("sweeps");
        let mag = ac.magnitude("n20").expect("node");
        assert!((mag[0] - 1.0).abs() < 1e-3, "passband gain 1");
        assert!(*mag.last().expect("points") < 1e-3, "stopband rolls off");
    }

    #[test]
    fn fet_cs_amp_has_midband_gain_and_corner() {
        let ckt = fet_cs_amp();
        let freqs = log_freqs(40, 1e3, 1e9);
        let ac = ckt
            .ac_sweep("vin", &freqs, AcOptions::default())
            .expect("sweeps");
        let mag = ac.magnitude("d").expect("node");
        // |Av| = gm·(R_L ∥ 1/gds) = 1e-3·(1e5 ∥ 1e5) = 50 at low f.
        assert!((mag[0] - 50.0).abs() < 1.0, "midband |Av| = {}", mag[0]);
        assert!(
            ac.corner_frequency("d").expect("node").is_some(),
            "load cap must roll the gain off inside the grid"
        );
    }

    #[test]
    fn tran_ramp_is_stiff_and_adaptive_skips_the_tail() {
        let fixed_steps = (TRAN_RAMP_TSTOP / TRAN_RAMP_TSTEP).round() as usize;
        let tran = tran_ramp()
            .transient(TRAN_RAMP_TSTEP, TRAN_RAMP_TSTOP, TranOptions::adaptive())
            .expect("integrates");
        let slow = tran.voltages("slow").expect("node");
        assert!(
            (slow.last().expect("points") - 1.0).abs() < 0.01,
            "slow node settles to the rail"
        );
        // The whole point of the workload: the LTE controller must cut
        // at least an order of magnitude off the 50 000-step fixed grid.
        assert!(
            tran.accepted_steps() * 10 < fixed_steps,
            "adaptive took {} steps vs {fixed_steps} fixed",
            tran.accepted_steps()
        );
    }

    #[test]
    fn ring_osc_oscillates_under_both_methods() {
        let horizon = 2e-9;
        let crossings = |tran: &carbon_spice::TranResult| {
            let t = tran.times();
            let v = tran.voltages("n0").expect("node");
            (1..v.len())
                .filter(|&k| t[k] > horizon * 0.25 && v[k - 1] < 0.5 && v[k] >= 0.5)
                .count()
        };
        let fixed = ring_osc(3, horizon)
            .transient(horizon / 2000.0, horizon, TranOptions::default())
            .expect("integrates");
        assert!(crossings(&fixed) >= 3, "fixed run must ring");
        let adaptive = ring_osc(3, horizon)
            .transient(horizon / 2000.0, horizon, TranOptions::adaptive())
            .expect("integrates");
        assert!(crossings(&adaptive) >= 3, "adaptive run must ring");
    }

    #[test]
    fn log_freqs_hits_both_endpoints() {
        let f = log_freqs(5, 1e3, 1e7);
        assert!((f[0] - 1e3).abs() < 1e-9);
        assert!((f[4] - 1e7).abs() / 1e7 < 1e-12);
        assert!(f.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn diode_chain_24_converges_within_twelve_cold_iterations() {
        // The solver bench's `newton_diode_chain/24` workload, observed
        // through the trace layer: a cold-start Newton solve of the
        // 24-junction chain must converge in at most 12 iterations.
        // More means the damping/limiting strategy regressed even if
        // wall-clock medians stayed inside the noise band.
        use carbon_trace::collect::Collector;

        let collector = Collector::new();
        let op = carbon_trace::with_subscriber(collector.clone(), || diode_chain(24).op());
        op.expect("solvable");

        let iters = collector.span_field("spice.newton_solve", "iters");
        assert!(!iters.is_empty(), "solve emitted no newton spans");
        for v in &iters {
            let n = v.as_u64().expect("iters is an integer field");
            assert!(n <= 12, "cold-start Newton took {n} iterations");
        }
        let converged = collector.span_field("spice.newton_solve", "converged");
        assert!(
            converged
                .iter()
                .all(|v| *v == carbon_trace::Value::Bool(true)),
            "all recorded solves converged"
        );
    }
}
