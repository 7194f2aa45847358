//! AC small-signal analysis: linearize at the DC operating point and
//! solve the complex MNA system `(G + jωC)·x = b` per frequency.
//!
//! This is the analysis behind the paper's §II RF argument (via
//! Schwierz): a FET without current saturation has a large output
//! conductance, hence no voltage gain, hence a negligible maximum
//! oscillation frequency — "this only enables very low values of
//! f_max".
//!
//! # One stamp, two solvers
//!
//! A sweep stamps the ω-independent part of the system once, at the
//! operating point: conductances (the FET and diode small-signal
//! parameters included), source incidences and the unit stimulus. The
//! `jωC` part is a list of `(slot, coeff)` pairs. Each frequency point
//! restores the static snapshot, adds `jω·coeff` at each slot, and
//! solves.
//!
//! Small systems solve by dense elimination
//! ([`DenseMatrix<Complex>`](crate::linalg::DenseMatrix)); at and above
//! the sparse threshold (16 unknowns, the Newton analyses' rule) the
//! sweep switches to the scalar-generic sparse LU
//! ([`SparseLu<Complex>`](crate::sparse::SparseLu)). Both bind the
//! Newton engine's element footprints to their matrix slots once. The
//! `G + jωC` sparsity pattern is frequency-independent — a capacitor's
//! susceptances land on its companion-conductance positions and an
//! inductor's reactance on its branch diagonal, so the pattern is the
//! one the DC and transient stamps use — and each sweep computes the
//! symbolic analysis and fill-reducing ordering once. The sparse LU
//! follows the Newton engine's one factor schedule: a full pivoting
//! factorization at the first frequency, then a numeric
//! [`replay`](crate::sparse::SparseLu::refactor) per point with the
//! same pivot-growth staleness fallback.
//!
//! Every sweep builds its own workspace and walks the grid in order,
//! so its result depends only on the circuit and its arguments.

use std::sync::Arc;

use super::engine::{add, take, Factorization, MnaMatrix, NameTable, StampSlots, SPARSE_THRESHOLD};
use super::OpResult;
use crate::complex::Complex;
use crate::element::{diode_iv, ElementKind};
use crate::error::SpiceError;
use crate::netlist::{is_ground, Circuit, NodeId};
use carbon_trace::{instant, span};

/// Node-to-ground leak stamped on every node diagonal, matching the
/// DC solver's default gmin so floating nodes stay anchored.
const AC_GMIN: f64 = 1e-12;

/// Result of an AC sweep: node-voltage phasors per frequency.
#[derive(Debug, Clone)]
pub struct AcResult {
    freqs: Vec<f64>,
    /// Unknown-name tables of the operating point the sweep linearized.
    names: Arc<NameTable>,
    /// One phasor vector (nodes then branches) per frequency.
    solutions: Vec<Vec<Complex>>,
}

impl AcResult {
    /// The swept frequencies, Hz.
    pub fn frequencies(&self) -> &[f64] {
        &self.freqs
    }

    /// The raw solution vectors — node-voltage phasors then branch
    /// currents — one per frequency, in sweep order. Exposed so the
    /// determinism tests can compare solver paths bit for bit.
    pub fn solutions(&self) -> &[Vec<Complex>] {
        &self.solutions
    }

    /// The phasor of a node across the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] for unknown names.
    pub fn phasors(&self, node: &str) -> Result<Vec<Complex>, SpiceError> {
        if is_ground(node) {
            return Ok(vec![Complex::ZERO; self.freqs.len()]);
        }
        let idx = self.names.node(node).ok_or(SpiceError::UnknownNode {
            name: node.to_owned(),
        })?;
        Ok(self.solutions.iter().map(|s| s[idx]).collect())
    }

    /// Voltage magnitude of a node across the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] for unknown names.
    pub fn magnitude(&self, node: &str) -> Result<Vec<f64>, SpiceError> {
        Ok(self.phasors(node)?.into_iter().map(Complex::abs).collect())
    }

    /// Phase (radians) of a node across the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] for unknown names.
    pub fn phase(&self, node: &str) -> Result<Vec<f64>, SpiceError> {
        Ok(self.phasors(node)?.into_iter().map(Complex::arg).collect())
    }

    /// The −3 dB frequency of a node's response relative to its
    /// lowest-frequency magnitude, if the response crosses it.
    pub fn corner_frequency(&self, node: &str) -> Result<Option<f64>, SpiceError> {
        let mag = self.magnitude(node)?;
        let Some(&m0) = mag.first() else {
            return Ok(None);
        };
        let target = m0 / 2.0_f64.sqrt();
        for k in 1..mag.len() {
            if (mag[k - 1] >= target) != (mag[k] >= target) {
                // Log-interpolate the crossing.
                let (f0, f1) = (self.freqs[k - 1], self.freqs[k]);
                let (g0, g1) = (mag[k - 1], mag[k]);
                if g0 == g1 {
                    return Ok(Some(f0));
                }
                let t = (target - g0) / (g1 - g0);
                return Ok(Some(f0 * (f1 / f0).powf(t)));
            }
        }
        Ok(None)
    }
}

impl Circuit {
    /// AC sweep: the named voltage or current source becomes the unit
    /// AC stimulus; all other independent sources are AC-quiet (but set
    /// the DC operating point). Below 16 unknowns each frequency solves
    /// by dense elimination; at and above, on the sparse LU.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownAcSource`] if `source` does not name
    /// an independent source (the message lists the valid choices),
    /// [`SpiceError::InvalidSweep`] for an empty frequency list or any
    /// non-finite / non-positive frequency (rejected up front, naming
    /// the offending entry), and solver errors from the operating point
    /// or any frequency point.
    pub fn ac_sweep(&self, source: &str, freqs: &[f64]) -> Result<AcResult, SpiceError> {
        self.sweep(source, freqs, self.num_unknowns() >= SPARSE_THRESHOLD)
    }

    /// [`Circuit::ac_sweep`] on the sparse LU when `sparse` is set and
    /// by dense elimination otherwise, whatever the size: the dense
    /// path is the sparse one's test oracle.
    fn sweep(&self, source: &str, freqs: &[f64], sparse: bool) -> Result<AcResult, SpiceError> {
        let stimulus = self.validate_ac(source, freqs)?;
        let op = self.op()?;
        let n = self.num_unknowns();
        let mut sweep_span = span!("spice.ac_sweep");
        if sweep_span.is_live() {
            sweep_span.record("source", stimulus.as_str());
            sweep_span.record("n", n);
            sweep_span.record("points", freqs.len());
            sweep_span.record("method", if sparse { "sparse" } else { "dense" });
        }
        // The static stamps accumulate into the zeroed matrix; their
        // snapshot `g` then restores `G` per point with one memcpy
        // instead of a full restamp.
        let (mut matrix, slots) = MnaMatrix::bind(self, sparse);
        let (b, jwc) = stamp_ac_static(self, &stimulus, &op, &slots, matrix.values_mut());
        let g = matrix.values_mut().to_vec();
        let mut solutions = Vec::with_capacity(freqs.len());
        for &f in freqs {
            if carbon_runtime::cancel::cancelled() {
                return Err(SpiceError::Cancelled {
                    analysis: "ac sweep",
                });
            }
            let omega = 2.0 * std::f64::consts::PI * f;
            let a = matrix.values_mut();
            a.copy_from_slice(&g);
            for &(slot, coeff) in &jwc {
                a[slot] += Complex::imag(omega * coeff);
            }
            let mut x = b.clone();
            match matrix.solve(&mut x)? {
                Factorization::Dense => {}
                Factorization::Factored => {
                    carbon_metrics::global_counter!("spice.sparse.ac_factor").incr()
                }
                Factorization::Replayed => {
                    carbon_metrics::global_counter!("spice.sparse.ac_replay").incr()
                }
                Factorization::Repivoted => {
                    // The pivot order chosen at the first frequency went
                    // stale as ω moved the susceptances — rare, but
                    // campaigns watch the fallback rate.
                    carbon_metrics::global_counter!("spice.sparse.ac_repivot").incr();
                    instant!("spice.sparse.ac_stale_pivot", "freq" = f, "n" = n);
                }
            }
            solutions.push(x);
        }
        Ok(AcResult {
            freqs: freqs.to_vec(),
            names: op.names,
            solutions,
        })
    }

    /// Validates the stimulus name and frequency grid, returning the
    /// lower-cased stimulus name.
    fn validate_ac(&self, source: &str, freqs: &[f64]) -> Result<String, SpiceError> {
        if freqs.is_empty() {
            return Err(SpiceError::InvalidSweep {
                reason: "AC sweep needs at least one frequency point".to_owned(),
            });
        }
        for (i, &f) in freqs.iter().enumerate() {
            if !(f.is_finite() && f > 0.0) {
                return Err(SpiceError::InvalidSweep {
                    reason: format!("AC frequency f[{i}] = {f} must be finite and positive"),
                });
            }
        }
        let stimulus = source.to_ascii_lowercase();
        let mut available: Vec<String> = Vec::new();
        let mut found = false;
        for e in &self.elements {
            if matches!(
                e.kind,
                ElementKind::VoltageSource { .. } | ElementKind::CurrentSource { .. }
            ) {
                found |= e.name == stimulus;
                available.push(e.name.clone());
            }
        }
        if !found {
            return Err(SpiceError::UnknownAcSource {
                name: source.to_owned(),
                available,
            });
        }
        Ok(stimulus)
    }
}

/// Stamps the ω-independent part of the circuit's AC system into the
/// matrix values `a` through the bound `slots`, and returns its
/// right-hand side with the `jωC` pairs: conductances linearized at the
/// operating point, source incidences, the unit stimulus and the
/// `AC_GMIN` diagonal are stamped; each pair `(slot, coeff)` means "add
/// `j·ω·coeff` here per frequency" — `±c` at capacitor conductance
/// positions, `−l` on inductor branch diagonals. Pairs bound to the
/// ground slot are dropped here, once per sweep.
fn stamp_ac_static(
    circuit: &Circuit,
    stimulus: &str,
    op: &OpResult,
    slots: &StampSlots,
    a: &mut [Complex],
) -> (Vec<Complex>, Vec<(usize, f64)>) {
    let op_v = |id: NodeId| {
        id.unknown_index()
            .map_or(0.0, |i| op.node_voltage_by_index(i))
    };
    let n_nodes = circuit.num_nodes();
    let mut b = vec![Complex::ZERO; circuit.num_unknowns()];
    let mut jwc = Vec::new();
    let conductance = |g: f64| [g, -g, -g, g].map(Complex::from);
    let incidence = [1.0, 1.0, -1.0, -1.0].map(Complex::from);
    let mut at = slots.elements.as_slice();
    for e in &circuit.elements {
        match &e.kind {
            ElementKind::Resistor { g, .. } => add(a, take(&mut at), conductance(*g)),
            ElementKind::Capacitor { c, .. } => {
                let slots: [usize; 4] = take(&mut at);
                jwc.extend(slots.into_iter().zip([*c, -c, -c, *c]));
            }
            ElementKind::VoltageSource { branch, .. } => {
                add(a, take(&mut at), incidence);
                if e.name == stimulus {
                    b[n_nodes + branch] += Complex::ONE;
                }
            }
            ElementKind::Inductor { l, .. } => {
                let [pb, bp, nb, bn, bb] = take(&mut at);
                add(a, [pb, bp, nb, bn], incidence);
                jwc.push((bb, -*l));
            }
            ElementKind::CurrentSource { p, n, .. } => {
                if e.name == stimulus {
                    // Unit AC current from n into p.
                    if let Some(i) = p.unknown_index() {
                        b[i] += Complex::ONE;
                    }
                    if let Some(j) = n.unknown_index() {
                        b[j] -= Complex::ONE;
                    }
                }
            }
            ElementKind::Diode {
                p,
                n,
                i_s,
                n_ideality,
            } => {
                let v = op_v(*p) - op_v(*n);
                let (_i, g) = diode_iv(v, *i_s, *n_ideality);
                add(a, take(&mut at), conductance(g));
            }
            ElementKind::Vccs { gm, .. } => {
                add(a, take(&mut at), [-gm, *gm, *gm, -gm].map(Complex::from));
            }
            ElementKind::Fet { d, g, s, model } => {
                let vgs = op_v(*g) - op_v(*s);
                let vds = op_v(*d) - op_v(*s);
                let (_, gm, gds) = model.eval(vgs, vds);
                let gds = gds.max(1e-12);
                let vals = [gm, gds, -(gm + gds), -gm, -gds, gm + gds];
                add(a, take(&mut at), vals.map(Complex::from));
            }
        }
    }
    for &slot in &slots.diagonals {
        a[slot] += Complex::new(AC_GMIN, 0.0);
    }
    // The ground slot is never read, so its susceptances would only
    // cost an add per frequency.
    let ground = a.len() - 1;
    jwc.retain(|&(slot, _)| slot != ground);
    (b, jwc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use carbon_runtime::prop::prelude::*;

    #[test]
    fn rc_lowpass_corner() {
        // R = 1 kΩ, C = 1 nF: f_c = 1/(2πRC) ≈ 159 kHz.
        let mut ckt = Circuit::new();
        ckt.voltage_source("vin", "in", "0", 0.0);
        ckt.resistor("r", "in", "out", 1e3).unwrap();
        ckt.capacitor("c", "out", "0", 1e-9).unwrap();
        let freqs: Vec<f64> = (0..60).map(|k| 1e3 * 10f64.powf(k as f64 / 10.0)).collect();
        let ac = ckt.ac_sweep("vin", &freqs).unwrap();
        let mag = ac.magnitude("out").unwrap();
        assert!((mag[0] - 1.0).abs() < 1e-3, "passband gain 1");
        assert!(*mag.last().unwrap() < 0.01, "stopband rolls off");
        let fc = ac.corner_frequency("out").unwrap().expect("crosses −3 dB");
        assert!((fc - 159.2e3).abs() / 159.2e3 < 0.05, "f_c = {fc:.3e}");
        // Phase approaches −90°.
        let ph = ac.phase("out").unwrap();
        assert!(ph.last().unwrap() < &-1.4);
    }

    #[test]
    fn ac_gain_of_vccs_amplifier() {
        // gm = 2 mS into 10 kΩ: |Av| = 20, flat (no caps).
        let mut ckt = Circuit::new();
        ckt.voltage_source("vin", "in", "0", 0.0);
        ckt.vccs("g1", "0", "out", "in", "0", 2e-3).unwrap();
        ckt.resistor("rl", "out", "0", 10e3).unwrap();
        let ac = ckt.ac_sweep("vin", &[1e3, 1e6, 1e9]).unwrap();
        let mag = ac.magnitude("out").unwrap();
        for m in mag {
            assert!((m - 20.0).abs() < 0.1, "|Av| = {m}");
        }
    }

    /// gm = 1 mS and gds = 10 µS at every bias.
    #[derive(Debug)]
    struct LinearFet;

    impl crate::element::FetCurve for LinearFet {
        fn ids(&self, vgs: f64, vds: f64) -> f64 {
            1e-3 * vgs + 1e-5 * vds
        }
    }

    #[test]
    fn fet_common_source_ac_gain_matches_gm_over_gds() {
        let mut ckt = Circuit::new();
        ckt.voltage_source("vdd", "vdd", "0", 1.0);
        ckt.voltage_source("vin", "g", "0", 0.5);
        ckt.resistor("rl", "vdd", "d", 1e5).unwrap();
        ckt.fet("m1", "d", "g", "0", std::sync::Arc::new(LinearFet))
            .unwrap();
        let ac = ckt.ac_sweep("vin", &[1e6]).unwrap();
        let gain = ac.magnitude("d").unwrap()[0];
        // |Av| = gm·(R_L ∥ 1/gds) = 1e-3·(1e5 ∥ 1e5) = 50.
        assert!((gain - 50.0).abs() < 1.0, "|Av| = {gain}");
    }

    #[test]
    fn stimulus_validation() {
        let mut ckt = Circuit::new();
        ckt.voltage_source("vin", "in", "0", 0.0);
        ckt.resistor("r", "in", "0", 1e3).unwrap();
        // Unknown stimulus names the request and lists the candidates.
        match ckt.ac_sweep("nope", &[1e3]) {
            Err(SpiceError::UnknownAcSource { name, available }) => {
                assert_eq!(name, "nope");
                assert_eq!(available, vec!["vin".to_owned()]);
            }
            other => panic!("expected UnknownAcSource, got {other:?}"),
        }
        // An element that exists but is not a source is rejected the
        // same way.
        match ckt.ac_sweep("r", &[1e3]) {
            Err(SpiceError::UnknownAcSource { name, .. }) => assert_eq!(name, "r"),
            other => panic!("expected UnknownAcSource, got {other:?}"),
        }
        assert!(matches!(
            ckt.ac_sweep("vin", &[]),
            Err(SpiceError::InvalidSweep { .. })
        ));
        // Bad frequencies are rejected up front, naming the entry.
        for bad in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            match ckt.ac_sweep("vin", &[1e3, bad]) {
                Err(SpiceError::InvalidSweep { reason }) => {
                    assert!(reason.contains("f[1]"), "{reason}");
                }
                other => panic!("expected InvalidSweep for {bad}, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_ac_source_message_lists_candidates() {
        let mut ckt = Circuit::new();
        ckt.voltage_source("vin", "in", "0", 0.0);
        ckt.current_source("ibias", "in", "0", 1e-6).unwrap();
        ckt.resistor("r", "in", "0", 1e3).unwrap();
        let msg = ckt.ac_sweep("vx", &[1e3]).unwrap_err().to_string();
        assert!(msg.contains("'vx'"), "{msg}");
        assert!(msg.contains("vin") && msg.contains("ibias"), "{msg}");
        // No sources at all: the message says so instead of listing an
        // empty set.
        let mut bare = Circuit::new();
        bare.resistor("r", "a", "0", 1e3).unwrap();
        let msg = bare.ac_sweep("vin", &[1e3]).unwrap_err().to_string();
        assert!(msg.contains("no independent sources"), "{msg}");
    }

    #[test]
    fn ground_phasor_is_zero() {
        let mut ckt = Circuit::new();
        ckt.voltage_source("vin", "in", "0", 0.0);
        ckt.resistor("r", "in", "0", 1e3).unwrap();
        let ac = ckt.ac_sweep("vin", &[1e3]).unwrap();
        assert_eq!(ac.magnitude("0").unwrap(), vec![0.0]);
        assert!(ac.magnitude("ghost").is_err());
    }

    /// Series R / shunt C ladder with `n` stages: n + 1 node unknowns
    /// plus the source branch, so from n = 16 `ac_sweep` runs sparse.
    fn rc_ladder(n: usize, r: f64, c: f64) -> Circuit {
        let mut ckt = Circuit::new();
        ckt.voltage_source("vin", "n0", "0", 0.0);
        for k in 0..n {
            let (a, b) = (format!("n{k}"), format!("n{}", k + 1));
            ckt.resistor(&format!("r{k}"), &a, &b, r).unwrap();
            ckt.capacitor(&format!("c{k}"), &b, "0", c).unwrap();
        }
        ckt
    }

    /// The first (dense, sparse) phasor pair at which the sparse sweep
    /// driven by `vin` misses the dense oracle by 1e-9 of the dense
    /// phasor's magnitude or of `floor`, whichever is larger. The two
    /// eliminate in different orders, so bit equality is not expected.
    fn sparse_vs_dense_mismatch(
        ckt: &Circuit,
        freqs: &[f64],
        floor: f64,
    ) -> Option<(Complex, Complex)> {
        let [dense, sparse] = [false, true].map(|sparse| ckt.sweep("vin", freqs, sparse).unwrap());
        dense
            .solutions
            .into_iter()
            .flatten()
            .zip(sparse.solutions.into_iter().flatten())
            .find(|&(d, s)| {
                // A NaN error compares unordered, so it counts as a miss.
                let tol = 1e-9 * d.abs().max(floor);
                (d - s).abs().partial_cmp(&tol) != Some(std::cmp::Ordering::Less)
            })
    }

    #[test]
    fn sparse_path_matches_dense_oracle_on_ladder() {
        let ckt = rc_ladder(24, 1e3, 1e-12);
        let freqs: Vec<f64> = (0..20).map(|k| 1e4 * 10f64.powf(k as f64 / 4.0)).collect();
        assert_eq!(sparse_vs_dense_mismatch(&ckt, &freqs, 1.0), None);
    }

    #[test]
    fn sparse_and_dense_agree_on_rlc_ladder_with_fets() {
        // A ladder with inductor branches and a FET load: every dynamic
        // stamp kind (jωC node pattern, −jωL branch diagonal) plus
        // op-point linearized conductances in one 22-unknown circuit.
        let mut ckt = Circuit::new();
        ckt.voltage_source("vin", "n0", "0", 0.5);
        for k in 0..10 {
            let (a, b) = (format!("n{k}"), format!("n{}", k + 1));
            ckt.resistor(&format!("r{k}"), &a, &b, 100.0).unwrap();
            ckt.capacitor(&format!("c{k}"), &b, "0", 1e-12).unwrap();
            ckt.inductor(&format!("l{k}"), &b, "0", 1e-6).unwrap();
        }
        ckt.fet("m1", "n10", "n5", "0", std::sync::Arc::new(LinearFet))
            .unwrap();
        let freqs: Vec<f64> = (0..15)
            .map(|k| 1e6 * 1e3f64.powf(k as f64 / 14.0))
            .collect();
        assert_eq!(sparse_vs_dense_mismatch(&ckt, &freqs, 1.0), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The sparse complex replay path agrees with the dense complex
        /// oracle on random RC ladders: same circuit, same frequencies,
        /// answers equal to tight relative tolerance at every unknown.
        #[test]
        fn ac_sparse_agrees_with_dense_oracle(
            stages in 17usize..40,
            r_exp in 2.0_f64..5.0,
            c_exp in -13.0_f64..-10.0,
            f_lo_exp in 3.0_f64..6.0,
        ) {
            let ckt = rc_ladder(stages, 10f64.powf(r_exp), 10f64.powf(c_exp));
            let freqs: Vec<f64> = (0..8)
                .map(|k| 10f64.powf(f_lo_exp) * 10f64.powf(k as f64 / 2.0))
                .collect();
            prop_assert_eq!(sparse_vs_dense_mismatch(&ckt, &freqs, 1e-3), None);
        }
    }
}
