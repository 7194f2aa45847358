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
//! `jωC` part is a list of `(row, col, coeff)` triples. Each frequency
//! point restores the static snapshot, adds `jω·coeff` per triple, and
//! solves.
//!
//! Small systems solve by dense elimination
//! ([`DenseMatrix<Complex>`](crate::linalg::DenseMatrix)); at and above
//! the sparse threshold the sweep switches to the scalar-generic sparse
//! LU ([`SparseLu<Complex>`](crate::sparse::SparseLu)). The `G + jωC`
//! sparsity pattern is frequency-independent — it is the union of the
//! conductance and susceptance patterns, which the Newton engine's
//! `collect_pattern` already produces for the transient companions —
//! so the symbolic analysis and fill-reducing ordering are computed
//! once per circuit, and each frequency point after the first runs a
//! numeric [`replay`](crate::sparse::SparseLu::refactor) with the same
//! pivot-growth staleness fallback as the DC path.
//!
//! [`AcOptions::chunk`] fans the frequency grid out over the
//! deterministic executor in fixed-size chunks; each chunk factors at
//! its head frequency and replays the rest, so the result is
//! **byte-identical at every `CARBON_THREADS`** and — because the
//! serial sweep follows the same factor-then-replay schedule —
//! byte-identical to the serial sweep when one chunk covers the whole
//! grid.

use std::sync::Arc;

use super::engine::{collect_pattern, NameTable, SPARSE_THRESHOLD};
use super::OpResult;
use crate::complex::Complex;
use crate::element::{diode_iv, ElementKind};
use crate::error::SpiceError;
use crate::linalg::{DenseMatrix, Stamp};
use crate::netlist::{Circuit, NodeId};
use crate::sparse::{Refactor, SparseLu, SparseMatrix};
use carbon_runtime::executor::Executor;
use carbon_trace::{instant, span};

/// Node-to-ground leak stamped on every node diagonal, matching the
/// DC solver's default gmin so floating nodes stay anchored.
const AC_GMIN: f64 = 1e-12;

/// Which complex linear solver an AC sweep uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AcMethod {
    /// Dense below the sparse threshold (16 unknowns), sparse pattern
    /// reuse at and above it.
    #[default]
    Auto,
    /// Force dense complex elimination — the oracle the property tests
    /// compare the sparse path against.
    Dense,
    /// Force the sparse symbolic-once / replay-per-frequency path.
    Sparse,
}

impl AcMethod {
    /// Whether a sweep over `n` unknowns takes the sparse path.
    fn sparse_for(self, n: usize) -> bool {
        match self {
            Self::Auto => n >= SPARSE_THRESHOLD,
            Self::Dense => false,
            Self::Sparse => true,
        }
    }
}

/// Options for [`Circuit::ac_sweep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AcOptions {
    /// Which complex linear solver the sweep uses.
    pub method: AcMethod,
    /// `None` (the default) sweeps serially on the circuit's cached
    /// workspace and never touches the executor. `Some(c)` cuts the
    /// grid into `c`-point chunks (at least 1) and runs them over
    /// [`Executor::new`], each on a private workspace. The chunking
    /// depends only on `c`, never on the thread count.
    pub chunk: Option<usize>,
}

/// One sweep's complex solve state: a dense matrix, or the `G + jωC`
/// sparse matrix with its fixed pattern plus the complex LU with its
/// fill-reducing ordering. The circuit caches one, so repeated serial
/// sweeps skip the symbolic setup and reuse the factor allocations.
pub(crate) enum AcWorkspace {
    Dense(DenseMatrix<Complex>),
    Sparse {
        a: SparseMatrix<Complex>,
        lu: Box<SparseLu<Complex>>,
    },
}

impl AcWorkspace {
    /// A zeroed workspace for the circuit; a sparse one takes its
    /// pattern from the circuit's full stamp pattern.
    fn new(circuit: &Circuit, sparse: bool) -> Self {
        let n = circuit.num_unknowns();
        if !sparse {
            return Self::Dense(DenseMatrix::zeros(n));
        }
        let a = SparseMatrix::from_entries(n, &collect_pattern(circuit));
        let lu = Box::new(SparseLu::new(&a));
        Self::Sparse { a, lu }
    }

    fn values(&self) -> &[Complex] {
        match self {
            Self::Dense(a) => a.values(),
            Self::Sparse { a, .. } => a.values(),
        }
    }

    fn set_values(&mut self, vals: &[Complex]) {
        match self {
            Self::Dense(a) => a.set_values(vals),
            Self::Sparse { a, .. } => a.set_values(vals),
        }
    }

    /// Solves the stamped system in place of `x`, the `k`-th point
    /// (frequency `f`) of a sweep. The sparse LU takes a full pivoting
    /// factorization at `k == 0`, so the factor schedule — and hence
    /// every bit of the output — is independent of whatever a cached
    /// workspace solved before; later points replay it.
    fn solve(&mut self, k: usize, f: f64, x: &mut [Complex]) -> Result<(), SpiceError> {
        let (a, lu) = match self {
            Self::Dense(a) => return a.solve_in_place(x),
            Self::Sparse { a, lu } => (a, lu),
        };
        if k == 0 {
            lu.factor(a)?;
            carbon_metrics::global_counter!("spice.sparse.ac_factor").incr();
        } else {
            match lu.refactor(a)? {
                Refactor::Replayed => {
                    carbon_metrics::global_counter!("spice.sparse.ac_replay").incr()
                }
                Refactor::Repivoted => {
                    // The pivot order chosen at the head frequency went
                    // stale as ω moved the susceptances — rare, but
                    // campaigns watch the fallback rate.
                    carbon_metrics::global_counter!("spice.sparse.ac_repivot").incr();
                    instant!("spice.sparse.ac_stale_pivot", "freq" = f, "n" = a.dim());
                }
            }
        }
        lu.solve(x);
        Ok(())
    }
}

impl Stamp<Complex> for AcWorkspace {
    #[inline]
    fn add(&mut self, row: usize, col: usize, value: Complex) {
        match self {
            Self::Dense(a) => a.add(row, col, value),
            Self::Sparse { a, .. } => a.add(row, col, value),
        }
    }
}

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
        if node == "0" || node.eq_ignore_ascii_case("gnd") {
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
    /// the DC operating point). [`AcOptions`] picks the solver and
    /// whether the grid runs serially or in chunks over the executor.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownAcSource`] if `source` does not name
    /// an independent source (the message lists the valid choices),
    /// [`SpiceError::InvalidSweep`] for an empty frequency list or any
    /// non-finite / non-positive frequency (rejected up front, naming
    /// the offending entry), and solver errors from the operating point
    /// or any frequency point — with several failing chunks, the error
    /// of the lowest-indexed one.
    pub fn ac_sweep(
        &self,
        source: &str,
        freqs: &[f64],
        opts: AcOptions,
    ) -> Result<AcResult, SpiceError> {
        let stimulus = self.validate_ac(source, freqs)?;
        // Linearization point first: op() takes the same solver-cache
        // lock the AC workspace lives behind.
        let op = self.op()?;
        let n = self.num_unknowns();
        let sparse = opts.method.sparse_for(n);
        let chunk = opts.chunk.map_or(freqs.len(), |c| c.max(1));
        let n_chunks = freqs.len().div_ceil(chunk);
        let mut sweep_span = span!("spice.ac_sweep");
        if sweep_span.is_live() {
            sweep_span.record("source", stimulus.as_str());
            sweep_span.record("n", n);
            sweep_span.record("points", freqs.len());
            sweep_span.record("chunk", chunk);
            sweep_span.record("n_chunks", n_chunks);
            sweep_span.record("method", if sparse { "sparse" } else { "dense" });
        }
        let solutions = if opts.chunk.is_none() {
            let mut cache = self.solver_cache.lock();
            let ws = match &mut cache.ac {
                Some(ws) if matches!(ws, AcWorkspace::Sparse { .. }) == sparse => ws,
                slot => slot.insert(AcWorkspace::new(self, sparse)),
            };
            sweep_points(self, &stimulus, freqs, &op, ws)?
        } else {
            let chunks = Executor::new().par_map(n_chunks, |c| {
                let lo = c * chunk;
                let hi = (lo + chunk).min(freqs.len());
                let mut chunk_span = span!("spice.ac_chunk");
                if chunk_span.is_live() {
                    chunk_span.record("chunk", c);
                    chunk_span.record("points", hi - lo);
                }
                // A private workspace per chunk: no shared factor state,
                // so scheduling cannot influence any bit of the result.
                let mut ws = AcWorkspace::new(self, sparse);
                sweep_points(self, &stimulus, &freqs[lo..hi], &op, &mut ws)
            });
            chunks.into_iter().collect::<Result<Vec<_>, _>>()?.concat()
        };
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

/// Solves `(G + jωC)·x = b` at each of `freqs` on `ws`: the static
/// stamps once, then per point a restore of their snapshot, the `jωC`
/// triples, and a solve.
fn sweep_points(
    circuit: &Circuit,
    stimulus: &str,
    freqs: &[f64],
    op: &OpResult,
    ws: &mut AcWorkspace,
) -> Result<Vec<Vec<Complex>>, SpiceError> {
    // The static stamps accumulate from zero; their snapshot `g` then
    // restores `G` per point with one memcpy instead of a full restamp.
    let mut g = vec![Complex::ZERO; ws.values().len()];
    ws.set_values(&g);
    let (b, jwc) = stamp_ac_static(circuit, stimulus, op, ws);
    g.copy_from_slice(ws.values());
    let mut solutions = Vec::with_capacity(freqs.len());
    for (k, &f) in freqs.iter().enumerate() {
        if carbon_runtime::cancel::cancelled() {
            return Err(SpiceError::Cancelled {
                analysis: "ac sweep",
            });
        }
        let omega = 2.0 * std::f64::consts::PI * f;
        ws.set_values(&g);
        for &(r, c, coeff) in &jwc {
            ws.add(r, c, Complex::imag(omega * coeff));
        }
        let mut x = b.clone();
        ws.solve(k, f, &mut x)?;
        solutions.push(x);
    }
    Ok(solutions)
}

/// Stamps the ω-independent part of the circuit's AC system into `a`
/// and returns its right-hand side with the `jωC` triples: conductances
/// linearized at the operating point, source incidences, the unit
/// stimulus and the `AC_GMIN` diagonal are stamped; each triple
/// `(row, col, coeff)` means "add `j·ω·coeff` here per frequency" —
/// `±c` patterns for capacitor susceptances, `−l` on inductor branch
/// diagonals.
fn stamp_ac_static<A: Stamp<Complex>>(
    circuit: &Circuit,
    stimulus: &str,
    op: &OpResult,
    a: &mut A,
) -> (Vec<Complex>, Vec<(usize, usize, f64)>) {
    let op_v = |id: NodeId| {
        id.unknown_index()
            .map_or(0.0, |i| op.node_voltage_by_index(i))
    };
    let n_nodes = circuit.num_nodes();
    let mut b = vec![Complex::ZERO; circuit.num_unknowns()];
    let mut jwc = Vec::new();
    let stamp_g = |a: &mut A, p: NodeId, n: NodeId, g: f64| {
        let y = Complex::new(g, 0.0);
        if let Some(i) = p.unknown_index() {
            a.add(i, i, y);
            if let Some(j) = n.unknown_index() {
                a.add(i, j, -y);
                a.add(j, i, -y);
            }
        }
        if let Some(j) = n.unknown_index() {
            a.add(j, j, y);
        }
    };
    let incidence = |a: &mut A, p: NodeId, n: NodeId, bi: usize| {
        if let Some(i) = p.unknown_index() {
            a.add(i, bi, Complex::ONE);
            a.add(bi, i, Complex::ONE);
        }
        if let Some(j) = n.unknown_index() {
            a.add(j, bi, -Complex::ONE);
            a.add(bi, j, -Complex::ONE);
        }
    };
    // A real entry at (row, col) when both are unknowns (not ground).
    let add = |a: &mut A, row: Option<usize>, col: Option<usize>, v: f64| {
        if let (Some(r), Some(c)) = (row, col) {
            a.add(r, c, Complex::new(v, 0.0));
        }
    };
    for e in &circuit.elements {
        match &e.kind {
            ElementKind::Resistor { p, n, g } => stamp_g(a, *p, *n, *g),
            ElementKind::Capacitor { p, n, c } => {
                if let Some(i) = p.unknown_index() {
                    jwc.push((i, i, *c));
                    if let Some(j) = n.unknown_index() {
                        jwc.push((i, j, -*c));
                        jwc.push((j, i, -*c));
                    }
                }
                if let Some(j) = n.unknown_index() {
                    jwc.push((j, j, *c));
                }
            }
            ElementKind::VoltageSource { p, n, branch, .. } => {
                let bi = n_nodes + branch;
                incidence(a, *p, *n, bi);
                if e.name == stimulus {
                    b[bi] += Complex::ONE;
                }
            }
            ElementKind::Inductor { p, n, branch, l } => {
                let bi = n_nodes + branch;
                incidence(a, *p, *n, bi);
                jwc.push((bi, bi, -*l));
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
                stamp_g(a, *p, *n, g);
            }
            ElementKind::Vccs { p, n, cp, cn, gm } => {
                let (pi, ni) = (p.unknown_index(), n.unknown_index());
                let (cpi, cni) = (cp.unknown_index(), cn.unknown_index());
                add(a, pi, cpi, -gm);
                add(a, pi, cni, *gm);
                add(a, ni, cpi, *gm);
                add(a, ni, cni, -gm);
            }
            ElementKind::Fet { d, g, s, model } => {
                let vgs = op_v(*g) - op_v(*s);
                let vds = op_v(*d) - op_v(*s);
                let (gm, gds) = model.gm_gds(vgs, vds);
                let gds = gds.max(1e-12);
                let (di, gi, si) = (d.unknown_index(), g.unknown_index(), s.unknown_index());
                add(a, di, gi, gm);
                add(a, di, di, gds);
                add(a, di, si, -(gm + gds));
                add(a, si, gi, -gm);
                add(a, si, di, -gds);
                add(a, si, si, gm + gds);
            }
        }
    }
    for i in 0..n_nodes {
        a.add(i, i, Complex::new(AC_GMIN, 0.0));
    }
    (b, jwc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_lowpass_corner() {
        // R = 1 kΩ, C = 1 nF: f_c = 1/(2πRC) ≈ 159 kHz.
        let mut ckt = Circuit::new();
        ckt.voltage_source("vin", "in", "0", 0.0);
        ckt.resistor("r", "in", "out", 1e3).unwrap();
        ckt.capacitor("c", "out", "0", 1e-9).unwrap();
        let freqs: Vec<f64> = (0..60).map(|k| 1e3 * 10f64.powf(k as f64 / 10.0)).collect();
        let ac = ckt.ac_sweep("vin", &freqs, AcOptions::default()).unwrap();
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
        let ac = ckt
            .ac_sweep("vin", &[1e3, 1e6, 1e9], AcOptions::default())
            .unwrap();
        let mag = ac.magnitude("out").unwrap();
        for m in mag {
            assert!((m - 20.0).abs() < 0.1, "|Av| = {m}");
        }
    }

    #[test]
    fn fet_common_source_ac_gain_matches_gm_over_gds() {
        #[derive(Debug)]
        struct LinearFet;
        impl crate::element::FetCurve for LinearFet {
            fn ids(&self, vgs: f64, vds: f64) -> f64 {
                1e-3 * vgs + 1e-5 * vds
            }
        }
        let mut ckt = Circuit::new();
        ckt.voltage_source("vdd", "vdd", "0", 1.0);
        ckt.voltage_source("vin", "g", "0", 0.5);
        ckt.resistor("rl", "vdd", "d", 1e5).unwrap();
        ckt.fet("m1", "d", "g", "0", std::sync::Arc::new(LinearFet))
            .unwrap();
        let ac = ckt.ac_sweep("vin", &[1e6], AcOptions::default()).unwrap();
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
        match ckt.ac_sweep("nope", &[1e3], AcOptions::default()) {
            Err(SpiceError::UnknownAcSource { name, available }) => {
                assert_eq!(name, "nope");
                assert_eq!(available, vec!["vin".to_owned()]);
            }
            other => panic!("expected UnknownAcSource, got {other:?}"),
        }
        // An element that exists but is not a source is rejected the
        // same way.
        match ckt.ac_sweep("r", &[1e3], AcOptions::default()) {
            Err(SpiceError::UnknownAcSource { name, .. }) => assert_eq!(name, "r"),
            other => panic!("expected UnknownAcSource, got {other:?}"),
        }
        assert!(matches!(
            ckt.ac_sweep("vin", &[], AcOptions::default()),
            Err(SpiceError::InvalidSweep { .. })
        ));
        // Bad frequencies are rejected up front, naming the entry.
        for bad in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            match ckt.ac_sweep("vin", &[1e3, bad], AcOptions::default()) {
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
        let msg = ckt
            .ac_sweep("vx", &[1e3], AcOptions::default())
            .unwrap_err()
            .to_string();
        assert!(msg.contains("'vx'"), "{msg}");
        assert!(msg.contains("vin") && msg.contains("ibias"), "{msg}");
        // No sources at all: the message says so instead of listing an
        // empty set.
        let mut bare = Circuit::new();
        bare.resistor("r", "a", "0", 1e3).unwrap();
        let msg = bare
            .ac_sweep("vin", &[1e3], AcOptions::default())
            .unwrap_err()
            .to_string();
        assert!(msg.contains("no independent sources"), "{msg}");
    }

    #[test]
    fn ground_phasor_is_zero() {
        let mut ckt = Circuit::new();
        ckt.voltage_source("vin", "in", "0", 0.0);
        ckt.resistor("r", "in", "0", 1e3).unwrap();
        let ac = ckt.ac_sweep("vin", &[1e3], AcOptions::default()).unwrap();
        assert_eq!(ac.magnitude("0").unwrap(), vec![0.0]);
        assert!(ac.magnitude("ghost").is_err());
    }

    /// Series R / shunt C ladder with `n` stages — at least 17 unknowns
    /// from n = 16, forcing the sparse path under [`AcMethod::Auto`].
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
            .unwrap();
            ckt.capacitor(&format!("c{k}"), &format!("n{}", k + 1), "0", 1e-12)
                .unwrap();
        }
        ckt
    }

    fn with_method(method: AcMethod) -> AcOptions {
        AcOptions {
            method,
            ..AcOptions::default()
        }
    }

    #[test]
    fn sparse_path_matches_dense_oracle_on_ladder() {
        let ckt = rc_ladder(24);
        let freqs: Vec<f64> = (0..20).map(|k| 1e4 * 10f64.powf(k as f64 / 4.0)).collect();
        let dense = ckt
            .ac_sweep("vin", &freqs, with_method(AcMethod::Dense))
            .unwrap();
        let sparse = ckt
            .ac_sweep("vin", &freqs, with_method(AcMethod::Sparse))
            .unwrap();
        for (d, s) in dense.solutions.iter().zip(&sparse.solutions) {
            for (dv, sv) in d.iter().zip(s) {
                let err = (*dv - *sv).abs();
                let scale = dv.abs().max(1.0);
                assert!(err / scale < 1e-9, "dense {dv:?} vs sparse {sv:?}");
            }
        }
    }

    #[test]
    fn repeated_sweeps_reuse_the_cached_workspace_bit_for_bit() {
        let ckt = rc_ladder(20);
        let freqs: Vec<f64> = (0..10).map(|k| 1e5 * 10f64.powf(k as f64 / 3.0)).collect();
        let first = ckt.ac_sweep("vin", &freqs, AcOptions::default()).unwrap();
        let second = ckt.ac_sweep("vin", &freqs, AcOptions::default()).unwrap();
        assert_eq!(first.solutions, second.solutions);
    }
}
