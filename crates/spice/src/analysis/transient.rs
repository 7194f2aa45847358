//! Transient analysis: fixed-step and adaptive implicit integration.
//!
//! Two methods share one Newton/MNA core (the `engine` module). Each
//! transient builds its own workspace, so the sparse symbolic analysis
//! and fill-reducing ordering are discovered **once per transient** and
//! every later Newton iteration at every time point runs a numeric
//! [`replay`](crate::sparse::SparseLu::refactor) against the cached
//! pattern (with the usual pivot-growth staleness fallback) — the same
//! factor schedule the AC sweep's `G + jωC` systems follow.
//!
//! * [`TranMethod::FixedStep`] — the PR 1 integrator, kept numerically
//!   bit-for-bit as the oracle: backward Euler for the start-up step,
//!   trapezoidal thereafter, on the uniform grid `k·tstep` with the
//!   final sample landing **exactly** on `tstop`.
//! * [`TranMethod::Adaptive`] — LTE-based step-size control. Each
//!   candidate step is integrated twice, backward Euler then
//!   trapezoidal; the pair's difference estimates the local truncation
//!   error (`x_TR − x_BE ≈ (h²/2)·x″`, the BE error to leading order),
//!   normalized against `lte_abstol + lte_reltol·|x|` per unknown.
//!   Steps whose estimate exceeds 1 are rejected and halved; accepted
//!   steps grow by a bounded factor chosen from the estimate alone.
//!   The accept/reject/grow/shrink sequence is a **pure function of
//!   the deck** — never of timing, tracing, or thread count — so the
//!   adaptive step sequence is byte-identical across runs. Source
//!   breakpoints (pulse edges, PWL corners, sine start delays) are
//!   landed on exactly, and integration restarts with a backward-Euler
//!   step after each one, exactly as it starts from the DC initial
//!   condition.
//!
//! Cancellation checkpoints sit at every accept/reject boundary (and
//! inside every Newton iteration), so a serve job whose deadline
//! expires mid-horizon stops at the next step boundary with a clean
//! [`SpiceError::Cancelled`].

use std::sync::{Arc, OnceLock};

use super::{newton_solve, CapCompanion, IndCompanion, MnaWorkspace, NameTable, NewtonOptions};
use crate::element::ElementKind;
use crate::error::SpiceError;
use crate::netlist::{is_ground, Circuit};
use carbon_trace::{instant, span};

/// Which time-stepping scheme [`Circuit::transient`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TranMethod {
    /// Uniform grid `k·tstep` (final sample exactly at `tstop`),
    /// backward-Euler start-up then trapezoidal — the bit-identity
    /// oracle the adaptive path is tested against.
    #[default]
    FixedStep,
    /// LTE-controlled variable steps: `tstep` is the *initial* step,
    /// the controller grows and shrinks it deterministically between
    /// `min_step` and `max_step`.
    Adaptive,
}

impl TranMethod {
    /// The method's trace label.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::FixedStep => "fixed",
            Self::Adaptive => "adaptive",
        }
    }
}

/// Tuning knobs for [`Circuit::transient`].
///
/// The defaults select [`TranMethod::FixedStep`], which preserves the
/// historical fixed-step behaviour byte for byte; the LTE fields
/// only apply to the adaptive method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranOptions {
    /// Stepping scheme.
    pub method: TranMethod,
    /// Relative weight of an unknown's magnitude in the LTE acceptance
    /// tolerance.
    pub lte_reltol: f64,
    /// Absolute floor of the LTE acceptance tolerance, V (node
    /// unknowns; branch currents use a fixed 1 nA floor).
    pub lte_abstol: f64,
    /// Largest step the controller may grow to, s. `None` → a tenth of
    /// the horizon, so even a fully settled circuit keeps at least ten
    /// samples.
    pub max_step: Option<f64>,
    /// Smallest step the controller may halve to before reporting
    /// [`SpiceError::TimestepCollapsed`], s. `None` → `tstop · 1e-12`.
    pub min_step: Option<f64>,
}

impl Default for TranOptions {
    fn default() -> Self {
        Self {
            method: TranMethod::FixedStep,
            lte_reltol: 1e-3,
            lte_abstol: 1e-6,
            max_step: None,
            min_step: None,
        }
    }
}

impl TranOptions {
    /// [`TranMethod::Adaptive`] with the default LTE tolerances.
    pub fn adaptive() -> Self {
        Self {
            method: TranMethod::Adaptive,
            ..Self::default()
        }
    }
}

/// Result of a transient analysis: time points and node-voltage traces
/// in **netlist node order** — no hash-map iteration anywhere, so two
/// identical analyses render identically down to the last bit.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    /// Unknown-name tables shared with the solver workspace.
    names: Arc<NameTable>,
    /// One voltage trace per node, aligned with `names.node_names`.
    traces: Vec<Vec<f64>>,
    /// The ground trace, all zeros, allocated on its first probe.
    ground: OnceLock<Vec<f64>>,
    accepted: usize,
    rejected: usize,
}

impl TranResult {
    /// The time grid, s. Uniform for [`TranMethod::FixedStep`]; the
    /// accepted (variable) step sequence for [`TranMethod::Adaptive`].
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Node names in netlist order — the trace order of this result.
    pub fn node_names(&self) -> &[String] {
        &self.names.node_names
    }

    /// Accepted time steps (excluding the `t = 0` initial condition).
    pub fn accepted_steps(&self) -> usize {
        self.accepted
    }

    /// Steps rejected by the LTE controller (always 0 for fixed-step).
    pub fn rejected_steps(&self) -> usize {
        self.rejected
    }

    /// Voltage trace of a node over time; ground (`0` or `gnd`) reads
    /// as zero at every time point.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] for unknown names.
    pub fn voltages(&self, node: &str) -> Result<&[f64], SpiceError> {
        if is_ground(node) {
            return Ok(self.ground.get_or_init(|| vec![0.0; self.times.len()]));
        }
        self.names
            .node(node)
            .map(|i| self.traces[i].as_slice())
            .ok_or(SpiceError::UnknownNode {
                name: node.to_owned(),
            })
    }

    /// Voltage of a node at time `t`, linearly interpolated between the
    /// two bracketing samples (clamped to the first/last sample outside
    /// the horizon) — the comparison primitive for adaptive-vs-fixed
    /// agreement checks, where the two grids do not share points.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] for unknown names.
    pub fn sample_at(&self, node: &str, t: f64) -> Result<f64, SpiceError> {
        let v = self.voltages(node)?;
        if self.times.is_empty() {
            return Ok(0.0);
        }
        if t <= self.times[0] {
            return Ok(v[0]);
        }
        if t >= *self.times.last().expect("non-empty") {
            return Ok(*v.last().expect("non-empty"));
        }
        // Binary search for the bracketing interval.
        let k = self.times.partition_point(|&tk| tk < t);
        let (t0, t1) = (self.times[k - 1], self.times[k]);
        if t1 == t0 {
            return Ok(v[k]);
        }
        Ok(v[k - 1] + (v[k] - v[k - 1]) * (t - t0) / (t1 - t0))
    }
}

/// Reactive-element companion state for one transient run. Each list
/// is in element order, the order `stamp_all` walks it in.
struct Companions {
    caps: Vec<CapCompanion>,
    inds: Vec<IndCompanion>,
    n_nodes: usize,
}

impl Companions {
    fn from_dc(circuit: &Circuit, x: &[f64]) -> Self {
        let n_nodes = circuit.num_nodes();
        let caps = circuit
            .elements
            .iter()
            .filter_map(|e| match e.kind {
                ElementKind::Capacitor { p, n, c } => Some(CapCompanion::at_rest(p, n, c, x)),
                _ => None,
            })
            .collect();
        let inds = circuit
            .elements
            .iter()
            .filter_map(|e| match e.kind {
                ElementKind::Inductor { p, n, branch, l } => {
                    Some(IndCompanion::at_rest(p, n, branch, l, x, n_nodes))
                }
                _ => None,
            })
            .collect();
        Self {
            caps,
            inds,
            n_nodes,
        }
    }

    fn prepare(&mut self, h: f64, trapezoidal: bool) {
        for cap in &mut self.caps {
            cap.prepare(h, trapezoidal);
        }
        for ind in &mut self.inds {
            ind.prepare(h, trapezoidal);
        }
    }

    fn commit(&mut self, x: &[f64]) {
        for cap in &mut self.caps {
            cap.commit(x);
        }
        for ind in &mut self.inds {
            ind.commit(x, self.n_nodes);
        }
    }

    fn as_refs(&self) -> (&[CapCompanion], &[IndCompanion]) {
        (&self.caps, &self.inds)
    }
}

/// Relative slack allowed between `tstop / tstep` and the nearest
/// integer before a fixed-step horizon is rejected: a few-ulp rounding
/// residue (`1e-6/1e-9 = 999.9999…`) is resolved by snapping, while a
/// genuinely fractional horizon (`1e-6/3e-9 = 333.33`) would silently
/// drop a third of a step and is reported instead.
const STEP_COUNT_SLACK: f64 = 1e-6;

/// Validates a fixed-step horizon and returns the step count whose
/// final sample lands exactly on `tstop`.
fn fixed_step_count(tstep: f64, tstop: f64) -> Result<usize, SpiceError> {
    let steps_f = tstop / tstep;
    let steps = steps_f.round();
    if (steps_f - steps).abs() > STEP_COUNT_SLACK * steps_f.max(1.0) {
        return Err(SpiceError::InvalidSweep {
            reason: format!(
                "transient horizon is not a whole number of steps: tstop = {tstop} / tstep = \
                 {tstep} gives {steps_f} steps; rounding to {steps} would silently move the \
                 final sample off tstop — adjust tstep or tstop, or use the adaptive method"
            ),
        });
    }
    Ok(steps as usize)
}

impl Circuit {
    /// Transient analysis from `t = 0` to `tstop`, starting from the DC
    /// operating point with all sources at their `t = 0` values.
    /// [`TranOptions::default()`] steps the uniform grid `k·tstep`
    /// (backward-Euler start-up step, trapezoidal thereafter) with the
    /// final sample exactly at `tstop`; [`TranOptions::adaptive()`]
    /// controls the step by LTE, starting from `tstep`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidSweep`], naming the field, for non-positive
    /// steps or horizons, fixed-step horizons that are not a whole
    /// number of steps, and bad LTE tolerances or step bounds;
    /// [`SpiceError::TransientNonConvergence`] for time points that
    /// refuse to converge; [`SpiceError::TimestepCollapsed`] when the
    /// adaptive controller halves below `min_step` without an accepted
    /// step; and solver errors from the initial operating point.
    pub fn transient(
        &self,
        tstep: f64,
        tstop: f64,
        opts: TranOptions,
    ) -> Result<TranResult, SpiceError> {
        // Field-by-field validation, matching the AC sweep's style: the
        // offending parameter is named so a bad caller-side formula is a
        // one-glance fix.
        for (field, value) in [("tstep", tstep), ("tstop", tstop)] {
            if !value.is_finite() {
                return Err(SpiceError::InvalidSweep {
                    reason: format!("transient {field} = {value} must be finite"),
                });
            }
            if value <= 0.0 {
                return Err(SpiceError::InvalidSweep {
                    reason: format!("transient {field} = {value} must be positive"),
                });
            }
        }
        if tstep > tstop {
            return Err(SpiceError::InvalidSweep {
                reason: format!(
                    "transient tstep = {tstep} exceeds tstop = {tstop}: the horizon must cover \
                     at least one step"
                ),
            });
        }
        if opts.method == TranMethod::Adaptive {
            for (field, value) in [
                ("lte_reltol", Some(opts.lte_reltol)),
                ("lte_abstol", Some(opts.lte_abstol)),
                ("max_step", opts.max_step),
                ("min_step", opts.min_step),
            ] {
                if let Some(v) = value {
                    if !(v.is_finite() && v > 0.0) {
                        return Err(SpiceError::InvalidSweep {
                            reason: format!("transient {field} = {v} must be positive and finite"),
                        });
                    }
                }
            }
        }
        // Fixed-step horizons must be a whole number of steps — checked
        // before any solving so the error arrives instantly.
        let fixed_steps = match opts.method {
            TranMethod::FixedStep => Some(fixed_step_count(tstep, tstop)?),
            TranMethod::Adaptive => None,
        };

        let mut tran_span = span!("spice.transient");
        if tran_span.is_live() {
            tran_span.record("method", opts.method.as_str());
            tran_span.record("n", self.num_unknowns());
            tran_span.record("tstop", tstop);
        }

        let nopts = NewtonOptions::default();
        let ws = &mut MnaWorkspace::for_circuit(self);
        // DC initial condition with sources evaluated at t = 0.
        let mut x = vec![0.0; self.num_unknowns()];
        newton_solve(self, ws, &mut x, Some(0.0), None, 1.0, nopts.gmin, &nopts).or_else(|_| {
            // Fall back to the robust op ladder, then refine at t = 0.
            x.fill(0.0);
            self.op_from(&mut x, ws)?;
            newton_solve(self, ws, &mut x, Some(0.0), None, 1.0, nopts.gmin, &nopts)
        })?;
        let mut companions = Companions::from_dc(self, &x);

        let mut times = Vec::new();
        let mut samples: Vec<Vec<f64>> = Vec::new();
        times.push(0.0);
        samples.push(x.clone());

        let (accepted, rejected) = match opts.method {
            TranMethod::FixedStep => {
                let steps = fixed_steps.expect("computed for fixed-step");
                fixed_loop(
                    self,
                    ws,
                    &mut companions,
                    &mut x,
                    tstep,
                    tstop,
                    steps,
                    &nopts,
                    &mut times,
                    &mut samples,
                )?
            }
            TranMethod::Adaptive => adaptive_loop(
                self,
                ws,
                &mut companions,
                &mut x,
                tstep,
                tstop,
                &opts,
                &nopts,
                &mut times,
                &mut samples,
            )?,
        };

        if tran_span.is_live() {
            tran_span.record("points", times.len());
            tran_span.record("steps", accepted);
            tran_span.record("rejects", rejected);
        }

        let n_nodes = self.num_nodes();
        let traces = (0..n_nodes)
            .map(|i| samples.iter().map(|s| s[i]).collect())
            .collect();
        Ok(TranResult {
            times,
            names: ws.names.clone(),
            traces,
            ground: OnceLock::new(),
            accepted,
            rejected,
        })
    }
}

/// The fixed-step integrator: `steps` uniform steps of `tstep`,
/// backward Euler first then trapezoidal, final sample exactly at
/// `tstop`. Numerically identical to the pre-refactor `transient()`
/// except that the last time point is `tstop` itself rather than
/// `steps · tstep` (the two differ by at most one rounding ulp, and
/// only for horizons where the product rounds away from `tstop`).
#[allow(clippy::too_many_arguments)]
fn fixed_loop(
    circuit: &Circuit,
    ws: &mut MnaWorkspace,
    companions: &mut Companions,
    x: &mut [f64],
    tstep: f64,
    tstop: f64,
    steps: usize,
    nopts: &NewtonOptions,
    times: &mut Vec<f64>,
    samples: &mut Vec<Vec<f64>>,
) -> Result<(usize, usize), SpiceError> {
    for k in 1..=steps {
        // Checkpoint between time steps: a deadline that expires
        // mid-transient stops before the next integration step (the
        // Newton loop below has its own per-iteration checkpoint).
        if carbon_runtime::cancel::cancelled() {
            return Err(SpiceError::Cancelled {
                analysis: "transient",
            });
        }
        let t = if k == steps { tstop } else { k as f64 * tstep };
        let trapezoidal = k > 1;
        companions.prepare(tstep, trapezoidal);
        if newton_solve(
            circuit,
            ws,
            x,
            Some(t),
            Some(companions.as_refs()),
            1.0,
            nopts.gmin,
            nopts,
        )
        .is_err()
        {
            // Retry with heavy damping: piecewise-linear device models
            // (table models) can make full Newton steps cycle between
            // interpolation cells.
            let damped = NewtonOptions {
                max_iter: 600,
                vstep_limit: 0.02,
                ..*nopts
            };
            newton_solve(
                circuit,
                ws,
                x,
                Some(t),
                Some(companions.as_refs()),
                1.0,
                nopts.gmin,
                &damped,
            )
            .map_err(|e| match e {
                SpiceError::SingularMatrix { .. } | SpiceError::Cancelled { .. } => e,
                // Surface the failing time in its own field and keep
                // the damped attempt's true residual — previously the
                // time was smuggled through the residual field.
                SpiceError::NonConvergence {
                    iterations,
                    residual,
                    ..
                } => SpiceError::TransientNonConvergence {
                    time: t,
                    iterations,
                    residual,
                },
                other => other,
            })?;
        }
        companions.commit(x);
        carbon_metrics::global_counter!("spice.tran.steps").incr();
        times.push(t);
        samples.push(x.to_vec());
    }
    Ok((steps, 0))
}

/// The adaptive integrator: per candidate step, a backward-Euler solve
/// then a trapezoidal solve over the same interval; their difference
/// is the LTE estimate that accepts/rejects the step and sizes the
/// next one. Every quantity in the control law derives from the deck
/// and the options alone, so the accepted step sequence is
/// byte-identical across runs, thread counts, and tracing.
#[allow(clippy::too_many_arguments)]
fn adaptive_loop(
    circuit: &Circuit,
    ws: &mut MnaWorkspace,
    companions: &mut Companions,
    x: &mut [f64],
    tstep: f64,
    tstop: f64,
    opts: &TranOptions,
    nopts: &NewtonOptions,
    times: &mut Vec<f64>,
    samples: &mut Vec<Vec<f64>>,
) -> Result<(usize, usize), SpiceError> {
    let hmax = opts.max_step.unwrap_or(tstop / 10.0).min(tstop);
    let hmin = opts.min_step.unwrap_or(tstop * 1e-12).min(hmax);
    let n_nodes = circuit.num_nodes();
    let n_unknowns = circuit.num_unknowns();

    // Source breakpoints, sorted and deduplicated; the horizon end is
    // the final mandatory stop.
    let mut breakpoints: Vec<f64> = Vec::new();
    for e in &circuit.elements {
        match &e.kind {
            ElementKind::VoltageSource { wave, .. } | ElementKind::CurrentSource { wave, .. } => {
                wave.breakpoints(tstop, &mut breakpoints);
            }
            _ => {}
        }
    }
    breakpoints.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
    breakpoints.dedup();
    breakpoints.push(tstop);
    let mut next_bp = 0usize;

    let mut t = 0.0_f64;
    let mut h = tstep.min(hmax).max(hmin);
    // The step after the DC initial condition — and after every
    // breakpoint landing — integrates with backward Euler: the
    // companion history holds no trustworthy current/voltage slope
    // across a discontinuity, and trapezoidal integration would ring.
    let mut startup = true;
    let mut x_be = vec![0.0; n_unknowns];
    let mut x_tr = vec![0.0; n_unknowns];
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    // Diagnostics of the last Newton failure, for the collapse report.
    let mut last_failure: Option<(f64, usize, f64)> = None;

    while t < tstop {
        // Accept/reject boundary checkpoint: a deadline that expires
        // mid-horizon stops here with a clean cancellation (the Newton
        // loop has its own per-iteration checkpoint).
        if carbon_runtime::cancel::cancelled() {
            return Err(SpiceError::Cancelled {
                analysis: "transient",
            });
        }
        while breakpoints[next_bp] <= t {
            next_bp += 1;
        }
        let stop = breakpoints[next_bp];
        let remaining = stop - t;
        let (h_step, lands) = if h >= remaining {
            (remaining, true)
        } else {
            (h, false)
        };
        let t_new = if lands { stop } else { t + h_step };

        // Backward-Euler predictor, warm-started from the accepted
        // state; trapezoidal corrector, warm-started from the
        // predictor (it converges in a couple of iterations).
        companions.prepare(h_step, false);
        x_be.copy_from_slice(x);
        let solved = newton_solve(
            circuit,
            ws,
            &mut x_be,
            Some(t_new),
            Some(companions.as_refs()),
            1.0,
            nopts.gmin,
            nopts,
        )
        .and_then(|_| {
            companions.prepare(h_step, true);
            x_tr.copy_from_slice(&x_be);
            newton_solve(
                circuit,
                ws,
                &mut x_tr,
                Some(t_new),
                Some(companions.as_refs()),
                1.0,
                nopts.gmin,
                nopts,
            )
        });

        let err_norm = match solved {
            Ok(_) => {
                let mut err = 0.0_f64;
                for i in 0..n_unknowns {
                    let mag = x_tr[i].abs().max(x_be[i].abs());
                    let tol = if i < n_nodes {
                        opts.lte_abstol + opts.lte_reltol * mag
                    } else {
                        1e-9 + opts.lte_reltol * mag
                    };
                    let ratio = (x_tr[i] - x_be[i]).abs() / tol;
                    if !ratio.is_finite() {
                        err = f64::INFINITY;
                        break;
                    }
                    err = err.max(ratio);
                }
                err
            }
            Err(e @ (SpiceError::SingularMatrix { .. } | SpiceError::Cancelled { .. })) => {
                return Err(e);
            }
            Err(SpiceError::NonConvergence {
                iterations,
                residual,
                ..
            }) => {
                // A non-convergent Newton attempt is treated exactly
                // like an over-large LTE: halve and retry.
                last_failure = Some((t_new, iterations, residual));
                f64::INFINITY
            }
            Err(other) => return Err(other),
        };

        if err_norm <= 1.0 {
            // Accept. Start-up steps keep the backward-Euler solution
            // (and its companion coefficients); steady stepping keeps
            // the trapezoidal one.
            if startup {
                companions.prepare(h_step, false);
                x.copy_from_slice(&x_be);
            } else {
                x.copy_from_slice(&x_tr);
            }
            companions.commit(x);
            t = t_new;
            times.push(t);
            samples.push(x.to_vec());
            accepted += 1;
            carbon_metrics::global_counter!("spice.tran.steps").incr();
            last_failure = None;
            if lands && t < tstop {
                // Breakpoint landed: restart like a fresh horizon —
                // backward-Euler step at the initial step size.
                startup = true;
                h = tstep.min(hmax).max(hmin);
            } else {
                startup = false;
                // Bounded deterministic growth from the estimate alone.
                let growth = if err_norm < 0.1 {
                    2.0
                } else if err_norm < 0.5 {
                    1.25
                } else {
                    1.0
                };
                h = (h_step * growth).min(hmax);
            }
        } else {
            rejected += 1;
            carbon_metrics::global_counter!("spice.tran.rejects").incr();
            instant!("spice.tran.reject", "t" = t, "h" = h_step, "err" = err_norm);
            h = h_step * 0.5;
            if h < hmin {
                return Err(match last_failure {
                    Some((tf, iterations, residual)) => SpiceError::TransientNonConvergence {
                        time: tf,
                        iterations,
                        residual,
                    },
                    None => SpiceError::TimestepCollapsed {
                        time: t,
                        step: h,
                        min_step: hmin,
                    },
                });
            }
        }
    }
    Ok((accepted, rejected))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_step_count_snaps_rounding_residue_and_rejects_fractions() {
        // 1e-6 / 1e-9 = 999.9999999999999 in f64: a rounding residue,
        // resolved to 1000 steps.
        assert_eq!(fixed_step_count(1e-9, 1e-6).unwrap(), 1000);
        assert_eq!(fixed_step_count(2e-5, 4e-3).unwrap(), 200);
        assert_eq!(fixed_step_count(1.0, 1.0).unwrap(), 1);
        // A genuinely fractional horizon is rejected, naming both
        // fields and the implied count.
        let err = fixed_step_count(3e-9, 1e-6).unwrap_err();
        let SpiceError::InvalidSweep { reason } = err else {
            panic!("expected InvalidSweep");
        };
        assert!(reason.contains("tstep"), "{reason}");
        assert!(reason.contains("tstop"), "{reason}");
        assert!(reason.contains("333"), "{reason}");
    }

    #[test]
    fn final_fixed_sample_lands_exactly_on_tstop() {
        let mut ckt = Circuit::new();
        ckt.voltage_source("v", "in", "0", 1.0);
        ckt.resistor("r", "in", "out", 1e3).unwrap();
        ckt.capacitor("c", "out", "0", 1e-9).unwrap();
        // 1000 · 1e-9 rounds one ulp away from 1e-6; the grid must end
        // on tstop itself regardless.
        let tran = ckt.transient(1e-9, 1e-6, TranOptions::default()).unwrap();
        assert_eq!(
            tran.times().last().copied().unwrap().to_bits(),
            1e-6_f64.to_bits()
        );
        assert_eq!(tran.times().len(), 1001);
    }

    #[test]
    fn adaptive_options_are_validated_by_name() {
        let mut ckt = Circuit::new();
        ckt.voltage_source("v", "in", "0", 1.0);
        ckt.resistor("r", "in", "0", 1e3).unwrap();
        for (field, opts) in [
            (
                "lte_reltol",
                TranOptions {
                    lte_reltol: 0.0,
                    ..TranOptions::adaptive()
                },
            ),
            (
                "lte_abstol",
                TranOptions {
                    lte_abstol: f64::NAN,
                    ..TranOptions::adaptive()
                },
            ),
            (
                "max_step",
                TranOptions {
                    max_step: Some(-1.0),
                    ..TranOptions::adaptive()
                },
            ),
            (
                "min_step",
                TranOptions {
                    min_step: Some(0.0),
                    ..TranOptions::adaptive()
                },
            ),
        ] {
            match ckt.transient(1e-9, 1e-6, opts) {
                Err(SpiceError::InvalidSweep { reason }) => {
                    assert!(reason.contains(field), "{reason}");
                }
                other => panic!("expected InvalidSweep for {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn adaptive_grid_is_monotonic_and_ends_on_tstop() {
        let mut ckt = Circuit::new();
        ckt.voltage_source("v", "in", "0", 1.0);
        ckt.resistor("r", "in", "out", 1e3).unwrap();
        ckt.capacitor("c", "out", "0", 1e-9).unwrap();
        let tran = ckt.transient(1e-9, 1e-5, TranOptions::adaptive()).unwrap();
        let t = tran.times();
        assert_eq!(t[0], 0.0);
        assert_eq!(t.last().copied().unwrap().to_bits(), 1e-5_f64.to_bits());
        assert!(t.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        // The settled RC charges in ~5 τ = 5 µs; the controller must
        // take far fewer steps than the 10 000 fixed steps would.
        assert!(
            tran.accepted_steps() < 1000,
            "adaptive took {} steps",
            tran.accepted_steps()
        );
    }

    #[test]
    fn sample_at_interpolates_and_clamps() {
        let mut ckt = Circuit::new();
        ckt.voltage_source("v", "in", "0", 1.0);
        ckt.resistor("r1", "in", "mid", 1e3).unwrap();
        ckt.resistor("r2", "mid", "0", 1e3).unwrap();
        let tran = ckt.transient(1e-7, 1e-6, TranOptions::default()).unwrap();
        // Constant 0.5 everywhere (to within the solver's gmin leak):
        // interpolation and clamping reproduce it at any t.
        assert!((tran.sample_at("mid", 3.3e-7).unwrap() - 0.5).abs() < 1e-9);
        assert!((tran.sample_at("mid", -1.0).unwrap() - 0.5).abs() < 1e-9);
        assert!((tran.sample_at("mid", 2.0).unwrap() - 0.5).abs() < 1e-9);
        assert!(tran.sample_at("ghost", 0.0).is_err());
    }

    #[test]
    fn ground_reads_as_a_zero_trace() {
        let mut ckt = Circuit::new();
        ckt.voltage_source("v", "in", "0", 1.0);
        ckt.resistor("r", "in", "out", 1e3).unwrap();
        ckt.capacitor("c", "out", "0", 1e-9).unwrap();
        for opts in [TranOptions::default(), TranOptions::adaptive()] {
            let tran = ckt.transient(1e-7, 1e-6, opts).unwrap();
            assert!(tran.ground.get().is_none(), "no ground trace until probed");
            for name in ["0", "gnd", "GND"] {
                let v = tran.voltages(name).unwrap();
                assert_eq!(v.len(), tran.times().len(), "{name}");
                assert!(v.iter().all(|&v| v.to_bits() == 0), "{name}: {v:?}");
                assert_eq!(tran.sample_at(name, 3.3e-7).unwrap(), 0.0, "{name}");
            }
        }
    }
}
