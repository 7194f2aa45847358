//! Analyses: DC operating point, DC sweep, transient — plus their result
//! types.
//!
//! All are methods on [`Circuit`]:
//!
//! * [`Circuit::op`] — Newton solve of the nonlinear DC system, with gmin
//!   stepping and source stepping as fallbacks,
//! * [`Circuit::dc_sweep`] — repeated operating points with warm-started
//!   continuation (each point starts from the previous solution, with
//!   step-halving source continuation when a point refuses to
//!   converge), the analysis behind every I-V curve and
//!   voltage-transfer curve in the paper,
//! * [`Circuit::dc_sweep_par`] — the same sweep fanned out over the
//!   deterministic executor: a coarse serial pre-solve seeds each
//!   parallel chunk, and the result is bit-identical across
//!   `CARBON_THREADS` (though not always to the last bit of the serial
//!   sweep, whose warm-start chain runs through every point),
//! * [`Circuit::transient`] — time-domain integration (fixed-step or
//!   LTE-adaptive, see [`transient`]), used for ring oscillators and
//!   the inverter's dynamic behaviour with its 10 fF load.
//!
//! All of them share one `MnaWorkspace` per analysis, so the sparse
//! symbolic analysis and pivot order are discovered once and re-used by
//! every Newton iteration at every bias point.

pub mod ac;
mod engine;
pub mod transient;

use std::sync::Arc;

use crate::error::SpiceError;
use crate::netlist::{is_ground, Circuit};
use carbon_trace::{instant, span};

pub(crate) use engine::{
    newton_solve, CapCompanion, IndCompanion, MnaWorkspace, NameTable, NewtonOptions, SolverCache,
};
pub use transient::{TranMethod, TranOptions, TranResult};

/// Solution of a DC operating point.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Unknown-name tables, shared across the points of a sweep.
    names: Arc<NameTable>,
    x: Vec<f64>,
}

impl OpResult {
    /// Node voltage by unknown index (AC linearization helper).
    pub(crate) fn node_voltage_by_index(&self, i: usize) -> f64 {
        self.x[i]
    }

    pub(crate) fn new(names: Arc<NameTable>, x: Vec<f64>) -> Self {
        Self { names, x }
    }

    /// Voltage of a named node, V.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] for unknown names.
    pub fn voltage(&self, node: &str) -> Result<f64, SpiceError> {
        if is_ground(node) {
            return Ok(0.0);
        }
        self.names
            .node(node)
            .map(|i| self.x[i])
            .ok_or(SpiceError::UnknownNode {
                name: node.to_owned(),
            })
    }

    /// Current through a named voltage source, A (positive flowing into
    /// its `p` terminal and out of `n`).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownSource`] if no voltage source has
    /// that name.
    pub fn source_current(&self, source: &str) -> Result<f64, SpiceError> {
        self.names
            .branch(source)
            .map(|i| self.x[i])
            .ok_or(SpiceError::UnknownSource {
                name: source.to_owned(),
            })
    }
}

/// How many times a warm-started sweep point may halve its source step
/// (recursively) before its non-convergence is reported.
const MAX_STEP_HALVINGS: u32 = 6;

/// Result of a DC sweep: the swept values and one solution per point.
#[derive(Debug, Clone)]
pub struct SweepResult {
    sweep: Vec<f64>,
    points: Vec<OpResult>,
    /// Newton iterations spent on each point (failed strategy attempts
    /// included, counted at their full `max_iter` cost).
    newton_iterations: Vec<usize>,
}

impl SweepResult {
    /// The swept source values.
    pub fn sweep_values(&self) -> &[f64] {
        &self.sweep
    }

    /// Total Newton iterations spent across the whole sweep — the
    /// figure of merit for warm-start continuation.
    pub fn total_newton_iterations(&self) -> usize {
        self.newton_iterations.iter().sum()
    }

    /// Voltage trace of a node across the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] for unknown names.
    pub fn voltages(&self, node: &str) -> Result<Vec<f64>, SpiceError> {
        self.points.iter().map(|p| p.voltage(node)).collect()
    }

    /// Current trace through a voltage source across the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownSource`] for unknown names.
    pub fn currents(&self, source: &str) -> Result<Vec<f64>, SpiceError> {
        self.points
            .iter()
            .map(|p| p.source_current(source))
            .collect()
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        self.sweep.len()
    }

    /// `true` if the sweep has no points.
    pub fn is_empty(&self) -> bool {
        self.sweep.is_empty()
    }

    /// The operating point at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn point(&self, i: usize) -> &OpResult {
        &self.points[i]
    }
}

/// Validates sweep bounds and materializes the inclusive value grid.
fn sweep_grid(from: f64, to: f64, step: f64) -> Result<Vec<f64>, SpiceError> {
    // An infinite bound would wrap the point count below, and a NaN
    // one would clamp every point onto the other bound.
    for (field, value) in [("from", from), ("to", to)] {
        if !value.is_finite() {
            return Err(SpiceError::InvalidSweep {
                reason: format!("sweep {field} = {value} must be finite"),
            });
        }
    }
    if !(step.is_finite() && step > 0.0) {
        return Err(SpiceError::InvalidSweep {
            reason: format!("step must be positive and finite, got {step}"),
        });
    }
    let count = ((to - from).abs() / step).round() + 1.0;
    let mut grid = reserve_per_point(count, step)?;
    let dir = if to >= from { 1.0 } else { -1.0 };
    grid.extend((0..count as usize).map(|i| {
        let v = from + dir * step * i as f64;
        if dir > 0.0 {
            v.min(to)
        } else {
            v.max(to)
        }
    }));
    Ok(grid)
}

/// An empty vector with room for `count` sweep points, or
/// `InvalidSweep` naming the step and the count when this process
/// cannot reserve that much: a grid too fine to hold is an error, not
/// an allocation failure that aborts the process.
fn reserve_per_point<T>(count: f64, step: f64) -> Result<Vec<T>, SpiceError> {
    let mut points = Vec::new();
    // `as usize` saturates an infinite or oversized count, which no
    // reservation can satisfy either.
    points
        .try_reserve_exact(count as usize)
        .map_err(|_| SpiceError::InvalidSweep {
            reason: format!(
                "step = {step} gives {count:e} sweep points, more than this process can reserve"
            ),
        })?;
    Ok(points)
}

impl Circuit {
    /// Solves the DC operating point.
    ///
    /// The solver first attempts a plain Newton iteration from zero,
    /// then gmin stepping, then source stepping.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] for ill-posed circuits and
    /// [`SpiceError::NonConvergence`] when all strategies fail.
    pub fn op(&self) -> Result<OpResult, SpiceError> {
        let mut x = vec![0.0; self.num_unknowns()];
        // Reuse (or build) this topology's cached workspace, so a
        // second op() pays no symbolic analysis and refactors against
        // the already-discovered fill pattern.
        let mut cache = self.solver_cache.lock();
        let ws = cache
            .dc
            .get_or_insert_with(|| MnaWorkspace::for_circuit(self));
        self.op_from(&mut x, ws)?;
        Ok(OpResult::new(ws.names.clone(), x))
    }

    /// Operating point starting from the guess in `x`, reusing the
    /// workspace's matrix and factors; used by sweeps for continuation.
    ///
    /// On success `x` holds the solution and the Newton iteration count
    /// is returned (failed strategy attempts counted at full
    /// `max_iter`); on failure `x` is left exactly as passed in, so a
    /// caller can retry from the same seed with a smaller source step.
    fn op_from(&self, x: &mut [f64], ws: &mut MnaWorkspace) -> Result<usize, SpiceError> {
        let opts = NewtonOptions::default();
        let mut spent = 0usize;
        // Strategy 1: plain Newton from the caller's seed.
        let mut trial = x.to_vec();
        match newton_solve(self, ws, &mut trial, None, None, 1.0, opts.gmin, &opts) {
            Ok(iters) => {
                x.copy_from_slice(&trial);
                return Ok(iters);
            }
            Err(_) => spent += opts.max_iter,
        }
        carbon_metrics::global_counter!("spice.op.gmin_step_fallback").incr();
        // Strategy 2: gmin stepping from zero.
        let mut xg = vec![0.0; self.num_unknowns()];
        let mut ok = true;
        for exp in [-2.0_f64, -4.0, -6.0, -8.0, -10.0, -12.0] {
            match newton_solve(self, ws, &mut xg, None, None, 1.0, 10f64.powf(exp), &opts) {
                Ok(iters) => spent += iters,
                Err(_) => {
                    spent += opts.max_iter;
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            match newton_solve(self, ws, &mut xg, None, None, 1.0, opts.gmin, &opts) {
                Ok(iters) => {
                    x.copy_from_slice(&xg);
                    return Ok(spent + iters);
                }
                Err(_) => spent += opts.max_iter,
            }
        }
        // Strategy 3: source stepping from zero.
        carbon_metrics::global_counter!("spice.op.source_step_fallback").incr();
        let mut xs = vec![0.0; self.num_unknowns()];
        for k in 1..=20 {
            let scale = k as f64 / 20.0;
            match newton_solve(self, ws, &mut xs, None, None, scale, opts.gmin, &opts) {
                Ok(iters) => spent += iters,
                Err(e) => {
                    return Err(match e {
                        SpiceError::SingularMatrix { .. } => e,
                        // Keep the failed attempt's true iteration count
                        // and last update so the caller's diagnostics
                        // (ContinuationExhausted) stay meaningful.
                        SpiceError::NonConvergence {
                            iterations,
                            residual,
                            ..
                        } => SpiceError::NonConvergence {
                            analysis: "dc operating point",
                            iterations,
                            residual,
                        },
                        other => other,
                    });
                }
            }
        }
        x.copy_from_slice(&xs);
        Ok(spent)
    }

    /// Solves the point at `v_to` seeded from the solution in `x`
    /// (converged at `v_from`), bisecting the source step up to `depth`
    /// times when the jump is too large for Newton to follow.
    fn op_with_continuation(
        &mut self,
        source: &str,
        x: &mut [f64],
        ws: &mut MnaWorkspace,
        v_from: f64,
        v_to: f64,
        depth: u32,
    ) -> Result<usize, SpiceError> {
        self.set_source_value(source, v_to)?;
        match self.op_from(x, ws) {
            Ok(iters) => Ok(iters),
            // Structural failures and cancellations are not convergence
            // problems: halving the source step cannot fix them.
            Err(e @ (SpiceError::SingularMatrix { .. } | SpiceError::Cancelled { .. })) => Err(e),
            Err(e) if depth == 0 => {
                // Continuation exhausted: surface the failing sweep
                // value and the last Newton residual instead of the
                // inner attempt's generic non-convergence report.
                instant!("spice.continuation_exhausted", "v" = v_to);
                Err(match e {
                    SpiceError::NonConvergence {
                        iterations,
                        residual,
                        ..
                    } => SpiceError::ContinuationExhausted {
                        sweep_value: v_to,
                        iterations,
                        residual,
                    },
                    other => other,
                })
            }
            Err(_) => {
                carbon_metrics::global_counter!("spice.continuation_halvings").incr();
                instant!(
                    "spice.continuation_halve",
                    "v_from" = v_from,
                    "v_to" = v_to,
                    "depth" = depth,
                );
                let mid = 0.5 * (v_from + v_to);
                let a = self.op_with_continuation(source, x, ws, v_from, mid, depth - 1)?;
                let b = self.op_with_continuation(source, x, ws, mid, v_to, depth - 1)?;
                Ok(a + b)
            }
        }
    }

    /// Solves the operating point at each of `values` in turn, on a
    /// private clone of this circuit with its own workspace: the first
    /// from `seed`, each later one by continuation from the one before.
    /// `point` gets each solution with the node names and its Newton
    /// iteration count.
    fn warm_chain(
        &self,
        source: &str,
        values: &[f64],
        mut x: Vec<f64>,
        mut point: impl FnMut(&Arc<NameTable>, &[f64], usize),
    ) -> Result<(), SpiceError> {
        let mut work = self.clone();
        let mut ws = MnaWorkspace::for_circuit(&work);
        let mut prev_v: Option<f64> = None;
        for &v in values {
            let iters = match prev_v {
                Some(pv) => {
                    work.op_with_continuation(source, &mut x, &mut ws, pv, v, MAX_STEP_HALVINGS)?
                }
                None => {
                    work.set_source_value(source, v)?;
                    work.op_from(&mut x, &mut ws)?
                }
            };
            prev_v = Some(v);
            point(&ws.names, &x, iters);
        }
        Ok(())
    }

    /// Sweeps the DC value of a named source from `from` to `to`
    /// (inclusive, step `step > 0`; the sweep may run downward if
    /// `to < from`), with warm-started continuation: each point's Newton
    /// iteration starts from the previous converged solution, and a
    /// point that refuses to converge halves its source step up to six
    /// times before the failure is reported.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownSource`] for unknown sources,
    /// [`SpiceError::InvalidSweep`] for non-finite bounds, non-positive
    /// steps or a point count that does not fit in memory, and any
    /// solver error from the underlying operating points.
    pub fn dc_sweep(
        &self,
        source: &str,
        from: f64,
        to: f64,
        step: f64,
    ) -> Result<SweepResult, SpiceError> {
        let grid = sweep_grid(from, to, step)?;
        let mut sweep_span = span!("spice.dc_sweep");
        if sweep_span.is_live() {
            sweep_span.record("source", source);
            sweep_span.record("points", grid.len());
        }
        let mut points = reserve_per_point(grid.len() as f64, step)?;
        let mut newton_iterations = reserve_per_point(grid.len() as f64, step)?;
        let zero = vec![0.0; self.num_unknowns()];
        self.warm_chain(source, &grid, zero, |names, x, iters| {
            points.push(OpResult::new(names.clone(), x.to_vec()));
            newton_iterations.push(iters);
        })?;
        if sweep_span.is_live() {
            sweep_span.record("total_iters", newton_iterations.iter().sum::<usize>());
        }
        Ok(SweepResult {
            sweep: grid,
            points,
            newton_iterations,
        })
    }

    /// [`dc_sweep`](Self::dc_sweep) fanned out over the deterministic
    /// executor: the grid is cut into chunks of `chunk` points, a coarse
    /// serial pre-solve (itself warm-chained) solves each chunk's first
    /// point, and the chunks then run in parallel, each warm-started
    /// from its pre-solved seed.
    ///
    /// Results are **bit-identical at every `CARBON_THREADS`** — each
    /// point's solution depends only on its chunk seed, which the serial
    /// pre-solve fixed — but may differ in the last bits from the serial
    /// [`dc_sweep`](Self::dc_sweep), whose warm-start chain threads
    /// through every intermediate point.
    ///
    /// # Errors
    ///
    /// As [`dc_sweep`](Self::dc_sweep); with several failing points the
    /// error of the lowest-indexed chunk is reported.
    pub fn dc_sweep_par(
        &self,
        source: &str,
        from: f64,
        to: f64,
        step: f64,
        chunk: usize,
    ) -> Result<SweepResult, SpiceError> {
        let grid = sweep_grid(from, to, step)?;
        let mut points = reserve_per_point(grid.len() as f64, step)?;
        let mut newton_iterations = reserve_per_point(grid.len() as f64, step)?;
        let chunk = chunk.max(1);
        let n_chunks = grid.len().div_ceil(chunk);
        let mut sweep_span = span!("spice.dc_sweep_par");
        if sweep_span.is_live() {
            sweep_span.record("source", source);
            sweep_span.record("points", grid.len());
            sweep_span.record("chunk", chunk);
            sweep_span.record("n_chunks", n_chunks);
        }

        // Coarse serial pre-solve: solve the first point of every chunk,
        // warm-chaining from one chunk head to the next.
        let heads: Vec<f64> = grid.iter().step_by(chunk).copied().collect();
        let mut seeds = Vec::with_capacity(n_chunks);
        let zero = vec![0.0; self.num_unknowns()];
        self.warm_chain(source, &heads, zero, |_, x, _| seeds.push(x.to_vec()))?;

        // Parallel phase: each chunk sweeps its own points from its
        // pre-solved seed with a private circuit clone and workspace.
        type ChunkResult = Result<(Vec<OpResult>, Vec<usize>), SpiceError>;
        let chunks: Vec<ChunkResult> =
            carbon_runtime::Executor::new().par_map(n_chunks, |c| -> ChunkResult {
                let lo = c * chunk;
                let hi = (lo + chunk).min(grid.len());
                let mut chunk_span = span!("spice.sweep_chunk");
                if chunk_span.is_live() {
                    chunk_span.record("chunk", c);
                    chunk_span.record("points", hi - lo);
                }
                let mut points = Vec::with_capacity(hi - lo);
                let mut iters = Vec::with_capacity(hi - lo);
                // The chunk head was solved by the pre-solve; re-running
                // Newton from its own solution converges immediately and
                // records the true residual iteration count.
                self.warm_chain(source, &grid[lo..hi], seeds[c].clone(), |names, x, it| {
                    points.push(OpResult::new(names.clone(), x.to_vec()));
                    iters.push(it);
                })?;
                if chunk_span.is_live() {
                    chunk_span.record("iters", iters.iter().sum::<usize>());
                }
                Ok((points, iters))
            });

        for chunk_result in chunks {
            let (p, it) = chunk_result?;
            points.extend(p);
            newton_iterations.extend(it);
        }
        if sweep_span.is_live() {
            sweep_span.record("total_iters", newton_iterations.iter().sum::<usize>());
        }
        Ok(SweepResult {
            sweep: grid,
            points,
            newton_iterations,
        })
    }
}
