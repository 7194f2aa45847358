//! The Newton–Raphson MNA core shared by all analyses.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::element::{diode_iv, diode_vcrit, pnjlim, ElementKind};
use crate::error::SpiceError;
use crate::linalg::DenseMatrix;
use crate::netlist::{Circuit, NodeId};
use crate::sparse::{Refactor, Scalar, SparseLu, SparseMatrix};
use carbon_trace::{instant, span};

/// Unknown count below which the dense solver is used: at inverter-scale
/// systems the dense factorization fits in cache and beats the sparse
/// path's indirection, and keeping small circuits on the PR 1 dense code
/// preserves their results bit-for-bit.
pub(crate) const SPARSE_THRESHOLD: usize = 16;

/// Reusable MNA solve state for one circuit topology: the system matrix
/// (dense or sparse by size) with every stamp position bound to its
/// value slot, the RHS/trial buffers, and — on the sparse path — the
/// cached symbolic analysis and pivot order that later Newton iterations
/// refactor against.
///
/// Building one workspace per analysis (not per Newton iteration) is
/// what turns the sparse symbolic work and the slot binding into a
/// one-time cost across a whole sweep.
pub(crate) struct MnaWorkspace {
    matrix: MnaMatrix<f64>,
    slots: StampSlots,
    /// RHS vector, rebuilt every iteration.
    z: Vec<f64>,
    /// Trial solution buffer.
    x_new: Vec<f64>,
    /// Unknown-name table shared (by `Arc`) with every `OpResult` this
    /// workspace produces, so sweeps don't re-allocate the same strings
    /// at every bias point.
    pub names: Arc<NameTable>,
    /// Per-element junction voltage loaded at the previous Newton
    /// iteration (diode slots only) — the `vold` of SPICE's
    /// [`pnjlim`] limiting, re-seeded from the iterate at the start of
    /// every [`newton_solve`] call.
    junction_v: Vec<f64>,
    /// Per-element critical junction voltage (diode slots only),
    /// precomputed so the stamp loop doesn't re-derive the logarithm.
    vcrit: Vec<f64>,
}

/// Names of the node-voltage and branch-current unknowns: the node
/// names in unknown order, and one hash lookup from a name to its
/// unknown index behind every result probe (`OpResult::voltage`,
/// `OpResult::source_current`, `TranResult::voltages`,
/// `AcResult::phasors`).
#[derive(Debug)]
pub(crate) struct NameTable {
    pub node_names: Vec<String>,
    nodes: HashMap<String, usize>,
    /// Voltage-source and inductor names to their branch-current
    /// unknown (node count + branch).
    branches: HashMap<String, usize>,
}

impl NameTable {
    fn for_circuit(circuit: &Circuit) -> Self {
        let node_names: Vec<String> = (1..=circuit.num_nodes())
            .map(|i| circuit.node_name(NodeId(i)).to_owned())
            .collect();
        let nodes = node_names
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), i))
            .collect();
        let branches = circuit
            .elements
            .iter()
            .filter_map(|e| match e.kind {
                ElementKind::VoltageSource { branch, .. }
                | ElementKind::Inductor { branch, .. } => {
                    Some((e.name.clone(), node_names.len() + branch))
                }
                _ => None,
            })
            .collect();
        Self {
            node_names,
            nodes,
            branches,
        }
    }

    /// Unknown index of a node voltage, by case-insensitive name.
    pub fn node(&self, name: &str) -> Option<usize> {
        self.nodes.get(&name.to_ascii_lowercase()).copied()
    }

    /// Unknown index of a voltage source's or inductor's branch
    /// current, by case-insensitive name.
    pub fn branch(&self, name: &str) -> Option<usize> {
        self.branches.get(&name.to_ascii_lowercase()).copied()
    }
}

/// One stamp position: the `(row, col)` unknowns it writes, `None` for
/// ground.
type Position = (Option<usize>, Option<usize>);

/// Calls `visit` with each position an element's stamps write, in
/// write order: the element's footprint. DC, transient and AC stamps
/// share it: a capacitor's four conductance positions carry its
/// transient companion and its `jωC`, an inductor's fifth (its branch
/// diagonal) its companion resistance and its `−jωL`. Allocates
/// nothing.
fn footprint(kind: &ElementKind, n_nodes: usize, visit: impl FnMut(Position)) {
    let u = NodeId::unknown_index;
    match kind {
        ElementKind::Resistor { p, n, .. }
        | ElementKind::Capacitor { p, n, .. }
        | ElementKind::Diode { p, n, .. } => {
            let (i, j) = (u(*p), u(*n));
            [(i, i), (i, j), (j, i), (j, j)].into_iter().for_each(visit);
        }
        ElementKind::VoltageSource { p, n, branch, .. } => {
            let (i, j, b) = (u(*p), u(*n), Some(n_nodes + branch));
            [(i, b), (b, i), (j, b), (b, j)].into_iter().for_each(visit);
        }
        ElementKind::Inductor { p, n, branch, .. } => {
            let (i, j, b) = (u(*p), u(*n), Some(n_nodes + branch));
            [(i, b), (b, i), (j, b), (b, j), (b, b)]
                .into_iter()
                .for_each(visit);
        }
        ElementKind::CurrentSource { .. } => {}
        ElementKind::Vccs { p, n, cp, cn, .. } => {
            let (pi, ni, cpi, cni) = (u(*p), u(*n), u(*cp), u(*cn));
            [(pi, cpi), (pi, cni), (ni, cpi), (ni, cni)]
                .into_iter()
                .for_each(visit);
        }
        ElementKind::Fet { d, g, s, .. } => {
            let (di, gi, si) = (u(*d), u(*g), u(*s));
            [(di, gi), (di, di), (di, si), (si, gi), (si, di), (si, si)]
                .into_iter()
                .for_each(visit);
        }
    }
}

/// Every stamp position of a circuit bound once to its index in the
/// system matrix's [`values_mut`](MnaMatrix::values_mut), as SPICE3
/// binds element matrix pointers at setup. A position on ground binds
/// to the trailing slot past the matrix, which no factorization reads
/// (Sparse 1.3's `TrashCan`), so no stamp tests for ground.
pub(crate) struct StampSlots {
    /// Every element's footprint slots, in element order.
    pub elements: Vec<usize>,
    /// Each node's diagonal slot, where gmin lands.
    pub diagonals: Vec<usize>,
}

/// The next `K` slots of a walk over [`StampSlots::elements`]: one
/// element's footprint.
pub(crate) fn take<const K: usize>(slots: &mut &[usize]) -> [usize; K] {
    let (head, rest) = slots.split_at(K);
    *slots = rest;
    head.try_into().expect("a footprint of K slots")
}

/// Adds `vals` at `slots`, in footprint order.
pub(crate) fn add<T: Scalar, const K: usize>(a: &mut [T], slots: [usize; K], vals: [T; K]) {
    for (slot, v) in slots.into_iter().zip(vals) {
        a[slot] += v;
    }
}

/// An MNA system matrix: dense, or sparse with the LU that caches its
/// fill-reducing ordering and pivot sequence. `f64` for the Newton
/// workspace, [`Complex`](crate::complex::Complex) for the AC sweep.
pub(crate) enum MnaMatrix<T: Scalar> {
    Dense(DenseMatrix<T>),
    Sparse {
        a: SparseMatrix<T>,
        lu: Box<SparseLu<T>>,
    },
}

impl<T: Scalar> MnaMatrix<T> {
    /// The zeroed system matrix of `circuit` — dense, or sparse over the
    /// footprints' non-ground positions plus the node diagonals — and
    /// its stamp positions bound to their slots.
    pub fn bind(circuit: &Circuit, sparse: bool) -> (Self, StampSlots) {
        let n = circuit.num_unknowns();
        let n_nodes = circuit.num_nodes();
        let matrix = if sparse {
            // gmin anchors every node diagonal.
            let mut pattern: Vec<(usize, usize)> = (0..n_nodes).map(|i| (i, i)).collect();
            for e in &circuit.elements {
                footprint(&e.kind, n_nodes, |pos| {
                    if let (Some(r), Some(c)) = pos {
                        pattern.push((r, c));
                    }
                });
            }
            let a = SparseMatrix::from_entries(n, &pattern);
            let lu = Box::new(SparseLu::new(&a));
            Self::Sparse { a, lu }
        } else {
            Self::Dense(DenseMatrix::zeros(n))
        };
        let mut elements = Vec::new();
        for e in &circuit.elements {
            footprint(&e.kind, n_nodes, |pos| elements.push(matrix.slot(pos)));
        }
        let slots = StampSlots {
            elements,
            diagonals: (0..n_nodes)
                .map(|i| matrix.slot((Some(i), Some(i))))
                .collect(),
        };
        (matrix, slots)
    }

    /// The value slot of a stamp position.
    fn slot(&self, pos: Position) -> usize {
        match (pos, self) {
            ((Some(r), Some(c)), Self::Dense(a)) => r * a.dim() + c,
            ((Some(r), Some(c)), Self::Sparse { a, .. }) => a
                .slot(r, c)
                .expect("the pattern holds every footprint position"),
            // Ground: the trailing slot.
            (_, Self::Dense(a)) => a.dim() * a.dim(),
            (_, Self::Sparse { a, .. }) => a.nnz(),
        }
    }

    /// The matrix values by slot, the trailing ground slot included.
    pub fn values_mut(&mut self) -> &mut [T] {
        match self {
            Self::Dense(a) => a.values_mut(),
            Self::Sparse { a, .. } => a.values_mut(),
        }
    }
}

/// The per-topology workspaces an analysis can cache on a circuit:
/// the DC/transient Newton workspace and the AC sweep workspace. Both
/// hang off the circuit's one [`SolverCache`] lock and are dropped
/// together on topology changes.
#[derive(Default)]
pub(crate) struct Workspaces {
    /// Newton MNA state for `op()`/`transient()`.
    pub dc: Option<MnaWorkspace>,
    /// Dense or sparse complex solve state for serial `ac_sweep()`s.
    pub ac: Option<super::ac::AcWorkspace>,
}

/// Interior-mutable, per-[`Circuit`] cache of the solver workspaces, so
/// repeated `op()`/`transient()`/`ac_sweep()` calls on one circuit pay
/// the sparse symbolic analysis (pattern + ordering + first-factor fill
/// discovery) once instead of per call. The netlist builder invalidates
/// it on any topology change (new node, new element); value-only edits
/// such as [`Circuit::set_source_value`] keep it valid.
pub(crate) struct SolverCache(Mutex<Workspaces>);

impl SolverCache {
    /// Empties the cache — called by the builder on topology changes.
    pub fn invalidate(&mut self) {
        *self.0.get_mut().unwrap_or_else(PoisonError::into_inner) = Workspaces::default();
    }

    /// Locks the cache for an analysis. A poisoned lock (a stamp panic
    /// in another thread) is recovered by discarding the possibly
    /// half-updated workspaces.
    pub fn lock(&self) -> MutexGuard<'_, Workspaces> {
        self.0.lock().unwrap_or_else(|poison| {
            let mut guard = poison.into_inner();
            *guard = Workspaces::default();
            guard
        })
    }
}

impl Default for SolverCache {
    fn default() -> Self {
        Self(Mutex::new(Workspaces::default()))
    }
}

impl Clone for SolverCache {
    /// Cloned circuits start cold: a workspace is cheap to rebuild next
    /// to sharing a lock between independent clones (the parallel sweep
    /// clones circuits precisely to keep solver state private).
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for SolverCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SolverCache")
    }
}

impl MnaWorkspace {
    /// Builds the workspace for a circuit: dense below
    /// [`SPARSE_THRESHOLD`] unknowns, otherwise sparse with the stamp
    /// pattern and fill-reducing ordering computed once here.
    pub fn for_circuit(circuit: &Circuit) -> Self {
        let n = circuit.num_unknowns();
        let (matrix, slots) = MnaMatrix::bind(circuit, n >= SPARSE_THRESHOLD);
        let mut vcrit = vec![0.0; circuit.elements.len()];
        for (idx, e) in circuit.elements.iter().enumerate() {
            if let ElementKind::Diode {
                i_s, n_ideality, ..
            } = e.kind
            {
                vcrit[idx] = diode_vcrit(i_s, n_ideality);
            }
        }
        Self {
            matrix,
            slots,
            z: vec![0.0; n],
            x_new: vec![0.0; n],
            names: Arc::new(NameTable::for_circuit(circuit)),
            junction_v: vec![0.0; circuit.elements.len()],
            vcrit,
        }
    }
}

/// Newton solver tuning knobs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NewtonOptions {
    pub max_iter: usize,
    /// Absolute voltage tolerance, V.
    pub abstol_v: f64,
    /// Relative tolerance on all unknowns.
    pub reltol: f64,
    /// Conductance from every node to ground, S.
    pub gmin: f64,
    /// Largest node-voltage update applied per iteration, V.
    pub vstep_limit: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        Self {
            max_iter: 150,
            abstol_v: 1e-9,
            reltol: 1e-6,
            gmin: 1e-12,
            // Unlimited by default: junction voltages are limited
            // individually by `pnjlim`, which converges exponential
            // ladders in a fraction of the iterations a global
            // node-voltage clamp needs. Fallback strategies (transient
            // retry, continuation) drop this to damp cycling models.
            vstep_limit: f64::INFINITY,
        }
    }
}

/// Companion model of one capacitor for the implicit integrators.
#[derive(Debug, Clone)]
pub(crate) struct CapCompanion {
    p: NodeId,
    n: NodeId,
    c: f64,
    /// Voltage across the cap at the previous accepted time point.
    v_prev: f64,
    /// Current through the cap at the previous accepted time point.
    i_prev: f64,
    /// Equivalent conductance for the current step.
    geq: f64,
    /// Constant term of the companion current for the current step:
    /// `i = geq·v + ieq`.
    ieq: f64,
}

impl CapCompanion {
    /// Builds the companion from the DC initial condition (zero current).
    pub fn at_rest(p: NodeId, n: NodeId, c: f64, x: &[f64]) -> Self {
        let v = node_v(p, x) - node_v(n, x);
        Self {
            p,
            n,
            c,
            v_prev: v,
            i_prev: 0.0,
            geq: 0.0,
            ieq: 0.0,
        }
    }

    /// Computes `geq`/`ieq` for a step of size `h`; trapezoidal when
    /// `trapezoidal` is set, backward Euler otherwise.
    pub fn prepare(&mut self, h: f64, trapezoidal: bool) {
        if trapezoidal {
            self.geq = 2.0 * self.c / h;
            self.ieq = -(self.geq * self.v_prev + self.i_prev);
        } else {
            self.geq = self.c / h;
            self.ieq = -self.geq * self.v_prev;
        }
    }

    /// Accepts the time point: records the new voltage and branch current.
    pub fn commit(&mut self, x: &[f64]) {
        let v = node_v(self.p, x) - node_v(self.n, x);
        self.i_prev = self.geq * v + self.ieq;
        self.v_prev = v;
    }
}

/// Companion model of one inductor for the implicit integrators: the
/// branch equation becomes `v − R_eq·i = E_eq`.
#[derive(Debug, Clone)]
pub(crate) struct IndCompanion {
    p: NodeId,
    n: NodeId,
    branch: usize,
    l: f64,
    /// Branch current at the previous accepted time point.
    i_prev: f64,
    /// Voltage across the inductor at the previous accepted point.
    v_prev: f64,
    /// Equivalent series resistance for the current step.
    r_eq: f64,
    /// Equivalent EMF for the current step.
    e_eq: f64,
}

impl IndCompanion {
    /// Builds the companion from the DC initial condition (the DC
    /// solution's branch current, zero voltage).
    pub fn at_rest(p: NodeId, n: NodeId, branch: usize, l: f64, x: &[f64], n_nodes: usize) -> Self {
        Self {
            p,
            n,
            branch,
            l,
            i_prev: x[n_nodes + branch],
            v_prev: 0.0,
            r_eq: 0.0,
            e_eq: 0.0,
        }
    }

    /// Computes `r_eq`/`e_eq` for a step of size `h`.
    pub fn prepare(&mut self, h: f64, trapezoidal: bool) {
        if trapezoidal {
            self.r_eq = 2.0 * self.l / h;
            self.e_eq = -self.v_prev - self.r_eq * self.i_prev;
        } else {
            self.r_eq = self.l / h;
            self.e_eq = -self.r_eq * self.i_prev;
        }
    }

    /// Accepts the time point.
    pub fn commit(&mut self, x: &[f64], n_nodes: usize) {
        self.i_prev = x[n_nodes + self.branch];
        self.v_prev = node_v(self.p, x) - node_v(self.n, x);
    }
}

#[inline]
fn node_v(id: NodeId, x: &[f64]) -> f64 {
    match id.unknown_index() {
        Some(i) => x[i],
        None => 0.0,
    }
}

/// Runs Newton iteration on the MNA system at a fixed time point.
///
/// * `ws` is the per-topology solve state from
///   [`MnaWorkspace::for_circuit`] (matrix, factors, buffers), reused
///   across iterations, bias points, and time steps;
/// * `time = None` → DC (capacitors open);
/// * `caps = Some(..)` → transient companions (one per capacitor and
///   per inductor, in element order, prepared for the current step);
/// * `source_scale` multiplies all independent sources (source stepping);
/// * `gmin` is the node-to-ground leak used on this attempt.
///
/// On success `x` holds the converged solution and the iteration count
/// is returned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn newton_solve(
    circuit: &Circuit,
    ws: &mut MnaWorkspace,
    x: &mut [f64],
    time: Option<f64>,
    caps: Option<(&[CapCompanion], &[IndCompanion])>,
    source_scale: f64,
    gmin: f64,
    opts: &NewtonOptions,
) -> Result<usize, SpiceError> {
    let n_unknowns = circuit.num_unknowns();
    debug_assert_eq!(x.len(), n_unknowns);
    let n_nodes = circuit.num_nodes();

    // Per-solve telemetry: iteration count, convergence verdict, final
    // residual (largest node-voltage update), and the replay-vs-full
    // refactorization decisions taken on the sparse path. Inert — a
    // thread-local flag check — unless a subscriber is installed.
    // Always-on aggregates: per-analysis solve and iteration totals in
    // the process-global metrics registry. Observation only — nothing
    // downstream reads these, so results stay bit-identical.
    let record_newton = |iters: usize| {
        if time.is_some() {
            carbon_metrics::global_counter!("spice.newton.solves.tran").incr();
            carbon_metrics::global_counter!("spice.newton.iterations.tran").add(iters as u64);
        } else {
            carbon_metrics::global_counter!("spice.newton.solves.dc").incr();
            carbon_metrics::global_counter!("spice.newton.iterations.dc").add(iters as u64);
        }
    };

    let mut solve_span = span!("spice.newton_solve");
    if solve_span.is_live() {
        solve_span.record("n", n_unknowns);
        solve_span.record(
            "matrix",
            match &ws.matrix {
                MnaMatrix::Dense(_) => "dense",
                MnaMatrix::Sparse { .. } => "sparse",
            },
        );
        solve_span.record("transient", time.is_some());
    }
    let mut repivots = 0u64;
    let mut last_dv = f64::NAN;

    // Seed the junction-limiting state from the incoming iterate so a
    // warm start passes through pnjlim untouched on its first iteration.
    for (jv, e) in ws.junction_v.iter_mut().zip(&circuit.elements) {
        if let ElementKind::Diode { p, n, .. } = e.kind {
            *jv = node_v(p, x) - node_v(n, x);
        }
    }
    // With no seed at all (`x` identically zero), a junction's zero-bias
    // conductance is below `gmin` and the first linear solve tells Newton
    // nothing about the diodes. SPICE's junction initialization: evaluate
    // every junction at its critical voltage on the first iteration so
    // the exponentials enter the Jacobian from the start.
    let init_junctions = x.iter().all(|&v| v == 0.0);

    for iter in 0..opts.max_iter {
        // Cooperative-cancellation checkpoint: a serve job whose
        // deadline passed stops between Newton iterations, never
        // mid-factorization. Costs one thread-local read when no token
        // is installed.
        if carbon_runtime::cancel::cancelled() {
            if solve_span.is_live() {
                solve_span.record("iters", iter);
                solve_span.record("converged", false);
                solve_span.record("cancelled", true);
            }
            record_newton(iter);
            return Err(SpiceError::Cancelled {
                analysis: if time.is_some() {
                    "transient newton solve"
                } else {
                    "dc newton solve"
                },
            });
        }
        let z = &mut ws.z;
        let x_new = &mut ws.x_new;
        z.fill(0.0);
        let a = ws.matrix.values_mut();
        a.fill(0.0);
        stamp_all(
            circuit,
            &ws.slots,
            x,
            time,
            caps,
            source_scale,
            a,
            z,
            &mut ws.junction_v,
            &ws.vcrit,
            iter == 0 && init_junctions,
        );
        for &slot in &ws.slots.diagonals {
            a[slot] += gmin;
        }
        x_new.copy_from_slice(z);
        match &mut ws.matrix {
            MnaMatrix::Dense(a) => a.solve_in_place(x_new)?,
            MnaMatrix::Sparse { a, lu } => {
                if lu.is_factored() {
                    match lu.refactor(a)? {
                        Refactor::Replayed => {
                            carbon_metrics::global_counter!("spice.sparse.replay").incr()
                        }
                        Refactor::Repivoted => {
                            // The pivot-growth staleness check rejected
                            // the cached pivot order — the event sweeps
                            // and campaigns watch for fallback-rate
                            // spikes.
                            carbon_metrics::global_counter!("spice.sparse.repivot").incr();
                            instant!("spice.sparse.stale_pivot", "iter" = iter, "n" = n_unknowns);
                            repivots += 1;
                        }
                    }
                } else {
                    lu.factor(a)?;
                    carbon_metrics::global_counter!("spice.sparse.factor").incr();
                }
                lu.solve(x_new);
            }
        }

        // Largest update; voltage damping applies to node unknowns only.
        let mut dv_max = 0.0_f64;
        for i in 0..n_nodes {
            dv_max = dv_max.max((x_new[i] - x[i]).abs());
        }
        last_dv = dv_max;
        let mut converged = true;
        for i in 0..n_unknowns {
            let tol = if i < n_nodes {
                opts.abstol_v + opts.reltol * x_new[i].abs()
            } else {
                1e-12 + opts.reltol * x_new[i].abs()
            };
            if (x_new[i] - x[i]).abs() > tol {
                converged = false;
                break;
            }
        }
        if converged {
            x.copy_from_slice(x_new);
            if solve_span.is_live() {
                solve_span.record("iters", iter + 1);
                solve_span.record("converged", true);
                solve_span.record("residual", dv_max);
                solve_span.record("repivots", repivots);
            }
            record_newton(iter + 1);
            return Ok(iter + 1);
        }
        if dv_max > opts.vstep_limit {
            // Damp per component: each node voltage moves at most
            // `vstep_limit` towards its Newton target, but nodes with
            // small updates move in full. A single far-from-converged
            // node (e.g. a supply ramping from the zero seed) therefore
            // doesn't stall the rest of the circuit, which roughly
            // halves the iteration count on supply-fed ladders compared
            // to scaling the whole update vector. Branch currents
            // follow the voltages and are not clamped.
            for i in 0..n_nodes {
                let dv = x_new[i] - x[i];
                x[i] += dv.clamp(-opts.vstep_limit, opts.vstep_limit);
            }
            x[n_nodes..n_unknowns].copy_from_slice(&x_new[n_nodes..n_unknowns]);
        } else {
            x.copy_from_slice(x_new);
        }
    }
    if solve_span.is_live() {
        solve_span.record("iters", opts.max_iter);
        solve_span.record("converged", false);
        solve_span.record("residual", last_dv);
        solve_span.record("repivots", repivots);
    }
    record_newton(opts.max_iter);
    Err(SpiceError::NonConvergence {
        analysis: if time.is_some() {
            "transient point"
        } else {
            "dc operating point"
        },
        iterations: opts.max_iter,
        residual: last_dv,
    })
}

/// Stamps every element into `(a, z)` linearized at the iterate `x`:
/// `a` holds the matrix values by slot, and each element adds into its
/// bound footprint slots in element order.
#[allow(clippy::too_many_arguments)]
fn stamp_all(
    circuit: &Circuit,
    slots: &StampSlots,
    x: &[f64],
    time: Option<f64>,
    caps: Option<(&[CapCompanion], &[IndCompanion])>,
    source_scale: f64,
    a: &mut [f64],
    z: &mut [f64],
    junction_v: &mut [f64],
    vcrit: &[f64],
    init_junctions: bool,
) {
    let n_nodes = circuit.num_nodes();
    // Current `i_const` flowing from p to n through the element (added to
    // the RHS with the proper signs).
    let stamp_i = |z: &mut [f64], p: NodeId, n: NodeId, i_const: f64| {
        if let Some(i) = p.unknown_index() {
            z[i] -= i_const;
        }
        if let Some(j) = n.unknown_index() {
            z[j] += i_const;
        }
    };
    let conductance = |g: f64| [g, -g, -g, g];
    const INCIDENCE: [f64; 4] = [1.0, 1.0, -1.0, -1.0];

    let mut at = slots.elements.as_slice();
    // The companions are built in element order, so one cursor per
    // list pairs each capacitor and inductor with its own.
    let mut companions = caps.map(|(caps, inds)| (caps.iter(), inds.iter()));
    for (idx, e) in circuit.elements.iter().enumerate() {
        match &e.kind {
            ElementKind::Resistor { g, .. } => add(a, take(&mut at), conductance(*g)),
            ElementKind::Capacitor { .. } => {
                let slots = take(&mut at);
                if let Some(cap) = companions.as_mut().and_then(|(caps, _)| caps.next()) {
                    add(a, slots, conductance(cap.geq));
                    stamp_i(z, cap.p, cap.n, cap.ieq);
                }
                // DC: open circuit — no stamp (gmin keeps nodes anchored).
            }
            ElementKind::Inductor { branch, .. } => {
                let [pb, bp, nb, bn, bb] = take(&mut at);
                add(a, [pb, bp, nb, bn], INCIDENCE);
                if let Some(ind) = companions.as_mut().and_then(|(_, inds)| inds.next()) {
                    a[bb] += -ind.r_eq;
                    z[n_nodes + branch] += ind.e_eq;
                }
                // DC: v_p − v_n = 0 (a short), which is the bare stamp.
            }
            ElementKind::VoltageSource { branch, wave, .. } => {
                let v = source_scale
                    * match time {
                        Some(t) => wave.value_at(t),
                        None => wave.dc_value(),
                    };
                add(a, take(&mut at), INCIDENCE);
                z[n_nodes + branch] += v;
            }
            ElementKind::CurrentSource { p, n, wave } => {
                let i = source_scale
                    * match time {
                        Some(t) => wave.value_at(t),
                        None => wave.dc_value(),
                    };
                // Injects from n into p: equivalent to current −i flowing
                // p → n through the element.
                stamp_i(z, *p, *n, -i);
            }
            ElementKind::Diode {
                p,
                n,
                i_s,
                n_ideality,
            } => {
                // pnjlim: load the exponential at a limited junction
                // voltage so the chain turns on in logarithmic steps
                // instead of one junction per iteration. The limiter is
                // a no-op within 2·vt of the previous loaded voltage, so
                // converged solutions are exactly the unlimited ones.
                let v_iter = if init_junctions {
                    vcrit[idx]
                } else {
                    node_v(*p, x) - node_v(*n, x)
                };
                let vt = n_ideality * 0.02585;
                let v = pnjlim(v_iter, junction_v[idx], vt, vcrit[idx]);
                junction_v[idx] = v;
                let (i_d, g_d) = diode_iv(v, *i_s, *n_ideality);
                add(a, take(&mut at), conductance(g_d));
                stamp_i(z, *p, *n, i_d - g_d * v);
            }
            ElementKind::Vccs { gm, .. } => {
                // Current gm·(v(cp) − v(cn)) enters p, leaves n: current
                // flowing p → n through the element is −gm·vc.
                add(a, take(&mut at), [-gm, *gm, *gm, -gm]);
            }
            ElementKind::Fet { d, g, s, model } => {
                let vgs = node_v(*g, x) - node_v(*s, x);
                let vds = node_v(*d, x) - node_v(*s, x);
                // One combined-eval dispatch: table models batch the
                // value and its finite-difference stencil.
                let (id, gm, gds) = model.eval(vgs, vds);
                // Guard against pathological derivative signs breaking
                // the Jacobian: clamp to a tiny positive floor.
                let gds = gds.max(1e-12);
                let ieq = id - gm * vgs - gds * vds;
                // Current id flows d → s through the channel.
                add(
                    a,
                    take(&mut at),
                    [gm, gds, -(gm + gds), -gm, -gds, gm + gds],
                );
                if let Some(i) = d.unknown_index() {
                    z[i] -= ieq;
                }
                if let Some(i) = s.unknown_index() {
                    z[i] += ieq;
                }
            }
        }
    }
}
