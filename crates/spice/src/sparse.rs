//! Sparse linear algebra for the MNA system: CSC storage with a fixed
//! sparsity pattern, a fill-reducing minimum-degree ordering, and a
//! left-looking (Gilbert–Peierls) LU factorization with partial
//! pivoting plus a pivot-reusing numeric *refactorization*.
//!
//! The factorization is generic over the [`Scalar`] of the system:
//! `f64` for the DC/transient Newton path and
//! [`Complex`](crate::complex::Complex) for the AC system
//! `(G + jωC)·x = b`, so one Gilbert–Peierls implementation serves
//! both. Pivot selection, singularity tests and the pivot-growth
//! staleness check all run on a cheap real magnitude proxy
//! ([`Scalar::mag`]: `|x|` for reals, `|re| + |im|` for phasors).
//!
//! Circuit matrices from ladder and inverter netlists are inherently
//! sparse and near-banded (a node couples only to its few neighbours),
//! so the dense O(n³) LU in [`linalg`](crate::linalg) is pure wasted
//! work past a few dozen unknowns. The design here follows the KLU /
//! CSparse line of circuit-simulation solvers:
//!
//! 1. **Symbolic, once per topology** — the stamp pattern of a circuit
//!    is fixed across Newton iterations *and* sweep points, so the CSC
//!    pattern and the fill-reducing column ordering are computed a single
//!    time ([`SparseMatrix::from_entries`], [`SparseLu::new`]), and each
//!    stamp position is bound once to its value index
//!    ([`SparseMatrix::slot`]); stamping is then an add at that index.
//! 2. **First numeric factorization** — Gilbert–Peierls with partial
//!    pivoting (deterministic tie-break on the smallest row index)
//!    discovers the L/U fill pattern and the pivot sequence
//!    ([`SparseLu::factor`]).
//! 3. **Refactorization** — subsequent Newton iterations reuse the
//!    cached L/U pattern and pivot order and only replay the numeric
//!    updates; a pivot-growth check falls back to a full pivoting
//!    factorization when the cached pivots go stale
//!    ([`SparseLu::refactor`]).
//!
//! Rows are equilibrated to unit max-norm on every (re)factorization,
//! mirroring the dense solver, so the singularity tolerance means the
//! same thing on both paths and the dense solver stays usable as a test
//! oracle.

use crate::error::SpiceError;

/// The scalar field a dense or sparse system is solved over.
///
/// Implemented for `f64` (the DC/transient Newton path) and for
/// [`Complex`](crate::complex::Complex) (the AC system `G + jωC`). The
/// trait deliberately exposes only what the two LU solvers need: ring
/// arithmetic, a **real** magnitude proxy for pivot decisions, and
/// multiplication by a real equilibration scale — [`Scalar::scale`]
/// here, a full product with `Self::from(s)` in the dense solver.
pub trait Scalar:
    Copy
    + PartialEq
    + Default
    + std::fmt::Debug
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
    + From<f64>
    + Send
    + Sync
    + 'static
{
    /// The additive identity.
    const ZERO: Self;

    /// Cheap magnitude proxy used for pivot selection, the singularity
    /// tolerance, and the refactorization growth check: `|x|` for
    /// reals, the 1-norm `|re| + |im|` for complex values (within √2 of
    /// the modulus, and free of the `hypot` cost in the pivot loop).
    fn mag(self) -> f64;

    /// Multiplies by a real factor — row equilibration.
    #[must_use]
    fn scale(self, s: f64) -> Self;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;

    #[inline]
    fn mag(self) -> f64 {
        self.abs()
    }

    #[inline]
    fn scale(self, s: f64) -> Self {
        self * s
    }
}

/// Sentinel for "row not yet chosen as a pivot".
const EMPTY: u32 = u32::MAX;

/// Equilibrated-pivot magnitude below which the matrix is reported
/// singular — identical to the dense solver's tolerance.
const SINGULAR_TOL: f64 = 1e-13;

/// Refactorization stability threshold: if the cached pivot has decayed
/// below this fraction of the best available pivot in its column, the
/// cached pivot order is stale and a full pivoting factorization is
/// redone.
const REFACTOR_PIVOT_RATIO: f64 = 1e-3;

/// How [`SparseLu::refactor`] satisfied a request — the
/// replay-vs-full-factorization decision, surfaced so callers can count
/// staleness fallbacks in telemetry instead of guessing from timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refactor {
    /// The cached L/U pattern and pivot order were numerically replayed.
    Replayed,
    /// The pivot-growth staleness check rejected the cached pivot order
    /// and a full pivoting factorization was redone.
    Repivoted,
}

/// A sparse square matrix in compressed-sparse-column (CSC) form with a
/// **fixed** sparsity pattern, generic over the stored [`Scalar`]
/// (defaults to `f64`; the AC path instantiates it at
/// [`Complex`](crate::complex::Complex)).
///
/// The pattern is declared up front from the set of `(row, col)`
/// positions a circuit can ever stamp. A caller binds each position once
/// to its value index with [`slot`](Self::slot), then accumulates into
/// [`values_mut`](Self::values_mut) at that index, so no stamp searches
/// the pattern.
///
/// ```
/// use carbon_spice::sparse::{SparseLu, SparseMatrix};
///
/// # fn main() -> Result<(), carbon_spice::SpiceError> {
/// // [2 1; 1 3]·x = [3; 5], so x = [0.8, 1.4].
/// let entries = [(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)];
/// let pattern: Vec<(usize, usize)> = entries.iter().map(|&(r, c, _)| (r, c)).collect();
/// let mut a = SparseMatrix::from_entries(2, &pattern);
/// // Bind once, then stamp by index.
/// let slots: Vec<usize> = pattern
///     .iter()
///     .map(|&(r, c)| a.slot(r, c).expect("declared in the pattern"))
///     .collect();
/// let values = a.values_mut();
/// for (&slot, &(_, _, v)) in slots.iter().zip(&entries) {
///     values[slot] += v;
/// }
/// let mut lu = SparseLu::new(&a);
/// lu.factor(&a)?;
/// let mut x = vec![3.0, 5.0];
/// lu.solve(&mut x);
/// assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseMatrix<T: Scalar = f64> {
    n: usize,
    /// CSC column pointers, `n + 1` entries.
    col_ptr: Vec<usize>,
    /// CSC row indices, one per stored entry, sorted within a column.
    row_ind: Vec<u32>,
    /// Stored values, parallel to `row_ind`, then one trailing slot
    /// that no factorization reads (see [`values_mut`](Self::values_mut)).
    values: Vec<T>,
}

impl<T: Scalar> SparseMatrix<T> {
    /// Builds an `n × n` matrix whose pattern is the set of `entries`
    /// (duplicates welcome — they collapse to one slot).
    ///
    /// # Panics
    ///
    /// Panics if any entry index is out of bounds.
    pub fn from_entries(n: usize, entries: &[(usize, usize)]) -> Self {
        let mut uniq: Vec<(u32, u32)> = entries
            .iter()
            .map(|&(r, c)| {
                assert!(r < n && c < n, "entry ({r}, {c}) out of bounds for n = {n}");
                (c as u32, r as u32)
            })
            .collect();
        uniq.sort_unstable();
        uniq.dedup();
        let nnz = uniq.len();
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_ind = Vec::with_capacity(nnz);
        for &(c, r) in &uniq {
            col_ptr[c as usize + 1] += 1;
            row_ind.push(r);
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        Self {
            n,
            col_ptr,
            row_ind,
            values: vec![T::ZERO; nnz + 1],
        }
    }

    /// Matrix dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.row_ind.len()
    }

    /// The value index of pattern position `(row, col)`: a binary search
    /// of column `col`, done once per position when a caller binds its
    /// stamps. `None` when the position is not in the pattern.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    pub fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let span = self.col_ptr[col]..self.col_ptr[col + 1];
        let row = u32::try_from(row).ok()?;
        let k = self.row_ind[span.clone()].binary_search(&row).ok()?;
        Some(span.start + k)
    }

    /// The stored values in pattern (CSC slot) order, then one trailing
    /// slot past the [`nnz`](Self::nnz) entries that no factorization
    /// reads: an MNA stamp whose row or column is ground is bound there,
    /// so stamping needs no ground test.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Column `j` as parallel `(rows, values)` slices.
    #[inline]
    fn col(&self, j: usize) -> (&[u32], &[T]) {
        let span = self.col_ptr[j]..self.col_ptr[j + 1];
        (&self.row_ind[span.clone()], &self.values[span])
    }

    /// Per-row maximum magnitude (for equilibration); rows with no
    /// entries report 0.0.
    fn row_max_abs(&self, out: &mut [f64]) {
        out.fill(0.0);
        for (slot, &r) in self.row_ind.iter().enumerate() {
            let v = self.values[slot].mag();
            if v > out[r as usize] {
                out[r as usize] = v;
            }
        }
    }
}

/// Deterministic minimum-degree ordering on the symmetrized pattern
/// `A + Aᵀ`.
///
/// This runs once per [`SparseLu::new`] but that is once per *analysis
/// workspace*, so it must stay cheap next to a handful of Newton
/// iterations: vertices are pulled from a lazily-repaired bucket queue
/// keyed by degree (stale entries are re-filed on pop), adjacency lives
/// in flat `Vec`s, and the elimination clique is formed with an
/// epoch-marked membership test instead of ordered sets. On the
/// near-banded MNA patterns this recovers a near-zero-fill order in
/// O(nnz) time.
fn min_degree_order(n: usize, entries: &[(usize, usize)]) -> Vec<u32> {
    // Symmetrized adjacency, deduplicated via an epoch mark.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut mark = vec![0u32; n];
    let mut epoch = 0u32;
    {
        // Bucket entries by row first so dedup marking works per-vertex.
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(2 * entries.len());
        for &(r, c) in entries {
            if r != c {
                pairs.push((r as u32, c as u32));
                pairs.push((c as u32, r as u32));
            }
        }
        pairs.sort_unstable();
        for &(v, w) in &pairs {
            let last_is_dup = adj[v as usize].last() == Some(&w);
            if !last_is_dup {
                adj[v as usize].push(w);
            }
        }
    }

    let mut degree: Vec<u32> = adj.iter().map(|a| a.len() as u32).collect();
    let mut eliminated = vec![false; n];
    // Bucket queue over degrees; entries go stale when a degree changes
    // and are re-filed when popped.
    let max_deg = degree.iter().copied().max().unwrap_or(0) as usize;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_deg + 1];
    // Push in reverse so equal-degree vertices pop lowest-index first.
    for v in (0..n).rev() {
        buckets[degree[v] as usize].push(v as u32);
    }
    let mut cursor = 0usize;

    let mut order = Vec::with_capacity(n);
    let mut neigh: Vec<u32> = Vec::new();
    while order.len() < n {
        // Pop the lowest-degree live vertex, re-filing stale entries.
        while cursor < buckets.len() && buckets[cursor].is_empty() {
            cursor += 1;
        }
        let v = buckets[cursor].pop().expect("a live vertex remains") as usize;
        if eliminated[v] {
            continue;
        }
        if degree[v] as usize != cursor {
            // Degree changed since filing; re-file at the true degree
            // (grow the bucket array if a clique pushed it past max).
            let d = degree[v] as usize;
            if d >= buckets.len() {
                buckets.resize(d + 1, Vec::new());
            }
            buckets[d].push(v as u32);
            cursor = cursor.min(d);
            continue;
        }
        eliminated[v] = true;
        order.push(v as u32);

        // Live neighbours of v.
        neigh.clear();
        neigh.extend(adj[v].iter().copied().filter(|&a| !eliminated[a as usize]));
        // Drop v from each neighbour's list, then connect the clique.
        for &a in &neigh {
            let list = &mut adj[a as usize];
            if let Some(pos) = list.iter().position(|&w| w == v as u32) {
                list.swap_remove(pos);
            }
        }
        for &a in &neigh {
            epoch += 1;
            mark[a as usize] = epoch;
            for &w in &adj[a as usize] {
                mark[w as usize] = epoch;
            }
            for &b in &neigh {
                if mark[b as usize] != epoch {
                    adj[a as usize].push(b);
                    adj[b as usize].push(a);
                }
            }
            // Recompute a's live degree and re-file it.
            let d = adj[a as usize]
                .iter()
                .filter(|&&w| !eliminated[w as usize])
                .count() as u32;
            if d != degree[a as usize] {
                degree[a as usize] = d;
                let d = d as usize;
                if d >= buckets.len() {
                    buckets.resize(d + 1, Vec::new());
                }
                buckets[d].push(a);
                cursor = cursor.min(d);
            }
        }
    }
    order
}

/// Sparse LU factorization of a [`SparseMatrix`] with a symbolic/numeric
/// split: the column ordering is fixed at construction, the first
/// [`factor`](Self::factor) call discovers the fill pattern and pivot
/// sequence, and [`refactor`](Self::refactor) replays the numeric work
/// on fresh values.
#[derive(Debug, Clone)]
pub struct SparseLu<T: Scalar = f64> {
    n: usize,
    /// Fill-reducing column elimination order: step `k` eliminates
    /// original column `q[k]`.
    q: Vec<u32>,
    // L in CSC over elimination steps, unit diagonal implicit, row
    // indices are *original* rows, sorted ascending.
    lp: Vec<usize>,
    li: Vec<u32>,
    lx: Vec<T>,
    // U in CSC over elimination steps, diagonal stored separately, row
    // indices are *pivot-order* indices, sorted ascending.
    up: Vec<usize>,
    ui: Vec<u32>,
    ux: Vec<T>,
    udiag: Vec<T>,
    /// Original row → pivot order.
    pinv: Vec<u32>,
    /// Pivot order → original row.
    prow: Vec<u32>,
    /// Row equilibration scales of the last (re)factorization.
    rs: Vec<f64>,
    /// Whether `factor` has populated the L/U pattern.
    factored: bool,
    // Workspaces (kept across calls to avoid reallocation).
    xw: Vec<T>,
    visited: Vec<bool>,
    topo: Vec<u32>,
    dfs_stack: Vec<(u32, usize)>,
    ucol_scratch: Vec<(u32, T)>,
    lcol_scratch: Vec<(u32, T)>,
    y_scratch: Vec<T>,
}

impl<T: Scalar> SparseLu<T> {
    /// Prepares a solver for `a`'s pattern: computes the fill-reducing
    /// column ordering (the symbolic step shared by every subsequent
    /// factorization) and sizes the workspaces.
    pub fn new(a: &SparseMatrix<T>) -> Self {
        let n = a.dim();
        let mut entries = Vec::with_capacity(a.nnz());
        for j in 0..n {
            let (rows, _) = a.col(j);
            for &r in rows {
                entries.push((r as usize, j));
            }
        }
        let q = min_degree_order(n, &entries);
        Self {
            n,
            q,
            lp: Vec::new(),
            li: Vec::new(),
            lx: Vec::new(),
            up: Vec::new(),
            ui: Vec::new(),
            ux: Vec::new(),
            udiag: vec![T::ZERO; n],
            pinv: vec![EMPTY; n],
            prow: vec![EMPTY; n],
            rs: vec![1.0; n],
            factored: false,
            xw: vec![T::ZERO; n],
            visited: vec![false; n],
            topo: Vec::with_capacity(n),
            dfs_stack: Vec::with_capacity(n),
            ucol_scratch: Vec::new(),
            lcol_scratch: Vec::new(),
            y_scratch: vec![T::ZERO; n],
        }
    }

    /// Whether a numeric factorization (and its cached pivot order) is
    /// available for [`refactor`](Self::refactor) / [`solve`](Self::solve).
    pub fn is_factored(&self) -> bool {
        self.factored
    }

    /// Recomputes the row-equilibration scales from `a`.
    fn equilibrate(&mut self, a: &SparseMatrix<T>) -> Result<(), SpiceError> {
        a.row_max_abs(&mut self.rs);
        for (r, s) in self.rs.iter_mut().enumerate() {
            if *s == 0.0 {
                return Err(SpiceError::SingularMatrix { row: r, pivot: 0.0 });
            }
            *s = 1.0 / *s;
        }
        Ok(())
    }

    /// Full numeric factorization with partial pivoting: discovers the
    /// L/U fill pattern and pivot sequence for `a`'s current values.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] when a column offers no
    /// pivot above the equilibrated tolerance; the reported `row` is the
    /// original unknown index of the failing column.
    ///
    /// # Panics
    ///
    /// Panics if `a`'s dimension differs from the one this solver was
    /// built for.
    pub fn factor(&mut self, a: &SparseMatrix<T>) -> Result<(), SpiceError> {
        assert_eq!(a.dim(), self.n, "matrix dimension changed");
        // The scatter workspace must be all-zero; an earlier replay (or
        // aborted factorization) may have left column values behind, so
        // re-zero it wholesale — O(n), invisible next to the numeric
        // work.
        self.xw.fill(T::ZERO);
        let n = self.n;
        self.equilibrate(a)?;
        self.factored = false;
        self.lp.clear();
        self.li.clear();
        self.lx.clear();
        self.up.clear();
        self.ui.clear();
        self.ux.clear();
        self.lp.push(0);
        self.up.push(0);
        self.pinv.fill(EMPTY);
        self.prow.fill(EMPTY);

        for k in 0..n {
            let j = self.q[k] as usize;
            // Symbolic: rows reachable from A(:, j) through the columns
            // of L factored so far, in topological order.
            self.reach(a, j);
            // Numeric: x = L \ (Dr · A(:, j)) on the reach set.
            let (arows, avals) = a.col(j);
            for (&r, &v) in arows.iter().zip(avals) {
                self.xw[r as usize] = v.scale(self.rs[r as usize]);
            }
            for t in (0..self.topo.len()).rev() {
                let i = self.topo[t] as usize;
                let pk = self.pinv[i];
                if pk == EMPTY {
                    continue;
                }
                let xi = self.xw[i];
                if xi != T::ZERO {
                    let span = self.lp[pk as usize]..self.lp[pk as usize + 1];
                    for s in span {
                        self.xw[self.li[s] as usize] -= self.lx[s] * xi;
                    }
                }
            }
            // Partial pivot over the not-yet-pivoted reach rows,
            // deterministic tie-break on the smallest row index.
            let mut pivot_row = EMPTY;
            let mut pivot_val = 0.0_f64;
            for &i in &self.topo {
                let i = i as usize;
                if self.pinv[i] == EMPTY {
                    let v = self.xw[i].mag();
                    if v > pivot_val || (v == pivot_val && (i as u32) < pivot_row) {
                        pivot_val = v;
                        pivot_row = i as u32;
                    }
                }
            }
            if pivot_row == EMPTY || pivot_val < SINGULAR_TOL {
                self.cleanup_column();
                return Err(SpiceError::SingularMatrix {
                    row: j,
                    pivot: pivot_val,
                });
            }
            let piv = self.xw[pivot_row as usize];
            self.pinv[pivot_row as usize] = k as u32;
            self.prow[k] = pivot_row;
            self.udiag[k] = piv;
            // Scatter the column into U (pivoted rows) and L (the rest),
            // each sorted ascending for deterministic, cache-friendly
            // replay in `refactor`.
            let mut ucol = std::mem::take(&mut self.ucol_scratch);
            let mut lcol = std::mem::take(&mut self.lcol_scratch);
            ucol.clear();
            lcol.clear();
            for &i in &self.topo {
                let i = i as usize;
                let pk = self.pinv[i];
                if i as u32 == pivot_row {
                    continue;
                }
                if pk != EMPTY && (pk as usize) < k {
                    ucol.push((pk, self.xw[i]));
                } else if pk == EMPTY {
                    lcol.push((i as u32, self.xw[i] / piv));
                }
            }
            ucol.sort_unstable_by_key(|&(r, _)| r);
            lcol.sort_unstable_by_key(|&(r, _)| r);
            for &(r, v) in &ucol {
                self.ui.push(r);
                self.ux.push(v);
            }
            for &(r, v) in &lcol {
                self.li.push(r);
                self.lx.push(v);
            }
            self.ucol_scratch = ucol;
            self.lcol_scratch = lcol;
            self.up.push(self.ui.len());
            self.lp.push(self.li.len());
            self.cleanup_column();
        }
        self.factored = true;
        Ok(())
    }

    /// Zeroes the workspace entries touched by the current column.
    fn cleanup_column(&mut self) {
        for t in 0..self.topo.len() {
            let i = self.topo[t] as usize;
            self.xw[i] = T::ZERO;
            self.visited[i] = false;
        }
        self.topo.clear();
    }

    /// Depth-first search from the rows of `A(:, j)` through factored L
    /// columns; leaves `self.topo` holding the reach in reverse
    /// topological order (process back-to-front).
    fn reach(&mut self, a: &SparseMatrix<T>, j: usize) {
        let (arows, _) = a.col(j);
        for &r in arows {
            if self.visited[r as usize] {
                continue;
            }
            // Iterative DFS with an explicit (node, next child) stack.
            self.dfs_stack.push((r, 0));
            self.visited[r as usize] = true;
            while let Some(&mut (node, ref mut child)) = self.dfs_stack.last_mut() {
                let pk = self.pinv[node as usize];
                let span = if pk == EMPTY {
                    0..0
                } else {
                    self.lp[pk as usize]..self.lp[pk as usize + 1]
                };
                let mut descended = false;
                while span.start + *child < span.end {
                    let next = self.li[span.start + *child];
                    *child += 1;
                    if !self.visited[next as usize] {
                        self.visited[next as usize] = true;
                        self.dfs_stack.push((next, 0));
                        descended = true;
                        break;
                    }
                }
                if !descended {
                    self.dfs_stack.pop();
                    self.topo.push(node);
                }
            }
        }
    }

    /// Numeric refactorization on fresh values in `a`, reusing the L/U
    /// pattern and pivot sequence cached by the last
    /// [`factor`](Self::factor). Falls back to a full pivoting
    /// factorization when a cached pivot has decayed relative to its
    /// column, so stability matches the full path; the returned
    /// [`Refactor`] says which of the two happened.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] as [`factor`](Self::factor)
    /// does.
    pub fn refactor(&mut self, a: &SparseMatrix<T>) -> Result<Refactor, SpiceError> {
        if !self.factored {
            self.factor(a)?;
            return Ok(Refactor::Repivoted);
        }
        assert_eq!(a.dim(), self.n, "matrix dimension changed");
        self.equilibrate(a)?;
        if self.replay(a) {
            // A cached pivot went stale (or collapsed outright): redo a
            // full pivoting factorization, which re-zeroes the scatter
            // workspace the aborted replay dirtied and re-derives
            // singularity reports.
            self.factor(a)?;
            return Ok(Refactor::Repivoted);
        }
        Ok(Refactor::Replayed)
    }

    /// Replays the cached numeric updates on `a`'s fresh values.
    /// Returns `true` when a cached pivot fails the growth (or
    /// singularity) check, i.e. a full re-pivoting pass is needed.
    fn replay(&mut self, a: &SparseMatrix<T>) -> bool {
        let n = self.n;
        let SparseLu {
            q,
            lp,
            li,
            lx,
            up,
            ui,
            ux,
            udiag,
            prow,
            rs,
            xw,
            ..
        } = self;
        for k in 0..n {
            let j = q[k] as usize;
            // Scatter Dr·A(:, j) over the cached column pattern.
            let lspan = lp[k]..lp[k + 1];
            let uspan = up[k]..up[k + 1];
            for &i in &li[lspan.clone()] {
                xw[i as usize] = T::ZERO;
            }
            for &t in &ui[uspan.clone()] {
                xw[prow[t as usize] as usize] = T::ZERO;
            }
            xw[prow[k] as usize] = T::ZERO;
            let (arows, avals) = a.col(j);
            for (&r, &v) in arows.iter().zip(avals) {
                xw[r as usize] = v.scale(rs[r as usize]);
            }
            // Apply earlier columns in ascending pivot order (a valid
            // elimination order because U is upper triangular in pivot
            // coordinates).
            for (&t, u_val) in ui[uspan.clone()].iter().zip(&mut ux[uspan.clone()]) {
                let t = t as usize;
                let xi = xw[prow[t] as usize];
                *u_val = xi;
                if xi != T::ZERO {
                    let span = lp[t]..lp[t + 1];
                    for (&i, &l) in li[span.clone()].iter().zip(&lx[span]) {
                        xw[i as usize] -= l * xi;
                    }
                }
            }
            let piv = xw[prow[k] as usize];
            // Pivot-growth check against the best alternative in this
            // column; stale pivots trigger a full re-pivot.
            let mut col_max = piv.mag();
            for &i in &li[lspan.clone()] {
                col_max = col_max.max(xw[i as usize].mag());
            }
            if piv.mag() < SINGULAR_TOL || piv.mag() < REFACTOR_PIVOT_RATIO * col_max {
                return true;
            }
            udiag[k] = piv;
            for (&i, l) in li[lspan.clone()].iter().zip(&mut lx[lspan]) {
                *l = xw[i as usize] / piv;
            }
        }
        false
    }

    /// Solves `A·x = b` using the current factors, overwriting `b` with
    /// the solution.
    ///
    /// # Panics
    ///
    /// Panics if no factorization is available or `b` has the wrong
    /// length.
    pub fn solve(&mut self, b: &mut [T]) {
        assert!(self.factored, "solve called before factor");
        assert_eq!(b.len(), self.n, "rhs length must equal matrix dimension");
        let n = self.n;
        // y in pivot order, starting from the equilibrated RHS.
        let mut y = std::mem::take(&mut self.y_scratch);
        for (yk, &pr) in y.iter_mut().zip(self.prow.iter()).take(n) {
            let r = pr as usize;
            *yk = b[r].scale(self.rs[r]);
        }
        // Forward: L is unit lower triangular in pivot order; column k
        // only touches rows pivoted later.
        for k in 0..n {
            let yk = y[k];
            if yk != T::ZERO {
                let span = self.lp[k]..self.lp[k + 1];
                for (&i, &l) in self.li[span.clone()].iter().zip(&self.lx[span]) {
                    y[self.pinv[i as usize] as usize] -= l * yk;
                }
            }
        }
        // Backward: U in pivot coordinates, diagonal stored separately.
        for k in (0..n).rev() {
            let zk = y[k] / self.udiag[k];
            y[k] = zk;
            if zk != T::ZERO {
                let span = self.up[k]..self.up[k + 1];
                for (&i, &u) in self.ui[span.clone()].iter().zip(&self.ux[span]) {
                    y[i as usize] -= u * zk;
                }
            }
        }
        // Undo the column permutation.
        for k in 0..n {
            b[self.q[k] as usize] = y[k];
        }
        self.y_scratch = y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::DenseMatrix;

    fn dense_from(n: usize, entries: &[(usize, usize, f64)]) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(n);
        for &(r, c, v) in entries {
            a.add(r, c, v);
        }
        a
    }

    /// Adds `v` at pattern position `(r, c)` through its bound slot.
    pub(super) fn add(a: &mut SparseMatrix, r: usize, c: usize, v: f64) {
        let slot = a.slot(r, c).expect("position in the pattern");
        a.values_mut()[slot] += v;
    }

    fn sparse_from(n: usize, entries: &[(usize, usize, f64)]) -> SparseMatrix {
        let pat: Vec<(usize, usize)> = entries.iter().map(|&(r, c, _)| (r, c)).collect();
        let mut a = SparseMatrix::from_entries(n, &pat);
        for &(r, c, v) in entries {
            add(&mut a, r, c, v);
        }
        a
    }

    #[test]
    fn solves_identity() {
        let entries = [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)];
        let a = sparse_from(3, &entries);
        let mut lu = SparseLu::new(&a);
        lu.factor(&a).unwrap();
        let mut b = vec![1.0, 2.0, 3.0];
        lu.solve(&mut b);
        assert_eq!(b, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matches_dense_on_small_system() {
        let entries = [
            (0, 0, 2.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 3.0),
            (1, 2, -1.0),
            (2, 1, -1.0),
            (2, 2, 4.0),
        ];
        let a = sparse_from(3, &entries);
        let mut lu = SparseLu::new(&a);
        lu.factor(&a).unwrap();
        let mut xs = vec![1.0, -2.0, 0.5];
        lu.solve(&mut xs);
        let mut d = dense_from(3, &entries);
        let mut xd = vec![1.0, -2.0, 0.5];
        d.solve_in_place(&mut xd).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-12, "{xs:?} vs {xd:?}");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 1; 1 0] — fails without row pivoting.
        let entries = [(0, 1, 1.0), (1, 0, 1.0)];
        let a = sparse_from(2, &entries);
        let mut lu = SparseLu::new(&a);
        lu.factor(&a).unwrap();
        let mut b = vec![2.0, 3.0];
        lu.solve(&mut b);
        assert!((b[0] - 3.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mna_shaped_source_row_is_handled() {
        // Voltage source + two resistors: the branch row/column has a
        // structurally zero diagonal, the classic MNA hazard.
        // Unknowns: v0, v1, i_src.  v0 = 1 V via the source row.
        let g = 1e-3;
        let entries = [
            (0, 0, g),
            (0, 1, -g),
            (1, 0, -g),
            (1, 1, 2.0 * g),
            (0, 2, 1.0),
            (2, 0, 1.0),
        ];
        let a = sparse_from(3, &entries);
        let mut lu = SparseLu::new(&a);
        lu.factor(&a).unwrap();
        let mut b = vec![0.0, 0.0, 1.0];
        lu.solve(&mut b);
        assert!((b[0] - 1.0).abs() < 1e-12, "v0 pinned by source: {b:?}");
        assert!((b[1] - 0.5).abs() < 1e-12, "divider midpoint: {b:?}");
    }

    #[test]
    fn refactor_tracks_new_values() {
        let pat = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)];
        let mut a = SparseMatrix::from_entries(3, &pat);
        let fill = |a: &mut SparseMatrix, scale: f64| {
            a.values_mut().fill(0.0);
            add(a, 0, 0, 4.0 * scale);
            add(a, 0, 1, 1.0);
            add(a, 1, 0, 1.0);
            add(a, 1, 1, 5.0 * scale);
            add(a, 1, 2, -2.0);
            add(a, 2, 1, -2.0);
            add(a, 2, 2, 6.0 * scale);
        };
        fill(&mut a, 1.0);
        let mut lu = SparseLu::new(&a);
        lu.factor(&a).unwrap();
        for scale in [2.0, 0.5, 10.0] {
            fill(&mut a, scale);
            assert_eq!(lu.refactor(&a).unwrap(), Refactor::Replayed);
            let mut x = vec![1.0, 2.0, 3.0];
            lu.solve(&mut x);
            let mut d = DenseMatrix::zeros(3);
            d.add(0, 0, 4.0 * scale);
            d.add(0, 1, 1.0);
            d.add(1, 0, 1.0);
            d.add(1, 1, 5.0 * scale);
            d.add(1, 2, -2.0);
            d.add(2, 1, -2.0);
            d.add(2, 2, 6.0 * scale);
            let mut xd = vec![1.0, 2.0, 3.0];
            d.solve_in_place(&mut xd).unwrap();
            for (s, dd) in x.iter().zip(&xd) {
                assert!((s - dd).abs() < 1e-12, "scale {scale}: {x:?} vs {xd:?}");
            }
        }
    }

    #[test]
    fn refactor_survives_pivot_order_going_stale() {
        // First factorization pivots on the large diagonal; the new
        // values invert the dominance so the cached pivots are stale and
        // the growth check must re-pivot instead of losing accuracy.
        let pat = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let mut a = SparseMatrix::from_entries(2, &pat);
        add(&mut a, 0, 0, 1e6);
        add(&mut a, 0, 1, 1.0);
        add(&mut a, 1, 0, 1.0);
        add(&mut a, 1, 1, 1e6);
        let mut lu = SparseLu::new(&a);
        lu.factor(&a).unwrap();
        a.values_mut().fill(0.0);
        add(&mut a, 0, 0, 1e-9);
        add(&mut a, 0, 1, 1.0);
        add(&mut a, 1, 0, 1.0);
        add(&mut a, 1, 1, 1e-9);
        assert_eq!(lu.refactor(&a).unwrap(), Refactor::Repivoted);
        // x solves [1e-9 1; 1 1e-9]·x = [1; 2] → x ≈ [2, 1].
        let mut b = vec![1.0, 2.0];
        lu.solve(&mut b);
        assert!((b[0] - 2.0).abs() < 1e-6, "{b:?}");
        assert!((b[1] - 1.0).abs() < 1e-6, "{b:?}");
    }

    #[test]
    fn detects_singularity_with_pivot_report() {
        let entries = [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)];
        let a = sparse_from(2, &entries);
        let mut lu = SparseLu::new(&a);
        let err = lu.factor(&a).unwrap_err();
        assert!(
            matches!(err, SpiceError::SingularMatrix { pivot, .. } if pivot < 1e-13),
            "{err:?}"
        );
    }

    #[test]
    fn empty_row_is_singular() {
        let entries = [(0, 0, 1.0)];
        let a = sparse_from(2, &entries);
        let mut lu = SparseLu::new(&a);
        assert_eq!(
            lu.factor(&a).unwrap_err(),
            SpiceError::SingularMatrix { row: 1, pivot: 0.0 }
        );
    }

    #[test]
    fn stamps_accumulate_and_clear() {
        let mut a = SparseMatrix::from_entries(2, &[(0, 0), (1, 1), (0, 0)]);
        assert_eq!(a.nnz(), 2, "duplicate pattern entries collapse");
        add(&mut a, 0, 0, 1.0);
        add(&mut a, 0, 0, 2.5);
        let (_, vals) = a.col(0);
        assert_eq!(vals[0], 3.5);
        a.values_mut().fill(0.0);
        let (_, vals) = a.col(0);
        assert_eq!(vals[0], 0.0);
    }

    #[test]
    fn off_pattern_positions_bind_to_no_slot() {
        let mut a = SparseMatrix::<f64>::from_entries(3, &[(0, 0), (2, 0), (1, 1), (0, 2)]);
        // CSC order: column 0 holds rows 0 and 2, then column 1, then 2.
        assert_eq!(a.slot(0, 0), Some(0));
        assert_eq!(a.slot(2, 0), Some(1));
        assert_eq!(a.slot(1, 1), Some(2));
        assert_eq!(a.slot(0, 2), Some(3));
        assert_eq!(a.slot(1, 0), None);
        assert_eq!(a.slot(2, 2), None);
        assert_eq!(a.slot(7, 1), None, "row out of bounds");
        assert_eq!(
            a.values_mut().len(),
            a.nnz() + 1,
            "one trailing slot for stamps on ground"
        );
    }

    #[test]
    fn min_degree_orders_a_star_center_last() {
        // Star graph: the hub has degree 4, the leaves 1 — min-degree
        // must not pick the hub while real leaves remain (eliminating
        // it first would form a clique on all leaves).
        let entries: Vec<(usize, usize)> = (1..5).flat_map(|k| [(0, k), (k, 0)]).collect();
        let order = min_degree_order(5, &entries);
        assert!(
            !order[..3].contains(&0),
            "hub eliminated too early: {order:?}"
        );
    }

    #[test]
    fn tridiagonal_ladder_has_no_fill() {
        // A 1D chain in natural order: min-degree keeps it banded and
        // GP produces exactly two entries per L/U column.
        let n = 50;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, 4.0));
            if i + 1 < n {
                entries.push((i, i + 1, -1.0));
                entries.push((i + 1, i, -1.0));
            }
        }
        let a = sparse_from(n, &entries);
        let mut lu = SparseLu::new(&a);
        lu.factor(&a).unwrap();
        assert!(
            lu.lx.len() <= n && lu.ux.len() <= n,
            "fill-free: |L| = {}, |U| = {}",
            lu.lx.len(),
            lu.ux.len()
        );
        // And it solves correctly: plant x = 1..n.
        let x_true: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
        let mut b = vec![0.0; n];
        for &(r, c, v) in &entries {
            b[r] += v * x_true[c];
        }
        lu.solve(&mut b);
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::add;
    use super::*;
    use crate::linalg::DenseMatrix;
    use carbon_runtime::prop::prelude::*;

    proptest! {
        /// Sparse and dense solvers agree to 1e-12 on random diagonally
        /// dominant systems with random sparsity.
        #[test]
        fn sparse_agrees_with_dense(
            n in 2usize..16,
            seed in carbon_runtime::prop::vec(-1.0_f64..1.0, 16 * 16 + 16),
            keep in carbon_runtime::prop::vec(0.0_f64..1.0, 16 * 16),
        ) {
            let mut entries: Vec<(usize, usize, f64)> = Vec::new();
            let mut row_sum = vec![0.0; n];
            for (r, rs) in row_sum.iter_mut().enumerate() {
                for c in 0..n {
                    if r != c && keep[r * 16 + c] < 0.4 {
                        let v = seed[r * 16 + c];
                        entries.push((r, c, v));
                        *rs += v.abs();
                    }
                }
            }
            for (r, &rs) in row_sum.iter().enumerate() {
                entries.push((r, r, rs + 1.0));
            }
            let mut dense = DenseMatrix::zeros(n);
            let pat: Vec<(usize, usize)> = entries.iter().map(|&(r, c, _)| (r, c)).collect();
            let mut sparse = SparseMatrix::from_entries(n, &pat);
            for &(r, c, v) in &entries {
                dense.add(r, c, v);
                add(&mut sparse, r, c, v);
            }
            let b: Vec<f64> = (0..n).map(|i| seed[16 * 16 + i]).collect();
            let mut xd = b.clone();
            dense.solve_in_place(&mut xd).unwrap();
            let mut lu = SparseLu::new(&sparse);
            lu.factor(&sparse).unwrap();
            let mut xs = b;
            lu.solve(&mut xs);
            for i in 0..n {
                prop_assert!(
                    (xs[i] - xd[i]).abs() < 1e-12,
                    "x[{}]: sparse {} vs dense {}", i, xs[i], xd[i]
                );
            }
        }

        /// Refactorization after a value change matches a from-scratch
        /// dense solve to 1e-12.
        #[test]
        fn refactor_agrees_with_dense(
            n in 2usize..12,
            seed in carbon_runtime::prop::vec(-1.0_f64..1.0, 3 * 12),
            scale in 0.1_f64..10.0,
        ) {
            // Tridiagonal, diagonally dominant pattern; off-diagonals
            // stay fixed while the diagonal is rescaled between
            // factor() and refactor().
            let mut pat: Vec<(usize, usize)> = Vec::new();
            for r in 0..n {
                pat.push((r, r));
                if r + 1 < n {
                    pat.push((r, r + 1));
                    pat.push((r + 1, r));
                }
            }
            let value = |r: usize, c: usize, s: f64| -> f64 {
                if r == c { 3.0 * s } else { seed[(r + 2 * c) % seed.len()] }
            };
            let mut sparse = SparseMatrix::from_entries(n, &pat);
            for &(r, c) in &pat {
                add(&mut sparse, r, c, value(r, c, 1.0));
            }
            let mut lu = SparseLu::new(&sparse);
            lu.factor(&sparse).unwrap();
            // Change values, refactor, compare against dense.
            sparse.values_mut().fill(0.0);
            let mut dense = DenseMatrix::zeros(n);
            for &(r, c) in &pat {
                add(&mut sparse, r, c, value(r, c, scale));
                dense.add(r, c, value(r, c, scale));
            }
            lu.refactor(&sparse).unwrap();
            let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
            let mut xd = b.clone();
            dense.solve_in_place(&mut xd).unwrap();
            let mut xs = b;
            lu.solve(&mut xs);
            for i in 0..n {
                prop_assert!(
                    (xs[i] - xd[i]).abs() < 1e-12,
                    "x[{}]: sparse {} vs dense {}", i, xs[i], xd[i]
                );
            }
        }
    }
}
