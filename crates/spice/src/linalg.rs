//! Dense linear algebra for the MNA system: an `n × n` matrix with LU
//! factorization and partial pivoting, generic over the [`Scalar`] of
//! the system — `f64` for DC/transient Newton steps,
//! [`Complex`](crate::complex::Complex) for AC sweeps.
//!
//! The dense solver is the workhorse for small circuits (an inverter is
//! 4 unknowns) and the reference oracle for the sparse path in
//! [`sparse`](crate::sparse), which takes over for larger systems where
//! the O(n³) factorization dominates; the `solver` bench tracks both so
//! the crossover stays visible.
//!
//! Gaussian elimination is written index-based on purpose; the
//! iterator forms clippy suggests obscure the row/column structure.
#![allow(clippy::needless_range_loop)]

use crate::error::SpiceError;
use crate::sparse::Scalar;

/// The MNA *stamp* sink: anything element stamps can accumulate into.
///
/// Implemented by [`DenseMatrix`] and
/// [`SparseMatrix`](crate::sparse::SparseMatrix) so the element-stamping
/// code is written once and works against either backend.
pub trait Stamp<S = f64> {
    /// Adds `value` to entry `(row, col)`.
    fn add(&mut self, row: usize, col: usize, value: S);
}

impl<S: Scalar> Stamp<S> for DenseMatrix<S> {
    #[inline]
    fn add(&mut self, row: usize, col: usize, value: S) {
        DenseMatrix::add(self, row, col, value);
    }
}

/// A dense square matrix stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<S: Scalar = f64> {
    n: usize,
    data: Vec<S>,
}

impl<S: Scalar> DenseMatrix<S> {
    /// Creates a zeroed `n × n` matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![S::ZERO; n * n],
        }
    }

    /// Matrix dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Reads entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> S {
        assert!(
            row < self.n && col < self.n,
            "index ({row}, {col}) out of bounds"
        );
        self.data[row * self.n + col]
    }

    /// Adds `value` to entry `(row, col)` — the MNA *stamp* operation.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: S) {
        assert!(
            row < self.n && col < self.n,
            "index ({row}, {col}) out of bounds"
        );
        self.data[row * self.n + col] += value;
    }

    /// Resets all entries to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(S::ZERO);
    }

    /// The entries in row-major order — pairs with
    /// [`set_values`](Self::set_values), as on
    /// [`SparseMatrix`](crate::sparse::SparseMatrix::values).
    #[inline]
    pub fn values(&self) -> &[S] {
        &self.data
    }

    /// Overwrites every entry (row-major) — the restore half of
    /// [`values`](Self::values).
    ///
    /// # Panics
    ///
    /// Panics if `vals` does not have exactly `n²` entries.
    pub fn set_values(&mut self, vals: &[S]) {
        self.data.copy_from_slice(vals);
    }

    /// Solves `A·x = b` in place by LU factorization with partial
    /// pivoting, destroying `self` and overwriting `b` with the solution.
    ///
    /// Rows are equilibrated (scaled to unit max-norm) first: MNA
    /// matrices legitimately span many decades between conductance and
    /// source rows, and equilibration keeps the singularity test
    /// meaningful. Magnitudes are [`Scalar::mag`], and the scale
    /// multiplies as `v * S::from(inv)`: for phasors a full complex
    /// product, which can differ from [`Scalar::scale`] in the sign of a
    /// zero part.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] when a pivot of the
    /// equilibrated matrix falls below `1e-13`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve_in_place(&mut self, b: &mut [S]) -> Result<(), SpiceError> {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length must equal matrix dimension");
        if n == 0 {
            return Ok(());
        }
        // Row equilibration.
        for r in 0..n {
            let row_max = self.data[r * n..(r + 1) * n]
                .iter()
                .fold(0.0_f64, |m, v| m.max(v.mag()));
            if row_max == 0.0 {
                return Err(SpiceError::SingularMatrix { row: r, pivot: 0.0 });
            }
            let inv = S::from(1.0 / row_max);
            for v in &mut self.data[r * n..(r + 1) * n] {
                *v = *v * inv;
            }
            b[r] = b[r] * inv;
        }
        let tol = 1e-13;
        for k in 0..n {
            // Partial pivot: largest |entry| in column k at/below row k.
            let mut pivot_row = k;
            let mut pivot_val = self.data[k * n + k].mag();
            for r in (k + 1)..n {
                let v = self.data[r * n + k].mag();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < tol {
                return Err(SpiceError::SingularMatrix {
                    row: k,
                    pivot: pivot_val,
                });
            }
            if pivot_row != k {
                for c in 0..n {
                    self.data.swap(k * n + c, pivot_row * n + c);
                }
                b.swap(k, pivot_row);
            }
            let pivot = self.data[k * n + k];
            for r in (k + 1)..n {
                let factor = self.data[r * n + k] / pivot;
                if factor == S::ZERO {
                    continue;
                }
                self.data[r * n + k] = S::ZERO;
                for c in (k + 1)..n {
                    let sub = factor * self.data[k * n + c];
                    self.data[r * n + c] -= sub;
                }
                let sub = factor * b[k];
                b[r] -= sub;
            }
        }
        // Back substitution.
        for k in (0..n).rev() {
            let mut sum = b[k];
            for c in (k + 1)..n {
                let sub = self.data[k * n + c] * b[c];
                sum -= sub;
            }
            b[k] = sum / self.data[k * n + k];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let mut a = DenseMatrix::zeros(3);
        for i in 0..3 {
            a.add(i, i, 1.0);
        }
        let mut b = vec![1.0, 2.0, 3.0];
        a.solve_in_place(&mut b).unwrap();
        assert_eq!(b, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_known_system() {
        // [2 1; 1 3]·x = [3; 5] → x = [4/5, 7/5].
        let mut a = DenseMatrix::zeros(2);
        a.add(0, 0, 2.0);
        a.add(0, 1, 1.0);
        a.add(1, 0, 1.0);
        a.add(1, 1, 3.0);
        let mut b = vec![3.0, 5.0];
        a.solve_in_place(&mut b).unwrap();
        assert!((b[0] - 0.8).abs() < 1e-12);
        assert!((b[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 1; 1 0]·x = [2; 3] → x = [3, 2]; fails without pivoting.
        let mut a = DenseMatrix::zeros(2);
        a.add(0, 1, 1.0);
        a.add(1, 0, 1.0);
        let mut b = vec![2.0, 3.0];
        a.solve_in_place(&mut b).unwrap();
        assert!((b[0] - 3.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singularity() {
        let mut a = DenseMatrix::zeros(2);
        a.add(0, 0, 1.0);
        a.add(0, 1, 2.0);
        a.add(1, 0, 2.0);
        a.add(1, 1, 4.0);
        let mut b = vec![1.0, 2.0];
        assert!(matches!(
            a.solve_in_place(&mut b),
            Err(SpiceError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn singularity_error_reports_pivot_index_and_magnitude() {
        // Rank-1 matrix: elimination of row 0 leaves row 1 with no pivot.
        let mut a = DenseMatrix::zeros(2);
        a.add(0, 0, 1.0);
        a.add(0, 1, 2.0);
        a.add(1, 0, 2.0);
        a.add(1, 1, 4.0);
        let mut b = vec![1.0, 2.0];
        let err = a.solve_in_place(&mut b).unwrap_err();
        let SpiceError::SingularMatrix { row, pivot } = err else {
            panic!("expected SingularMatrix, got {err:?}");
        };
        assert_eq!(row, 1, "elimination fails at the second pivot");
        assert!(pivot < 1e-13, "pivot magnitude reported: {pivot}");
        let msg = SpiceError::SingularMatrix { row, pivot }.to_string();
        assert!(msg.contains("row 1"), "{msg}");
        assert!(msg.contains("pivot"), "{msg}");
    }

    #[test]
    fn empty_row_reports_zero_pivot() {
        let mut a = DenseMatrix::zeros(2);
        a.add(0, 0, 1.0);
        let mut b = vec![1.0, 1.0];
        let err = a.solve_in_place(&mut b).unwrap_err();
        assert_eq!(err, SpiceError::SingularMatrix { row: 1, pivot: 0.0 });
    }

    #[test]
    fn stamps_accumulate() {
        let mut a = DenseMatrix::zeros(1);
        a.add(0, 0, 1.0);
        a.add(0, 0, 2.5);
        assert_eq!(a.get(0, 0), 3.5);
        a.clear();
        assert_eq!(a.get(0, 0), 0.0);
    }

    #[test]
    fn empty_system_is_trivially_solved() {
        let mut a = DenseMatrix::zeros(0);
        let mut b: Vec<f64> = vec![];
        a.solve_in_place(&mut b).unwrap();
    }

    #[test]
    fn badly_scaled_but_regular_system_is_solved() {
        // Conductance stamps span many decades in real circuits.
        let mut a = DenseMatrix::zeros(2);
        a.add(0, 0, 1e9);
        a.add(0, 1, -1.0);
        a.add(1, 0, -1.0);
        a.add(1, 1, 1e-6);
        let x0 = 1.5e-9;
        let x1 = 2.5;
        let mut b = vec![1e9 * x0 - x1, -x0 + 1e-6 * x1];
        a.solve_in_place(&mut b).unwrap();
        assert!((b[0] - x0).abs() < 1e-15);
        assert!((b[1] - x1).abs() < 1e-6);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use carbon_runtime::prop::prelude::*;

    proptest! {
        /// Diagonally dominant random systems are well-posed; the solver
        /// must reproduce a planted solution.
        #[test]
        fn recovers_planted_solution(
            n in 1usize..12,
            seed in carbon_runtime::prop::vec(-1.0_f64..1.0, 144 + 12),
        ) {
            let mut a = DenseMatrix::zeros(n);
            for r in 0..n {
                let mut row_sum = 0.0;
                for c in 0..n {
                    let v = seed[r * 12 + c];
                    if r != c {
                        a.add(r, c, v);
                        row_sum += v.abs();
                    }
                }
                a.add(r, r, row_sum + 1.0);
            }
            let x: Vec<f64> = (0..n).map(|i| seed[144 + i]).collect();
            let mut b = vec![0.0; n];
            for r in 0..n {
                for c in 0..n {
                    b[r] += a.get(r, c) * x[c];
                }
            }
            a.solve_in_place(&mut b).unwrap();
            for i in 0..n {
                prop_assert!((b[i] - x[i]).abs() < 1e-8, "x[{}] = {} vs {}", i, b[i], x[i]);
            }
        }
    }
}
