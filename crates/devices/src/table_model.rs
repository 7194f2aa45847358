//! Grid-sampled table models: evaluate an expensive compact model once
//! on a bias grid, then serve lookups by bilinear interpolation.
//!
//! The self-consistent ballistic solver costs a root-find with nested
//! quadrature per bias point — fine for I-V sweeps, wasteful inside a
//! transient simulation that calls `ids` hundreds of thousands of
//! times. [`TableFet`] is the standard SPICE answer (a table model):
//! sample once, interpolate forever. Accuracy is set by the grid pitch;
//! the tests bound the interpolation error against the live model.

use std::sync::Arc;

use carbon_units::Length;

use crate::{Fet, Polarity};

/// A FET compact model tabulated on a uniform `(V_GS, V_DS)` grid.
#[derive(Clone)]
pub struct TableFet {
    vgs_lo: f64,
    vgs_hi: f64,
    vds_lo: f64,
    vds_hi: f64,
    n_vgs: usize,
    n_vds: usize,
    /// Row-major `[i_vgs][i_vds]` samples.
    data: Arc<Vec<f64>>,
    polarity: Polarity,
    width: Option<Length>,
}

impl std::fmt::Debug for TableFet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableFet")
            .field("vgs", &(self.vgs_lo, self.vgs_hi, self.n_vgs))
            .field("vds", &(self.vds_lo, self.vds_hi, self.n_vds))
            .finish()
    }
}

/// Error building a [`TableFet`] from an invalid grid.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildTableError(String);

impl std::fmt::Display for BuildTableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid table model grid: {}", self.0)
    }
}

impl std::error::Error for BuildTableError {}

impl TableFet {
    /// Tabulates `inner` on an `n_vgs × n_vds` grid spanning the given
    /// bias windows.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTableError`] for degenerate windows or grids with
    /// fewer than 4 points per axis.
    pub fn sample(
        inner: &dyn Fet,
        vgs_window: (f64, f64),
        vds_window: (f64, f64),
        n_vgs: usize,
        n_vds: usize,
    ) -> Result<Self, BuildTableError> {
        let (vgs_lo, vgs_hi) = vgs_window;
        let (vds_lo, vds_hi) = vds_window;
        if !(vgs_hi > vgs_lo && vds_hi > vds_lo) {
            return Err(BuildTableError(format!(
                "windows must be non-degenerate, got vgs {vgs_lo}..{vgs_hi}, vds {vds_lo}..{vds_hi}"
            )));
        }
        if n_vgs < 4 || n_vds < 4 {
            return Err(BuildTableError(format!(
                "need at least 4 grid points per axis, got {n_vgs}×{n_vds}"
            )));
        }
        // Each grid row is an independent run of (often expensive)
        // model evaluations, so rows fan out on the runtime executor;
        // every point is one pure scalar `ids` call.
        let rows = carbon_runtime::Executor::new().par_map(n_vgs, |i| {
            let vgs = vgs_lo + (vgs_hi - vgs_lo) * i as f64 / (n_vgs - 1) as f64;
            (0..n_vds)
                .map(|j| {
                    let vds = vds_lo + (vds_hi - vds_lo) * j as f64 / (n_vds - 1) as f64;
                    inner.ids(vgs, vds)
                })
                .collect::<Vec<_>>()
        });
        let data = rows.concat();
        Ok(Self {
            vgs_lo,
            vgs_hi,
            vds_lo,
            vds_hi,
            n_vgs,
            n_vds,
            data: Arc::new(data),
            polarity: inner.polarity(),
            width: inner.width(),
        })
    }

    /// The clamp/index geometry of the grid.
    #[inline]
    fn hoisted_geometry(&self) -> HoistedGeometry {
        HoistedGeometry {
            vgs_lo: self.vgs_lo,
            vds_lo: self.vds_lo,
            wx: self.vgs_hi - self.vgs_lo,
            wy: self.vds_hi - self.vds_lo,
            gx: (self.n_vgs - 1) as f64,
            gy: (self.n_vds - 1) as f64,
            i_max: self.n_vgs - 2,
            j_max: self.n_vds - 2,
            n_vds: self.n_vds,
        }
    }
}

impl carbon_spice::FetCurve for TableFet {
    fn ids(&self, vgs: f64, vds: f64) -> f64 {
        self.hoisted_geometry().lookup(&self.data, vgs, vds)
    }
}

/// The clamp/index geometry of a [`TableFet`] grid.
#[derive(Clone, Copy)]
struct HoistedGeometry {
    vgs_lo: f64,
    vds_lo: f64,
    wx: f64,
    wy: f64,
    gx: f64,
    gy: f64,
    i_max: usize,
    j_max: usize,
    n_vds: usize,
}

impl HoistedGeometry {
    /// The table's one bilinear interpolation, behind
    /// [`TableFet`]'s `ids`. Biases are clamped into the sampled window
    /// (flat extrapolation — circuits excursion slightly past the rails
    /// during Newton iterations).
    #[inline]
    fn lookup(&self, data: &[f64], vgs: f64, vds: f64) -> f64 {
        let x = ((vgs - self.vgs_lo) / self.wx * self.gx).clamp(0.0, self.gx);
        let y = ((vds - self.vds_lo) / self.wy * self.gy).clamp(0.0, self.gy);
        let i0 = (x.floor() as usize).min(self.i_max);
        let j0 = (y.floor() as usize).min(self.j_max);
        let fx = x - i0 as f64;
        let fy = y - j0 as f64;
        let at = |i: usize, j: usize| data[i * self.n_vds + j];
        at(i0, j0) * (1.0 - fx) * (1.0 - fy)
            + at(i0 + 1, j0) * fx * (1.0 - fy)
            + at(i0, j0 + 1) * (1.0 - fx) * fy
            + at(i0 + 1, j0 + 1) * fx * fy
    }
}

impl Fet for TableFet {
    fn polarity(&self) -> Polarity {
        self.polarity
    }

    fn width(&self) -> Option<Length> {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{par_ids, AlphaPowerFet, BallisticFet};
    use carbon_spice::FetCurve;

    #[test]
    fn interpolates_alpha_power_closely() {
        let inner = AlphaPowerFet::fig2_nfet();
        let table = TableFet::sample(&inner, (-0.2, 1.2), (-0.2, 1.2), 71, 71).unwrap();
        for vg in [0.0, 0.33, 0.61, 0.97] {
            for vd in [0.05, 0.4, 0.77, 1.1] {
                let exact = inner.ids(vg, vd);
                let approx = table.ids(vg, vd);
                let tol = 0.03 * exact.abs().max(1e-6);
                assert!(
                    (exact - approx).abs() < tol,
                    "({vg}, {vd}): {exact:.4e} vs {approx:.4e}"
                );
            }
        }
    }

    #[test]
    fn matches_exactly_on_grid_nodes() {
        let inner = AlphaPowerFet::fig2_nfet();
        let table = TableFet::sample(&inner, (0.0, 1.0), (0.0, 1.0), 11, 11).unwrap();
        for i in 0..11 {
            let v = i as f64 / 10.0;
            assert_eq!(table.ids(v, v), inner.ids(v, v));
        }
    }

    #[test]
    fn clamps_outside_the_window() {
        let inner = AlphaPowerFet::fig2_nfet();
        let table = TableFet::sample(&inner, (0.0, 1.0), (0.0, 1.0), 11, 11).unwrap();
        assert_eq!(table.ids(2.0, 0.5), table.ids(1.0, 0.5));
        assert_eq!(table.ids(0.5, -1.0), table.ids(0.5, 0.0));
    }

    #[test]
    fn preserves_metadata() {
        let inner = AlphaPowerFet::fig2_pfet();
        let table = TableFet::sample(&inner, (-1.2, 0.2), (-1.2, 0.2), 11, 11).unwrap();
        assert_eq!(table.polarity(), Polarity::PType);
        assert_eq!(Fet::width(&table), Fet::width(&inner));
    }

    #[test]
    fn tabulated_ballistic_tracks_live_model() {
        let inner = BallisticFet::cnt_fig1().unwrap();
        let table = TableFet::sample(&inner, (-0.1, 0.7), (-0.1, 0.7), 33, 33).unwrap();
        for (vg, vd) in [(0.3, 0.3), (0.5, 0.5), (0.45, 0.12)] {
            let exact = inner.ids(vg, vd);
            let approx = table.ids(vg, vd);
            assert!(
                (exact - approx).abs() < 0.05 * exact.abs().max(1e-9),
                "({vg}, {vd})"
            );
        }
    }

    #[test]
    fn batch_is_bit_identical_to_scalar() {
        let inner = AlphaPowerFet::fig2_nfet();
        let table = TableFet::sample(&inner, (0.0, 1.0), (0.0, 1.0), 17, 17).unwrap();
        // Includes out-of-window points to exercise the clamp path.
        let (vgs, vds): (Vec<f64>, Vec<f64>) = [-0.4, 0.0, 0.131, 0.5, 0.977, 1.0, 1.6]
            .iter()
            .flat_map(|&vg| [-0.2, 0.013, 0.49, 1.0, 1.3].map(|vd| (vg, vd)))
            .unzip();
        let out = par_ids(&table, &vgs, &vds);
        for ((&vg, &vd), &got) in vgs.iter().zip(&vds).zip(&out) {
            assert_eq!(got.to_bits(), table.ids(vg, vd).to_bits(), "({vg}, {vd})");
        }
    }

    #[test]
    fn grid_validation() {
        let inner = AlphaPowerFet::fig2_nfet();
        assert!(TableFet::sample(&inner, (1.0, 0.0), (0.0, 1.0), 11, 11).is_err());
        assert!(TableFet::sample(&inner, (0.0, 1.0), (0.0, 1.0), 3, 11).is_err());
    }
}
