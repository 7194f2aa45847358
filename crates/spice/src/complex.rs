//! Minimal complex arithmetic for AC small-signal analysis.
//!
//! Kept in-tree rather than pulling a numerics crate: AC analysis needs
//! exactly one operation — solving the complex MNA system
//! `(G + jωC)·x = b` — and the phasor type below, as a
//! [`Scalar`](crate::sparse::Scalar), lets the dense
//! ([`linalg`](crate::linalg)) and sparse ([`sparse`](crate::sparse))
//! LU solvers run over it unchanged.

/// A complex number (phasor) with `f64` parts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates `re + j·im`.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// A purely imaginary value `j·im`.
    #[inline]
    pub const fn imag(im: f64) -> Self {
        Self { re: 0.0, im }
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }
}

/// [`Scalar`](crate::sparse::Scalar) instance so the dense and sparse
/// LU solvers work over complex MNA systems. Both pivot on the same
/// 1-norm magnitude `|re| + |im|`, keeping their pivot choices
/// comparable.
impl crate::sparse::Scalar for Complex {
    const ZERO: Self = Complex::ZERO;

    #[inline]
    fn mag(self) -> f64 {
        self.re.abs() + self.im.abs()
    }

    #[inline]
    fn scale(self, s: f64) -> Self {
        Complex::new(self.re * s, self.im * s)
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl std::ops::Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.re * rhs.re + rhs.im * rhs.im;
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl std::ops::Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl std::ops::AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl std::ops::SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Self::new(re, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SpiceError;
    use crate::linalg::DenseMatrix;

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        let q = a / b;
        let back = q * b;
        assert!((back.re - a.re).abs() < 1e-12 && (back.im - a.im).abs() < 1e-12);
        assert!((Complex::imag(1.0) * Complex::imag(1.0) + Complex::ONE).abs() < 1e-15);
        assert!((a.abs() - 5.0_f64.sqrt()).abs() < 1e-12);
        assert!((Complex::imag(1.0).arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    // The phasor type solves through the generic dense LU.

    #[test]
    fn solves_complex_system() {
        // (1 + j)x = 2 → x = 1 − j.
        let mut a = DenseMatrix::zeros(1);
        a.add(0, 0, Complex::new(1.0, 1.0));
        let mut b = vec![Complex::new(2.0, 0.0)];
        a.solve_in_place(&mut b).unwrap();
        assert!((b[0].re - 1.0).abs() < 1e-12 && (b[0].im + 1.0).abs() < 1e-12);
    }

    #[test]
    fn solves_rc_divider_phasor() {
        // Series R with shunt C at ω = 1/RC: v_out = 1/(1 + j).
        let (r, c, w) = (1e3, 1e-9, 1e6);
        let mut a = DenseMatrix::zeros(1);
        a.add(0, 0, Complex::new(1.0 / r, w * c));
        let mut b = vec![Complex::new(1.0 / r, 0.0)];
        a.solve_in_place(&mut b).unwrap();
        assert!((b[0].abs() - 1.0 / 2.0_f64.sqrt()).abs() < 1e-9);
        assert!((b[0].arg() + std::f64::consts::FRAC_PI_4).abs() < 1e-9);
    }

    #[test]
    fn detects_singular() {
        let mut a = DenseMatrix::zeros(2);
        a.add(0, 0, Complex::ONE);
        a.add(0, 1, Complex::ONE);
        a.add(1, 0, Complex::new(2.0, 0.0));
        a.add(1, 1, Complex::new(2.0, 0.0));
        let mut b = vec![Complex::ONE, Complex::ONE];
        assert!(matches!(
            a.solve_in_place(&mut b),
            Err(SpiceError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn pivoting_on_zero_diagonal() {
        let mut a = DenseMatrix::zeros(2);
        a.add(0, 1, Complex::ONE);
        a.add(1, 0, Complex::ONE);
        let mut b = vec![Complex::new(2.0, 0.0), Complex::new(3.0, 0.0)];
        a.solve_in_place(&mut b).unwrap();
        assert!((b[0].re - 3.0).abs() < 1e-12);
        assert!((b[1].re - 2.0).abs() < 1e-12);
    }
}
