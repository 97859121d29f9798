//! Double-precision complex numbers.
//!
//! The whole SecureAngle stack operates on baseband IQ samples, which are
//! complex numbers: the real part is the in-phase (I) component and the
//! imaginary part the quadrature (Q) component of Figure 1(b) in the paper.
//! We implement our own small complex type instead of pulling in a numerics
//! crate; the operation set below is exactly what the signal chain needs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// `re` is the in-phase (I) component, `im` the quadrature (Q) component.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real / in-phase component.
    pub re: f64,
    /// Imaginary / quadrature component.
    pub im: f64,
}

/// The imaginary unit `j` (electrical-engineering notation).
pub const J: C64 = C64 { re: 0.0, im: 1.0 };

/// Complex zero.
pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };

/// Complex one.
pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };

/// Shorthand constructor, `c64(re, im)`.
#[inline]
pub const fn c64(re: f64, im: f64) -> C64 {
    C64 { re, im }
}

impl C64 {
    /// Construct from Cartesian components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Construct from polar form: `r * e^{j theta}`.
    ///
    /// This is how propagation applies phase: a path of length `d` multiplies
    /// the transmitted signal by `from_polar(gain, -2*pi*d/lambda)`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// `e^{j theta}`: a pure phasor of unit magnitude.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude, `|z|^2 = z * conj(z)`. Cheaper than [`C64::abs`]
    /// because it avoids the square root; used in power computations.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in `(-pi, pi]`, measured from the positive I axis —
    /// the `∠x` of the paper's Equation 1.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse. Returns NaN components for zero input.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Self {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        Self::from_polar(self.abs().sqrt(), self.arg() / 2.0)
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// True if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// True if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Approximate equality with absolute tolerance on both components.
    #[inline]
    pub fn approx_eq(self, other: Self, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }
}

impl From<f64> for C64 {
    #[inline]
    fn from(re: f64) -> Self {
        Self { re, im: 0.0 }
    }
}

impl Add for C64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl Sub for C64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for C64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Div for C64 {
    type Output = Self;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z / w == z · w⁻¹ by definition
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl Neg for C64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl Mul<f64> for C64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Mul<C64> for f64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        rhs.scale(self)
    }
}

impl Div<f64> for C64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        self.scale(1.0 / rhs)
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for C64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = self.scale(rhs);
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(ZERO, |acc, z| acc + z)
    }
}

impl<'a> Sum<&'a C64> for C64 {
    fn sum<I: Iterator<Item = &'a C64>>(iter: I) -> Self {
        iter.fold(ZERO, |acc, z| acc + *z)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}j", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}j", self.re, -self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    const TOL: f64 = 1e-12;

    #[test]
    fn construction_and_accessors() {
        let z = c64(3.0, -4.0);
        assert_eq!(z.re, 3.0);
        assert_eq!(z.im, -4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
    }

    #[test]
    fn polar_roundtrip() {
        let z = C64::from_polar(2.0, 0.7);
        assert!((z.abs() - 2.0).abs() < TOL);
        assert!((z.arg() - 0.7).abs() < TOL);
    }

    #[test]
    fn cis_is_unit_phasor() {
        for k in 0..16 {
            let th = -PI + 2.0 * PI * (k as f64) / 16.0 + 0.01;
            let z = C64::cis(th);
            assert!((z.abs() - 1.0).abs() < TOL);
            assert!((z.arg() - th).abs() < TOL);
        }
    }

    #[test]
    fn arg_quadrants() {
        assert!((c64(1.0, 0.0).arg()).abs() < TOL);
        assert!((c64(0.0, 1.0).arg() - FRAC_PI_2).abs() < TOL);
        assert!((c64(-1.0, 0.0).arg() - PI).abs() < TOL);
        assert!((c64(0.0, -1.0).arg() + FRAC_PI_2).abs() < TOL);
    }

    #[test]
    fn mul_is_phase_addition() {
        let a = C64::cis(0.5);
        let b = C64::cis(0.8);
        let p = a * b;
        assert!((p.arg() - 1.3).abs() < TOL);
        assert!((p.abs() - 1.0).abs() < TOL);
    }

    #[test]
    fn conjugate_negates_phase() {
        let z = C64::from_polar(3.0, 1.1);
        assert!((z.conj().arg() + 1.1).abs() < TOL);
        assert!((z.conj().abs() - 3.0).abs() < TOL);
    }

    #[test]
    fn division_undoes_multiplication() {
        let a = c64(1.25, -0.5);
        let b = c64(-2.0, 3.5);
        let q = (a * b) / b;
        assert!(q.approx_eq(a, 1e-12));
    }

    #[test]
    fn recip_of_unit_is_conj() {
        let z = C64::cis(0.3);
        assert!(z.recip().approx_eq(z.conj(), TOL));
    }

    #[test]
    fn exp_of_imaginary_is_cis() {
        let z = c64(0.0, 0.9).exp();
        assert!(z.approx_eq(C64::cis(0.9), TOL));
    }

    #[test]
    fn exp_of_real() {
        let z = c64(1.0, 0.0).exp();
        assert!((z.re - std::f64::consts::E).abs() < 1e-12);
        assert!(z.im.abs() < TOL);
    }

    #[test]
    fn sqrt_squares_back() {
        let z = c64(-3.0, 4.0);
        let r = z.sqrt();
        assert!((r * r).approx_eq(z, 1e-10));
    }

    #[test]
    fn sum_iterator() {
        let v = [c64(1.0, 2.0), c64(3.0, -1.0), c64(-0.5, 0.5)];
        let s: C64 = v.iter().sum();
        assert!(s.approx_eq(c64(3.5, 1.5), TOL));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", c64(1.0, 2.0)), "1.000000+2.000000j");
        assert_eq!(format!("{}", c64(1.0, -2.0)), "1.000000-2.000000j");
    }

    #[test]
    fn real_scalar_ops() {
        let z = c64(2.0, -6.0);
        assert!((z * 0.5).approx_eq(c64(1.0, -3.0), TOL));
        assert!((0.5 * z).approx_eq(c64(1.0, -3.0), TOL));
        assert!((z / 2.0).approx_eq(c64(1.0, -3.0), TOL));
    }

    #[test]
    fn nan_and_finite_predicates() {
        assert!(c64(f64::NAN, 0.0).is_nan());
        assert!(!c64(1.0, 1.0).is_nan());
        assert!(c64(1.0, 1.0).is_finite());
        assert!(!c64(f64::INFINITY, 0.0).is_finite());
    }
}
