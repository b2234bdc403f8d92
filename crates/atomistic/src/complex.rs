//! Minimal complex arithmetic for the Green's-function code.
//!
//! The workspace avoids a `num-complex` dependency; the NEGF module only
//! needs a handful of operations.

use core::ops::{Add, Div, Mul, Neg, Sub};

/// A complex number `re + i·im`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct C64 {
    pub re: f64,
    pub im: f64,
}

impl C64 {
    #[allow(dead_code)] // exercised in tests
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    #[allow(dead_code)] // exercised in tests
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };

    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    #[inline]
    pub fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Squared magnitude |z|².
    #[inline]
    pub fn abs2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Reciprocal 1/z.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.abs2();
        Self::new(self.re / d, -self.im / d)
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, o: C64) -> C64 {
        C64::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, o: C64) -> C64 {
        C64::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, o: C64) -> C64 {
        C64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, s: f64) -> C64 {
        C64::new(self.re * s, self.im * s)
    }
}

impl Div for C64 {
    type Output = C64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z / w == z * w^-1
    fn div(self, o: C64) -> C64 {
        self * o.recip()
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_spot_checks() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(-3.0, 0.5);
        assert_eq!(a + b, C64::new(-2.0, 2.5));
        assert_eq!(a - b, C64::new(4.0, 1.5));
        let p = a * b;
        assert!((p.re - (1.0 * -3.0 - 2.0 * 0.5)).abs() < 1e-12);
        assert!((p.im - (1.0 * 0.5 + 2.0 * -3.0)).abs() < 1e-12);
        let q = (a / b) * b;
        assert!((q.re - a.re).abs() < 1e-12 && (q.im - a.im).abs() < 1e-12);
        assert!((a.abs2() - 5.0).abs() < 1e-12);
        assert_eq!((-a).re, -1.0);
        let r = a.recip() * a;
        assert!((r.re - 1.0).abs() < 1e-12 && r.im.abs() < 1e-12);
        assert_eq!(C64::ONE * 2.0, C64::real(2.0));
        assert_eq!(C64::ZERO + C64::ONE, C64::ONE);
    }
}
