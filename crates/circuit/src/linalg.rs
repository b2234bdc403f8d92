//! Dense linear algebra for the MNA engine: LU factorization with partial
//! pivoting.
//!
//! Circuit matrices in this workspace stay small (a few hundred unknowns:
//! inverters plus RC ladders), where a cache-friendly dense LU beats a
//! sparse solver in both code size and constant factors. Factorizations
//! are reused across transient steps of linear circuits.

use crate::{Error, Result};

/// A dense row-major square matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Reads entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.n + c]
    }

    /// Writes entry `(r, c)`.
    #[inline]
    fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n + c] = v;
    }

    /// Adds `v` into entry `(r, c)` — the MNA "stamp" primitive.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n + c] += v;
    }

    /// Resets all entries to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Dense matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        (0..self.n)
            .map(|r| {
                let row = &self.data[r * self.n..(r + 1) * self.n];
                row.iter().zip(x).map(|(a, b)| a * b).sum()
            })
            .collect()
    }

    /// Factors the matrix in place (Doolittle LU with partial pivoting).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] when no usable pivot exists.
    pub fn lu_factor(mut self) -> Result<LuFactors> {
        let n = self.n;
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            // Partial pivot.
            let mut best = col;
            let mut best_val = self.get(col, col).abs();
            for r in col + 1..n {
                let v = self.get(r, col).abs();
                if v > best_val {
                    best = r;
                    best_val = v;
                }
            }
            if best_val < 1e-300 {
                return Err(Error::SingularMatrix { row: col });
            }
            if best != col {
                for c in 0..n {
                    let tmp = self.get(col, c);
                    self.set(col, c, self.get(best, c));
                    self.set(best, c, tmp);
                }
                perm.swap(col, best);
            }
            let pivot = self.get(col, col);
            for r in col + 1..n {
                let factor = self.get(r, col) / pivot;
                self.set(r, col, factor);
                if factor != 0.0 {
                    for c in col + 1..n {
                        let v = self.get(r, c) - factor * self.get(col, c);
                        self.set(r, c, v);
                    }
                }
            }
        }
        Ok(LuFactors { lu: self, perm })
    }
}

/// LU factorization with its row permutation.
#[derive(Debug, Clone)]
pub struct LuFactors {
    lu: DenseMatrix,
    perm: Vec<usize>,
}

impl LuFactors {
    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    // Index loops kept as-is: iterator rewrites would regroup the float
    // accumulation and change bit-exact solver output.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.n;
        assert_eq!(b.len(), n);
        // Apply permutation.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution (unit lower triangle).
        for r in 1..n {
            let mut acc = x[r];
            for c in 0..r {
                acc -= self.lu.get(r, c) * x[c];
            }
            x[r] = acc;
        }
        // Back substitution.
        for r in (0..n).rev() {
            let mut acc = x[r];
            for c in r + 1..n {
                acc -= self.lu.get(r, c) * x[c];
            }
            x[r] = acc / self.lu.get(r, r);
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_rows(rows: &[&[f64]]) -> DenseMatrix {
        let n = rows.len();
        let mut m = DenseMatrix::zeros(n);
        for (r, row) in rows.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                m.set(r, c, *v);
            }
        }
        m
    }

    #[test]
    fn solves_small_system_exactly() {
        let a = from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]]);
        let x_true = [1.0, -2.0, 3.0];
        let b = a.mul_vec(&x_true);
        let x = a.lu_factor().unwrap().solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.lu_factor().unwrap().solve(&[3.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(a.lu_factor(), Err(Error::SingularMatrix { .. })));
    }

    #[test]
    fn factor_reuse_multiple_rhs() {
        let a = from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let f = a.clone().lu_factor().unwrap();
        for b in [[1.0, 0.0], [0.0, 1.0], [5.0, -2.0]] {
            let x = f.solve(&b);
            let back = a.mul_vec(&x);
            assert!((back[0] - b[0]).abs() < 1e-12);
            assert!((back[1] - b[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn stamp_and_clear() {
        let mut m = DenseMatrix::zeros(2);
        m.add(0, 0, 1.5);
        m.add(0, 0, 0.5);
        assert_eq!(m.get(0, 0), 2.0);
        m.clear();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.dim(), 2);
    }

    #[test]
    fn random_system_roundtrip() {
        // Deterministic pseudo-random fill; checks residual of a 30×30 solve.
        let n = 30;
        let mut m = DenseMatrix::zeros(n);
        let mut seed = 123456789u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for r in 0..n {
            for c in 0..n {
                m.set(r, c, next());
            }
            m.add(r, r, 5.0); // diagonal dominance ⇒ nonsingular
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = m.clone().lu_factor().unwrap().solve(&b);
        let back = m.mul_vec(&x);
        for (bi, yi) in b.iter().zip(&back) {
            assert!((bi - yi).abs() < 1e-9);
        }
    }
}
