//! Dense matrices and Gaussian elimination over [`Gf65536`].
//!
//! Berlekamp-Welch decoding reduces error correction to solving a linear
//! system over GF(2^c); this module provides that solver.

use std::fmt;

use crate::{Field, Gf65536};

/// Error produced by the linear-algebra routines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinalgError {
    /// The system has no solution.
    Inconsistent,
    /// Matrix dimensions do not match the operation.
    DimensionMismatch,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Inconsistent => write!(f, "linear system is inconsistent"),
            LinalgError::DimensionMismatch => write!(f, "matrix dimensions do not match"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// A dense row-major matrix over GF(2^16).
///
/// # Examples
///
/// ```
/// use mvbc_gf::{Field, Gf65536, GfMatrix};
///
/// let mut m = GfMatrix::zeros(2, 2);
/// m.set(0, 0, Gf65536::ONE);
/// m.set(1, 1, Gf65536::ONE);
/// assert_eq!(m.get(0, 0), Gf65536::ONE);
/// assert_eq!(m.rank(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct GfMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf65536>,
}

impl fmt::Debug for GfMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "GfMatrix({}x{})", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  [")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.get(r, c))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

impl GfMatrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        GfMatrix {
            rows,
            cols,
            data: vec![Gf65536::ZERO; rows * cols],
        }
    }

    /// Creates a matrix from a closure mapping `(row, col)` to an entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Gf65536) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry accessor.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds.
    pub fn get(&self, r: usize, c: usize) -> Gf65536 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Entry mutator.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: Gf65536) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Matrix-vector product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `v.len() != cols`.
    pub fn mul_vec(&self, v: &[Gf65536]) -> Result<Vec<Gf65536>, LinalgError> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch);
        }
        let mut out = vec![Gf65536::ZERO; self.rows];
        for (r, slot) in out.iter_mut().enumerate() {
            let mut acc = Gf65536::ZERO;
            for (c, &vc) in v.iter().enumerate() {
                acc += self.get(r, c) * vc;
            }
            *slot = acc;
        }
        Ok(out)
    }

    /// Rank via Gaussian elimination on a copy.
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        m.row_echelon()
    }

    /// In-place reduction to row-echelon form; returns the rank.
    fn row_echelon(&mut self) -> usize {
        let mut pivot_row = 0usize;
        for col in 0..self.cols {
            if pivot_row == self.rows {
                break;
            }
            // Find a pivot.
            let Some(sel) = (pivot_row..self.rows).find(|&r| !self.get(r, col).is_zero()) else {
                continue;
            };
            self.swap_rows(sel, pivot_row);
            let inv = self.get(pivot_row, col).inv().expect("pivot is non-zero");
            for c in col..self.cols {
                let v = self.get(pivot_row, c) * inv;
                self.set(pivot_row, c, v);
            }
            for r in 0..self.rows {
                if r == pivot_row {
                    continue;
                }
                let factor = self.get(r, col);
                if factor.is_zero() {
                    continue;
                }
                for c in col..self.cols {
                    let v = self.get(r, c) - factor * self.get(pivot_row, c);
                    self.set(r, c, v);
                }
            }
            pivot_row += 1;
        }
        pivot_row
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            let (va, vb) = (self.get(a, c), self.get(b, c));
            self.set(a, c, vb);
            self.set(b, c, va);
        }
    }
}

/// Solves `A x = b` over GF(2^16), returning one solution (free variables are set
/// to zero when the system is under-determined).
///
/// # Errors
///
/// - [`LinalgError::DimensionMismatch`] when `b.len() != A.rows()`.
/// - [`LinalgError::Inconsistent`] when no solution exists.
///
/// # Examples
///
/// ```
/// use mvbc_gf::{solve_linear_system, Field, Gf65536, GfMatrix};
///
/// // x + y = 5, y = 3  =>  x = 6 (XOR arithmetic), y = 3
/// let a = GfMatrix::from_fn(2, 2, |r, c| {
///     if r == 0 || c == 1 { Gf65536::ONE } else { Gf65536::ZERO }
/// });
/// let b = vec![Gf65536::new(5), Gf65536::new(3)];
/// let x = solve_linear_system(&a, &b)?;
/// assert_eq!(a.mul_vec(&x)?, b);
/// # Ok::<(), mvbc_gf::LinalgError>(())
/// ```
#[allow(clippy::needless_range_loop)] // index-based elimination reads clearer here
pub fn solve_linear_system(a: &GfMatrix, b: &[Gf65536]) -> Result<Vec<Gf65536>, LinalgError> {
    if b.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch);
    }
    // Build the augmented matrix [A | b].
    let mut aug = GfMatrix::from_fn(a.rows(), a.cols() + 1, |r, c| {
        if c < a.cols() {
            a.get(r, c)
        } else {
            b[r]
        }
    });
    aug.row_echelon();
    // Detect inconsistency: a row of zeros in A-part with non-zero b-part.
    for r in 0..aug.rows() {
        let all_zero = (0..a.cols()).all(|c| aug.get(r, c).is_zero());
        if all_zero && !aug.get(r, a.cols()).is_zero() {
            return Err(LinalgError::Inconsistent);
        }
    }
    // Back-substitute: the matrix is in reduced row-echelon form, so each
    // pivot row directly gives one variable (free variables stay zero).
    let mut x = vec![Gf65536::ZERO; a.cols()];
    for r in 0..aug.rows() {
        let Some(pivot_col) = (0..a.cols()).find(|&c| !aug.get(r, c).is_zero()) else {
            continue;
        };
        let mut val = aug.get(r, a.cols());
        for c in pivot_col + 1..a.cols() {
            val -= aug.get(r, c) * x[c];
        }
        x[pivot_col] = val;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Field;

    fn m(rows: usize, cols: usize, entries: &[u16]) -> GfMatrix {
        assert_eq!(entries.len(), rows * cols);
        GfMatrix::from_fn(rows, cols, |r, c| Gf65536::new(entries[r * cols + c]))
    }

    #[test]
    fn identity_solve() {
        let a = m(3, 3, &[1, 0, 0, 0, 1, 0, 0, 0, 1]);
        let b = vec![Gf65536::new(7), Gf65536::new(8), Gf65536::new(9)];
        assert_eq!(solve_linear_system(&a, &b).unwrap(), b);
    }

    #[test]
    fn vandermonde_is_full_rank() {
        let pts: Vec<Gf65536> = (0..6).map(Gf65536::alpha).collect();
        let a = GfMatrix::from_fn(6, 6, |r, c| pts[r].pow(c as u64));
        assert_eq!(a.rank(), 6);
    }

    #[test]
    fn solve_roundtrip_random_system() {
        // Deterministic pseudo-random full-rank-ish systems.
        let mut seed = 0x9e37u32;
        let mut next = move || {
            seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
            ((seed >> 8) & 0xff) as u16
        };
        for _ in 0..20 {
            let a = GfMatrix::from_fn(5, 5, |_, _| Gf65536::new(next()));
            let x_true: Vec<Gf65536> = (0..5).map(|_| Gf65536::new(next())).collect();
            let b = a.mul_vec(&x_true).unwrap();
            if a.rank() < 5 {
                continue; // singular sample; skip
            }
            let x = solve_linear_system(&a, &b).unwrap();
            assert_eq!(x, x_true);
        }
    }

    #[test]
    fn inconsistent_system_detected() {
        // x + y = 1 and x + y = 2 simultaneously.
        let a = m(2, 2, &[1, 1, 1, 1]);
        let b = vec![Gf65536::new(1), Gf65536::new(2)];
        assert_eq!(solve_linear_system(&a, &b), Err(LinalgError::Inconsistent));
    }

    #[test]
    fn underdetermined_system_solved_with_free_vars_zero() {
        let a = m(1, 3, &[1, 1, 1]);
        let b = vec![Gf65536::new(9)];
        let x = solve_linear_system(&a, &b).unwrap();
        assert_eq!(a.mul_vec(&x).unwrap(), b);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = m(2, 2, &[1, 0, 0, 1]);
        assert_eq!(
            solve_linear_system(&a, &[Gf65536::ONE]),
            Err(LinalgError::DimensionMismatch)
        );
        assert_eq!(
            a.mul_vec(&[Gf65536::ONE]),
            Err(LinalgError::DimensionMismatch)
        );
    }

    #[test]
    fn rank_of_dependent_rows() {
        let a = m(3, 3, &[1, 2, 3, 2, 4, 6, 1, 0, 1]);
        // Row 1 = 2 * row 0: multiplication by 2 (the polynomial x) needs
        // no reduction here, so 2*1=2, 2*2=4, 2*3=6.
        assert_eq!(a.rank(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let a = m(1, 1, &[1]);
        let _ = a.get(1, 0);
    }

    #[test]
    fn debug_output_nonempty() {
        let a = m(1, 2, &[0, 1]);
        let s = format!("{a:?}");
        assert!(s.contains("GfMatrix(1x2)"));
    }

    #[test]
    fn error_display() {
        assert!(LinalgError::Inconsistent.to_string().contains("inconsistent"));
        assert!(LinalgError::DimensionMismatch.to_string().contains("dimensions"));
    }
}
