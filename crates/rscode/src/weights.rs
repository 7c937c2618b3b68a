//! Per-position-set interpolation weights, memoized per code.
//!
//! Every consistency check and erasure decode interpolates the data
//! polynomial through the symbols at some `k`-subset of codeword
//! positions. The subset is a function of *which peers responded* — it is
//! stable across the stripes of one value, across the generations of one
//! broadcast, and across the slots of a replicated-log run — while the
//! symbol values change every time. Interpolating from scratch therefore
//! repeats the same O(k²) Lagrange-basis construction per stripe per
//! call.
//!
//! [`InterpWeights`] hoists everything that depends only on the position
//! set out of the data path:
//!
//! - `coeff[j * k + i]`: the coefficient of `x^i` in the Lagrange basis
//!   polynomial `L_j` of the `j`-th supplied position. The interpolated
//!   polynomial's coefficient vector is `Σ_j y_j · coeff_row(j)` — one
//!   [`addmul_slice`](mvbc_gf::kernels::addmul_slice) per supplied
//!   symbol.
//! - `ext[pos * k + j] = L_j(alpha_pos)` for *every* codeword position
//!   `pos`: predicting the codeword symbol at `pos` from the `k`
//!   supplied symbols is a `k`-term dot product, which is how extra
//!   symbols are verified incrementally (and how `extend` recomputes
//!   missing symbols) without re-interpolating.
//!
//! Each [`ReedSolomon`](crate::ReedSolomon) value keeps its weights in a
//! [`Memo`](crate::memo::Memo) keyed by the position set: built on the
//! first check or decode through that set, shared by every later one.

use mvbc_gf::{Field, Gf65536};

/// Precomputed Lagrange machinery for one `(n, positions)` geometry.
#[derive(Debug)]
pub(crate) struct InterpWeights {
    /// Number of supplied positions (`positions.len()`, the code's `k`).
    pub k: usize,
    /// `coeff[j * k + i]` = coefficient of `x^i` in `L_j`.
    pub coeff: Vec<Gf65536>,
    /// `ext[pos * k + j]` = `L_j(alpha_pos)`, for `pos` in `0..n`.
    pub ext: Vec<Gf65536>,
}

impl InterpWeights {
    /// Builds the weights for interpolation through `positions` over a
    /// code with evaluation points `alphas` (length `n`).
    pub(crate) fn build(positions: &[usize], alphas: &[Gf65536]) -> Self {
        let k = positions.len();
        let n = alphas.len();
        let xs: Vec<Gf65536> = positions.iter().map(|&p| alphas[p]).collect();

        // Master polynomial M(x) = Π_j (x - x_j), built incrementally.
        // In characteristic 2, (x - x_j) == (x + x_j).
        let mut master = vec![Gf65536::ZERO; k + 1];
        master[0] = Gf65536::ONE;
        for (deg, &x) in xs.iter().enumerate() {
            for i in (0..=deg).rev() {
                let c = master[i];
                master[i + 1] += c;
                master[i] = c * x;
            }
        }

        let mut coeff = vec![Gf65536::ZERO; k * k];
        let mut denom_inv = vec![Gf65536::ZERO; k];
        let mut quotient = vec![Gf65536::ZERO; k];
        for (j, &xj) in xs.iter().enumerate() {
            // Synthetic division: q_j = M / (x - x_j), degree k - 1.
            quotient[k - 1] = master[k];
            for i in (1..k).rev() {
                quotient[i - 1] = master[i] + xj * quotient[i];
            }
            // denom_j = q_j(x_j) = Π_{m != j} (x_j - x_m), non-zero
            // because the evaluation points are pairwise distinct.
            let denom = quotient.iter().rev().fold(Gf65536::ZERO, |acc, &q| acc * xj + q);
            let dinv = denom.inv().expect("distinct points give non-zero denominator");
            denom_inv[j] = dinv;
            for i in 0..k {
                coeff[j * k + i] = quotient[i] * dinv;
            }
        }

        // Extension rows. For a supplied position, L_j(x_j') = δ_{jj'}
        // (identity row); for any other position p,
        // L_j(alpha_p) = M(alpha_p) / ((alpha_p - x_j) · denom_j).
        let mut ext = vec![Gf65536::ZERO; n * k];
        for (pos, &apos) in alphas.iter().enumerate() {
            let row = &mut ext[pos * k..(pos + 1) * k];
            if let Some(j) = positions.iter().position(|&p| p == pos) {
                row[j] = Gf65536::ONE;
                continue;
            }
            let m_at = master.iter().rev().fold(Gf65536::ZERO, |acc, &c| acc * apos + c);
            for (j, &xj) in xs.iter().enumerate() {
                let diff_inv = (apos - xj).inv().expect("alpha points are pairwise distinct");
                row[j] = m_at * diff_inv * denom_inv[j];
            }
        }

        InterpWeights { k, coeff, ext }
    }

    /// One Lagrange-basis coefficient row (`L_j`'s coefficients).
    pub fn coeff_row(&self, j: usize) -> &[Gf65536] {
        &self.coeff[j * self.k..(j + 1) * self.k]
    }

    /// The extension row for codeword position `pos`.
    pub fn ext_row(&self, pos: usize) -> &[Gf65536] {
        &self.ext[pos * self.k..(pos + 1) * self.k]
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use mvbc_gf::{interpolate, Poly};

    fn alphas(n: usize) -> Vec<Gf65536> {
        (0..n).map(Gf65536::alpha).collect()
    }

    #[test]
    fn coeff_rows_match_lagrange_interpolation() {
        let als = alphas(7);
        let positions = [1usize, 4, 6];
        let w = InterpWeights::build(&positions, &als);
        let ys = [Gf65536::new(17), Gf65536::new(200), Gf65536::new(3)];
        // Matrix path.
        let mut coeffs = vec![Gf65536::ZERO; 3];
        for (j, &y) in ys.iter().enumerate() {
            mvbc_gf::kernels::addmul_slice(y, w.coeff_row(j), &mut coeffs);
        }
        // Reference path.
        let pts: Vec<_> = positions.iter().zip(&ys).map(|(&p, &y)| (als[p], y)).collect();
        let p = interpolate(&pts).unwrap();
        let mut expect = p.into_coeffs();
        expect.resize(3, Gf65536::ZERO);
        assert_eq!(coeffs, expect);
    }

    #[test]
    fn ext_rows_predict_codeword_symbols() {
        let als = alphas(9);
        let positions = [0usize, 2, 5, 8];
        let w = InterpWeights::build(&positions, &als);
        let poly = Poly::from_coeffs(vec![
            Gf65536::new(11),
            Gf65536::new(22),
            Gf65536::new(33),
            Gf65536::new(44),
        ]);
        let ys: Vec<Gf65536> = positions.iter().map(|&p| poly.eval(als[p])).collect();
        for (pos, &a) in als.iter().enumerate() {
            let pred = w
                .ext_row(pos)
                .iter()
                .zip(&ys)
                .fold(Gf65536::ZERO, |acc, (&e, &y)| acc + e * y);
            assert_eq!(pred, poly.eval(a), "position {pos}");
        }
    }

    #[test]
    fn identity_rows_for_supplied_positions() {
        let als = alphas(5);
        let positions = [3usize, 1];
        let w = InterpWeights::build(&positions, &als);
        assert_eq!(w.ext_row(3), &[Gf65536::ONE, Gf65536::ZERO]);
        assert_eq!(w.ext_row(1), &[Gf65536::ZERO, Gf65536::ONE]);
    }

    #[test]
    fn cache_returns_shared_entries() {
        let code = crate::ReedSolomon::new(6, 3).unwrap();
        let a = code.interp_weights(&[0, 2, 4]);
        let b = code.interp_weights(&[0, 2, 4]);
        assert!(Arc::ptr_eq(&a, &b));
        let c = code.interp_weights(&[0, 2, 5]);
        assert!(!Arc::ptr_eq(&a, &c));
        // The memo is state of the code value: an equal code built
        // separately builds its own entry.
        let other = crate::ReedSolomon::new(6, 3).unwrap();
        assert!(!Arc::ptr_eq(&a, &other.interp_weights(&[0, 2, 4])));
    }

    #[test]
    fn single_point_interpolation_is_constant() {
        let als = alphas(4);
        let w = InterpWeights::build(&[2], &als);
        assert_eq!(w.coeff_row(0), &[Gf65536::ONE]);
        for pos in 0..4 {
            assert_eq!(w.ext_row(pos), &[Gf65536::ONE], "constant extends everywhere");
        }
    }
}
