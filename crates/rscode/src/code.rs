//! The core `(n, k)` Reed-Solomon code over GF(2^16).

use std::fmt;
use std::sync::Arc;

use mvbc_gf::{kernels, Field, Gf65536};

use crate::memo::Memo;
use crate::weights::InterpWeights;

/// The longest codeword, and so the most processors a code supports:
/// each position needs its own non-zero evaluation point, and GF(2^16)
/// has `2^16 - 1` of them.
pub const MAX_CODE_LENGTH: usize = (Gf65536::ORDER - 1) as usize;

/// Errors produced by Reed-Solomon encoding and decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeError {
    /// Code parameters are invalid (`k == 0`, `k > n`, or `n` exceeds
    /// [`MAX_CODE_LENGTH`]).
    InvalidParameters {
        /// Requested codeword length.
        n: usize,
        /// Requested dimension.
        k: usize,
        /// Field size `2^c`.
        field_order: u64,
    },
    /// Wrong number of data symbols passed to `encode`.
    WrongDataLength {
        /// Expected `k`.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// Fewer than `k` symbols supplied to a decode operation.
    NotEnoughSymbols {
        /// Code dimension `k`.
        needed: usize,
        /// Provided count.
        got: usize,
    },
    /// A symbol position is `>= n` or appears twice.
    BadPosition {
        /// The offending position.
        position: usize,
    },
    /// The supplied symbols are not consistent with any codeword.
    Inconsistent,
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::InvalidParameters { n, k, field_order } => write!(
                f,
                "invalid Reed-Solomon parameters (n = {n}, k = {k}, field order = {field_order})"
            ),
            CodeError::WrongDataLength { expected, got } => {
                write!(f, "expected {expected} data symbols, got {got}")
            }
            CodeError::NotEnoughSymbols { needed, got } => {
                write!(f, "need at least {needed} symbols to decode, got {got}")
            }
            CodeError::BadPosition { position } => {
                write!(f, "symbol position {position} is out of range or duplicated")
            }
            CodeError::Inconsistent => write!(f, "symbols do not lie on a single codeword"),
        }
    }
}

impl std::error::Error for CodeError {}

/// An `(n, k)` Reed-Solomon code over GF(2^16).
///
/// A data vector `d[0..k]` is interpreted as the polynomial
/// `p(x) = d[0] + d[1] x + ... + d[k-1] x^{k-1}` and the codeword is
/// `(p(alpha_0), ..., p(alpha_{n-1}))` at fixed pairwise-distinct points.
/// Any `k` codeword symbols determine `p` (Vandermonde), giving the
/// paper's key property that every `k`-subset of coded symbols is a set of
/// linearly independent combinations of the data symbols.
///
/// Minimum distance is `n - k + 1`; with `k = n - 2t` this is the paper's
/// distance-`(2t + 1)` code `C_2t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReedSolomon {
    n: usize,
    k: usize,
    alphas: Vec<Gf65536>,
    /// Row-major `n × k` generator matrix: `gen[j * k + i] = alpha_j^i`,
    /// so `codeword[j] = Σ_i data[i] · gen[j * k + i]`. Precomputed once
    /// so encoding is a matrix application (and, striped, a sequence of
    /// [`kernels::addmul_slice`] calls) instead of per-stripe Horner
    /// evaluation through a freshly-allocated polynomial.
    gen: Vec<Gf65536>,
    /// Interpolation weights per position set, built on first use (see
    /// [`crate::weights`]).
    weights: Memo<Vec<usize>, InterpWeights>,
}

impl ReedSolomon {
    /// Creates an `(n, k)` code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] unless
    /// `1 <= k <= n <= MAX_CODE_LENGTH`.
    pub fn new(n: usize, k: usize) -> Result<Self, CodeError> {
        if k == 0 || k > n || n > MAX_CODE_LENGTH {
            return Err(CodeError::InvalidParameters {
                n,
                k,
                field_order: Gf65536::ORDER,
            });
        }
        let alphas: Vec<Gf65536> = (0..n).map(Gf65536::alpha).collect();
        let mut gen = Vec::with_capacity(n * k);
        for &a in &alphas {
            let mut power = Gf65536::ONE;
            for _ in 0..k {
                gen.push(power);
                power *= a;
            }
        }
        Ok(ReedSolomon {
            n,
            k,
            alphas,
            gen,
            weights: Memo::default(),
        })
    }

    /// Creates the paper's code `C_2t`: an `(n, n - 2t)` code.
    ///
    /// # Errors
    ///
    /// Propagates [`CodeError::InvalidParameters`] when `n <= 2t` or `n`
    /// exceeds the field.
    pub fn c2t(n: usize, t: usize) -> Result<Self, CodeError> {
        let k = n.saturating_sub(2 * t);
        Self::new(n, k)
    }

    /// Codeword length `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Code dimension `k` (`n - 2t` for `C_2t`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Minimum Hamming distance `n - k + 1`.
    pub fn distance(&self) -> usize {
        self.n - self.k + 1
    }

    /// The evaluation point for codeword position `j`.
    pub fn alpha(&self, j: usize) -> Gf65536 {
        self.alphas[j]
    }

    /// One generator-matrix row: the `k` multipliers producing codeword
    /// position `j` (`[1, alpha_j, alpha_j^2, ...]`).
    pub(crate) fn gen_row(&self, j: usize) -> &[Gf65536] {
        &self.gen[j * self.k..(j + 1) * self.k]
    }

    /// The memoized interpolation weights for a `k`-subset of positions
    /// (see [`crate::weights`]).
    pub(crate) fn interp_weights(&self, positions: &[usize]) -> Arc<InterpWeights> {
        self.weights
            .get_or_build(positions, || InterpWeights::build(positions, &self.alphas))
    }

    /// Encodes `k` data symbols into an `n`-symbol codeword by applying
    /// the precomputed generator matrix (no intermediate allocation).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::WrongDataLength`] when `data.len() != k`.
    pub fn encode(&self, data: &[Gf65536]) -> Result<Vec<Gf65536>, CodeError> {
        if data.len() != self.k {
            return Err(CodeError::WrongDataLength {
                expected: self.k,
                got: data.len(),
            });
        }
        Ok((0..self.n).map(|j| dot(self.gen_row(j), data)).collect())
    }

    /// Validates `(position, symbol)` pairs: positions in range, no
    /// duplicates. Uses a stack bitset for codes up to 128 positions
    /// (every practical geometry), so the hot path never allocates.
    fn validate_positions(&self, symbols: &[(usize, Gf65536)]) -> Result<(), CodeError> {
        if self.n <= 128 {
            let mut seen: u128 = 0;
            for &(pos, _) in symbols {
                if pos >= self.n || seen & (1u128 << pos) != 0 {
                    return Err(CodeError::BadPosition { position: pos });
                }
                seen |= 1u128 << pos;
            }
        } else {
            let mut seen = vec![false; self.n];
            for &(pos, _) in symbols {
                if pos >= self.n || seen[pos] {
                    return Err(CodeError::BadPosition { position: pos });
                }
                seen[pos] = true;
            }
        }
        Ok(())
    }

    /// Fetches the interpolation weights for the first `k` supplied
    /// symbols and verifies every remaining symbol lies on the polynomial
    /// they determine (incremental check via the cached extension rows —
    /// no re-interpolation).
    fn checked_weights(&self, symbols: &[(usize, Gf65536)]) -> Result<Arc<InterpWeights>, CodeError> {
        self.validate_positions(symbols)?;
        if symbols.len() < self.k {
            return Err(CodeError::NotEnoughSymbols {
                needed: self.k,
                got: symbols.len(),
            });
        }
        // Stack positions for k <= 128 (every practical geometry), so
        // the hot path does not allocate.
        let mut stack = [0usize; 128];
        let heap: Vec<usize>;
        let positions = if self.k <= 128 {
            for (slot, &(pos, _)) in stack.iter_mut().zip(&symbols[..self.k]) {
                *slot = pos;
            }
            &stack[..self.k]
        } else {
            heap = symbols[..self.k].iter().map(|&(pos, _)| pos).collect();
            &heap[..]
        };
        let w = self.interp_weights(positions);
        for &(pos, s) in &symbols[self.k..] {
            if predict(&w, pos, symbols) != s {
                return Err(CodeError::Inconsistent);
            }
        }
        Ok(w)
    }

    /// The paper's consistency predicate `V/A ∈ C_2t`: do the given
    /// `(position, symbol)` pairs all lie on one codeword?
    ///
    /// Fewer than `k` symbols are vacuously consistent (some codeword always
    /// extends them).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::BadPosition`] for out-of-range or duplicated
    /// positions.
    pub fn is_consistent(&self, symbols: &[(usize, Gf65536)]) -> Result<bool, CodeError> {
        match self.checked_weights(symbols) {
            Ok(_) | Err(CodeError::NotEnoughSymbols { .. }) => Ok(true),
            Err(CodeError::Inconsistent) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// The paper's decoding function `C_2t^{-1}(V/A)`: recovers the `k` data
    /// symbols from at least `k` symbols, verifying that *all* provided
    /// symbols are consistent with the decoded codeword.
    ///
    /// # Errors
    ///
    /// - [`CodeError::NotEnoughSymbols`] with fewer than `k` symbols.
    /// - [`CodeError::Inconsistent`] when the symbols do not all lie on one
    ///   codeword.
    /// - [`CodeError::BadPosition`] for invalid positions.
    pub fn decode(&self, symbols: &[(usize, Gf65536)]) -> Result<Vec<Gf65536>, CodeError> {
        let w = self.checked_weights(symbols)?;
        let mut data = vec![Gf65536::ZERO; self.k];
        for (j, &(_, y)) in symbols[..self.k].iter().enumerate() {
            kernels::addmul_slice(y, w.coeff_row(j), &mut data);
        }
        Ok(data)
    }

    /// Recomputes the full codeword from at least `k` consistent symbols.
    ///
    /// # Errors
    ///
    /// Same as [`ReedSolomon::decode`].
    pub fn extend(&self, symbols: &[(usize, Gf65536)]) -> Result<Vec<Gf65536>, CodeError> {
        let w = self.checked_weights(symbols)?;
        Ok((0..self.n).map(|pos| predict(&w, pos, symbols)).collect())
    }
}

/// Dot product `Σ row[i] · data[i]` (both length `k`).
fn dot(row: &[Gf65536], data: &[Gf65536]) -> Gf65536 {
    row.iter().zip(data).fold(Gf65536::ZERO, |acc, (&g, &d)| acc + g * d)
}

/// Predicted codeword symbol at `pos` from the first `k` supplied
/// symbols, via the cached extension row.
fn predict(w: &InterpWeights, pos: usize, symbols: &[(usize, Gf65536)]) -> Gf65536 {
    w.ext_row(pos)
        .iter()
        .zip(&symbols[..w.k])
        .fold(Gf65536::ZERO, |acc, (&e, &(_, y))| acc + e * y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(n: usize, k: usize) -> ReedSolomon {
        ReedSolomon::new(n, k).unwrap()
    }

    fn data(vals: &[u16]) -> Vec<Gf65536> {
        vals.iter().map(|&v| Gf65536::new(v)).collect()
    }

    #[test]
    fn parameter_validation() {
        assert!(ReedSolomon::new(10, 0).is_err());
        assert!(ReedSolomon::new(3, 4).is_err());
        assert!(ReedSolomon::new(1000, 500).is_ok());
        // One position per non-zero field point: 65 535 of them.
        assert_eq!(MAX_CODE_LENGTH, 65_535);
        assert!(ReedSolomon::new(65_535, 1).is_ok());
        assert_eq!(
            ReedSolomon::new(65_536, 1),
            Err(CodeError::InvalidParameters { n: 65_536, k: 1, field_order: 65_536 })
        );
    }

    #[test]
    fn c2t_constructor() {
        let rs = ReedSolomon::c2t(7, 2).unwrap();
        assert_eq!(rs.n(), 7);
        assert_eq!(rs.k(), 3);
        assert_eq!(rs.distance(), 5); // 2t + 1
        assert!(ReedSolomon::c2t(6, 3).is_err()); // n = 2t
    }

    #[test]
    fn encode_wrong_length_rejected() {
        let rs = code(7, 3);
        assert_eq!(
            rs.encode(&data(&[1, 2])),
            Err(CodeError::WrongDataLength { expected: 3, got: 2 })
        );
    }

    #[test]
    fn roundtrip_every_k_subset() {
        let rs = code(7, 3);
        let d = data(&[42, 17, 99]);
        let cw = rs.encode(&d).unwrap();
        // All C(7,3) = 35 subsets of size k decode identically.
        for a in 0..7 {
            for b in a + 1..7 {
                for c in b + 1..7 {
                    let picks = [(a, cw[a]), (b, cw[b]), (c, cw[c])];
                    assert_eq!(rs.decode(&picks).unwrap(), d);
                }
            }
        }
    }

    #[test]
    fn decode_detects_single_corruption_with_full_codeword() {
        let rs = code(7, 3);
        let cw = rs.encode(&data(&[1, 2, 3])).unwrap();
        for victim in 0..7 {
            let mut bad = cw.clone();
            bad[victim] += Gf65536::ONE;
            let pairs: Vec<_> = bad.iter().copied().enumerate().collect();
            assert!(!rs.is_consistent(&pairs).unwrap());
        }
    }

    #[test]
    fn minimum_distance_is_achieved() {
        // Two distinct codewords differ in at least n - k + 1 positions.
        let rs = code(7, 3);
        let c1 = rs.encode(&data(&[1, 2, 3])).unwrap();
        let c2 = rs.encode(&data(&[1, 2, 4])).unwrap();
        let diff = c1.iter().zip(&c2).filter(|(a, b)| a != b).count();
        assert!(diff >= rs.distance());
    }

    #[test]
    fn consistency_vacuous_below_k() {
        let rs = code(7, 3);
        assert!(rs.is_consistent(&[(0, Gf65536::new(5)), (3, Gf65536::new(9))]).unwrap());
        assert!(rs.is_consistent(&[]).unwrap());
    }

    #[test]
    fn consistency_with_exactly_k_symbols_is_always_true() {
        let rs = code(7, 3);
        // Any k points define some polynomial of degree < k.
        let picks = [(0, Gf65536::new(1)), (1, Gf65536::new(200)), (6, Gf65536::new(77))];
        assert!(rs.is_consistent(&picks).unwrap());
    }

    #[test]
    fn inconsistent_symbols_detected_and_reported_by_decode() {
        let rs = code(7, 3);
        let cw = rs.encode(&data(&[8, 8, 8])).unwrap();
        let mut pairs: Vec<_> = cw.iter().copied().enumerate().collect();
        pairs[5].1 += Gf65536::new(3);
        assert_eq!(rs.decode(&pairs), Err(CodeError::Inconsistent));
        assert!(!rs.is_consistent(&pairs).unwrap());
    }

    #[test]
    fn bad_positions_rejected() {
        let rs = code(7, 3);
        assert_eq!(
            rs.is_consistent(&[(7, Gf65536::ZERO)]),
            Err(CodeError::BadPosition { position: 7 })
        );
        assert_eq!(
            rs.decode(&[(1, Gf65536::ZERO), (1, Gf65536::ONE), (2, Gf65536::ZERO)]),
            Err(CodeError::BadPosition { position: 1 })
        );
    }

    #[test]
    fn not_enough_symbols_rejected() {
        let rs = code(7, 3);
        assert_eq!(
            rs.decode(&[(0, Gf65536::ZERO)]),
            Err(CodeError::NotEnoughSymbols { needed: 3, got: 1 })
        );
    }

    #[test]
    fn extend_recovers_missing_symbols() {
        let rs = code(9, 4);
        let d = data(&[5, 6, 7, 8]);
        let cw = rs.encode(&d).unwrap();
        let partial: Vec<_> = cw.iter().copied().enumerate().take(4).collect();
        assert_eq!(rs.extend(&partial).unwrap(), cw);
    }

    #[test]
    fn zero_data_encodes_to_zero_codeword() {
        let rs = code(5, 2);
        let cw = rs.encode(&data(&[0, 0])).unwrap();
        assert!(cw.iter().all(|s| s.is_zero()));
    }

    #[test]
    fn decode_pads_short_polynomials() {
        // Data whose polynomial has low degree must still decode to k
        // symbols (trailing zeros preserved).
        let rs = code(6, 3);
        let d = data(&[9, 0, 0]);
        let cw = rs.encode(&d).unwrap();
        let picks: Vec<_> = cw.iter().copied().enumerate().take(3).collect();
        assert_eq!(rs.decode(&picks).unwrap(), d);
    }

    #[test]
    fn rate_one_code_is_identity_like() {
        let rs = code(4, 4);
        let d = data(&[1, 2, 3, 4]);
        let cw = rs.encode(&d).unwrap();
        let picks: Vec<_> = cw.iter().copied().enumerate().collect();
        assert_eq!(rs.decode(&picks).unwrap(), d);
        assert_eq!(rs.distance(), 1);
    }

    #[test]
    fn error_display_strings() {
        let e = CodeError::InvalidParameters { n: 3, k: 9, field_order: 65_536 };
        assert!(e.to_string().contains("invalid"));
        assert!(CodeError::Inconsistent.to_string().contains("codeword"));
        assert!(CodeError::NotEnoughSymbols { needed: 3, got: 1 }
            .to_string()
            .contains("at least 3"));
    }

    #[test]
    fn large_field_large_code() {
        let rs = ReedSolomon::new(64, 22).unwrap();
        let d: Vec<Gf65536> = (0..22).map(|i| Gf65536::new(i * 997)).collect();
        let cw = rs.encode(&d).unwrap();
        let picks: Vec<_> = cw.iter().copied().enumerate().skip(42).collect();
        assert_eq!(picks.len(), 22);
        assert_eq!(rs.decode(&picks).unwrap(), d);
    }
}
