//! Berlekamp-Welch error correction for Reed-Solomon codes.
//!
//! The Liang-Vaidya consensus algorithm only needs error *detection* (its
//! diagnosis stage localises faults interactively instead of correcting
//! them, which is what makes the low rate `n/(n-2t)` achievable). Error
//! *correction* is still needed elsewhere in this workspace:
//!
//! - the Fitzi-Hirt baseline reconstructs the agreed value from `n` symbol
//!   shares of which up to `t` may be corrupted, and
//! - it is exercised by property tests as an independent cross-check of the
//!   codec.
//!
//! Given `m` received symbols of an `(n, k)` code with at most
//! `e <= (m - k) / 2` corruptions, the decoder finds the unique data
//! polynomial by solving the classic key equation `Q(x) = P(x) E(x)` where
//! `E` is the monic error-locator polynomial.

use std::fmt;

use mvbc_gf::{solve_linear_system, Field, Gf65536, GfMatrix, Poly};

use crate::{CodeError, ReedSolomon};

/// Outcome of a successful Berlekamp-Welch decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corrected {
    /// The recovered `k` data symbols.
    pub data: Vec<Gf65536>,
    /// Positions (indices into the *input slice*) whose symbols disagreed
    /// with the decoded codeword.
    pub error_positions: Vec<usize>,
}

/// Error returned when correction is impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BwError {
    /// The input was malformed (delegated validation).
    Code(CodeError),
    /// More errors than `(m - k) / 2`; no codeword within range.
    TooManyErrors,
}

impl fmt::Display for BwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BwError::Code(e) => write!(f, "{e}"),
            BwError::TooManyErrors => write!(f, "too many symbol errors to correct"),
        }
    }
}

impl std::error::Error for BwError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BwError::Code(e) => Some(e),
            BwError::TooManyErrors => None,
        }
    }
}

impl From<CodeError> for BwError {
    fn from(e: CodeError) -> Self {
        BwError::Code(e)
    }
}

/// Decodes `symbols` (pairs of codeword position and received value),
/// correcting up to `(symbols.len() - k) / 2` corrupted symbols.
///
/// # Errors
///
/// - [`BwError::Code`] for malformed input (bad positions, fewer than `k`
///   symbols).
/// - [`BwError::TooManyErrors`] when no codeword lies within the correction
///   radius.
///
/// # Examples
///
/// ```
/// use mvbc_gf::{Field, Gf65536};
/// use mvbc_rscode::{berlekamp_welch::decode, ReedSolomon};
///
/// let rs = ReedSolomon::new(7, 3)?;
/// let data = [Gf65536::new(5), Gf65536::new(6), Gf65536::new(7)];
/// let mut cw = rs.encode(&data)?;
/// cw[1] += Gf65536::ONE; // one corruption: correctable ((7-3)/2 = 2)
/// let pairs: Vec<_> = cw.into_iter().enumerate().collect();
/// let out = decode(&rs, &pairs).expect("within correction radius");
/// assert_eq!(out.data, data.to_vec());
/// assert_eq!(out.error_positions, vec![1]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn decode(rs: &ReedSolomon, symbols: &[(usize, Gf65536)]) -> Result<Corrected, BwError> {
    let k = rs.k();
    let m = symbols.len();
    if m < k {
        return Err(CodeError::NotEnoughSymbols { needed: k, got: m }.into());
    }
    // Validate positions through the detection path (cheap).
    rs.is_consistent(&symbols[..k.min(m)]).map_err(BwError::from)?;
    let e_max = (m - k) / 2;

    // Fast path: already consistent.
    if rs.is_consistent(symbols)? {
        let data = rs.decode(&symbols[..k])?;
        // With <= e_max corruptions and full consistency, there are none.
        return Ok(Corrected {
            data,
            error_positions: Vec::new(),
        });
    }

    // Unknowns: Q coefficients (k + e_max), then E coefficients (e_max,
    // E monic of degree e_max). One equation per received symbol:
    //   Q(x_i) - y_i * (E_low(x_i)) = y_i * x_i^{e_max}
    let q_len = k + e_max;
    let unknowns = q_len + e_max;
    let a = GfMatrix::from_fn(m, unknowns, |r, c| {
        let (x, y) = {
            let (pos, y) = symbols[r];
            (rs.alpha(pos), y)
        };
        if c < q_len {
            x.pow(c as u64)
        } else {
            y * x.pow((c - q_len) as u64)
        }
    });
    let b: Vec<Gf65536> = symbols
        .iter()
        .map(|&(pos, y)| y * rs.alpha(pos).pow(e_max as u64))
        .collect();
    let sol = solve_linear_system(&a, &b).map_err(|_| BwError::TooManyErrors)?;

    let q = Poly::from_coeffs(sol[..q_len].to_vec());
    let mut e_coeffs = sol[q_len..].to_vec();
    e_coeffs.push(Gf65536::ONE); // monic
    let e_poly = Poly::from_coeffs(e_coeffs);
    let (p, rem) = q.div_rem(&e_poly);
    if !rem.is_zero() || p.degree().is_some_and(|d| d >= k) {
        return Err(BwError::TooManyErrors);
    }

    // Verify: count disagreements against the decoded codeword.
    let mut error_positions = Vec::new();
    for (i, &(pos, y)) in symbols.iter().enumerate() {
        if p.eval(rs.alpha(pos)) != y {
            error_positions.push(i);
        }
    }
    if error_positions.len() > e_max {
        return Err(BwError::TooManyErrors);
    }
    let mut data = p.into_coeffs();
    data.resize(k, Gf65536::ZERO);
    Ok(Corrected {
        data,
        error_positions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(n: usize, k: usize) -> ReedSolomon {
        ReedSolomon::new(n, k).unwrap()
    }

    fn enc(rs: &ReedSolomon, d: &[u16]) -> Vec<Gf65536> {
        rs.encode(&d.iter().map(|&x| Gf65536::new(x)).collect::<Vec<_>>())
            .unwrap()
    }

    #[test]
    fn no_errors_fast_path() {
        let c = rs(7, 3);
        let cw = enc(&c, &[1, 2, 3]);
        let pairs: Vec<_> = cw.into_iter().enumerate().collect();
        let out = decode(&c, &pairs).unwrap();
        assert_eq!(out.data, vec![Gf65536::new(1), Gf65536::new(2), Gf65536::new(3)]);
        assert!(out.error_positions.is_empty());
    }

    #[test]
    fn corrects_up_to_radius() {
        let c = rs(9, 3); // e_max = 3
        let clean = enc(&c, &[10, 20, 30]);
        for errs in 1..=3usize {
            let mut cw = clean.clone();
            for (j, item) in cw.iter_mut().enumerate().take(errs) {
                *item += Gf65536::new(j as u16 + 1);
            }
            let pairs: Vec<_> = cw.into_iter().enumerate().collect();
            let out = decode(&c, &pairs).unwrap_or_else(|e| panic!("errs={errs}: {e}"));
            assert_eq!(out.data, vec![Gf65536::new(10), Gf65536::new(20), Gf65536::new(30)]);
            assert_eq!(out.error_positions, (0..errs).collect::<Vec<_>>());
        }
    }

    #[test]
    fn beyond_radius_fails_or_misdecodes_consistently() {
        // With e_max + 1 errors the decoder must not return the original
        // codeword *silently wrong*: either TooManyErrors, or a valid
        // codeword within radius of the corrupted word.
        let c = rs(7, 3); // e_max = 2
        let clean = enc(&c, &[1, 1, 1]);
        let mut cw = clean.clone();
        cw[0] += Gf65536::new(9);
        cw[1] += Gf65536::new(9);
        cw[2] += Gf65536::new(9);
        let pairs: Vec<_> = cw.iter().copied().enumerate().collect();
        match decode(&c, &pairs) {
            Err(BwError::TooManyErrors) => {}
            Ok(out) => {
                // Must be a genuine codeword within the radius.
                let recoded = c
                    .encode(&out.data)
                    .expect("decoder returned k symbols");
                let dist = recoded.iter().zip(&cw).filter(|(a, b)| a != b).count();
                assert!(dist <= 2);
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn partial_view_with_errors() {
        // m = 6 of n = 9 symbols, e_max = (6-3)/2 = 1.
        let c = rs(9, 3);
        let cw = enc(&c, &[7, 8, 9]);
        let mut pairs: Vec<_> = cw.into_iter().enumerate().skip(3).collect();
        pairs[4].1 += Gf65536::ONE;
        let out = decode(&c, &pairs).unwrap();
        assert_eq!(out.data, vec![Gf65536::new(7), Gf65536::new(8), Gf65536::new(9)]);
        assert_eq!(out.error_positions, vec![4]);
    }

    #[test]
    fn too_few_symbols_rejected() {
        let c = rs(7, 3);
        let cw = enc(&c, &[1, 2, 3]);
        let pairs: Vec<_> = cw.into_iter().enumerate().take(2).collect();
        assert!(matches!(
            decode(&c, &pairs),
            Err(BwError::Code(CodeError::NotEnoughSymbols { .. }))
        ));
    }

    #[test]
    fn zero_error_margin_decodes_exact() {
        // m == k: no redundancy, decode trusts all symbols.
        let c = rs(7, 3);
        let cw = enc(&c, &[4, 5, 6]);
        let pairs: Vec<_> = cw.into_iter().enumerate().take(3).collect();
        let out = decode(&c, &pairs).unwrap();
        assert_eq!(out.data, vec![Gf65536::new(4), Gf65536::new(5), Gf65536::new(6)]);
    }

    #[test]
    fn error_display() {
        assert!(BwError::TooManyErrors.to_string().contains("too many"));
        let wrapped = BwError::from(CodeError::Inconsistent);
        assert!(wrapped.to_string().contains("codeword"));
        assert!(std::error::Error::source(&wrapped).is_some());
    }

    #[test]
    fn burst_of_t_errors_in_c2t() {
        // The Fitzi-Hirt use case: (n, t+1) code, correct t errors from n
        // shares: n = 7, t = 2 -> k = 3, e_max = 2.
        let c = rs(7, 3);
        let clean = enc(&c, &[0xde, 0xad, 0xbe]);
        let mut cw = clean;
        cw[2] = Gf65536::new(0);
        cw[5] = Gf65536::new(0xff);
        let pairs: Vec<_> = cw.into_iter().enumerate().collect();
        let out = decode(&c, &pairs).unwrap();
        assert_eq!(
            out.data,
            vec![Gf65536::new(0xde), Gf65536::new(0xad), Gf65536::new(0xbe)]
        );
        assert_eq!(out.error_positions.len(), 2);
    }
}
