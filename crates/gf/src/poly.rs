//! Dense univariate polynomials over [`Gf65536`].
//!
//! Used by the Reed-Solomon codec: encoding is polynomial evaluation,
//! erasure decoding is Lagrange interpolation, and Berlekamp-Welch error
//! correction needs polynomial multiplication and long division.

use std::fmt;

use crate::{Field, Gf65536};

/// Error returned by [`interpolate`] when the evaluation points are not
/// pairwise distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterpolateError;

impl fmt::Display for InterpolateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interpolation points are not pairwise distinct")
    }
}

impl std::error::Error for InterpolateError {}

/// A dense polynomial `c[0] + c[1] x + ... + c[d] x^d` over GF(2^16).
///
/// The representation is normalised: the leading coefficient is non-zero
/// (the zero polynomial has an empty coefficient vector).
///
/// # Examples
///
/// ```
/// use mvbc_gf::{Gf65536, Poly};
///
/// // p(x) = 3 + x
/// let p = Poly::from_coeffs(vec![Gf65536::new(3), Gf65536::new(1)]);
/// assert_eq!(p.eval(Gf65536::new(5)), Gf65536::new(3) + Gf65536::new(5));
/// assert_eq!(p.degree(), Some(1));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly {
    coeffs: Vec<Gf65536>,
}

impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.coeffs.is_empty() {
            return write!(f, "Poly(0)");
        }
        write!(f, "Poly(")?;
        for (i, c) in self.coeffs.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}*x^{i}")?;
        }
        write!(f, ")")
    }
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// Builds a polynomial from coefficients `c[0] + c[1] x + ...`,
    /// trimming leading zeros.
    pub fn from_coeffs(mut coeffs: Vec<Gf65536>) -> Self {
        while coeffs.last().is_some_and(|c| c.is_zero()) {
            coeffs.pop();
        }
        Poly { coeffs }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: Gf65536) -> Self {
        Self::from_coeffs(vec![c])
    }

    /// The monomial `c * x^d`.
    pub fn monomial(c: Gf65536, d: usize) -> Self {
        if c.is_zero() {
            return Self::zero();
        }
        let mut coeffs = vec![Gf65536::ZERO; d + 1];
        coeffs[d] = c;
        Poly { coeffs }
    }

    /// Coefficient view, lowest degree first. Empty for the zero polynomial.
    pub fn coeffs(&self) -> &[Gf65536] {
        &self.coeffs
    }

    /// Consumes the polynomial, returning its coefficients.
    pub fn into_coeffs(self) -> Vec<Gf65536> {
        self.coeffs
    }

    /// The coefficient of `x^i` (zero beyond the degree).
    pub fn coeff(&self, i: usize) -> Gf65536 {
        self.coeffs.get(i).copied().unwrap_or(Gf65536::ZERO)
    }

    /// `None` for the zero polynomial, `Some(degree)` otherwise.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// True if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Evaluates the polynomial at `x` via Horner's rule.
    pub fn eval(&self, x: Gf65536) -> Gf65536 {
        let mut acc = Gf65536::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// Polynomial addition (characteristic 2: also subtraction).
    pub fn add(&self, rhs: &Self) -> Self {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(self.coeff(i) + rhs.coeff(i));
        }
        Self::from_coeffs(out)
    }

    /// Polynomial multiplication (schoolbook; degrees here are small).
    pub fn mul(&self, rhs: &Self) -> Self {
        if self.is_zero() || rhs.is_zero() {
            return Self::zero();
        }
        let mut out = vec![Gf65536::ZERO; self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a.is_zero() {
                continue;
            }
            for (j, &b) in rhs.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Self::from_coeffs(out)
    }

    /// Multiplies every coefficient by the scalar `s`.
    pub fn scale(&self, s: Gf65536) -> Self {
        Self::from_coeffs(self.coeffs.iter().map(|&c| c * s).collect())
    }

    /// Long division: returns `(quotient, remainder)` with
    /// `self = quotient * divisor + remainder` and
    /// `deg(remainder) < deg(divisor)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is the zero polynomial.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "polynomial division by zero");
        let dd = divisor.degree().expect("non-zero divisor");
        let lead_inv = divisor.coeffs[dd].inv().expect("leading coeff non-zero");
        let mut rem = self.coeffs.clone();
        if rem.len() <= dd {
            return (Self::zero(), self.clone());
        }
        let qlen = rem.len() - dd;
        let mut quot = vec![Gf65536::ZERO; qlen];
        for qi in (0..qlen).rev() {
            let c = rem[qi + dd] * lead_inv;
            quot[qi] = c;
            if c.is_zero() {
                continue;
            }
            for (di, &dc) in divisor.coeffs.iter().enumerate() {
                rem[qi + di] -= c * dc;
            }
        }
        (Self::from_coeffs(quot), Self::from_coeffs(rem))
    }

    /// Formal derivative (over characteristic 2, even-power terms vanish).
    pub fn derivative(&self) -> Self {
        let mut out = Vec::new();
        for (i, &c) in self.coeffs.iter().enumerate().skip(1) {
            // i * c in characteristic 2 is c when i is odd, 0 when even.
            out.push(if i % 2 == 1 { c } else { Gf65536::ZERO });
        }
        Self::from_coeffs(out)
    }
}

/// Lagrange interpolation: the unique polynomial of degree `< points.len()`
/// passing through all `(x, y)` pairs.
///
/// # Errors
///
/// Returns [`InterpolateError`] when two points share an `x` coordinate.
///
/// # Examples
///
/// ```
/// use mvbc_gf::{interpolate, Gf65536};
///
/// let pts = [
///     (Gf65536::new(1), Gf65536::new(7)),
///     (Gf65536::new(2), Gf65536::new(11)),
///     (Gf65536::new(3), Gf65536::new(13)),
/// ];
/// let p = interpolate(&pts)?;
/// for (x, y) in pts {
///     assert_eq!(p.eval(x), y);
/// }
/// # Ok::<(), mvbc_gf::InterpolateError>(())
/// ```
pub fn interpolate(points: &[(Gf65536, Gf65536)]) -> Result<Poly, InterpolateError> {
    for (i, (xi, _)) in points.iter().enumerate() {
        for (xj, _) in &points[..i] {
            if xi == xj {
                return Err(InterpolateError);
            }
        }
    }
    let mut acc = Poly::zero();
    for (i, &(xi, yi)) in points.iter().enumerate() {
        if yi.is_zero() {
            continue;
        }
        // Basis polynomial l_i(x) = prod_{j != i} (x - x_j) / (x_i - x_j)
        let mut basis = Poly::constant(Gf65536::ONE);
        let mut denom = Gf65536::ONE;
        for (j, &(xj, _)) in points.iter().enumerate() {
            if j == i {
                continue;
            }
            basis = basis.mul(&Poly::from_coeffs(vec![xj, Gf65536::ONE])); // (x + xj) == (x - xj)
            denom *= xi - xj;
        }
        let scale = yi * denom.inv().expect("distinct points imply non-zero denominator");
        acc = acc.add(&basis.scale(scale));
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(cs: &[u16]) -> Poly {
        Poly::from_coeffs(cs.iter().map(|&c| Gf65536::new(c)).collect())
    }

    #[test]
    fn zero_polynomial_properties() {
        let z = Poly::zero();
        assert!(z.is_zero());
        assert_eq!(z.degree(), None);
        assert_eq!(z.eval(Gf65536::new(17)), Gf65536::ZERO);
        assert_eq!(format!("{z:?}"), "Poly(0)");
    }

    #[test]
    fn from_coeffs_trims_leading_zeros() {
        let p = poly(&[1, 2, 0, 0]);
        assert_eq!(p.degree(), Some(1));
        assert_eq!(p.coeffs().len(), 2);
    }

    #[test]
    fn eval_horner_matches_naive() {
        let p = poly(&[3, 1, 4, 1, 5]);
        for x in 0..=255u16 {
            let x = Gf65536::new(x);
            let mut naive = Gf65536::ZERO;
            let mut xp = Gf65536::ONE;
            for &c in p.coeffs() {
                naive += c * xp;
                xp *= x;
            }
            assert_eq!(p.eval(x), naive);
        }
    }

    #[test]
    fn add_is_char2_involution() {
        let p = poly(&[1, 2, 3]);
        assert!(p.add(&p).is_zero());
    }

    #[test]
    fn mul_degrees_add() {
        let a = poly(&[1, 1]); // deg 1
        let b = poly(&[2, 0, 1]); // deg 2
        assert_eq!(a.mul(&b).degree(), Some(3));
        assert_eq!(a.mul(&Poly::zero()).degree(), None);
    }

    #[test]
    fn mul_commutes_and_distributes() {
        let a = poly(&[1, 7, 3]);
        let b = poly(&[9, 2]);
        let c = poly(&[5, 0, 0, 8]);
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn div_rem_identity() {
        let a = poly(&[7, 3, 0, 1, 9]);
        let d = poly(&[2, 1, 1]);
        let (q, r) = a.div_rem(&d);
        assert!(r.degree() < d.degree());
        assert_eq!(q.mul(&d).add(&r), a);
    }

    #[test]
    fn div_rem_by_larger_degree_gives_zero_quotient() {
        let a = poly(&[7, 3]);
        let d = poly(&[2, 1, 1]);
        let (q, r) = a.div_rem(&d);
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_rem_by_zero_panics() {
        let _ = poly(&[1]).div_rem(&Poly::zero());
    }

    #[test]
    fn monomial_and_constant() {
        let m = Poly::monomial(Gf65536::new(5), 3);
        assert_eq!(m.degree(), Some(3));
        assert_eq!(m.coeff(3), Gf65536::new(5));
        assert_eq!(Poly::monomial(Gf65536::ZERO, 3), Poly::zero());
        assert_eq!(Poly::constant(Gf65536::new(9)).degree(), Some(0));
        assert_eq!(Poly::constant(Gf65536::ZERO).degree(), None);
    }

    #[test]
    fn derivative_char2() {
        // d/dx (c0 + c1 x + c2 x^2 + c3 x^3) = c1 + c3 x^2 in char 2.
        let p = poly(&[1, 2, 3, 4]);
        let d = p.derivative();
        assert_eq!(d.coeff(0), Gf65536::new(2));
        assert_eq!(d.coeff(1), Gf65536::ZERO);
        assert_eq!(d.coeff(2), Gf65536::new(4));
    }

    #[test]
    fn interpolate_roundtrip() {
        let p = poly(&[11, 22, 33, 44]);
        let pts: Vec<_> = (0..7)
            .map(|i| {
                let x = Gf65536::alpha(i);
                (x, p.eval(x))
            })
            .collect();
        let q = interpolate(&pts).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn interpolate_rejects_duplicate_x() {
        let pts = [
            (Gf65536::new(1), Gf65536::new(5)),
            (Gf65536::new(1), Gf65536::new(6)),
        ];
        assert_eq!(interpolate(&pts), Err(InterpolateError));
    }

    #[test]
    fn interpolate_degree_bound() {
        let pts: Vec<_> = (0..5)
            .map(|i| (Gf65536::alpha(i), Gf65536::from_u64(i as u64 * 31 + 7)))
            .collect();
        let p = interpolate(&pts).unwrap();
        assert!(p.degree().unwrap_or(0) < 5);
        for (x, y) in pts {
            assert_eq!(p.eval(x), y);
        }
    }

    #[test]
    fn interpolate_single_point() {
        let p = interpolate(&[(Gf65536::new(3), Gf65536::new(9))]).unwrap();
        assert_eq!(p, Poly::constant(Gf65536::new(9)));
    }

    #[test]
    fn interpolate_error_display() {
        let msg = InterpolateError.to_string();
        assert!(msg.contains("distinct"));
    }
}
