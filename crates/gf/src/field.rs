//! The coding field GF(2^16) as [`Gf65536`], and the [`Field`] trait
//! that names its element operations.
//!
//! Element arithmetic is table-driven (see `crate::tables`); the slice
//! kernels live in [`crate::kernels`].

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::tables;

/// The element operations of the coding field.
///
/// [`Gf65536`] is the only implementation and no code takes the trait
/// as a bound; it keeps the element constants and operations under the
/// name the benchmark's probes import. Addition is XOR (hence
/// `sub == add` and `neg == id`).
///
/// # Examples
///
/// ```
/// use mvbc_gf::{Field, Gf65536};
///
/// let a = Gf65536::new(12345);
/// assert_eq!(a + a, Gf65536::ZERO); // characteristic 2
/// assert_eq!(a.pow(Gf65536::ORDER - 1), Gf65536::ONE); // Fermat
/// ```
pub trait Field: Copy {
    /// Number of field elements, i.e. `2^16`.
    const ORDER: u64;
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;

    /// Constructs an element from the low 16 bits of `raw`.
    fn from_u64(raw: u64) -> Self;

    /// Returns the canonical integer representation of the element.
    fn to_u64(self) -> u64;

    /// Returns the multiplicative inverse, or `None` for zero.
    fn inv(self) -> Option<Self>;

    /// Returns a fixed generator of the multiplicative group.
    fn generator() -> Self;

    /// Returns the `i`-th distinct non-zero evaluation point `g^i`.
    ///
    /// Reed-Solomon codewords are evaluations of the data polynomial at
    /// `alpha(0), ..., alpha(n-1)`; these are pairwise distinct for
    /// `n <= ORDER - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= ORDER - 1` (there are only `ORDER - 1` non-zero
    /// points).
    fn alpha(i: usize) -> Self;

    /// Exponentiation by squaring (exponent interpreted over the integers).
    fn pow(self, e: u64) -> Self;

    /// Division; returns `None` when `rhs` is zero.
    fn checked_div(self, rhs: Self) -> Option<Self>;

    /// True if this is the additive identity.
    fn is_zero(self) -> bool;
}

/// GF(2^16): 65536 elements; supports Reed-Solomon codes with
/// `n <= 65535`. The workspace's coding field.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gf65536(u16);

impl Gf65536 {
    /// Constructs an element from its canonical integer representation.
    pub const fn new(raw: u16) -> Self {
        Self(raw)
    }

    /// Returns the raw integer representation.
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl Field for Gf65536 {
    const ORDER: u64 = 1 << 16;
    const ZERO: Self = Self(0);
    const ONE: Self = Self(1);

    fn from_u64(raw: u64) -> Self {
        Self(raw as u16)
    }

    fn to_u64(self) -> u64 {
        u64::from(self.0)
    }

    fn inv(self) -> Option<Self> {
        if self.0 == 0 {
            return None;
        }
        let t = tables::tables65536();
        let group = (Self::ORDER - 1) as u32;
        Some(Self(t.exp[(group - t.log[self.0 as usize]) as usize] as u16))
    }

    fn generator() -> Self {
        Self(2)
    }

    fn alpha(i: usize) -> Self {
        assert!(
            (i as u64) < Self::ORDER - 1,
            "evaluation point index {i} out of range for GF(2^16)"
        );
        Self(tables::tables65536().exp[i] as u16)
    }

    fn pow(self, mut e: u64) -> Self {
        let mut base = self;
        let mut acc = Self::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base = base * base;
            e >>= 1;
        }
        acc
    }

    fn checked_div(self, rhs: Self) -> Option<Self> {
        rhs.inv().map(|r| self * r)
    }

    fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Gf65536 {
    type Output = Self;
    // XOR *is* addition in characteristic 2 — not a typo.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf65536 {
    #[allow(clippy::suspicious_op_assign_impl)]
    fn add_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf65536 {
    type Output = Self;
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf65536 {
    #[allow(clippy::suspicious_op_assign_impl)]
    fn sub_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf65536 {
    type Output = Self;
    fn neg(self) -> Self {
        self
    }
}

impl Mul for Gf65536 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        if self.0 == 0 || rhs.0 == 0 {
            return Self(0);
        }
        let t = tables::tables65536();
        let l = t.log[self.0 as usize] + t.log[rhs.0 as usize];
        Self(t.exp[l as usize] as u16)
    }
}

impl MulAssign for Gf65536 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Div for Gf65536 {
    type Output = Self;
    /// # Panics
    ///
    /// Panics on division by zero; use [`Field::checked_div`] to
    /// handle the zero divisor case.
    fn div(self, rhs: Self) -> Self {
        self.checked_div(rhs).expect("division by zero in GF(2^16)")
    }
}

impl fmt::Debug for Gf65536 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf65536({:#x})", self.0)
    }
}

impl fmt::Display for Gf65536 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    /// xorshift samples covering the whole element range.
    fn samples(len: usize, seed: u64) -> Vec<Gf65536> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                Gf65536::from_u64(state)
            })
            .collect()
    }

    #[test]
    fn field_types_are_send_sync() {
        assert_send_sync::<Gf65536>();
    }

    #[test]
    fn gf65536_axioms_sampled() {
        for a in (0..65536).step_by(97) {
            let a = Gf65536::from_u64(a);
            assert_eq!(a + Gf65536::ZERO, a);
            assert_eq!(a * Gf65536::ONE, a);
            assert_eq!(a * Gf65536::ZERO, Gf65536::ZERO);
            assert_eq!(a + a, Gf65536::ZERO, "characteristic 2");
            assert_eq!(-a, a);
            if !a.is_zero() {
                assert_eq!(a * a.inv().unwrap(), Gf65536::ONE);
            } else {
                assert!(a.inv().is_none());
            }
        }
    }

    /// Associativity, commutativity and distributivity on sampled
    /// triples, including the identities and the top element.
    #[test]
    fn ring_axioms_on_sampled_triples() {
        let mut elems = samples(40, 0x5EED);
        elems.extend([0, 1, 2, 0xffff].map(Gf65536::new));
        for &a in &elems {
            for &b in &elems {
                assert_eq!(a * b, b * a);
                assert_eq!(a + b, b + a);
                for &c in &elems {
                    assert_eq!((a * b) * c, a * (b * c));
                    assert_eq!((a + b) + c, a + (b + c));
                    assert_eq!(a * (b + c), a * b + a * c);
                }
            }
        }
    }

    #[test]
    fn mul_matches_carryless_reference() {
        // Carry-less "Russian peasant" multiplication modulo the field's
        // polynomial x^16 + x^12 + x^3 + x + 1, independent of the
        // log/exp tables.
        fn slow_mul(a: u16, mut b: u16) -> u16 {
            let mut a = u32::from(a);
            let mut acc = 0u32;
            while b != 0 {
                if b & 1 == 1 {
                    acc ^= a;
                }
                a <<= 1;
                if a & 0x1_0000 != 0 {
                    a ^= 0x1100B;
                }
                b >>= 1;
            }
            acc as u16
        }
        for a in (0..=0xffffu16).step_by(251).chain([0xffff]) {
            for b in (0..=0xffffu16).step_by(509).chain([0xffff]) {
                assert_eq!(Gf65536::new(a) * Gf65536::new(b), Gf65536::new(slow_mul(a, b)));
            }
        }
    }

    #[test]
    fn generator_has_full_order() {
        let g = Gf65536::generator();
        let mut x = Gf65536::ONE;
        let mut seen = 0usize;
        loop {
            x *= g;
            seen += 1;
            if x == Gf65536::ONE {
                break;
            }
        }
        assert_eq!(seen, 65_535, "generator must have order 2^16 - 1");
    }

    #[test]
    fn alpha_points_are_distinct() {
        let mut pts: Vec<u64> = (0..65_535).map(|i| Gf65536::alpha(i).to_u64()).collect();
        assert!(!pts.contains(&0));
        pts.sort_unstable();
        pts.dedup();
        assert_eq!(pts.len(), 65_535);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn alpha_out_of_range_panics() {
        let _ = Gf65536::alpha(65_535);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let a = Gf65536::new(0x1234);
        let mut acc = Gf65536::ONE;
        for e in 0..20u64 {
            assert_eq!(a.pow(e), acc);
            acc *= a;
        }
    }

    #[test]
    fn fermat_little_theorem() {
        for raw in [1u64, 2, 3, 0x7f, 0xff, 0x1234, 0xffff] {
            let a = Gf65536::from_u64(raw);
            assert_eq!(a.pow(Gf65536::ORDER - 1), Gf65536::ONE);
        }
    }

    #[test]
    fn div_and_checked_div() {
        let a = Gf65536::new(200);
        let b = Gf65536::new(3);
        assert_eq!((a / b) * b, a);
        assert_eq!(a.checked_div(Gf65536::ZERO), None);
    }

    #[test]
    fn formatting_is_nonempty() {
        let a = Gf65536::new(0);
        assert!(!format!("{a:?}").is_empty());
        assert!(!format!("{a}").is_empty());
        assert_eq!(format!("{:?}", Gf65536::new(0xab)), "Gf65536(0xab)");
        assert_eq!(format!("{}", Gf65536::new(0xab)), "0xab");
    }

    #[test]
    fn from_u64_masks_high_bits() {
        assert_eq!(Gf65536::from_u64(0x1_0000 | 0x42), Gf65536::new(0x42));
        assert_eq!(Gf65536::from_u64(u64::MAX), Gf65536::new(0xffff));
    }
}
