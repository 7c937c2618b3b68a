//! The [`Field`] trait and the concrete GF(2^4), GF(2^8), GF(2^16) fields.
//!
//! All three share one table-driven element arithmetic. Only [`Gf65536`],
//! the field the workspace codes over, overrides the slice kernels with
//! the packed tiers of `crate::packed`; GF(2^4) and GF(2^8) (tests and
//! small examples) run the trait's scalar defaults.

use std::fmt;
use std::hash::Hash;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::tables;

/// A finite field of characteristic 2, suitable for Reed-Solomon coding.
///
/// Addition is XOR (hence `sub == add` and `neg == id`). Multiplication and
/// inversion are table-driven in the provided implementations.
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
pub trait Field:
    Copy
    + Clone
    + Eq
    + PartialEq
    + Ord
    + PartialOrd
    + Hash
    + fmt::Debug
    + fmt::Display
    + Default
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Neg<Output = Self>
    + 'static
{
    /// Number of bits in one field element.
    const BITS: u32;
    /// Number of field elements, i.e. `2^BITS`.
    const ORDER: u64;
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;

    /// Constructs an element from the low `BITS` bits of `raw`.
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

    /// Division; returns `None` when `rhs` is zero.
    fn checked_div(self, rhs: Self) -> Option<Self> {
        rhs.inv().map(|r| self * r)
    }

    /// True if this is the additive identity.
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Batch kernel `dst[i] += c * src[i]` (the fused multiply-accumulate
    /// of every Reed-Solomon matrix row application).
    ///
    /// The default is the scalar reference loop
    /// ([`crate::kernels::addmul_slice_scalar`]); [`Gf65536`] overrides it
    /// with the packed split-table kernels.
    ///
    /// # Panics
    ///
    /// Panics when `src` and `dst` differ in length.
    fn addmul_slice(c: Self, src: &[Self], dst: &mut [Self]) {
        crate::kernels::addmul_slice_scalar(c, src, dst);
    }

    /// Fused batch kernel `dst[i] += Σ_j coeffs[j] * srcs[j][i]` — one
    /// whole matrix-row application in a single pass over `dst`.
    ///
    /// Semantically identical to `coeffs.len()` successive
    /// [`Field::addmul_slice`] calls (which is the default
    /// implementation); [`Gf65536`] overrides it to visit the
    /// accumulator once instead of once per source. See
    /// [`crate::kernels::addmul_rows`].
    ///
    /// # Panics
    ///
    /// Panics when `coeffs` and `srcs` differ in length, or any source
    /// differs in length from `dst`.
    fn addmul_rows(coeffs: &[Self], srcs: &[&[Self]], dst: &mut [Self]) {
        assert_eq!(coeffs.len(), srcs.len(), "addmul_rows shape mismatch");
        for (&c, src) in coeffs.iter().zip(srcs) {
            Self::addmul_slice(c, src, dst);
        }
    }
}

macro_rules! impl_gf {
    (
        $(#[$meta:meta])*
        $name:ident, $repr:ty, $bits:expr, $tables:path $(, $packed:path)?
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name($repr);

        impl $name {
            /// Constructs an element from its canonical integer
            /// representation.
            pub const fn new(raw: $repr) -> Self {
                Self(raw)
            }

            /// Returns the raw integer representation.
            pub const fn raw(self) -> $repr {
                self.0
            }
        }

        impl Field for $name {
            const BITS: u32 = $bits;
            const ORDER: u64 = 1 << $bits;
            const ZERO: Self = Self(0);
            const ONE: Self = Self(1);

            fn from_u64(raw: u64) -> Self {
                Self((raw & (Self::ORDER - 1)) as $repr)
            }

            fn to_u64(self) -> u64 {
                self.0 as u64
            }

            fn inv(self) -> Option<Self> {
                if self.0 == 0 {
                    return None;
                }
                let t = $tables();
                let group = (Self::ORDER - 1) as u32;
                let l = t.log[self.0 as usize];
                Some(Self(t.exp[(group - l) as usize] as $repr))
            }

            fn generator() -> Self {
                Self(2)
            }

            fn alpha(i: usize) -> Self {
                assert!(
                    (i as u64) < Self::ORDER - 1,
                    "evaluation point index {i} out of range for GF(2^{})",
                    Self::BITS
                );
                let t = $tables();
                Self(t.exp[i] as $repr)
            }

            $(
                // Packed slice kernels: split tables built once per
                // multiplier, `u64`-packed XOR accumulate, log-domain
                // fallback for short slices. See [`crate::packed`].
                fn addmul_slice(c: Self, src: &[Self], dst: &mut [Self]) {
                    use $packed as packed;
                    packed::addmul_slice(c, src, dst);
                }

                fn addmul_rows(coeffs: &[Self], srcs: &[&[Self]], dst: &mut [Self]) {
                    use $packed as packed;
                    packed::addmul_rows(coeffs, srcs, dst);
                }
            )?
        }

        impl Add for $name {
            type Output = Self;
            // XOR *is* addition in characteristic 2 — not a typo.
            #[allow(clippy::suspicious_arithmetic_impl)]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 ^ rhs.0)
            }
        }

        impl AddAssign for $name {
            #[allow(clippy::suspicious_op_assign_impl)]
            fn add_assign(&mut self, rhs: Self) {
                self.0 ^= rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[allow(clippy::suspicious_arithmetic_impl)]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 ^ rhs.0)
            }
        }

        impl SubAssign for $name {
            #[allow(clippy::suspicious_op_assign_impl)]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 ^= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                self
            }
        }

        impl Mul for $name {
            type Output = Self;
            fn mul(self, rhs: Self) -> Self {
                if self.0 == 0 || rhs.0 == 0 {
                    return Self(0);
                }
                let t = $tables();
                let l = t.log[self.0 as usize] + t.log[rhs.0 as usize];
                Self(t.exp[l as usize] as $repr)
            }
        }

        impl MulAssign for $name {
            fn mul_assign(&mut self, rhs: Self) {
                *self = *self * rhs;
            }
        }

        impl Div for $name {
            type Output = Self;
            /// # Panics
            ///
            /// Panics on division by zero; use [`Field::checked_div`] to
            /// handle the zero divisor case.
            fn div(self, rhs: Self) -> Self {
                self.checked_div(rhs).expect("division by zero in GF(2^c)")
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl fmt::Binary for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Binary::fmt(&self.0, f)
            }
        }

        impl fmt::Octal for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Octal::fmt(&self.0, f)
            }
        }

        impl From<$repr> for $name {
            fn from(raw: $repr) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(v: $name) -> u64 {
                v.0 as u64
            }
        }
    };
}

impl_gf!(
    /// GF(2^4): 16 elements; supports Reed-Solomon codes with `n <= 15`.
    Gf16,
    u8,
    4,
    tables::tables16
);

impl_gf!(
    /// GF(2^8): 256 elements; supports Reed-Solomon codes with `n <= 255`.
    Gf256,
    u8,
    8,
    tables::tables256
);

impl_gf!(
    /// GF(2^16): 65536 elements; the workspace default coding field.
    Gf65536,
    u16,
    16,
    tables::tables65536,
    crate::packed::gf65536
);

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn field_types_are_send_sync() {
        assert_send_sync::<Gf16>();
        assert_send_sync::<Gf256>();
        assert_send_sync::<Gf65536>();
    }

    fn exhaustive_axioms<F: Field>(elems: impl Iterator<Item = u64> + Clone) {
        for a in elems.clone() {
            let a = F::from_u64(a);
            assert_eq!(a + F::ZERO, a);
            assert_eq!(a * F::ONE, a);
            assert_eq!(a * F::ZERO, F::ZERO);
            assert_eq!(a + a, F::ZERO, "characteristic 2");
            assert_eq!(-a, a);
            if !a.is_zero() {
                let i = a.inv().unwrap();
                assert_eq!(a * i, F::ONE);
            } else {
                assert!(a.inv().is_none());
            }
        }
    }

    #[test]
    fn gf16_axioms_exhaustive() {
        exhaustive_axioms::<Gf16>(0..16);
        // Full associativity/commutativity/distributivity over all triples.
        for a in 0..16u64 {
            for b in 0..16u64 {
                let (fa, fb) = (Gf16::from_u64(a), Gf16::from_u64(b));
                assert_eq!(fa * fb, fb * fa);
                assert_eq!(fa + fb, fb + fa);
                for c in 0..16u64 {
                    let fc = Gf16::from_u64(c);
                    assert_eq!((fa * fb) * fc, fa * (fb * fc));
                    assert_eq!(fa * (fb + fc), fa * fb + fa * fc);
                }
            }
        }
    }

    #[test]
    fn gf256_axioms_exhaustive() {
        exhaustive_axioms::<Gf256>(0..256);
    }

    #[test]
    fn gf65536_axioms_sampled() {
        exhaustive_axioms::<Gf65536>((0..65536).step_by(97));
    }

    #[test]
    fn gf256_mul_reference_cross_check() {
        // Carry-less "Russian peasant" multiplication as an independent
        // reference implementation.
        fn slow_mul(mut a: u16, mut b: u16) -> u8 {
            let mut acc: u16 = 0;
            while b != 0 {
                if b & 1 == 1 {
                    acc ^= a;
                }
                a <<= 1;
                if a & 0x100 != 0 {
                    a ^= 0x11D;
                }
                b >>= 1;
            }
            acc as u8
        }
        for a in 0..=255u16 {
            for b in (0..=255u16).step_by(7) {
                let expect = Gf256::new(slow_mul(a, b));
                assert_eq!(Gf256::new(a as u8) * Gf256::new(b as u8), expect);
            }
        }
    }

    #[test]
    fn generator_has_full_order() {
        let g = Gf256::generator();
        let mut x = Gf256::ONE;
        let mut seen = 0usize;
        loop {
            x *= g;
            seen += 1;
            if x == Gf256::ONE {
                break;
            }
        }
        assert_eq!(seen, 255, "generator must have order 2^8 - 1");
    }

    #[test]
    fn alpha_points_are_distinct() {
        let mut pts: Vec<u64> = (0..255).map(|i| Gf256::alpha(i).to_u64()).collect();
        pts.sort_unstable();
        pts.dedup();
        assert_eq!(pts.len(), 255);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn alpha_out_of_range_panics() {
        let _ = Gf16::alpha(15);
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
        let a = Gf256::new(200);
        let b = Gf256::new(3);
        assert_eq!((a / b) * b, a);
        assert_eq!(a.checked_div(Gf256::ZERO), None);
    }

    #[test]
    fn formatting_is_nonempty() {
        let a = Gf256::new(0);
        assert!(!format!("{a:?}").is_empty());
        assert!(!format!("{a}").is_empty());
        assert_eq!(format!("{:x}", Gf256::new(0xab)), "ab");
        assert_eq!(format!("{:b}", Gf16::new(0b101)), "101");
    }

    #[test]
    fn from_u64_masks_high_bits() {
        assert_eq!(Gf256::from_u64(0x1_00 | 0x42), Gf256::new(0x42));
        assert_eq!(Gf16::from_u64(0xF0 | 0x5), Gf16::new(0x5));
    }
}
