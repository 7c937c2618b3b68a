//! Lazily-built logarithm/anti-logarithm tables for GF(2^16).
//!
//! The field is represented by polynomials over GF(2) modulo the
//! primitive polynomial `x^16 + x^12 + x^3 + x + 1` (0x1100B).
//! Multiplication is performed via discrete-log tables:
//! `a * b = exp[(log[a] + log[b]) mod (2^16 - 1)]`.

use std::sync::OnceLock;

/// The field's primitive polynomial, so `x` generates the
/// multiplicative group.
const PRIM_POLY: u32 = 0x1100B;

/// Number of field elements.
const ORDER: u32 = 1 << 16;

/// Log/exp tables for GF(2^16).
#[derive(Debug)]
pub(crate) struct Tables {
    /// `exp[i] = g^i` for `i` in `0 .. 2 * (order - 1)` (doubled so that
    /// `log a + log b` never needs an explicit modulo).
    pub exp: Vec<u32>,
    /// `log[x]` for `x` in `1 .. order`; `log[0]` is unused (set to 0).
    pub log: Vec<u32>,
}

impl Tables {
    fn build() -> Self {
        let group = (ORDER - 1) as usize;
        let mut exp = vec![0u32; 2 * group];
        let mut log = vec![0u32; ORDER as usize];
        let mut x: u32 = 1;
        for (i, slot) in exp.iter_mut().enumerate().take(group) {
            *slot = x;
            log[x as usize] = i as u32;
            x <<= 1;
            if x & ORDER != 0 {
                x ^= PRIM_POLY;
            }
        }
        debug_assert_eq!(x, 1, "polynomial 0x{PRIM_POLY:x} is not primitive");
        for i in group..2 * group {
            exp[i] = exp[i - group];
        }
        Tables { exp, log }
    }
}

/// The process-wide GF(2^16) tables, built on first use.
pub(crate) fn tables65536() -> &'static Tables {
    static T: OnceLock<Tables> = OnceLock::new();
    T.get_or_init(Tables::build)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf65536_tables_consistent() {
        let t = tables65536();
        let group = (ORDER - 1) as usize;
        // exp is a permutation of 1..order over one period.
        let mut seen = vec![false; ORDER as usize];
        for i in 0..group {
            let v = t.exp[i] as usize;
            assert!(v > 0 && v < ORDER as usize);
            assert!(!seen[v], "exp not injective at {i}");
            seen[v] = true;
        }
        // log inverts exp.
        for i in 0..group {
            assert_eq!(t.log[t.exp[i] as usize] as usize, i);
        }
        // Doubled region mirrors the first period.
        for i in 0..group {
            assert_eq!(t.exp[i], t.exp[i + group]);
        }
    }
}
