//! Batched slice kernels over [`Gf65536`] — the codec hot loop.
//!
//! Reed-Solomon encode, decode, and consistency checking over a striped
//! code all reduce to row applications `out[i] ^= c * in[i]` where one
//! multiplier `c` (a generator-matrix or inverted-Vandermonde entry) is
//! applied across a whole slice of field elements (one element per
//! stripe). The kernels here are the single place that loop is written:
//!
//! - [`addmul_slice`] — `dst[i] += c * src[i]` (XOR-accumulate in
//!   characteristic 2)
//! - [`addmul_rows`] — `dst[i] += Σ_j coeffs[j] * srcs[j][i]`, a whole
//!   matrix-row application fused into one pass over the accumulator
//!
//! Both run *packed split-table* loops (see the `packed` module):
//! per-multiplier split tables are built once per slice call and
//! combined branch-free with XOR, the `c == 1` accumulate path XORs
//! `u64`-packed words via `chunks_exact`, `c == 0` is a no-op, and short
//! slices fall back to the log-domain loop. The `*_scalar` twins keep
//! the naive per-element formulation as an executable specification;
//! the equivalence suite pins kernel == scalar on random inputs for
//! every table tier and every tail alignment.
//!
//! # Examples
//!
//! ```
//! use mvbc_gf::{kernels, Field, Gf65536};
//!
//! let c = Gf65536::new(0x1d2c);
//! let src: Vec<Gf65536> = (0u16..64).map(|i| Gf65536::new(i * 997)).collect();
//! let mut fast = vec![Gf65536::ZERO; 64];
//! let mut slow = vec![Gf65536::ZERO; 64];
//! kernels::addmul_slice(c, &src, &mut fast);
//! kernels::addmul_slice_scalar(c, &src, &mut slow);
//! assert_eq!(fast, slow);
//! ```

use crate::{packed, Gf65536};

/// `dst[i] += c * src[i]` via the packed kernel.
///
/// # Panics
///
/// Panics when `src` and `dst` differ in length.
pub fn addmul_slice(c: Gf65536, src: &[Gf65536], dst: &mut [Gf65536]) {
    packed::addmul_slice(c, src, dst);
}

/// `dst[i] += Σ_j coeffs[j] * srcs[j][i]` via the fused kernel.
///
/// One generator-matrix (or inverted-Vandermonde) row applied to all
/// `coeffs.len()` sources in a single pass over `dst`: it builds one
/// set of split tables per non-zero coefficient up front, then XORs
/// every source's product into a register before the single
/// accumulator store. Equivalent to `coeffs.len()` successive
/// [`addmul_slice`] calls, but without the `k - 1` extra load+store
/// round-trips over `dst` per element.
///
/// # Panics
///
/// Panics when `coeffs` and `srcs` differ in length, or any source
/// differs in length from `dst`.
pub fn addmul_rows(coeffs: &[Gf65536], srcs: &[&[Gf65536]], dst: &mut [Gf65536]) {
    packed::addmul_rows(coeffs, srcs, dst);
}

/// Scalar reference for [`addmul_slice`].
///
/// # Panics
///
/// Panics when `src` and `dst` differ in length.
pub fn addmul_slice_scalar(c: Gf65536, src: &[Gf65536], dst: &mut [Gf65536]) {
    assert_eq!(src.len(), dst.len(), "addmul_slice length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += c * s;
    }
}

/// Scalar reference for [`addmul_rows`]: one [`addmul_slice_scalar`]
/// pass per coefficient.
///
/// # Panics
///
/// Panics when `coeffs` and `srcs` differ in length, or any source
/// differs in length from `dst`.
pub fn addmul_rows_scalar(coeffs: &[Gf65536], srcs: &[&[Gf65536]], dst: &mut [Gf65536]) {
    assert_eq!(coeffs.len(), srcs.len(), "addmul_rows shape mismatch");
    for (&c, src) in coeffs.iter().zip(srcs) {
        addmul_slice_scalar(c, src, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Field;

    fn pseudo_random(len: usize, seed: u64) -> Vec<Gf65536> {
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
    fn kernels_match_scalar_gf65536() {
        for (seed, len) in [(1u64, 0usize), (2, 1), (3, 7), (4, 64), (5, 257)] {
            let src = pseudo_random(len, seed);
            let acc = pseudo_random(len, seed ^ 0xfeed);
            // Include the short-circuited multipliers 0 and 1.
            for craw in [0u16, 1, 2, 3, 0x55, 0xffff] {
                let c = Gf65536::new(craw);
                let mut fast = acc.clone();
                let mut slow = acc.clone();
                addmul_slice(c, &src, &mut fast);
                addmul_slice_scalar(c, &src, &mut slow);
                assert_eq!(fast, slow, "addmul_slice c={craw:#x}");
            }
        }
    }

    #[test]
    fn addmul_accumulates() {
        let c = Gf65536::new(7);
        let src = [Gf65536::new(3); 4];
        let mut dst = [Gf65536::new(9); 4];
        addmul_slice(c, &src, &mut dst);
        assert_eq!(dst, [Gf65536::new(9) + Gf65536::new(7) * Gf65536::new(3); 4]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let src = [Gf65536::ONE; 3];
        let mut dst = [Gf65536::ZERO; 2];
        addmul_slice(Gf65536::ONE, &src, &mut dst);
    }
}
