//! Packed GF(2^16) slice kernels: split-table multiplication +
//! word-packed XOR.
//!
//! GF(2^16) is the field the workspace codes over: the striped codec
//! runs every stripe through these kernels, reached through
//! [`crate::kernels`].
//!
//! Resolving every product through the shared exp/log tables costs, for
//! GF(2^16), a probe into ~768 KiB of tables — a probable L2/L3 miss once
//! the slice no longer fits in cache — plus an `s != 0` branch in the
//! hot loop. For slices long enough to pay for it, the kernels here use
//! the standard fast-Reed-Solomon alternative: for each multiplier `c`,
//! build tiny *split tables* once per slice call, then combine per-part
//! lookups with XOR (multiplication distributes over the bitwise parts
//! of the operand):
//!
//! ```text
//! c * x  =  c * (x_lo + x_hi)  =  T_lo[x_lo] ^ T_hi[x_hi]
//! ```
//!
//! Each operation picks one of three tiers from the slice length alone:
//!
//! - below `SPLIT_MIN` (32) elements, the log-domain loop, where a table
//!   build would dominate;
//! - below `BYTE_TABLE_MIN` (1024), four nibble tables
//!   (4 × 16 × u16 = 128 bytes);
//! - from there on, low/high *byte* tables (2 × 256 × u16 = 1 KiB, still
//!   L1-resident), also available prebuilt as [`PreparedMul65536`] for
//!   multipliers that recur across calls.
//!
//! The table tiers are branch-free in the element loop, so throughput is
//! bounded by two (or four) L1 loads per element. The `c == 1`
//! accumulate path (`dst[i] ^= src[i]`, the single hottest kernel under
//! Reed-Solomon decode) is XOR over `u64`-packed words: `chunks_exact`
//! blocks are assembled with shift-and-or packing — safe code only,
//! `#![forbid(unsafe_code)]` stands — and the compiler lowers each block
//! to plain 64-bit loads and stores.
//!
//! Every function here is pinned element-for-element against the scalar
//! reference kernels by `crates/gf` unit tests and the workspace
//! equivalence suite (`tests/codec_equivalence.rs`), across odd lengths
//! and unaligned tails.

use crate::field::Gf65536;
use crate::tables::{self, Tables};

/// Minimum slice length before any split table is built; below this the
/// log-domain loop wins.
const SPLIT_MIN: usize = 32;

/// Minimum slice length before the kernels upgrade from nibble tables
/// (60 products to build) to byte tables (510 products to build).
const BYTE_TABLE_MIN: usize = 1024;

/// Four nibble tables: `tab[j][x] = c * (x << 4j)`.
#[inline]
fn nibble_tables(t: &Tables, c: u16) -> [[u16; 16]; 4] {
    let lc = t.log[c as usize];
    let mut tabs = [[0u16; 16]; 4];
    for (j, tab) in tabs.iter_mut().enumerate() {
        for (x, slot) in tab.iter_mut().enumerate().skip(1) {
            *slot = t.exp[(lc + t.log[x << (4 * j)]) as usize] as u16;
        }
    }
    tabs
}

#[inline]
fn nib_product(tabs: &[[u16; 16]; 4], s: u16) -> u16 {
    tabs[0][(s & 0xf) as usize]
        ^ tabs[1][((s >> 4) & 0xf) as usize]
        ^ tabs[2][((s >> 8) & 0xf) as usize]
        ^ tabs[3][(s >> 12) as usize]
}

/// `dst[i] += c * src[i]`, tiered by slice length.
pub(crate) fn addmul_slice(c: Gf65536, src: &[Gf65536], dst: &mut [Gf65536]) {
    assert_eq!(src.len(), dst.len(), "addmul_slice length mismatch");
    if c.raw() == 0 {
        return;
    }
    if c.raw() == 1 {
        xor_u16_repr(src, dst);
        return;
    }
    let t = tables::tables65536();
    if src.len() < SPLIT_MIN {
        let lc = t.log[c.raw() as usize];
        for (d, s) in dst.iter_mut().zip(src) {
            if s.raw() != 0 {
                *d = Gf65536::new(d.raw() ^ t.exp[(lc + t.log[s.raw() as usize]) as usize] as u16);
            }
        }
        return;
    }
    if src.len() < BYTE_TABLE_MIN {
        let tabs = nibble_tables(t, c.raw());
        for (d, s) in dst.iter_mut().zip(src) {
            *d = Gf65536::new(d.raw() ^ nib_product(&tabs, s.raw()));
        }
        return;
    }
    let p = PreparedMul65536::new(c);
    let mut d_blocks = dst.chunks_exact_mut(4);
    let mut s_blocks = src.chunks_exact(4);
    for (db, sb) in (&mut d_blocks).zip(&mut s_blocks) {
        for (d, s) in db.iter_mut().zip(sb) {
            *d = Gf65536::new(d.raw() ^ p.product(s.raw()));
        }
    }
    for (d, s) in d_blocks.into_remainder().iter_mut().zip(s_blocks.remainder()) {
        *d = Gf65536::new(d.raw() ^ p.product(s.raw()));
    }
}

/// Fused `dst[i] += Σ_j coeffs[j] * srcs[j][i]`: one split-table
/// pair per live source is built up front, then the accumulator is
/// visited exactly once — every source's product XORs into a
/// register before the single store. Compared with one
/// [`addmul_slice`] pass per source this removes `k - 1`
/// load+store round-trips over `dst` per element, which is the
/// dominant traffic of a generator-matrix row application.
pub(crate) fn addmul_rows(coeffs: &[Gf65536], srcs: &[&[Gf65536]], dst: &mut [Gf65536]) {
    check_rows_shape(coeffs, srcs, dst);
    if dst.len() < SPLIT_MIN {
        for (&c, src) in coeffs.iter().zip(srcs) {
            addmul_slice(c, src, dst);
        }
        return;
    }
    let len = dst.len();
    if len < BYTE_TABLE_MIN {
        let t = tables::tables65536();
        let live: Vec<([[u16; 16]; 4], &[Gf65536])> = coeffs
            .iter()
            .zip(srcs)
            .filter(|(c, _)| c.raw() != 0)
            .map(|(&c, &src)| (nibble_tables(t, c.raw()), &src[..len]))
            .collect();
        for (i, d) in dst.iter_mut().enumerate() {
            let mut acc = d.raw();
            for (tabs, src) in &live {
                acc ^= nib_product(tabs, src[i].raw());
            }
            *d = Gf65536::new(acc);
        }
        return;
    }
    // Byte tier: prepared tables + the shared fused group loop.
    let live_tables: Vec<PreparedMul65536> = coeffs
        .iter()
        .filter(|c| c.raw() != 0)
        .map(|&c| PreparedMul65536::new(c))
        .collect();
    let live_srcs: Vec<&[Gf65536]> = coeffs
        .iter()
        .zip(srcs)
        .filter(|(c, _)| c.raw() != 0)
        .map(|(_, &src)| src)
        .collect();
    addmul_rows_prepared(&live_tables, &live_srcs, dst);
}

/// Shared shape assertions for the fused `addmul_rows` kernels.
#[inline]
fn check_rows_shape(coeffs: &[Gf65536], srcs: &[&[Gf65536]], dst: &[Gf65536]) {
    assert_eq!(coeffs.len(), srcs.len(), "addmul_rows shape mismatch");
    for src in srcs {
        assert_eq!(src.len(), dst.len(), "addmul_rows length mismatch");
    }
}

/// A GF(2^16) multiplier prepared into low/high byte split tables:
/// `lo[x] = c * x`, `hi[x] = c * (x << 8)`, so
/// `c * s = lo[s & 0xff] ^ hi[s >> 8]` — 1 KiB per multiplier,
/// L1-resident, two loads per element.
///
/// Building a table costs 510 log/exp products, so preparation pays
/// once the multiplier is applied across at least ~1 KiB of data — or,
/// better, when the same prepared table is reused across many calls:
/// a Reed-Solomon generator matrix is fixed per `(n, k)` geometry, so
/// its `n·k` prepared tables amortize over every value ever encoded.
///
/// # Examples
///
/// ```
/// use mvbc_gf::{Field, Gf65536, PreparedMul65536};
///
/// let c = Gf65536::new(0x1d2c);
/// let p = PreparedMul65536::new(c);
/// let x = Gf65536::new(0xbeef);
/// assert_eq!(p.mul(x), c * x);
/// ```
#[derive(Debug, Clone)]
pub struct PreparedMul65536 {
    lo: [u16; 256],
    hi: [u16; 256],
}

impl PreparedMul65536 {
    /// Prepares the split tables for multiplier `c` (any `c`, including
    /// 0 and 1).
    pub fn new(c: Gf65536) -> Self {
        let mut lo = [0u16; 256];
        let mut hi = [0u16; 256];
        if c.raw() != 0 {
            let t = tables::tables65536();
            let lc = t.log[c.raw() as usize];
            for x in 1..256usize {
                lo[x] = t.exp[(lc + t.log[x]) as usize] as u16;
                hi[x] = t.exp[(lc + t.log[x << 8]) as usize] as u16;
            }
        }
        PreparedMul65536 { lo, hi }
    }

    /// `c * x` through the prepared tables.
    #[inline]
    pub fn mul(&self, x: Gf65536) -> Gf65536 {
        Gf65536::new(self.product(x.raw()))
    }

    #[inline]
    fn product(&self, s: u16) -> u16 {
        self.lo[(s & 0xff) as usize] ^ self.hi[(s >> 8) as usize]
    }
}

/// `dst[i] = Σ_j tables[j] * srcs[j][i]` — overwrite: the previous
/// contents of `dst` are not read, saving the accumulator load of the
/// accumulating form when the destination starts from zero (every
/// striped-codec row does).
///
/// # Panics
///
/// Panics when `tables` and `srcs` differ in length, or any source
/// differs in length from `dst`.
pub fn mul_rows_prepared(tables: &[PreparedMul65536], srcs: &[&[Gf65536]], dst: &mut [Gf65536]) {
    assert_eq!(tables.len(), srcs.len(), "prepared rows shape mismatch");
    for src in srcs {
        assert_eq!(src.len(), dst.len(), "prepared rows length mismatch");
    }
    if tables.is_empty() {
        dst.fill(Gf65536::new(0));
        return;
    }
    fused_groups::<false>(tables, srcs, dst);
}

/// `dst[i] += Σ_j tables[j] * srcs[j][i]` with prepared multipliers.
///
/// # Panics
///
/// Panics when `tables` and `srcs` differ in length, or any source
/// differs in length from `dst`.
pub(crate) fn addmul_rows_prepared(
    tables: &[PreparedMul65536],
    srcs: &[&[Gf65536]],
    dst: &mut [Gf65536],
) {
    assert_eq!(tables.len(), srcs.len(), "prepared rows shape mismatch");
    for src in srcs {
        assert_eq!(src.len(), dst.len(), "prepared rows length mismatch");
    }
    if tables.is_empty() {
        return;
    }
    fused_groups::<true>(tables, srcs, dst);
}

/// Dispatches to monomorphic fixed-arity loops in groups of three
/// sources: a dynamic source loop inside the element loop defeats
/// unrolling and hides the table base pointers behind an extra
/// indirection, while groups of three bound the accumulator
/// round-trips at `ceil(k / 3)` passes over `dst`. `ACC = false`
/// applies only to the first group (it overwrites); later groups
/// always accumulate.
fn fused_groups<const ACC: bool>(
    tables: &[PreparedMul65536],
    srcs: &[&[Gf65536]],
    dst: &mut [Gf65536],
) {
    let mut i = 0;
    let mut first = true;
    while tables.len() - i >= 3 {
        if first && !ACC {
            fused3::<false>(
                (&tables[i], srcs[i]),
                (&tables[i + 1], srcs[i + 1]),
                (&tables[i + 2], srcs[i + 2]),
                dst,
            );
        } else {
            fused3::<true>(
                (&tables[i], srcs[i]),
                (&tables[i + 1], srcs[i + 1]),
                (&tables[i + 2], srcs[i + 2]),
                dst,
            );
        }
        first = false;
        i += 3;
    }
    match tables.len() - i {
        1 if first && !ACC => fused1::<false>((&tables[i], srcs[i]), dst),
        1 => fused1::<true>((&tables[i], srcs[i]), dst),
        2 if first && !ACC => fused2::<false>((&tables[i], srcs[i]), (&tables[i + 1], srcs[i + 1]), dst),
        2 => fused2::<true>((&tables[i], srcs[i]), (&tables[i + 1], srcs[i + 1]), dst),
        _ => {}
    }
}

/// One prepared source; `ACC` selects accumulate vs overwrite.
fn fused1<const ACC: bool>(a: (&PreparedMul65536, &[Gf65536]), dst: &mut [Gf65536]) {
    let (ta, sa) = a;
    for (d, s) in dst.iter_mut().zip(sa) {
        let base = if ACC { d.raw() } else { 0 };
        *d = Gf65536::new(base ^ ta.product(s.raw()));
    }
}

/// Two prepared sources fused into one pass; four elements per block
/// for unrolled, independent lookup chains.
fn fused2<const ACC: bool>(
    a: (&PreparedMul65536, &[Gf65536]),
    b: (&PreparedMul65536, &[Gf65536]),
    dst: &mut [Gf65536],
) {
    let (ta, sa) = a;
    let (tb, sb) = b;
    let mut d_blocks = dst.chunks_exact_mut(4);
    let mut a_blocks = sa.chunks_exact(4);
    let mut b_blocks = sb.chunks_exact(4);
    for ((db, ab), bb) in (&mut d_blocks).zip(&mut a_blocks).zip(&mut b_blocks) {
        for i in 0..4 {
            let base = if ACC { db[i].raw() } else { 0 };
            db[i] = Gf65536::new(base ^ ta.product(ab[i].raw()) ^ tb.product(bb[i].raw()));
        }
    }
    for ((d, s_a), s_b) in d_blocks
        .into_remainder()
        .iter_mut()
        .zip(a_blocks.remainder())
        .zip(b_blocks.remainder())
    {
        let base = if ACC { d.raw() } else { 0 };
        *d = Gf65536::new(base ^ ta.product(s_a.raw()) ^ tb.product(s_b.raw()));
    }
}

/// Three prepared sources fused into one pass; four elements per block
/// for unrolled, independent lookup chains.
fn fused3<const ACC: bool>(
    a: (&PreparedMul65536, &[Gf65536]),
    b: (&PreparedMul65536, &[Gf65536]),
    c: (&PreparedMul65536, &[Gf65536]),
    dst: &mut [Gf65536],
) {
    let (ta, sa) = a;
    let (tb, sb) = b;
    let (tc, sc) = c;
    let mut d_blocks = dst.chunks_exact_mut(4);
    let mut a_blocks = sa.chunks_exact(4);
    let mut b_blocks = sb.chunks_exact(4);
    let mut c_blocks = sc.chunks_exact(4);
    for (((db, ab), bb), cb) in
        (&mut d_blocks).zip(&mut a_blocks).zip(&mut b_blocks).zip(&mut c_blocks)
    {
        for i in 0..4 {
            let base = if ACC { db[i].raw() } else { 0 };
            db[i] = Gf65536::new(
                base ^ ta.product(ab[i].raw()) ^ tb.product(bb[i].raw()) ^ tc.product(cb[i].raw()),
            );
        }
    }
    for (((d, s_a), s_b), s_c) in d_blocks
        .into_remainder()
        .iter_mut()
        .zip(a_blocks.remainder())
        .zip(b_blocks.remainder())
        .zip(c_blocks.remainder())
    {
        let base = if ACC { d.raw() } else { 0 };
        *d = Gf65536::new(
            base ^ ta.product(s_a.raw()) ^ tb.product(s_b.raw()) ^ tc.product(s_c.raw()),
        );
    }
}

/// `dst[i] ^= src[i]`, four elements (one `u64` word) per
/// `chunks_exact` block.
#[inline]
fn xor_u16_repr(src: &[Gf65536], dst: &mut [Gf65536]) {
    let mut d_blocks = dst.chunks_exact_mut(4);
    let mut s_blocks = src.chunks_exact(4);
    for (db, sb) in (&mut d_blocks).zip(&mut s_blocks) {
        let mut dw = 0u64;
        let mut sw = 0u64;
        for i in 0..4 {
            dw |= u64::from(db[i].raw()) << (16 * i);
            sw |= u64::from(sb[i].raw()) << (16 * i);
        }
        let w = dw ^ sw;
        for (i, d) in db.iter_mut().enumerate() {
            *d = Gf65536::new((w >> (16 * i)) as u16);
        }
    }
    for (d, s) in d_blocks.into_remainder().iter_mut().zip(s_blocks.remainder()) {
        *d = Gf65536::new(d.raw() ^ s.raw());
    }
}

#[cfg(test)]
mod tests {
    use crate::{kernels, Field, Gf65536};

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

    /// Every table tier and every tail shape against the scalar spec:
    /// lengths straddle the log-domain→nibble and nibble→byte-table
    /// thresholds and the 4-element packing blocks.
    #[test]
    fn packed_tiers_match_scalar_gf65536() {
        let lens = [
            0usize, 1, 3, 7, 8, 9, 31, 32, 33, 63, 64, 65, 255, 256, 257, 1023, 1024, 1025, 4097,
        ];
        for (i, &len) in lens.iter().enumerate() {
            let seed = 0xC0DE + i as u64;
            let src = pseudo_random(len, seed);
            let acc = pseudo_random(len, seed ^ 0xbeef);
            for craw in [0u16, 1, 2, 3, 0x0b, 0x55, 0xa7, 0x8001, 0xffff] {
                let c = Gf65536::new(craw);
                let mut fast = acc.clone();
                let mut slow = acc.clone();
                kernels::addmul_slice(c, &src, &mut fast);
                kernels::addmul_slice_scalar(c, &src, &mut slow);
                assert_eq!(fast, slow, "addmul_slice len={len} c={craw:#x}");
            }
        }
    }

    /// The fused row kernel against its scalar spec: every table tier,
    /// several source counts, and coefficient vectors that include the
    /// short-circuited 0 and 1 multipliers.
    #[test]
    fn fused_rows_match_scalar_gf65536() {
        for &len in &[0usize, 1, 31, 33, 257, 1023, 1025, 4097] {
            for k in [0usize, 1, 2, 3, 5] {
                let srcs: Vec<Vec<Gf65536>> = (0..k)
                    .map(|j| pseudo_random(len, 0xAB5E + j as u64 * 31 + len as u64))
                    .collect();
                let src_refs: Vec<&[Gf65536]> = srcs.iter().map(Vec::as_slice).collect();
                let coeffs: Vec<Gf65536> =
                    (0..k).map(|j| Gf65536::new([0, 1, 2, 0x55, 0xffff][j % 5])).collect();
                let acc = pseudo_random(len, len as u64 ^ 0xF00D);
                let mut fast = acc.clone();
                let mut slow = acc.clone();
                kernels::addmul_rows(&coeffs, &src_refs, &mut fast);
                kernels::addmul_rows_scalar(&coeffs, &src_refs, &mut slow);
                assert_eq!(fast, slow, "addmul_rows len={len} k={k}");
            }
        }
    }

    /// The prepared-table API against the scalar spec, in both
    /// overwrite and accumulate modes, across group shapes 0..=7.
    #[test]
    fn prepared_rows_match_scalar() {
        use super::addmul_rows_prepared;
        use crate::{mul_rows_prepared, PreparedMul65536};
        for &len in &[0usize, 1, 3, 4, 5, 257, 1025] {
            for k in 0..=7usize {
                let coeffs: Vec<Gf65536> =
                    (0..k).map(|j| Gf65536::new([0, 1, 7, 0x1d2c, 0xffff][j % 5])).collect();
                let tables: Vec<PreparedMul65536> =
                    coeffs.iter().map(|&c| PreparedMul65536::new(c)).collect();
                let srcs: Vec<Vec<Gf65536>> =
                    (0..k).map(|j| pseudo_random(len, 0xD00D + j as u64)).collect();
                let src_refs: Vec<&[Gf65536]> = srcs.iter().map(Vec::as_slice).collect();
                let acc = pseudo_random(len, 0xACC + len as u64);

                let mut over = acc.clone();
                mul_rows_prepared(&tables, &src_refs, &mut over);
                let mut expect = vec![Gf65536::ZERO; len];
                kernels::addmul_rows_scalar(&coeffs, &src_refs, &mut expect);
                assert_eq!(over, expect, "mul_rows_prepared len={len} k={k}");

                let mut add = acc.clone();
                addmul_rows_prepared(&tables, &src_refs, &mut add);
                let mut expect = acc.clone();
                kernels::addmul_rows_scalar(&coeffs, &src_refs, &mut expect);
                assert_eq!(add, expect, "addmul_rows_prepared len={len} k={k}");
            }
        }
    }

    /// The XOR fast path is exercised with misaligned tails of every
    /// residue class modulo the packing block.
    #[test]
    fn xor_path_covers_all_tail_residues() {
        for len in 0..40usize {
            let src = pseudo_random(len, len as u64 + 1);
            let acc = pseudo_random(len, len as u64 + 77);
            let mut fast = acc.clone();
            let mut slow = acc.clone();
            kernels::addmul_slice(Gf65536::ONE, &src, &mut fast);
            kernels::addmul_slice_scalar(Gf65536::ONE, &src, &mut slow);
            assert_eq!(fast, slow, "xor tail len={len}");
        }
    }
}
