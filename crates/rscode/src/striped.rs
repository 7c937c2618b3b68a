//! Striped Reed-Solomon coding of arbitrary-length byte values.
//!
//! The paper represents a `D`-bit generation value as `k = n - 2t` data
//! symbols of `D / (n - 2t)` bits each, encoded with `C_2t` over a field
//! large enough to hold one symbol. We instead fix the field at GF(2^16)
//! and run `s = ceil(chunk_bytes / 2)` *interleaved* codewords ("stripes"):
//! stripe `j` encodes the `j`-th 16-bit element of every data chunk. A
//! codeword position then carries one 16-bit element per stripe, which
//! together form one paper-symbol of `chunk_bytes * 8` logical bits.
//!
//! Equality of two symbols, consistency of a symbol set, and decoding all
//! behave exactly as in the paper because they hold iff they hold
//! stripe-wise.
//!
//! Every encode, check and decode is a set of matrix rows applied to all
//! stripes at once, and the stripe count alone picks one of three
//! GF(2^16) paths: [`kernels::addmul_rows`] runs the log-domain loop
//! below 32 stripes and nibble split tables below 1024; from 1024
//! stripes on, rows are prepared into byte tables once per call and
//! swept in cache blocks. The generator matrix's prepared tables are
//! state of the [`StripedCode`] value, built by its first large encode
//! and reused by every later one.

use mvbc_gf::{kernels, mul_rows_prepared, Field, Gf65536, PreparedMul65536};

use crate::memo::Memo;
use crate::{CodeError, ReedSolomon, Symbol};

/// Minimum stripes before the prepared byte-table path pays for its
/// table builds; matches the byte-table tier of the `mvbc_gf` packed
/// kernels. Below this the generic coefficient path (which picks the
/// log-domain or nibble tier itself) is used.
const PREPARED_MIN_STRIPES: usize = 1024;

/// Stripes per cache block of the prepared path: 2 KiB of data per
/// source slice, so all `k` source blocks plus one destination block
/// and the active row's tables stay L1-resident while every output row
/// sweeps over the block.
const BLOCK_STRIPES: usize = 1024;

/// Prepared-table working sets larger than this (64 KiB of tables)
/// would thrash while cycling rows inside each block; fall back to
/// row-major full-range sweeps, which keep exactly one row's tables
/// hot.
const BLOCKED_TABLE_BUDGET: usize = 64;

/// Applies matrix rows to a set of sources:
/// `dsts[r][s] += Σ_j rows[r][j] * srcs[j][s]`.
///
/// This is the generic-coefficient loop behind the small-value paths
/// of encode, consistency verification, reconstruct-decode, and
/// symbol extension (large values take [`apply_rows_prepared`]).
fn apply_rows(rows: &[&[Gf65536]], srcs: &[&[Gf65536]], dsts: &mut [&mut [Gf65536]]) {
    assert_eq!(rows.len(), dsts.len(), "apply_rows shape mismatch");
    for (coeffs, dst) in rows.iter().zip(dsts.iter_mut()) {
        kernels::addmul_rows(coeffs, srcs, dst);
    }
}

/// The prepared-table twin of [`apply_rows`], for byte-table-tier
/// values: `dsts[r][s] = Σ_j tables[r * k + j] * srcs[j][s]`
/// (overwrite — every caller hands freshly zeroed destinations).
///
/// The stripe range is swept in [`BLOCK_STRIPES`]-sized cache blocks
/// with the row loop *inside* the block loop: all `k` source blocks
/// stay L1-resident while every output row consumes them, instead of
/// re-streaming each source from L2 once per row. The prepared tables
/// are built (or fetched from the code's generator memo) exactly once
/// per call, not once per row application.
fn apply_rows_prepared(
    tables: &[PreparedMul65536],
    k: usize,
    srcs: &[&[Gf65536]],
    dsts: &mut [&mut [Gf65536]],
) {
    assert_eq!(tables.len(), dsts.len() * k, "apply_rows_prepared shape mismatch");
    let stripes = dsts.first().map_or(0, |d| d.len());
    if tables.len() > BLOCKED_TABLE_BUDGET {
        for (row_tables, dst) in tables.chunks(k).zip(dsts.iter_mut()) {
            mul_rows_prepared(row_tables, srcs, dst);
        }
        return;
    }
    let mut lo = 0usize;
    while lo < stripes {
        let hi = (lo + BLOCK_STRIPES).min(stripes);
        let src_block: Vec<&[Gf65536]> = srcs.iter().map(|s| &s[lo..hi]).collect();
        for (row_tables, dst) in tables.chunks(k).zip(dsts.iter_mut()) {
            mul_rows_prepared(row_tables, &src_block, &mut dst[lo..hi]);
        }
        lo = hi;
    }
}

/// Geometry of a striped code: how a byte value maps onto symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripedLayout {
    /// Codeword length (number of processors `n`).
    pub n: usize,
    /// Code dimension (`n - 2t`).
    pub k: usize,
    /// Size of the encoded value in bytes.
    pub value_bytes: usize,
    /// Bytes of the value carried by each data symbol (`ceil(value/k)`).
    pub chunk_bytes: usize,
    /// Number of interleaved GF(2^16) codewords.
    pub stripes: usize,
}

/// A Reed-Solomon code over GF(2^16) striped across byte values.
///
/// # Examples
///
/// ```
/// use mvbc_rscode::StripedCode;
///
/// // n = 7 processors, t = 2 faults, 100-byte generation values.
/// let code = StripedCode::c2t(7, 2, 100)?;
/// let value = vec![0xabu8; 100];
/// let symbols = code.encode_value(&value)?;
/// assert_eq!(symbols.len(), 7);
/// // Decode from any k = 3 symbols.
/// let picks: Vec<_> = symbols.iter().cloned().enumerate().take(3).collect();
/// assert_eq!(code.decode_value(&picks)?, value);
/// # Ok::<(), mvbc_rscode::CodeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StripedCode {
    layout: StripedLayout,
    rs: ReedSolomon,
    /// The generator matrix's `n·k` prepared tables (one entry: they
    /// depend on nothing but the code), built by the first encode that
    /// takes the prepared path.
    gen_tables: Memo<(), Vec<PreparedMul65536>>,
}

impl StripedCode {
    /// Creates a striped `(n, k)` code for values of `value_bytes` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] for an invalid `(n, k)` pair
    /// or a zero-length value.
    pub fn new(n: usize, k: usize, value_bytes: usize) -> Result<Self, CodeError> {
        if value_bytes == 0 {
            return Err(CodeError::InvalidParameters {
                n,
                k,
                field_order: Gf65536::ORDER,
            });
        }
        let rs = ReedSolomon::new(n, k)?;
        let chunk_bytes = value_bytes.div_ceil(k);
        let stripes = chunk_bytes.div_ceil(2);
        Ok(StripedCode {
            layout: StripedLayout {
                n,
                k,
                value_bytes,
                chunk_bytes,
                stripes,
            },
            rs,
            gen_tables: Memo::default(),
        })
    }

    /// Creates the paper's `C_2t` striped code: `(n, n - 2t)`.
    ///
    /// # Errors
    ///
    /// Same as [`StripedCode::new`].
    pub fn c2t(n: usize, t: usize, value_bytes: usize) -> Result<Self, CodeError> {
        let k = n.saturating_sub(2 * t);
        Self::new(n, k, value_bytes)
    }

    /// Applies coefficient rows through the prepared cache-blocked path
    /// when the value is in byte-table territory, or the generic
    /// coefficient path otherwise. Identical bytes either way — the
    /// tiers differ only in table build strategy and sweep order.
    fn apply(&self, rows: &[&[Gf65536]], srcs: &[&[Gf65536]], dsts: &mut [&mut [Gf65536]]) {
        if self.layout.stripes >= PREPARED_MIN_STRIPES {
            let tables: Vec<PreparedMul65536> = rows
                .iter()
                .flat_map(|row| row.iter().map(|&c| PreparedMul65536::new(c)))
                .collect();
            apply_rows_prepared(&tables, self.layout.k, srcs, dsts);
        } else {
            apply_rows(rows, srcs, dsts);
        }
    }

    /// The code geometry.
    pub fn layout(&self) -> StripedLayout {
        self.layout
    }

    /// Logical bits carried by one coded symbol (the paper's
    /// `D / (n - 2t)`).
    pub fn symbol_bits(&self) -> u64 {
        self.layout.chunk_bytes as u64 * 8
    }

    /// The underlying single-codeword Reed-Solomon code.
    pub(crate) fn rs(&self) -> &ReedSolomon {
        &self.rs
    }

    /// Splits (and zero-pads) a value into `k` chunks of stripe elements,
    /// reading straight out of `value` (no padded intermediate copy).
    fn chunks(&self, value: &[u8]) -> Vec<Vec<Gf65536>> {
        let l = &self.layout;
        (0..l.k)
            .map(|ci| {
                let base = ci * l.chunk_bytes;
                let end = (base + l.chunk_bytes).min(value.len());
                let body = value.get(base..end).unwrap_or(&[]);
                let mut out = Vec::with_capacity(l.stripes);
                let mut pairs = body.chunks_exact(2);
                out.extend(
                    pairs
                        .by_ref()
                        .map(|p| Gf65536::new(u16::from_be_bytes([p[0], p[1]]))),
                );
                // Stay within this chunk: an odd chunk's (or the value's)
                // final stripe pads with a zero byte, not the first byte
                // of the next chunk.
                if let &[b0] = pairs.remainder() {
                    out.push(Gf65536::new(u16::from_be_bytes([b0, 0])));
                }
                out.resize(l.stripes, Gf65536::ZERO);
                out
            })
            .collect()
    }

    /// Encodes a value into `n` coded symbols (line 1(a) of Algorithm 1).
    ///
    /// Applies the precomputed generator matrix stripe-parallel: each
    /// output row is one fused [`kernels::addmul_rows`] application of
    /// its generator row across all stripes at once (instead of Horner
    /// evaluation per stripe).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::WrongDataLength`] when
    /// `value.len() != value_bytes`.
    pub fn encode_value(&self, value: &[u8]) -> Result<Vec<Symbol>, CodeError> {
        let l = &self.layout;
        if value.len() != l.value_bytes {
            return Err(CodeError::WrongDataLength {
                expected: l.value_bytes,
                got: value.len(),
            });
        }
        let chunks = self.chunks(value);
        let srcs: Vec<&[Gf65536]> = chunks.iter().map(Vec::as_slice).collect();
        let mut out: Vec<Vec<Gf65536>> = vec![vec![Gf65536::ZERO; l.stripes]; l.n];
        let mut dsts: Vec<&mut [Gf65536]> = out.iter_mut().map(Vec::as_mut_slice).collect();
        if l.stripes >= PREPARED_MIN_STRIPES {
            // The generator tables are fixed per code: build them once,
            // on the first large encode, and reuse them after.
            let tables = self.gen_tables.get_or_build(&(), || {
                (0..l.n)
                    .flat_map(|pos| self.rs.gen_row(pos).iter().map(|&c| PreparedMul65536::new(c)))
                    .collect()
            });
            apply_rows_prepared(&tables, l.k, &srcs, &mut dsts);
        } else {
            let rows: Vec<&[Gf65536]> = (0..l.n).map(|pos| self.rs.gen_row(pos)).collect();
            apply_rows(&rows, &srcs, &mut dsts);
        }
        Ok(out
            .into_iter()
            .map(|elems| Symbol::new(elems, self.symbol_bits()))
            .collect())
    }

    /// Checks the supplied symbols have the expected stripe count and valid,
    /// non-duplicated positions.
    pub(crate) fn validate_shape(&self, symbols: &[(usize, Symbol)]) -> Result<(), CodeError> {
        let l = &self.layout;
        let mut seen = vec![false; l.n];
        for (pos, sym) in symbols {
            if *pos >= l.n || seen[*pos] {
                return Err(CodeError::BadPosition { position: *pos });
            }
            seen[*pos] = true;
            if sym.stripes() != l.stripes {
                return Err(CodeError::WrongDataLength {
                    expected: l.stripes,
                    got: sym.stripes(),
                });
            }
        }
        Ok(())
    }

    fn stripe_pairs(&self, symbols: &[(usize, Symbol)], s: usize) -> Vec<(usize, Gf65536)> {
        symbols.iter().map(|(pos, sym)| (*pos, sym.elems()[s])).collect()
    }

    /// The cached interpolation weights for the first `k` supplied
    /// symbols' positions, after basic shape validation.
    fn weights(
        &self,
        symbols: &[(usize, Symbol)],
    ) -> Result<std::sync::Arc<crate::weights::InterpWeights>, CodeError> {
        let l = &self.layout;
        if symbols.len() < l.k {
            return Err(CodeError::NotEnoughSymbols {
                needed: l.k,
                got: symbols.len(),
            });
        }
        let positions: Vec<usize> = symbols[..l.k].iter().map(|&(pos, _)| pos).collect();
        Ok(self.rs.interp_weights(&positions))
    }

    /// Verifies every symbol beyond the first `k` against the cached
    /// polynomial of the first `k`, stripe-parallel: one fused
    /// extension-row application per extra symbol into one flat
    /// scratch buffer, then a straight comparison.
    fn verify_extras(
        &self,
        w: &crate::weights::InterpWeights,
        symbols: &[(usize, Symbol)],
        scratch: &mut Vec<Gf65536>,
    ) -> Result<(), CodeError> {
        let l = &self.layout;
        let extras = symbols.len() - l.k;
        if extras == 0 {
            return Ok(());
        }
        scratch.clear();
        scratch.resize(extras * l.stripes, Gf65536::ZERO);
        let srcs: Vec<&[Gf65536]> = symbols[..l.k].iter().map(|(_, s)| s.elems()).collect();
        let rows: Vec<&[Gf65536]> =
            symbols[l.k..].iter().map(|(pos, _)| w.ext_row(*pos)).collect();
        let mut dsts: Vec<&mut [Gf65536]> = scratch.chunks_mut(l.stripes).collect();
        self.apply(&rows, &srcs, &mut dsts);
        for (predicted, (_, sym)) in scratch.chunks(l.stripes).zip(&symbols[l.k..]) {
            if predicted != sym.elems() {
                return Err(CodeError::Inconsistent);
            }
        }
        Ok(())
    }

    /// The consistency predicate `V/A ∈ C_2t` lifted to striped symbols:
    /// true iff every stripe is consistent.
    ///
    /// Incremental: the polynomial determined by the first `k` symbols is
    /// never materialized — each extra symbol is checked against the
    /// memoized extension row for its position, across all stripes at
    /// once.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::BadPosition`] / [`CodeError::WrongDataLength`]
    /// for malformed input.
    pub fn is_consistent(&self, symbols: &[(usize, Symbol)]) -> Result<bool, CodeError> {
        self.validate_shape(symbols)?;
        if symbols.len() < self.layout.k {
            // Vacuously consistent: some codeword always extends them.
            return Ok(true);
        }
        let w = self.weights(symbols)?;
        let mut scratch = Vec::new();
        match self.verify_extras(&w, symbols, &mut scratch) {
            Ok(()) => Ok(true),
            Err(CodeError::Inconsistent) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Decodes the value from at least `k` symbols, verifying all supplied
    /// symbols lie on one codeword (`C_2t^{-1}`).
    ///
    /// # Errors
    ///
    /// - [`CodeError::NotEnoughSymbols`] with fewer than `k` symbols.
    /// - [`CodeError::Inconsistent`] when the symbols disagree.
    /// - [`CodeError::BadPosition`] / [`CodeError::WrongDataLength`] for
    ///   malformed input.
    pub fn decode_value(&self, symbols: &[(usize, Symbol)]) -> Result<Vec<u8>, CodeError> {
        self.validate_shape(symbols)?;
        let l = &self.layout;
        let w = self.weights(symbols)?;
        let mut scratch = Vec::new();
        self.verify_extras(&w, symbols, &mut scratch)?;
        let srcs: Vec<&[Gf65536]> = symbols[..l.k].iter().map(|(_, s)| s.elems()).collect();
        // chunk_ci[s] = Σ_j coeff[j][ci] · y_j[s]: gather the per-chunk
        // coefficient columns (k*k tiny elements), then one fused row
        // application per reconstructed chunk.
        let cols: Vec<Vec<Gf65536>> = (0..l.k)
            .map(|ci| (0..l.k).map(|j| w.coeff_row(j)[ci]).collect())
            .collect();
        let rows: Vec<&[Gf65536]> = cols.iter().map(Vec::as_slice).collect();
        let mut recon = vec![Gf65536::ZERO; l.k * l.stripes];
        let mut dsts: Vec<&mut [Gf65536]> = recon.chunks_mut(l.stripes).collect();
        self.apply(&rows, &srcs, &mut dsts);
        let mut out = Vec::with_capacity(l.value_bytes);
        for chunk in recon.chunks(l.stripes) {
            let take = l.chunk_bytes.min(l.value_bytes.saturating_sub(out.len()));
            for (bi, elem) in chunk.iter().enumerate() {
                if 2 * bi >= take {
                    break;
                }
                let bytes = elem.raw().to_be_bytes();
                out.push(bytes[0]);
                if 2 * bi + 1 < take {
                    out.push(bytes[1]);
                }
            }
        }
        debug_assert_eq!(out.len(), l.value_bytes);
        Ok(out)
    }

    /// Recomputes the full `n`-symbol codeword from at least `k` consistent
    /// symbols, directly from the cached extension rows (no intermediate
    /// decode-then-re-encode pass).
    ///
    /// # Errors
    ///
    /// Same as [`StripedCode::decode_value`].
    pub fn extend_symbols(&self, symbols: &[(usize, Symbol)]) -> Result<Vec<Symbol>, CodeError> {
        self.validate_shape(symbols)?;
        let l = &self.layout;
        let w = self.weights(symbols)?;
        let mut scratch = Vec::new();
        self.verify_extras(&w, symbols, &mut scratch)?;
        let srcs: Vec<&[Gf65536]> = symbols[..l.k].iter().map(|(_, s)| s.elems()).collect();
        let rows: Vec<&[Gf65536]> = (0..l.n).map(|pos| w.ext_row(pos)).collect();
        let mut out_elems: Vec<Vec<Gf65536>> = vec![vec![Gf65536::ZERO; l.stripes]; l.n];
        let mut dsts: Vec<&mut [Gf65536]> =
            out_elems.iter_mut().map(Vec::as_mut_slice).collect();
        self.apply(&rows, &srcs, &mut dsts);
        Ok(out_elems
            .into_iter()
            .map(|elems| Symbol::new(elems, self.symbol_bits()))
            .collect())
    }

    /// Error-*correcting* decode via Berlekamp-Welch, tolerating up to
    /// `(symbols.len() - k) / 2` corrupted symbols (corruption may differ
    /// per stripe; a symbol counts as corrupted in exactly the stripes
    /// where it deviates).
    ///
    /// The Liang-Vaidya protocol itself never needs this (it detects and
    /// diagnoses instead of correcting); the Fitzi-Hirt baseline and
    /// extension experiments do.
    ///
    /// # Errors
    ///
    /// - [`CodeError::NotEnoughSymbols`] with fewer than `k` symbols.
    /// - [`CodeError::Inconsistent`] when some stripe has more errors than
    ///   the correction radius.
    /// - [`CodeError::BadPosition`] / [`CodeError::WrongDataLength`] for
    ///   malformed input.
    pub fn decode_value_correcting(
        &self,
        symbols: &[(usize, Symbol)],
    ) -> Result<Vec<u8>, CodeError> {
        self.validate_shape(symbols)?;
        let l = &self.layout;
        if symbols.len() < l.k {
            return Err(CodeError::NotEnoughSymbols {
                needed: l.k,
                got: symbols.len(),
            });
        }
        let mut chunks: Vec<Vec<u8>> = vec![Vec::with_capacity(l.chunk_bytes); l.k];
        for s in 0..l.stripes {
            let corrected =
                crate::berlekamp_welch::decode(&self.rs, &self.stripe_pairs(symbols, s))
                    .map_err(|_| CodeError::Inconsistent)?;
            for (ci, elem) in corrected.data.iter().enumerate() {
                let bytes = elem.raw().to_be_bytes();
                chunks[ci].push(bytes[0]);
                chunks[ci].push(bytes[1]);
            }
        }
        let mut out = Vec::with_capacity(l.value_bytes);
        for chunk in chunks {
            out.extend_from_slice(&chunk[..l.chunk_bytes.min(chunk.len())]);
        }
        out.truncate(l.value_bytes);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn layout_geometry() {
        let c = StripedCode::c2t(7, 2, 100).unwrap();
        let l = c.layout();
        assert_eq!(l.k, 3);
        assert_eq!(l.chunk_bytes, 34); // ceil(100/3)
        assert_eq!(l.stripes, 17);
        assert_eq!(c.symbol_bits(), 34 * 8);
    }

    #[test]
    fn roundtrip_various_sizes() {
        for (n, t, len) in [(4, 1, 1), (4, 1, 2), (4, 1, 7), (7, 2, 100), (7, 2, 101), (10, 3, 64), (13, 4, 1000)] {
            let c = StripedCode::c2t(n, t, len).unwrap();
            let v = value(len);
            let syms = c.encode_value(&v).unwrap();
            assert_eq!(syms.len(), n);
            let k = n - 2 * t;
            // Decode from the last k symbols.
            let picks: Vec<_> = syms.iter().cloned().enumerate().skip(n - k).collect();
            assert_eq!(c.decode_value(&picks).unwrap(), v, "n={n} t={t} len={len}");
        }
    }

    #[test]
    fn identical_values_give_identical_symbols() {
        // Lemma 1's premise: processors with the same input compute the
        // same codeword.
        let c = StripedCode::c2t(7, 2, 50).unwrap();
        let v = value(50);
        assert_eq!(c.encode_value(&v).unwrap(), c.encode_value(&v).unwrap());
    }

    #[test]
    fn different_values_differ_in_many_positions() {
        // Distance 2t+1 = 5 of C_2t lifts to striped symbols.
        let c = StripedCode::c2t(7, 2, 30).unwrap();
        let mut v2 = value(30);
        v2[29] ^= 1;
        let s1 = c.encode_value(&value(30)).unwrap();
        let s2 = c.encode_value(&v2).unwrap();
        let diff = s1.iter().zip(&s2).filter(|(a, b)| a != b).count();
        assert!(diff >= 5, "only {diff} symbol positions differ");
    }

    #[test]
    fn corruption_detected() {
        let c = StripedCode::c2t(7, 2, 48).unwrap();
        let v = value(48);
        let syms = c.encode_value(&v).unwrap();
        let mut pairs: Vec<_> = syms.iter().cloned().enumerate().collect();
        // Corrupt one stripe element of position 2.
        let mut elems = pairs[2].1.elems().to_vec();
        elems[0] += Gf65536::ONE;
        pairs[2].1 = Symbol::new(elems, pairs[2].1.logical_bits());
        assert!(!c.is_consistent(&pairs).unwrap());
        assert_eq!(c.decode_value(&pairs), Err(CodeError::Inconsistent));
    }

    #[test]
    fn consistency_of_honest_subsets() {
        let c = StripedCode::c2t(10, 3, 64).unwrap();
        let syms = c.encode_value(&value(64)).unwrap();
        let subset: Vec<_> = syms.iter().cloned().enumerate().filter(|(i, _)| i % 2 == 0).collect();
        assert!(c.is_consistent(&subset).unwrap());
    }

    #[test]
    fn extend_symbols_matches_encode() {
        let c = StripedCode::c2t(7, 2, 20).unwrap();
        let v = value(20);
        let syms = c.encode_value(&v).unwrap();
        let picks: Vec<_> = syms.iter().cloned().enumerate().take(3).collect();
        assert_eq!(c.extend_symbols(&picks).unwrap(), syms);
    }

    #[test]
    fn malformed_symbol_rejected() {
        let c = StripedCode::c2t(7, 2, 20).unwrap();
        let syms = c.encode_value(&value(20)).unwrap();
        let mut pairs: Vec<_> = syms.iter().cloned().enumerate().take(3).collect();
        pairs[0].1 = Symbol::new(vec![Gf65536::ZERO], 16); // wrong stripes
        assert!(matches!(
            c.decode_value(&pairs),
            Err(CodeError::WrongDataLength { .. })
        ));
    }

    #[test]
    fn zero_length_value_rejected() {
        assert!(StripedCode::c2t(7, 2, 0).is_err());
    }

    #[test]
    fn t_zero_degenerates_to_rate_one() {
        let c = StripedCode::c2t(4, 0, 16).unwrap();
        let v = value(16);
        let syms = c.encode_value(&v).unwrap();
        let picks: Vec<_> = syms.into_iter().enumerate().collect();
        assert_eq!(c.decode_value(&picks).unwrap(), v);
    }

    #[test]
    fn correcting_decode_fixes_t_corruptions() {
        let c = StripedCode::new(7, 3, 60).unwrap(); // e_max = 2
        let v = value(60);
        let syms = c.encode_value(&v).unwrap();
        let mut pairs: Vec<_> = syms.iter().cloned().enumerate().collect();
        for victim in [1usize, 4] {
            let mut elems = pairs[victim].1.elems().to_vec();
            for e in &mut elems {
                *e += Gf65536::ONE;
            }
            pairs[victim].1 = Symbol::new(elems, pairs[victim].1.logical_bits());
        }
        assert_eq!(c.decode_value_correcting(&pairs).unwrap(), v);
        // Plain decode refuses.
        assert_eq!(c.decode_value(&pairs), Err(CodeError::Inconsistent));
    }

    #[test]
    fn correcting_decode_rejects_too_many_errors() {
        let c = StripedCode::new(5, 3, 20).unwrap(); // e_max = 1
        let v = value(20);
        let syms = c.encode_value(&v).unwrap();
        let mut pairs: Vec<_> = syms.iter().cloned().enumerate().collect();
        for (victim, pair) in pairs.iter_mut().enumerate().take(2) {
            let mut elems = pair.1.elems().to_vec();
            elems[0] += Gf65536::new(victim as u16 + 3);
            pair.1 = Symbol::new(elems, pair.1.logical_bits());
        }
        // Either fails or returns a *different* valid value; it must not
        // silently return the original.
        match c.decode_value_correcting(&pairs) {
            Err(CodeError::Inconsistent) => {}
            Ok(decoded) => assert_ne!(decoded, v),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn odd_chunk_sizes_pad_correctly() {
        // chunk_bytes odd => final stripe uses one padding byte.
        let c = StripedCode::c2t(4, 1, 3).unwrap(); // k=2, chunk=2 ... pick len 5
        let c2 = StripedCode::c2t(4, 1, 5).unwrap(); // k=2, chunk=3, stripes=2
        assert_eq!(c2.layout().chunk_bytes, 3);
        assert_eq!(c2.layout().stripes, 2);
        let v = value(5);
        let syms = c2.encode_value(&v).unwrap();
        let picks: Vec<_> = syms.into_iter().enumerate().take(2).collect();
        assert_eq!(c2.decode_value(&picks).unwrap(), v);
        let _ = c;
    }
}
