//! Scalar reference implementations of the codec — the executable
//! specification the batched kernels are measured and verified against.
//!
//! These are the pre-batch-kernel code paths, kept verbatim in spirit:
//! encoding evaluates a freshly-built [`Poly`] per stripe with Horner's
//! rule, and every consistency check or decode re-runs full Lagrange
//! [`interpolate`] from scratch. The equivalence suite
//! (`tests/codec_equivalence.rs`) asserts byte-identical results against
//! the production paths on random geometries.

use mvbc_gf::{interpolate, Field, Gf65536, Poly};

use crate::{CodeError, ReedSolomon, StripedCode, Symbol};

/// Scalar-reference encode: build the data polynomial, evaluate with
/// Horner at every point.
///
/// # Errors
///
/// As [`ReedSolomon::encode`].
pub fn rs_encode(rs: &ReedSolomon, data: &[Gf65536]) -> Result<Vec<Gf65536>, CodeError> {
    if data.len() != rs.k() {
        return Err(CodeError::WrongDataLength {
            expected: rs.k(),
            got: data.len(),
        });
    }
    let p = Poly::from_coeffs(data.to_vec());
    Ok((0..rs.n()).map(|j| p.eval(rs.alpha(j))).collect())
}

fn validate_positions(rs: &ReedSolomon, symbols: &[(usize, Gf65536)]) -> Result<(), CodeError> {
    let mut seen = vec![false; rs.n()];
    for &(pos, _) in symbols {
        if pos >= rs.n() || seen[pos] {
            return Err(CodeError::BadPosition { position: pos });
        }
        seen[pos] = true;
    }
    Ok(())
}

fn interpolate_checked(rs: &ReedSolomon, symbols: &[(usize, Gf65536)]) -> Result<Poly, CodeError> {
    validate_positions(rs, symbols)?;
    if symbols.len() < rs.k() {
        return Err(CodeError::NotEnoughSymbols {
            needed: rs.k(),
            got: symbols.len(),
        });
    }
    let pts: Vec<(Gf65536, Gf65536)> = symbols[..rs.k()]
        .iter()
        .map(|&(pos, s)| (rs.alpha(pos), s))
        .collect();
    let p = interpolate(&pts).expect("alphas are pairwise distinct");
    for &(pos, s) in &symbols[rs.k()..] {
        if p.eval(rs.alpha(pos)) != s {
            return Err(CodeError::Inconsistent);
        }
    }
    Ok(p)
}

/// Scalar-reference consistency check: full Lagrange interpolation, then
/// point-wise verification.
///
/// # Errors
///
/// As [`ReedSolomon::is_consistent`].
pub fn rs_is_consistent(rs: &ReedSolomon, symbols: &[(usize, Gf65536)]) -> Result<bool, CodeError> {
    validate_positions(rs, symbols)?;
    if symbols.len() < rs.k() {
        return Ok(true);
    }
    match interpolate_checked(rs, symbols) {
        Ok(_) => Ok(true),
        Err(CodeError::Inconsistent) => Ok(false),
        Err(e) => Err(e),
    }
}

/// Scalar-reference erasure decode via Lagrange interpolation.
///
/// # Errors
///
/// As [`ReedSolomon::decode`].
pub fn rs_decode(rs: &ReedSolomon, symbols: &[(usize, Gf65536)]) -> Result<Vec<Gf65536>, CodeError> {
    let p = interpolate_checked(rs, symbols)?;
    let mut data = p.into_coeffs();
    data.resize(rs.k(), Gf65536::ZERO);
    Ok(data)
}

fn stripe_pairs(symbols: &[(usize, Symbol)], s: usize) -> Vec<(usize, Gf65536)> {
    symbols.iter().map(|(pos, sym)| (*pos, sym.elems()[s])).collect()
}

fn striped_chunks(code: &StripedCode, value: &[u8]) -> Vec<Vec<Gf65536>> {
    let l = code.layout();
    let mut padded = value.to_vec();
    padded.resize(l.chunk_bytes * l.k, 0);
    padded
        .chunks(l.chunk_bytes)
        .map(|chunk| {
            (0..l.stripes)
                .map(|s| {
                    let b0 = chunk.get(2 * s).copied().unwrap_or(0);
                    let b1 = chunk.get(2 * s + 1).copied().unwrap_or(0);
                    Gf65536::new(u16::from_be_bytes([b0, b1]))
                })
                .collect()
        })
        .collect()
}

/// Scalar-reference striped encode: one [`rs_encode`] per stripe.
///
/// # Errors
///
/// As [`StripedCode::encode_value`].
pub fn encode_value(code: &StripedCode, value: &[u8]) -> Result<Vec<Symbol>, CodeError> {
    let l = code.layout();
    if value.len() != l.value_bytes {
        return Err(CodeError::WrongDataLength {
            expected: l.value_bytes,
            got: value.len(),
        });
    }
    let chunks = striped_chunks(code, value);
    let mut out: Vec<Vec<Gf65536>> = vec![Vec::with_capacity(l.stripes); l.n];
    for s in 0..l.stripes {
        let data: Vec<Gf65536> = chunks.iter().map(|c| c[s]).collect();
        let cw = rs_encode(code.rs(), &data)?;
        for (pos, &sym) in cw.iter().enumerate() {
            out[pos].push(sym);
        }
    }
    Ok(out
        .into_iter()
        .map(|elems| Symbol::new(elems, code.symbol_bits()))
        .collect())
}

/// Scalar-reference striped consistency check: one full interpolation
/// per stripe.
///
/// # Errors
///
/// As [`StripedCode::is_consistent`].
pub fn is_consistent_value(
    code: &StripedCode,
    symbols: &[(usize, Symbol)],
) -> Result<bool, CodeError> {
    code.validate_shape(symbols)?;
    for s in 0..code.layout().stripes {
        if !rs_is_consistent(code.rs(), &stripe_pairs(symbols, s))? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Scalar-reference striped decode: one full interpolation per stripe.
///
/// # Errors
///
/// As [`StripedCode::decode_value`].
pub fn decode_value(code: &StripedCode, symbols: &[(usize, Symbol)]) -> Result<Vec<u8>, CodeError> {
    code.validate_shape(symbols)?;
    let l = code.layout();
    let mut chunks: Vec<Vec<u8>> = vec![Vec::with_capacity(l.chunk_bytes); l.k];
    for s in 0..l.stripes {
        let data = rs_decode(code.rs(), &stripe_pairs(symbols, s))?;
        for (ci, elem) in data.iter().enumerate() {
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
