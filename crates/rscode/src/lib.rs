//! Reed-Solomon codes for the Liang-Vaidya error-free multi-valued
//! Byzantine consensus algorithm (PODC 2011).
//!
//! The paper uses an `(n, n-2t)` distance-`(2t+1)` Reed-Solomon code `C_2t`
//! over GF(2^c) in three ways:
//!
//! 1. **Encoding** (`C_2t(v)`): each processor encodes its `D`-bit
//!    generation value, represented as `k = n - 2t` data symbols, into `n`
//!    coded symbols and disperses symbol `i` from processor `P_i`
//!    (matching stage, line 1(a)).
//! 2. **Consistency detection** (`V/A ∈ C_2t`): a processor checks whether
//!    the symbols received from a set `A` of peers lie on one codeword
//!    (checking stage, line 2(a); diagnosis stage, line 3(f)).
//! 3. **Erasure decoding** (`C_2t^{-1}(V/A)` for `|A| >= n - 2t`):
//!    the decision value is recovered from any `n - 2t` consistent symbols
//!    (lines 2(c) and 3(i)).
//!
//! [`ReedSolomon`] implements these primitives over GF(2^16)
//! ([`Gf65536`](mvbc_gf::Gf65536)), so a code has at most
//! [`MAX_CODE_LENGTH`] positions; [`StripedCode`] lifts them to
//! arbitrary-length byte strings by running many interleaved codewords
//! ("stripes") in parallel, which is how a `D`-bit generation value maps
//! onto GF(2^16) symbols. The [`berlekamp_welch`] module additionally
//! provides error *correction* (used by the Fitzi-Hirt baseline and
//! available as an extension).
//!
//! What a code can precompute lives in the code value: the generator
//! matrix at construction, and lazily, on first use, the interpolation
//! weights of each position set and [`StripedCode`]'s prepared generator
//! tables. Nothing is cached process-wide, so two code values never
//! share state and dropping a code frees everything it built.
//!
//! # Examples
//!
//! ```
//! use mvbc_gf::Gf65536;
//! use mvbc_rscode::ReedSolomon;
//!
//! // (n, k) = (7, 3): the paper's C_2t with n = 7, t = 2.
//! let rs = ReedSolomon::new(7, 3)?;
//! let data = [Gf65536::new(1), Gf65536::new(2), Gf65536::new(3)];
//! let cw = rs.encode(&data)?;
//! // Any k symbols decode back to the data...
//! let picks = [(0usize, cw[0]), (4, cw[4]), (6, cw[6])];
//! assert_eq!(rs.decode(&picks)?, data.to_vec());
//! // ...and the full codeword is consistent.
//! let all: Vec<_> = cw.iter().copied().enumerate().collect();
//! assert!(rs.is_consistent(&all)?);
//! # Ok::<(), mvbc_rscode::CodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod berlekamp_welch;
mod code;
mod memo;
pub mod reference;
mod striped;
mod symbol;
mod weights;

pub use code::{CodeError, ReedSolomon, MAX_CODE_LENGTH};
pub use striped::{StripedCode, StripedLayout};
pub use symbol::Symbol;
