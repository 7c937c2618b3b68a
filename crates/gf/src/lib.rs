//! Galois-field arithmetic for the `mvbc` workspace.
//!
//! This crate implements the finite field GF(2^16) together with the
//! polynomial and linear-algebra tooling required by the Reed-Solomon
//! codes of Liang & Vaidya's error-free multi-valued Byzantine consensus
//! algorithm (PODC 2011). The paper's code `C_2t` is an `(n, n-2t)`
//! Reed-Solomon code over GF(2^c) with `n <= 2^c - 1`; the workspace
//! fixes c = 16, as [`Gf65536`], so any practical simulated network size
//! is supported.
//!
//! The [`kernels`] entry points run its packed split-table tiers, and
//! [`PreparedMul65536`] prebuilds its byte tables for multipliers that
//! recur.
//!
//! # Examples
//!
//! ```
//! use mvbc_gf::{Field, Gf65536};
//!
//! let a = Gf65536::new(0x53);
//! let b = Gf65536::new(0xca);
//! // Multiplication distributes over XOR-addition.
//! let c = Gf65536::new(0x11);
//! assert_eq!(a * (b + c), a * b + a * c);
//! // Every non-zero element has a multiplicative inverse.
//! let inv = a.inv().expect("non-zero element");
//! assert_eq!(a * inv, Gf65536::ONE);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod field;
pub mod kernels;
mod linalg;
mod packed;
mod poly;
mod tables;

pub use field::{Field, Gf65536};
pub use linalg::{solve_linear_system, GfMatrix, LinalgError};
pub use packed::{mul_rows_prepared, PreparedMul65536};
pub use poly::{interpolate, InterpolateError, Poly};
