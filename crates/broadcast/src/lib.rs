//! Error-free multi-valued Byzantine **broadcast** for `t < n/3`.
//!
//! §4 of Liang & Vaidya (PODC 2011) observes that the techniques of their
//! consensus algorithm — Reed-Solomon dispersal, consistency detection,
//! and diagnosis-graph dispute control — also yield an error-free
//! multi-valued *broadcast* (Byzantine Generals) protocol with
//! communication complexity `< 1.5 (n-1) L + Θ(n⁴ L^0.5)` bits for large
//! `L` (the 1.5-factor construction is in their companion technical
//! report, arXiv:1006.2422).
//!
//! This crate builds the variant described in README.md
//! ("Substitutions") with the same building blocks and guarantees
//! (error-free, `Θ((n-1)L)` with a small constant), at a failure-free
//! rate of about `2(n-1)L` for `t ≈ n/3`:
//!
//! 1. **Dispersal** — the source Reed-Solomon-encodes each `D`-bit
//!    generation of its value with the `(n, n-2t)` code and sends coded
//!    symbol `j` to processor `j`.
//! 2. **Echo** — a common-knowledge echo set `E` (the source plus the
//!    `n-t-1` lowest-id processors that still trust the source) relays
//!    its symbols to everyone; every processor checks the symbols it
//!    holds for consistency with one codeword and broadcasts a 1-bit
//!    `Detected` verdict via [`Broadcast_Single_Bit`](mvbc_bsb).
//! 3. **Diagnosis** — on detection, the source broadcasts the whole
//!    generation data and the echoes their claimed symbols (all via
//!    `Broadcast_Single_Bit`); every mismatch removes a diagnosis-graph
//!    edge adjacent to a faulty processor, false accusers are isolated,
//!    and everyone decides the source's (now common) claim.
//!
//! The diagnosis graph is shared machinery with
//! [`mvbc_core`](mvbc_core::DiagGraph); the per-execution dispute budget
//! bounds diagnosis stages by `t(t+2)`.
//!
//! # Examples
//!
//! ```
//! use mvbc_broadcast::{simulate_broadcast, BroadcastConfig, NoopBroadcastHooks};
//! use mvbc_metrics::MetricsSink;
//!
//! let cfg = BroadcastConfig::new(4, 1, 0, 512)?; // source = processor 0
//! let value = vec![0x42u8; 512];
//! let hooks = (0..4).map(|_| NoopBroadcastHooks::boxed()).collect();
//! let run = simulate_broadcast(&cfg, value.clone(), hooks, MetricsSink::new());
//! assert!(run.outputs.iter().all(|o| *o == value));
//! # Ok::<(), mvbc_broadcast::BroadcastConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
mod config;
mod engine;
mod generation;
mod hooks;
mod runner;

pub use config::{broadcast_optimal_d_bits, BroadcastConfig, BroadcastConfigError};
pub use engine::{run_broadcast, run_broadcast_slot, run_broadcast_with, BroadcastReport};
pub use generation::BroadcastGenerationOutcome;
pub use hooks::{BroadcastHooks, NoopBroadcastHooks};
pub use runner::{simulate_broadcast, simulate_broadcast_with, BroadcastRun};
