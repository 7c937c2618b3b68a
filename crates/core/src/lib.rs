//! Error-free multi-valued Byzantine consensus — Liang & Vaidya,
//! PODC 2011 (full version arXiv:1101.3520).
//!
//! `n` processors, each holding an `L`-bit input, agree on an `L`-bit
//! value despite up to `t < n/3` Byzantine processors, **deterministically
//! and without error**, with communication complexity
//! `O(nL + n⁴L^0.5 + n⁶)` bits — i.e. `O(nL)` for large `L`. The three
//! classic properties hold in every execution:
//!
//! - **Termination**: every fault-free processor decides.
//! - **Consistency**: all fault-free processors decide the same value.
//! - **Validity**: if all fault-free processors hold the same input, they
//!   decide that input.
//!
//! # Algorithm structure (paper §2–3)
//!
//! The `L`-bit value is processed in `L/D` *generations* of `D` bits.
//! Each generation runs Algorithm 1:
//!
//! 1. **Matching stage** — each processor encodes its `D`-bit part with an
//!    `(n, n-2t)` Reed-Solomon code and sends only *its own* coded symbol
//!    to the processors it trusts; match flags are broadcast and a set
//!    `P_match` of `n - t` processors whose fault-free members provably
//!    share one input is located (or the processors safely decide a
//!    default).
//! 2. **Checking stage** — processors outside `P_match` verify that the
//!    symbols received from `P_match` lie on one codeword; if nobody
//!    detects an inconsistency every processor decodes the generation
//!    value from the symbols it already holds.
//! 3. **Diagnosis stage** — on detection, the `P_match` symbols are
//!    re-broadcast with [`Broadcast_Single_Bit`](mvbc_bsb) and every
//!    processor updates a shared *diagnosis graph*, removing at least one
//!    edge adjacent to a faulty processor. After at most `t(t+1)`
//!    diagnoses all faulty processors are identified and isolated.
//!
//! # Windows
//!
//! Generations share only the diagnosis graph, and only the diagnosis
//! stage changes it, so the engine runs up to [`GENERATION_WINDOW`]
//! generations' matching and checking stages together: one symbol round
//! (one message per generation per trusted pair) and one
//! `Broadcast_Single_Bit` batch each for the `M` vectors and the
//! `Detected` flags, all under the graph from the window's start.
//! Generations commit in order up to the first with a detection, which
//! runs the diagnosis stage alone; the window's later generations are
//! discarded and run again under the updated graph, so every committed
//! generation decides what the one-generation-at-a-time algorithm would.
//! A fault-free run takes `⌈G/W⌉` windows' rounds instead of `G`
//! generations' and sends the same bits. The [`WindowSchedule`], which
//! `mvbc-broadcast` shares, runs a one-generation probe after each
//! diagnosis and halves the windows after each discard, so one execution
//! discards at most [`rerun_bound`]`(W) < 2W` generations whatever `t`
//! is, the worst-case term [`dsel::model_window_rerun_bits`] adds to
//! Eq. (1). [`ProtocolHooks`] documents the resulting call order.
//!
//! # Examples
//!
//! Four processors (tolerating one Byzantine fault) agree on a 1 KiB
//! value; here all are honest and hold the same input:
//!
//! ```
//! use mvbc_core::{simulate_consensus, ConsensusConfig, NoopHooks};
//! use mvbc_metrics::MetricsSink;
//!
//! let cfg = ConsensusConfig::new(4, 1, 1024)?;
//! let value = vec![0x5au8; 1024];
//! let inputs = vec![value.clone(); 4];
//! let hooks = (0..4).map(|_| NoopHooks::boxed()).collect();
//! let run = simulate_consensus(&cfg, inputs, hooks, MetricsSink::new());
//! assert!(run.outputs.iter().all(|o| *o == value)); // validity
//! # Ok::<(), mvbc_core::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clique;
mod config;
mod diag;
pub mod dsel;
mod engine;
mod generation;
mod hooks;
mod runner;
mod window;

pub use clique::find_clique_of_size;
pub use config::{ConfigError, ConsensusConfig};
pub use diag::DiagGraph;
pub use engine::{consensus, EngineReport, GENERATION_WINDOW};
pub use hooks::{NoopHooks, ProtocolHooks};
pub use runner::{simulate_consensus, simulate_consensus_traced, simulate_consensus_with, ConsensusRun};
pub use window::{rerun_bound, WindowOutcome, WindowSchedule, WindowTotals};
