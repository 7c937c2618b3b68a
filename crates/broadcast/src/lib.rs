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
//! # Windows
//!
//! Generations run in **windows**, as Algorithm 1 does in `mvbc-core`:
//! a window of `w` generations takes one dispersal round, one echo round
//! and one `Detected` batch of `w·(n−1)` instances, so a fault-free
//! value of `G` generations takes about `G/W` batches instead of `G`,
//! and exactly the same logical bits (a batch's per-instance bits do not
//! depend on how many instances it carries). Each round carries one
//! message per ordered pair: the window's symbols, framed per generation
//! (a presence byte, a 4-byte length, the bytes), so a malformed or
//! missing entry is that generation's silence only, and a message's
//! logical bits are those of the symbols it holds.
//!
//! Generations commit in order up to the first detection; only that
//! generation runs diagnosis, and the window's later generations are
//! discarded and run again under the updated graph, so every committed
//! generation decides what one-at-a-time execution decides. A slot's
//! first generation, and the first after each diagnosis, runs alone as a
//! **probe**; other windows hold up to [`BroadcastConfig::window`] generations,
//! up to [`MAX_WINDOW`] and [`WINDOW_BYTES`] of data. Both rules read
//! only agreed state and the configuration. Every strategy in
//! [`attacks`] acts from generation 0 on, so it shows in a probe and
//! costs no rerun; a clean generation can turn dirty only after the
//! graph changes, which only a diagnosis does, and the generation after
//! one is a probe again. [`BroadcastReport::generations_rerun`] counts
//! the reruns an adversary that first acts mid-slot can force, fewer
//! than `2W` per slot: the windows are `mvbc-core`'s
//! [`WindowSchedule`](mvbc_core::WindowSchedule), which halves them after
//! each discard. The hooks' calling order is in
//! [`BroadcastHooks`].
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

pub use config::{
    broadcast_optimal_d_bits, BroadcastConfig, BroadcastConfigError, MAX_WINDOW, WINDOW_BYTES,
};
pub use engine::{run_broadcast, run_broadcast_slot, run_broadcast_with, BroadcastReport};
pub use hooks::{BroadcastHooks, NoopBroadcastHooks};
pub use runner::{simulate_broadcast, simulate_broadcast_with, BroadcastRun};
