//! Pluggable `Broadcast_Single_Bit` substrates.
//!
//! The paper treats the 1-bit broadcast primitive as a black box of cost
//! `B` (§3.4: Eq. (1) is parameterised by `B`) and §4 explicitly calls
//! for *substituting* it — e.g. with an authenticated broadcast — to
//! trade error-freedom for resilience. [`BsbDriver`] is that seam: the
//! consensus engine calls through a driver, and the workspace ships
//! three substrates with distinct cost/resilience profiles:
//!
//! | driver | rounds/batch | bits per instance | tolerates | error-free |
//! |---|---|---|---|---|
//! | [`PhaseKingDriver`] | `1 + 3(t+1)` | `Θ(n²·t)` | `t < n/3` | yes |
//! | [`EigDriver`] | `1 + (t+1)` | `Θ(n^{t+2})` | `t < n/3` | yes |
//! | [`DolevStrongDriver`] | `t + 1` | `Θ(n²·t)` worst case | `t < n` | under the signature assumption |
//!
//! All fault-free processors of one execution must use the *same* driver
//! (the lockstep round structure must match). A Byzantine processor may
//! deviate in message content but, like every processor in the
//! synchronous model, not in the round structure.

use std::future::Future;
use std::pin::Pin;

use mvbc_netsim::NodeCtx;

use crate::dolev_strong::{run_ds_batch, SignatureOracle, SignerHandle};
use crate::{
    eig, source_round_initial, split_values, value_instances, BsbConfig, BsbHooks, BsbInstance,
    BsbValueSpec,
};

/// A substrate implementing batched `Broadcast_Single_Bit`.
///
/// Implementations must guarantee, for every batch: **consistency** (all
/// fault-free participants return identical vectors) and **validity**
/// (an instance with a fault-free source returns that source's input),
/// provided the number of faulty processors does not exceed
/// [`max_tolerated`](BsbDriver::max_tolerated).
///
/// # Examples
///
/// Swapping the substrate changes the wire profile, not the result:
///
/// ```
/// use mvbc_bsb::{BsbConfig, BsbDriver, BsbInstance, EigDriver, NoopBsbHooks};
/// use mvbc_metrics::MetricsSink;
/// use mvbc_netsim::{block_on, run_simulation, NodeCtx, SimConfig};
///
/// let n = 4;
/// let logics = (0..n)
///     .map(|id| {
///         Box::new(move |ctx: &mut NodeCtx| {
///             let mut driver = EigDriver; // or PhaseKingDriver, DolevStrongDriver
///             let cfg = BsbConfig::new(1, "doc", vec![true; 4]);
///             let inst = [BsbInstance { source: 2, input: (id == 2).then_some(true) }];
///             block_on(driver.run_batch(ctx, &cfg, &inst, &mut NoopBsbHooks))[0]
///         }) as Box<dyn FnOnce(&mut NodeCtx) -> bool + Send>
///     })
///     .collect();
/// let out = run_simulation(SimConfig::new(n), MetricsSink::new(), logics);
/// assert_eq!(out.outputs, vec![true; 4]);
/// ```
pub trait BsbDriver: Send {
    /// Short human-readable substrate name (used in reports).
    fn name(&self) -> &'static str;

    /// Largest `t` this substrate tolerates in an `n`-processor network.
    fn max_tolerated(&self, n: usize) -> usize;

    /// Runs one batch of 1-bit broadcasts; same calling convention as
    /// [`run_bsb_batch`](crate::run_bsb_batch). Await it from `async`
    /// protocol code, or run it with [`block_on`](mvbc_netsim::block_on)
    /// on a simulator node's context.
    fn run_batch<'a>(
        &'a mut self,
        ctx: &'a mut NodeCtx,
        config: &'a BsbConfig,
        instances: &'a [BsbInstance],
        hooks: &'a mut dyn BsbHooks,
    ) -> BsbFuture<'a, Vec<bool>>;

    /// Broadcasts one multi-bit value per spec (one 1-bit instance per
    /// bit, as the paper prescribes); same calling convention as
    /// [`run_bsb_values`](crate::run_bsb_values).
    fn run_values<'a>(
        &'a mut self,
        ctx: &'a mut NodeCtx,
        config: &'a BsbConfig,
        specs: &'a [BsbValueSpec],
        hooks: &'a mut dyn BsbHooks,
    ) -> BsbFuture<'a, Vec<Vec<bool>>> {
        Box::pin(async move {
            let flat = self.run_batch(ctx, config, &value_instances(specs), hooks).await;
            split_values(specs, &flat)
        })
    }
}

/// The boxed future of one [`BsbDriver`] batch.
pub type BsbFuture<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// The default substrate: source multicast + Phase-King binary
/// consensus (see the crate docs). Error-free for `t < n/3`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseKingDriver;

impl BsbDriver for PhaseKingDriver {
    fn name(&self) -> &'static str {
        "phase-king"
    }

    fn max_tolerated(&self, n: usize) -> usize {
        n.saturating_sub(1) / 3
    }

    fn run_batch<'a>(
        &'a mut self,
        ctx: &'a mut NodeCtx,
        config: &'a BsbConfig,
        instances: &'a [BsbInstance],
        hooks: &'a mut dyn BsbHooks,
    ) -> BsbFuture<'a, Vec<bool>> {
        Box::pin(crate::bsb_batch(ctx, config, instances, hooks))
    }

    fn run_values<'a>(
        &'a mut self,
        ctx: &'a mut NodeCtx,
        config: &'a BsbConfig,
        specs: &'a [BsbValueSpec],
        hooks: &'a mut dyn BsbHooks,
    ) -> BsbFuture<'a, Vec<Vec<bool>>> {
        Box::pin(crate::bsb_values(ctx, config, specs, hooks))
    }
}

/// Source multicast + EIG binary consensus
/// ([`run_eig_batch`](crate::run_eig_batch)): round-optimal but
/// exponential in `t`; practical for the small `t` regimes of the test
/// networks. Error-free for `t < n/3`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EigDriver;

impl BsbDriver for EigDriver {
    fn name(&self) -> &'static str {
        "eig"
    }

    fn max_tolerated(&self, n: usize) -> usize {
        n.saturating_sub(1) / 3
    }

    fn run_batch<'a>(
        &'a mut self,
        ctx: &'a mut NodeCtx,
        config: &'a BsbConfig,
        instances: &'a [BsbInstance],
        hooks: &'a mut dyn BsbHooks,
    ) -> BsbFuture<'a, Vec<bool>> {
        Box::pin(async move {
            config.assert_valid(ctx.n());
            let initial = source_round_initial(ctx, config, instances, hooks).await;
            eig::run_eig_batch(ctx, config, initial, hooks).await
        })
    }
}

/// The §4 substitution: authenticated Dolev-Strong broadcast under an
/// idealised [`SignatureOracle`]. Tolerates any `t < n`.
///
/// Note the paper-level caveat (README.md, "Substitutions"): the *consensus*
/// algorithm's own lemmas still need `t < n/3` (`P_decide` of size
/// `n - 2t` must contain a fault-free processor), so plugging this driver
/// into `mvbc-core` raises the broadcast layer's resilience only. The
/// driver exists to measure the substitution's cost profile and to serve
/// protocols (or parameter ranges) where the broadcast layer is the
/// binding constraint.
#[derive(Debug, Clone)]
pub struct DolevStrongDriver {
    signer: SignerHandle,
    oracle: SignatureOracle,
}

impl DolevStrongDriver {
    /// Creates the driver for the processor owning `signer`.
    pub fn new(signer: SignerHandle, oracle: SignatureOracle) -> Self {
        DolevStrongDriver { signer, oracle }
    }

    /// Convenience: one driver per processor, all sharing a fresh oracle.
    pub fn fleet(n: usize) -> Vec<DolevStrongDriver> {
        let oracle = SignatureOracle::new();
        (0..n)
            .map(|id| DolevStrongDriver::new(oracle.handle(id), oracle.clone()))
            .collect()
    }
}

impl BsbDriver for DolevStrongDriver {
    fn name(&self) -> &'static str {
        "dolev-strong"
    }

    fn max_tolerated(&self, n: usize) -> usize {
        n.saturating_sub(1)
    }

    fn run_batch<'a>(
        &'a mut self,
        ctx: &'a mut NodeCtx,
        config: &'a BsbConfig,
        instances: &'a [BsbInstance],
        hooks: &'a mut dyn BsbHooks,
    ) -> BsbFuture<'a, Vec<bool>> {
        Box::pin(run_ds_batch(ctx, config, instances, &self.signer, &self.oracle, hooks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoopBsbHooks;
    use mvbc_metrics::MetricsSink;
    use mvbc_netsim::{block_on, run_simulation, NodeLogic, SimConfig};

    /// Runs the same mixed batch (every node broadcasts `id % 2 == 0`)
    /// under `mk_driver` and returns the per-node outputs.
    fn run_mixed_batch(
        n: usize,
        t: usize,
        drivers: Vec<Box<dyn BsbDriver>>,
    ) -> Vec<Vec<bool>> {
        let logics: Vec<NodeLogic<Vec<bool>>> = drivers
            .into_iter()
            .enumerate()
            .map(|(id, mut driver)| {
                Box::new(move |ctx: &mut NodeCtx| {
                    let cfg = BsbConfig::new(t, "driver", vec![true; ctx.n()]);
                    let instances: Vec<BsbInstance> = (0..ctx.n())
                        .map(|src| BsbInstance {
                            source: src,
                            input: (id == src).then_some(src % 2 == 0),
                        })
                        .collect();
                    block_on(driver.run_batch(ctx, &cfg, &instances, &mut NoopBsbHooks))
                }) as NodeLogic<Vec<bool>>
            })
            .collect();
        run_simulation(SimConfig::new(n), MetricsSink::new(), logics).outputs
    }

    #[test]
    fn all_drivers_agree_on_honest_batches() {
        let n = 4;
        let expect: Vec<bool> = (0..n).map(|src| src % 2 == 0).collect();

        let king: Vec<Box<dyn BsbDriver>> =
            (0..n).map(|_| Box::new(PhaseKingDriver) as Box<dyn BsbDriver>).collect();
        for out in run_mixed_batch(n, 1, king) {
            assert_eq!(out, expect, "phase-king");
        }

        let eig: Vec<Box<dyn BsbDriver>> =
            (0..n).map(|_| Box::new(EigDriver) as Box<dyn BsbDriver>).collect();
        for out in run_mixed_batch(n, 1, eig) {
            assert_eq!(out, expect, "eig");
        }

        let ds: Vec<Box<dyn BsbDriver>> = DolevStrongDriver::fleet(n)
            .into_iter()
            .map(|d| Box::new(d) as Box<dyn BsbDriver>)
            .collect();
        for out in run_mixed_batch(n, 1, ds) {
            assert_eq!(out, expect, "dolev-strong");
        }
    }

    #[test]
    fn dolev_strong_tolerates_t_at_least_n_over_3() {
        let n = 4;
        let ds: Vec<Box<dyn BsbDriver>> = DolevStrongDriver::fleet(n)
            .into_iter()
            .map(|d| Box::new(d) as Box<dyn BsbDriver>)
            .collect();
        let expect: Vec<bool> = (0..n).map(|src| src % 2 == 0).collect();
        for out in run_mixed_batch(n, 2, ds) {
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn resilience_bounds() {
        assert_eq!(PhaseKingDriver.max_tolerated(4), 1);
        assert_eq!(PhaseKingDriver.max_tolerated(7), 2);
        assert_eq!(EigDriver.max_tolerated(10), 3);
        let ds = DolevStrongDriver::fleet(4).pop().unwrap();
        assert_eq!(ds.max_tolerated(4), 3);
    }

    #[test]
    fn names_are_distinct() {
        let ds = DolevStrongDriver::fleet(1).pop().unwrap();
        let names = [PhaseKingDriver.name(), EigDriver.name(), ds.name()];
        assert_eq!(names, ["phase-king", "eig", "dolev-strong"]);
    }

    #[test]
    fn values_api_works_through_driver() {
        let n = 4;
        let value = vec![true, false, true];
        let expect = value.clone();
        let logics: Vec<NodeLogic<Vec<Vec<bool>>>> = (0..n)
            .map(|id| {
                let value = value.clone();
                Box::new(move |ctx: &mut NodeCtx| {
                    let cfg = BsbConfig::new(1, "driver-values", vec![true; ctx.n()]);
                    let specs = [BsbValueSpec {
                        source: 2,
                        bits: 3,
                        input: (id == 2).then_some(value.clone()),
                    }];
                    block_on(EigDriver.run_values(ctx, &cfg, &specs, &mut NoopBsbHooks))
                }) as NodeLogic<Vec<Vec<bool>>>
            })
            .collect();
        let out = run_simulation(SimConfig::new(n), MetricsSink::new(), logics);
        for o in &out.outputs {
            assert_eq!(o[0], expect);
        }
    }
}
