//! Batched Phase-King binary consensus (the "King algorithm").
//!
//! Tolerates `t < n/3` Byzantine processors using `t + 1` phases of three
//! rounds each, with processor `p` acting as king of phase `p`. Since at
//! most `t` processors are faulty, at least one of the `t + 1` kings is
//! fault-free, and a fault-free king's phase establishes agreement, which
//! later phases preserve.
//!
//! Per phase and instance, each processor sends:
//! - round 1: its current value (1 bit) to all,
//! - round 2: a proposal (2 bits: none / propose-0 / propose-1) to all,
//! - round 3: the king alone sends its value (1 bit) to all.
//!
//! Total: `Θ(n² · (t+1))` bits per instance — the workspace's measured
//! `B` (see the crate docs for how this relates to the paper's `Θ(n²)`).
//!
//! # Per-round cost
//!
//! Every round is all-to-all, so its per-message constant is multiplied
//! by `n²`. A node therefore packs its honest vector **once** per round
//! and sends every recipient a refcount clone of that one payload (`n−1`
//! clones, no per-recipient allocation). On receipt it checks each
//! sender's payload length and tallies straight from the packed bytes,
//! a 64-bit word at a time, into counters allocated once per batch;
//! nothing is unpacked.
//!
//! Hooks are unaffected: each recipient's hook still gets a private copy
//! of the honest vector, called in recipient order, and a copy the hook
//! changed is packed on its own. Wire bytes, logical bits and decisions
//! are those of the plain per-recipient construction.

use mvbc_netsim::bits::{pack_bits, pack_crumbs};
use mvbc_netsim::{Message, NodeCtx, NodeId};

use crate::{BsbConfig, BsbHooks};

const NO_PROPOSAL: u8 = 0;
const PROPOSE_FALSE: u8 = 1;
const PROPOSE_TRUE: u8 = 2;

/// Runs batched Phase-King binary consensus.
///
/// `initial` holds this node's input for every instance in the batch. All
/// participants must call this in the same round with equal `config` and
/// equal batch size. Returns the decided bit per instance; decisions are
/// identical at all fault-free participants, and equal to the common input
/// when all fault-free participants start unanimous (validity).
///
/// Non-participants (isolated processors) still return a vector, computed
/// without sending or receiving.
///
/// Like every round-ending function of this crate it is `async`: await
/// it from protocol code, or run it with
/// [`block_on`](mvbc_netsim::block_on) on a simulator node's context.
///
/// # Panics
///
/// Panics when `t >= n/3` or the participants mask length differs from
/// `n`.
pub async fn run_king_batch(
    ctx: &mut NodeCtx,
    config: &BsbConfig,
    initial: Vec<bool>,
    hooks: &mut dyn BsbHooks,
) -> Vec<bool> {
    let n = ctx.n();
    config.assert_valid(n);
    let me = ctx.id();
    let t = config.t;
    let count = initial.len();
    let sending = config.participants[me] && count > 0;
    let tags = config.tags;
    let peers: Vec<NodeId> = (0..n).filter(|&p| p != me && config.participants[p]).collect();

    let mut values = initial;
    // Allocated once per batch and reused by every phase.
    let mut proposals = vec![NO_PROPOSAL; count];
    let mut count_true = vec![0u32; count];
    let mut props_true = vec![0u32; count];
    let mut props_false = vec![0u32; count];
    let mut confident = vec![false; count];

    for phase in 0..=t {
        let king: NodeId = phase; // kings 0..=t: at least one is fault-free

        // --- Round 1: universal exchange of current values. ---
        if sending {
            multicast(ctx, config, tags.value, count as u64, &values, pack_bits, |to, v| {
                hooks.king_values(config.session, phase, to, v)
            });
        }
        let mut inbox = ctx.next_round().await;

        // Count supporters of true per instance (own value included);
        // every reporter that did not say true said false.
        for (tally, &v) in count_true.iter_mut().zip(&values) {
            *tally = u32::from(v);
        }
        let mut reporters = 1;
        for &from in &peers {
            if let Some(payload) =
                inbox.take(from, tags.value).filter(|p| p.len() == count.div_ceil(8))
            {
                tally_bits(&mut count_true, &payload);
                reporters += 1;
            }
        }

        // --- Round 2: proposals. ---
        // Propose z when at least n - t processors reported z. At most one
        // value can clear the threshold (2(n-t) > n).
        for (p, &trues) in proposals.iter_mut().zip(&count_true) {
            let trues = trues as usize;
            *p = if trues >= n - t {
                PROPOSE_TRUE
            } else if reporters - trues >= n - t {
                PROPOSE_FALSE
            } else {
                NO_PROPOSAL
            };
        }
        if sending {
            let bits = 2 * count as u64;
            multicast(ctx, config, tags.propose, bits, &proposals, pack_crumbs, |to, p| {
                hooks.king_proposals(config.session, phase, to, p)
            });
        }
        let mut inbox = ctx.next_round().await;

        for ((tt, tf), &p) in props_true.iter_mut().zip(props_false.iter_mut()).zip(&proposals) {
            *tt = u32::from(p == PROPOSE_TRUE);
            *tf = u32::from(p == PROPOSE_FALSE);
        }
        for &from in &peers {
            if let Some(payload) =
                inbox.take(from, tags.propose).filter(|p| p.len() == count.div_ceil(4))
            {
                tally_crumbs(&mut props_true, &mut props_false, &payload);
            }
        }

        // Adopt a proposal supported by at least t + 1 processors (at
        // least one of them fault-free). At most one value can have t + 1
        // supporters that include a fault-free processor; break the
        // impossible-for-honest tie deterministically toward `true`.
        for i in 0..count {
            let (pt, pf) = (props_true[i] as usize, props_false[i] as usize);
            confident[i] = if pt > t && pt >= pf {
                values[i] = true;
                pt >= n - t
            } else if pf > t {
                values[i] = false;
                pf >= n - t
            } else {
                false
            };
        }

        // --- Round 3: the king's tie-break. ---
        if sending && me == king {
            multicast(ctx, config, tags.king, count as u64, &values, pack_bits, |to, v| {
                hooks.king_bits(config.session, phase, to, v)
            });
        }
        let mut inbox = ctx.next_round().await;
        if me != king {
            // Follow the king; a silent, malformed or isolated king
            // defaults to false (all fault-free processors apply the same
            // default). The king keeps its own values.
            let king_payload = if config.participants[king] {
                inbox.take(king, tags.king).filter(|p| p.len() == count.div_ceil(8))
            } else {
                None
            };
            for (i, v) in values.iter_mut().enumerate() {
                if !confident[i] {
                    *v = king_payload.as_ref().is_some_and(|p| packed_bit(p, i));
                }
            }
        }
    }

    values
}

/// Sends `honest` to every participant but `ctx.id()` under `tag`,
/// packing it once. Each recipient's `hook` (called in recipient order,
/// as always) mutates a private copy in one reused scratch buffer; an
/// untouched copy goes out as a refcount clone of the shared payload, a
/// changed one is packed on its own. Wire bytes equal packing every copy
/// separately.
pub(crate) fn multicast<T: Copy + PartialEq>(
    ctx: &mut NodeCtx,
    config: &BsbConfig,
    tag: &'static str,
    logical_bits: u64,
    honest: &[T],
    pack: fn(&[T]) -> Vec<u8>,
    mut hook: impl FnMut(NodeId, &mut [T]),
) {
    let me = ctx.id();
    // `Message::payload` is the netsim's refcounted wire buffer; building
    // one names that type without this crate depending on `bytes`.
    let shared = Message { from: me, tag, payload: pack(honest).into(), at: 0 }.payload;
    let mut scratch = honest.to_vec();
    for to in 0..ctx.n() {
        if to == me || !config.participants[to] {
            continue;
        }
        scratch.copy_from_slice(honest);
        hook(to, &mut scratch);
        if scratch == honest {
            ctx.send(to, tag, shared.clone(), logical_bits);
        } else {
            ctx.send(to, tag, pack(&scratch), logical_bits);
        }
    }
}

/// Bit `i` of a [`pack_bits`] payload (LSB-first within each byte).
pub(crate) fn packed_bit(packed: &[u8], i: usize) -> bool {
    packed[i / 8] >> (i % 8) & 1 == 1
}

/// One little-endian 64-bit word of a packed payload (the last word of a
/// payload may be short; its missing bytes read as zero).
fn word(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

/// Adds every set bit of a [`pack_bits`] payload to the tally of its
/// instance. Bit `k` of word `w` is instance `64w + k`; padding bits
/// past `tallies.len()` have no tally and are ignored.
fn tally_bits(tallies: &mut [u32], packed: &[u8]) {
    for (chunk, bytes) in tallies.chunks_mut(64).zip(packed.chunks(8)) {
        let w = word(bytes);
        if w == 0 {
            continue;
        }
        for (k, tally) in chunk.iter_mut().enumerate() {
            *tally += (w >> k & 1) as u32;
        }
    }
}

/// Adds a [`pack_crumbs`] proposal payload to the per-instance tallies:
/// crumb 2 counts for `true`, crumb 1 for `false`, and 0 and 3 (never
/// sent by an honest node) count as no proposal. Crumb `k` of word `w`
/// is instance `32w + k`; padding crumbs past the tallies are ignored.
fn tally_crumbs(props_true: &mut [u32], props_false: &mut [u32], packed: &[u8]) {
    const LOW: u64 = 0x5555_5555_5555_5555;
    for ((trues, falses), bytes) in
        props_true.chunks_mut(32).zip(props_false.chunks_mut(32)).zip(packed.chunks(8))
    {
        let w = word(bytes);
        let (hi, lo) = (w >> 1 & LOW, w & LOW);
        let (is_true, is_false) = (hi & !lo, lo & !hi);
        if is_true | is_false == 0 {
            continue;
        }
        for (k, (tt, tf)) in trues.iter_mut().zip(falses.iter_mut()).enumerate() {
            *tt += (is_true >> (2 * k) & 1) as u32;
            *tf += (is_false >> (2 * k) & 1) as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvbc_netsim::block_on;
    use crate::NoopBsbHooks;
    use mvbc_metrics::MetricsSink;
    use mvbc_netsim::{run_simulation, SimConfig};

    type Logic<O> = Box<dyn FnOnce(&mut NodeCtx) -> O + Send>;

    fn consensus_run(n: usize, t: usize, inputs: Vec<Vec<bool>>) -> Vec<Vec<bool>> {
        let logics: Vec<Logic<Vec<bool>>> = inputs
            .into_iter()
            .map(|init| {
                Box::new(move |ctx: &mut NodeCtx| {
                    let cfg = BsbConfig::new(t, "king", vec![true; ctx.n()]);
                    block_on(run_king_batch(ctx, &cfg, init, &mut NoopBsbHooks))
                }) as Logic<Vec<bool>>
            })
            .collect();
        run_simulation(SimConfig::new(n), MetricsSink::new(), logics).outputs
    }

    #[test]
    fn validity_unanimous_inputs() {
        for bit in [false, true] {
            let outs = consensus_run(4, 1, vec![vec![bit]; 4]);
            assert_eq!(outs, vec![vec![bit]; 4]);
        }
    }

    #[test]
    fn agreement_mixed_inputs() {
        // 2 vs 2 split: some common decision must emerge.
        let inputs = vec![vec![true], vec![true], vec![false], vec![false]];
        let outs = consensus_run(4, 1, inputs);
        let first = outs[0][0];
        assert!(outs.iter().all(|o| o[0] == first));
    }

    #[test]
    fn agreement_all_splits_n7() {
        // Every number of initial `true` holders, n = 7, t = 2.
        for ones in 0..=7usize {
            let inputs: Vec<Vec<bool>> = (0..7).map(|i| vec![i < ones]).collect();
            let outs = consensus_run(7, 2, inputs);
            let first = outs[0][0];
            assert!(outs.iter().all(|o| o[0] == first), "ones={ones}");
            if ones == 7 {
                assert!(first);
            }
            if ones == 0 {
                assert!(!first);
            }
        }
    }

    #[test]
    fn batch_instances_do_not_interfere() {
        // Instance 0 unanimous true, instance 1 unanimous false,
        // instance 2 split.
        let inputs: Vec<Vec<bool>> = (0..4).map(|i| vec![true, false, i % 2 == 0]).collect();
        let outs = consensus_run(4, 1, inputs);
        for o in &outs {
            assert!(o[0]);
            assert!(!o[1]);
            assert_eq!(o[2], outs[0][2]);
        }
    }

    #[test]
    fn round_count_is_three_per_phase() {
        let n = 4;
        let metrics = MetricsSink::new();
        let logics: Vec<Logic<Vec<bool>>> = (0..n)
            .map(|_| {
                Box::new(move |ctx: &mut NodeCtx| {
                    let cfg = BsbConfig::new(1, "rounds", vec![true; 4]);
                    block_on(run_king_batch(ctx, &cfg, vec![true], &mut NoopBsbHooks))
                }) as Logic<Vec<bool>>
            })
            .collect();
        let out = run_simulation(SimConfig::new(n), metrics, logics);
        assert_eq!(out.rounds, 6); // (t + 1) phases * 3 rounds
    }

    #[test]
    fn empty_batch_still_synchronises_rounds() {
        let outs = consensus_run(4, 1, vec![Vec::new(); 4]);
        assert_eq!(outs, vec![Vec::<bool>::new(); 4]);
    }

    #[test]
    fn tallies_match_unpacked_counts_and_ignore_padding() {
        for count in [0usize, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 200] {
            let bits: Vec<bool> = (0..count).map(|i| (i * 7 + 3) % 5 < 2).collect();
            let crumbs: Vec<u8> = (0..count).map(|i| ((i * 5 + 1) % 4) as u8).collect();
            // Set every padding bit / crumb of the last byte.
            let mut packed_bits = pack_bits(&bits);
            if count % 8 != 0 {
                *packed_bits.last_mut().unwrap() |= 0xff << (count % 8);
            }
            let mut packed_crumbs = pack_crumbs(&crumbs);
            if count % 4 != 0 {
                *packed_crumbs.last_mut().unwrap() |= 0xff << (2 * (count % 4));
            }

            let mut trues = vec![1u32; count];
            tally_bits(&mut trues, &packed_bits);
            let mut props = (vec![0u32; count], vec![0u32; count]);
            tally_crumbs(&mut props.0, &mut props.1, &packed_crumbs);
            for i in 0..count {
                assert_eq!(trues[i], 1 + u32::from(bits[i]), "count={count} bit {i}");
                assert_eq!(packed_bit(&packed_bits, i), bits[i]);
                assert_eq!(
                    props.0[i],
                    u32::from(crumbs[i] == PROPOSE_TRUE),
                    "count={count} crumb {i}"
                );
                assert_eq!(
                    props.1[i],
                    u32::from(crumbs[i] == PROPOSE_FALSE),
                    "count={count} crumb {i}"
                );
            }
        }
    }
}
