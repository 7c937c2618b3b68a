//! Depth equivalence of the `mvbc-smr` replicated log against a
//! reference slot loop, plus the degraded-mode endgame.
//!
//! The engine's contract is exact: at any depth `W`, under any attack
//! schedule, the *committed* log (per-slot primaries, batches,
//! fallbacks, diagnosis flags, protocol rounds) and the final state
//! digest are identical to the plain one-slot-at-a-time loop
//! [`reference_log`] — pipelining may only cost discarded attempts,
//! never change what commits. At `W = 1` the engine must reproduce the
//! reference's reports exactly, local measurements included.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mvbc_broadcast::attacks::{EquivocatingSource, FramingAccuser};
use mvbc_broadcast::{run_broadcast_slot, BroadcastHooks, NoopBroadcastHooks};
use mvbc_bsb::{BsbHooks, PhaseKingDriver};
use mvbc_core::DiagGraph;
use mvbc_metrics::MetricsSink;
use mvbc_netsim::trace::TraceSink;
use mvbc_netsim::{node_task, run_tasks, slot_scope, NodeCtx, NodeTask, SimConfig};
use mvbc_smr::{
    decode_batch, encode_batch, plan_for_slot, simulate_smr, simulate_smr_traced,
    synthetic_workloads, BatchBuilder, Command, EquivocatingPrimary, HonestReplica, KvStore,
    SilentPrimary, SlotPlan, SlotReport, SmrConfig, SmrHooks, SmrReport, SmrRun, StateMachine,
    MAX_PIPELINE,
};

/// The replicated log as a plain loop over slots, one broadcast at a
/// time on the replica's own context: the test oracle the engine is
/// checked against. Built from public items only, it restates the
/// log's rules — rotation, batching, the caught-primary verdict, the
/// requeue of a caught primary's batch, degraded mode — without the
/// engine's window, versions or discards.
async fn reference_log(
    ctx: &mut NodeCtx,
    cfg: &SmrConfig,
    commands: Vec<Command>,
    hooks: &mut dyn SmrHooks,
    state: &mut KvStore,
) -> SmrReport {
    let me = ctx.id();
    let mut pending = BatchBuilder::new(cfg.batch_capacity());
    pending.extend(commands);
    let mut diag = DiagGraph::new(cfg.n, cfg.t);
    let mut suspects = vec![false; cfg.n];
    let mut slots: Vec<SlotReport> = Vec::new();
    for slot in 0..cfg.slots as u64 {
        if diag.is_isolated(me) {
            break;
        }
        let primary = match plan_for_slot(slot, &diag, &suspects) {
            SlotPlan::Stall => break,
            SlotPlan::DegradedEmpty(nominal) => {
                slots.push(SlotReport::degraded(slot, nominal, ctx.vtime()));
                continue;
            }
            SlotPlan::Lead(p) => p,
        };
        let proposal =
            (me == primary).then(|| encode_batch(&pending.next_batch(), cfg.batch_capacity()));
        let mut slot_hooks = hooks.slot_hooks(slot, me == primary);
        let pre_trust: Vec<bool> = (0..cfg.n).map(|x| diag.trusts(primary, x)).collect();
        let (round_before, bits_before) = (ctx.round(), ctx.bits_sent());
        let report = run_broadcast_slot(
            ctx,
            &cfg.broadcast_config(primary),
            proposal.as_deref(),
            slot_scope("smr", slot),
            &mut diag,
            slot_hooks.as_mut(),
            &mut PhaseKingDriver,
        ).await;
        let caught = report.defaulted
            || diag.is_isolated(primary)
            || (0..cfg.n).any(|x| pre_trust[x] && !diag.trusts(primary, x) && !diag.is_isolated(x));
        if caught {
            suspects[primary] = true;
            if let Some(bytes) = &proposal {
                pending.requeue(decode_batch(bytes));
            }
        }
        let committed = if caught { Vec::new() } else { decode_batch(&report.output) };
        state.apply_batch(&committed);
        slots.push(SlotReport {
            slot,
            primary,
            committed,
            fallback: caught,
            diagnosis_ran: report.diagnosis_invocations > 0,
            diagnosis_invocations: report.diagnosis_invocations,
            bits_sent_by_me: ctx.bits_sent() - bits_before,
            rounds: ctx.round() - round_before,
            commit_vtime: ctx.vtime(),
        });
    }
    SmrReport {
        digest: state.digest(),
        committed_commands: slots.iter().map(|s| s.committed.len() as u64).sum(),
        fallback_slots: slots.iter().filter(|s| s.fallback).count() as u64,
        isolated: (0..cfg.n).filter(|&v| diag.is_isolated(v)).collect(),
        suspects: (0..cfg.n).filter(|&v| suspects[v] || diag.is_isolated(v)).collect(),
        restarts: 0,
        slots,
    }
}

/// [`reference_log`] at every replica inside one round-barrier
/// simulation (the counterpart of `simulate_smr`).
fn simulate_reference(
    cfg: &SmrConfig,
    workloads: Vec<Vec<Command>>,
    hooks: Vec<Box<dyn SmrHooks>>,
) -> SmrRun {
    let tasks: Vec<NodeTask<(SmrReport, KvStore)>> = workloads
        .into_iter()
        .zip(hooks)
        .map(|(commands, mut hook)| {
            let cfg = cfg.clone();
            node_task(async move |ctx: &mut NodeCtx| {
                let mut store = KvStore::default();
                let report = reference_log(ctx, &cfg, commands, hook.as_mut(), &mut store).await;
                (report, store)
            })
        })
        .collect();
    let result = run_tasks(SimConfig::new(cfg.n), MetricsSink::new(), None, tasks);
    let (reports, stores) = result.outputs.into_iter().unzip();
    SmrRun {
        reports,
        stores,
        rounds: result.rounds,
        vtime: result.vtime,
    }
}

/// Asserts the fault-free replicas of the engine run committed the same
/// log, state, digest and suspect set as the reference run — and agree
/// among themselves. A depth-1 engine run must match the reference
/// exactly: every replica's full report (bits, rounds and commit clocks
/// included), its store, and the run's round count.
fn assert_equivalent(
    reference: &SmrRun,
    engine: &SmrRun,
    depth: usize,
    honest: &[usize],
    label: &str,
) {
    for w in honest.windows(2) {
        assert_eq!(
            engine.reports[w[0]].agreed_log(),
            engine.reports[w[1]].agreed_log(),
            "{label}: replicas {} and {} diverged",
            w[0],
            w[1]
        );
    }
    for &h in honest {
        assert_eq!(
            engine.reports[h].agreed_log(),
            reference.reports[h].agreed_log(),
            "{label}: replica {h} log differs from the reference"
        );
        assert_eq!(engine.reports[h].digest, reference.reports[h].digest, "{label}: digest");
        assert_eq!(engine.stores[h], reference.stores[h], "{label}: state");
        assert_eq!(
            engine.reports[h].suspects, reference.reports[h].suspects,
            "{label}: suspect sets"
        );
    }
    if depth == 1 {
        assert_eq!(engine.reports, reference.reports, "{label}: depth-1 reports");
        assert_eq!(engine.stores, reference.stores, "{label}: depth-1 stores");
        assert_eq!(engine.rounds, reference.rounds, "{label}: depth-1 rounds");
    }
}

/// Seeded schedules with Byzantine primaries in rotation — an
/// always-equivocator, a silent leader, and a *sleeper* that behaves
/// until its second primary turn — each committed at depths
/// W ∈ {1, 2, 4} with the reference's batches and `KvStore` digests.
#[test]
fn seeded_attack_schedules_commit_identical_logs_at_depths_1_2_4() {
    let n = 4usize;
    let slots = 10usize;
    for seed in 0..6u64 {
        let byz = (seed % n as u64) as usize;
        let kind = seed % 3;
        let mk_hooks = || -> Vec<Box<dyn SmrHooks>> {
            (0..n)
                .map(|i| -> Box<dyn SmrHooks> {
                    if i != byz {
                        return HonestReplica::boxed();
                    }
                    match kind {
                        0 => Box::new(EquivocatingPrimary::default()),
                        1 => Box::new(SilentPrimary),
                        // Sleeper: honest through its first primary turn,
                        // equivocates on its second.
                        _ => Box::new(EquivocatingPrimary {
                            on_slots: Some(vec![byz as u64 + n as u64]),
                        }),
                    }
                })
                .collect()
        };
        let workloads = || synthetic_workloads(n, 6, seed + 1);
        let cfg = SmrConfig::new(n, 1, slots, 2).unwrap();
        let reference = simulate_reference(&cfg, workloads(), mk_hooks());
        let honest: Vec<usize> = (0..n).filter(|&i| i != byz).collect();
        for w in [1usize, 2, 4] {
            let label = format!("seed {seed} kind {kind} W {w}");
            let pipe_cfg = cfg.clone().with_pipeline(w);
            let pipe = simulate_smr(&pipe_cfg, workloads(), mk_hooks(), MetricsSink::new());
            assert_equivalent(&reference, &pipe, w, &honest, &label);
        }
    }
}

/// Honest pipelining at n = 7, t = 2: full-depth windows cut the round
/// count by roughly the depth while committing the identical log.
#[test]
fn honest_pipeline_cuts_rounds_without_changing_the_log() {
    let n = 7usize;
    let cfg = SmrConfig::new(n, 2, 12, 4).unwrap();
    let workloads = || synthetic_workloads(n, 8, 3);
    let hooks = |_: ()| (0..n).map(|_| HonestReplica::boxed()).collect();
    let reference = simulate_reference(&cfg, workloads(), hooks(()));
    let all: Vec<usize> = (0..n).collect();
    for w in [1usize, 4] {
        let pipe_cfg = cfg.clone().with_pipeline(w);
        let pipe = simulate_smr(&pipe_cfg, workloads(), hooks(()), MetricsSink::new());
        assert_equivalent(&reference, &pipe, w, &all, &format!("honest n=7 W {w}"));
        assert!(pipe.reports.iter().all(|r| r.restarts == 0));
        if w == 4 {
            assert!(
                pipe.rounds * 3 <= reference.rounds,
                "depth 4 should cut rounds by ~4x, got {} vs {}",
                pipe.rounds,
                reference.rounds
            );
        }
    }
}

/// Two simultaneous Byzantine replicas at n = 7, t = 2 (an equivocator
/// and a silent leader), at depths 1 and 4 against the reference.
#[test]
fn two_byzantine_replicas_pipeline_equivalently() {
    let n = 7usize;
    let byz_eq = 1usize;
    let byz_silent = 4usize;
    let mk_hooks = || -> Vec<Box<dyn SmrHooks>> {
        (0..n)
            .map(|i| -> Box<dyn SmrHooks> {
                if i == byz_eq {
                    Box::new(EquivocatingPrimary::default())
                } else if i == byz_silent {
                    Box::new(SilentPrimary)
                } else {
                    HonestReplica::boxed()
                }
            })
            .collect()
    };
    let cfg = SmrConfig::new(n, 2, 10, 2).unwrap();
    let workloads = || synthetic_workloads(n, 4, 9);
    let reference = simulate_reference(&cfg, workloads(), mk_hooks());
    let honest: Vec<usize> = (0..n).filter(|&i| i != byz_eq && i != byz_silent).collect();
    for w in [1usize, 4] {
        let pipe_cfg = cfg.clone().with_pipeline(w);
        let pipe = simulate_smr(&pipe_cfg, workloads(), mk_hooks(), MetricsSink::new());
        assert_equivalent(&reference, &pipe, w, &honest, &format!("two byzantine W {w}"));
    }
    // Both attacks were caught and excluded.
    let r = &reference.reports[honest[0]];
    assert!(r.suspects.contains(&byz_eq) && r.suspects.contains(&byz_silent));
}

/// The deepest pipeline — `MAX_PIPELINE` slot lanes per replica, all
/// polled on the replica's own thread — commits the reference log under
/// an equivocating and under a silent primary, and two runs of it put
/// byte-identical traces on the wire.
#[test]
fn max_pipeline_commits_the_reference_log_deterministically() {
    let n = 4usize;
    let cfg = SmrConfig::new(n, 1, 2 * MAX_PIPELINE, 2).unwrap();
    let workloads = || synthetic_workloads(n, 2 * MAX_PIPELINE, 5);
    for (kind, byz) in [("equivocating", 1usize), ("silent", 2)] {
        let mk_hooks = || -> Vec<Box<dyn SmrHooks>> {
            (0..n)
                .map(|i| -> Box<dyn SmrHooks> {
                    match (i == byz, kind) {
                        (false, _) => HonestReplica::boxed(),
                        (true, "equivocating") => Box::new(EquivocatingPrimary::default()),
                        (true, _) => Box::new(SilentPrimary),
                    }
                })
                .collect()
        };
        let reference = simulate_reference(&cfg, workloads(), mk_hooks());
        let honest: Vec<usize> = (0..n).filter(|&i| i != byz).collect();
        let pipe_cfg = cfg.clone().with_pipeline(MAX_PIPELINE);
        let digests: Vec<u64> = (0..2)
            .map(|_| {
                let trace = TraceSink::new();
                let run = simulate_smr_traced(
                    &pipe_cfg,
                    workloads(),
                    mk_hooks(),
                    MetricsSink::new(),
                    Some(trace.clone()),
                );
                let label = format!("{kind} primary W {MAX_PIPELINE}");
                assert_equivalent(&reference, &run, MAX_PIPELINE, &honest, &label);
                assert!(run.reports[honest[0]].restarts > 0, "{label}: the window was discarded");
                trace.digest()
            })
            .collect();
        assert_eq!(digests[0], digests[1], "{kind} primary: trace digests differ between runs");
    }
}

/// A colluding team member that frames sitting primaries on scheduled
/// slots (each frame burns one accuser edge — at most `t` safe frames per
/// accuser, and every isolation of a teammate erodes the remaining
/// budget, so all frames are spent *before* any teammate blows up) and
/// equivocates on scheduled primary turns of its own, behaving honestly
/// otherwise.
struct ColludingByzantine {
    /// Slots on which to frame the sitting primary (when not leading).
    frame_slots: Vec<u64>,
    /// Own primary turns on which to equivocate (honest otherwise).
    equivocate_slots: Vec<u64>,
}

impl SmrHooks for ColludingByzantine {
    fn slot_hooks(&mut self, slot: u64, i_am_primary: bool) -> Box<dyn BroadcastHooks> {
        if i_am_primary && self.equivocate_slots.contains(&slot) {
            Box::new(EquivocatingSource)
        } else if !i_am_primary && self.frame_slots.contains(&slot) {
            Box::new(FramingAccuser)
        } else {
            NoopBroadcastHooks::boxed()
        }
    }
}

/// The choreography (n = 10, t = 3, replicas 7-9 colluding): as caught
/// primaries leave the rotation, the eligible pool shrinks
/// deterministically, so the team schedules one catch per honest-led
/// slot — frames on the seven honest primaries (slots 0, 1, 2 by replica
/// 7; slots 3, 6, 10 by replica 8; slot 12 by replica 9), honest
/// behaviour on their own mid-campaign turns (so no early isolation
/// wastes frame budget), then end-game equivocations on slots 13 and 14.
/// After slot 14 every active replica is a suspect: degraded mode.
/// `Some(w)` runs the engine at depth `w`, `None` runs [`reference_log`].
fn degraded_scenario(pipeline: Option<usize>) -> (SmrRun, Vec<usize>) {
    let n = 10usize;
    let t = 3usize;
    let byz: Vec<usize> = vec![7, 8, 9];
    let slots = 18usize;
    let cfg = SmrConfig::new(n, t, slots, 1).unwrap();
    let hooks: Vec<Box<dyn SmrHooks>> = (0..n)
        .map(|i| -> Box<dyn SmrHooks> {
            match i {
                7 => Box::new(ColludingByzantine {
                    frame_slots: vec![0, 1, 2],
                    equivocate_slots: vec![],
                }),
                8 => Box::new(ColludingByzantine {
                    frame_slots: vec![3, 6, 10],
                    equivocate_slots: vec![13],
                }),
                9 => Box::new(ColludingByzantine {
                    frame_slots: vec![12],
                    equivocate_slots: vec![14],
                }),
                _ => HonestReplica::boxed(),
            }
        })
        .collect();
    let workloads = synthetic_workloads(n, 4, 5);
    let run = match pipeline {
        Some(w) => simulate_smr(&cfg.with_pipeline(w), workloads, hooks, MetricsSink::new()),
        None => simulate_reference(&cfg, workloads, hooks),
    };
    let honest: Vec<usize> = (0..n).filter(|i| !byz.contains(i)).collect();
    (run, honest)
}

#[test]
fn framing_team_drives_the_log_into_safe_degraded_mode() {
    let (run, honest) = degraded_scenario(Some(1));
    for w in honest.windows(2) {
        assert_eq!(run.reports[w[0]].agreed_log(), run.reports[w[1]].agreed_log());
        assert_eq!(run.stores[w[0]], run.stores[w[1]]);
    }
    let r = &run.reports[honest[0]];
    assert_eq!(r.slots.len(), 18, "degraded mode keeps the log live for empty slots");

    // The endgame is reached: every replica still active is a suspect.
    let active: Vec<usize> = (0..10).filter(|v| !r.isolated.contains(v)).collect();
    assert!(
        active.iter().all(|v| r.suspects.contains(v)),
        "not fully degraded: active {active:?}, suspects {:?}",
        r.suspects
    );

    // Degraded slots have the agreed-empty signature (no broadcast ran),
    // and once entered, the mode is permanent.
    let first_degraded = r
        .slots
        .iter()
        .position(|s| s.fallback && !s.diagnosis_ran && s.rounds == 0)
        .expect("the schedule must reach degraded mode");
    for s in &r.slots[first_degraded..] {
        assert!(s.fallback && s.committed.is_empty(), "slot {} broke degraded mode", s.slot);
        assert!(!s.diagnosis_ran && s.rounds == 0, "slot {} ran a broadcast", s.slot);
    }
    assert!(first_degraded <= 15, "degradation must set in once every replica is caught");

    // Safety of the fix: once a replica is caught (its slot fell back
    // with a broadcast), it never again leads a slot that commits.
    for (i, s) in r.slots.iter().enumerate() {
        if s.fallback && s.diagnosis_ran {
            assert!(
                r.slots[i + 1..].iter().all(|later| later.fallback || later.primary != s.primary),
                "caught primary {} led committing slot after slot {}",
                s.primary,
                s.slot
            );
        }
    }
}

#[test]
fn degraded_mode_pipelines_equivalently() {
    let (reference, honest) = degraded_scenario(None);
    for w in [1usize, 3] {
        let (pipe, _) = degraded_scenario(Some(w));
        assert_equivalent(&reference, &pipe, w, &honest, &format!("degraded endgame W {w}"));
    }
}

/// What an honest replica's broadcast saw in one slot attempt.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Seen {
    /// The replica led the attempt.
    leads: bool,
    /// It detected an inconsistency in some generation.
    detected: bool,
    /// Positions of `false` in its trust vectors (`0` is the source, `1..`
    /// the echo set): the processors it accused.
    accused: Vec<usize>,
}

/// Per `(replica, slot)`, one [`Seen`] per attempt, in attempt order.
type Journal = Arc<Mutex<BTreeMap<(usize, u64), Vec<Seen>>>>;

/// Honest behaviour that records what each slot attempt saw.
struct Watched {
    me: usize,
    journal: Journal,
}

impl SmrHooks for Watched {
    fn slot_hooks(&mut self, slot: u64, i_am_primary: bool) -> Box<dyn BroadcastHooks> {
        let key = (self.me, slot);
        let mut journal = self.journal.lock().unwrap();
        let attempts = journal.entry(key).or_default();
        attempts.push(Seen { leads: i_am_primary, ..Seen::default() });
        let attempt = attempts.len() - 1;
        Box::new(Watcher { journal: self.journal.clone(), key, attempt })
    }
}

struct Watcher {
    journal: Journal,
    key: (usize, u64),
    attempt: usize,
}

impl Watcher {
    fn note(&self, f: impl FnOnce(&mut Seen)) {
        f(&mut self.journal.lock().unwrap().get_mut(&self.key).unwrap()[self.attempt]);
    }
}

impl BsbHooks for Watcher {}

impl BroadcastHooks for Watcher {
    fn detected_flag(&mut self, _g: usize, flag: &mut bool) {
        let detected = *flag;
        self.note(|seen| seen.detected |= detected);
    }

    fn trust_bits(&mut self, _g: usize, bits: &mut Vec<bool>) {
        let accused: Vec<usize> = (0..bits.len()).filter(|&i| !bits[i]).collect();
        self.note(|seen| seen.accused.extend(accused));
    }
}

/// Cancel safety: a discarded slot attempt's lane is cancelled at every
/// replica after the same round, so no honest replica ever reads another
/// honest replica's silence on it as a fault. At n = 7 a silent leader,
/// and a teammate that frames and later equivocates, force discards; with
/// twelve one-byte generations per slot a silent leader's slot ends
/// before the slots spawned after it, so live lanes are cancelled. In
/// every attempt an honest replica leads, no honest replica detects or
/// accuses anyone; in every attempt a Byzantine replica leads, honest
/// replicas accuse only the source; no honest replica is isolated. The
/// committed log is the reference's at every depth up to `MAX_PIPELINE`.
/// (Letting only even ids cancel, while odd ones run the attempt on,
/// fails this test.)
#[test]
fn cancelled_attempts_never_turn_honest_replicas_against_each_other() {
    let n = 7usize;
    let (silent, framer) = (1usize, 4usize);
    let byz = [silent, framer];
    let honest: Vec<usize> = (0..n).filter(|i| !byz.contains(i)).collect();
    let mk_hooks = |journal: &Journal| -> Vec<Box<dyn SmrHooks>> {
        (0..n)
            .map(|i| -> Box<dyn SmrHooks> {
                match i {
                    _ if i == silent => Box::new(SilentPrimary),
                    _ if i == framer => Box::new(ColludingByzantine {
                        frame_slots: vec![3, 9],
                        equivocate_slots: vec![11],
                    }),
                    _ => Box::new(Watched { me: i, journal: journal.clone() }),
                }
            })
            .collect()
    };
    let mut cfg = SmrConfig::new(n, 2, 18, 2).unwrap();
    cfg.gen_bytes = Some(1);
    let workloads = || synthetic_workloads(n, 6, 13);
    let reference = simulate_reference(&cfg, workloads(), mk_hooks(&Journal::default()));
    for w in [1usize, 2, 4, MAX_PIPELINE] {
        let label = format!("W {w}");
        let journal = Journal::default();
        let pipe_cfg = cfg.clone().with_pipeline(w);
        let run = simulate_smr(&pipe_cfg, workloads(), mk_hooks(&journal), MetricsSink::new());
        assert_equivalent(&reference, &run, w, &honest, &label);
        if w == 4 {
            assert!(run.reports[honest[0]].restarts > 0, "{label}: attempts were cancelled");
        }
        for &h in &honest {
            let isolated = &run.reports[h].isolated;
            assert!(isolated.iter().all(|i| byz.contains(i)), "{label}: replica {h} isolated {isolated:?}");
        }
        let journal = journal.lock().unwrap();
        for slot in 0..cfg.slots as u64 {
            let attempts: Vec<&Vec<Seen>> = honest.iter().map(|&h| &journal[&(h, slot)]).collect();
            let count = attempts[0].len();
            assert!(attempts.iter().all(|a| a.len() == count), "{label}: slot {slot} attempts differ");
            for k in 0..count {
                let honest_leader = attempts.iter().any(|a| a[k].leads);
                for (&h, a) in honest.iter().zip(&attempts) {
                    let seen = &a[k];
                    if honest_leader {
                        assert!(
                            !seen.detected && seen.accused.is_empty(),
                            "{label}: replica {h}, slot {slot} attempt {k}: {seen:?} under an honest leader"
                        );
                    } else {
                        assert!(
                            seen.accused.iter().all(|&i| i == 0),
                            "{label}: replica {h}, slot {slot} attempt {k} accused an echo: {seen:?}"
                        );
                    }
                }
            }
        }
    }
}
