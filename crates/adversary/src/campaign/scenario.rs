//! The declarative [`Scenario`] description and its JSON round-trip.
//!
//! A scenario is *data*: everything a replicated-log adversary campaign
//! run depends on — parameters, network model, and the timeline of
//! Byzantine behaviours — captured in one plain struct that
//! (de)serializes through the shared [`mvbc_metrics::json`] document
//! model. Because every input is in the document and every simulation
//! component is seeded, a failing draw replays byte-exactly from its
//! JSON alone.

use mvbc_metrics::json::{parse_json, JsonValue};
use mvbc_netsim::{LinkModel, NetModel, Partition, PartitionBehavior, SchedulingPolicy, Topology};
use mvbc_smr::MAX_PIPELINE;

/// Schema marker embedded in every scenario document.
pub const SCENARIO_SCHEMA: &str = "mvbc.scenario.v1";

/// Largest `n` a scenario may ask for: twice the largest committee the
/// repo runs anywhere (the benchmark's n = 64 `log_n64`; generated
/// scenarios draw n <= 10).
pub const MAX_SCENARIO_N: usize = 128;

/// Largest `slots`: 20x the longest log the repo runs (the benchmark's
/// 3000-slot `log_small`; generated scenarios draw at most 15).
pub const MAX_SCENARIO_SLOTS: usize = 1 << 16;

/// Largest `batch`: above the benchmark's biggest slot (174 763 commands
/// on `log_bulk`; generated scenarios draw at most 4).
pub const MAX_SCENARIO_BATCH: usize = 1 << 18;

/// Largest `slots × batch`, the commands the runner generates for each
/// replica up front: 6x the benchmark's largest stream (`log_bulk`),
/// and at most 1 GiB of commands at [`MAX_SCENARIO_N`] replicas.
pub const MAX_SCENARIO_COMMANDS: usize = 1 << 20;

/// One composable Byzantine behaviour a corrupted replica runs while a
/// [`Corruption`] window is active. Each maps onto a broadcast-layer
/// attack hook from [`mvbc_broadcast::attacks`], chosen per slot by
/// whether the replica is that slot's primary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Behavior {
    /// Equivocate during dispersal whenever primary: odd-id recipients
    /// get corrupted symbols, the split proposal is detected, the slot
    /// falls back and the rotation drops the replica.
    Equivocate,
    /// Never disperse when primary (a crashed or withholding leader).
    SilentLeader,
    /// Flip the claimed data bits during any diagnosis stage of the
    /// replica's own slots (a primary lying about what it sent).
    LyingDiagnosis,
    /// As an echo-set member, corrupt relays toward the replica `step`
    /// ids ahead (mod `n`).
    LyingEcho {
        /// Offset of the framed relay target, `1 <= step < n`.
        step: usize,
    },
    /// As an echo-set member, never relay (receivers detect the
    /// silence).
    SilentEcho,
    /// On each listed slot (when not primary), claim a false detection
    /// and accuse that slot's primary during diagnosis — the framing
    /// attack that burns one of the accuser's `t + 1` disposable edges
    /// per accusation and evicts a fault-free primary from rotation.
    Frame {
        /// Slots on which to fire the accusation.
        slots: Vec<u64>,
    },
}

impl Behavior {
    /// Stable behaviour name, used in scenario JSON and campaign
    /// behaviour-mix statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            Behavior::Equivocate => "equivocate",
            Behavior::SilentLeader => "silent-leader",
            Behavior::LyingDiagnosis => "lying-diagnosis",
            Behavior::LyingEcho { .. } => "lying-echo",
            Behavior::SilentEcho => "silent-echo",
            Behavior::Frame { .. } => "frame",
        }
    }

    fn to_json(&self) -> JsonValue {
        let mut fields = vec![("kind".to_owned(), JsonValue::Str(self.kind().to_owned()))];
        match self {
            Behavior::LyingEcho { step } => {
                fields.push(("step".to_owned(), JsonValue::Num(*step as f64)));
            }
            Behavior::Frame { slots } => {
                fields.push((
                    "slots".to_owned(),
                    JsonValue::Arr(slots.iter().map(|&s| JsonValue::Num(s as f64)).collect()),
                ));
            }
            _ => {}
        }
        JsonValue::Obj(fields)
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("behavior missing \"kind\"")?;
        match kind {
            "equivocate" => Ok(Behavior::Equivocate),
            "silent-leader" => Ok(Behavior::SilentLeader),
            "lying-diagnosis" => Ok(Behavior::LyingDiagnosis),
            "lying-echo" => Ok(Behavior::LyingEcho {
                step: req_u64(v, "step", "lying-echo behavior")? as usize,
            }),
            "silent-echo" => Ok(Behavior::SilentEcho),
            "frame" => {
                let slots = v
                    .get("slots")
                    .and_then(JsonValue::as_array)
                    .ok_or("frame behavior missing \"slots\"")?
                    .iter()
                    .map(|s| s.as_u64().ok_or_else(|| "frame slot must be a non-negative integer".to_owned()))
                    .collect::<Result<Vec<u64>, String>>()?;
                Ok(Behavior::Frame { slots })
            }
            other => Err(format!("unknown behavior kind {other:?}")),
        }
    }
}

/// One entry of a scenario's corruption timeline: `replica` runs
/// `behavior` for slots in `[from_slot, until_slot)` (`None` = to the
/// end of the log). Later `from_slot`s model corruptions switching on
/// mid-run; a staggered sequence of them is a slow-compromise ramp, and
/// several replicas sharing coordinated [`Behavior::Frame`] schedules
/// form a colluding group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corruption {
    /// The corrupted replica.
    pub replica: usize,
    /// First slot (inclusive) on which the behaviour is active.
    pub from_slot: u64,
    /// First slot on which it is inactive again (`None` = never).
    pub until_slot: Option<u64>,
    /// What the replica does while active.
    pub behavior: Behavior,
}

impl Corruption {
    /// Whether the window covers `slot`.
    pub fn active(&self, slot: u64) -> bool {
        slot >= self.from_slot && self.until_slot.is_none_or(|u| slot < u)
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("replica".to_owned(), JsonValue::Num(self.replica as f64)),
            ("from_slot".to_owned(), JsonValue::Num(self.from_slot as f64)),
            (
                "until_slot".to_owned(),
                match self.until_slot {
                    Some(u) => JsonValue::Num(u as f64),
                    None => JsonValue::Null,
                },
            ),
            ("behavior".to_owned(), self.behavior.to_json()),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        Ok(Corruption {
            replica: req_u64(v, "replica", "corruption")? as usize,
            from_slot: req_u64(v, "from_slot", "corruption")?,
            until_slot: match v.get("until_slot") {
                None | Some(JsonValue::Null) => None,
                Some(u) => Some(u.as_u64().ok_or("corruption until_slot must be a non-negative integer or null")?),
            },
            behavior: Behavior::from_json(v.get("behavior").ok_or("corruption missing \"behavior\"")?)?,
        })
    }
}

/// Per-link latency of a scenario's network plan (mirror of
/// [`mvbc_netsim::LinkModel`] in plain data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkPlan {
    /// Every link takes exactly this many ticks.
    Fixed(u64),
    /// `base + U[0, jitter]` ticks per message.
    Jitter {
        /// Minimum link latency.
        base: u64,
        /// Uniform jitter bound.
        jitter: u64,
    },
    /// Cluster-dependent base latency (needs a clusters topology).
    Wan {
        /// Base latency inside a cluster.
        intra: u64,
        /// Base latency between clusters.
        inter: u64,
        /// Uniform jitter bound.
        jitter: u64,
    },
}

impl LinkPlan {
    fn to_json(self) -> JsonValue {
        match self {
            LinkPlan::Fixed(ticks) => JsonValue::Obj(vec![
                ("kind".to_owned(), JsonValue::Str("fixed".to_owned())),
                ("ticks".to_owned(), JsonValue::Num(ticks as f64)),
            ]),
            LinkPlan::Jitter { base, jitter } => JsonValue::Obj(vec![
                ("kind".to_owned(), JsonValue::Str("jitter".to_owned())),
                ("base".to_owned(), JsonValue::Num(base as f64)),
                ("jitter".to_owned(), JsonValue::Num(jitter as f64)),
            ]),
            LinkPlan::Wan { intra, inter, jitter } => JsonValue::Obj(vec![
                ("kind".to_owned(), JsonValue::Str("wan".to_owned())),
                ("intra".to_owned(), JsonValue::Num(intra as f64)),
                ("inter".to_owned(), JsonValue::Num(inter as f64)),
                ("jitter".to_owned(), JsonValue::Num(jitter as f64)),
            ]),
        }
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        match v.get("kind").and_then(JsonValue::as_str).ok_or("link missing \"kind\"")? {
            "fixed" => Ok(LinkPlan::Fixed(req_u64(v, "ticks", "fixed link")?)),
            "jitter" => Ok(LinkPlan::Jitter {
                base: req_u64(v, "base", "jitter link")?,
                jitter: req_u64(v, "jitter", "jitter link")?,
            }),
            "wan" => Ok(LinkPlan::Wan {
                intra: req_u64(v, "intra", "wan link")?,
                inter: req_u64(v, "inter", "wan link")?,
                jitter: req_u64(v, "jitter", "wan link")?,
            }),
            other => Err(format!("unknown link kind {other:?}")),
        }
    }
}

/// One scheduled partition of a scenario's network plan. `drop: false`
/// (delay) preserves the synchronous model — crossings queue at the cut
/// and deliver at the heal; with a single-node island this is the
/// eclipse-style suppression of one replica. `drop: true` loses
/// crossings outright, which steps *outside* the error-free model: the
/// campaign generator never draws it, but hand-written known-bad
/// scenarios use it to demonstrate the invariant checker firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Virtual time at which the cut forms.
    pub start: u64,
    /// Virtual time at which it heals (exclusive).
    pub heal: u64,
    /// The cut-off nodes.
    pub island: Vec<usize>,
    /// Drop crossings (`true`) or delay them until the heal (`false`).
    pub drop: bool,
}

impl PartitionPlan {
    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("start".to_owned(), JsonValue::Num(self.start as f64)),
            ("heal".to_owned(), JsonValue::Num(self.heal as f64)),
            (
                "island".to_owned(),
                JsonValue::Arr(self.island.iter().map(|&i| JsonValue::Num(i as f64)).collect()),
            ),
            (
                "mode".to_owned(),
                JsonValue::Str(if self.drop { "drop" } else { "delay" }.to_owned()),
            ),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let island = v
            .get("island")
            .and_then(JsonValue::as_array)
            .ok_or("partition missing \"island\"")?
            .iter()
            .map(|i| i.as_u64().map(|i| i as usize).ok_or_else(|| "partition island ids must be non-negative integers".to_owned()))
            .collect::<Result<Vec<usize>, String>>()?;
        let drop = match v.get("mode").and_then(JsonValue::as_str).unwrap_or("delay") {
            "drop" => true,
            "delay" => false,
            other => return Err(format!("partition mode is drop or delay, got {other:?}")),
        };
        Ok(PartitionPlan {
            start: req_u64(v, "start", "partition")?,
            heal: req_u64(v, "heal", "partition")?,
            island,
            drop,
        })
    }
}

/// The workspace's one description of an event-driven network, shared
/// by scenario documents and the `mvbc smr` network flags: a plain-data
/// [`mvbc_netsim::NetModel`] that [`NetPlan::validate`] checks against
/// `n` and [`NetPlan::policy`] turns into a scheduling policy. A
/// scenario without one runs under the round-barrier policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetPlan {
    /// Per-link latency model.
    pub link: LinkPlan,
    /// Cluster sizes (empty = clique; non-empty sizes must sum to `n`).
    pub clusters: Vec<usize>,
    /// Scheduled partitions.
    pub partitions: Vec<PartitionPlan>,
    /// Seed of the jitter stream.
    pub net_seed: u64,
}

impl NetPlan {
    /// Checks the plan against `n` nodes: cluster sizes, the wan link
    /// model's topology and every partition's window and island.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        if !self.clusters.is_empty() {
            if self.clusters.contains(&0) {
                return Err("clusters must be non-empty".to_owned());
            }
            let total: usize = self.clusters.iter().sum();
            if total != n {
                return Err(format!("cluster sizes {:?} sum to {total}, not n = {n}", self.clusters));
            }
        }
        if matches!(self.link, LinkPlan::Wan { .. }) && self.clusters.is_empty() {
            return Err("the wan link model needs a clusters topology".to_owned());
        }
        for p in &self.partitions {
            if p.start >= p.heal {
                return Err(format!("partition window [{}, {}) is empty", p.start, p.heal));
            }
            if p.island.is_empty() {
                return Err("partition island is empty".to_owned());
            }
            if let Some(bad) = p.island.iter().find(|&&i| i >= n) {
                return Err(format!("partition island id {bad} out of range (n = {n})"));
            }
        }
        Ok(())
    }

    /// The event-driven scheduling policy this plan describes.
    pub fn policy(&self) -> SchedulingPolicy {
        let link = match self.link {
            LinkPlan::Fixed(ticks) => LinkModel::Fixed(ticks),
            LinkPlan::Jitter { base, jitter } => LinkModel::UniformJitter { base, jitter },
            LinkPlan::Wan { intra, inter, jitter } => LinkModel::Wan { intra, inter, jitter },
        };
        let topology = if self.clusters.is_empty() {
            Topology::Clique
        } else {
            Topology::Clusters(self.clusters.clone())
        };
        let mut model = NetModel::new(link, topology).with_seed(self.net_seed);
        for p in &self.partitions {
            model = model.with_partition(Partition {
                start: p.start,
                heal: p.heal,
                island: p.island.clone(),
                behavior: if p.drop { PartitionBehavior::Drop } else { PartitionBehavior::Delay },
            });
        }
        SchedulingPolicy::EventDriven(model)
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("link".to_owned(), self.link.to_json()),
            (
                "clusters".to_owned(),
                JsonValue::Arr(self.clusters.iter().map(|&c| JsonValue::Num(c as f64)).collect()),
            ),
            (
                "partitions".to_owned(),
                JsonValue::Arr(self.partitions.iter().map(PartitionPlan::to_json).collect()),
            ),
            ("net_seed".to_owned(), JsonValue::Str(self.net_seed.to_string())),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let clusters = match v.get("clusters") {
            None | Some(JsonValue::Null) => Vec::new(),
            Some(c) => c
                .as_array()
                .ok_or("net clusters must be an array")?
                .iter()
                .map(|s| s.as_u64().map(|s| s as usize).ok_or_else(|| "cluster sizes must be non-negative integers".to_owned()))
                .collect::<Result<Vec<usize>, String>>()?,
        };
        let partitions = match v.get("partitions") {
            None | Some(JsonValue::Null) => Vec::new(),
            Some(p) => p
                .as_array()
                .ok_or("net partitions must be an array")?
                .iter()
                .map(PartitionPlan::from_json)
                .collect::<Result<Vec<PartitionPlan>, String>>()?,
        };
        Ok(NetPlan {
            link: LinkPlan::from_json(v.get("link").ok_or("net missing \"link\"")?)?,
            clusters,
            partitions,
            net_seed: seed_u64(v, "net_seed")?.unwrap_or(1),
        })
    }
}

/// One declarative campaign scenario: the full input of a replicated-log
/// run under a composed adversary, as replayable data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Human-readable scenario name (doubles as the emitted file stem).
    pub name: String,
    /// Workload seed (the client command streams).
    pub seed: u64,
    /// Number of replicas.
    pub n: usize,
    /// Fault tolerance (`t < n/3`).
    pub t: usize,
    /// Log slots.
    pub slots: usize,
    /// Max commands per slot batch.
    pub batch: usize,
    /// Pipeline depth `W`.
    pub pipeline: usize,
    /// Abort if the virtual clock exceeds this budget (`None` =
    /// unbounded).
    pub max_vtime: Option<u64>,
    /// Event-driven network plan (`None` = round-barrier).
    pub net: Option<NetPlan>,
    /// The adversary timeline.
    pub corruptions: Vec<Corruption>,
}

impl Scenario {
    /// The distinct corrupted replica ids, sorted.
    pub fn byzantine(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.corruptions.iter().map(|c| c.replica).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Whether every assumption of the error-free synchronous model
    /// holds: at most `t` corrupted replicas and no drop partitions.
    /// The campaign generator only draws model-preserving scenarios, so
    /// the invariant checker proves a protocol bug on any violation; a
    /// non-model-preserving scenario (a known-bad fixture) is *expected*
    /// to trip the checker.
    pub fn is_model_preserving(&self) -> bool {
        self.byzantine().len() <= self.t
            && self
                .net
                .as_ref()
                .is_none_or(|net| net.partitions.iter().all(|p| !p.drop))
    }

    /// Structural validation: parameter ranges, corruption targets and
    /// the network plan ([`NetPlan::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        // `t < n/3` without forming `3 * t`, which can wrap.
        if self.n < 4 || self.t >= self.n.div_ceil(3) {
            return Err(format!("need 4 <= n and t < n/3 (n = {}, t = {})", self.n, self.t));
        }
        if self.slots == 0 || self.batch == 0 || self.pipeline == 0 {
            return Err("slots, batch and pipeline must all be at least 1".to_owned());
        }
        for (field, value, cap) in [
            ("n", self.n, MAX_SCENARIO_N),
            ("slots", self.slots, MAX_SCENARIO_SLOTS),
            ("batch", self.batch, MAX_SCENARIO_BATCH),
            ("pipeline", self.pipeline, MAX_PIPELINE),
        ] {
            if value > cap {
                return Err(format!("{field} = {value} is over the cap of {cap}"));
            }
        }
        if self.slots.checked_mul(self.batch).is_none_or(|c| c > MAX_SCENARIO_COMMANDS) {
            return Err(format!(
                "slots × batch = {} × {} is over the cap of {MAX_SCENARIO_COMMANDS} commands per replica",
                self.slots, self.batch
            ));
        }
        for c in &self.corruptions {
            if c.replica >= self.n {
                return Err(format!("corruption replica {} out of range (n = {})", c.replica, self.n));
            }
            if c.until_slot.is_some_and(|u| u <= c.from_slot) {
                return Err(format!(
                    "corruption window [{}, {:?}) of replica {} is empty",
                    c.from_slot, c.until_slot, c.replica
                ));
            }
            if let Behavior::LyingEcho { step } = c.behavior {
                if step == 0 || step >= self.n {
                    return Err(format!("lying-echo step {step} must be in 1..n"));
                }
            }
        }
        self.net.as_ref().map_or(Ok(()), |net| net.validate(self.n))
    }

    /// Renders the scenario as its canonical JSON document.
    pub fn to_json(&self) -> String {
        JsonValue::Obj(vec![
            ("schema".to_owned(), JsonValue::Str(SCENARIO_SCHEMA.to_owned())),
            ("name".to_owned(), JsonValue::Str(self.name.clone())),
            // Seeds are full 64-bit values; JSON numbers (f64) lose
            // precision above 2^53, so they travel as decimal strings.
            ("seed".to_owned(), JsonValue::Str(self.seed.to_string())),
            ("n".to_owned(), JsonValue::Num(self.n as f64)),
            ("t".to_owned(), JsonValue::Num(self.t as f64)),
            ("slots".to_owned(), JsonValue::Num(self.slots as f64)),
            ("batch".to_owned(), JsonValue::Num(self.batch as f64)),
            ("pipeline".to_owned(), JsonValue::Num(self.pipeline as f64)),
            (
                "max_vtime".to_owned(),
                match self.max_vtime {
                    Some(v) => JsonValue::Num(v as f64),
                    None => JsonValue::Null,
                },
            ),
            (
                "net".to_owned(),
                match &self.net {
                    Some(net) => net.to_json(),
                    None => JsonValue::Null,
                },
            ),
            (
                "corruptions".to_owned(),
                JsonValue::Arr(self.corruptions.iter().map(Corruption::to_json).collect()),
            ),
        ])
        .render()
    }

    /// Parses and validates a scenario document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax, schema or validation
    /// error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = parse_json(text)?;
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some(SCENARIO_SCHEMA) => {}
            Some(other) => return Err(format!("unsupported scenario schema {other:?}")),
            None => return Err("scenario missing \"schema\"".to_owned()),
        }
        let corruptions = match doc.get("corruptions") {
            None | Some(JsonValue::Null) => Vec::new(),
            Some(c) => c
                .as_array()
                .ok_or("corruptions must be an array")?
                .iter()
                .map(Corruption::from_json)
                .collect::<Result<Vec<Corruption>, String>>()?,
        };
        let scenario = Scenario {
            name: doc
                .get("name")
                .and_then(JsonValue::as_str)
                .unwrap_or("unnamed")
                .to_owned(),
            seed: seed_u64(&doc, "seed")?.unwrap_or(1),
            n: req_u64(&doc, "n", "scenario")? as usize,
            t: req_u64(&doc, "t", "scenario")? as usize,
            slots: req_u64(&doc, "slots", "scenario")? as usize,
            batch: req_u64(&doc, "batch", "scenario")? as usize,
            pipeline: req_u64(&doc, "pipeline", "scenario")? as usize,
            max_vtime: match doc.get("max_vtime") {
                None | Some(JsonValue::Null) => None,
                Some(v) => Some(v.as_u64().ok_or("max_vtime must be a non-negative integer or null")?),
            },
            net: match doc.get("net") {
                None | Some(JsonValue::Null) => None,
                Some(net) => Some(NetPlan::from_json(net)?),
            },
            corruptions,
        };
        scenario.validate()?;
        Ok(scenario)
    }
}

/// Required non-negative integer field.
fn req_u64(v: &JsonValue, key: &str, what: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("{what} missing non-negative integer \"{key}\""))
}

/// A 64-bit seed field: either a decimal string (the canonical form,
/// precision-safe beyond 2^53) or a plain integral number.
fn seed_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::Str(s)) => s
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("\"{key}\" is not a decimal u64: {s:?}")),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("\"{key}\" must be a u64 (string or integer)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario {
            name: "sample".to_owned(),
            seed: u64::MAX - 3, // above 2^53: exercises the string form
            n: 7,
            t: 2,
            slots: 12,
            batch: 2,
            pipeline: 2,
            max_vtime: None,
            net: Some(NetPlan {
                link: LinkPlan::Wan { intra: 10, inter: 100, jitter: 5 },
                clusters: vec![3, 2, 2],
                partitions: vec![PartitionPlan { start: 50, heal: 500, island: vec![6], drop: false }],
                net_seed: 9,
            }),
            corruptions: vec![
                Corruption {
                    replica: 1,
                    from_slot: 3,
                    until_slot: Some(8),
                    behavior: Behavior::Equivocate,
                },
                Corruption {
                    replica: 5,
                    from_slot: 0,
                    until_slot: None,
                    behavior: Behavior::Frame { slots: vec![2, 9] },
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_identity() {
        let s = sample();
        let text = s.to_json();
        let back = Scenario::from_json(&text).unwrap();
        assert_eq!(back, s);
        // Byte-stability: render(parse(render(x))) == render(x).
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn corruption_windows() {
        let c = Corruption {
            replica: 0,
            from_slot: 2,
            until_slot: Some(5),
            behavior: Behavior::SilentLeader,
        };
        assert!(!c.active(1) && c.active(2) && c.active(4) && !c.active(5));
        let forever = Corruption { until_slot: None, ..c };
        assert!(forever.active(1_000_000));
    }

    #[test]
    fn validation_rejects_bad_scenarios() {
        let mut s = sample();
        s.t = 3; // 3t >= n
        assert!(s.validate().is_err());
        let mut s = sample();
        s.corruptions[0].replica = 7;
        assert!(s.validate().is_err());
        let mut s = sample();
        s.net.as_mut().unwrap().clusters = vec![3, 3]; // sums to 6, not 7
        assert!(s.validate().is_err());
        let mut s = sample();
        s.net.as_mut().unwrap().partitions[0].heal = 50; // empty window
        assert!(s.validate().is_err());
        let mut s = sample();
        s.net.as_mut().unwrap().clusters = Vec::new(); // wan needs clusters
        assert!(s.validate().is_err());
        let mut s = sample();
        s.corruptions[0].behavior = Behavior::LyingEcho { step: 0 };
        assert!(s.validate().is_err());
    }

    #[test]
    fn net_plan_policy_builds_the_described_model() {
        let plan = sample().net.unwrap();
        let SchedulingPolicy::EventDriven(model) = plan.policy() else {
            panic!("a net plan is event-driven");
        };
        let expect = NetModel::new(
            LinkModel::Wan { intra: 10, inter: 100, jitter: 5 },
            Topology::Clusters(vec![3, 2, 2]),
        )
        .with_seed(9)
        .with_partition(Partition::of_node(6, 50, 500, PartitionBehavior::Delay));
        assert_eq!(model, expect);
        let clique = NetPlan { link: LinkPlan::Fixed(4), clusters: Vec::new(), ..plan };
        let SchedulingPolicy::EventDriven(model) = clique.policy() else { unreachable!() };
        assert_eq!((model.link, model.topology), (LinkModel::Fixed(4), Topology::Clique));
    }

    #[test]
    fn validation_rejects_n_over_cap() {
        let mut s = sample();
        s.n = MAX_SCENARIO_N + 1;
        s.net = None; // its clusters cover n = 7 only
        let err = s.validate().unwrap_err();
        assert!(err.starts_with("n = 129 is over the cap"), "{err}");
    }

    #[test]
    fn validation_rejects_slots_over_cap() {
        let mut s = sample();
        s.slots = MAX_SCENARIO_SLOTS + 1;
        let err = s.validate().unwrap_err();
        assert!(err.starts_with("slots = 65537 is over the cap"), "{err}");
    }

    #[test]
    fn validation_rejects_batch_over_cap() {
        // A 200-byte file with this batch used to abort the runner on a
        // 24 TiB command allocation.
        let mut s = sample();
        s.slots = 3;
        s.batch = 1 << 40;
        let err = s.validate().unwrap_err();
        assert!(err.starts_with("batch = 1099511627776 is over the cap"), "{err}");
    }

    #[test]
    fn validation_rejects_pipeline_over_cap() {
        // One lane thread per in-flight slot at every replica: a 190-byte
        // file at depth 16384 used to abort the runner spawning them.
        let mut s = sample();
        s.pipeline = MAX_PIPELINE;
        assert_eq!(s.validate(), Ok(()));
        s.pipeline = 16384;
        let err = s.validate().unwrap_err();
        assert_eq!(err, "pipeline = 16384 is over the cap of 16");
    }

    #[test]
    fn validation_rejects_commands_over_cap() {
        let mut s = sample();
        s.slots = MAX_SCENARIO_SLOTS;
        s.batch = MAX_SCENARIO_BATCH;
        let err = s.validate().unwrap_err();
        assert!(err.starts_with("slots × batch"), "{err}");
        // Each factor within its own cap, product just over.
        s.batch = MAX_SCENARIO_COMMANDS / MAX_SCENARIO_SLOTS + 1;
        assert!(s.validate().unwrap_err().starts_with("slots × batch"));
        s.batch -= 1;
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn validation_rejects_t_whose_triple_wraps() {
        // 3t = 2^64 + 2 wraps to 2 < n.
        let mut s = sample();
        s.t = 6_148_914_691_236_517_206;
        let err = s.validate().unwrap_err();
        assert!(err.starts_with("need 4 <= n and t < n/3"), "{err}");
    }

    #[test]
    fn model_preservation_flags() {
        let s = sample();
        assert!(s.is_model_preserving(), "2 corrupted <= t = 2, delay-only");
        let mut over = s.clone();
        over.corruptions.push(Corruption {
            replica: 3,
            from_slot: 0,
            until_slot: None,
            behavior: Behavior::SilentEcho,
        });
        assert!(!over.is_model_preserving(), "3 corrupted > t");
        let mut dropped = s.clone();
        dropped.net.as_mut().unwrap().partitions[0].drop = true;
        assert!(!dropped.is_model_preserving(), "drop partitions leave the model");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Scenario::from_json("{}").is_err());
        assert!(Scenario::from_json("{\"schema\": \"mvbc.scenario.v2\"}").is_err());
        let mut s = sample();
        s.t = 9; // valid JSON, invalid parameters: from_json re-validates
        let text = s.to_json();
        assert!(Scenario::from_json(&text).is_err());
        // Seeds parse from both canonical string and plain number forms.
        let num_seed = text.replace(&format!("\"seed\": \"{}\"", u64::MAX - 3), "\"seed\": 41");
        let _ = num_seed; // (t is still invalid; just checking it parses to the seed error path)
        let ok = sample().to_json().replace(
            &format!("\"seed\": \"{}\"", u64::MAX - 3),
            "\"seed\": 41",
        );
        assert_eq!(Scenario::from_json(&ok).unwrap().seed, 41);
    }
}
