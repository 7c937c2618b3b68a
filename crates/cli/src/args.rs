//! Minimal dependency-free argument parsing for the `mvbc` binary.

use std::fmt;

/// Usage text printed on parse errors.
pub const USAGE: &str = "\
usage:
  mvbc consensus --n <N> --t <T> --l <BYTES> [--d <BYTES>] [--seed <N>]
                 [--attack none|silent|corrupt|random|worst-case] [--differing]
                 [--bsb phase-king|eig|dolev-strong] [--trace <FILE>]
  mvbc broadcast --n <N> --t <T> --l <BYTES> [--d <BYTES>] [--source <ID>]
                 [--attack none|equivocate|silent-source|lying-echo]
  mvbc smr       --n <N> --t <T> --slots <S> [--batch <CMDS>] [--batch-bytes <B>]
                 [--attack none|equivocate|silent] [--byz <ID>] [--seed <N>]
                 [--pipeline <W>]
                 [--latency-model fixed:<T>|jitter:<BASE>:<JIT>|wan:<INTRA>:<INTER>[:<JIT>]]
                 [--topology clique|clusters:<A,B,...>] [--net-seed <N>]
                 [--partition <START>:<HEAL>:<ISLAND>[:drop|delay]] [--max-vtime <T>]
                 [--report <FILE>]
  mvbc smr soak  [--runs <N>] [--seed <N>] [--scenario <FILE>]
                 [--emit-failures <DIR>]
  mvbc inspect   <FILE>
  mvbc info      --n <N> --t <T> --l <BYTES>
  mvbc soak      [--runs <N>] [--seed <N>]

flags:
  --n        number of processors (t < n/3)
  --t        Byzantine fault tolerance
  --l        value length in bytes
  --d        generation size in bytes (default: the paper's Eq. (2) optimum)
  --seed     workload seed (default 1)
  --source   broadcasting processor (broadcast only, default 0)
  --attack   Byzantine behaviour to inject (default none)
  --differing  give every processor a different input (consensus only)
  --bsb      Broadcast_Single_Bit substrate (default phase-king; consensus only)
  --trace    write the full network trace as CSV to FILE (consensus only)
  --runs     number of randomized soak iterations (default 50; smr soak
             defaults to 64 campaign scenarios)
  --scenario replay one scenario JSON instead of generating (smr soak only;
             a failure artifact emitted by an earlier campaign replays the
             violation exactly)
  --emit-failures  directory that receives the offending scenario JSON when
             a campaign run violates an invariant (smr soak only, default
             results)
  --slots    number of replicated-log slots (smr only)
  --batch    max commands per slot batch (smr only, default 8)
  --batch-bytes  byte budget per slot batch (smr only, default unbounded)
  --byz      Byzantine replica id (smr only, default n-1)
  --pipeline number of log slots in flight concurrently (smr only, default 1;
             committed log is identical at every depth)
  --latency-model  per-link latency in virtual ticks (smr only); selecting one
             switches the run to the event-driven scheduling policy
  --topology clique (default) or clusters:<A,B,...> with sizes summing to n
             (smr only; wan latency needs a clusters topology)
  --partition  cut the network from virtual time START until HEAL; ISLAND is
             c<K> (cluster K) or a comma-separated node list; crossing
             messages are dropped (default) or delayed until HEAL (smr only;
             drop violates the synchronous model — expect degraded slots,
             delay preserves agreement by stretching rounds across the cut)
  --net-seed seed for latency jitter sampling (smr only, default 1)
  --max-vtime  abort if the virtual clock exceeds this tick budget (smr only)
  --report   write a structured RunReport JSON (latency percentiles, phase
             shares, hot nodes/links, outage windows, per-slot timeline) to
             FILE; enables telemetry for the run (smr only)

inspect takes a RunReport JSON (from smr --report) or a network trace CSV
(from consensus --trace) and prints per-slot timelines, per-node activity
and hot-link rankings.";

/// `Broadcast_Single_Bit` substrate selection (paper §4's seam).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BsbChoice {
    /// Source multicast + Phase-King (the default, error-free, t < n/3).
    PhaseKing,
    /// Source multicast + EIG (round-optimal, exponential bits).
    Eig,
    /// Authenticated Dolev-Strong under an idealised signature oracle.
    DolevStrong,
}

/// Consensus-side attack selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsensusAttack {
    /// All processors honest.
    None,
    /// One silent (crashed) processor.
    Silent,
    /// One processor corrupting symbols toward the highest-id processor.
    Corrupt,
    /// One randomized Byzantine processor.
    Random,
    /// The orchestrated worst-case diagnosis adversary (`t` colluders).
    WorstCase,
}

/// Replicated-log attack selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmrAttack {
    /// All replicas honest.
    None,
    /// One replica equivocates whenever it is primary.
    Equivocate,
    /// One replica never disperses when primary.
    Silent,
}

/// Broadcast-side attack selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BroadcastAttack {
    /// Honest run.
    None,
    /// The source equivocates during dispersal.
    Equivocate,
    /// The source never disperses.
    SilentSource,
    /// One echo-set member corrupts its relays.
    LyingEcho,
}

/// Parsed `--latency-model` value: per-link latency in virtual ticks
/// (the CLI-side mirror of [`mvbc_netsim::LinkModel`]; converted — and
/// validated against `n` — in `commands::smr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencySpec {
    /// `fixed:<t>`: every link takes exactly `t` ticks.
    Fixed(u64),
    /// `jitter:<base>:<jitter>`: `base` plus uniform jitter in `[0, jitter]`.
    Jitter {
        /// Base latency in ticks.
        base: u64,
        /// Uniform jitter bound in ticks.
        jitter: u64,
    },
    /// `wan:<intra>:<inter>[:<jitter>]`: cluster-dependent base latency
    /// (requires a `clusters` topology).
    Wan {
        /// Base latency inside a cluster.
        intra: u64,
        /// Base latency across clusters.
        inter: u64,
        /// Uniform jitter bound added to either base.
        jitter: u64,
    },
}

/// Parsed `--topology` value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// `clique`: one flat site, every link equivalent.
    Clique,
    /// `clusters:<a,b,...>`: consecutive node ranges of the given sizes
    /// (they must sum to `n`; checked in `commands::smr`).
    Clusters(Vec<usize>),
}

/// The island selector of a `--partition` spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IslandSpec {
    /// `c<k>`: every node of cluster `k` (requires a `clusters` topology).
    Cluster(usize),
    /// A comma-separated node-id list, e.g. `0,1,5`.
    Nodes(Vec<usize>),
}

/// Parsed `--partition <start>:<heal>:<island>[:drop|delay]`: the island
/// is cut off from the rest of the network for virtual times in
/// `[start, heal)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Virtual time at which the cut forms.
    pub start: u64,
    /// Virtual time at which the cut heals.
    pub heal: u64,
    /// Which nodes are cut off.
    pub island: IslandSpec,
    /// `true`: crossing messages are silently lost (`drop`, the default);
    /// `false`: they are delayed until `heal` (`delay`).
    pub drop: bool,
}

/// The event-driven network flags of an `smr` run, grouped. All `None`
/// (the default) keeps the legacy round-barrier scheduling policy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetSpec {
    /// `--latency-model`.
    pub latency: Option<LatencySpec>,
    /// `--topology`.
    pub topology: Option<TopologySpec>,
    /// `--partition`.
    pub partition: Option<PartitionSpec>,
    /// `--net-seed` (defaults to 1 when event-driven).
    pub net_seed: Option<u64>,
    /// `--max-vtime`.
    pub max_vtime: Option<u64>,
}

impl NetSpec {
    /// Whether any flag selecting event-driven scheduling was given.
    /// (`--max-vtime` alone also counts: a virtual-time budget under the
    /// round-barrier policy caps the round count.)
    pub fn is_event_driven(&self) -> bool {
        self.latency.is_some()
            || self.topology.is_some()
            || self.partition.is_some()
            || self.net_seed.is_some()
    }
}

fn parse_latency(s: &str) -> Result<LatencySpec, ParseError> {
    let num = |v: &str| {
        v.parse::<u64>()
            .map_err(|_| err(format!("--latency-model expects tick counts, got '{v}'")))
    };
    let parts: Vec<&str> = s.split(':').collect();
    match parts.as_slice() {
        ["fixed", t] => Ok(LatencySpec::Fixed(num(t)?)),
        ["jitter", b, j] => Ok(LatencySpec::Jitter { base: num(b)?, jitter: num(j)? }),
        ["wan", a, e] => Ok(LatencySpec::Wan { intra: num(a)?, inter: num(e)?, jitter: 0 }),
        ["wan", a, e, j] => Ok(LatencySpec::Wan { intra: num(a)?, inter: num(e)?, jitter: num(j)? }),
        _ => Err(err(format!(
            "--latency-model expects fixed:<t>, jitter:<base>:<jitter> or \
             wan:<intra>:<inter>[:<jitter>], got '{s}'"
        ))),
    }
}

fn parse_topology(s: &str) -> Result<TopologySpec, ParseError> {
    if s == "clique" {
        return Ok(TopologySpec::Clique);
    }
    let Some(sizes) = s.strip_prefix("clusters:") else {
        return Err(err(format!("--topology expects clique or clusters:<a,b,...>, got '{s}'")));
    };
    let sizes: Vec<usize> = sizes
        .split(',')
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| err(format!("--topology expects cluster sizes, got '{v}'")))
        })
        .collect::<Result<_, _>>()?;
    if sizes.is_empty() || sizes.contains(&0) {
        return Err(err("--topology clusters need at least one node each"));
    }
    Ok(TopologySpec::Clusters(sizes))
}

fn parse_partition(s: &str) -> Result<PartitionSpec, ParseError> {
    let bad = || {
        err(format!(
            "--partition expects <start>:<heal>:<island>[:drop|delay] with start < heal, got '{s}'"
        ))
    };
    let parts: Vec<&str> = s.split(':').collect();
    let (start, heal, island, mode) = match parts.as_slice() {
        [a, b, i] => (a, b, i, "drop"),
        [a, b, i, m] => (a, b, i, *m),
        _ => return Err(bad()),
    };
    let start: u64 = start.parse().map_err(|_| bad())?;
    let heal: u64 = heal.parse().map_err(|_| bad())?;
    if start >= heal {
        return Err(bad());
    }
    let island = match island.strip_prefix('c') {
        Some(k) if k.chars().all(|c| c.is_ascii_digit()) && !k.is_empty() => {
            IslandSpec::Cluster(k.parse().map_err(|_| bad())?)
        }
        _ => IslandSpec::Nodes(
            island
                .split(',')
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| err(format!("--partition island expects c<k> or node ids, got '{v}'")))
                })
                .collect::<Result<_, _>>()?,
        ),
    };
    let drop = match mode {
        "drop" => true,
        "delay" => false,
        other => return Err(err(format!("--partition mode is drop or delay, got '{other}'"))),
    };
    Ok(PartitionSpec { start, heal, island, drop })
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)] // constructed once per invocation; boxing CLI args buys nothing
pub enum Command {
    /// Run one consensus simulation.
    Consensus {
        /// Processors / tolerance / value bytes / explicit D.
        n: usize,
        /// Byzantine tolerance.
        t: usize,
        /// Value bytes.
        l: usize,
        /// Explicit generation bytes.
        d: Option<usize>,
        /// Workload seed.
        seed: u64,
        /// Injected behaviour.
        attack: ConsensusAttack,
        /// Give every processor a distinct input.
        differing: bool,
        /// `Broadcast_Single_Bit` substrate.
        bsb: BsbChoice,
        /// Write the network trace as CSV to this path.
        trace: Option<String>,
    },
    /// Run one broadcast simulation.
    Broadcast {
        /// Processors.
        n: usize,
        /// Byzantine tolerance.
        t: usize,
        /// Value bytes.
        l: usize,
        /// Explicit generation bytes.
        d: Option<usize>,
        /// Broadcasting processor.
        source: usize,
        /// Workload seed.
        seed: u64,
        /// Injected behaviour.
        attack: BroadcastAttack,
    },
    /// Run a replicated-log (state-machine replication) simulation.
    Smr {
        /// Replicas.
        n: usize,
        /// Byzantine tolerance.
        t: usize,
        /// Log slots.
        slots: usize,
        /// Max commands per slot batch.
        batch: usize,
        /// Byte budget per slot batch.
        batch_bytes: Option<usize>,
        /// Workload seed.
        seed: u64,
        /// Injected behaviour.
        attack: SmrAttack,
        /// The Byzantine replica (when an attack is selected).
        byz: usize,
        /// Pipeline depth: log slots in flight concurrently.
        pipeline: usize,
        /// Event-driven network flags (latency model, topology,
        /// partitions, jitter seed, virtual-time budget).
        net: NetSpec,
        /// Write a telemetry `RunReport` JSON to this path.
        report: Option<String>,
    },
    /// Pretty-print a RunReport JSON or a trace CSV.
    Inspect {
        /// The artifact to load.
        path: String,
    },
    /// Adversary campaign soak over the replicated log: bounded-random
    /// scenarios drawn from a seeded generator (or one scenario replayed
    /// from JSON), each machine-checked against the paper's guarantees,
    /// with failing scenarios emitted as replayable JSON artifacts.
    SmrSoak {
        /// Number of generated scenarios.
        runs: usize,
        /// Campaign seed.
        seed: u64,
        /// Replay this scenario JSON instead of generating.
        scenario: Option<String>,
        /// Directory receiving failing-scenario artifacts.
        emit_failures: String,
    },
    /// Randomized soak: many consensus runs with random parameters,
    /// inputs and adversaries, asserting the paper's properties on each.
    Soak {
        /// Number of iterations.
        runs: usize,
        /// Base seed.
        seed: u64,
    },
    /// Print the analytic model for a parameter set.
    Info {
        /// Processors.
        n: usize,
        /// Byzantine tolerance.
        t: usize,
        /// Value bytes.
        l: usize,
    },
}

/// Parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

struct Flags<'a> {
    argv: &'a [String],
}

impl<'a> Flags<'a> {
    /// Wraps the arguments of subcommand `sub`, rejecting any `--flag`
    /// outside `known`: a typo, a flag of another subcommand or a flag
    /// that no longer exists must fail, not be silently ignored.
    fn new(sub: &str, argv: &'a [String], known: &[&str]) -> Result<Self, ParseError> {
        match argv.iter().find(|a| a.starts_with("--") && !known.contains(&a.as_str())) {
            Some(unknown) => Err(err(format!("unknown flag '{unknown}' for '{sub}'"))),
            None => Ok(Flags { argv }),
        }
    }

    fn value_of(&self, flag: &str) -> Option<&str> {
        self.argv
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.argv.get(i + 1))
            .map(String::as_str)
    }

    fn usize_of(&self, flag: &str) -> Result<Option<usize>, ParseError> {
        self.value_of(flag)
            .map(|v| v.parse::<usize>().map_err(|_| err(format!("{flag} expects a number, got '{v}'"))))
            .transpose()
    }

    fn required_usize(&self, flag: &str) -> Result<usize, ParseError> {
        self.usize_of(flag)?.ok_or_else(|| err(format!("missing required flag {flag}")))
    }

    fn has(&self, flag: &str) -> bool {
        self.argv.iter().any(|a| a == flag)
    }
}

/// Parses the full argument vector (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, ParseError> {
    let Some(sub) = argv.first() else {
        return Err(err("missing subcommand"));
    };
    let rest = &argv[1..];
    if sub == "soak" {
        let flags = Flags::new("soak", rest, &["--runs", "--seed"])?;
        return Ok(Command::Soak {
            runs: flags.usize_of("--runs")?.unwrap_or(50),
            seed: flags.usize_of("--seed")?.unwrap_or(7) as u64,
        });
    }
    if sub == "smr" && rest.first().map(String::as_str) == Some("soak") {
        let flags = Flags::new(
            "smr soak",
            &rest[1..],
            &["--runs", "--seed", "--scenario", "--emit-failures"],
        )?;
        return Ok(Command::SmrSoak {
            runs: flags.usize_of("--runs")?.unwrap_or(64),
            seed: flags.usize_of("--seed")?.unwrap_or(7) as u64,
            scenario: flags.value_of("--scenario").map(String::from),
            emit_failures: flags.value_of("--emit-failures").unwrap_or("results").to_owned(),
        });
    }
    if sub == "smr" {
        let flags = Flags::new(
            "smr",
            rest,
            &[
                "--n", "--t", "--slots", "--batch", "--batch-bytes", "--attack", "--byz", "--seed",
                "--pipeline", "--latency-model", "--topology", "--net-seed", "--partition",
                "--max-vtime", "--report",
            ],
        )?;
        let n = flags.required_usize("--n")?;
        let pipeline = flags.usize_of("--pipeline")?.unwrap_or(1);
        if pipeline == 0 {
            return Err(err("--pipeline expects a depth of at least 1"));
        }
        return Ok(Command::Smr {
            n,
            t: flags.required_usize("--t")?,
            slots: flags.required_usize("--slots")?,
            batch: flags.usize_of("--batch")?.unwrap_or(8),
            batch_bytes: flags.usize_of("--batch-bytes")?,
            seed: flags.usize_of("--seed")?.unwrap_or(1) as u64,
            attack: match flags.value_of("--attack").unwrap_or("none") {
                "none" => SmrAttack::None,
                "equivocate" => SmrAttack::Equivocate,
                "silent" => SmrAttack::Silent,
                other => return Err(err(format!("unknown smr attack '{other}'"))),
            },
            byz: flags.usize_of("--byz")?.unwrap_or(n.saturating_sub(1)),
            pipeline,
            net: NetSpec {
                latency: flags.value_of("--latency-model").map(parse_latency).transpose()?,
                topology: flags.value_of("--topology").map(parse_topology).transpose()?,
                partition: flags.value_of("--partition").map(parse_partition).transpose()?,
                net_seed: flags.usize_of("--net-seed")?.map(|s| s as u64),
                max_vtime: flags.usize_of("--max-vtime")?.map(|v| v as u64),
            },
            report: flags.value_of("--report").map(String::from),
        });
    }
    if sub == "inspect" {
        let path = argv
            .get(1)
            .filter(|a| !a.starts_with("--"))
            .ok_or_else(|| err("inspect expects a file path"))?;
        Flags::new("inspect", rest, &[])?;
        return Ok(Command::Inspect { path: path.clone() });
    }
    let known: &[&str] = match sub.as_str() {
        "consensus" => {
            &["--n", "--t", "--l", "--d", "--seed", "--attack", "--differing", "--bsb", "--trace"]
        }
        "broadcast" => &["--n", "--t", "--l", "--d", "--source", "--seed", "--attack"],
        "info" => &["--n", "--t", "--l"],
        other => return Err(err(format!("unknown subcommand '{other}'"))),
    };
    let flags = Flags::new(sub, rest, known)?;
    let n = flags.required_usize("--n")?;
    let t = flags.required_usize("--t")?;
    let l = flags.required_usize("--l")?;
    match sub.as_str() {
        "consensus" => Ok(Command::Consensus {
            n,
            t,
            l,
            d: flags.usize_of("--d")?,
            seed: flags.usize_of("--seed")?.unwrap_or(1) as u64,
            attack: match flags.value_of("--attack").unwrap_or("none") {
                "none" => ConsensusAttack::None,
                "silent" => ConsensusAttack::Silent,
                "corrupt" => ConsensusAttack::Corrupt,
                "random" => ConsensusAttack::Random,
                "worst-case" => ConsensusAttack::WorstCase,
                other => return Err(err(format!("unknown consensus attack '{other}'"))),
            },
            differing: flags.has("--differing"),
            bsb: match flags.value_of("--bsb").unwrap_or("phase-king") {
                "phase-king" | "king" => BsbChoice::PhaseKing,
                "eig" => BsbChoice::Eig,
                "dolev-strong" | "ds" => BsbChoice::DolevStrong,
                other => return Err(err(format!("unknown BSB substrate '{other}'"))),
            },
            trace: flags.value_of("--trace").map(String::from),
        }),
        "broadcast" => Ok(Command::Broadcast {
            n,
            t,
            l,
            d: flags.usize_of("--d")?,
            source: flags.usize_of("--source")?.unwrap_or(0),
            seed: flags.usize_of("--seed")?.unwrap_or(1) as u64,
            attack: match flags.value_of("--attack").unwrap_or("none") {
                "none" => BroadcastAttack::None,
                "equivocate" => BroadcastAttack::Equivocate,
                "silent-source" => BroadcastAttack::SilentSource,
                "lying-echo" => BroadcastAttack::LyingEcho,
                other => return Err(err(format!("unknown broadcast attack '{other}'"))),
            },
        }),
        "info" => Ok(Command::Info { n, t, l }),
        _ => unreachable!("subcommand validated with its flag list above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_consensus_defaults() {
        let cmd = parse(&argv("consensus --n 4 --t 1 --l 64")).unwrap();
        assert_eq!(
            cmd,
            Command::Consensus {
                n: 4,
                t: 1,
                l: 64,
                d: None,
                seed: 1,
                attack: ConsensusAttack::None,
                differing: false,
                bsb: BsbChoice::PhaseKing,
                trace: None,
            }
        );
    }

    #[test]
    fn parses_all_consensus_flags() {
        let cmd = parse(&argv(
            "consensus --n 7 --t 2 --l 1024 --d 32 --seed 9 --attack worst-case --differing",
        ))
        .unwrap();
        match cmd {
            Command::Consensus { n, t, l, d, seed, attack, differing, bsb, trace } => {
                assert_eq!((n, t, l, d, seed), (7, 2, 1024, Some(32), 9));
                assert_eq!(trace, None);
                assert_eq!(attack, ConsensusAttack::WorstCase);
                assert!(differing);
                assert_eq!(bsb, BsbChoice::PhaseKing);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_broadcast() {
        let cmd = parse(&argv("broadcast --n 7 --t 2 --l 256 --source 3 --attack lying-echo")).unwrap();
        match cmd {
            Command::Broadcast { source, attack, .. } => {
                assert_eq!(source, 3);
                assert_eq!(attack, BroadcastAttack::LyingEcho);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_smr() {
        assert_eq!(
            parse(&argv("smr --n 4 --t 1 --slots 20")).unwrap(),
            Command::Smr {
                n: 4,
                t: 1,
                slots: 20,
                batch: 8,
                batch_bytes: None,
                seed: 1,
                attack: SmrAttack::None,
                byz: 3,
                pipeline: 1,
                net: NetSpec::default(),
                report: None,
            }
        );
        let cmd = parse(&argv(
            "smr --n 7 --t 2 --slots 100 --batch 16 --batch-bytes 90 --attack equivocate --byz 2 --seed 5",
        ))
        .unwrap();
        match cmd {
            Command::Smr { n, slots, batch, batch_bytes, attack, byz, seed, .. } => {
                assert_eq!((n, slots, batch, batch_bytes, seed), (7, 100, 16, Some(90), 5));
                assert_eq!(attack, SmrAttack::Equivocate);
                assert_eq!(byz, 2);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("smr --n 4 --t 1")).is_err()); // missing --slots
        assert!(parse(&argv("smr --n 4 --t 1 --slots 5 --attack bogus")).is_err());
    }

    #[test]
    fn parses_smr_pipeline() {
        match parse(&argv("smr --n 7 --t 2 --slots 100 --pipeline 4")).unwrap() {
            Command::Smr { pipeline, .. } => assert_eq!(pipeline, 4),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("smr --n 4 --t 1 --slots 5 --pipeline 0")).is_err());
        assert!(parse(&argv("smr --n 4 --t 1 --slots 5 --pipeline x")).is_err());
    }

    #[test]
    fn rejects_unknown_flags() {
        let unknown = |flag: &str, sub: &str| {
            Err(ParseError(format!("unknown flag '{flag}' for '{sub}'")))
        };
        // Flags that no longer exist must not keep "working".
        assert_eq!(
            parse(&argv("smr --n 7 --t 2 --slots 10 --codec-threads 4")),
            unknown("--codec-threads", "smr")
        );
        assert_eq!(
            parse(&argv("smr --n 7 --t 2 --slots 10 --lanes-pool 8")),
            unknown("--lanes-pool", "smr")
        );
        assert_eq!(
            parse(&argv("smr --n 7 --t 2 --slots 10 --round-timeout-secs 300")),
            unknown("--round-timeout-secs", "smr")
        );
        // A typo of a live flag.
        assert_eq!(
            parse(&argv("smr --n 7 --t 2 --slots 10 --pipline 4")),
            unknown("--pipline", "smr")
        );
        // Known flags are per subcommand.
        assert_eq!(parse(&argv("info --n 4 --t 1 --l 8 --slots 3")), unknown("--slots", "info"));
        assert_eq!(
            parse(&argv("broadcast --n 4 --t 1 --l 8 --differing")),
            unknown("--differing", "broadcast")
        );
        assert_eq!(parse(&argv("smr soak --runs 3 --pipeline 2")), unknown("--pipeline", "smr soak"));
        assert_eq!(parse(&argv("soak --scenario s.json")), unknown("--scenario", "soak"));
        assert_eq!(parse(&argv("inspect r.json --slot 3")), unknown("--slot", "inspect"));
    }

    #[test]
    fn parses_smr_net_flags() {
        let cmd = parse(&argv(
            "smr --n 9 --t 2 --slots 12 --latency-model wan:100:3000:200 \
             --topology clusters:3,3,3 --partition 5000:20000:c2:delay \
             --net-seed 11 --max-vtime 900000",
        ))
        .unwrap();
        match cmd {
            Command::Smr { net, .. } => {
                assert_eq!(net.latency, Some(LatencySpec::Wan { intra: 100, inter: 3000, jitter: 200 }));
                assert_eq!(net.topology, Some(TopologySpec::Clusters(vec![3, 3, 3])));
                assert_eq!(
                    net.partition,
                    Some(PartitionSpec {
                        start: 5000,
                        heal: 20000,
                        island: IslandSpec::Cluster(2),
                        drop: false,
                    })
                );
                assert_eq!(net.net_seed, Some(11));
                assert_eq!(net.max_vtime, Some(900_000));
                assert!(net.is_event_driven());
            }
            other => panic!("wrong command {other:?}"),
        }
        // The remaining latency forms, a node-list island, and the
        // default drop behaviour.
        assert_eq!(parse_latency("fixed:50"), Ok(LatencySpec::Fixed(50)));
        assert_eq!(parse_latency("jitter:10:5"), Ok(LatencySpec::Jitter { base: 10, jitter: 5 }));
        assert_eq!(parse_latency("wan:10:100"), Ok(LatencySpec::Wan { intra: 10, inter: 100, jitter: 0 }));
        assert_eq!(
            parse_partition("10:20:0,1,5"),
            Ok(PartitionSpec { start: 10, heal: 20, island: IslandSpec::Nodes(vec![0, 1, 5]), drop: true })
        );
        // --max-vtime alone keeps the round-barrier policy.
        match parse(&argv("smr --n 4 --t 1 --slots 5 --max-vtime 100")).unwrap() {
            Command::Smr { net, .. } => {
                assert!(!net.is_event_driven());
                assert_eq!(net.max_vtime, Some(100));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_net_flags() {
        assert!(parse_latency("fixed").is_err());
        assert!(parse_latency("warp:1:2").is_err());
        assert!(parse_latency("jitter:1:x").is_err());
        assert!(parse_topology("ring").is_err());
        assert!(parse_topology("clusters:").is_err());
        assert!(parse_topology("clusters:3,0,3").is_err());
        assert!(parse_partition("20:10:c0").is_err()); // start >= heal
        assert!(parse_partition("10:20:c0:teleport").is_err());
        assert!(parse_partition("10:20").is_err());
        assert!(parse_partition("10:20:cx").is_err());
        assert!(parse(&argv("smr --n 4 --t 1 --slots 5 --latency-model bogus")).is_err());
        assert!(parse(&argv("smr --n 4 --t 1 --slots 5 --topology bogus")).is_err());
        assert!(parse(&argv("smr --n 4 --t 1 --slots 5 --partition bogus")).is_err());
    }

    #[test]
    fn parses_smr_report_flag() {
        match parse(&argv("smr --n 4 --t 1 --slots 5 --report out.json")).unwrap() {
            Command::Smr { report, .. } => assert_eq!(report.as_deref(), Some("out.json")),
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("smr --n 4 --t 1 --slots 5")).unwrap() {
            Command::Smr { report, .. } => assert_eq!(report, None),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_inspect() {
        assert_eq!(
            parse(&argv("inspect results/report.json")).unwrap(),
            Command::Inspect { path: "results/report.json".into() }
        );
        assert!(parse(&argv("inspect")).is_err());
        assert!(parse(&argv("inspect --n")).is_err());
    }

    #[test]
    fn parses_smr_soak() {
        assert_eq!(
            parse(&argv("smr soak")).unwrap(),
            Command::SmrSoak {
                runs: 64,
                seed: 7,
                scenario: None,
                emit_failures: "results".into(),
            }
        );
        assert_eq!(
            parse(&argv("smr soak --runs 8 --seed 3 --emit-failures /tmp/f")).unwrap(),
            Command::SmrSoak { runs: 8, seed: 3, scenario: None, emit_failures: "/tmp/f".into() }
        );
        match parse(&argv("smr soak --scenario bad.json")).unwrap() {
            Command::SmrSoak { scenario, .. } => assert_eq!(scenario.as_deref(), Some("bad.json")),
            other => panic!("wrong command {other:?}"),
        }
        // A regular smr run still parses (and still demands its flags).
        assert!(matches!(parse(&argv("smr --n 4 --t 1 --slots 5")).unwrap(), Command::Smr { .. }));
        assert!(parse(&argv("smr")).is_err());
    }

    #[test]
    fn parses_soak() {
        assert_eq!(parse(&argv("soak")).unwrap(), Command::Soak { runs: 50, seed: 7 });
        assert_eq!(
            parse(&argv("soak --runs 9 --seed 3")).unwrap(),
            Command::Soak { runs: 9, seed: 3 }
        );
    }

    #[test]
    fn parses_info() {
        assert_eq!(
            parse(&argv("info --n 4 --t 1 --l 8")).unwrap(),
            Command::Info { n: 4, t: 1, l: 8 }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&argv("frobnicate --n 4 --t 1 --l 8")).is_err());
        assert!(parse(&argv("consensus --n 4 --t 1")).is_err()); // missing --l
        assert!(parse(&argv("consensus --n x --t 1 --l 8")).is_err());
        assert!(parse(&argv("consensus --n 4 --t 1 --l 8 --attack bogus")).is_err());
        assert!(parse(&argv("consensus --n 4 --t 1 --l 8 --bsb bogus")).is_err());
    }

    #[test]
    fn parses_trace_path() {
        let cmd = parse(&argv("consensus --n 4 --t 1 --l 8 --trace /tmp/t.csv")).unwrap();
        match cmd {
            Command::Consensus { trace, .. } => assert_eq!(trace.as_deref(), Some("/tmp/t.csv")),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_bsb_substrates() {
        for (flag, want) in [
            ("phase-king", BsbChoice::PhaseKing),
            ("king", BsbChoice::PhaseKing),
            ("eig", BsbChoice::Eig),
            ("dolev-strong", BsbChoice::DolevStrong),
            ("ds", BsbChoice::DolevStrong),
        ] {
            let cmd = parse(&argv(&format!("consensus --n 4 --t 1 --l 8 --bsb {flag}"))).unwrap();
            match cmd {
                Command::Consensus { bsb, .. } => assert_eq!(bsb, want, "{flag}"),
                other => panic!("wrong command {other:?}"),
            }
        }
    }
}
