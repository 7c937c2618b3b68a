//! Codec wall-clock experiment: batched slice-kernel codec vs the
//! scalar reference, plus the end-to-end pipelined SMR wall-time the
//! codec sits under.
//!
//! Every `BENCH_*` artifact so far recorded rounds and logical bits —
//! the paper's measure — but nothing recorded *time*. This experiment
//! establishes the wall-clock baseline: for each geometry
//! (n = 7, t = 2 and n = 16, t = 5) and value size (1 KiB – 64 KiB) it
//! measures encode, erasure-decode, and full-codeword consistency
//! throughput of the production batched paths
//! ([`StripedCode`]) against the scalar reference
//! ([`mvbc_rscode::reference`], the pre-kernel Poly/Lagrange code), and
//! verifies the two produce byte-identical symbols and values. It then
//! times one pipelined replicated-log run end to end.
//!
//! Writes `results/BENCH_codec.json` and fails loudly unless the
//! headline case (n = 7, t = 2, 64 KiB) shows at least a 5x
//! encode+decode speedup.
//!
//! ```sh
//! cargo run --release -p mvbc-bench --bin exp_codec [-- --fast]
//! ```
//!
//! `--fast` (the CI perf-smoke mode) trims iteration counts and the SMR
//! slot count; the JSON schema is identical.

use std::time::Instant;

use mvbc_bench::{manifest_json, workload_value, Table};
use mvbc_metrics::MetricsSink;
use mvbc_rscode::{reference, StripedCode, Symbol};
use mvbc_smr::{simulate_smr, synthetic_workloads, HonestReplica, SmrConfig, SmrHooks};

const GEOMETRIES: [(usize, usize); 2] = [(7, 2), (16, 5)];
const SIZES: [usize; 5] = [1 << 10, 4 << 10, 16 << 10, 64 << 10, 1 << 20];
const SIZES_FAST: [usize; 2] = [1 << 10, 64 << 10];
/// Large-committee geometry: batched-only (the scalar reference is too
/// slow to sweep at this scale; equality is still pinned at 4 KiB).
const BIG_N: (usize, usize) = (32, 10);
const BIG_SIZES: [usize; 2] = [64 << 10, 1 << 20];
const BIG_SIZES_FAST: [usize; 1] = [64 << 10];
const SEED: u64 = 41;

/// Headline acceptance case: n = 7, t = 2, 64 KiB values.
const HEADLINE: (usize, usize, usize) = (7, 2, 64 << 10);
const HEADLINE_MIN_SPEEDUP: f64 = 5.0;

struct OpMeasure {
    scalar_mbps: f64,
    batched_mbps: f64,
}

impl OpMeasure {
    fn speedup(&self) -> f64 {
        self.batched_mbps / self.scalar_mbps
    }
}

struct CaseMeasure {
    n: usize,
    t: usize,
    value_bytes: usize,
    encode: OpMeasure,
    decode: OpMeasure,
    consistency: OpMeasure,
}

impl CaseMeasure {
    /// Combined encode+decode speedup: ratio of summed per-byte times.
    fn encode_decode_speedup(&self) -> f64 {
        let scalar = 1.0 / self.encode.scalar_mbps + 1.0 / self.decode.scalar_mbps;
        let batched = 1.0 / self.encode.batched_mbps + 1.0 / self.decode.batched_mbps;
        scalar / batched
    }
}

/// Times `iters` runs of `f`, returning MB/s of `bytes`-sized values.
// Bench harness: wall-clock timing is the deliverable, exempt from the
// determinism mirror in clippy.toml.
#[allow(clippy::disallowed_methods)]
fn throughput_mbps(bytes: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (bytes as f64 * iters as f64) / secs / 1e6
}

fn measure_case(n: usize, t: usize, value_bytes: usize, fast: bool) -> CaseMeasure {
    let code = StripedCode::c2t(n, t, value_bytes).expect("valid geometry");
    let k = code.layout().k;
    let value = workload_value(value_bytes, SEED ^ (n as u64) << 32 ^ value_bytes as u64);

    // Correctness pins before timing: batched == scalar, byte for byte.
    let symbols = code.encode_value(&value).expect("encode");
    let symbols_ref = reference::encode_value(&code, &value).expect("reference encode");
    assert_eq!(symbols, symbols_ref, "batched and scalar codewords must be identical");
    // Decode from the *last* k symbols (parity positions exercise real
    // interpolation, not the identity).
    let picks: Vec<(usize, Symbol)> = symbols.iter().cloned().enumerate().skip(n - k).collect();
    let all: Vec<(usize, Symbol)> = symbols.iter().cloned().enumerate().collect();
    let decoded = code.decode_value(&picks).expect("decode");
    let decoded_ref = reference::decode_value(&code, &picks).expect("reference decode");
    assert_eq!(decoded, value, "batched decode must invert encode");
    assert_eq!(decoded_ref, value, "scalar decode must invert encode");
    assert!(code.is_consistent(&all).expect("consistency"));
    assert!(reference::is_consistent_value(&code, &all).expect("reference consistency"));

    // The scalar reference is 1–2 orders of magnitude slower; give it
    // proportionally fewer iterations (throughput normalizes).
    let batched_iters = (32 * (1 << 20) / value_bytes).clamp(8, if fast { 64 } else { 2048 });
    let scalar_iters = (batched_iters / 8).max(if fast { 2 } else { 4 });

    let encode = OpMeasure {
        scalar_mbps: throughput_mbps(value_bytes, scalar_iters, || {
            std::hint::black_box(reference::encode_value(&code, &value).unwrap());
        }),
        batched_mbps: throughput_mbps(value_bytes, batched_iters, || {
            std::hint::black_box(code.encode_value(&value).unwrap());
        }),
    };
    let decode = OpMeasure {
        scalar_mbps: throughput_mbps(value_bytes, scalar_iters, || {
            std::hint::black_box(reference::decode_value(&code, &picks).unwrap());
        }),
        batched_mbps: throughput_mbps(value_bytes, batched_iters, || {
            std::hint::black_box(code.decode_value(&picks).unwrap());
        }),
    };
    let consistency = OpMeasure {
        scalar_mbps: throughput_mbps(value_bytes, scalar_iters, || {
            std::hint::black_box(reference::is_consistent_value(&code, &all).unwrap());
        }),
        batched_mbps: throughput_mbps(value_bytes, batched_iters, || {
            std::hint::black_box(code.is_consistent(&all).unwrap());
        }),
    };

    CaseMeasure {
        n,
        t,
        value_bytes,
        encode,
        decode,
        consistency,
    }
}

struct BigCase {
    n: usize,
    t: usize,
    value_bytes: usize,
    encode_mbps: f64,
    decode_mbps: f64,
    consistency_mbps: f64,
}

/// Batched-only measurement for the large-committee geometry. The
/// scalar reference would take minutes per row here, so batched ==
/// scalar is pinned once at 4 KiB and the sweep times only the
/// production path.
fn measure_big_case(n: usize, t: usize, value_bytes: usize, fast: bool) -> BigCase {
    let pin_bytes = 4 << 10;
    let pin_code = StripedCode::c2t(n, t, pin_bytes).expect("valid geometry");
    let pin_value = workload_value(pin_bytes, SEED ^ (n as u64) << 32 ^ pin_bytes as u64);
    let pin_symbols = pin_code.encode_value(&pin_value).expect("encode");
    let pin_ref = reference::encode_value(&pin_code, &pin_value).expect("reference encode");
    assert_eq!(pin_symbols, pin_ref, "batched and scalar codewords must be identical");

    let code = StripedCode::c2t(n, t, value_bytes).expect("valid geometry");
    let k = code.layout().k;
    let value = workload_value(value_bytes, SEED ^ (n as u64) << 32 ^ value_bytes as u64);
    let symbols = code.encode_value(&value).expect("encode");
    let picks: Vec<(usize, Symbol)> = symbols.iter().cloned().enumerate().skip(n - k).collect();
    let all: Vec<(usize, Symbol)> = symbols.iter().cloned().enumerate().collect();
    assert_eq!(code.decode_value(&picks).expect("decode"), value, "decode must invert encode");
    assert!(code.is_consistent(&all).expect("consistency"));

    let iters = (16 * (1 << 20) / value_bytes).clamp(4, if fast { 16 } else { 256 });
    BigCase {
        n,
        t,
        value_bytes,
        encode_mbps: throughput_mbps(value_bytes, iters, || {
            std::hint::black_box(code.encode_value(&value).unwrap());
        }),
        decode_mbps: throughput_mbps(value_bytes, iters, || {
            std::hint::black_box(code.decode_value(&picks).unwrap());
        }),
        consistency_mbps: throughput_mbps(value_bytes, iters, || {
            std::hint::black_box(code.is_consistent(&all).unwrap());
        }),
    }
}

struct SmrMeasure {
    n: usize,
    t: usize,
    slots: usize,
    batch: usize,
    depth: usize,
    wall_ms: f64,
    rounds: u64,
    commands: u64,
}

/// End-to-end wall-time of a pipelined replicated-log run — the system
/// the codec hot path actually serves.
// Bench harness: wall-clock timing is the deliverable, exempt from the
// determinism mirror in clippy.toml.
#[allow(clippy::disallowed_methods)]
fn measure_smr(fast: bool) -> SmrMeasure {
    let (n, t, slots, batch, depth) = (7usize, 2usize, if fast { 12 } else { 60 }, 16usize, 4usize);
    let cfg = SmrConfig::new(n, t, slots, batch)
        .expect("valid parameters")
        .with_pipeline(depth);
    let workloads = synthetic_workloads(n, slots.div_ceil(n) * batch, SEED);
    let hooks: Vec<Box<dyn SmrHooks>> = (0..n).map(|_| HonestReplica::boxed()).collect();
    let start = Instant::now();
    let run = simulate_smr(&cfg, workloads, hooks, MetricsSink::new());
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    for w in run.reports.windows(2) {
        assert_eq!(w[0].agreed_log(), w[1].agreed_log(), "harness: replicas diverged");
    }
    SmrMeasure {
        n,
        t,
        slots,
        batch,
        depth,
        wall_ms,
        rounds: run.rounds,
        commands: run.reports[0].committed_commands,
    }
}

fn main() {
    // `--quick` is the flag `run_all` forwards to every experiment.
    let fast = std::env::args().any(|a| a == "--fast" || a == "--quick");
    let sizes: &[usize] = if fast { &SIZES_FAST } else { &SIZES };

    let big_sizes: &[usize] = if fast { &BIG_SIZES_FAST } else { &BIG_SIZES };

    let mut cases = Vec::new();
    for &(n, t) in &GEOMETRIES {
        for &len in sizes {
            cases.push(measure_case(n, t, len, fast));
        }
    }
    let big_cases: Vec<BigCase> = big_sizes
        .iter()
        .map(|&len| measure_big_case(BIG_N.0, BIG_N.1, len, fast))
        .collect();
    let smr = measure_smr(fast);

    let mut table = Table::new(&[
        "n",
        "t",
        "value KiB",
        "enc scalar MB/s",
        "enc batched MB/s",
        "dec scalar MB/s",
        "dec batched MB/s",
        "chk scalar MB/s",
        "chk batched MB/s",
        "enc+dec speedup",
    ]);
    for c in &cases {
        table.row(vec![
            c.n.to_string(),
            c.t.to_string(),
            (c.value_bytes / 1024).to_string(),
            format!("{:.1}", c.encode.scalar_mbps),
            format!("{:.1}", c.encode.batched_mbps),
            format!("{:.1}", c.decode.scalar_mbps),
            format!("{:.1}", c.decode.batched_mbps),
            format!("{:.1}", c.consistency.scalar_mbps),
            format!("{:.1}", c.consistency.batched_mbps),
            format!("{:.1}x", c.encode_decode_speedup()),
        ]);
    }
    println!("# E18: codec wall-clock — batched slice kernels vs scalar reference{}\n", if fast { " (--fast)" } else { "" });
    println!("{}", table.to_markdown());
    let mut big_table = Table::new(&[
        "n",
        "t",
        "value KiB",
        "enc MB/s",
        "dec MB/s",
        "chk MB/s",
    ]);
    for c in &big_cases {
        big_table.row(vec![
            c.n.to_string(),
            c.t.to_string(),
            (c.value_bytes / 1024).to_string(),
            format!("{:.1}", c.encode_mbps),
            format!("{:.1}", c.decode_mbps),
            format!("{:.1}", c.consistency_mbps),
        ]);
    }
    println!("large committee (batched only):\n");
    println!("{}", big_table.to_markdown());
    println!(
        "smr --pipeline end-to-end: n = {}, t = {}, {} slots x {} commands at depth {} in {:.0} ms ({} rounds, {} commands)",
        smr.n, smr.t, smr.slots, smr.batch, smr.depth, smr.wall_ms, smr.rounds, smr.commands
    );

    let headline = cases
        .iter()
        .find(|c| (c.n, c.t, c.value_bytes) == HEADLINE)
        .expect("headline case measured");
    let headline_speedup = headline.encode_decode_speedup();

    let case_json: Vec<String> = cases
        .iter()
        .map(|c| {
            let op = |label: &str, m: &OpMeasure| {
                format!(
                    "\"{label}\": {{ \"scalar_mbps\": {:.2}, \"batched_mbps\": {:.2}, \"speedup\": {:.2} }}",
                    m.scalar_mbps, m.batched_mbps, m.speedup()
                )
            };
            format!(
                "    {{ \"n\": {}, \"t\": {}, \"value_bytes\": {}, {}, {}, {}, \"encode_decode_speedup\": {:.2}, \"identical\": true }}",
                c.n,
                c.t,
                c.value_bytes,
                op("encode", &c.encode),
                op("decode", &c.decode),
                op("consistency", &c.consistency),
                c.encode_decode_speedup(),
            )
        })
        .collect();
    let big_json: Vec<String> = big_cases
        .iter()
        .map(|c| {
            format!(
                "    {{ \"n\": {}, \"t\": {}, \"value_bytes\": {}, \"encode_mbps\": {:.2}, \"decode_mbps\": {:.2}, \"consistency_mbps\": {:.2}, \"identical\": true }}",
                c.n, c.t, c.value_bytes, c.encode_mbps, c.decode_mbps, c.consistency_mbps,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"codec\",\n  \"fast\": {fast},\n  \"manifest\": {},\n  \"cases\": [\n{}\n  ],\n  \"big_n_cases\": [\n{}\n  ],\n  \"headline\": {{ \"n\": {}, \"t\": {}, \"value_bytes\": {}, \"encode_decode_speedup\": {:.2}, \"required_min\": {HEADLINE_MIN_SPEEDUP} }},\n  \"smr_pipeline\": {{ \"n\": {}, \"t\": {}, \"slots\": {}, \"batch_commands\": {}, \"depth\": {}, \"wall_ms\": {:.1}, \"rounds\": {}, \"commands\": {} }}\n}}\n",
        manifest_json(HEADLINE.0, HEADLINE.1, SEED, "round-barrier"),
        case_json.join(",\n"),
        big_json.join(",\n"),
        HEADLINE.0,
        HEADLINE.1,
        HEADLINE.2,
        headline_speedup,
        smr.n,
        smr.t,
        smr.slots,
        smr.batch,
        smr.depth,
        smr.wall_ms,
        smr.rounds,
        smr.commands,
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_codec.json", json).expect("write results/BENCH_codec.json");
    println!("\nwrote results/BENCH_codec.json");

    assert!(
        headline_speedup >= HEADLINE_MIN_SPEEDUP,
        "codec perf regression: encode+decode at n=7, t=2, 64KiB only {headline_speedup:.2}x \
         over the scalar reference (expected >= {HEADLINE_MIN_SPEEDUP}x)"
    );
    println!(
        "headline: encode+decode {headline_speedup:.1}x over scalar reference at n=7, t=2, 64KiB"
    );
}
