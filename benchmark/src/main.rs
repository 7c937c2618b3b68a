//! The repo benchmark: seven workloads, end-to-end slot cost, and an
//! outside-in layer breakdown. See `benchmark/README.md`.
//!
//! ```text
//! mvbc-benchmark run   [--seed S] [--reps R] [--workload W]... [--out FILE]
//! mvbc-benchmark trace [--seed S] [--workload W]... [--out FILE]
//! mvbc-benchmark check [RESULT.json]...
//! mvbc-benchmark agree A.json B.json
//! mvbc-benchmark --workload W --seed S --seconds T --trace 0|1      (the contract's form)
//! ```

#![forbid(unsafe_code)]
// The root clippy.toml bans wall clocks and sleeps because protocol code
// runs on virtual time; a benchmark is the sanctioned reader of wall time.
#![allow(clippy::disallowed_methods)]

mod catalog;
mod child;
mod contract;
mod doc;
mod hooks;
mod layers;
mod manifest;
mod probes;
mod procfs;
mod runner;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mvbc_metrics::json::{parse_json, JsonValue};

use catalog::{Catalog, MetricDef};
use runner::{Budget, Measured};
use workloads::{Spec, DEFAULT_SEED, SPECS};

/// Flag values by name, plus positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args { flags: Vec::new(), positional: Vec::new() };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    args.flags.push((name.to_owned(), value.clone()));
                }
                None => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.flags.iter().filter(|(k, _)| k == name).map(|(_, v)| v.as_str()).collect()
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.all(name).last() {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("bad value `{v}` for --{name}")),
        }
    }

    fn specs(&self) -> Result<Vec<&'static Spec>, String> {
        let named = self.all("workload");
        if named.is_empty() {
            return Ok(SPECS.iter().collect());
        }
        named
            .iter()
            .map(|name| workloads::spec(name).ok_or_else(|| format!("unknown workload `{name}`")))
            .collect()
    }
}

fn read_json(path: &Path) -> Result<(JsonValue, usize), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = parse_json(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
    Ok((doc, text.len()))
}

fn write_result(
    path: &Path,
    manifest: JsonValue,
    section: &str,
    defs: &[MetricDef],
    rows: &[(&Spec, Measured)],
) -> Result<(), String> {
    let workloads = rows.iter().map(|(spec, m)| (spec.name, m.to_json(section, defs)));
    let doc = doc::obj([
        ("schema", doc::text("mvbc.benchmark.result.v1")),
        ("manifest", manifest),
        ("workloads", doc::obj(workloads)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `run` (end to end) and `trace` (per layer) over the chosen workloads.
fn measure_all(args: &Args, traced: bool) -> Result<bool, String> {
    let root = manifest::repo_root();
    let profile = manifest::assert_same_profile(&root)?;
    let catalog = Catalog::load(&root)?;
    let seed = args.get("seed")?.unwrap_or(DEFAULT_SEED);
    let reps = args.get("reps")?.unwrap_or(3).max(1);
    let out_dir = root.join("benchmark/out");
    let (section, defs): (&str, &[MetricDef]) = if traced {
        ("per_layer", &catalog.per_layer)
    } else {
        ("end_to_end", &catalog.end_to_end)
    };

    let mut rows: Vec<(&Spec, Measured)> = Vec::new();
    for spec in args.specs()? {
        let measured = if traced {
            let trace_file = out_dir.join(format!("trace-{}.json", spec.name));
            runner::per_layer(spec, seed, defs, Some(&trace_file.to_string_lossy()))?
        } else {
            runner::end_to_end(spec, seed, defs, Budget::Reps(reps))?
        };
        runner::print_metrics(spec.name, &measured, defs);
        rows.push((spec, measured));
    }
    let ops: Vec<(&str, usize)> = rows.iter().map(|(s, _)| (s.name, s.ops)).collect();
    let manifest =
        manifest::manifest_json(&root, &profile, seed, if traced { 1 } else { reps }, &ops);
    let default_name = format!("{}-seed{seed}.json", if traced { "layers" } else { "result" });
    let path = args.get::<PathBuf>("out")?.unwrap_or_else(|| out_dir.join(default_name));
    write_result(&path, manifest, section, defs, &rows)?;
    Ok(rows.iter().all(|(_, m)| m.passed()))
}

/// The contract's form: one workload, one seed, a time budget, and one
/// JSON line last on standard output. `--trace 0` is `run` on that
/// workload with `--seconds` as its budget. `--trace 1` is `trace` on it:
/// one pass of each of its children, which `--seconds` cannot shorten.
fn contract_run(args: &Args) -> Result<bool, String> {
    let root = manifest::repo_root();
    manifest::assert_same_profile(&root)?;
    let catalog = Catalog::load(&root)?;
    let name: String = args.get("workload")?.ok_or("--workload is required")?;
    let spec = workloads::spec(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = args.get("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = args.get("seconds")?.ok_or("--seconds is required")?;
    let traced = match args.get::<u8>("trace")?.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let (measured, defs): (Measured, &[MetricDef]) = if traced {
        let trace_file = root.join(format!("benchmark/out/trace-{}.json", spec.name));
        let defs = &catalog.per_layer;
        (runner::per_layer(spec, seed, defs, Some(&trace_file.to_string_lossy()))?, defs)
    } else {
        let defs = &catalog.end_to_end;
        (runner::end_to_end(spec, seed, defs, Budget::Seconds(seconds))?, defs)
    };
    for failure in &measured.failures {
        eprintln!("{}: FAILED: {failure}", spec.name);
    }
    println!("{}", runner::contract_line(&measured, defs));
    Ok(measured.passed())
}

fn check(args: &Args) -> Result<bool, String> {
    let root = manifest::repo_root();
    let (declaration, bytes) = read_json(&root.join("BENCHMARK.json"))?;
    let mut errors = contract::check_declaration(&declaration, bytes);
    if !args.positional.is_empty() {
        let mut results = Vec::new();
        for path in &args.positional {
            results.push(read_json(Path::new(path))?.0);
        }
        errors.extend(contract::check_results(&declaration, &results));
    }
    for error in &errors {
        println!("check: {error}");
    }
    println!(
        "check: BENCHMARK.json {} ({} result file(s) examined)",
        if errors.is_empty() { "ok" } else { "FAILED" },
        args.positional.len()
    );
    Ok(errors.is_empty())
}

fn agree(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("agree takes exactly two result files".to_owned());
    };
    let root = manifest::repo_root();
    let (declaration, _) = read_json(&root.join("BENCHMARK.json"))?;
    let (a, _) = read_json(Path::new(a))?;
    let (b, _) = read_json(Path::new(b))?;
    let pairings = contract::agree(&declaration, &a, &b);
    for p in &pairings {
        println!("{:<15} {:<28} {:<10} {}", p.workload, p.metric, p.verdict.name(), p.detail);
    }
    let count = |v: contract::Verdict| pairings.iter().filter(|p| p.verdict == v).count();
    let (regressed, unresolved) =
        (count(contract::Verdict::Regressed), count(contract::Verdict::Unresolved));
    println!(
        "agree: {} pass, {regressed} regressed, {unresolved} unresolved",
        count(contract::Verdict::Pass)
    );
    Ok(regressed == 0 && unresolved == 0)
}

fn child_main(args: &Args) -> Result<bool, String> {
    let name: String = args.get("workload")?.ok_or("child: --workload is required")?;
    let spec = workloads::spec(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let task_name: String = args.get("task")?.ok_or("child: --task is required")?;
    let task = child::Task::parse(&task_name)
        .ok_or_else(|| format!("unknown child task `{task_name}`"))?;
    child::main(
        spec,
        args.get("seed")?.unwrap_or(DEFAULT_SEED),
        task,
        args.get("spawned-at-ns")?.unwrap_or(0),
        args.get::<String>("trace-out")?.as_deref(),
        args.get("msg-bytes")?.unwrap_or(0),
    );
    Ok(true)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "check" | "agree" | "child")) => (c, &raw[1..]),
        _ => ("contract", &raw[..]),
    };
    let outcome = Args::parse(rest).and_then(|args| match command {
        "run" => measure_all(&args, false),
        "trace" => measure_all(&args, true),
        "check" => check(&args),
        "agree" => agree(&args),
        "child" => child_main(&args),
        _ => contract_run(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("mvbc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
