//! `check`: `BENCHMARK.json` against the contract's schema, and result
//! files against `BENCHMARK.json`. `agree`: two result sets against the
//! declared bounds.

use mvbc_metrics::json::JsonValue;

use crate::catalog::{Better, EXACT_BOUND};
use crate::workloads::SPECS;

/// Total seconds the contract allows for all runs and builds.
const CONTRACT_TOTAL_SECONDS: u64 = 3420;

/// Letters, digits, `_`, `.`, `-`; at most 64; starts with a letter or
/// digit.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Letters, digits, `_`, `/`, `%`, `.`, `-`; 1 to 16.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn valid_path(s: &str) -> bool {
    (1..=200).contains(&s.len())
        && !s.starts_with('/')
        && s.split('/').all(|part| part != "..")
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'))
}

fn keys(value: &JsonValue) -> Vec<&str> {
    match value {
        JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    }
}

fn has_exactly(value: &JsonValue, wanted: &[&str]) -> bool {
    let mut have = keys(value);
    let mut want = wanted.to_vec();
    have.sort_unstable();
    want.sort_unstable();
    have == want
}

fn str_field<'a>(value: &'a JsonValue, key: &str) -> &'a str {
    value.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

/// Every way `doc` (the parsed `BENCHMARK.json`, `bytes` long on disk)
/// breaks the contract's schema or names a workload this package does
/// not implement.
pub fn check_declaration(doc: &JsonValue, bytes: usize) -> Vec<String> {
    let mut errors = Vec::new();
    let mut err = |m: String| errors.push(m);
    if bytes > 64 * 1024 {
        err(format!("BENCHMARK.json is {bytes} bytes, over 64 KiB"));
    }
    if !has_exactly(
        doc,
        &["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
    ) {
        err(format!("top-level keys are {:?}", keys(doc)));
        return errors;
    }
    let array = |key: &str| doc.get(key).and_then(JsonValue::as_array).unwrap_or(&[]);

    let command = array("command");
    if !(1..=32).contains(&command.len()) {
        err(format!("command has {} parts", command.len()));
    }
    for part in command {
        match part.as_str() {
            Some(s) if s.len() <= 200 && !s.starts_with('/') && s.split('/').all(|p| p != "..") => {
            }
            other => err(format!("bad command part {other:?}")),
        }
    }
    let paths = array("paths");
    if !(1..=16).contains(&paths.len()) {
        err(format!("paths has {} entries", paths.len()));
    }
    for path in paths {
        if !path.as_str().is_some_and(valid_path) {
            err(format!("bad path {path:?}"));
        }
    }
    let run_seconds = doc.get("run_seconds").and_then(JsonValue::as_u64).unwrap_or(0);
    if !(1..=60).contains(&run_seconds) {
        err("run_seconds must be a whole number from 1 to 60".to_owned());
    }

    let mut names: Vec<&str> = Vec::new();
    let workloads = array("workloads");
    if !(2..=8).contains(&workloads.len()) {
        err(format!("{} workloads declared", workloads.len()));
    }
    for w in workloads {
        let why = str_field(w, "why");
        if !has_exactly(w, &["name", "why"])
            || why.is_empty()
            || why.chars().count() > 200
            || why.contains('\n')
        {
            err(format!("bad workload entry {}", w.render()));
        }
        names.push(str_field(w, "name"));
    }
    let runs = 4 + 22 * workloads.len() as u64;
    if runs * run_seconds >= CONTRACT_TOTAL_SECONDS {
        err(format!("{runs} runs of {run_seconds} s cannot end within {CONTRACT_TOTAL_SECONDS} s"));
    }

    let end_to_end = array("end_to_end");
    if !(1..=16).contains(&end_to_end.len()) {
        err(format!("{} end-to-end metrics declared", end_to_end.len()));
    }
    for m in end_to_end {
        let bound = m.get("bound").and_then(JsonValue::as_f64).unwrap_or(-1.0);
        if !has_exactly(m, &["name", "unit", "better", "bound"]) || !(0.0..=0.25).contains(&bound) {
            err(format!("bad end-to-end entry {}", m.render()));
        }
        names.push(str_field(m, "name"));
    }
    let setup = end_to_end.iter().find(|m| str_field(m, "name") == "setup_s");
    if !setup.is_some_and(|m| str_field(m, "unit") == "s" && str_field(m, "better") == "lower") {
        err("end_to_end lacks setup_s with unit s and better lower".to_owned());
    }
    let per_layer = array("per_layer");
    if !(1..=128).contains(&per_layer.len()) {
        err(format!("{} per-layer metrics declared", per_layer.len()));
    }
    for m in per_layer {
        if !has_exactly(m, &["name", "unit", "better"]) {
            err(format!("bad per-layer entry {}", m.render()));
        }
        names.push(str_field(m, "name"));
    }
    for m in end_to_end.iter().chain(per_layer) {
        if !valid_unit(str_field(m, "unit"))
            || !matches!(str_field(m, "better"), "higher" | "lower")
        {
            err(format!("bad unit or direction in {}", m.render()));
        }
    }
    for name in &names {
        if !valid_name(name) {
            err(format!("bad name `{name}`"));
        }
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != names.len() {
        err("a name is used more than once".to_owned());
    }

    let declared: Vec<&str> = workloads.iter().map(|w| str_field(w, "name")).collect();
    let implemented: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    if declared != implemented {
        err(format!("declared workloads {declared:?}, implemented {implemented:?}"));
    }
    errors
}

/// One reported metric cell: a number with a unit, or an explicit null
/// with a reason.
fn cell_ok(cell: Option<&JsonValue>, unit: &str) -> Result<(), String> {
    let cell = cell.ok_or("missing")?;
    if str_field(cell, "unit") != unit {
        return Err(format!("unit `{}`, declared `{unit}`", str_field(cell, "unit")));
    }
    let value = cell.get("median").or_else(|| cell.get("value")).ok_or("no value")?;
    match value {
        JsonValue::Num(_) => Ok(()),
        JsonValue::Null if !str_field(cell, "reason").is_empty() => Ok(()),
        JsonValue::Null => Err("null without a reason".to_owned()),
        _ => Err("value is not a number".to_owned()),
    }
}

/// Checks that every declared workload × metric appears in some result
/// file with the declared unit (or an explicit null plus reason).
pub fn check_results(declaration: &JsonValue, results: &[JsonValue]) -> Vec<String> {
    let mut errors = Vec::new();
    let array = |key: &str| declaration.get(key).and_then(JsonValue::as_array).unwrap_or(&[]);
    for w in array("workloads") {
        let workload = str_field(w, "name");
        for (section, metrics) in
            [("end_to_end", array("end_to_end")), ("per_layer", array("per_layer"))]
        {
            let sections: Vec<&JsonValue> = results
                .iter()
                .filter_map(|r| r.get("workloads")?.get(workload)?.get(section))
                .collect();
            if sections.is_empty() {
                errors.push(format!("{workload}: no result file has a `{section}` section"));
                continue;
            }
            for m in metrics {
                let (name, unit) = (str_field(m, "name"), str_field(m, "unit"));
                // Any file may supply the cell; report the last complaint
                // only when none does.
                let mut complaint = None;
                for section in &sections {
                    match cell_ok(section.get(name), unit) {
                        Ok(()) => {
                            complaint = None;
                            break;
                        }
                        Err(why) => complaint = Some(why),
                    }
                }
                if let Some(why) = complaint {
                    errors.push(format!("{workload} × {name}: {why}"));
                }
            }
        }
    }
    errors
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a pairing: the median and the individual repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    pub median: f64,
    pub values: Vec<f64>,
}

impl Side {
    /// Run-to-run spread: the distance between the quartiles of the
    /// repetitions over their median.
    fn spread(&self) -> f64 {
        crate::stats::iqr_share(&self.values)
    }
}

/// Judges candidate `b` against baseline `a` for one (workload, metric).
///
/// Exact metrics must be identical. A timing metric regresses when `b`'s
/// median is worse than `a`'s by more than `bound`; when either side's
/// own spread is wider than the bound the pairing is unresolved, unless
/// every run of `b` reads better than every run of `a`.
pub fn judge(a: &Side, b: &Side, better: Better, bound: f64, exact: bool) -> Verdict {
    if exact {
        return if a.median == b.median { Verdict::Pass } else { Verdict::Regressed };
    }
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    };
    if a.spread() > bound || b.spread() > bound {
        let (a_lo, a_hi) = crate::stats::min_max(&a.values);
        let (b_lo, b_hi) = crate::stats::min_max(&b.values);
        let all_better = match better {
            Better::Lower => b_hi < a_lo,
            Better::Higher => b_lo > a_hi,
        };
        return if all_better { Verdict::Pass } else { Verdict::Unresolved };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Pass
    }
}

fn side(cell: &JsonValue) -> Option<Side> {
    let median = cell.get("median")?.as_f64()?;
    let values = match cell.get("values").and_then(JsonValue::as_array) {
        Some(items) if !items.is_empty() => items.iter().filter_map(JsonValue::as_f64).collect(),
        _ => vec![median],
    };
    Some(Side { median, values })
}

/// One line of the `agree` report.
#[derive(Debug, Clone, PartialEq)]
pub struct Pairing {
    pub workload: String,
    pub metric: String,
    pub verdict: Verdict,
    pub detail: String,
}

/// Compares result set `b` against `a` for every declared workload ×
/// end-to-end metric, plus `failed_ops`, which must be 0 on both sides.
/// Two sets taken at different seeds or op counts are not comparable
/// (the exact metrics depend on both): such a workload is unresolved.
pub fn agree(declaration: &JsonValue, a: &JsonValue, b: &JsonValue) -> Vec<Pairing> {
    let array = |key: &str| declaration.get(key).and_then(JsonValue::as_array).unwrap_or(&[]);
    let mut pairings = Vec::new();
    for w in array("workloads") {
        let workload = str_field(w, "name");
        let unresolved = |detail: &str| Pairing {
            workload: workload.to_owned(),
            metric: "*".to_owned(),
            verdict: Verdict::Unresolved,
            detail: detail.to_owned(),
        };
        let section =
            |doc: &'_ JsonValue| doc.get("workloads").and_then(|ws| ws.get(workload)).cloned();
        let (Some(wa), Some(wb)) = (section(a), section(b)) else {
            pairings.push(unresolved("workload missing from a result set"));
            continue;
        };
        let taken_at = |doc: &JsonValue| {
            let manifest = doc.get("manifest")?;
            Some((manifest.get("seed")?.as_u64()?, manifest.get("ops")?.get(workload)?.as_u64()?))
        };
        match (taken_at(a), taken_at(b)) {
            (Some(at_a), Some(at_b)) if at_a == at_b => {}
            (at_a, at_b) => {
                pairings.push(unresolved(&format!(
                    "not comparable: (seed, ops) is {at_a:?} in one manifest and {at_b:?} in the other"
                )));
                continue;
            }
        }
        let failed = |doc: &JsonValue| doc.get("failed_ops").and_then(JsonValue::as_u64);
        let clean = failed(&wa) == Some(0) && failed(&wb) == Some(0);
        pairings.push(Pairing {
            workload: workload.to_owned(),
            metric: "failed_ops".to_owned(),
            verdict: if clean { Verdict::Pass } else { Verdict::Regressed },
            detail: format!("{:?} vs {:?}", failed(&wa), failed(&wb)),
        });
        for m in array("end_to_end") {
            let name = str_field(m, "name");
            let bound = m.get("bound").and_then(JsonValue::as_f64).unwrap_or(0.0);
            let better =
                if str_field(m, "better") == "higher" { Better::Higher } else { Better::Lower };
            let exact = bound <= EXACT_BOUND;
            let cell = |doc: &JsonValue| doc.get("end_to_end").and_then(|e| e.get(name)).cloned();
            let (verdict, detail) = match (cell(&wa), cell(&wb)) {
                (Some(ca), Some(cb)) => match (side(&ca), side(&cb)) {
                    (Some(sa), Some(sb)) => (
                        judge(&sa, &sb, better, bound, exact),
                        if exact {
                            format!("{} vs {} (exact)", sa.median, sb.median)
                        } else {
                            format!(
                                "{:.6} vs {:.6} ({:+.2} %, bound {:.0} %, spreads {:.1} % / {:.1} %)",
                                sa.median,
                                sb.median,
                                (sb.median - sa.median) / sa.median * 100.0,
                                bound * 100.0,
                                sa.spread() * 100.0,
                                sb.spread() * 100.0
                            )
                        },
                    ),
                    // Both explicitly null: the metric does not apply.
                    (None, None) => (Verdict::Pass, "not applicable".to_owned()),
                    _ => (Verdict::Unresolved, "a value on one side only".to_owned()),
                },
                _ => (Verdict::Unresolved, "metric missing from a result set".to_owned()),
            };
            pairings.push(Pairing {
                workload: workload.to_owned(),
                metric: name.to_owned(),
                verdict,
                detail,
            });
        }
    }
    pairings
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvbc_metrics::json::parse_json;

    #[test]
    fn names_units_and_paths() {
        assert!(
            valid_name("log_small") && valid_name("gf.addmul-long_mbps") && valid_name("9lives")
        );
        assert!(
            !valid_name("")
                && !valid_name(".hidden")
                && !valid_name("a b")
                && !valid_name(&"x".repeat(65))
        );
        assert!(valid_unit("MB/s") && valid_unit("1/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("bits per second!") && !valid_unit("µs"));
        assert!(valid_path("benchmark") && valid_path("a/b.c-d"));
        assert!(!valid_path("/abs") && !valid_path("a/../b") && !valid_path("a b"));
    }

    fn side_of(values: &[f64]) -> Side {
        Side { median: crate::stats::median(values), values: values.to_vec() }
    }

    #[test]
    fn judge_timing_metrics_against_the_bound() {
        let a = side_of(&[100.0, 101.0, 99.0]);
        // 5 % slower, bound 10 %: pass. 15 % slower: regressed.
        assert_eq!(
            judge(&a, &side_of(&[105.0, 104.0, 106.0]), Better::Lower, 0.10, false),
            Verdict::Pass
        );
        assert_eq!(
            judge(&a, &side_of(&[115.0, 114.0, 116.0]), Better::Lower, 0.10, false),
            Verdict::Regressed
        );
        // Direction matters: 15 % higher is an improvement for `higher`.
        assert_eq!(
            judge(&a, &side_of(&[115.0, 114.0, 116.0]), Better::Higher, 0.10, false),
            Verdict::Pass
        );
        assert_eq!(
            judge(&a, &side_of(&[85.0, 84.0, 86.0]), Better::Higher, 0.10, false),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = side_of(&[80.0, 100.0, 125.0]);
        let a = side_of(&[100.0, 101.0, 99.0]);
        assert_eq!(judge(&a, &noisy, Better::Lower, 0.10, false), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &a, Better::Lower, 0.10, false), Verdict::Unresolved);
        // Noisy but every run beats every run of the baseline.
        let fast = side_of(&[40.0, 50.0, 60.0]);
        assert_eq!(judge(&a, &fast, Better::Lower, 0.10, false), Verdict::Pass);
    }

    #[test]
    fn exact_metrics_must_be_identical() {
        let a = side_of(&[21.0]);
        assert_eq!(judge(&a, &side_of(&[21.0]), Better::Lower, 0.25, true), Verdict::Pass);
        assert_eq!(judge(&a, &side_of(&[20.0]), Better::Lower, 0.25, true), Verdict::Regressed);
    }

    const DECLARATION: &str = r#"{"workloads": [{"name": "w", "why": "x"}],
        "end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                       {"name": "rounds_per_op", "unit": "rounds", "better": "lower", "bound": 0.0},
                       {"name": "commit_vticks_p50", "unit": "ticks", "better": "lower", "bound": 0.0}],
        "per_layer": [{"name": "gf.x", "unit": "ns", "better": "lower"}]}"#;

    fn result(ops_per_s: &str, rounds: f64, failed: u64) -> JsonValue {
        result_at(11, 300, ops_per_s, rounds, failed)
    }

    fn result_at(seed: u64, ops: u64, ops_per_s: &str, rounds: f64, failed: u64) -> JsonValue {
        parse_json(&format!(
            r#"{{"manifest": {{"seed": {seed}, "ops": {{"w": {ops}}}}},
                "workloads": {{"w": {{"failed_ops": {failed}, "end_to_end": {{
                "ops_per_s": {{"unit": "1/s", "median": {ops_per_s}}},
                "rounds_per_op": {{"unit": "rounds", "median": {rounds}, "values": [{rounds}]}},
                "commit_vticks_p50": {{"unit": "ticks", "value": null, "reason": "n/a"}}}},
                "per_layer": {{"gf.x": {{"unit": "ns", "value": 3.5}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn agree_pairs_every_metric_and_failed_ops() {
        let declaration = parse_json(DECLARATION).unwrap();
        let verdicts = |a: &JsonValue, b: &JsonValue| -> Vec<(String, Verdict)> {
            agree(&declaration, a, b).into_iter().map(|p| (p.metric, p.verdict)).collect()
        };
        let base = result("100.0, \"values\": [99.0, 100.0, 101.0]", 21.0, 0);
        let same = verdicts(&base, &result("97.0, \"values\": [96.0, 97.0, 98.0]", 21.0, 0));
        assert!(same.iter().all(|(_, v)| *v == Verdict::Pass), "{same:?}");
        assert_eq!(same.len(), 4, "failed_ops plus three metrics");
        let bad = verdicts(&base, &result("80.0, \"values\": [79.0, 80.0, 81.0]", 22.0, 1));
        assert_eq!(
            bad,
            vec![
                ("failed_ops".to_owned(), Verdict::Regressed),
                ("ops_per_s".to_owned(), Verdict::Regressed),
                ("rounds_per_op".to_owned(), Verdict::Regressed),
                ("commit_vticks_p50".to_owned(), Verdict::Pass),
            ]
        );
        let missing = parse_json(r#"{"workloads": {}}"#).unwrap();
        assert_eq!(verdicts(&base, &missing), vec![("*".to_owned(), Verdict::Unresolved)]);
    }

    #[test]
    fn agree_refuses_sets_taken_at_another_seed_or_op_count() {
        let declaration = parse_json(DECLARATION).unwrap();
        let base = result("100.0", 21.0, 0);
        for other in [result_at(29, 300, "100.0", 21.0, 0), result_at(11, 200, "100.0", 21.0, 0)] {
            let pairings = agree(&declaration, &base, &other);
            assert_eq!(pairings.len(), 1, "{pairings:?}");
            assert_eq!(pairings[0].verdict, Verdict::Unresolved);
            assert!(pairings[0].detail.contains("not comparable"), "{}", pairings[0].detail);
        }
    }

    #[test]
    fn the_repo_declaration_is_valid() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let errors = check_declaration(&parse_json(&text).unwrap(), text.len());
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn results_must_cover_every_declared_cell() {
        let declaration = parse_json(DECLARATION).unwrap();
        let full = result("100.0", 21.0, 0);
        assert!(check_results(&declaration, std::slice::from_ref(&full)).is_empty());
        // Wrong unit, and a null without a reason.
        let broken = parse_json(
            r#"{"workloads": {"w": {"end_to_end": {
                "ops_per_s": {"unit": "ops", "median": 1.0},
                "rounds_per_op": {"unit": "rounds", "value": null},
                "commit_vticks_p50": {"unit": "ticks", "median": 2.0}}}}}"#,
        )
        .unwrap();
        let errors = check_results(&declaration, std::slice::from_ref(&broken));
        assert_eq!(errors.len(), 3, "{errors:?}");
        assert!(errors[0].contains("ops_per_s") && errors[1].contains("null without a reason"));
        assert!(errors[2].contains("per_layer"));
        // A second file may supply what the first lacks.
        assert_eq!(check_results(&declaration, &[broken, full]).len(), 0);
    }
}
