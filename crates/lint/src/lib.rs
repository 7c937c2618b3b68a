//! `mvbc-lint`: the workspace determinism & soundness auditor.
//!
//! The consensus stack's headline guarantee is reproducibility: the same
//! seed must yield byte-identical traces, reports, and digests (four
//! RoundBarrier trace digests are pinned in tests). That guarantee is
//! easy to break silently — one `Instant::now()` in a protocol crate,
//! one `HashMap` iteration feeding a trace event — and the breakage only
//! shows up later as a flaky digest test. This crate scans the workspace
//! source directly and turns those hazards into findings *at the line
//! that introduces them*:
//!
//! - **Determinism zones** (`determinism.*`): wall-clock types, `thread::sleep`,
//!   OS entropy, and unordered containers are forbidden in protocol
//!   crates; the telemetry wall-clock seam is an explicit allow-list.
//! - **Trace order** (`trace.hash_iter`): iterating an unordered
//!   container into trace/report output.
//! - **Unsafe audit** (`unsafe.*`): every `unsafe` needs a `// SAFETY:`
//!   comment, each crate has an unsafe budget (default 0), and
//!   zero-budget crates must carry `#![forbid(unsafe_code)]`.
//! - **Panic conventions** (`panic.wedge_context`): wedge panics must
//!   name round / node / vtime.
//!
//! Rules and zones live in the checked-in `lint.toml`
//! ([`manifest::Manifest`]); violations are suppressed inline with
//! `// mvbc-lint: allow(rule.name): justification`, and the suppressions
//! are themselves audited. The binary (`cargo run -p mvbc-lint`) emits
//! human diagnostics or `--json` (schema `mvbc.lint.v1`, rendered with
//! the shared [`mvbc_metrics::json`] model) for CI.
//!
//! The scanner has no dependencies beyond `mvbc-metrics` — lexer and
//! manifest parser are hand-rolled — and is itself deterministic:
//! directory walks are sorted, diagnostics are emitted in canonical
//! `(file, line, rule)` order, and JSON field order is fixed.

#![forbid(unsafe_code)]

pub mod diagnostics;
pub mod lexer;
pub mod manifest;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

pub use diagnostics::{sort_diagnostics, CrateStats, Diagnostic, Report, LINT_SCHEMA};
pub use manifest::Manifest;
pub use rules::{check_file, FileOutcome};

/// Loads `lint.toml` from the workspace root.
pub fn load_manifest(root: &Path) -> Result<Manifest, String> {
    let path = root.join("lint.toml");
    let text = fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Manifest::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Scans the workspace under `root` against `manifest`, producing the
/// full report: per-file rule findings, crate-level unsafe-budget and
/// missing-forbid findings, and per-crate statistics.
pub fn scan_workspace(root: &Path, manifest: &Manifest) -> Result<Report, String> {
    let mut files = Vec::new();
    for scan_root in &manifest.scan_roots {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    // Deterministic order regardless of filesystem enumeration.
    files.sort();

    let mut report = Report::default();
    let mut per_crate: BTreeMap<String, CrateStats> = BTreeMap::new();
    // crate dir → (unsafe total, lib.rs forbid flag if a lib.rs was seen)
    let mut unsafe_totals: BTreeMap<String, u64> = BTreeMap::new();
    let mut lib_forbid: BTreeMap<String, bool> = BTreeMap::new();

    for file in &files {
        let rel = relative_slash_path(root, file);
        if manifest.scan_exclude.iter().any(|x| rel == *x || rel.starts_with(&format!("{x}/"))) {
            continue;
        }
        let src = fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let outcome = check_file(&rel, &src, manifest);

        let krate = crate_dir_of(&rel);
        let stats = per_crate.entry(krate.clone()).or_default();
        stats.files += 1;
        stats.unsafe_blocks += outcome.unsafe_count;
        stats.suppressions += outcome.suppressions.len() as u64;
        for rule in outcome.suppressions {
            *report.suppressed_rules.entry(rule).or_default() += 1;
        }
        stats.rule_hits += outcome.diagnostics.len() as u64;
        *unsafe_totals.entry(krate.clone()).or_default() += outcome.unsafe_count;
        if rel.ends_with("/src/lib.rs") {
            lib_forbid.insert(krate, outcome.has_forbid_unsafe);
        }
        report.diagnostics.extend(outcome.diagnostics);
    }

    // Crate-level rules: budgets and forbid attributes.
    for (krate, &count) in &unsafe_totals {
        let budget = manifest.unsafe_budget_for(krate);
        if (count as i64) > budget {
            let d = Diagnostic::new(
                "unsafe.budget",
                &format!("{krate}/"),
                0,
                format!(
                    "crate has {count} unsafe block(s), over its budget of {budget}; \
                     raise the budget in lint.toml [unsafe_budget] or remove the unsafe"
                ),
            );
            if let Some(stats) = per_crate.get_mut(krate) {
                stats.rule_hits += 1;
            }
            report.diagnostics.push(d);
        }
    }
    for (krate, &forbids) in &lib_forbid {
        if manifest.unsafe_budget_for(krate) == 0 && !forbids {
            let d = Diagnostic::new(
                "unsafe.missing_forbid",
                &format!("{krate}/src/lib.rs"),
                1,
                "crate has a zero unsafe budget but its lib.rs lacks \
                 `#![forbid(unsafe_code)]`; add the attribute so the compiler enforces \
                 the budget too"
                    .to_owned(),
            );
            if let Some(stats) = per_crate.get_mut(krate) {
                stats.rule_hits += 1;
            }
            report.diagnostics.push(d);
        }
    }

    sort_diagnostics(&mut report.diagnostics);
    report.stats = per_crate.into_iter().collect();
    Ok(report)
}

/// Recursively collects `.rs` files, descending in sorted order.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("cannot read dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            // `target/` can appear under crate dirs when building with
            // non-workspace settings; never descend into build output.
            if entry.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// The repo-relative path with forward slashes.
fn relative_slash_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The crate directory a file belongs to: `crates/<name>` for workspace
/// crates, the first path component (e.g. `tests`) otherwise.
fn crate_dir_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => format!("crates/{name}"),
        (Some(first), _) => first.to_owned(),
        (None, _) => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_attribution() {
        assert_eq!(crate_dir_of("crates/smr/src/log.rs"), "crates/smr");
        assert_eq!(crate_dir_of("tests/netsim_latency.rs"), "tests");
        assert_eq!(crate_dir_of("examples/demo.rs"), "examples");
    }

    #[test]
    fn relative_paths_use_forward_slashes() {
        let root = Path::new("/repo");
        let file = Path::new("/repo/crates/gf/src/lib.rs");
        assert_eq!(relative_slash_path(root, file), "crates/gf/src/lib.rs");
    }
}
