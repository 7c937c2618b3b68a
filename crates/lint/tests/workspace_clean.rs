//! The real workspace must lint clean against the checked-in
//! `lint.toml` — the same invocation CI runs. A failure here lists the
//! violations; fix them or add a justified inline suppression.

use std::path::PathBuf;

use mvbc_lint::{load_manifest, scan_workspace, LINT_SCHEMA};
use mvbc_metrics::json::{parse_json, JsonValue};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn workspace_lints_clean() {
    let root = workspace_root();
    let manifest = load_manifest(&root).expect("lint.toml parses");
    let report = scan_workspace(&root, &manifest).expect("scan succeeds");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(
        report.clean(),
        "workspace has lint violations:\n{}",
        rendered.join("\n")
    );
    // The scan must actually have covered the protocol crates.
    let scanned: Vec<&str> = report.stats.iter().map(|(k, _)| k.as_str()).collect();
    for krate in ["crates/broadcast", "crates/bsb", "crates/smr", "crates/netsim", "crates/rscode"] {
        assert!(scanned.contains(&krate), "scan skipped {krate}");
    }
    // No determinism zone reads the machine's shape any more, so
    // `determinism.thread_count` has no sanctioned call site: a worker
    // count must not come back behind a suppression comment.
    assert_eq!(
        report.suppressed_rules.get("determinism.thread_count"),
        None,
        "the workspace suppresses determinism.thread_count again"
    );
    // The codec's memo tables are state of each code value, so no
    // process-wide map is left to justify: an unordered container must
    // not come back behind a suppression comment either.
    assert_eq!(
        report.suppressed_rules.get("determinism.hash_state"),
        None,
        "the workspace suppresses determinism.hash_state again"
    );
}

#[test]
fn workspace_json_report_matches_schema() {
    let root = workspace_root();
    let manifest = load_manifest(&root).expect("lint.toml parses");
    let report = scan_workspace(&root, &manifest).expect("scan succeeds");
    let parsed = parse_json(&report.to_json(true)).expect("lint JSON parses");
    assert_eq!(parsed.get("schema").and_then(JsonValue::as_str), Some(LINT_SCHEMA));
    assert_eq!(parsed.get("clean").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(parsed.get("diagnostic_count").and_then(JsonValue::as_u64), Some(0));
    let stats = parsed.get("stats").and_then(JsonValue::as_array).expect("stats array");
    assert!(!stats.is_empty());
    // Zero unsafe across the workspace today; raising a budget is a
    // deliberate lint.toml change that will update this invariant.
    for entry in stats {
        assert_eq!(entry.get("unsafe_blocks").and_then(JsonValue::as_u64), Some(0));
    }
}
