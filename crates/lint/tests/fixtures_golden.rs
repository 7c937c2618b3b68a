//! Golden test over the fixture workspace: every rule in the catalogue
//! must fire at the seeded site, suppression must silence exactly the
//! justified site, and the rendered diagnostics must match the
//! checked-in golden output byte for byte (which also pins the
//! scanner's deterministic ordering).

use std::path::PathBuf;

use mvbc_lint::rules::KNOWN_RULES;
use mvbc_lint::{load_manifest, scan_workspace, Report};

fn fixture_report() -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    let manifest = load_manifest(&root).expect("fixture lint.toml parses");
    scan_workspace(&root, &manifest).expect("fixture scan succeeds")
}

const GOLDEN: &str = include_str!("golden_diagnostics.txt");

#[test]
fn fixture_diagnostics_match_golden() {
    let report = fixture_report();
    let rendered: String =
        report.diagnostics.iter().map(|d| format!("{}\n", d.render())).collect();
    assert_eq!(
        rendered, GOLDEN,
        "fixture diagnostics drifted from tests/golden_diagnostics.txt; \
         if the change is intentional, regenerate the golden with \
         `mvbc-lint --check --root crates/lint/tests/fixtures/ws`"
    );
}

#[test]
fn every_rule_fires_on_its_fixture() {
    let report = fixture_report();
    let fired: Vec<&str> = report.diagnostics.iter().map(|d| d.rule.as_str()).collect();
    for rule in KNOWN_RULES {
        assert!(fired.contains(rule), "rule `{rule}` fired nowhere in the fixtures");
    }
    for meta in ["allow.missing_justification", "allow.unknown_rule"] {
        assert!(fired.contains(&meta), "meta-rule `{meta}` fired nowhere in the fixtures");
    }
}

#[test]
fn justified_suppression_silences_and_is_counted() {
    let report = fixture_report();
    assert!(
        !report.diagnostics.iter().any(|d| d.file.ends_with("suppressed.rs")),
        "the justified suppression fixture must lint clean"
    );
    let proto = report
        .stats
        .iter()
        .find(|(krate, _)| krate == "crates/proto")
        .map(|(_, s)| s.clone())
        .expect("proto crate in stats");
    // suppressed.rs has the one effective directive; allow_bad.rs has
    // two ineffective ones — all three are *directives* and counted.
    assert_eq!(proto.suppressions, 3);
    assert_eq!(proto.files, 11);
}

#[test]
fn stats_attribute_unsafe_to_the_right_crates() {
    let report = fixture_report();
    let unsafe_of = |name: &str| {
        report
            .stats
            .iter()
            .find(|(krate, _)| krate == name)
            .map(|(_, s)| s.unsafe_blocks)
            .expect("crate in stats")
    };
    assert_eq!(unsafe_of("crates/unsafe_bad"), 1);
    assert_eq!(unsafe_of("crates/overbudget"), 1);
    assert_eq!(unsafe_of("crates/proto"), 0);
}
