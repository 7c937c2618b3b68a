//! Diagnostics: the findings a scan produces, their deterministic
//! ordering, and their human and JSON renderings.
//!
//! The JSON form reuses the workspace's shared document model
//! ([`mvbc_metrics::json`]) and is pinned by schema tag
//! (`mvbc.lint.v1`) the same way run reports pin `mvbc.run_report.v1`,
//! so CI can validate the output shape without trusting the producer.

use std::collections::BTreeMap;

use mvbc_metrics::json::JsonValue;

/// Schema tag for `--json` output.
pub const LINT_SCHEMA: &str = "mvbc.lint.v1";

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier (`determinism.wall_clock`, ...).
    pub rule: String,
    /// Repo-relative file path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(rule: &str, file: &str, line: u32, message: String) -> Diagnostic {
        Diagnostic { rule: rule.to_owned(), file: file.to_owned(), line, message }
    }

    /// The one-line human rendering: `file:line: [rule] message`.
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Sorts diagnostics into the canonical `(file, line, rule)` order so
/// output is byte-identical run to run.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
}

/// Per-crate scan statistics (`--stats`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrateStats {
    /// `.rs` files scanned.
    pub files: u64,
    /// `unsafe` tokens seen in code (blocks, fns, impls).
    pub unsafe_blocks: u64,
    /// Inline `mvbc-lint: allow(...)` suppressions.
    pub suppressions: u64,
    /// Diagnostics attributed to the crate (after suppression).
    pub rule_hits: u64,
}

/// The result of scanning a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings, in canonical order.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-crate statistics, keyed by crate directory (sorted).
    pub stats: Vec<(String, CrateStats)>,
    /// Inline suppressions across the workspace, counted per rule name.
    pub suppressed_rules: BTreeMap<String, u64>,
}

impl Report {
    /// Whether the scan found nothing.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The JSON document (`mvbc.lint.v1`). `include_stats` controls the
    /// optional `stats` array.
    pub fn to_json_value(&self, include_stats: bool) -> JsonValue {
        let diags = self
            .diagnostics
            .iter()
            .map(|d| {
                JsonValue::Obj(vec![
                    ("rule".to_owned(), JsonValue::Str(d.rule.clone())),
                    ("file".to_owned(), JsonValue::Str(d.file.clone())),
                    ("line".to_owned(), JsonValue::Num(f64::from(d.line))),
                    ("message".to_owned(), JsonValue::Str(d.message.clone())),
                ])
            })
            .collect();
        let mut fields = vec![
            ("schema".to_owned(), JsonValue::Str(LINT_SCHEMA.to_owned())),
            ("clean".to_owned(), JsonValue::Bool(self.clean())),
            (
                "diagnostic_count".to_owned(),
                JsonValue::Num(self.diagnostics.len() as f64),
            ),
            ("diagnostics".to_owned(), JsonValue::Arr(diags)),
        ];
        if include_stats {
            let stats = self
                .stats
                .iter()
                .map(|(krate, s)| {
                    JsonValue::Obj(vec![
                        ("crate".to_owned(), JsonValue::Str(krate.clone())),
                        ("files".to_owned(), JsonValue::Num(s.files as f64)),
                        ("unsafe_blocks".to_owned(), JsonValue::Num(s.unsafe_blocks as f64)),
                        ("suppressions".to_owned(), JsonValue::Num(s.suppressions as f64)),
                        ("rule_hits".to_owned(), JsonValue::Num(s.rule_hits as f64)),
                    ])
                })
                .collect();
            fields.push(("stats".to_owned(), JsonValue::Arr(stats)));
        }
        JsonValue::Obj(fields)
    }

    /// Serialized JSON (deterministic field and crate order).
    pub fn to_json(&self, include_stats: bool) -> String {
        self.to_json_value(include_stats).render()
    }

    /// The human `--stats` table.
    pub fn stats_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>6} {:>8} {:>13} {:>10}\n",
            "crate", "files", "unsafe", "suppressions", "rule-hits"
        ));
        for (krate, s) in &self.stats {
            out.push_str(&format!(
                "{:<24} {:>6} {:>8} {:>13} {:>10}\n",
                krate, s.files, s.unsafe_blocks, s.suppressions, s.rule_hits
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvbc_metrics::json::parse_json;

    fn diag(rule: &str, file: &str, line: u32) -> Diagnostic {
        Diagnostic::new(rule, file, line, format!("hit {rule}"))
    }

    #[test]
    fn canonical_order_is_file_line_rule() {
        let mut diags = vec![
            diag("b.rule", "z.rs", 1),
            diag("a.rule", "a.rs", 9),
            diag("b.rule", "a.rs", 3),
            diag("a.rule", "a.rs", 3),
        ];
        sort_diagnostics(&mut diags);
        let order: Vec<(String, u32, String)> =
            diags.iter().map(|d| (d.file.clone(), d.line, d.rule.clone())).collect();
        assert_eq!(
            order,
            vec![
                ("a.rs".to_owned(), 3, "a.rule".to_owned()),
                ("a.rs".to_owned(), 3, "b.rule".to_owned()),
                ("a.rs".to_owned(), 9, "a.rule".to_owned()),
                ("z.rs".to_owned(), 1, "b.rule".to_owned()),
            ]
        );
    }

    #[test]
    fn json_round_trips_through_shared_parser() {
        let mut report = Report::default();
        report.diagnostics.push(diag("determinism.wall_clock", "crates/x/src/lib.rs", 7));
        report.stats.push(("crates/x".to_owned(), CrateStats {
            files: 1,
            unsafe_blocks: 0,
            suppressions: 2,
            rule_hits: 1,
        }));
        let parsed = parse_json(&report.to_json(true)).unwrap();
        assert_eq!(parsed.get("schema").and_then(JsonValue::as_str), Some(LINT_SCHEMA));
        assert_eq!(parsed.get("clean").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(parsed.get("diagnostic_count").and_then(JsonValue::as_u64), Some(1));
        let d = &parsed.get("diagnostics").and_then(JsonValue::as_array).unwrap()[0];
        assert_eq!(d.get("line").and_then(JsonValue::as_u64), Some(7));
        let s = &parsed.get("stats").and_then(JsonValue::as_array).unwrap()[0];
        assert_eq!(s.get("suppressions").and_then(JsonValue::as_u64), Some(2));
    }

    #[test]
    fn clean_report_omits_stats_unless_asked() {
        let report = Report::default();
        assert!(report.clean());
        let parsed = parse_json(&report.to_json(false)).unwrap();
        assert!(parsed.get("stats").is_none());
        assert_eq!(parsed.get("diagnostic_count").and_then(JsonValue::as_u64), Some(0));
    }
}
