//! The checked-in rule manifest (`lint.toml`) and its parser.
//!
//! The parser handles exactly the TOML subset the manifest uses —
//! `[section]` headers, `key = value` with string / integer / boolean /
//! string-array values, `#` comments, and quoted keys (for per-crate
//! unsafe budgets like `"crates/gf" = 0`). Keeping it in-tree avoids an
//! external TOML dependency, consistent with the workspace's offline
//! shim policy, and the manifest format is frozen by the tests.

use std::collections::BTreeMap;

/// One parsed manifest value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An integer.
    Int(i64),
    /// `true` / `false`.
    Bool(bool),
    /// An array of quoted strings.
    List(Vec<String>),
}

/// Sections, each a key → value map. `BTreeMap` keeps reporting over the
/// manifest itself deterministic.
pub type Doc = BTreeMap<String, BTreeMap<String, Value>>;

/// Parses the manifest text into sections. Errors carry a line number.
pub fn parse_doc(text: &str) -> Result<Doc, String> {
    let mut doc = Doc::new();
    let mut section = String::new();
    let raw_lines: Vec<&str> = text.lines().collect();
    let mut idx = 0usize;
    while idx < raw_lines.len() {
        let lineno = idx + 1;
        let mut owned = strip_comment(raw_lines[idx]).trim().to_owned();
        idx += 1;
        // Arrays may span lines: keep consuming until brackets balance.
        while bracket_balance(&owned) > 0 && idx < raw_lines.len() {
            owned.push(' ');
            owned.push_str(strip_comment(raw_lines[idx]).trim());
            idx += 1;
        }
        let line = owned.as_str();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("line {lineno}: unterminated section header"))?;
            section = name.trim().to_owned();
            doc.entry(section.clone()).or_default();
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
        let key = unquote_key(key.trim());
        let value = parse_value(value.trim())
            .map_err(|e| format!("line {lineno}: {e}"))?;
        if section.is_empty() {
            return Err(format!("line {lineno}: key outside any [section]"));
        }
        doc.get_mut(&section)
            .expect("section inserted on header")
            .insert(key, value);
    }
    Ok(doc)
}

/// Net count of unclosed `[` outside quotes (section headers always
/// balance on their own line, so a positive balance means an open
/// array).
fn bracket_balance(line: &str) -> i32 {
    let mut balance = 0i32;
    let mut in_str = false;
    for c in line.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => balance += 1,
            ']' if !in_str => balance -= 1,
            _ => {}
        }
    }
    balance
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Keys may be bare or quoted (`"crates/gf"`).
fn unquote_key(key: &str) -> String {
    key.strip_prefix('"')
        .and_then(|k| k.strip_suffix('"'))
        .unwrap_or(key)
        .to_owned()
}

fn parse_value(v: &str) -> Result<Value, String> {
    if let Some(rest) = v.strip_prefix('[') {
        let inner = rest
            .strip_suffix(']')
            .ok_or("unterminated array (arrays must be single-line)")?;
        let mut items = Vec::new();
        for item in split_array_items(inner) {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            match parse_value(item)? {
                Value::Str(s) => items.push(s),
                _ => return Err("arrays may only contain strings".to_owned()),
            }
        }
        return Ok(Value::List(items));
    }
    if let Some(rest) = v.strip_prefix('"') {
        let inner = rest.strip_suffix('"').ok_or("unterminated string")?;
        return Ok(Value::Str(inner.to_owned()));
    }
    match v {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    v.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("unrecognized value `{v}`"))
}

/// Splits array contents on commas outside quotes.
fn split_array_items(inner: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    for (i, c) in inner.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                items.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(&inner[start..]);
    items
}

/// The fully-resolved rule configuration.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Directories (relative to the repo root) to walk for `.rs` files.
    pub scan_roots: Vec<String>,
    /// Path prefixes to skip entirely (shims, fixtures, build output).
    pub scan_exclude: Vec<String>,

    /// Path prefixes where determinism rules apply (protocol code).
    pub determinism_zones: Vec<String>,
    /// Exact files inside a zone that are exempt (the wall-clock seam).
    pub determinism_allow_files: Vec<String>,
    /// Identifiers that read the wall clock.
    pub wall_clock: Vec<String>,
    /// Identifiers that source OS entropy / unseeded randomness.
    pub unseeded_rng: Vec<String>,
    /// Identifiers that read the machine's thread count (pool sizing
    /// may never influence committed bytes or trace digests).
    pub thread_count: Vec<String>,
    /// Exact files inside a zone that may start OS threads
    /// (`thread::{spawn, scope, Builder}`): the simulator's executor.
    pub executor_files: Vec<String>,

    /// Path prefixes where unordered-container state is forbidden.
    pub hash_state_zones: Vec<String>,
    /// Exact files subject to the trace-order (hash-iteration) rule.
    pub trace_order_files: Vec<String>,

    /// Path prefixes where wedge panics must carry context.
    pub panic_zones: Vec<String>,
    /// Substrings that mark a panic message as a wedge report.
    pub wedge_markers: Vec<String>,
    /// Substrings a wedge panic message must contain.
    pub required_context: Vec<String>,

    /// Default per-crate unsafe-block budget.
    pub unsafe_default_budget: i64,
    /// Per-crate overrides, keyed by crate directory (`crates/gf`).
    pub unsafe_budgets: BTreeMap<String, i64>,
}

impl Manifest {
    /// Resolves a parsed document into a manifest, applying defaults for
    /// any missing section or key.
    pub fn from_doc(doc: &Doc) -> Result<Manifest, String> {
        let list = |section: &str, key: &str, default: &[&str]| -> Result<Vec<String>, String> {
            match doc.get(section).and_then(|s| s.get(key)) {
                Some(Value::List(items)) => Ok(items.clone()),
                Some(_) => Err(format!("[{section}] {key}: expected an array of strings")),
                None => Ok(default.iter().map(|s| (*s).to_owned()).collect()),
            }
        };
        let mut unsafe_budgets = BTreeMap::new();
        let mut unsafe_default_budget = 0i64;
        if let Some(section) = doc.get("unsafe_budget") {
            for (key, value) in section {
                let Value::Int(n) = value else {
                    return Err(format!("[unsafe_budget] {key}: expected an integer"));
                };
                if *n < 0 {
                    return Err(format!("[unsafe_budget] {key}: budget must be >= 0"));
                }
                if key == "default" {
                    unsafe_default_budget = *n;
                } else {
                    unsafe_budgets.insert(key.clone(), *n);
                }
            }
        }
        Ok(Manifest {
            scan_roots: list("scan", "roots", &["crates"])?,
            scan_exclude: list("scan", "exclude", &[])?,
            determinism_zones: list("determinism", "zones", &[])?,
            determinism_allow_files: list("determinism", "allow_files", &[])?,
            wall_clock: list("determinism", "wall_clock", &["Instant", "SystemTime"])?,
            unseeded_rng: list(
                "determinism",
                "unseeded_rng",
                &["thread_rng", "from_entropy", "OsRng"],
            )?,
            thread_count: list("determinism", "thread_count", &["available_parallelism"])?,
            executor_files: list("determinism", "executor_files", &[])?,
            hash_state_zones: list("hash_state", "zones", &[])?,
            trace_order_files: list("trace_order", "files", &[])?,
            panic_zones: list("panics", "zones", &[])?,
            wedge_markers: list("panics", "wedge_markers", &["wedge"])?,
            required_context: list("panics", "required_context", &["round"])?,
            unsafe_default_budget,
            unsafe_budgets,
        })
    }

    /// Parses manifest text directly.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        Manifest::from_doc(&parse_doc(text)?)
    }

    /// The unsafe budget for a crate directory.
    pub fn unsafe_budget_for(&self, crate_dir: &str) -> i64 {
        self.unsafe_budgets
            .get(crate_dir)
            .copied()
            .unwrap_or(self.unsafe_default_budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# top comment
[scan]
roots = ["crates", "tests"]   # trailing comment
exclude = ["crates/shims"]

[determinism]
zones = ["crates/smr"]
wall_clock = ["Instant", "SystemTime"]

[unsafe_budget]
default = 0
"crates/gf" = 2
"#;

    #[test]
    fn parses_sections_keys_and_arrays() {
        let m = Manifest::parse(SAMPLE).unwrap();
        assert_eq!(m.scan_roots, ["crates", "tests"]);
        assert_eq!(m.scan_exclude, ["crates/shims"]);
        assert_eq!(m.determinism_zones, ["crates/smr"]);
        assert_eq!(m.unsafe_default_budget, 0);
        assert_eq!(m.unsafe_budget_for("crates/gf"), 2);
        assert_eq!(m.unsafe_budget_for("crates/smr"), 0);
    }

    #[test]
    fn defaults_apply_for_missing_sections() {
        let m = Manifest::parse("[scan]\nroots = [\"crates\"]\n").unwrap();
        assert!(m.determinism_zones.is_empty());
        assert_eq!(m.wall_clock, ["Instant", "SystemTime"]);
        assert_eq!(m.wedge_markers, ["wedge"]);
    }

    #[test]
    fn multi_line_arrays_parse() {
        let m = Manifest::parse(
            "[scan]\nroots = [\n    \"crates\",  # inline comment\n    \"tests\",\n]\n\
             exclude = [\"x\"]\n",
        )
        .unwrap();
        assert_eq!(m.scan_roots, ["crates", "tests"]);
        assert_eq!(m.scan_exclude, ["x"]);
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let doc = parse_doc("[a]\nx = \"b#c\"\n").unwrap();
        assert_eq!(doc["a"]["x"], Value::Str("b#c".to_owned()));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_doc("[unclosed\n").is_err());
        assert!(parse_doc("[a]\nno_equals\n").is_err());
        assert!(parse_doc("orphan = 1\n").is_err());
        assert!(Manifest::parse("[unsafe_budget]\ndefault = -1\n").is_err());
        assert!(Manifest::parse("[scan]\nroots = 3\n").is_err());
    }

    #[test]
    fn commas_inside_quoted_items_survive() {
        let doc = parse_doc("[a]\nx = [\"p,q\", \"r\"]\n").unwrap();
        assert_eq!(
            doc["a"]["x"],
            Value::List(vec!["p,q".to_owned(), "r".to_owned()])
        );
    }
}
