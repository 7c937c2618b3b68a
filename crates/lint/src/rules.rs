//! The rule engine: runs the catalogue against one lexed file.
//!
//! Rules work on the flat token stream with statement-span and
//! brace-depth heuristics rather than a full AST. The heuristics are
//! deliberately conservative in one direction each:
//!
//! - *Determinism* rules flag any appearance of a forbidden name in a
//!   zone (over-approximate — an import alone is a smell worth a
//!   justified suppression).
//! - The *trace-order* rule only fires on unambiguous evidence: an
//!   identifier it can positively bind to an unordered container, in a
//!   statement that iterates and shows no ordered re-keying. Ambiguous
//!   names (bound to both kinds somewhere in the file) are inconclusive
//!   and never flagged — a byte-identical-output invariant is guarded by
//!   the digest-pin tests too, so the lint prefers silence to noise.
//!
//! Test regions (`#[cfg(test)]` mods, `#[test]` fns) are exempt from the
//! determinism, hash-state, trace-order, and panic rules: tests may use
//! the wall clock and unordered maps freely. The unsafe audit applies
//! everywhere.

use std::collections::BTreeSet;

use crate::diagnostics::Diagnostic;
use crate::lexer::{lex, Lexed, Tok};
use crate::manifest::Manifest;

/// Every suppressible rule. `allow.*` meta-rules are not suppressible.
pub const KNOWN_RULES: &[&str] = &[
    "determinism.wall_clock",
    "determinism.sleep",
    "determinism.unseeded_rng",
    "determinism.thread_count",
    "determinism.thread_spawn",
    "determinism.hash_state",
    "trace.hash_iter",
    "unsafe.missing_safety",
    "unsafe.budget",
    "unsafe.missing_forbid",
    "panic.wedge_context",
];

/// What checking one file produced.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Findings surviving suppression, unsorted.
    pub diagnostics: Vec<Diagnostic>,
    /// `unsafe` tokens in the file (test regions included).
    pub unsafe_count: u64,
    /// The rule named by each `mvbc-lint: allow(...)` comment in the
    /// file, one entry per comment.
    pub suppressions: Vec<String>,
    /// Whether the file carries `#![forbid(unsafe_code)]`.
    pub has_forbid_unsafe: bool,
}

/// One parsed inline suppression comment.
#[derive(Debug)]
struct Suppression {
    rule: String,
    line: u32,
    /// Known rule *and* justified — only then does it suppress.
    effective: bool,
}

/// Whether `path` sits under any of the given zone prefixes.
pub fn in_zone(path: &str, zones: &[String]) -> bool {
    zones.iter().any(|z| path == z || path.starts_with(&format!("{z}/")))
}

/// Zone rules cover shipped protocol code only, not a crate's
/// integration tests or benches.
fn is_src_file(path: &str) -> bool {
    path.contains("/src/")
}

/// Runs every rule against one file. `path` is repo-relative with
/// forward slashes.
pub fn check_file(path: &str, src: &str, manifest: &Manifest) -> FileOutcome {
    let lexed = lex(src);
    let mut out = FileOutcome::default();
    let mut raw: Vec<Diagnostic> = Vec::new();

    let (suppressions, mut meta_diags) = parse_suppressions(path, &lexed);
    out.suppressions = suppressions.iter().map(|s| s.rule.clone()).collect();

    let mask = test_mask(&lexed.toks);
    let statements = statement_spans(&lexed.toks);

    out.has_forbid_unsafe = has_forbid_unsafe(&lexed.toks);
    unsafe_rules(path, &lexed, &mut out, &mut raw);

    let determinism_here = in_zone(path, &manifest.determinism_zones)
        && is_src_file(path)
        && !manifest.determinism_allow_files.iter().any(|f| f == path);
    if determinism_here {
        determinism_rules(path, &lexed, &mask, manifest, &mut raw);
    }

    if in_zone(path, &manifest.hash_state_zones) && is_src_file(path) {
        hash_state_rule(path, &lexed, &mask, &statements, &mut raw);
    }

    if manifest.trace_order_files.iter().any(|f| f == path) {
        trace_order_rule(path, &lexed, &mask, &statements, &mut raw);
    }

    if in_zone(path, &manifest.panic_zones) && is_src_file(path) {
        panic_rule(path, &lexed, &mask, manifest, &mut raw);
    }

    // A suppression covers its own line and the next — enough for both
    // end-of-line and line-above placement.
    let suppressed = |d: &Diagnostic| {
        suppressions.iter().any(|s| {
            s.effective && s.rule == d.rule && (d.line == s.line || d.line == s.line + 1)
        })
    };
    out.diagnostics.extend(raw.into_iter().filter(|d| !suppressed(d)));
    out.diagnostics.append(&mut meta_diags);
    out
}

/// Parses `mvbc-lint: allow(rule.name): justification` comments,
/// emitting `allow.missing_justification` / `allow.unknown_rule` for
/// malformed ones (which then do not suppress anything).
fn parse_suppressions(path: &str, lexed: &Lexed) -> (Vec<Suppression>, Vec<Diagnostic>) {
    let mut sups = Vec::new();
    let mut diags = Vec::new();
    for c in &lexed.comments {
        // A directive comment *starts* with the marker; prose that
        // merely mentions `mvbc-lint:` mid-sentence is not a directive.
        let Some(rest) = c.text.strip_prefix("mvbc-lint:") else { continue };
        let rest = rest.trim_start();
        let Some(args) = rest.strip_prefix("allow(") else { continue };
        let Some(close) = args.find(')') else { continue };
        let rule = args[..close].trim().to_owned();
        let tail = args[close + 1..].trim_start();
        let justification = tail.strip_prefix(':').map(str::trim).unwrap_or("");

        let known = KNOWN_RULES.contains(&rule.as_str());
        let justified = !justification.is_empty();
        if !known {
            diags.push(Diagnostic::new(
                "allow.unknown_rule",
                path,
                c.line,
                format!("suppression names unknown rule `{rule}`; it has no effect"),
            ));
        } else if !justified {
            diags.push(Diagnostic::new(
                "allow.missing_justification",
                path,
                c.line,
                format!(
                    "suppression of `{rule}` has no justification; write \
                     `// mvbc-lint: allow({rule}): <why this site is sound>`"
                ),
            ));
        }
        sups.push(Suppression { rule, line: c.line, effective: known && justified });
    }
    (sups, diags)
}

/// Marks token indices inside `#[cfg(test)]` items and `#[test]`
/// functions. `#[cfg(not(test))]` is production code and stays unmasked.
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let Some((attr_end, is_test)) = attr_span(toks, i) else { break };
        if !is_test {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut j = attr_end + 1;
        while toks.get(j).is_some_and(|t| t.is_punct('#'))
            && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            match attr_span(toks, j) {
                Some((end, _)) => j = end + 1,
                None => break,
            }
        }
        // The item runs to its first top-level `;`, or through the brace
        // block opened by its first `{`.
        let mut depth = 0usize;
        let mut end = toks.len() - 1;
        while j < toks.len() {
            if toks[j].is_punct('{') {
                depth += 1;
            } else if toks[j].is_punct('}') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    end = j;
                    break;
                }
            } else if toks[j].is_punct(';') && depth == 0 {
                end = j;
                break;
            }
            j += 1;
        }
        for m in mask.iter_mut().take(end + 1).skip(attr_start) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// The end index of the `#[...]` attribute starting at `start` (the `#`)
/// and whether it marks test-only code.
fn attr_span(toks: &[Tok], start: usize) -> Option<(usize, bool)> {
    let mut depth = 0usize;
    let mut idents: Vec<&str> = Vec::new();
    for (k, t) in toks.iter().enumerate().skip(start + 1) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                let is_test = idents.as_slice() == ["test"]
                    || (idents.first() == Some(&"cfg")
                        && idents.contains(&"test")
                        && !idents.contains(&"not"));
                return Some((k, is_test));
            }
        } else if let Some(id) = t.ident() {
            idents.push(id);
        }
    }
    None
}

/// Token ranges between `;` / `{` / `}` delimiters — a cheap stand-in
/// for statements and headers, good enough for span heuristics.
fn statement_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0usize;
    for (k, t) in toks.iter().enumerate() {
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            if k > start {
                spans.push((start, k));
            }
            start = k + 1;
        }
    }
    if start < toks.len() {
        spans.push((start, toks.len()));
    }
    spans
}

/// `#![forbid(unsafe_code)]` anywhere in the file.
fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    toks.windows(3).any(|w| {
        w[0].is_ident("forbid") && w[1].is_punct('(') && w[2].is_ident("unsafe_code")
    })
}

/// Counts `unsafe` tokens and requires an adjacent `// SAFETY:` comment
/// for each (on the same line or up to three lines above).
fn unsafe_rules(path: &str, lexed: &Lexed, out: &mut FileOutcome, raw: &mut Vec<Diagnostic>) {
    for t in &lexed.toks {
        if !t.is_ident("unsafe") {
            continue;
        }
        out.unsafe_count += 1;
        let covered = lexed.comments.iter().any(|c| {
            c.text.contains("SAFETY:") && c.line <= t.line && t.line.saturating_sub(c.line) <= 3
        });
        if !covered {
            raw.push(Diagnostic::new(
                "unsafe.missing_safety",
                path,
                t.line,
                "`unsafe` without an adjacent `// SAFETY:` comment explaining why the \
                 invariants hold"
                    .to_owned(),
            ));
        }
    }
}

/// Wall clock, sleep, entropy, core-count and thread-spawn rules for
/// determinism zones.
fn determinism_rules(
    path: &str,
    lexed: &Lexed,
    mask: &[bool],
    manifest: &Manifest,
    raw: &mut Vec<Diagnostic>,
) {
    for (i, t) in lexed.toks.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let Some(id) = t.ident() else { continue };
        if manifest.wall_clock.iter().any(|w| w == id) {
            raw.push(Diagnostic::new(
                "determinism.wall_clock",
                path,
                t.line,
                format!(
                    "wall-clock type `{id}` in a determinism zone; protocol code runs on \
                     virtual time (the only sanctioned seam is the telemetry allow-list)"
                ),
            ));
        } else if id == "sleep" && preceded_by_path(&lexed.toks, i, "thread") {
            raw.push(Diagnostic::new(
                "determinism.sleep",
                path,
                t.line,
                "`thread::sleep` in a determinism zone; advance the virtual clock instead"
                    .to_owned(),
            ));
        } else if manifest.unseeded_rng.iter().any(|w| w == id) {
            raw.push(Diagnostic::new(
                "determinism.unseeded_rng",
                path,
                t.line,
                format!(
                    "`{id}` sources OS entropy; all randomness in protocol code must flow \
                     from an explicit seed"
                ),
            ));
        } else if THREAD_SPAWNS.contains(&id)
            && (preceded_by_path(&lexed.toks, i, "thread") || in_thread_use_group(&lexed.toks, i))
            && !manifest.executor_files.iter().any(|f| f == path)
        {
            raw.push(Diagnostic::new(
                "determinism.thread_spawn",
                path,
                t.line,
                format!(
                    "`thread::{id}` in a determinism zone outside the executor ({}); run \
                     concurrent protocol work as lane futures on the node's own thread \
                     (`mvbc_netsim::lanes`)",
                    manifest.executor_files.join(", ")
                ),
            ));
        } else if manifest.thread_count.iter().any(|w| w == id) {
            raw.push(Diagnostic::new(
                "determinism.thread_count",
                path,
                t.line,
                format!(
                    "`{id}` makes behaviour depend on the machine's core count in a \
                     determinism zone; a pool size may only trade wall-clock time — \
                     suppress with a justification proving committed bytes and trace \
                     digests are pool-size-invariant"
                ),
            ));
        }
    }
}

/// The `std::thread` items that start OS threads.
const THREAD_SPAWNS: &[&str] = &["spawn", "scope", "Builder"];

/// Whether token `i` sits in a `thread::{...}` import group, e.g. the
/// `spawn` of `use std::thread::{sleep, spawn};`.
fn in_thread_use_group(toks: &[Tok], i: usize) -> bool {
    let mut depth = 0usize;
    for j in (0..i).rev() {
        let t = &toks[j];
        if t.is_punct(';') {
            return false;
        } else if t.is_punct('}') {
            depth += 1;
        } else if t.is_punct('{') {
            if depth == 0 {
                return j >= 3
                    && toks[j - 1].is_punct(':')
                    && toks[j - 2].is_punct(':')
                    && toks[j - 3].is_ident("thread");
            }
            depth -= 1;
        }
    }
    false
}

/// Whether token `i` is reached via `prefix::` (e.g. `thread::sleep`).
fn preceded_by_path(toks: &[Tok], i: usize, prefix: &str) -> bool {
    i >= 3
        && toks[i - 1].is_punct(':')
        && toks[i - 2].is_punct(':')
        && toks[i - 3].is_ident(prefix)
}

/// Flags `HashMap` / `HashSet` outside `use` statements in hash-state
/// zones: protocol state lives in ordered containers even when only
/// accessed by key, so iteration order can never silently become
/// observable later.
fn hash_state_rule(
    path: &str,
    lexed: &Lexed,
    mask: &[bool],
    statements: &[(usize, usize)],
    raw: &mut Vec<Diagnostic>,
) {
    for &(s, e) in statements {
        let span = &lexed.toks[s..e];
        if span.first().is_some_and(|t| t.is_ident("use")) {
            continue;
        }
        for (off, t) in span.iter().enumerate() {
            if mask[s + off] {
                continue;
            }
            let Some(id) = t.ident() else { continue };
            if id == "HashMap" || id == "HashSet" {
                raw.push(Diagnostic::new(
                    "determinism.hash_state",
                    path,
                    t.line,
                    format!(
                        "unordered container `{id}` holds state in a hash-state zone; use \
                         BTreeMap/BTreeSet, or suppress with a justification if the \
                         container is provably never iterated"
                    ),
                ));
            }
        }
    }
}

/// Iteration markers that make a container's order observable.
const ITER_MARKERS: &[&str] =
    &["iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "drain", "retain"];

/// Flags iteration over identifiers positively bound to `HashMap` /
/// `HashSet` in trace-order files, unless the statement shows an
/// ordered re-keying. Identifiers bound to both kinds anywhere in the
/// file are ambiguous and never flagged.
fn trace_order_rule(
    path: &str,
    lexed: &Lexed,
    mask: &[bool],
    statements: &[(usize, usize)],
    raw: &mut Vec<Diagnostic>,
) {
    let toks = &lexed.toks;
    let mut hash_names: BTreeSet<&str> = BTreeSet::new();
    let mut ordered_names: BTreeSet<&str> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        // `name: ...Type...` (skip `path::segment`), or `name = Type::new()`.
        let type_window = if toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && !(i > 0 && toks[i - 1].is_punct(':'))
        {
            Some(6)
        } else if toks.get(i + 1).is_some_and(|n| n.is_punct('='))
            && !toks.get(i + 2).is_some_and(|n| n.is_punct('='))
        {
            Some(4)
        } else {
            None
        };
        let Some(window) = type_window else { continue };
        for n in toks.iter().skip(i + 2).take(window) {
            match n.ident() {
                Some("HashMap") | Some("HashSet") => {
                    hash_names.insert(name);
                    break;
                }
                Some("BTreeMap") | Some("BTreeSet") => {
                    ordered_names.insert(name);
                    break;
                }
                _ => {}
            }
        }
    }
    // Ambiguous names are inconclusive evidence.
    let ambiguous: Vec<&str> = hash_names.intersection(&ordered_names).copied().collect();
    for a in ambiguous {
        hash_names.remove(a);
        ordered_names.remove(a);
    }

    let is_ordered_escape = |id: &str| {
        ordered_names.contains(id)
            || id == "BTreeMap"
            || id == "BTreeSet"
            || id.starts_with("sort")
    };

    for &(s, e) in statements {
        let span = &toks[s..e];
        if span.first().is_some_and(|t| t.is_ident("use")) {
            continue;
        }
        let mut hash_site: Option<&Tok> = None;
        let mut iterates = false;
        let mut ordered_escape = false;
        let mut saw_for = false;
        for (off, t) in span.iter().enumerate() {
            if mask[s + off] {
                continue;
            }
            let Some(id) = t.ident() else { continue };
            if id == "for" {
                saw_for = true;
            } else if saw_for && id == "in" {
                iterates = true;
            }
            if ITER_MARKERS.contains(&id) && off > 0 && span[off - 1].is_punct('.') {
                iterates = true;
            }
            if hash_names.contains(id) && hash_site.is_none() {
                hash_site = Some(t);
            }
            if is_ordered_escape(id) {
                ordered_escape = true;
            }
        }
        // A header that opens a block (`for ... in m.iter() {`) may
        // re-key into an ordered container inside the body — the
        // sanctioned escape — so extend the escape search through the
        // block before concluding anything.
        if hash_site.is_some() && iterates && !ordered_escape
            && toks.get(e).is_some_and(|t| t.is_punct('{'))
        {
            let mut depth = 0usize;
            for t in &toks[e..] {
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.ident().is_some_and(is_ordered_escape) {
                    ordered_escape = true;
                    break;
                }
            }
        }
        if let (Some(site), true, false) = (hash_site, iterates, ordered_escape) {
            let name = site.ident().unwrap_or_default();
            raw.push(Diagnostic::new(
                "trace.hash_iter",
                path,
                site.line,
                format!(
                    "iteration over unordered container `{name}` feeds trace/report \
                     output; re-key through a BTreeMap/BTreeSet (or sort) before emitting"
                ),
            ));
        }
    }
}

/// Wedge-style panics (message mentions a wedge marker) must name the
/// configured context fields so a wedged run is diagnosable from the
/// panic alone.
fn panic_rule(
    path: &str,
    lexed: &Lexed,
    mask: &[bool],
    manifest: &Manifest,
    raw: &mut Vec<Diagnostic>,
) {
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || !t.is_ident("panic") || !toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            continue;
        }
        // First string literal in the macro invocation is the format
        // string; panics built without a literal are out of scope.
        let Some(fmt) = toks.iter().skip(i + 2).take(24).find_map(|n| n.str_content()) else {
            continue;
        };
        let lower = fmt.to_lowercase();
        if !manifest.wedge_markers.iter().any(|m| lower.contains(&m.to_lowercase())) {
            continue;
        }
        let missing: Vec<&str> = manifest
            .required_context
            .iter()
            .map(String::as_str)
            .filter(|c| !lower.contains(&c.to_lowercase()))
            .collect();
        if !missing.is_empty() {
            raw.push(Diagnostic::new(
                "panic.wedge_context",
                path,
                t.line,
                format!(
                    "wedge panic omits required context {}; a wedged run must be \
                     diagnosable from the panic message alone",
                    missing
                        .iter()
                        .map(|m| format!("`{m}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest::parse(
            r#"
[determinism]
zones = ["crates/proto"]
allow_files = ["crates/proto/src/seam.rs"]
executor_files = ["crates/proto/src/exec.rs"]

[hash_state]
zones = ["crates/proto"]

[trace_order]
files = ["crates/obs/src/trace.rs"]

[panics]
zones = ["crates/proto"]
wedge_markers = ["wedged"]
required_context = ["round", "node", "vtime"]
"#,
        )
        .unwrap()
    }

    fn rules_hit(path: &str, src: &str) -> Vec<String> {
        let mut out = check_file(path, src, &manifest());
        let mut rules: Vec<String> = out.diagnostics.drain(..).map(|d| d.rule).collect();
        rules.sort();
        rules.dedup();
        rules
    }

    #[test]
    fn zone_scoping_is_path_based() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(rules_hit("crates/proto/src/lib.rs", src), ["determinism.wall_clock"]);
        assert!(rules_hit("crates/other/src/lib.rs", src).is_empty());
        assert!(rules_hit("crates/proto/tests/it.rs", src).is_empty());
        assert!(rules_hit("crates/proto/src/seam.rs", src).is_empty());
    }

    #[test]
    fn test_regions_are_exempt_from_zone_rules() {
        let src = "#[cfg(test)]\nmod tests {\n fn h() { std::thread::sleep(d); }\n}\n\
                   fn g() { let m: HashMap<u8, u8> = HashMap::new(); }";
        let rules = rules_hit("crates/proto/src/lib.rs", src);
        assert_eq!(rules, ["determinism.hash_state"]);
    }

    #[test]
    fn cfg_not_test_is_production_code() {
        let src = "#[cfg(not(test))]\nfn g() { let t: Instant = x; }";
        assert_eq!(rules_hit("crates/proto/src/lib.rs", src), ["determinism.wall_clock"]);
    }

    #[test]
    fn thread_count_flagged_and_suppressible() {
        let src = "fn f() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) }";
        assert_eq!(
            rules_hit("crates/proto/src/lib.rs", src),
            ["determinism.thread_count"]
        );
        assert!(rules_hit("crates/other/src/lib.rs", src).is_empty());
        let justified = format!(
            "// mvbc-lint: allow(determinism.thread_count): workers shard disjoint bands, bytes pinned invariant\n{src}"
        );
        assert!(rules_hit("crates/proto/src/lib.rs", &justified).is_empty());
    }

    #[test]
    fn thread_spawns_flagged_outside_the_executor() {
        let src = "use std::thread::{self, Builder};\n\
                   fn f() { std::thread::spawn(|| ()); thread::scope(|_| ()); }\n\
                   fn g() { let h = task::spawn(); let b = Builder::new(); }";
        let lines = |path: &str| -> Vec<(String, u32)> {
            check_file(path, src, &manifest())
                .diagnostics
                .into_iter()
                .map(|d| (d.rule, d.line))
                .collect()
        };
        let rule = "determinism.thread_spawn".to_owned();
        assert_eq!(
            lines("crates/proto/src/lib.rs"),
            [(rule.clone(), 1), (rule.clone(), 2), (rule, 2)]
        );
        assert!(lines("crates/proto/src/exec.rs").is_empty());
        assert!(lines("crates/other/src/lib.rs").is_empty());
    }

    #[test]
    fn use_lines_do_not_trip_hash_state() {
        let src = "use std::collections::HashMap;\nfn f() {}";
        assert!(rules_hit("crates/proto/src/lib.rs", src).is_empty());
    }

    #[test]
    fn suppression_requires_justification_and_known_rule() {
        let base = "fn f() { let m: HashMap<u8, u8> = HashMap::new(); }";
        let justified = format!(
            "// mvbc-lint: allow(determinism.hash_state): keyed access only\n{base}"
        );
        assert!(rules_hit("crates/proto/src/lib.rs", &justified).is_empty());

        let bare = format!("// mvbc-lint: allow(determinism.hash_state)\n{base}");
        assert_eq!(
            rules_hit("crates/proto/src/lib.rs", &bare),
            ["allow.missing_justification", "determinism.hash_state"]
        );

        let unknown = format!("// mvbc-lint: allow(no.such.rule): because\n{base}");
        assert_eq!(
            rules_hit("crates/proto/src/lib.rs", &unknown),
            ["allow.unknown_rule", "determinism.hash_state"]
        );
    }

    #[test]
    fn trace_order_flags_unambiguous_hash_iteration_only() {
        let flagged = "fn f(m: HashMap<u8, u8>) { for (k, v) in m.iter() { emit(k, v); } }";
        assert_eq!(rules_hit("crates/obs/src/trace.rs", flagged), ["trace.hash_iter"]);

        // Re-keying under the same name (the telemetry snapshot idiom)
        // makes the identifier ambiguous, which is inconclusive.
        let rekeyed = "struct S { links: HashMap<u8, u8> }\nfn f(s: S) {\n let mut links: \
                       BTreeMap<u8, u8> = BTreeMap::new();\n for (k, v) in s.links.iter() { \
                       links.insert(k, v); }\n}";
        let rules = rules_hit("crates/obs/src/trace.rs", rekeyed);
        assert!(
            !rules.contains(&"trace.hash_iter".to_owned()),
            "ambiguous name should be inconclusive: {rules:?}"
        );

        // Re-keying into an ordered container inside the loop body (the
        // metrics snapshot idiom) is the sanctioned escape.
        let body_rekey = "fn f(m: HashMap<u8, u8>) {\n let mut b: BTreeMap<u8, u8> = \
                          BTreeMap::new();\n for (k, v) in m.iter() { b.insert(k, v); }\n}";
        let rules = rules_hit("crates/obs/src/trace.rs", body_rekey);
        assert!(
            !rules.contains(&"trace.hash_iter".to_owned()),
            "body re-key should silence: {rules:?}"
        );

        // An explicit sort in the iterating statement is also an escape.
        let sorted = "fn f(m: HashSet<u8>) { let v = m.iter().collect::<Vec<_>>()\n\
                      .sort(); }";
        let rules = rules_hit("crates/obs/src/trace.rs", sorted);
        assert!(
            !rules.contains(&"trace.hash_iter".to_owned()),
            "sort escape should silence: {rules:?}"
        );
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bad = "fn f() { unsafe { g() } }";
        let out = check_file("crates/any/src/lib.rs", bad, &manifest());
        assert_eq!(out.unsafe_count, 1);
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].rule, "unsafe.missing_safety");

        let good = "fn f() {\n // SAFETY: g is a pure FFI shim with no invariants\n \
                    unsafe { g() }\n}";
        let out = check_file("crates/any/src/lib.rs", good, &manifest());
        assert_eq!(out.unsafe_count, 1);
        assert!(out.diagnostics.is_empty());
    }

    #[test]
    fn forbid_unsafe_is_detected() {
        let out = check_file("crates/any/src/lib.rs", "#![forbid(unsafe_code)]\n", &manifest());
        assert!(out.has_forbid_unsafe);
        let out = check_file("crates/any/src/lib.rs", "fn f() {}\n", &manifest());
        assert!(!out.has_forbid_unsafe);
    }

    #[test]
    fn wedge_panics_must_name_context() {
        let bad = r#"fn f() { panic!("wedged: giving up"); }"#;
        assert_eq!(rules_hit("crates/proto/src/lib.rs", bad), ["panic.wedge_context"]);

        let good = r#"fn f() { panic!("wedged at round {r}: node {n} vtime {t}", r = 1, n = 2, t = 3); }"#;
        assert!(rules_hit("crates/proto/src/lib.rs", good).is_empty());

        // Non-wedge panics are unconstrained.
        let plain = r#"fn f() { panic!("bad input"); }"#;
        assert!(rules_hit("crates/proto/src/lib.rs", plain).is_empty());
    }

    #[test]
    fn forbidden_names_inside_strings_do_not_fire() {
        let src = r#"fn f() { let s = "Instant::now() HashMap thread::sleep"; }"#;
        assert!(rules_hit("crates/proto/src/lib.rs", src).is_empty());
    }
}
