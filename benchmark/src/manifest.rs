//! Provenance recorded in every result file, and the start-up assertion
//! that the benchmark compiles the protocol crates with the root
//! manifest's release profile.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use mvbc_metrics::json::JsonValue;

use crate::doc::{num, obj, text};

/// The profile keys that change generated code.
const PROFILE_KEYS: [&str; 3] = ["lto", "codegen-units", "debug"];

/// Root of the checkout: the working directory when the benchmark is run
/// from there (as the contract does), else the parent of this package.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_default();
    if cwd.join("BENCHMARK.json").is_file() && cwd.join("benchmark/Cargo.toml").is_file() {
        return cwd;
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().map(Path::to_path_buf).unwrap_or(cwd)
}

/// The `key = value` pairs of `[profile.release]` in a Cargo manifest
/// (quotes stripped), restricted to [`PROFILE_KEYS`].
pub fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter_map(|line| line.split_once('='))
        .map(|(k, v)| (k.trim().to_owned(), v.trim().trim_matches('"').to_owned()))
        .filter(|(k, _)| PROFILE_KEYS.contains(&k.as_str()))
        .collect()
}

/// Asserts both manifests set the same release profile and returns it.
///
/// # Errors
///
/// Returns a description when a manifest is unreadable or the two
/// profiles differ.
pub fn assert_same_profile(root: &Path) -> Result<BTreeMap<String, String>, String> {
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
    };
    let ours = release_profile(&read("benchmark/Cargo.toml")?);
    let theirs = release_profile(&read("Cargo.toml")?);
    if ours != theirs || ours.len() != PROFILE_KEYS.len() {
        return Err(format!(
            "benchmark/Cargo.toml [profile.release] {ours:?} differs from the root manifest's {theirs:?}"
        ));
    }
    Ok(ours)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output.status.success().then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
}

/// The manifest block of a result file.
pub fn manifest_json(
    root: &Path,
    profile: &BTreeMap<String, String>,
    seed: u64,
    reps: usize,
    ops: &[(&str, usize)],
) -> JsonValue {
    // A contract checkout is not a git repository; ask git only when it is.
    let commit = root
        .join(".git")
        .exists()
        .then(|| command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned());
    obj([
        ("git_commit", text(&commit)),
        ("rustc", text(&rustc)),
        ("nproc", num(nproc as f64)),
        ("seed", num(seed as f64)),
        ("reps", num(reps as f64)),
        ("ops", obj(ops.iter().map(|&(w, n)| (w, num(n as f64))))),
        ("profile_release", obj(profile.iter().map(|(k, v)| (k.as_str(), text(v))))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_section_is_isolated_and_unquoted() {
        let manifest = "[package]\nname = \"x\"\ndebug = 0\n\n# c\n[profile.release]\ndebug = true\nlto = \"thin\"\ncodegen-units = 1\nopt-level = 3\n\n[profile.bench]\nlto = \"fat\"\n";
        let profile = release_profile(manifest);
        assert_eq!(profile.len(), 3);
        assert_eq!(profile["lto"], "thin");
        assert_eq!(profile["codegen-units"], "1");
        assert_eq!(profile["debug"], "true");
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn this_package_matches_the_root_manifest() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let profile = assert_same_profile(root).unwrap();
        assert_eq!(profile["lto"], "thin");
    }
}
