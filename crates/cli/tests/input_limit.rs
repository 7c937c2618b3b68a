//! `mvbc inspect <FILE>` and `mvbc smr soak --scenario <FILE>` refuse a
//! file over the input limit before reading it. Each test hands the
//! binary a sparse file one byte over the limit: it must exit non-zero
//! at once with an error naming the path, the size and the limit. A
//! small scenario whose sizes are over the scenario caps is refused the
//! same way, before the runner allocates or spawns anything for it.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `MAX_INPUT_BYTES` in `src/args.rs`.
const LIMIT: u64 = 1 << 30;

fn oversize_file(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    File::create(&path).and_then(|f| f.set_len(LIMIT + 1)).expect("create sparse file");
    path
}

fn assert_refused(args: &[&str], path: &Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_mvbc")).args(args).output().expect("run mvbc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    let size = (LIMIT + 1).to_string();
    let limit = LIMIT.to_string();
    for needle in [path.to_str().expect("utf-8 path"), size.as_str(), limit.as_str()] {
        assert!(stderr.contains(needle), "error does not name {needle}: {stderr}");
    }
    std::fs::remove_file(path).expect("remove sparse file");
}

#[test]
fn inspect_refuses_an_oversize_file() {
    let path = oversize_file("oversize_report.json");
    assert_refused(&["inspect", path.to_str().unwrap()], &path);
}

#[test]
fn smr_soak_refuses_an_oversize_scenario() {
    let path = oversize_file("oversize_scenario.json");
    assert_refused(&["smr", "soak", "--scenario", path.to_str().unwrap()], &path);
}

#[test]
fn smr_soak_refuses_a_scenario_over_its_caps() {
    // 3 slots of 2^40 commands: the runner used to abort allocating
    // 24 TiB of command streams for it. Depth 16384: it used to abort
    // spawning one lane thread per in-flight slot at every replica.
    let cases = [
        (
            "huge_batch.json",
            r#"{"schema": "mvbc.scenario.v1", "name": "huge-batch", "seed": "1", "n": 4, "t": 1,
                "slots": 3, "batch": 1099511627776, "pipeline": 1, "corruptions": []}"#,
            "batch = 1099511627776 is over the cap",
        ),
        (
            "deep_pipeline.json",
            r#"{"schema": "mvbc.scenario.v1", "name": "deep_pipeline", "seed": "11", "n": 4, "t": 1,
                "slots": 16384, "batch": 1, "pipeline": 16384, "max_vtime": null, "net": null,
                "corruptions": []}"#,
            "pipeline = 16384 is over the cap of 16",
        ),
    ];
    for (file, scenario, error) in cases {
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file);
        std::fs::write(&path, scenario).expect("write scenario");
        let out = Command::new(env!("CARGO_BIN_EXE_mvbc"))
            .args(["smr", "soak", "--scenario", path.to_str().unwrap()])
            .output()
            .expect("run mvbc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{file}: {stderr}");
        assert!(stderr.contains(error), "{file}: {stderr}");
        std::fs::remove_file(path).expect("remove scenario");
    }
}
