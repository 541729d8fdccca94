//! The exit codes CI gates on: `sweep summarize` exits 1 on a safety or
//! bound violation, a truncated exploration or a search short of its
//! register target, and 0 on a clean file; `sweep diff` exits 1 when a
//! scenario regresses and 0 on identical files; a file that cannot be read
//! exits 2.

use std::path::PathBuf;
use std::process::Command;

const RECORDS: &str = include_str!("golden/mixed.jsonl");

/// A per-test scratch file holding `text`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn with(name: &str, text: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("sa-sweep-exit-codes-{}-{name}", std::process::id()));
        std::fs::write(&path, text).expect("write the scratch file");
        Scratch(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("temp paths are UTF-8")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The exit code of `sweep ARGS...`.
fn sweep(args: &[&str]) -> i32 {
    let output = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("the sweep binary runs");
    output.status.code().expect("sweep exits normally")
}

/// The fixture line of `campaign`'s scenario `index`, newline-terminated.
fn line(campaign: &str, index: u64) -> String {
    let prefix = format!("{{\"campaign\":\"{campaign}\",\"scenario\":{index},");
    let line = RECORDS
        .lines()
        .find(|line| line.starts_with(&prefix))
        .unwrap_or_else(|| panic!("the fixture has {campaign} scenario {index}"));
    format!("{line}\n")
}

/// `text` with `field`'s value `from` replaced by `to`, which must occur.
fn flip(text: &str, field: &str, from: &str, to: &str) -> String {
    let (from, to) = (format!("\"{field}\":{from}"), format!("\"{field}\":{to}"));
    assert!(text.contains(&from), "{from} not in {text}");
    text.replace(&from, &to)
}

#[test]
fn summarize_fails_on_the_fixture_because_it_holds_a_truncated_exploration() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/mixed.jsonl");
    assert!(RECORDS.contains("\"stop\":\"truncated\""));
    assert_eq!(sweep(&["summarize", fixture]), 1);
}

#[test]
fn summarize_passes_clean_lines_and_fails_each_gate() {
    let clean = line("golden-scheduled", 0);
    let search = line("golden-search", 0);
    assert_eq!(
        sweep(&["summarize", Scratch::with("clean", &clean).path()]),
        0
    );
    assert_eq!(
        sweep(&["summarize", Scratch::with("search", &search).path()]),
        0
    );

    let unsafe_line = flip(&clean, "agreement_ok", "true", "false");
    let unsafe_file = Scratch::with("unsafe", &unsafe_line);
    assert_eq!(sweep(&["summarize", unsafe_file.path()]), 1);

    let short = flip(&search, "witness_registers", "3", "2");
    let short_file = Scratch::with("short", &short);
    assert_eq!(sweep(&["summarize", short_file.path()]), 1);
}

#[test]
fn diff_fails_when_a_scenario_turns_unsafe_and_passes_identical_files() {
    let clean = line("golden-scheduled", 0);
    let old = Scratch::with("diff-old", &clean);
    let same = Scratch::with("diff-same", &clean);
    let unsafe_file = Scratch::with(
        "diff-unsafe",
        &flip(&clean, "agreement_ok", "true", "false"),
    );
    assert_eq!(sweep(&["diff", old.path(), same.path()]), 0);
    assert_eq!(sweep(&["diff", old.path(), unsafe_file.path()]), 1);
}

#[test]
fn a_missing_file_exits_2() {
    let missing = std::env::temp_dir().join(format!(
        "sa-sweep-exit-codes-{}-missing.jsonl",
        std::process::id()
    ));
    let missing = missing.to_str().expect("temp paths are UTF-8");
    let present = Scratch::with("present", &line("golden-scheduled", 0));
    assert_eq!(sweep(&["summarize", missing]), 2);
    assert_eq!(sweep(&["diff", present.path(), missing]), 2);
    assert_eq!(sweep(&["verify", missing]), 2);
}
