//! `sweep run` rejects a reduction no scenario could apply — the retired
//! `sleep-set` value, or `persistent-set` outside the serial explorer —
//! from command-line flags exactly as from a spec file: with an error,
//! before any scenario runs or the output file is created.

use std::process::Command;

/// Runs `sweep run ARGS --out FILE`; returns whether it succeeded, its
/// stderr, and whether it created FILE.
fn sweep_run(label: &str, args: &str) -> (bool, String, bool) {
    let out = std::env::temp_dir().join(format!(
        "sa-sweep-cli-reduction-{label}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&out);
    let output = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .arg("run")
        .args(args.split_whitespace())
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the sweep binary runs");
    let created = out.exists();
    let _ = std::fs::remove_file(&out);
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (output.status.success(), stderr, created)
}

#[test]
fn unsupported_reduction_flags_fail_before_any_scenario_runs() {
    for (label, args, message) in [
        (
            "sleep-set",
            "--mode explore --reduction sleep-set",
            "bad reduction mode \"sleep-set\"",
        ),
        (
            "parallel",
            "--mode explore --explore-threads 2 --reduction persistent-set",
            "explore-threads = 2",
        ),
        (
            "search",
            "--mode adversary-search --reduction persistent-set",
            "adversary searches never reduce",
        ),
    ] {
        let (succeeded, stderr, created) = sweep_run(label, args);
        assert!(!succeeded, "{label}: the run must fail");
        assert!(stderr.contains(message), "{label}: {stderr}");
        assert!(!created, "{label}: no output before validation");
    }
}
