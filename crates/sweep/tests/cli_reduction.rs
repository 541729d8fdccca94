//! `sweep run` rejects the retired `sleep-set` and `persistent-set`
//! reductions from command-line flags exactly as from a spec file: with an
//! error, before any scenario runs or the output file is created.

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
fn retired_reductions_fail_before_any_scenario_runs() {
    let spec = std::env::temp_dir().join(format!(
        "sa-sweep-cli-reduction-{}.spec",
        std::process::id()
    ));
    std::fs::write(&spec, "mode = explore\nreduction = persistent-set\n").unwrap();
    let spec_args = format!("--spec {}", spec.display());
    for (label, args, message) in [
        (
            "sleep-set",
            "--mode explore --reduction sleep-set",
            "unknown reduction \"sleep-set\"",
        ),
        (
            "persistent-set",
            "--mode explore --reduction persistent-set",
            "unknown reduction \"persistent-set\"",
        ),
        (
            "spec-file",
            spec_args.as_str(),
            "unknown reduction \"persistent-set\"",
        ),
    ] {
        let (succeeded, stderr, created) = sweep_run(label, args);
        assert!(!succeeded, "{label}: the run must fail");
        assert!(stderr.contains(message), "{label}: {stderr}");
        assert!(!created, "{label}: no output before validation");
    }
    let _ = std::fs::remove_file(&spec);
}
