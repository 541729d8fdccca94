//! `sweep run` flags and spec keys mean the same thing: every spec key
//! `KEY = VALUE` is also a `--KEY VALUE` flag, parsed by the same code. A
//! campaign run from a spec file and from the same keys given as flags
//! writes identical bytes, and one command line that sets both `--params`
//! and `--n/--m/--k` is rejected exactly as a spec file setting both is.
//! `sweep serve` reads the same flags through the same parser, so its
//! messages match `sweep run --mode serve`'s.

use std::path::PathBuf;
use std::process::{Command, Output};

const SPEC: &str = "\
# A small explore campaign touching list, enum and numeric keys.
name = cli-flags
mode = explore
params = 2/1/1
algorithms = oneshot:1, anon-oneshot:1
symmetry = process-ids
workload = distinct
max-steps = 100000
max-states = 200000
campaign-seed = 3
";

/// A per-test scratch file path, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("sa-sweep-cli-flags-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("the sweep binary runs")
}

fn sweep_run(args: &[String]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .arg("run")
        .args(args)
        .output()
        .expect("the sweep binary runs")
}

/// Runs `sweep serve` with `flags` and checks the decided-value fingerprint
/// it prints: the virtual clock makes it a pure function of the flags.
fn assert_serve_fingerprint(flags: &[&str], fingerprint: &str) {
    let output = sweep(&[&["serve"], flags].concat());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{flags:?}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout.contains(&format!("decided fingerprint: {fingerprint}\n")),
        "{flags:?}: {stdout}"
    );
}

/// `SPEC`'s settings as `--KEY VALUE` flag pairs.
fn spec_as_flags() -> Vec<String> {
    SPEC.lines()
        .map(|line| line.split('#').next().unwrap_or_default())
        .filter_map(|line| line.split_once('='))
        .flat_map(|(key, value)| [format!("--{}", key.trim()), value.trim().to_string()])
        .collect()
}

#[test]
fn spec_keys_given_as_flags_write_identical_bytes() {
    let spec = Scratch::new("campaign.spec");
    std::fs::write(&spec.0, SPEC).expect("write the spec file");
    let (from_spec, from_flags) = (Scratch::new("spec.jsonl"), Scratch::new("flags.jsonl"));
    let out = |scratch: &Scratch| vec!["--out".to_string(), scratch.0.display().to_string()];

    let spec_args = [
        vec!["--spec".to_string(), spec.0.display().to_string()],
        out(&from_spec),
    ];
    let flag_args = [spec_as_flags(), out(&from_flags)];
    for args in [spec_args.concat(), flag_args.concat()] {
        let output = sweep_run(&args);
        assert!(
            output.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    let spec_bytes = std::fs::read(&from_spec.0).expect("the spec run wrote its output");
    let flag_bytes = std::fs::read(&from_flags.0).expect("the flag run wrote its output");
    assert!(!spec_bytes.is_empty());
    assert_eq!(spec_bytes, flag_bytes, "flags and spec keys disagree");
}

#[test]
fn params_and_grid_axes_on_one_command_line_are_rejected() {
    let out = Scratch::new("conflict.jsonl");
    let args: Vec<String> = [
        "--params", "3/1/2", "--n", "2", "--m", "1", "--k", "1", "--out",
    ]
    .iter()
    .map(|arg| arg.to_string())
    .chain([out.0.display().to_string()])
    .collect();
    let output = sweep_run(&args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "the conflict must be rejected");
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
    assert!(!out.0.exists(), "no output before the spec is valid");
}

#[test]
fn serve_default_flags_keep_their_fingerprint() {
    assert_serve_fingerprint(&[], "0x07d7f521a1d3bc25");
}

#[test]
fn serve_readme_flags_keep_their_fingerprint() {
    assert_serve_fingerprint(
        &[
            "--n",
            "6",
            "--m",
            "2",
            "--k",
            "3",
            "--clients",
            "64",
            "--rate",
            "10",
            "--duration",
            "1000",
        ],
        "0x3fa9c398d02a1275",
    );
}

#[test]
fn serve_and_run_reject_a_bad_serve_key_with_one_message() {
    let serve = sweep(&["serve", "--rate", "0"]);
    let run = sweep(&["run", "--mode", "serve", "--rate", "0"]);
    for output in [&serve, &run] {
        assert!(!output.status.success(), "a zero rate must be rejected");
        assert!(
            output.stdout.is_empty(),
            "nothing runs before the flags are valid"
        );
    }
    let message = String::from_utf8_lossy(&serve.stderr);
    assert!(message.contains("rate must be at least 1"), "{message}");
    assert_eq!(message, String::from_utf8_lossy(&run.stderr));
}
