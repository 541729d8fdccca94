//! `sweep run` flags and spec keys mean the same thing: every spec key
//! `KEY = VALUE` is also a `--KEY VALUE` flag, parsed by the same code. A
//! campaign run from a spec file and from the same keys given as flags
//! writes identical bytes, and one command line that sets both `--params`
//! and `--n/--m/--k` is rejected exactly as a spec file setting both is.

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

fn sweep_run(args: &[String]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .arg("run")
        .args(args)
        .output()
        .expect("the sweep binary runs")
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
