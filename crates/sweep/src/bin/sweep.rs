//! The `sweep` CLI: run campaigns, summarize result files, diff two runs.
//!
//! ```text
//! sweep run [--spec FILE] [--KEY VALUE]... [--shard I/N] [--threads N]
//!           [--out FILE] [--progress N] [--checkpoint DIR]
//!     KEY: name n m k params algorithms adversaries backend seeds workload
//!          max-steps campaign-seed mode max-states explore-threads symmetry
//!          reduction spill max-resident-mb goals target-registers
//!          search-depth shards batch-max clients rate duration
//! sweep serve [--KEY VALUE]... [--clock MODE] [--seed S]
//! sweep summarize FILE
//! sweep verify FILE
//! sweep diff OLD NEW
//! sweep merge [--out FILE] SHARD...
//! sweep lint [--allow FILE] ROOT...
//! ```
//!
//! Every campaign spec key `KEY = VALUE` is also a `sweep run` flag
//! `--KEY VALUE`, parsed by the same code; the flags form one layer over the
//! `--spec` file. `serve` takes the same flags, except `--mode`, as one
//! layer over its serve-mode defaults, and runs the one scenario they
//! select. `run` writes JSONL to `--out` (default stdout) and prints
//! the outcome to stderr. `summarize` exits non-zero if the file contains
//! safety or bound violations, if an exhaustive exploration was truncated
//! before its state space was exhausted, or if an adversary search missed
//! its register
//! target — the CI gate. `verify` independently replays every witness in an
//! adversary-search result file through the shared replay verifier. `diff`
//! exits non-zero on regressions (a scenario newly unsafe, newly over its
//! bound, newly starving, or a search finding a smaller witness). `merge`
//! reassembles shard files produced with `--shard` into the stream an
//! unsharded run would have written.

use sa_sweep::{
    diff, expand, lint_source, merge_shards, parse_allowlist, parse_jsonl, run_campaign,
    stale_entries, CampaignSpec, EngineConfig, Summary, WorkloadSpec,
};
use set_agreement::runtime::{SearchGoal, ServeClock, Workload};
use set_agreement::search::{Certificate, VerifyError, Witness};
use set_agreement::{verify_witness, Algorithm, Backend, ExecutionPlan};
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  sweep run [options]         expand and execute a campaign, emit JSONL
  sweep serve [options]       run the set-agreement service once, print a
                              latency and throughput report
  sweep summarize FILE        aggregate a result file; exit 1 on violations
  sweep verify FILE           replay every adversary-search witness in a
                              result file; exit 1 if any fails verification
  sweep diff OLD NEW          compare result files; exit 1 on regressions
  sweep merge [--out FILE] SHARD...
                              merge sharded result files by scenario index
  sweep lint [--allow FILE] ROOT...
                              scan Rust sources under each ROOT for
                              determinism hazards (iteration over hash-keyed
                              collections, unstable std hashers, ambient
                              clock reads, thread identity); exit 1 on any
                              finding not suppressed by the `rule
                              path-suffix` allowlist

run options (every campaign spec key KEY is also a flag --KEY VALUE with
the same parsing; the flags form one layer over the --spec file, and within
it --params and --n/--m/--k exclude each other):
  --name NAME          campaign name embedded in records
  --n, --m, --k LIST   grid axes: `4`, `4,6`, `4..8` (inclusive)
  --params LIST        explicit cells `n/m/k;n/m/k;...` (replaces the grid)
  --algorithms LIST    `all`, `all:INSTANCES`, or labels (`oneshot,
                       repeated:3, anon-oneshot, anon-repeated, wide,
                       fullinfo`, full figure labels also accepted)
  --adversaries LIST   `round-robin, random, solo, bursts:LEN,
                       obstruction[:FACTOR[:SURVIVORS]]` (factor x n steps
                       of contention; survivors default to the cell's m),
                       or `crash:<inner>:<F>` wrapping any of the former
                       with up to F seed-derived crash failures per run
  --backend LIST       `scheduled` (default), `threaded`, or both to make
                       the execution backend a grid axis. `threaded` runs
                       one OS thread per process on real shared memory; the
                       adversary axis collapses (the hardware schedules)
                       and records carry wall-clock time and steps/s
  --mode MODE          `sample` (default), `explore`, `serve` or
                       `adversary-search`. `explore`
                       exhaustively model-checks every interleaving of each
                       (cell, algorithm) pair instead of sampling schedules
                       (tiny cells only; the backend, adversary and seed
                       axes are ignored). `serve` runs the batched service
                       under the open-loop load generator and a virtual
                       clock (the algorithm, adversary and backend axes are
                       ignored; records carry latency percentiles and ops/s).
                       `adversary-search` drives a goal-directed BFS over
                       schedule space hunting lower-bound witness structure
                       (coverings, block writes) instead of violations; the
                       backend, adversary and seed axes are ignored and the
                       goal list becomes an axis. Records carry the best
                       witness (schedule, registers, fingerprint), replay-
                       verified before it is written
  --max-states N       state budget per exploration (default 2000000)
  --explore-threads N  worker threads per exploration: 0 (default) runs the
                       serial explorer, N >= 1 the work-stealing parallel
                       explorer. Output is byte-identical across all worker
                       counts >= 1 (only the wall clock changes); 0 emits
                       the plain explore record shape, without the
                       parallel-explore backend label and memory-stat fields
  --symmetry MODE      `off` (default) or `process-ids`: deduplicate
                       explored states up to process-id orbits. Verdicts are
                       identical to full exploration; explored_states counts
                       one representative per orbit, and records carry
                       orbit_states / full_states_lower_bound. Cells whose
                       automata cannot establish the symmetry fall back to
                       plain exploration (symmetry = fallback-off in the
                       record) instead of pruning unsoundly
  --reduction MODE     `off`, the only value; the key stays so that
                       existing specs and checkpoints still parse
  --goals LIST         adversary-search mode: comma list of witness goals to
                       sweep, `covering` (default) and/or `block-write`
  --target-registers T adversary-search mode: `auto` (default; the paper's
                       n + 2m - k per cell), `none` (search the whole
                       budgeted space), or an explicit register count. The
                       search stops early once a witness touches T registers;
                       falling short of a target is a rediscovery miss and
                       fails `sweep summarize`
  --search-depth N     adversary-search mode: schedule-depth budget per
                       search (default 60)
  --seeds N|LIST       plain integer = that many seeds (0..N); or `1,5,9`
  --campaign-seed S    root seed mixed into every derived seed (default 0)
  --workload SPEC      `distinct` (default), `uniform:V`, `random:UNIVERSE`
  --max-steps N        per-scenario step budget (default 2000000); the
                       threaded backend splits it across the n threads
  --shards N           serve mode: service worker threads (default 2); not
                       part of scenario identity, output is byte-identical
                       at any shard count
  --batch-max N        serve mode: batch cutoff in proposals (default 8)
  --clients N          serve mode: simulated clients (default 64)
  --rate N             serve mode: proposals per virtual tick (default 8)
  --duration N         serve mode: virtual ticks before the drain
                       (default 1000)
  --spill on|off       explore mode: spill frozen frontier levels and
                       seen-set shards to disk once the resident budget is
                       exceeded (default off). Output is byte-identical with
                       spill on or off — spilling trades wall-clock for
                       memory, never verdicts
  --max-resident-mb N  explore mode: resident-memory budget per exploration
                       in MiB (0 = unlimited, the default). Without --spill
                       the explorer truncates at the budget; with it, frozen
                       work moves to disk and the search continues

flags that are not spec keys:
  --spec FILE          load a `key = value` campaign spec, then apply flags;
                       at most one --spec per run
  --shard I/N          run only scenarios with index = I mod N (0 <= I < N);
                       indices are preserved, `sweep merge` reassembles
  --checkpoint DIR     journal each completed scenario to
                       DIR/campaign.journal (synced before it reaches the
                       sink). Rerunning with the same spec, shard and DIR
                       resumes from the last completed scenario and emits a
                       byte-identical stream; a different spec is rejected
  --threads N          worker threads (default: all CPUs)
  --out FILE           write JSONL here instead of stdout
  --progress N         progress line to stderr every N scenarios

serve options (a one-off service run: every run flag that is a spec key,
except --mode, with the same parsing, as one layer over mode = serve, n = 4,
m = 1, k = 2, seeds = 1, max-steps = 1000000; the flags must select exactly
one scenario):
  --n, --m, --k N      the cell; each batch solves (m, k)-agreement among its
                       proposers
  --max-steps N        per-batch step budget
  --workload SPEC      the value stream: `distinct` (default), `uniform:V`,
                       `random:UNIVERSE`
  --clock MODE         `virtual` (default; deterministic, 1 tick = 1 ms) or
                       `wall` (real time, no determinism claim)
  --seed S             load-generator seed (default 0)
";

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("sweep: {message}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("summarize") => cmd_summarize(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => fail(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut config = EngineConfig::default();
    let mut out_path: Option<String> = None;

    // Pair up flags first so --spec can be applied before the other flags
    // regardless of where it appears on the command line ("load spec, then
    // apply flags").
    let mut pairs: Vec<(&str, &str)> = Vec::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--help" || flag == "-h" {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        let Some(value) = iter.next() else {
            return fail(format!("{flag} needs a value"));
        };
        pairs.push((flag, value));
    }

    let mut spec = CampaignSpec::default();
    let mut spec_paths = pairs.iter().filter(|(flag, _)| *flag == "--spec");
    if let Some((_, path)) = spec_paths.next() {
        if spec_paths.next().is_some() {
            return fail("--spec given more than once; a run reads one spec file");
        }
        let loaded: Result<CampaignSpec, String> = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| CampaignSpec::parse(&text).map_err(|e| e.to_string()));
        match loaded {
            Ok(loaded) => spec = loaded,
            Err(message) => return fail(message),
        }
    }

    // Every other `--KEY VALUE` is a spec setting, applied as one layer over
    // the spec file by the same parser the file went through.
    let mut settings: Vec<(&str, &str)> = Vec::new();
    for &(flag, value) in &pairs {
        let result: Result<(), String> = match flag.strip_prefix("--") {
            Some("spec") => Ok(()), // already applied above
            Some("shard") => {
                let parsed = value.split_once('/').and_then(|(i, n)| {
                    Some((i.trim().parse::<u64>().ok()?, n.trim().parse::<u64>().ok()?))
                });
                match parsed {
                    Some((index, count)) if count > 0 && index < count => {
                        config.shard = Some((index, count));
                        Ok(())
                    }
                    _ => Err(format!("bad shard {value:?} (want I/N with 0 <= I < N)")),
                }
            }
            Some("checkpoint") => {
                config.checkpoint = Some(std::path::PathBuf::from(value));
                Ok(())
            }
            Some("threads") => value
                .parse()
                .map(|threads| config.threads = threads)
                .map_err(|_| format!("bad thread count {value:?}")),
            Some("out") => {
                out_path = Some(value.to_string());
                Ok(())
            }
            Some("progress") => value
                .parse()
                .map(|every| config.progress_every = every)
                .map_err(|_| format!("bad progress interval {value:?}")),
            Some(key) => {
                settings.push((key, value));
                Ok(())
            }
            None => Err(format!("unknown flag {flag:?}")),
        };
        if let Err(message) = result {
            return fail(message);
        }
    }
    let spec = match spec.apply(&settings) {
        Ok(spec) => spec,
        Err(e) => return fail(e),
    };

    let run_to = |sink: &mut dyn std::io::Write| run_campaign(&spec, config, sink);
    let outcome = match &out_path {
        Some(path) => {
            let file = match std::fs::File::create(path) {
                Ok(file) => file,
                Err(e) => return fail(format!("cannot create {path}: {e}")),
            };
            let mut writer = std::io::BufWriter::new(file);
            run_to(&mut writer)
        }
        None => {
            let stdout = std::io::stdout();
            let mut writer = std::io::BufWriter::new(stdout.lock());
            run_to(&mut writer)
        }
    };
    match outcome {
        Ok(outcome) => {
            eprintln!(
                "sweep: campaign {:?}: {} scenarios ({} skipped as inapplicable), \
                 {} safety violations, {} bound violations, {} progress failures",
                spec.name,
                outcome.records,
                outcome.expansion.skipped_inapplicable,
                outcome.safety_violations,
                outcome.bound_violations,
                outcome.progress_failures
            );
            if outcome.explored > 0 {
                eprintln!(
                    "sweep: {} cells explored exhaustively, {} verified, {} truncated",
                    outcome.explored,
                    outcome.exhaustively_verified,
                    outcome.unverified_explorations
                );
            }
            if outcome.parallel_explored > 0 {
                eprintln!(
                    "sweep: {} explorations ran on the work-stealing parallel explorer \
                     ({} workers each)",
                    outcome.parallel_explored, spec.explore_threads
                );
            }
            if outcome.threaded > 0 {
                eprintln!(
                    "sweep: {} scenarios ran on the threaded backend (real OS threads)",
                    outcome.threaded
                );
            }
            if outcome.served > 0 {
                eprintln!(
                    "sweep: {} scenarios ran as batched service runs ({} shards each, \
                     virtual clock)",
                    outcome.served, spec.shards
                );
            }
            if outcome.searched > 0 {
                eprintln!(
                    "sweep: {} adversary searches ran, {} found a replay-verified witness",
                    outcome.searched, outcome.witnesses_found
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("i/o error: {e}")),
    }
}

/// The settings `sweep serve` layers its flags over: one serve-mode
/// scenario of the 4/1/2 cell with a one-million-step batch budget.
const SERVE_BASE: &[(&str, &str)] = &[
    ("mode", "serve"),
    ("n", "4"),
    ("m", "1"),
    ("k", "2"),
    ("seeds", "1"),
    ("max-steps", "1000000"),
];

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut clock = ServeClock::Virtual;
    let mut seed = 0u64;
    let mut settings: Vec<(&str, &str)> = Vec::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--help" || flag == "-h" {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        let Some(value) = iter.next() else {
            return fail(format!("{flag} needs a value"));
        };
        match flag.strip_prefix("--") {
            Some("clock") => {
                clock = match value.as_str() {
                    "virtual" => ServeClock::Virtual,
                    "wall" => ServeClock::Wall,
                    other => return fail(format!("bad clock {other:?} (want virtual or wall)")),
                };
            }
            Some("seed") => match value.parse() {
                Ok(parsed) => seed = parsed,
                Err(_) => return fail(format!("bad seed {value:?}")),
            },
            Some("mode") => return fail("serve always runs mode = serve; drop --mode"),
            Some(key) => settings.push((key, value)),
            None => return fail(format!("unknown flag {flag:?}")),
        }
    }
    // The campaign flags go through the same parser as `sweep run`'s, as
    // one layer over the serve defaults.
    let spec = match CampaignSpec::default()
        .apply(SERVE_BASE)
        .and_then(|base| base.apply(&settings))
    {
        Ok(spec) => spec,
        Err(e) => return fail(e),
    };
    let (scenarios, _) = expand(&spec);
    let [scenario] = scenarios.as_slice() else {
        return fail(format!(
            "serve runs one scenario, but these flags select {} (set one valid n/m/k cell \
             and one seed)",
            scenarios.len()
        ));
    };
    let options = scenario.serve_options(clock, seed);
    let report = ExecutionPlan::new(scenario.params)
        .algorithm(scenario.algorithm)
        .max_steps(scenario.max_steps)
        .execute(Backend::Serve(options))
        .expect_served();

    let (p50, p90, p99, p999) = report.histogram.summary();
    println!(
        "serve: n={} m={} k={}, {} shards, batch-max {}, {} clients at {}/tick for {} ticks \
         ({} clock)",
        scenario.params.n(),
        scenario.params.m(),
        scenario.params.k(),
        report.shards,
        options.batch_max,
        options.clients,
        options.rate,
        options.duration_ticks,
        report.clock.label()
    );
    println!(
        "serve: {} proposals in {} batches, {} validity violations, {} agreement violations, \
         {} unfinished, max {} distinct outputs per batch, {}",
        report.proposals,
        report.batches,
        report.validity_violations,
        report.agreement_violations,
        report.unfinished,
        report.distinct_outputs_max,
        if report.drained {
            "drained"
        } else {
            "NOT DRAINED"
        }
    );
    println!(
        "latency: p50 {p50} us, p90 {p90} us, p99 {p99} us, p999 {p999} us \
         (min {} us, max {} us, mean {:.1} us)",
        report.histogram.min(),
        report.histogram.max(),
        report.histogram.mean()
    );
    println!(
        "throughput: {} ops/s, {} steps/s ({} steps over {} us)",
        report.ops_per_sec(),
        report.steps_per_sec(),
        report.steps,
        report.duration_us
    );
    println!(
        "decided fingerprint: {:#018x}",
        report.decided_fingerprint()
    );

    if report.safety_violations() == 0 && report.drained && report.unfinished == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_merge(args: &[String]) -> ExitCode {
    let mut out_path: Option<String> = None;
    let mut shard_paths: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--out" => match iter.next() {
                Some(path) => out_path = Some(path.clone()),
                None => return fail("--out needs a value"),
            },
            flag if flag.starts_with("--") => {
                return fail(format!("unknown flag {flag:?}\n{USAGE}"))
            }
            _ => shard_paths.push(arg),
        }
    }
    if shard_paths.is_empty() {
        return fail(format!("merge needs at least one shard file\n{USAGE}"));
    }
    let mut shards = Vec::with_capacity(shard_paths.len());
    for path in &shard_paths {
        match load_records(path) {
            Ok(records) => shards.push(records),
            Err(message) => return fail(message),
        }
    }
    let merged = match merge_shards(&shards) {
        Ok(merged) => merged,
        Err(e) => return fail(format!("cannot merge: {e}")),
    };
    let write_to = |sink: &mut dyn std::io::Write| -> std::io::Result<()> {
        for record in &merged {
            writeln!(sink, "{}", record.to_json())?;
        }
        sink.flush()
    };
    let result = match &out_path {
        Some(path) => {
            let file = match std::fs::File::create(path) {
                Ok(file) => file,
                Err(e) => return fail(format!("cannot create {path}: {e}")),
            };
            write_to(&mut std::io::BufWriter::new(file))
        }
        None => {
            let stdout = std::io::stdout();
            write_to(&mut std::io::BufWriter::new(stdout.lock()))
        }
    };
    match result {
        Ok(()) => {
            eprintln!(
                "sweep: merged {} records from {} shards",
                merged.len(),
                shard_paths.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("i/o error: {e}")),
    }
}

fn load_records(path: &str) -> Result<Vec<sa_sweep::SweepRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_summarize(args: &[String]) -> ExitCode {
    let [path] = args else {
        return fail(format!("summarize takes exactly one file\n{USAGE}"));
    };
    let records = match load_records(path) {
        Ok(records) => records,
        Err(message) => return fail(message),
    };
    let summary = Summary::of(&records);
    print!("{}", summary.render());
    // The CI gate: safety and bound violations always fail; an explore
    // campaign additionally fails if any cell could not be exhausted
    // (claiming "exhaustively verified" after a truncated search would be
    // wrong); an adversary-search campaign fails if any search missed its
    // register target (the machine failed to rediscover the paper's bound).
    if summary.clean() && summary.exhaustiveness_gaps() == 0 && summary.rediscovery_misses() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Replays every adversary-search witness in a result file through the
/// shared replay verifier, independently of the `verified` flag the engine
/// wrote. The record carries everything needed to rebuild the run — cell,
/// algorithm, workload label, goal, schedule — except the covering pairs,
/// so the replayed certificate is compared through its fingerprint (which
/// hashes the covering label along with every count).
fn cmd_verify(args: &[String]) -> ExitCode {
    let [path] = args else {
        return fail(format!("verify takes exactly one file\n{USAGE}"));
    };
    let records = match load_records(path) {
        Ok(records) => records,
        Err(message) => return fail(message),
    };
    let (mut replayed, mut failures, mut skipped) = (0u64, 0u64, 0u64);
    for record in &records {
        if record.mode != "adversary-search" || !record.witness_found {
            continue;
        }
        let describe = |what: &str| {
            format!(
                "scenario {} ({} {}): {what}",
                record.scenario,
                record.key(),
                record.goal
            )
        };
        let Some(goal) = SearchGoal::parse(&record.goal) else {
            return fail(describe(&format!("unknown goal {:?}", record.goal)));
        };
        let Some(schedule) = Witness::parse_schedule(&record.witness_schedule) else {
            return fail(describe(&format!(
                "unparseable schedule {:?}",
                record.witness_schedule
            )));
        };
        let params = match sa_model::Params::new(record.n, record.m, record.k) {
            Ok(params) => params,
            Err(e) => return fail(describe(&format!("invalid cell: {e}"))),
        };
        let Some(algorithm) = Algorithm::from_label(&record.algorithm, record.instances.max(1))
        else {
            return fail(describe(&format!(
                "unknown algorithm {:?}",
                record.algorithm
            )));
        };
        let workload = match WorkloadSpec::parse(&record.workload) {
            Ok(WorkloadSpec::Distinct) => Workload::all_distinct(params.n(), algorithm.instances()),
            Ok(WorkloadSpec::Uniform(value)) => {
                Workload::uniform(params.n(), algorithm.instances(), value)
            }
            // A random workload's inputs depend on a derived seed the
            // record does not carry — the witness cannot be replayed from
            // the file alone. Skip loudly rather than verify the wrong run.
            Ok(WorkloadSpec::Random { .. }) => {
                eprintln!(
                    "sweep: {}",
                    describe("random workload is not replayable from the record; skipped")
                );
                skipped += 1;
                continue;
            }
            Err(e) => return fail(describe(&format!("bad workload: {e}"))),
        };
        let witness = Witness {
            goal,
            schedule,
            certificate: Certificate {
                goal,
                depth: record.witness_depth,
                covering: Vec::new(), // not in the record; checked via the fingerprint
                registers_covered: record.registers_covered,
                registers_written: record.registers_written,
                registers: record.witness_registers,
                fingerprint: record.witness_fingerprint,
            },
        };
        let plan = ExecutionPlan::new(params)
            .algorithm(algorithm)
            .workload(workload);
        let found = match verify_witness(&plan, &witness) {
            Ok(found) => found,
            // The claimed certificate's covering list is empty by
            // construction, so a mismatch that agrees on the fingerprint is
            // still a successful replay — the fingerprint hashes the real
            // covering label.
            Err(VerifyError::CertificateMismatch { found, .. }) => *found,
            Err(e) => {
                eprintln!("sweep: FAILED {}", describe(&e.to_string()));
                failures += 1;
                continue;
            }
        };
        if found.fingerprint != record.witness_fingerprint
            || found.registers != record.witness_registers
            || found.registers_covered != record.registers_covered
            || found.depth != record.witness_depth
        {
            eprintln!(
                "sweep: FAILED {}",
                describe(&format!(
                    "replay measured [{found}], record claims fingerprint {:016x} with {} \
                     registers",
                    record.witness_fingerprint, record.witness_registers
                ))
            );
            failures += 1;
            continue;
        }
        replayed += 1;
    }
    println!(
        "verify: {replayed} witnesses replay-verified, {failures} failed, {skipped} skipped \
         ({} records)",
        records.len()
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Scans `.rs` files under each root for determinism hazards. The walk is
/// itself deterministic (directory entries sorted by name) so the finding
/// order — and therefore the CI log — is stable across machines.
fn cmd_lint(args: &[String]) -> ExitCode {
    let mut allow_path: Option<String> = None;
    let mut roots: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--allow" => match iter.next() {
                Some(path) => allow_path = Some(path.clone()),
                None => return fail("--allow needs a value"),
            },
            flag if flag.starts_with("--") => {
                return fail(format!("unknown flag {flag:?}\n{USAGE}"))
            }
            _ => roots.push(arg),
        }
    }
    if roots.is_empty() {
        return fail(format!("lint needs at least one root directory\n{USAGE}"));
    }
    let allow = match &allow_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => return fail(format!("cannot read {path}: {e}")),
            };
            match parse_allowlist(&text) {
                Ok(allow) => allow,
                Err(message) => return fail(format!("{path}: {message}")),
            }
        }
        None => Vec::new(),
    };
    let mut sources = Vec::new();
    for root in &roots {
        if let Err(message) = collect_rust_sources(std::path::Path::new(root), &mut sources) {
            return fail(message);
        }
    }
    let (mut findings, mut suppressed, mut scanned) = (Vec::new(), vec![0u64; allow.len()], 0u64);
    for path in &sources {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => return fail(format!("cannot read {}: {e}", path.display())),
        };
        let label = path.to_string_lossy();
        let (file_findings, file_suppressed) = lint_source(&label, &text, &allow);
        findings.extend(file_findings);
        for (total, count) in suppressed.iter_mut().zip(file_suppressed) {
            *total += count;
        }
        scanned += 1;
    }
    for finding in &findings {
        println!("{finding}");
    }
    let stale = stale_entries(&allow, &suppressed);
    for entry in &stale {
        println!("stale allowlist entry `{entry}`: it suppresses nothing");
    }
    println!(
        "lint: {} files scanned, {} findings, {} suppressed by allowlist, {} stale entries",
        scanned,
        findings.len(),
        suppressed.iter().sum::<u64>(),
        stale.len()
    );
    if findings.is_empty() && stale.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Collects every `.rs` file under `root`, depth-first with entries sorted
/// by name, skipping `target` build directories.
fn collect_rust_sources(
    root: &std::path::Path,
    out: &mut Vec<std::path::PathBuf>,
) -> Result<(), String> {
    let describe = |e: std::io::Error| format!("cannot walk {}: {e}", root.display());
    if root.is_file() {
        if root.extension().is_some_and(|ext| ext == "rs") {
            out.push(root.to_path_buf());
        }
        return Ok(());
    }
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(root)
        .map_err(describe)?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(describe)?;
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            if entry.file_name().is_some_and(|name| name == "target") {
                continue;
            }
            collect_rust_sources(&entry, out)?;
        } else if entry.extension().is_some_and(|ext| ext == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let [old_path, new_path] = args else {
        return fail(format!("diff takes exactly two files\n{USAGE}"));
    };
    let (old, new) = match (load_records(old_path), load_records(new_path)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(message), _) | (_, Err(message)) => return fail(message),
    };
    let report = diff(&old, &new);
    print!("{}", report.render());
    if report.has_regressions() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
