//! Worker of the repository benchmark. `perfbench/run.py` drives it: every
//! invocation runs in a fresh process, does one thing and prints one JSON
//! object as its last line of standard output.
//!
//! ```text
//! perfbench setup  WORKLOAD SEED   set-up time over a burst of repeated set-ups
//! perfbench job    WORKLOAD SEED   one untraced end-to-end job
//! perfbench engine WORKLOAD SEED   the engine run directly, timers off (engine counts)
//! perfbench traced WORKLOAD SEED   the same engine run with its timed spans on
//! perfbench layers WORKLOAD SEED   per-layer microbenchmarks
//! perfbench calibrate              the calibration kernel (no workspace code)
//! ```
//!
//! The explore workloads drive `sa_sweep::run_campaign`; the service
//! workload drives `sa_serve::serve`. Workloads are described in
//! `perfbench/README.md`.

mod calibrate;
mod layers;
mod stats;

use sa_core::{AgreementInstance, AnonymousSetAgreement, RepeatedSetAgreement};
use sa_runtime::{
    agreement_predicate, parallel_explore, Executor, ParallelExploreConfig, ServeClock,
    ServeOptions, SymmetryMode, SymmetryPlan,
};
use sa_serve::{serve, LoadGenerator, Proposal, ServeConfig};
use sa_sweep::{derive_seed, expand, run_campaign, CampaignSpec, EngineConfig, ScenarioSpec};
use stats::{Json, Metrics};
use std::time::Instant;

/// The explore cell: the anonymous Figure 5 one-shot algorithm on n/m/k =
/// 3/1/2 with distinct inputs, 21,137 orbit states under process-id
/// symmetry.
const EXPLORE_CELL: &str = "3/1/2";
/// Service ticks per job; each tick is one batch of 16 proposals.
const SERVE_TICKS: u64 = 20_000;
/// Service ticks the layer suite replays.
const LAYER_TICKS: u64 = 4_000;
/// The resident cap that makes `bfs-spill` spill frontier levels and
/// seen-set shards.
const SPILL_CAP_MB: u64 = 1;
/// How long one `setup` process repeats the set-up.
const SETUP_BURST_S: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    BfsSym,
    BfsSpill,
    Serve,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "bfs-sym" => Some(Workload::BfsSym),
            "bfs-spill" => Some(Workload::BfsSpill),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    /// The campaign this workload runs. Explore campaigns share one name
    /// so their records are comparable byte for byte.
    fn spec_text(self, seed: u64) -> String {
        let engine = match self {
            Workload::BfsSym => "explore-threads = 1\n".to_string(),
            Workload::BfsSpill => {
                format!("explore-threads = 1\nspill = on\nmax-resident-mb = {SPILL_CAP_MB}\n")
            }
            Workload::Serve => {
                return format!(
                    "name = perfbench-serve\nmode = serve\nparams = 16/2/3\nseeds = 1\n\
                     workload = random:4294967296\nmax-steps = 1000000\ncampaign-seed = {seed}\n\
                     shards = 1\nbatch-max = 16\nclients = 64\nrate = 16\n\
                     duration = {SERVE_TICKS}\n"
                )
            }
        };
        format!(
            "name = perfbench-explore\nmode = explore\nparams = {EXPLORE_CELL}\n\
             algorithms = anon-oneshot:1\nworkload = distinct\nmax-steps = 100000\n\
             max-states = 3000000\nsymmetry = process-ids\ncampaign-seed = {seed}\n{engine}"
        )
    }
}

/// Everything a job needs before its first step. It is moved once per
/// set-up, so the size gap between the variants is noise next to it.
#[allow(clippy::large_enum_variant)]
enum Prepared {
    Explore {
        spec: CampaignSpec,
        scenario: ScenarioSpec,
        initial: Executor<AnonymousSetAgreement>,
        plan: SymmetryPlan,
    },
    Serve {
        config: ServeConfig,
        /// The first batch's automata.
        automata: Vec<RepeatedSetAgreement>,
    },
}

/// Set-up: spec parse, grid expansion, the initial executor and the
/// symmetry plan (for the service: its config and first batch instance).
fn prepare(workload: Workload, seed: u64) -> Prepared {
    let spec = CampaignSpec::parse(&workload.spec_text(seed)).expect("the benchmark's spec parses");
    let (mut scenarios, _) = expand(&spec);
    assert_eq!(scenarios.len(), 1, "each workload is one scenario");
    let scenario = scenarios.remove(0);
    if workload == Workload::Serve {
        let config = serve_config(&scenario);
        let options = config.options;
        let proposals: Vec<Proposal> =
            LoadGenerator::new(options.clients, options.rate, options.load, options.seed)
                .tick()
                .into_iter()
                .map(|(client, value)| Proposal {
                    client,
                    value,
                    arrival: 0,
                })
                .collect();
        let automata = layers::batch_automata(&proposals, config.m, config.k);
        // The first batch's instance is the service's initial executor.
        std::hint::black_box(AgreementInstance::new(automata.clone()));
        return Prepared::Serve { config, automata };
    }
    let params = scenario.params;
    let initial = Executor::new(
        (0..params.n())
            .map(|p| AnonymousSetAgreement::one_shot(params, scenario.workload.input(p, 1)))
            .collect(),
    );
    let plan = SymmetryPlan::for_executor(&initial, scenario.symmetry);
    Prepared::Explore {
        spec,
        scenario,
        initial,
        plan,
    }
}

/// The service config `sweep` builds for a serve scenario.
fn serve_config(scenario: &ScenarioSpec) -> ServeConfig {
    ServeConfig {
        m: scenario.params.m(),
        k: scenario.params.k(),
        options: ServeOptions {
            shards: scenario.shards,
            batch_max: scenario.batch_max,
            clients: scenario.clients,
            rate: scenario.rate,
            duration_ticks: scenario.duration,
            clock: ServeClock::Virtual,
            load: scenario.serve_load,
            seed: derive_seed(scenario.derived_seed, "serve-load"),
        },
        max_steps_per_batch: scenario.max_steps,
    }
}

/// Repeats the set-up for `SETUP_BURST_S` and reports its 10th percentile.
/// A set-up takes microseconds, so on a shared machine a neighbour's burst
/// can slow a whole stretch of them; the low decile is the cost of the
/// set-up itself.
fn setup(workload: Workload, seed: u64) -> Json {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 10 || start.elapsed().as_secs_f64() < SETUP_BURST_S {
        let begin = Instant::now();
        std::hint::black_box(prepare(workload, seed));
        times.push(begin.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    let mut out = Json::default();
    out.num("setup_s", times[times.len() / 10]);
    out
}

/// One end-to-end job, checked by the caller from what it prints.
fn job(workload: Workload, seed: u64) -> Json {
    let mut out = Json::default();
    match prepare(workload, seed) {
        Prepared::Explore { spec, .. } => {
            let mut sink = Vec::new();
            let outcome = run_campaign(
                &spec,
                EngineConfig {
                    threads: 1,
                    ..EngineConfig::default()
                },
                &mut sink,
            )
            .expect("an in-memory sink cannot fail");
            out.int("records", outcome.records)
                .int("verified", outcome.exhaustively_verified)
                .int("unverified", outcome.unverified_explorations)
                .int("safety_violations", outcome.safety_violations)
                .str(
                    "record",
                    &String::from_utf8(sink).expect("records are UTF-8 JSON"),
                );
        }
        Prepared::Serve { config, .. } => {
            let report = serve(&config);
            let options = config.options;
            out.int("proposals", report.proposals)
                .int("expected_proposals", options.rate * options.duration_ticks)
                .int("validity_violations", report.validity_violations)
                .int("agreement_violations", report.agreement_violations)
                .int("unfinished", report.unfinished)
                .int("answered", report.decided.len() as u64)
                .bool("drained", report.drained)
                .str(
                    "fingerprint",
                    &format!("{:016x}", report.decided_fingerprint()),
                );
        }
    }
    out
}

/// The workload's engine run directly, with its timed spans off
/// (`traced = false`, the reference for the tracing overhead) or on. The
/// service is replayed single-threaded with spans around each of its parts.
/// Explore workloads run `parallel_explore` with the bare agreement
/// predicate either way: the predicate is the engine's only hook, and a
/// span around one call would cost more than the call (an `Instant` pair
/// takes about as long as the predicate's median call), so their trace is
/// the engine's own report and the predicate is timed in batches by the
/// layer suite instead.
fn engine(workload: Workload, seed: u64, traced: bool) -> Json {
    let mut out = Json::default();
    let mut metrics = Metrics::default();
    match prepare(workload, seed) {
        Prepared::Explore {
            scenario, initial, ..
        } => {
            let predicate = agreement_predicate::<AnonymousSetAgreement>(scenario.params.k());
            let start = Instant::now();
            let result = parallel_explore(
                &initial,
                ParallelExploreConfig {
                    threads: scenario.explore_threads,
                    max_depth: scenario.max_steps,
                    max_states: scenario.max_states,
                    symmetry: scenario.symmetry,
                    reduction: scenario.reduction,
                    spill: scenario.spill,
                    max_resident_bytes: scenario.max_resident_mb * 1024 * 1024,
                },
                predicate,
            );
            out.num("wall_s", start.elapsed().as_secs_f64())
                .bool("verified", result.verified());
            for (name, value, unit) in [
                ("engine.states", result.states_visited, "count"),
                ("engine.expansions", result.expansions, "count"),
                ("engine.max_depth", result.max_depth_reached, "steps"),
                ("engine.frontier_peak", result.frontier_peak, "count"),
                ("engine.spilled_entries", result.spilled_entries, "count"),
            ] {
                metrics.value(name, value as f64, unit);
            }
            metrics.value("engine.approx_mb", result.approx_bytes as f64 / 1e6, "MB");
        }
        Prepared::Serve { config, .. } => {
            let mut spans = if traced {
                layers::ServeSpans::default()
            } else {
                layers::ServeSpans::off()
            };
            let start = Instant::now();
            let replay = layers::replay(&config, config.options.duration_ticks, &mut spans);
            out.num("wall_s", start.elapsed().as_secs_f64())
                .int("proposals", replay.proposals)
                .int("validity_violations", replay.validity_violations)
                .int("agreement_violations", replay.agreement_violations)
                .int("unfinished", replay.unfinished)
                .str("fingerprint", &format!("{:016x}", replay.fingerprint));
            metrics.value("serve.steps", replay.steps as f64, "count");
            metrics.value("serve.batches", replay.batches as f64, "count");
            if traced {
                spans.report(&mut metrics);
            }
        }
    }
    out.raw("metrics", metrics.render());
    out
}

/// The per-layer microbenchmarks: the explore layers over a corpus of the
/// workload's own cell, and the service layers over a replay of the
/// service's load for the same seed.
fn layer_suite(workload: Workload, seed: u64) -> Json {
    let mut metrics = Metrics::default();
    match prepare(workload, seed) {
        Prepared::Explore {
            scenario,
            initial,
            plan,
            ..
        } => layers::explore_layers(&initial, &plan, scenario.params.k(), seed, 60, &mut metrics),
        Prepared::Serve {
            config, automata, ..
        } => {
            // The service's own cell: one 16-process Figure 4 batch.
            let initial = Executor::new(automata);
            let plan = SymmetryPlan::for_executor(&initial, SymmetryMode::ProcessIds);
            layers::explore_layers(&initial, &plan, config.k, seed, 400, &mut metrics);
        }
    }
    let Prepared::Serve { config, .. } = prepare(Workload::Serve, seed) else {
        unreachable!("the serve workload prepares a service");
    };
    layers::serve_layers(&config, LAYER_TICKS, &mut metrics);
    let mut out = Json::default();
    out.raw("metrics", metrics.render());
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() == 1 && args[0] == "calibrate" {
        println!("{}", calibrate::calibrate().render());
        return;
    }
    let usage = "usage: perfbench setup|job|engine|traced|layers WORKLOAD SEED | perfbench calibrate";
    let (Some(mode), Some(workload), Some(seed)) = (args.first(), args.get(1), args.get(2)) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let Some(workload) = Workload::parse(workload) else {
        eprintln!("unknown workload {workload:?}\n{usage}");
        std::process::exit(2);
    };
    let Ok(seed) = seed.parse::<u64>() else {
        eprintln!("bad seed {seed:?}\n{usage}");
        std::process::exit(2);
    };
    let out = match mode.as_str() {
        "setup" => setup(workload, seed),
        "job" => job(workload, seed),
        "engine" => engine(workload, seed, false),
        "traced" => engine(workload, seed, true),
        "layers" => layer_suite(workload, seed),
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    println!("{}", out.render());
}
