//! The threaded backend, driven through the unified execution API and
//! through sweep campaigns — plus the regression tests proving that running
//! plans through `ExecutionPlan::execute` changed no scheduled or explore
//! output.
//!
//! Threaded runs are linearized by the hardware, so these tests assert
//! *safety counters* (validity, k-agreement, space bounds) and never step
//! traces; with a fixed [`ThreadedConfig::seed`] the inputs and thread
//! spawn order are pinned, making each scenario reproducible up to
//! interleaving.

use sa_sweep::{run_campaign, run_campaign_collect, CampaignSpec, EngineConfig};
use set_agreement::model::Params;
use set_agreement::prelude::*;
use std::time::Duration;

fn threaded(budget: u64) -> Backend {
    Backend::Threaded(ThreadedConfig::with_step_budget(budget))
}

#[test]
fn threaded_one_shot_runs_are_safe() {
    let plan = ExecutionPlan::new(Params::new(6, 2, 3).unwrap()).algorithm(Algorithm::OneShot);
    let report = plan.execute(threaded(200_000)).expect_threaded();
    assert!(report.safety.is_safe());
    assert!(report.locations_written > 0);
}

#[test]
fn threaded_repeated_runs_are_safe_per_instance() {
    let plan = ExecutionPlan::new(Params::new(4, 2, 2).unwrap()).algorithm(Algorithm::Repeated(2));
    let report = plan.execute(threaded(300_000)).expect_threaded();
    assert!(report.safety.is_safe());
    assert!(report.run.decisions.instances().count() <= 2);
    // Decision arrival order respects instance order per process — the one
    // ordering invariant a hardware-linearized run must still satisfy.
    for p in 0..4 {
        let instances: Vec<u64> = report
            .run
            .arrival_order
            .iter()
            .filter(|(pid, _)| pid.index() == p)
            .map(|(_, d)| d.instance)
            .collect();
        let mut sorted = instances.clone();
        sorted.sort_unstable();
        assert_eq!(instances, sorted, "out-of-order decisions for process {p}");
    }
}

#[test]
fn threaded_anonymous_runs_are_safe() {
    let plan =
        ExecutionPlan::new(Params::new(5, 2, 3).unwrap()).algorithm(Algorithm::AnonymousOneShot);
    let report = plan.execute(threaded(200_000)).expect_threaded();
    assert!(report.safety.is_safe());
}

#[test]
fn threaded_metrics_respect_the_layout() {
    let params = Params::new(4, 1, 2).unwrap();
    let plan = ExecutionPlan::new(params).algorithm(Algorithm::OneShot);
    let report = plan.execute(threaded(100_000)).expect_threaded();
    assert!(
        report.locations_written <= Algorithm::OneShot.component_bound(params),
        "threaded run wrote more locations than the algorithm declares"
    );
    assert!(report.run.metrics.total_ops() > 0);
    assert!(report.run.wall > Duration::ZERO);
}

/// A `backend = threaded` smoke campaign end-to-end through the sweep
/// engine: every record must be safe and within its space bound, with
/// wall-clock throughput recorded.
#[test]
fn threaded_smoke_campaign_reports_zero_safety_violations() {
    let spec = CampaignSpec::parse(
        "name = threaded-test\n\
         n = 4,5\n\
         m = 1,2\n\
         k = 2\n\
         algorithms = oneshot:1, anon-oneshot:1\n\
         backend = threaded\n\
         seeds = 2\n\
         workload = distinct\n\
         max-steps = 200000\n\
         campaign-seed = 7\n",
    )
    .unwrap();
    let (records, outcome) = run_campaign_collect(&spec, EngineConfig::default());
    assert!(outcome.clean(), "threaded campaign not clean: {outcome:?}");
    assert_eq!(outcome.safety_violations, 0);
    assert_eq!(outcome.threaded, records.len() as u64);
    assert!(!records.is_empty());
    for record in &records {
        assert_eq!(record.backend, "threaded");
        assert_eq!(record.adversary, "hardware");
        assert!(record.safe());
        assert!(record.bound_ok);
        assert!(record.steps > 0);
    }
}

const GOLDEN_SCHEDULED_SPEC: &str = "\
name = golden-scheduled
n = 4,5
m = 1,2
k = 2
algorithms = oneshot:1, anon-oneshot:1, fullinfo:1
adversaries = obstruction:30, crash:round-robin:1
seeds = 2
workload = distinct
max-steps = 300000
campaign-seed = 42
";

const GOLDEN_EXPLORE_SPEC: &str = "\
name = golden-explore
mode = explore
params = 2/1/1
algorithms = oneshot:1, anon-oneshot:1
workload = distinct
max-steps = 100000
max-states = 1000000
campaign-seed = 42
";

fn campaign_bytes(spec_text: &str, threads: usize) -> Vec<u8> {
    let spec = CampaignSpec::parse(spec_text).expect("golden spec parses");
    let mut bytes = Vec::new();
    run_campaign(
        &spec,
        EngineConfig {
            threads,
            ..EngineConfig::default()
        },
        &mut bytes,
    )
    .expect("in-memory sink cannot fail");
    bytes
}

/// The seed JSONL in `tests/golden/` was generated by an engine that
/// predates the unified execution API. Re-running the same campaign through
/// [`ExecutionPlan::execute`] must reproduce it **byte for byte**, at any
/// thread count — every redesign since has been a pure refactor of the
/// scheduled execution path.
#[test]
fn scheduled_campaigns_are_byte_identical_to_the_pre_redesign_seed() {
    let golden = include_bytes!("golden/scheduled-seed.jsonl");
    assert_eq!(
        campaign_bytes(GOLDEN_SCHEDULED_SPEC, 1),
        golden,
        "single-threaded run diverged from the pre-redesign output"
    );
    assert_eq!(
        campaign_bytes(GOLDEN_SCHEDULED_SPEC, 4),
        golden,
        "parallel run diverged from the pre-redesign output"
    );
}

/// Explore output gained exactly one field in this redesign
/// (`explored_depth`); everything the pre-redesign engine emitted must be
/// unchanged. Parsing the old seed file defaults the new field to 0, so
/// comparing with depth zeroed proves every pre-existing field identical.
#[test]
fn explore_campaigns_match_the_pre_redesign_seed_modulo_the_depth_field() {
    let golden = sa_sweep::parse_jsonl(include_str!("golden/explore-seed.jsonl"))
        .expect("golden explore seed parses");
    let bytes = campaign_bytes(GOLDEN_EXPLORE_SPEC, 2);
    let current = sa_sweep::parse_jsonl(std::str::from_utf8(&bytes).unwrap()).unwrap();
    assert_eq!(current.len(), golden.len());
    for (new, old) in current.iter().zip(&golden) {
        assert!(new.explored_depth > 0, "depth must now be recorded");
        let mut stripped = new.clone();
        stripped.explored_depth = 0;
        assert_eq!(
            &stripped, old,
            "explore output drifted beyond the new field"
        );
    }
}
