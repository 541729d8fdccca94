//! Integration tests for the m-obstruction-freedom progress condition: every
//! process that keeps taking steps must finish all its `Propose` operations
//! whenever at most `m` processes keep taking steps.

use set_agreement::model::{Params, ProcessId};
use set_agreement::runtime::{check_obstruction_termination, Workload};
use set_agreement::{Adversary, Algorithm, Backend, ExecutionPlan};

#[test]
fn survivors_up_to_m_always_decide_one_shot() {
    for (n, m, k) in [(4, 1, 2), (5, 2, 3), (6, 2, 2), (6, 3, 3), (7, 3, 5)] {
        let params = Params::new(n, m, k).unwrap();
        for survivors in 1..=m {
            let report = ExecutionPlan::new(params)
                .algorithm(Algorithm::OneShot)
                .adversary(Adversary::Obstruction {
                    contention_steps: 40 * n as u64,
                    survivors,
                    seed: 1000 + survivors as u64,
                })
                .max_steps(3_000_000)
                .execute(Backend::Scheduled)
                .expect_scheduled();
            assert!(
                report.survivors_decided,
                "one-shot: {survivors} survivors did not decide for n={n} m={m} k={k}"
            );
            assert!(report.safety.is_safe());
        }
    }
}

#[test]
fn survivors_up_to_m_always_decide_repeated() {
    for (n, m, k) in [(4, 1, 2), (5, 2, 3), (6, 2, 4)] {
        let params = Params::new(n, m, k).unwrap();
        let report = ExecutionPlan::new(params)
            .algorithm(Algorithm::Repeated(3))
            .adversary(Adversary::Obstruction {
                contention_steps: 60 * n as u64,
                survivors: m,
                seed: 77,
            })
            .max_steps(5_000_000)
            .execute(Backend::Scheduled)
            .expect_scheduled();
        assert!(
            report.survivors_decided,
            "repeated: survivors did not complete every instance for n={n} m={m} k={k}"
        );
        assert!(report.safety.is_safe());
        // Survivors completed all three instances, so decisions exist for each.
        for t in 1..=3 {
            assert!(
                report.decisions.deciders(t) >= 1,
                "no decision recorded for instance {t}"
            );
        }
    }
}

#[test]
fn survivors_up_to_m_always_decide_anonymous() {
    for (n, m, k) in [(4, 1, 2), (5, 2, 3), (6, 2, 3)] {
        let params = Params::new(n, m, k).unwrap();
        for algorithm in [Algorithm::AnonymousOneShot, Algorithm::AnonymousRepeated(2)] {
            let report = ExecutionPlan::new(params)
                .algorithm(algorithm)
                .adversary(Adversary::Obstruction {
                    contention_steps: 60 * n as u64,
                    survivors: m,
                    seed: 31,
                })
                .max_steps(8_000_000)
                .execute(Backend::Scheduled)
                .expect_scheduled();
            assert!(
                report.survivors_decided,
                "{algorithm:?}: survivors starved for n={n} m={m} k={k}"
            );
            assert!(report.safety.is_safe());
        }
    }
}

#[test]
fn baselines_terminate_under_obstruction() {
    let params = Params::new(8, 1, 3).unwrap();
    for algorithm in [Algorithm::WideBaseline, Algorithm::FullInformation] {
        let report = ExecutionPlan::new(params)
            .algorithm(algorithm)
            .adversary(Adversary::Obstruction {
                contention_steps: 200,
                survivors: 1,
                seed: 4,
            })
            .max_steps(5_000_000)
            .execute(Backend::Scheduled)
            .expect_scheduled();
        assert!(report.survivors_decided, "{algorithm:?} starved");
        assert!(report.safety.is_safe());
    }
}

#[test]
fn solo_runs_decide_quickly_for_every_process() {
    let params = Params::new(5, 1, 2).unwrap();
    for p in 0..5 {
        let report = ExecutionPlan::new(params)
            .algorithm(Algorithm::OneShot)
            .adversary(Adversary::Solo { process: p })
            .max_steps(100_000)
            .execute(Backend::Scheduled)
            .expect_scheduled();
        assert!(report.survivors_decided, "solo process {p} did not decide");
        // A solo process must decide its own input (no other value is ever
        // visible).
        let decided = report
            .decisions
            .decision_of(ProcessId(p), 1)
            .expect("solo process decided");
        assert_eq!(decided, 1000 + p as u64);
        // A solo run of Figure 3 needs about r updates + r scans to fill the
        // object; allow generous slack but require it is not pathological.
        assert!(
            report.steps < 20 * (params.snapshot_components() as u64 + 2),
            "solo decision took {} steps",
            report.steps
        );
    }
}

#[test]
fn termination_checker_flags_starved_survivors() {
    // With more survivors than m, the progress condition no longer applies;
    // construct such a run and check the checker reports the starved ones
    // when asked about them (and nothing when asked about the empty set).
    let params = Params::new(4, 1, 1).unwrap();
    let report = ExecutionPlan::new(params)
        .algorithm(Algorithm::OneShot)
        .adversary(Adversary::RoundRobin)
        .max_steps(2_000)
        .execute(Backend::Scheduled)
        .expect_scheduled();
    let halted: Vec<bool> = (0..4)
        .map(|p| report.decisions.decision_of(ProcessId(p), 1).is_some())
        .collect();
    assert!(check_obstruction_termination(&[], &halted, 2_000).is_ok());
    if halted.iter().any(|h| !h) {
        let all: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        assert!(check_obstruction_termination(&all, &halted, 2_000).is_err());
    }
}

#[test]
fn repeated_runs_make_progress_proportional_to_instances() {
    // More instances means more steps, but never fewer decisions.
    let params = Params::new(5, 1, 2).unwrap();
    let mut last_steps = 0;
    for instances in [1usize, 2, 4] {
        let report = ExecutionPlan::new(params)
            .algorithm(Algorithm::Repeated(instances))
            .workload(Workload::all_distinct(5, instances))
            .adversary(Adversary::Solo { process: 0 })
            .max_steps(5_000_000)
            .execute(Backend::Scheduled)
            .expect_scheduled();
        assert!(report.survivors_decided);
        assert_eq!(report.decisions.instances().count(), instances);
        assert!(
            report.steps >= last_steps,
            "steps decreased when instances increased"
        );
        last_steps = report.steps;
    }
}
