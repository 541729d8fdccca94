//! Integration tests: safety (validity + k-agreement) must hold for every
//! algorithm under every adversary, including schedules under which
//! termination is not guaranteed.

use set_agreement::model::Params;
use set_agreement::{Adversary, Algorithm, Backend, ExecutionPlan};

fn algorithms_for(params: Params) -> Vec<Algorithm> {
    let mut algorithms = vec![
        Algorithm::OneShot,
        Algorithm::Repeated(2),
        Algorithm::AnonymousOneShot,
        Algorithm::AnonymousRepeated(2),
        Algorithm::FullInformation,
    ];
    if params.m() == 1 && 2 * (params.n() - params.k()) >= params.snapshot_components() {
        algorithms.push(Algorithm::WideBaseline);
    }
    algorithms
}

fn adversaries() -> Vec<Adversary> {
    vec![
        Adversary::RoundRobin,
        Adversary::Random { seed: 3 },
        Adversary::Random { seed: 99 },
        Adversary::Bursts {
            burst_len: 7,
            seed: 5,
        },
        Adversary::Solo { process: 1 },
        Adversary::Obstruction {
            contention_steps: 150,
            survivors: 1,
            seed: 11,
        },
    ]
}

#[test]
fn safety_holds_for_every_algorithm_and_adversary() {
    for (n, m, k) in [(4, 1, 2), (5, 2, 3), (6, 1, 3), (6, 3, 4)] {
        let params = Params::new(n, m, k).unwrap();
        for algorithm in algorithms_for(params) {
            for adversary in adversaries() {
                let report = ExecutionPlan::new(params)
                    .algorithm(algorithm)
                    .adversary(adversary.clone())
                    .max_steps(60_000)
                    .execute(Backend::Scheduled)
                    .expect_scheduled();
                assert!(
                    report.safety.is_safe(),
                    "{algorithm:?} under {adversary:?} for n={n} m={m} k={k}: {}",
                    report.safety
                );
            }
        }
    }
}

#[test]
fn uniform_inputs_always_decide_the_common_value() {
    use set_agreement::runtime::Workload;
    for (n, m, k) in [(4, 1, 2), (6, 2, 3)] {
        let params = Params::new(n, m, k).unwrap();
        for algorithm in [
            Algorithm::OneShot,
            Algorithm::AnonymousOneShot,
            Algorithm::FullInformation,
        ] {
            let report = ExecutionPlan::new(params)
                .algorithm(algorithm)
                .workload(Workload::uniform(n, 1, 4242))
                .adversary(Adversary::Obstruction {
                    contention_steps: 200,
                    survivors: m,
                    seed: 9,
                })
                .max_steps(2_000_000)
                .execute(Backend::Scheduled)
                .expect_scheduled();
            assert!(report.safety.is_safe());
            for value in report.decisions.outputs(1) {
                assert_eq!(value, 4242, "{algorithm:?} decided a non-proposed value");
            }
        }
    }
}

#[test]
fn decided_values_are_always_inputs_of_the_same_instance() {
    // Validity per instance: run the repeated algorithm with disjoint value
    // ranges per instance and check no cross-instance leakage.
    use set_agreement::runtime::Workload;
    let params = Params::new(5, 2, 3).unwrap();
    let instances = 3usize;
    let workload = Workload::from_matrix(
        (0..5)
            .map(|p| {
                (1..=instances as u64)
                    .map(|t| 10_000 * t + p as u64)
                    .collect()
            })
            .collect(),
    );
    let report = ExecutionPlan::new(params)
        .algorithm(Algorithm::Repeated(instances))
        .workload(workload)
        .adversary(Adversary::Obstruction {
            contention_steps: 300,
            survivors: 2,
            seed: 21,
        })
        .max_steps(5_000_000)
        .execute(Backend::Scheduled)
        .expect_scheduled();
    assert!(report.safety.is_safe());
    for instance in report.decisions.instances() {
        for value in report.decisions.outputs(instance) {
            assert_eq!(
                value / 10_000,
                instance,
                "instance {instance} decided value {value} from another instance"
            );
        }
    }
}

#[test]
fn agreement_holds_even_when_k_equals_m() {
    // The maximal-obstruction regime m = k: up to k survivors, each may
    // output a different value, but never more than k distinct values.
    let params = Params::new(6, 3, 3).unwrap();
    for survivors in 1..=3 {
        let report = ExecutionPlan::new(params)
            .algorithm(Algorithm::OneShot)
            .adversary(Adversary::Obstruction {
                contention_steps: 200,
                survivors,
                seed: survivors as u64,
            })
            .max_steps(2_000_000)
            .execute(Backend::Scheduled)
            .expect_scheduled();
        assert!(report.safety.is_safe());
        assert!(report.survivors_decided);
        assert!(report.distinct_outputs(1) <= 3);
    }
}

#[test]
fn locations_written_never_exceed_declared_components() {
    for (n, m, k) in [(4, 1, 2), (6, 2, 3), (8, 2, 4)] {
        let params = Params::new(n, m, k).unwrap();
        for algorithm in algorithms_for(params) {
            let report = ExecutionPlan::new(params)
                .algorithm(algorithm)
                .adversary(Adversary::Random { seed: 17 })
                .max_steps(40_000)
                .execute(Backend::Scheduled)
                .expect_scheduled();
            assert!(
                report.locations_written <= algorithm.component_bound(params),
                "{algorithm:?} wrote {} locations but declares {} for n={n} m={m} k={k}",
                report.locations_written,
                algorithm.component_bound(params)
            );
        }
    }
}
