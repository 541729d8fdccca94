//! Property-based tests (proptest): safety of every algorithm under random
//! parameters, workloads and schedules, plus structural invariants of the
//! bound formulas and the core data types.

use proptest::prelude::*;
use set_agreement::algorithms::History;
use set_agreement::lowerbound::bounds::{Figure1, Naming, Setting};
use set_agreement::model::{Decision, DecisionSet, Params, ProcessId};
use set_agreement::runtime::Workload;
use set_agreement::{Adversary, Algorithm, Backend, ExecutionPlan};

/// A strategy producing valid `(n, m, k)` triples with `n ≤ 8` (kept small so
/// each case runs in milliseconds).
fn params_strategy() -> impl Strategy<Value = Params> {
    (3usize..=8)
        .prop_flat_map(|n| (Just(n), 1usize..n))
        .prop_flat_map(|(n, k)| (Just(n), 1usize..=k, Just(k)))
        .prop_map(|(n, m, k)| Params::new(n, m, k).expect("strategy produces valid triples"))
}

fn adversary_strategy() -> impl Strategy<Value = Adversary> {
    prop_oneof![
        Just(Adversary::RoundRobin),
        any::<u64>().prop_map(|seed| Adversary::Random { seed }),
        (any::<u64>(), 1usize..4, 0u64..400).prop_map(|(seed, survivors, contention_steps)| {
            Adversary::Obstruction {
                contention_steps,
                survivors,
                seed,
            }
        }),
        (1u64..32, any::<u64>())
            .prop_map(|(burst_len, seed)| Adversary::Bursts { burst_len, seed }),
        (0usize..8).prop_map(|process| Adversary::Solo { process }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_shot_safety_under_random_schedules(
        params in params_strategy(),
        adversary in adversary_strategy(),
        universe in 1u64..6,
        seed in any::<u64>(),
    ) {
        let workload = Workload::random(params.n(), 1, universe, seed);
        let report = ExecutionPlan::new(params)
            .algorithm(Algorithm::OneShot)
            .workload(workload)
            .adversary(adversary)
            .max_steps(20_000)
            .execute(Backend::Scheduled)
            .expect_scheduled();
        prop_assert!(report.safety.is_safe(), "{}", report.safety);
    }

    #[test]
    fn repeated_safety_under_random_schedules(
        params in params_strategy(),
        adversary in adversary_strategy(),
        instances in 1usize..4,
        seed in any::<u64>(),
    ) {
        let workload = Workload::random(params.n(), instances, 5, seed);
        let report = ExecutionPlan::new(params)
            .algorithm(Algorithm::Repeated(instances))
            .workload(workload)
            .adversary(adversary)
            .max_steps(25_000)
            .execute(Backend::Scheduled)
            .expect_scheduled();
        prop_assert!(report.safety.is_safe(), "{}", report.safety);
    }

    #[test]
    fn anonymous_safety_under_random_schedules(
        params in params_strategy(),
        adversary in adversary_strategy(),
        seed in any::<u64>(),
    ) {
        let workload = Workload::random(params.n(), 1, 4, seed);
        let report = ExecutionPlan::new(params)
            .algorithm(Algorithm::AnonymousOneShot)
            .workload(workload)
            .adversary(adversary)
            .max_steps(20_000)
            .execute(Backend::Scheduled)
            .expect_scheduled();
        prop_assert!(report.safety.is_safe(), "{}", report.safety);
    }

    #[test]
    fn full_information_baseline_safety_under_random_schedules(
        params in params_strategy(),
        adversary in adversary_strategy(),
        seed in any::<u64>(),
    ) {
        let workload = Workload::random(params.n(), 1, 4, seed);
        let report = ExecutionPlan::new(params)
            .algorithm(Algorithm::FullInformation)
            .workload(workload)
            .adversary(adversary)
            .max_steps(20_000)
            .execute(Backend::Scheduled)
            .expect_scheduled();
        prop_assert!(report.safety.is_safe(), "{}", report.safety);
    }

    #[test]
    fn obstruction_runs_always_terminate_for_m_survivors(
        params in params_strategy(),
        seed in any::<u64>(),
    ) {
        let report = ExecutionPlan::new(params)
            .algorithm(Algorithm::OneShot)
            .adversary(Adversary::Obstruction {
                contention_steps: 30 * params.n() as u64,
                survivors: params.m(),
                seed,
            })
            .max_steps(3_000_000)
            .execute(Backend::Scheduled)
            .expect_scheduled();
        prop_assert!(report.survivors_decided, "survivors starved for {params:?}");
        prop_assert!(report.safety.is_safe());
    }

    #[test]
    fn figure1_bounds_are_consistent_and_ordered(params in params_strategy()) {
        let table = Figure1::for_params(params);
        prop_assert_eq!(table.consistency_violation(), None);
        // The repeated non-anonymous upper bound never exceeds n, and the
        // lower bound never exceeds the upper bound of any other setting of
        // the same naming.
        let repeated = table.cell(Setting::Repeated, Naming::NonAnonymous);
        prop_assert!(repeated.upper.registers <= params.n());
        prop_assert!(repeated.lower.registers >= 2);
    }

    #[test]
    fn history_append_get_roundtrip(values in proptest::collection::vec(any::<u64>(), 0..24)) {
        let mut history = History::empty();
        for v in &values {
            history = history.appended(*v);
        }
        prop_assert_eq!(history.len(), values.len());
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(history.get(i as u64 + 1), Some(*v));
        }
        prop_assert_eq!(history.get(values.len() as u64 + 1), None);
        prop_assert_eq!(history.as_slice(), &values[..]);
        let rebuilt = History::from_vec(values.clone());
        prop_assert_eq!(history, rebuilt);
    }

    #[test]
    fn decision_set_counts_match_inserted_data(
        decisions in proptest::collection::vec((0usize..6, 1u64..4, 0u64..5), 0..40)
    ) {
        let mut set = DecisionSet::new();
        for (p, instance, value) in &decisions {
            set.record(ProcessId(*p), Decision::new(*instance, *value));
        }
        // Distinct outputs per instance never exceed the number of distinct
        // values inserted for that instance, and deciders never exceed the
        // number of distinct processes.
        for instance in 1u64..4 {
            let values: std::collections::BTreeSet<u64> = decisions
                .iter()
                .filter(|(_, i, _)| *i == instance)
                .map(|(_, _, v)| *v)
                .collect();
            let procs: std::collections::BTreeSet<usize> = decisions
                .iter()
                .filter(|(_, i, _)| *i == instance)
                .map(|(p, _, _)| *p)
                .collect();
            prop_assert!(set.distinct_outputs(instance) <= values.len());
            prop_assert_eq!(set.deciders(instance), procs.len());
        }
    }

    #[test]
    fn workload_generators_have_declared_shape(
        processes in 1usize..10,
        instances in 1usize..6,
        seed in any::<u64>(),
    ) {
        for workload in [
            Workload::all_distinct(processes, instances),
            Workload::uniform(processes, instances, 7),
            Workload::random(processes, instances, 100, seed),
        ] {
            prop_assert_eq!(workload.processes(), processes);
            prop_assert_eq!(workload.instances(), instances);
            for p in 0..processes {
                prop_assert_eq!(workload.sequence(p).len(), instances);
            }
        }
        // Determinism: the same seed reproduces the same workload.
        prop_assert_eq!(
            Workload::random(processes, instances, 100, seed),
            Workload::random(processes, instances, 100, seed)
        );
    }

    #[test]
    fn scenario_runs_are_deterministic(
        params in params_strategy(),
        seed in any::<u64>(),
    ) {
        let run = || {
            ExecutionPlan::new(params)
                .algorithm(Algorithm::OneShot)
                .adversary(Adversary::Random { seed })
                .max_steps(10_000)
                .execute(Backend::Scheduled)
                .expect_scheduled()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.steps, b.steps);
        prop_assert_eq!(a.decisions, b.decisions);
        prop_assert_eq!(a.locations_written, b.locations_written);
    }
}
