//! The orbit-soundness battery pinning symmetry-reduced exploration.
//!
//! A symmetry reduction that changes "verified" answers is worse than
//! useless, so these tests check the algebra the quotient rests on, for
//! random reachable configurations of the paper's algorithms:
//!
//! * **orbit invariance** — the canonical state key is invariant under
//!   permutations within input-equal orbit groups (any permutation at all
//!   for the anonymous algorithm), applied consistently through automaton
//!   states, pending ops, shared-memory values and decisions;
//! * **separation** — for the id-carrying algorithms, permutations across
//!   groups with unequal inputs *change* the key (no accidental merging);
//! * **idempotence** — canonicalization is a projection: canonicalizing a
//!   canonical configuration is the identity;
//! * **commutation** — stepping commutes with relabeling
//!   (`σ·step(s, p) == step(σ·s, σ(p))`), the transition-system
//!   automorphism property the pruning argument needs;
//! * **witness replay** — on deliberately under-provisioned cells, every
//!   violation reported by either explorer, with symmetry on or off,
//!   replays through a fresh `Executor` to an actual safety violation in
//!   original (un-relabeled) process ids.

use proptest::prelude::*;
use set_agreement::algorithms::{AnonymousSetAgreement, OneShotSetAgreement, RepeatedSetAgreement};
use set_agreement::model::{Automaton, IdRelabeling, Params, ProcessId};
use set_agreement::runtime::{
    agreement_predicate, canonical_state_key, explore, parallel_explore, state_key, Executor,
    Exploration, ExploreConfig, ParallelExploreConfig, SymmetryMode, SymmetryPlan, Workload,
};
use std::fmt::Debug;
use std::hash::Hash;

/// A tiny deterministic RNG so strategies stay cheap.
fn next(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// Drives `executor` through `steps` pseudo-random runnable steps.
fn randomize<A>(executor: &mut Executor<A>, steps: u64, seed: &mut u64)
where
    A: Automaton,
    A::Value: Clone + Eq + Debug,
{
    for _ in 0..steps {
        let runnable = executor.runnable();
        if runnable.is_empty() {
            break;
        }
        let pick = runnable[(next(seed) % runnable.len() as u64) as usize];
        executor.step(pick);
    }
}

/// A pseudo-random permutation of `0..n` that only moves slots within the
/// given equivalence classes (`class[p] == class[q]` required to exchange
/// `p` and `q`), built from random in-class transpositions.
fn in_class_permutation(class: &[usize], seed: &mut u64) -> IdRelabeling {
    let n = class.len();
    let mut map: Vec<ProcessId> = ProcessId::all(n).collect();
    for _ in 0..2 * n {
        let a = (next(seed) % n as u64) as usize;
        let b = (next(seed) % n as u64) as usize;
        if class[a] == class[b] {
            map.swap(a, b);
        }
    }
    IdRelabeling::from_map(map)
}

/// Input-equality classes of a workload (the orbit groups of the
/// id-carrying algorithms).
fn input_classes(workload: &Workload) -> Vec<usize> {
    let mut seen: Vec<&[u64]> = Vec::new();
    (0..workload.processes())
        .map(|p| {
            let sequence = workload.sequence(p);
            seen.iter().position(|s| *s == sequence).unwrap_or_else(|| {
                seen.push(sequence);
                seen.len() - 1
            })
        })
        .collect()
}

/// Checks the invariance / idempotence / commutation bundle on one
/// reachable configuration. `plan` must have been built from the system's
/// *initial* configuration — orbit groups are "processes with identical
/// inputs", exactly as the explorers construct it.
fn check_orbit_algebra<A>(
    executor: &Executor<A>,
    plan: &SymmetryPlan,
    sigma: &IdRelabeling,
    seed: &mut u64,
) where
    A: Automaton + Clone + Hash,
    A::Value: Clone + Eq + Debug + Hash,
{
    assert!(plan.applied(), "these automata opt into symmetry");

    // Invariance: the permuted configuration canonicalizes to the same key
    // and the same orbit weight.
    let permuted = executor.permuted(sigma);
    assert_eq!(
        canonical_state_key(executor, plan),
        canonical_state_key(&permuted, plan),
        "canonical keys must be invariant under in-orbit permutations"
    );

    // Idempotence: canonicalization projects onto canonical forms.
    let canonical = executor.permuted(&plan.canonical_relabeling(executor));
    assert!(
        plan.canonical_relabeling(&canonical).is_identity(),
        "canonicalizing a canonical configuration must be the identity"
    );
    assert_eq!(
        canonical_state_key(&canonical, plan).0,
        canonical_state_key(executor, plan).0,
        "the canonical form must carry the canonical key"
    );

    // Commutation: σ·step(s, p) == step(σ·s, σ(p)) as raw states.
    let runnable = executor.runnable();
    if !runnable.is_empty() {
        let p = runnable[(next(seed) % runnable.len() as u64) as usize];
        let mut stepped_then_permuted = executor.clone();
        stepped_then_permuted.step(p);
        let stepped_then_permuted = stepped_then_permuted.permuted(sigma);
        let mut permuted_then_stepped = permuted;
        permuted_then_stepped.step(sigma.apply(p));
        assert_eq!(
            state_key(&stepped_then_permuted),
            state_key(&permuted_then_stepped),
            "stepping must commute with relabeling"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn oneshot_canonical_keys_are_orbit_invariant(
        n in 2usize..=4,
        universe in 1u64..4,
        workload_seed in any::<u64>(),
        schedule in 0u64..24,
        case_seed in any::<u64>(),
    ) {
        let params = Params::new(n, 1, n - 1).expect("n >= 2 makes (n, 1, n-1) valid");
        // A small universe forces duplicate inputs, so orbit groups are
        // non-trivial and the permutations actually move slots.
        let workload = Workload::random(n, 1, universe, workload_seed);
        let mut executor = Executor::new(
            (0..n)
                .map(|p| OneShotSetAgreement::new(params, ProcessId(p), workload.input(p, 1)))
                .collect::<Vec<_>>(),
        );
        let plan = SymmetryPlan::for_executor(&executor, SymmetryMode::ProcessIds);
        let mut seed = case_seed | 1;
        randomize(&mut executor, schedule, &mut seed);
        let sigma = in_class_permutation(&input_classes(&workload), &mut seed);
        check_orbit_algebra(&executor, &plan, &sigma, &mut seed);
    }

    #[test]
    fn repeated_canonical_keys_are_orbit_invariant(
        n in 2usize..=3,
        universe in 1u64..3,
        workload_seed in any::<u64>(),
        schedule in 0u64..30,
        case_seed in any::<u64>(),
    ) {
        let params = Params::new(n, 1, n.max(2) - 1).expect("valid triple");
        let workload = Workload::random(n, 2, universe, workload_seed);
        let mut executor = Executor::new(
            (0..n)
                .map(|p| {
                    RepeatedSetAgreement::new(params, ProcessId(p), workload.sequence(p).to_vec())
                        .expect("two inputs are never empty")
                })
                .collect::<Vec<_>>(),
        );
        let plan = SymmetryPlan::for_executor(&executor, SymmetryMode::ProcessIds);
        let mut seed = case_seed | 1;
        randomize(&mut executor, schedule, &mut seed);
        let sigma = in_class_permutation(&input_classes(&workload), &mut seed);
        check_orbit_algebra(&executor, &plan, &sigma, &mut seed);
    }

    #[test]
    fn anonymous_canonical_keys_are_invariant_under_any_permutation(
        n in 2usize..=4,
        distinct in any::<bool>(),
        schedule in 0u64..24,
        case_seed in any::<u64>(),
    ) {
        let params = Params::new(n, 1, n - 1).expect("valid triple");
        // Full-group permutation: even with all-distinct inputs, ANY
        // permutation of the slots preserves the canonical key.
        let workload = if distinct {
            Workload::all_distinct(n, 1)
        } else {
            Workload::uniform(n, 1, 9)
        };
        let mut executor = Executor::new(
            (0..n)
                .map(|p| AnonymousSetAgreement::one_shot(params, workload.input(p, 1)))
                .collect::<Vec<_>>(),
        );
        let plan = SymmetryPlan::for_executor(&executor, SymmetryMode::ProcessIds);
        let mut seed = case_seed | 1;
        randomize(&mut executor, schedule, &mut seed);
        let sigma = in_class_permutation(&vec![0usize; n], &mut seed);
        check_orbit_algebra(&executor, &plan, &sigma, &mut seed);
    }

    #[test]
    fn cross_group_permutations_change_id_carrying_keys(
        n in 2usize..=4,
        schedule in 0u64..24,
        case_seed in any::<u64>(),
    ) {
        // All-distinct inputs: every orbit group is a singleton, so any
        // transposition crosses groups and must CHANGE the canonical key —
        // non-anonymous processes are identified with their inputs, and
        // merging across them would be unsound.
        let params = Params::new(n, 1, n - 1).expect("valid triple");
        let workload = Workload::all_distinct(n, 1);
        let mut executor = Executor::new(
            (0..n)
                .map(|p| OneShotSetAgreement::new(params, ProcessId(p), workload.input(p, 1)))
                .collect::<Vec<_>>(),
        );
        let plan = SymmetryPlan::for_executor(&executor, SymmetryMode::ProcessIds);
        let mut seed = case_seed | 1;
        randomize(&mut executor, schedule, &mut seed);
        prop_assert!(plan.applied());
        let a = ProcessId((next(&mut seed) % n as u64) as usize);
        let b = ProcessId(((a.index() as u64 + 1 + next(&mut seed) % (n as u64 - 1))
            % n as u64) as usize);
        prop_assert_ne!(a, b);
        let swapped = executor.permuted(&IdRelabeling::swap(n, a, b));
        prop_assert_ne!(
            canonical_state_key(&executor, &plan).0,
            canonical_state_key(&swapped, &plan).0,
            "slots with unequal inputs must never share a canonical key"
        );
    }
}

/// Every violation an explorer reports must replay: stepping the witness
/// schedule on a fresh executor reproduces an actual violation.
fn assert_witness_replays<A, B>(result: &Exploration, fresh: B, cell: &str)
where
    A: Automaton + Clone + Hash,
    A::Value: Clone + Eq + Debug + Hash,
    B: Fn() -> Executor<A>,
{
    let violation = result
        .violation
        .as_ref()
        .unwrap_or_else(|| panic!("{cell}: an under-provisioned cell must violate"));
    let mut replay = fresh();
    for &process in &violation.schedule {
        assert!(
            replay.step(process).is_some(),
            "{cell}: witness schedules use original process ids and must be steppable"
        );
    }
    let reproduced = agreement_predicate(1)(&replay);
    assert!(
        reproduced.is_some(),
        "{cell}: replaying the witness must reproduce the violation"
    );
    assert_eq!(
        reproduced.as_deref(),
        Some(violation.description.as_str()),
        "{cell}: the description must match the replayed configuration"
    );
}

#[test]
fn witnesses_replay_with_symmetry_on_and_off() {
    let params = Params::new(3, 1, 1).unwrap();

    // Figure 3 stripped to one component: 1-agreement is violated. Mixed
    // inputs keep one non-trivial orbit group (p1 and p2 share value 20).
    let oneshot = || {
        Executor::new(
            (0..3)
                .map(|p| {
                    let input = if p == 0 { 10 } else { 20 };
                    OneShotSetAgreement::deficient(params, ProcessId(p), input, 1).unwrap()
                })
                .collect::<Vec<_>>(),
        )
    };
    // Figure 5 stripped to one component, distinct inputs: the anonymous
    // quotient merges across inputs, and its witnesses must still replay.
    let anonymous = || {
        Executor::new(
            (0..3)
                .map(|p| AnonymousSetAgreement::deficient(params, vec![10 + p], 1).unwrap())
                .collect::<Vec<_>>(),
        )
    };

    for symmetry in [SymmetryMode::Off, SymmetryMode::ProcessIds] {
        let serial = ExploreConfig {
            max_depth: 10_000,
            max_states: 500_000,
            symmetry,
            ..ExploreConfig::default()
        };
        let result = explore(&oneshot(), serial, agreement_predicate(1));
        assert_eq!(
            result.symmetry_applied,
            symmetry == SymmetryMode::ProcessIds
        );
        assert_witness_replays(&result, oneshot, &format!("oneshot serial {symmetry:?}"));
        let result = explore(&anonymous(), serial, agreement_predicate(1));
        assert_witness_replays(&result, anonymous, &format!("anon serial {symmetry:?}"));

        for threads in [1, 2, 8] {
            let parallel = ParallelExploreConfig {
                threads,
                max_depth: 10_000,
                max_states: 500_000,
                symmetry,
                ..ParallelExploreConfig::default()
            };
            let result = parallel_explore(&oneshot(), parallel, agreement_predicate(1));
            assert_witness_replays(
                &result,
                oneshot,
                &format!("oneshot parallel x{threads} {symmetry:?}"),
            );
            let result = parallel_explore(&anonymous(), parallel, agreement_predicate(1));
            assert_witness_replays(
                &result,
                anonymous,
                &format!("anon parallel x{threads} {symmetry:?}"),
            );
        }
    }
}

#[test]
fn opaque_systems_fall_back_instead_of_pruning() {
    use set_agreement::algorithms::SwmrEmulated;
    // The single-writer emulation addresses registers BY process id, so it
    // must refuse symmetry (fall back) — pruning would be unsound.
    let params = Params::new(2, 1, 1).unwrap();
    let executor = Executor::new(
        (0..2)
            .map(|p| {
                SwmrEmulated::<OneShotSetAgreement>::one_shot(params, ProcessId(p), 10 + p as u64)
            })
            .collect::<Vec<_>>(),
    );
    let plan = SymmetryPlan::for_executor(&executor, SymmetryMode::ProcessIds);
    assert!(
        !plan.applied(),
        "id-addressed memory cannot establish symmetry"
    );
    let config = ExploreConfig {
        max_depth: 200,
        max_states: 20_000,
        symmetry: SymmetryMode::ProcessIds,
        ..ExploreConfig::default()
    };
    let requested = explore(&executor, config, agreement_predicate(1));
    let plain = explore(
        &executor,
        ExploreConfig {
            symmetry: SymmetryMode::Off,
            ..config
        },
        agreement_predicate(1),
    );
    assert!(!requested.symmetry_applied);
    assert_eq!(requested.states_visited, plain.states_visited);
    assert_eq!(requested.truncated, plain.truncated);
    assert_eq!(requested.violation, plain.violation);
}
