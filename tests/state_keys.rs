//! Pins the explorers' dedup keys.
//!
//! * **Known answers** — the keys of two initial configurations and of two
//!   mid-run ones, as hex literals. A change to the fingerprint, to a
//!   toolchain's std `Hash` streams or to the word stream a state type
//!   feeds the hasher fails here instead of silently re-keying every state.
//!   Initial configurations have no decisions and only `⊥` cells, so only
//!   the mid-run pins reach the decision set and written cells.
//! * **Per-half distinctness** — over a whole reachable state space, the
//!   full keys and each 64-bit half alone are pairwise distinct, and the
//!   counts equal the state counts the campaigns pin.

use set_agreement::algorithms::{AnonymousSetAgreement, OneShotSetAgreement, RepeatedSetAgreement};
use set_agreement::model::{Params, ProcessId};
use set_agreement::runtime::{
    canonical_state_key, explore, state_key, Executor, ExploreConfig, StateKey, SymmetryMode,
    SymmetryPlan,
};
use std::collections::HashSet;

/// The initial configuration of the 3/1/2 anonymous cell of
/// `campaigns/exhaustive.spec` (Figure 5, one shot, all-distinct inputs).
fn anonymous_312() -> Executor<AnonymousSetAgreement> {
    let params = Params::new(3, 1, 2).expect("3/1/2 is a valid cell");
    Executor::new(
        (0..3)
            .map(|p| AnonymousSetAgreement::one_shot(params, 1000 + p))
            .collect(),
    )
}

#[test]
fn initial_keys_are_pinned() {
    let anonymous = anonymous_312();
    assert_eq!(
        state_key(&anonymous),
        StateKey::from_parts([0x836C_0A22_D4C6_B4A9, 0x233F_D941_3A20_BA9F]),
        "state_key of the initial 3/1/2 anonymous configuration"
    );
    let plan = SymmetryPlan::for_executor(&anonymous, SymmetryMode::ProcessIds);
    assert_eq!(
        canonical_state_key(&anonymous, &plan),
        (
            StateKey::from_parts([0xC038_8BBE_1F53_0BE6, 0xC571_6FEE_FD49_EF92]),
            1
        ),
        "canonical_state_key of the initial 3/1/2 anonymous configuration"
    );

    let params = Params::new(2, 1, 1).expect("2/1/1 is a valid cell");
    let figure3 = Executor::new(
        (0..2)
            .map(|p| OneShotSetAgreement::new(params, ProcessId(p), 1000 + p as u64))
            .collect(),
    );
    assert_eq!(
        state_key(&figure3),
        StateKey::from_parts([0x1AF2_AA87_D74D_A043, 0x7589_3312_BC10_5831]),
        "state_key of the initial 2/1/1 Figure 3 configuration"
    );
}

/// Steps `executor` by each process of `schedule` in turn.
fn run<A>(executor: &mut Executor<A>, schedule: &[usize])
where
    A: set_agreement::model::Automaton,
    A::Value: Clone + Eq + std::fmt::Debug,
{
    for &p in schedule {
        executor
            .step(ProcessId(p))
            .expect("the schedule steps only live processes");
    }
}

#[test]
fn mid_run_keys_are_pinned() {
    // p0 runs solo until it decides, updating all three components on the
    // way; then p1 overwrites component 0 and p2 takes its first step.
    let mut anonymous = anonymous_312();
    let plan = SymmetryPlan::for_executor(&anonymous, SymmetryMode::ProcessIds);
    run(&mut anonymous, &[0, 0, 0, 0, 0, 0, 0, 1, 1, 2]);
    assert_eq!(
        anonymous.decisions().decision_of(ProcessId(0), 1),
        Some(1000)
    );
    assert!(anonymous
        .memory()
        .peek_snapshot(0)
        .iter()
        .all(Option::is_some));
    assert_eq!(
        state_key(&anonymous),
        StateKey::from_parts([0x41EC_391C_86A8_6F83, 0xFAD4_C39A_07C4_3CB3]),
        "state_key of a mid-run 3/1/2 anonymous configuration"
    );
    assert_eq!(
        canonical_state_key(&anonymous, &plan),
        (
            StateKey::from_parts([0xA58B_2599_6D34_EDEF, 0x56A4_1A5B_4DEC_5575]),
            1
        ),
        "canonical_state_key of a mid-run 3/1/2 anonymous configuration"
    );

    // Figure 4 on 2/1/1 with two instances: p0 runs solo to completion,
    // deciding 10 and 20, then p1 adopts 10 in instance 1.
    let params = Params::new(2, 1, 1).expect("2/1/1 is a valid cell");
    let mut figure4 = Executor::new(
        (0..2)
            .map(|p| {
                RepeatedSetAgreement::new(params, ProcessId(p), vec![10 + p as u64, 20 + p as u64])
                    .expect("two inputs, valid id")
            })
            .collect(),
    );
    run(&mut figure4, &[0; 14]);
    run(&mut figure4, &[1; 3]);
    assert_eq!(figure4.decisions().deciders(1), 2);
    assert_eq!(figure4.decisions().decision_of(ProcessId(0), 2), Some(20));
    assert_eq!(
        state_key(&figure4),
        StateKey::from_parts([0xB212_7CC3_3F80_582A, 0x6D12_42CC_AD47_8706]),
        "state_key of a 2/1/1 Figure 4 configuration with decisions in two instances"
    );
}

/// Explores the 3/1/2 anonymous cell, collecting the dedup key of every
/// configuration the explorer generates, and checks that the full keys, the
/// first halves and the second halves each number exactly `states`.
fn keys_are_distinct_per_half(symmetry: SymmetryMode, states: u64) {
    let initial = anonymous_312();
    let plan = SymmetryPlan::for_executor(&initial, symmetry);
    let (mut full, mut first, mut second) = (HashSet::new(), HashSet::new(), HashSet::new());
    let config = ExploreConfig {
        max_depth: 100_000,
        max_states: 1_000_000,
        symmetry,
        ..ExploreConfig::default()
    };
    let report = explore(&initial, config, |executor| {
        let (key, _) = canonical_state_key(executor, &plan);
        let [lo, hi] = key.parts();
        full.insert(key);
        first.insert(lo);
        second.insert(hi);
        None
    });
    assert!(report.verified(), "{report:?}");
    assert_eq!(report.states_visited, states);
    assert_eq!(full.len() as u64, states, "full keys");
    assert_eq!(first.len() as u64, states, "first halves");
    assert_eq!(second.len() as u64, states, "second halves");
}

#[test]
fn plain_keys_and_each_half_are_distinct_over_the_anonymous_312_cell() {
    keys_are_distinct_per_half(SymmetryMode::Off, 137_318);
}

#[test]
fn canonical_keys_and_each_half_are_distinct_over_the_anonymous_312_cell() {
    keys_are_distinct_per_half(SymmetryMode::ProcessIds, 21_137);
}
