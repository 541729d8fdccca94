//! Soundness battery for the op-footprint interference analysis and the
//! persistent-set reduction it feeds.
//!
//! Three layers, mirroring the places the analysis is trusted:
//!
//! 1. **Statically-independent pairs commute** on arbitrary [`SimMemory`]
//!    states: both orders yield identical memory contents *and* identical
//!    per-op responses (proptest over random contents and op pairs).
//! 2. **Dependent-pair witnesses** for each conflict rule of the static
//!    relation: a concrete state where the two orders genuinely diverge,
//!    proving the rule is not vacuous conservatism — plus the matching
//!    invisible-write cases showing exactly when the state-conditional
//!    refinement is allowed to overrule it.
//! 3. **Persistent-set soundness**: the per-state persistent sets the
//!    selective search expands are dependency-closed on random reachable
//!    configurations (proptest over random automata and schedule prefixes),
//!    and `ReductionMode::PersistentSets` in the serial DPOR explorer
//!    reproduces the full exploration's verdicts — and violation witnesses,
//!    trivially `None == None` on these verified cells — over every
//!    `exhaustive.spec` cell, crossed with `SymmetryMode` on/off. Persistent
//!    sets cut *states*, so `explored_states` is pinned as `reduced ≤ full`,
//!    not as equality. In a debug build these runs are also a full dynamic
//!    audit of the interference tiers: every pair a sleep set keeps is
//!    re-executed in both orders at the state being pruned.

use proptest::prelude::*;
use sa_sweep::{run_campaign_collect, CampaignSpec, EngineConfig, SweepRecord};
use set_agreement::memory::SimMemory;
use set_agreement::model::{independent, Automaton, MemoryLayout, Op, ProcessId, Response};
use set_agreement::runtime::toy::{RacyConsensus, ToyWriter};
use set_agreement::runtime::{mask_of, persistent_set, Executor, ReductionMode, SymmetryMode};
use std::borrow::Cow;

const REGISTERS: usize = 2;
const WIDTH: usize = 3;

fn layout() -> MemoryLayout {
    MemoryLayout::new(REGISTERS, vec![WIDTH])
}

/// An arbitrary in-layout operation over a small value universe — small so
/// that equal-value collisions (the invisible-write cases) occur often.
fn op_strategy() -> impl Strategy<Value = Op<u64>> {
    prop_oneof![
        Just(Op::Nop),
        (0usize..REGISTERS).prop_map(|register| Op::Read { register }),
        (0usize..REGISTERS, 0u64..3).prop_map(|(register, value)| Op::Write { register, value }),
        (0usize..WIDTH, 0u64..3).prop_map(|(component, value)| Op::Update {
            snapshot: 0,
            component,
            value,
        }),
        Just(Op::Scan { snapshot: 0 }),
    ]
}

/// An arbitrary reachable memory state: a fresh layout mutated by a short
/// random sequence of in-layout writes and updates.
fn memory_strategy() -> impl Strategy<Value = SimMemory<u64>> {
    proptest::collection::vec(op_strategy(), 0..12).prop_map(|ops| {
        let mut memory: SimMemory<u64> = SimMemory::for_layout(&layout());
        for op in ops {
            memory.apply(op).expect("in-layout op");
        }
        memory
    })
}

/// A memory compared by its contents alone ([`SimMemory::same_contents`]):
/// the metrics record which order ran, the contents must not.
#[derive(Debug)]
struct Contents(SimMemory<u64>);

impl PartialEq for Contents {
    fn eq(&self, other: &Contents) -> bool {
        self.0.same_contents(&other.0)
    }
}

/// Applies `first` then `second`, returning the responses and the resulting
/// contents.
fn run_order(
    memory: &SimMemory<u64>,
    first: &Op<u64>,
    second: &Op<u64>,
) -> (Response<'static, u64>, Response<'static, u64>, Contents) {
    let mut m = memory.clone();
    let r1 = owned(m.apply(first.clone()).expect("in-layout op"));
    let r2 = owned(m.apply(second.clone()).expect("in-layout op"));
    (r1, r2, Contents(m))
}

/// `response` with a scan's view copied out of the memory that lent it, so
/// that it outlives later operations on that memory.
fn owned(response: Response<'_, u64>) -> Response<'static, u64> {
    match response {
        Response::Read(value) => Response::Read(value),
        Response::Written => Response::Written,
        Response::Updated => Response::Updated,
        Response::Snapshot(view) => Response::Snapshot(Cow::Owned(view.into_owned())),
        Response::Nop => Response::Nop,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Layer 1: the static relation is sound on every state — independent
    /// pairs commute wherever they are applied.
    #[test]
    fn statically_independent_pairs_commute(
        memory in memory_strategy(),
        a in op_strategy(),
        b in op_strategy(),
    ) {
        // (The proptest shim has no prop_assume; the macro inlines the body
        // in its case loop, so `continue` skips non-matching cases.)
        if !independent(&a, &b) {
            continue;
        }
        let (ra_ab, rb_ab, fp_ab) = run_order(&memory, &a, &b);
        let (rb_ba, ra_ba, fp_ba) = run_order(&memory, &b, &a);
        prop_assert_eq!(fp_ab, fp_ba, "contents diverged for {:?} / {:?}", a, b);
        prop_assert_eq!(ra_ab, ra_ba, "first op's response depends on order");
        prop_assert_eq!(rb_ab, rb_ba, "second op's response depends on order");
    }

    /// Layer 1b: the state-conditional invisible-write refinement is sound
    /// *on the state that judged it* — the only place the explorers ever
    /// consult it.
    #[test]
    fn invisibly_independent_pairs_commute_on_the_judging_state(
        memory in memory_strategy(),
        a in op_strategy(),
        b in op_strategy(),
    ) {
        if !memory.invisibly_independent(&a, &b) {
            continue;
        }
        let (ra_ab, rb_ab, fp_ab) = run_order(&memory, &a, &b);
        let (rb_ba, ra_ba, fp_ba) = run_order(&memory, &b, &a);
        prop_assert_eq!(fp_ab, fp_ba, "contents diverged for {:?} / {:?}", a, b);
        prop_assert_eq!(ra_ab, ra_ba, "first op's response depends on order");
        prop_assert_eq!(rb_ab, rb_ba, "second op's response depends on order");
    }

    /// The refinement is symmetric — a requirement for deterministic
    /// sleep-mask propagation (the pair is judged from either side
    /// depending on sibling order).
    #[test]
    fn invisible_independence_is_symmetric(
        memory in memory_strategy(),
        a in op_strategy(),
        b in op_strategy(),
    ) {
        prop_assert_eq!(
            memory.invisibly_independent(&a, &b),
            memory.invisibly_independent(&b, &a)
        );
    }
}

/// Layer 2: one divergence witness per conflict rule of the static
/// relation, plus the invisible-write boundary of each rule.
#[test]
fn write_write_conflict_witness() {
    let memory: SimMemory<u64> = SimMemory::for_layout(&layout());
    let a = Op::Write {
        register: 0,
        value: 1,
    };
    let b = Op::Write {
        register: 0,
        value: 2,
    };
    assert!(!independent(&a, &b));
    assert!(!memory.invisibly_independent(&a, &b));
    let (.., fp_ab) = run_order(&memory, &a, &b);
    let (.., fp_ba) = run_order(&memory, &b, &a);
    assert_ne!(fp_ab, fp_ba, "last write must win differently per order");
    // Equal payloads are the refinement's territory: still statically
    // dependent, but commuting in every state.
    let same = Op::Write {
        register: 0,
        value: 1,
    };
    assert!(!independent(&a, &same));
    assert!(memory.invisibly_independent(&a, &same));
}

#[test]
fn write_read_conflict_witness() {
    let memory: SimMemory<u64> = SimMemory::for_layout(&layout());
    let write = Op::Write {
        register: 1,
        value: 7,
    };
    let read = Op::Read { register: 1 };
    assert!(!independent(&write, &read));
    assert!(!memory.invisibly_independent(&write, &read));
    let (_, r_after, _) = run_order(&memory, &write, &read);
    let (r_before, _, _) = run_order(&memory, &read, &write);
    assert_ne!(r_before, r_after, "the read must observe the write");
    // Once the register holds 7, re-writing 7 is invisible to the reader.
    let mut primed = memory.clone();
    primed.apply(write.clone()).unwrap();
    assert!(primed.invisibly_independent(&write, &read));
    let (w_ab, r_ab, fp_ab) = run_order(&primed, &write, &read);
    let (r_ba, w_ba, fp_ba) = run_order(&primed, &read, &write);
    assert_eq!((w_ab, r_ab, fp_ab), (w_ba, r_ba, fp_ba));
}

#[test]
fn update_update_conflict_witness() {
    let memory: SimMemory<u64> = SimMemory::for_layout(&layout());
    let a = Op::Update {
        snapshot: 0,
        component: 2,
        value: 4,
    };
    let b = Op::Update {
        snapshot: 0,
        component: 2,
        value: 5,
    };
    assert!(!independent(&a, &b));
    assert!(!memory.invisibly_independent(&a, &b));
    let (.., fp_ab) = run_order(&memory, &a, &b);
    let (.., fp_ba) = run_order(&memory, &b, &a);
    assert_ne!(fp_ab, fp_ba);
}

#[test]
fn update_scan_conflict_witness() {
    let memory: SimMemory<u64> = SimMemory::for_layout(&layout());
    let update = Op::Update {
        snapshot: 0,
        component: 0,
        value: 9,
    };
    let scan: Op<u64> = Op::Scan { snapshot: 0 };
    assert!(!independent(&update, &scan));
    assert!(!memory.invisibly_independent(&update, &scan));
    let (_, scan_after, _) = run_order(&memory, &update, &scan);
    let (scan_before, _, _) = run_order(&memory, &scan, &update);
    assert_ne!(scan_before, scan_after, "the scan must observe the update");
    // With the component already holding 9, the update is invisible.
    let mut primed = memory.clone();
    primed.apply(update.clone()).unwrap();
    assert!(primed.invisibly_independent(&update, &scan));
    let (u_ab, s_ab, fp_ab) = run_order(&primed, &update, &scan);
    let (s_ba, u_ba, fp_ba) = run_order(&primed, &scan, &update);
    assert_eq!((u_ab, s_ab, fp_ab), (u_ba, s_ba, fp_ba));
}

/// Loads `campaigns/exhaustive.spec` from the repository root.
fn exhaustive_spec() -> CampaignSpec {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/campaigns/exhaustive.spec");
    let text = std::fs::read_to_string(path).expect("exhaustive.spec is checked in");
    CampaignSpec::parse(&text).expect("exhaustive.spec parses")
}

/// Layer 3 invariant: the set the selective search expands must be
/// dependency-closed — a persistent member with a poised op statically
/// dependent on some enabled non-member's poised op would let that
/// non-member invalidate the persistence argument.
fn assert_dependency_closed<A>(exec: &Executor<A>)
where
    A: Automaton,
    A::Value: Clone + Eq + std::fmt::Debug,
{
    let runnable = exec.runnable();
    if runnable.is_empty() {
        return;
    }
    let pset = persistent_set(exec, &runnable);
    assert_ne!(
        pset, 0,
        "a nonempty enabled set must yield a nonempty persistent set"
    );
    assert_eq!(
        pset & !mask_of(&runnable),
        0,
        "the persistent set must stay within the enabled set"
    );
    for p in &runnable {
        if pset & mask_of(&[*p]) == 0 {
            continue;
        }
        let p_op = exec.poised(*p);
        for q in &runnable {
            if pset & mask_of(&[*q]) != 0 {
                continue;
            }
            let dependent = match (&p_op, &exec.poised(*q)) {
                (Some(a), Some(b)) => !independent(a, b),
                _ => true,
            };
            assert!(
                !dependent,
                "persistent member {p:?} conflicts with excluded {q:?}: \
                 the set is not dependency-closed"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Layer 3a: persistent sets are dependency-closed on random reachable
    /// writer configurations — overlapping registers make the closure
    /// non-trivial (dependent writers must be pulled in together).
    #[test]
    fn persistent_sets_are_dependency_closed_for_writers(
        specs in proptest::collection::vec((0usize..3, 0u64..4), 2..=4),
        schedule in proptest::collection::vec(0usize..4, 0..8),
    ) {
        let automata: Vec<ToyWriter> = specs
            .into_iter()
            .map(|(register, value)| ToyWriter::new(register, value))
            .collect();
        let mut exec = Executor::new(automata);
        for pick in schedule {
            let runnable = exec.runnable();
            if runnable.is_empty() {
                break;
            }
            exec.step(runnable[pick % runnable.len()]);
        }
        assert_dependency_closed(&exec);
    }

    /// Layer 3b: the same closure invariant on random reachable
    /// read/write-racing consensus configurations, whose poised ops change
    /// shape (write then read) along the execution.
    #[test]
    fn persistent_sets_are_dependency_closed_for_racers(
        values in proptest::collection::vec(0u64..5, 2..=4),
        schedule in proptest::collection::vec(0usize..4, 0..8),
    ) {
        let automata: Vec<RacyConsensus> = values
            .into_iter()
            .enumerate()
            .map(|(id, value)| RacyConsensus::new(ProcessId(id), value))
            .collect();
        let mut exec = Executor::new(automata);
        for pick in schedule {
            let runnable = exec.runnable();
            if runnable.is_empty() {
                break;
            }
            exec.step(runnable[pick % runnable.len()]);
        }
        assert_dependency_closed(&exec);
    }
}

/// Layer 3 worker: runs the exhaustive campaign with reduction off and with
/// persistent sets on the serial explorer under one symmetry mode, and
/// asserts verdict equivalence on every cell. `explored_states` is pinned as
/// `reduced ≤ full` — cutting states is the point of the mode.
fn assert_persistent_matches_full(symmetry: SymmetryMode) {
    let mut off = exhaustive_spec();
    off.symmetry = symmetry;
    off.reduction = ReductionMode::Off;
    let (full, full_outcome) = run_campaign_collect(&off, EngineConfig::default());

    let mut on = off.clone();
    on.reduction = ReductionMode::PersistentSets;
    let (reduced, reduced_outcome) = run_campaign_collect(&on, EngineConfig::default());

    assert_eq!(full_outcome.clean(), reduced_outcome.clean());
    assert_eq!(full.len(), reduced.len(), "cell list must not change");
    let mut total_persistent_expanded = 0;
    for (f, r) in full.iter().zip(&reduced) {
        let cell = |rec: &SweepRecord| {
            (
                rec.n,
                rec.m,
                rec.k,
                rec.algorithm.clone(),
                rec.instances,
                rec.scenario,
            )
        };
        assert_eq!(cell(f), cell(r), "records must pair up cell-for-cell");
        // The verdict: same safety outcome, same exhaustiveness, same stop
        // reason — and on these verified cells the violation witnesses are
        // identical trivially (none on either side).
        assert_eq!(f.validity_ok, r.validity_ok, "{:?}", cell(f));
        assert_eq!(f.agreement_ok, r.agreement_ok, "{:?}", cell(f));
        assert_eq!(f.verified, r.verified, "{:?}", cell(f));
        assert_eq!(f.stop, r.stop, "{:?}", cell(f));
        assert!(
            r.explored_states <= f.explored_states,
            "persistent sets may never visit new states: {} > {} on {:?}",
            r.explored_states,
            f.explored_states,
            cell(f)
        );
        assert_eq!(f.reduction, "off");
        assert_eq!(r.reduction, "persistent-set");
        total_persistent_expanded += r.persistent_expanded;
    }
    // Serial DPOR draws every expansion from a backtrack set.
    assert!(
        total_persistent_expanded > 0,
        "the DPOR search must report its persistent expansions"
    );
}

#[test]
fn persistent_matches_full_serial_without_symmetry() {
    assert_persistent_matches_full(SymmetryMode::Off);
}

#[test]
fn persistent_matches_full_serial_with_symmetry() {
    assert_persistent_matches_full(SymmetryMode::ProcessIds);
}
