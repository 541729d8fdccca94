//! Witness goals and the block-write mechanics they are built from.
//!
//! The covering lower bound (Theorem 2) rests on one mechanical fact: if a
//! set `P` of processes is *poised* to write to a set `A` of locations (it
//! "covers" `A`), and another group `Q` runs a fragment that only writes
//! inside `A`, then releasing `P`'s pending writes (a *block write*) leaves
//! the shared memory in exactly the state it would have had if `Q`'s
//! fragment had never happened. This module provides those mechanics over
//! real executors — [`poised_write_location`], [`covered_locations`],
//! [`block_write`], [`obliterates`] — and, on top of them, the
//! [`WitnessGoal`] trait the adversary-search driver evaluates per
//! configuration: [`Covering`] (p processes poised to write p distinct
//! locations) and [`BlockWrite`] (a covering whose covered locations were
//! all written before, so releasing it obliterates recorded information).
//!
//! The search and the replay verifier, which checks the hand-built Theorem 2
//! witnesses of `sa-lowerbound` too, evaluate goals through [`goal_for`],
//! and the tests below are the executable specification of the mechanics
//! (covering observation, block-write release and obliteration) against
//! the paper's own algorithms.

use sa_memory::Location;
use sa_model::{Automaton, ProcessId};
use sa_runtime::{Executor, SearchGoal};
use std::collections::BTreeSet;
use std::fmt::Debug;

/// The location `process` is poised to write, or `None` if it is halted, or
/// poised to a read, a scan or a local step.
///
/// Defined as the write cell of the poised op's
/// [footprint](sa_model::Op::footprint) — the same static analysis that
/// feeds the serial explorer's independence relation, so the lower-bound
/// machinery and the partial-order reduction can never disagree about what
/// a step writes.
pub fn poised_write_location<A>(executor: &Executor<A>, process: ProcessId) -> Option<Location>
where
    A: Automaton,
    A::Value: Clone + Eq + Debug,
{
    executor.poised(process)?.footprint().write_cell()
}

/// The locations covered by `processes` in the current configuration: the
/// pending-write targets of those that are poised to write.
pub fn covered_locations<A>(executor: &Executor<A>, processes: &[ProcessId]) -> BTreeSet<Location>
where
    A: Automaton,
    A::Value: Clone + Eq + Debug,
{
    processes
        .iter()
        .filter_map(|p| poised_write_location(executor, *p))
        .collect()
}

/// Performs a block write: every process of `writers` takes exactly one step,
/// which must be a pending write (the caller established the covering). The
/// set of locations written is returned.
///
/// # Panics
///
/// Panics if some writer is not poised to a write-like operation — that means
/// the covering was not established and the caller's adversary is buggy.
pub fn block_write<A>(executor: &mut Executor<A>, writers: &[ProcessId]) -> BTreeSet<Location>
where
    A: Automaton,
    A::Value: Clone + Eq + Debug,
{
    let mut written = BTreeSet::new();
    for process in writers {
        let location = poised_write_location(executor, *process)
            .unwrap_or_else(|| panic!("{process} is not poised to write; no covering established"));
        executor.step(*process);
        written.insert(location);
    }
    written
}

/// Checks the obliteration property at the current configuration: running the
/// fragment `fragment` (a schedule over non-covering processes) and then
/// releasing the block write of `coverers` leaves the shared memory in
/// exactly the same state as releasing the block write alone.
///
/// This is the step of the Theorem 2 proof that makes spliced fragments
/// invisible. It holds whenever the fragment writes only to locations covered
/// by `coverers`; it fails (returns `false`) as soon as the fragment touches
/// an uncovered location. A halted process in `fragment` takes no step.
pub fn obliterates<A>(
    executor: &Executor<A>,
    coverers: &[ProcessId],
    fragment: &[ProcessId],
) -> bool
where
    A: Automaton + Clone,
    A::Value: Clone + Eq + Debug,
{
    let mut with_fragment = executor.clone();
    for process in fragment {
        with_fragment.step(*process);
    }
    block_write(&mut with_fragment, coverers);
    let mut without_fragment = executor.clone();
    block_write(&mut without_fragment, coverers);
    with_fragment
        .memory()
        .same_contents(without_fragment.memory())
}

/// One process of a covering: `process` is poised to write `location`.
///
/// A configuration's covering lists the *smallest* poised process per
/// covered location, ordered by location — a canonical choice, so equal
/// configurations always yield byte-equal coverings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoveringPair {
    /// The covering process.
    pub process: ProcessId,
    /// The pending-write target it covers.
    pub location: Location,
}

/// What a goal found in one configuration: the covering structure plus the
/// register counts the lower-bound argument charges.
///
/// `registers` — the bound-facing count — is the size of the union of the
/// locations *already written* and the locations *covered by pending
/// writes*: exactly the registers the Theorem 2 adversary has forced the
/// algorithm to commit, whether the information already landed or is about
/// to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GoalMeasure {
    /// The canonical covering: smallest poised process per covered location,
    /// ordered by location.
    pub covering: Vec<CoveringPair>,
    /// Distinct locations covered by pending writes (`covering.len()`).
    pub registers_covered: usize,
    /// Distinct locations written so far in the execution.
    pub registers_written: usize,
    /// `|written ∪ covered|` — the register count charged to the algorithm.
    pub registers: usize,
}

/// Measures the covering structure of a configuration: which locations are
/// covered by pending writes (and by whom, canonically), which were already
/// written, and the union the lower bound charges.
pub fn covering_measure<A>(executor: &Executor<A>) -> GoalMeasure
where
    A: Automaton,
    A::Value: Clone + Eq + Debug,
{
    let mut covering: Vec<CoveringPair> = Vec::new();
    // Ascending process order, first writer per location kept: the covering
    // is the smallest poised process id per covered location.
    for p in 0..executor.process_count() {
        let process = ProcessId(p);
        if let Some(location) = poised_write_location(executor, process) {
            if !covering.iter().any(|c| c.location == location) {
                covering.push(CoveringPair { process, location });
            }
        }
    }
    covering.sort_by_key(|c| c.location);
    let covered: BTreeSet<Location> = covering.iter().map(|c| c.location).collect();
    let written: BTreeSet<Location> = executor.memory().written_locations().collect();
    let registers = written.union(&covered).count();
    GoalMeasure {
        registers_covered: covered.len(),
        registers_written: written.len(),
        registers,
        covering,
    }
}

/// A witness structure the adversary-search driver hunts for, evaluated on
/// every first-visited configuration.
///
/// Implementations must be pure functions of the configuration (never of
/// discovery order or thread), so the search stays byte-identical at any
/// thread count.
pub trait WitnessGoal<A: Automaton>: Send + Sync
where
    A::Value: Clone + Eq + Debug,
{
    /// A short identifier for reports.
    fn label(&self) -> String;

    /// Evaluates the configuration; `Some(measure)` when the goal structure
    /// is present.
    fn evaluate(&self, executor: &Executor<A>) -> Option<GoalMeasure>;
}

/// The covering goal: a configuration where at least `registers` processes
/// are poised to write pairwise-distinct locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Covering {
    /// The minimum number of distinct covered locations to count as a hit.
    pub registers: usize,
}

impl<A> WitnessGoal<A> for Covering
where
    A: Automaton,
    A::Value: Clone + Eq + Debug,
{
    fn label(&self) -> String {
        format!("covering>={}", self.registers)
    }

    fn evaluate(&self, executor: &Executor<A>) -> Option<GoalMeasure> {
        let measure = covering_measure(executor);
        (measure.registers_covered >= self.registers.max(1)).then_some(measure)
    }
}

/// The block-write goal: a covering configuration whose covered locations
/// have **all** been written before, and whose pending writes actually
/// execute as a block write — so releasing them obliterates the recorded
/// information, the splice-invisibility step of Theorem 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockWrite;

impl<A> WitnessGoal<A> for BlockWrite
where
    A: Automaton + Clone,
    A::Value: Clone + Eq + Debug,
{
    fn label(&self) -> String {
        "block-write".to_string()
    }

    fn evaluate(&self, executor: &Executor<A>) -> Option<GoalMeasure> {
        let measure = covering_measure(executor);
        if measure.covering.is_empty() {
            return None;
        }
        let written: BTreeSet<Location> = executor.memory().written_locations().collect();
        if !measure
            .covering
            .iter()
            .all(|c| written.contains(&c.location))
        {
            return None;
        }
        // Release the block write on a clone: every coverer must perform
        // exactly its predicted pending write.
        let coverers: Vec<ProcessId> = measure.covering.iter().map(|c| c.process).collect();
        let covered: BTreeSet<Location> = measure.covering.iter().map(|c| c.location).collect();
        let mut released = executor.clone();
        let block_written = block_write(&mut released, &coverers);
        (block_written == covered).then_some(measure)
    }
}

/// The concrete goal behind a [`SearchGoal`] selector — the single mapping
/// both the search driver and the replay verifier use, so a witness always
/// re-verifies under exactly the goal that found it.
pub fn goal_for<A>(goal: SearchGoal) -> Box<dyn WitnessGoal<A>>
where
    A: Automaton + Clone,
    A::Value: Clone + Eq + Debug,
{
    match goal {
        SearchGoal::Covering => Box::new(Covering { registers: 1 }),
        SearchGoal::BlockWrite => Box::new(BlockWrite),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_core::OneShotSetAgreement;
    use sa_model::Params;

    fn executor() -> Executor<OneShotSetAgreement> {
        full_width_executor(Params::new(3, 1, 1).unwrap())
    }

    const COMPONENT_0: Location = Location::Component {
        snapshot: 0,
        component: 0,
    };

    #[test]
    fn covering_measure_is_canonical_smallest_process_per_location() {
        // Initially all three Figure 3 processes are poised to update
        // component 0; the canonical covering keeps only p0.
        let exec = executor();
        let measure = covering_measure(&exec);
        assert_eq!(
            measure.covering,
            vec![CoveringPair {
                process: ProcessId(0),
                location: COMPONENT_0,
            }]
        );
        assert_eq!(measure.registers_covered, 1);
        assert_eq!(measure.registers_written, 0);
        assert_eq!(measure.registers, 1);
    }

    #[test]
    fn covering_measure_unions_written_and_covered_locations() {
        // After p0's update, component 0 is both written and (by p1) still
        // covered: the union counts it once.
        let mut exec = executor();
        exec.step(ProcessId(0));
        let measure = covering_measure(&exec);
        assert_eq!(measure.registers_written, 1);
        assert_eq!(measure.registers_covered, 1);
        assert_eq!(measure.registers, 1);
        assert_eq!(measure.covering[0].process, ProcessId(1));
    }

    #[test]
    fn covering_goal_requires_the_requested_width() {
        let exec = executor();
        assert!(WitnessGoal::evaluate(&Covering { registers: 1 }, &exec).is_some());
        assert!(WitnessGoal::evaluate(&Covering { registers: 2 }, &exec).is_none());
        // A zero threshold still demands a non-empty covering.
        assert!(WitnessGoal::evaluate(&Covering { registers: 0 }, &exec).is_some());
    }

    #[test]
    fn block_write_goal_needs_covered_locations_already_written() {
        // Initially nothing has been written, so no covering can be a
        // block-write witness; after one update the surviving covering of
        // component 0 qualifies.
        let mut exec = executor();
        assert!(WitnessGoal::evaluate(&BlockWrite, &exec).is_none());
        exec.step(ProcessId(0));
        let measure = WitnessGoal::evaluate(&BlockWrite, &exec).unwrap();
        assert_eq!(measure.registers_covered, 1);
    }

    #[test]
    fn goal_for_maps_every_selector_to_its_evaluator() {
        assert_eq!(
            goal_for::<OneShotSetAgreement>(SearchGoal::Covering).label(),
            "covering>=1"
        );
        assert_eq!(
            goal_for::<OneShotSetAgreement>(SearchGoal::BlockWrite).label(),
            "block-write"
        );
    }

    /// A deficient width-1 instance: every process only ever writes component
    /// 0, so covering that single location covers everything.
    fn width_one_executor(params: Params) -> Executor<OneShotSetAgreement> {
        let automata: Vec<_> = (0..params.n())
            .map(|p| {
                OneShotSetAgreement::deficient(params, ProcessId(p), 100 + p as u64, 1).unwrap()
            })
            .collect();
        Executor::new(automata)
    }

    fn full_width_executor(params: Params) -> Executor<OneShotSetAgreement> {
        let automata: Vec<_> = (0..params.n())
            .map(|p| OneShotSetAgreement::new(params, ProcessId(p), 100 + p as u64))
            .collect();
        Executor::new(automata)
    }

    #[test]
    fn poised_write_location_reports_the_update_target() {
        let params = Params::new(3, 1, 1).unwrap();
        let exec = full_width_executor(params);
        // Initially every Figure 3 process is poised to update component 0.
        for p in 0..3 {
            assert_eq!(
                poised_write_location(&exec, ProcessId(p)),
                Some(COMPONENT_0)
            );
        }
        assert_eq!(
            covered_locations(&exec, &[ProcessId(0), ProcessId(2)]),
            BTreeSet::from([COMPONENT_0])
        );
    }

    #[test]
    fn block_write_steps_every_coverer_once() {
        let params = Params::new(4, 1, 2).unwrap();
        let mut exec = full_width_executor(params);
        let writers = vec![ProcessId(2), ProcessId(3)];
        let written = block_write(&mut exec, &writers);
        assert_eq!(written, BTreeSet::from([COMPONENT_0]));
        assert_eq!(exec.steps(), 2);
    }

    #[test]
    #[should_panic(expected = "not poised to write")]
    fn block_write_rejects_non_covering_processes() {
        let params = Params::new(3, 1, 1).unwrap();
        let mut exec = full_width_executor(params);
        // After its update, p0 is poised to scan — not a covering process.
        exec.step(ProcessId(0));
        block_write(&mut exec, &[ProcessId(0)]);
    }

    #[test]
    fn block_write_obliterates_fragments_confined_to_covered_locations() {
        // Width-1 algorithm: p0 covers component 0; any fragment by p1 writes
        // only component 0, so the block write erases it.
        let params = Params::new(3, 1, 1).unwrap();
        let exec = width_one_executor(params);
        let fragment: Vec<ProcessId> = std::iter::repeat_n(ProcessId(1), 12).collect();
        assert!(obliterates(&exec, &[ProcessId(0)], &fragment));
    }

    #[test]
    fn block_write_does_not_obliterate_uncovered_writes() {
        // Full-width algorithm: p1's fragment eventually writes component 1,
        // which p0 does not cover, so the memories differ.
        let params = Params::new(3, 1, 1).unwrap();
        let exec = full_width_executor(params);
        let fragment: Vec<ProcessId> = std::iter::repeat_n(ProcessId(1), 12).collect();
        assert!(!obliterates(&exec, &[ProcessId(0)], &fragment));
    }
}
