//! Witness goals and the block-write mechanics they are built from.
//!
//! The covering lower bound (Theorem 2) rests on one mechanical fact: if a
//! set `P` of processes is *poised* to write to a set `A` of locations (it
//! "covers" `A`), and another group `Q` runs a fragment that only writes
//! inside `A`, then releasing `P`'s pending writes (a *block write*) leaves
//! the shared memory in exactly the state it would have had if `Q`'s
//! fragment had never happened. This module provides those mechanics over
//! real executors — [`poised_write_location`], [`run_until_poised_outside`],
//! [`block_write`], [`obliterates`], [`splice_is_invisible`] — and, on top
//! of them, the [`WitnessGoal`] trait the adversary-search driver evaluates
//! per configuration: [`Covering`] (p processes poised to write p distinct
//! locations) and [`BlockWrite`] (a covering whose covered locations were
//! all written before, so releasing it obliterates recorded information),
//! composable with [`And`] / [`Or`].
//!
//! These primitives used to live in `sa-lowerbound`'s `blockwrite` module;
//! they moved here so the hand-built Theorem 2 constructions and the
//! machine search evaluate witnesses through the *same* code.

use sa_memory::Location;
use sa_model::{Automaton, ProcessId};
use sa_runtime::{Executor, SearchGoal};
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::Hash;

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

/// The outcome of [`run_until_poised_outside`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupRun {
    /// Some process of the group is poised to write to a location outside the
    /// covered set (and has **not** performed that write yet).
    PoisedOutside {
        /// The process about to write.
        process: ProcessId,
        /// The location it is about to write.
        location: Location,
        /// Steps executed before it became poised.
        steps: u64,
    },
    /// Every process of the group halted without ever being poised to write
    /// outside the covered set.
    Halted {
        /// Steps executed.
        steps: u64,
    },
    /// The step budget ran out first.
    Exhausted {
        /// Steps executed (equals the budget).
        steps: u64,
    },
}

/// Runs the processes of `group` (one at a time, in group order, exactly like
/// the fragments of the Theorem 2 construction) until one of them is poised
/// to write to a location **outside** `covered`, leaving it poised. Reads,
/// scans, local steps and writes *inside* `covered` are allowed to proceed.
pub fn run_until_poised_outside<A>(
    executor: &mut Executor<A>,
    group: &[ProcessId],
    covered: &BTreeSet<Location>,
    max_steps: u64,
) -> GroupRun
where
    A: Automaton,
    A::Value: Clone + Eq + Debug,
{
    let mut steps = 0;
    loop {
        // The next runnable process in group order.
        let Some(process) = group
            .iter()
            .copied()
            .find(|p| !executor.automaton(*p).is_halted())
        else {
            return GroupRun::Halted { steps };
        };
        if let Some(location) = poised_write_location(executor, process) {
            if !covered.contains(&location) {
                return GroupRun::PoisedOutside {
                    process,
                    location,
                    steps,
                };
            }
        }
        if steps >= max_steps {
            return GroupRun::Exhausted { steps };
        }
        executor.step(process);
        steps += 1;
    }
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
/// an uncovered location.
pub fn obliterates<A>(
    executor: &Executor<A>,
    coverers: &[ProcessId],
    fragment: &[ProcessId],
) -> bool
where
    A: Automaton + Clone,
    A::Value: Clone + Eq + Debug + Hash,
{
    // Branch 1: fragment, then block write.
    let mut with_fragment = executor.clone();
    for process in fragment {
        if !with_fragment.automaton(*process).is_halted() {
            with_fragment.step(*process);
        }
    }
    block_write(&mut with_fragment, coverers);

    // Branch 2: block write alone.
    let mut without_fragment = executor.clone();
    block_write(&mut without_fragment, coverers);

    with_fragment.memory().content_fingerprint() == without_fragment.memory().content_fingerprint()
}

/// Checks that an observer cannot tell whether the fragment was spliced in:
/// starting from the current configuration, run `fragment`, block-write the
/// coverers, then let `observer` run alone to completion — and compare its
/// decisions with the branch where the fragment never happened.
///
/// Returns `true` when the observer's decisions are identical in both
/// branches (the splice is invisible).
pub fn splice_is_invisible<A>(
    executor: &Executor<A>,
    coverers: &[ProcessId],
    fragment: &[ProcessId],
    observer: ProcessId,
    max_steps: u64,
) -> bool
where
    A: Automaton + Clone,
    A::Value: Clone + Eq + Debug + Hash,
{
    let run_observer = |mut exec: Executor<A>| {
        let mut steps = 0;
        while !exec.automaton(observer).is_halted() && steps < max_steps {
            exec.step(observer);
            steps += 1;
        }
        let decisions = exec.decisions().clone();
        (0u64..)
            .map_while(|i| decisions.decision_of(observer, i + 1).map(|v| (i + 1, v)))
            .collect::<Vec<_>>()
    };

    let mut with_fragment = executor.clone();
    for process in fragment {
        if !with_fragment.automaton(*process).is_halted() {
            with_fragment.step(*process);
        }
    }
    block_write(&mut with_fragment, coverers);

    let mut without_fragment = executor.clone();
    block_write(&mut without_fragment, coverers);

    run_observer(with_fragment) == run_observer(without_fragment)
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
    let written: BTreeSet<Location> = executor.memory().metrics().written_locations().collect();
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
        let written: BTreeSet<Location> = executor.memory().metrics().written_locations().collect();
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

/// Conjunction of two goals: hits when both hit, yielding the first goal's
/// measure (the second acts as a filter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct And<G, H>(pub G, pub H);

impl<A, G, H> WitnessGoal<A> for And<G, H>
where
    A: Automaton,
    A::Value: Clone + Eq + Debug,
    G: WitnessGoal<A>,
    H: WitnessGoal<A>,
{
    fn label(&self) -> String {
        format!("{}+{}", self.0.label(), self.1.label())
    }

    fn evaluate(&self, executor: &Executor<A>) -> Option<GoalMeasure> {
        let measure = self.0.evaluate(executor)?;
        self.1.evaluate(executor)?;
        Some(measure)
    }
}

/// Disjunction of two goals: the first goal's hit wins, otherwise the
/// second's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Or<G, H>(pub G, pub H);

impl<A, G, H> WitnessGoal<A> for Or<G, H>
where
    A: Automaton,
    A::Value: Clone + Eq + Debug,
    G: WitnessGoal<A>,
    H: WitnessGoal<A>,
{
    fn label(&self) -> String {
        format!("{}|{}", self.0.label(), self.1.label())
    }

    fn evaluate(&self, executor: &Executor<A>) -> Option<GoalMeasure> {
        self.0
            .evaluate(executor)
            .or_else(|| self.1.evaluate(executor))
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
        let params = Params::new(3, 1, 1).unwrap();
        let automata: Vec<_> = (0..3)
            .map(|p| OneShotSetAgreement::new(params, ProcessId(p), 100 + p as u64))
            .collect();
        Executor::new(automata)
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
    fn and_hits_only_when_both_goals_hit_and_keeps_the_first_measure() {
        let goal = And(Covering { registers: 1 }, BlockWrite);
        assert_eq!(
            WitnessGoal::<OneShotSetAgreement>::label(&goal),
            "covering>=1+block-write"
        );
        let mut exec = executor();
        assert!(goal.evaluate(&exec).is_none());
        exec.step(ProcessId(0));
        let measure = goal.evaluate(&exec).unwrap();
        assert_eq!(measure, covering_measure(&exec));
    }

    #[test]
    fn or_falls_through_to_the_second_goal() {
        let goal = Or(Covering { registers: 5 }, BlockWrite);
        assert_eq!(
            WitnessGoal::<OneShotSetAgreement>::label(&goal),
            "covering>=5|block-write"
        );
        let mut exec = executor();
        assert!(goal.evaluate(&exec).is_none());
        exec.step(ProcessId(0));
        assert!(goal.evaluate(&exec).is_some());
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
}
