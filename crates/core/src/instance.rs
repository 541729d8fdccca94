//! A minimal, harness-free driver for a single agreement instance.
//!
//! The algorithms in this crate are [`Automaton`]s: explicit state machines
//! performing one shared-memory operation per step. Historically the only
//! thing that could *drive* such a machine to completion was the full
//! `sa-runtime` harness (schedulers, adversaries, traces, metrics). A
//! long-running service that executes thousands of small agreement
//! instances per second needs none of that — it needs exactly the step
//! function: *apply the poised operation to a shared memory, deliver the
//! response, collect decisions*.
//!
//! [`AgreementInstance`] is that step function, extracted into the
//! algorithm crate so it depends only on `sa-model` and `sa-memory`. The
//! same automata still run unchanged under the exhaustive explorer and the
//! threaded backend; this driver is the third consumer, suitable for
//! embedding in an event loop.
//!
//! Two deterministic schedules are provided beyond the raw
//! [`step`](AgreementInstance::step) primitive:
//!
//! * [`run_round_robin`](AgreementInstance::run_round_robin) — bounded
//!   contention, cycling over the live processes;
//! * [`run_solo`](AgreementInstance::run_solo) — one process runs alone.
//!   Since every algorithm here is m-obstruction-free with `m ≥ 1`, a solo
//!   run is guaranteed to terminate, so "contend for a while, then finish
//!   the processes one at a time" is a deterministic terminating schedule.

use sa_memory::SimMemory;
use sa_model::{Automaton, DecisionSet, MemoryLayout, ProcessId, StepOutcome};
use std::fmt::Debug;

/// Drives one set of automata over a private simulated shared memory,
/// one atomic step at a time, with no scheduler or adversary machinery.
///
/// ```
/// use sa_core::{AgreementInstance, OneShotSetAgreement};
/// use sa_model::{Params, ProcessId};
///
/// let params = Params::new(3, 1, 2)?;
/// let automata: Vec<_> = (0..3)
///     .map(|p| OneShotSetAgreement::new(params, ProcessId(p), 10 + p as u64))
///     .collect();
/// let mut instance = AgreementInstance::new(automata);
/// instance.run_round_robin(24);
/// for p in 0..3 {
///     assert!(instance.run_solo(ProcessId(p), 10_000));
/// }
/// assert!(instance.all_halted());
/// assert!(instance.decisions().distinct_outputs(1) <= 2);
/// # Ok::<(), sa_model::ParamsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AgreementInstance<A: Automaton> {
    automata: Vec<A>,
    memory: SimMemory<A::Value>,
    decisions: DecisionSet,
    steps: u64,
}

impl<A: Automaton> AgreementInstance<A>
where
    A::Value: Clone + Eq + Debug,
{
    /// Creates a driver for the given automata. The shared memory is sized
    /// to the union of the automata's declared layouts.
    pub fn new(automata: Vec<A>) -> Self {
        let layout = automata
            .iter()
            .map(|a| a.layout())
            .fold(MemoryLayout::default(), |acc, l| acc.union(&l));
        AgreementInstance {
            memory: SimMemory::for_layout(&layout),
            automata,
            decisions: DecisionSet::new(),
            steps: 0,
        }
    }

    /// The number of processes.
    pub fn process_count(&self) -> usize {
        self.automata.len()
    }

    /// `true` once every process has halted.
    pub fn all_halted(&self) -> bool {
        self.automata.iter().all(|a| a.is_halted())
    }

    /// The decisions recorded so far.
    pub fn decisions(&self) -> &DecisionSet {
        &self.decisions
    }

    /// The number of steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Lets `process` perform its poised operation. Returns `None` if the
    /// process has halted (or the id is out of range).
    ///
    /// # Panics
    ///
    /// Panics if the process issues an operation outside the memory layout —
    /// a protocol bug, not a schedulable condition.
    pub fn step(&mut self, process: ProcessId) -> Option<StepOutcome> {
        let automaton = self.automata.get_mut(process.index())?;
        let op = automaton.poised()?;
        let op_kind = op.kind();
        let response = self
            .memory
            .apply(op)
            .unwrap_or_else(|e| panic!("{process} issued an out-of-layout operation: {e}"));
        let decisions = automaton.apply(response);
        self.decisions
            .record_all(process, decisions.iter().copied());
        self.steps += 1;
        Some(StepOutcome {
            op_kind,
            halted: self.automata[process.index()].is_halted(),
            decisions,
        })
    }

    /// Cycles over the live processes for at most `budget` steps (stopping
    /// early once everyone halts) and returns the number of steps taken.
    ///
    /// This is bounded *contention*, not a termination schedule: an
    /// m-obstruction-free algorithm owes no progress while more than `m`
    /// processes keep taking steps.
    pub fn run_round_robin(&mut self, budget: u64) -> u64 {
        let n = self.automata.len();
        let mut taken = 0;
        let mut idle = 0;
        let mut next = 0;
        while taken < budget && idle < n {
            if self.step(ProcessId(next)).is_some() {
                taken += 1;
                idle = 0;
            } else {
                idle += 1;
            }
            next = (next + 1) % n.max(1);
        }
        taken
    }

    /// Runs `process` alone until it halts or `budget` steps elapse;
    /// returns `true` if it halted. Obstruction-freedom guarantees a solo
    /// run terminates, so a sufficient budget always returns `true`.
    pub fn run_solo(&mut self, process: ProcessId, budget: u64) -> bool {
        for _ in 0..budget {
            if self.step(process).is_none() {
                return true;
            }
        }
        self.automata
            .get(process.index())
            .is_none_or(|a| a.is_halted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OneShotSetAgreement, RepeatedSetAgreement};
    use sa_model::Params;

    fn oneshot_system(params: Params) -> AgreementInstance<OneShotSetAgreement> {
        AgreementInstance::new(
            (0..params.n())
                .map(|p| OneShotSetAgreement::new(params, ProcessId(p), 100 + p as u64))
                .collect(),
        )
    }

    #[test]
    fn solo_runs_terminate_and_agree() {
        let params = Params::new(5, 2, 3).unwrap();
        let mut instance = oneshot_system(params);
        instance.run_round_robin(40);
        for p in 0..params.n() {
            assert!(
                instance.run_solo(ProcessId(p), 100_000),
                "p{p} did not halt"
            );
        }
        assert!(instance.all_halted());
        assert_eq!(instance.decisions().deciders(1), params.n());
        assert!(instance.decisions().distinct_outputs(1) <= params.k());
        for value in instance.decisions().outputs(1) {
            assert!((100..100 + params.n() as u64).contains(&value));
        }
    }

    #[test]
    fn round_robin_respects_the_budget_and_stops_when_halted() {
        let params = Params::new(4, 1, 2).unwrap();
        let mut instance = oneshot_system(params);
        assert_eq!(instance.run_round_robin(7), 7);
        assert_eq!(instance.steps(), 7);
        for p in 0..params.n() {
            instance.run_solo(ProcessId(p), 100_000);
        }
        let done = instance.steps();
        assert_eq!(instance.run_round_robin(50), 0);
        assert_eq!(instance.steps(), done);
    }

    #[test]
    fn repeated_instances_run_under_the_same_driver() {
        let params = Params::new(4, 1, 1).unwrap();
        let mut instance = AgreementInstance::new(
            (0..params.n())
                .map(|p| {
                    RepeatedSetAgreement::new(params, ProcessId(p), vec![10 + p as u64]).unwrap()
                })
                .collect(),
        );
        instance.run_round_robin(32);
        for p in 0..params.n() {
            assert!(instance.run_solo(ProcessId(p), 100_000));
        }
        assert_eq!(instance.decisions().distinct_outputs(1), 1);
    }

    #[test]
    fn stepping_a_halted_or_unknown_process_is_a_no_op() {
        let params = Params::new(3, 1, 2).unwrap();
        let mut instance = oneshot_system(params);
        assert!(instance.step(ProcessId(9)).is_none());
        instance.run_solo(ProcessId(0), 100_000);
        assert!(instance.step(ProcessId(0)).is_none());
        assert_eq!(instance.process_count(), 3);
    }
}
