//! Executable witnesses of the cloning lower-bound mechanism (Lemma 9 /
//! Theorem 10).
//!
//! The anonymous lower bound argues about *clones*: because anonymous
//! processes are identically programmed, a process `p'` with the same input
//! as `p` that is scheduled immediately after every step of `p` performs
//! exactly the same steps — the two are indistinguishable to everyone,
//! including themselves. The proof of Lemma 9 parks clones just before
//! writes and later releases them as block writes that obliterate every
//! trace of a group's execution, letting `⌈(k+1)/m⌉` groups decide disjoint
//! value sets.
//!
//! This module provides:
//!
//! * [`LockstepScheduler`] — schedules designated clones immediately after
//!   their originals, producing the canonical cloned execution.
//! * [`clones_behave_identically`] — the executable form of the
//!   indistinguishability fact the proof relies on: in a lockstep run of the
//!   anonymous algorithm, a clone performs exactly the same operations and
//!   reaches exactly the same decision as its original.
//! * [`clone_attack`] — the group-isolation attack of Theorem 10 run against
//!   under-provisioned instances of the anonymous algorithm of Figure 5,
//!   reporting how many distinct values are output.

use crate::covering::{AttackOutcome, GroupSequentialScheduler};
use sa_core::AnonymousSetAgreement;
use sa_model::{Params, ProcessId};
use sa_runtime::{Executor, RunConfig, Scheduler, SchedulerView};

/// Schedules each clone immediately after its original: whenever the original
/// takes a step, the clone takes its next step right afterwards, exactly the
/// "whenever p takes a step, p' takes an identical step immediately
/// afterwards" discipline of Section 5.
///
/// Processes that are neither originals nor clones are scheduled round-robin
/// in the remaining slots.
#[derive(Debug, Clone)]
pub struct LockstepScheduler {
    /// `pairs[i] = (original, clone)`.
    pairs: Vec<(ProcessId, ProcessId)>,
    /// Clones that owe a step (their original stepped more recently than they
    /// did).
    pending: Vec<ProcessId>,
    cursor: usize,
}

impl LockstepScheduler {
    /// Creates a lockstep scheduler for the given original/clone pairs.
    pub fn new(pairs: Vec<(ProcessId, ProcessId)>) -> Self {
        LockstepScheduler {
            pairs,
            pending: Vec::new(),
            cursor: 0,
        }
    }

    /// The original/clone pairs driven by this scheduler.
    pub fn pairs(&self) -> &[(ProcessId, ProcessId)] {
        &self.pairs
    }

    fn is_clone(&self, p: ProcessId) -> bool {
        self.pairs.iter().any(|(_, clone)| *clone == p)
    }
}

impl Scheduler for LockstepScheduler {
    fn next(&mut self, view: &SchedulerView<'_>) -> Option<ProcessId> {
        // A clone that owes a step goes first.
        while let Some(clone) = self.pending.first().copied() {
            if view.runnable.contains(&clone) {
                self.pending.remove(0);
                return Some(clone);
            }
            self.pending.remove(0);
        }
        // Otherwise schedule a non-clone round-robin; stepping an original
        // queues its clone.
        let candidates: Vec<ProcessId> = view
            .runnable
            .iter()
            .copied()
            .filter(|p| !self.is_clone(*p))
            .collect();
        if candidates.is_empty() {
            // Only clones remain runnable (their originals halted): let them
            // finish on their own.
            return view.runnable.first().copied();
        }
        let pick = candidates[self.cursor % candidates.len()];
        self.cursor = self.cursor.wrapping_add(1);
        if let Some((_, clone)) = self.pairs.iter().find(|(original, _)| *original == pick) {
            self.pending.push(*clone);
        }
        Some(pick)
    }

    fn name(&self) -> &str {
        "lockstep-clones"
    }
}

/// The observable behaviour of one process in a run: the sequence of
/// operation kinds it performed and the values it decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessBehaviour {
    /// Operation kinds in execution order.
    pub ops: Vec<sa_model::OpKind>,
    /// Decisions in the order they were produced.
    pub decisions: Vec<sa_model::Decision>,
}

/// Runs the **anonymous** one-shot algorithm with `n` processes where process
/// 1 is a clone of process 0 (same input), driving them in lockstep, and
/// returns the observable behaviour of the original and of the clone.
///
/// The pair of behaviours being equal is the indistinguishability property
/// that the cloning argument of Lemma 9 relies on.
pub fn lockstep_behaviours(params: Params, steps: u64) -> (ProcessBehaviour, ProcessBehaviour) {
    let automata: Vec<AnonymousSetAgreement> = (0..params.n())
        .map(|p| {
            // Processes 0 and 1 share an input; everyone else differs.
            let input = if p <= 1 { 500 } else { 600 + p as u64 };
            AnonymousSetAgreement::one_shot(params, input)
        })
        .collect();
    let mut exec = Executor::new(automata);
    let mut scheduler = LockstepScheduler::new(vec![(ProcessId(0), ProcessId(1))]);
    let report = exec.run(&mut scheduler, RunConfig::with_max_steps(steps).traced());
    let trace = report.trace.expect("trace recording was enabled");
    let behaviour_of = |p: ProcessId| ProcessBehaviour {
        ops: trace.steps_of(p).map(|e| e.op).collect(),
        decisions: report
            .decisions
            .instances()
            .filter_map(|i| {
                report
                    .decisions
                    .decision_of(p, i)
                    .map(|v| sa_model::Decision::new(i, v))
            })
            .collect(),
    };
    (behaviour_of(ProcessId(0)), behaviour_of(ProcessId(1)))
}

/// `true` if, in a lockstep run, the clone's observable behaviour is
/// identical to its original's — the executable core of the cloning
/// argument.
pub fn clones_behave_identically(params: Params, steps: u64) -> bool {
    let (original, clone) = lockstep_behaviours(params, steps);
    original == clone
}

/// Runs the group-isolation attack of Theorem 10 against the anonymous
/// algorithm of Figure 5 instantiated with `width` snapshot components.
/// Groups of `m` processes run one at a time with disjoint input sets; if
/// `width` is too small, a group cannot see `ℓ = n − k + m` copies of an
/// earlier group's value, so it never adopts and decides its own inputs —
/// producing more than `k` distinct outputs overall.
pub fn clone_attack(params: Params, width: usize, max_steps: u64) -> AttackOutcome {
    let automata: Vec<AnonymousSetAgreement> = (0..params.n())
        .map(|p| {
            AnonymousSetAgreement::deficient(params, vec![100 + p as u64], width)
                .expect("width is positive and inputs are non-empty")
        })
        .collect();
    let mut exec = Executor::new(automata);
    let mut scheduler = GroupSequentialScheduler::consecutive(params.n(), params.m());
    let report = exec.run(&mut scheduler, RunConfig::with_max_steps(max_steps));
    AttackOutcome {
        params,
        width,
        decisions: report.decisions.clone(),
        steps: report.steps,
        completed: report.all_halted(),
    }
}

/// Sweeps the anonymous attack over widths `1..=max_width`.
pub fn clone_attack_sweep(params: Params, max_width: usize, max_steps: u64) -> Vec<AttackOutcome> {
    (1..=max_width)
        .map(|width| clone_attack(params, width, max_steps))
        .collect()
}

/// The smallest width at which the anonymous group-isolation attack no longer
/// violates k-agreement. The `lower_bound_witness` binary prints it beside
/// `√(m(n/k − 2))` (the Theorem 10 bound) and `(m+1)(n−k) + m²` (the
/// Theorem 11 width, which it can never exceed); the test
/// `resilient_width_sits_between_the_paper_bounds` checks the latter.
pub fn minimal_resilient_anonymous_width(params: Params, max_steps: u64) -> usize {
    for outcome in clone_attack_sweep(params, params.anonymous_snapshot_components(), max_steps) {
        if !outcome.violates_agreement() {
            return outcome.width;
        }
    }
    params.anonymous_snapshot_components()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_scheduler_steps_clone_right_after_original() {
        let mut sched = LockstepScheduler::new(vec![(ProcessId(0), ProcessId(1))]);
        let runnable = vec![ProcessId(0), ProcessId(1), ProcessId(2)];
        let view = |step| SchedulerView {
            step,
            runnable: &runnable,
        };
        let mut picks = Vec::new();
        for step in 0..6 {
            picks.push(sched.next(&view(step)).unwrap());
        }
        // Whenever p0 appears, p1 follows immediately.
        for window in picks.windows(2) {
            if window[0] == ProcessId(0) {
                assert_eq!(window[1], ProcessId(1), "clone did not follow: {picks:?}");
            }
        }
        assert!(picks.contains(&ProcessId(2)));
        assert_eq!(sched.pairs().len(), 1);
        assert_eq!(sched.name(), "lockstep-clones");
    }

    #[test]
    fn lockstep_scheduler_lets_orphaned_clones_finish() {
        let mut sched = LockstepScheduler::new(vec![(ProcessId(0), ProcessId(1))]);
        // Only the clone is still runnable.
        let runnable = vec![ProcessId(1)];
        let view = SchedulerView {
            step: 0,
            runnable: &runnable,
        };
        assert_eq!(sched.next(&view), Some(ProcessId(1)));
    }

    #[test]
    fn clones_are_indistinguishable_in_lockstep_runs() {
        for (n, m, k) in [(4, 1, 2), (5, 2, 3)] {
            let params = Params::new(n, m, k).unwrap();
            assert!(
                clones_behave_identically(params, 50_000),
                "clone diverged for n={n} m={m} k={k}"
            );
        }
    }

    #[test]
    fn lockstep_behaviours_are_nonempty() {
        let params = Params::new(4, 1, 2).unwrap();
        let (original, clone) = lockstep_behaviours(params, 50_000);
        assert!(!original.ops.is_empty());
        assert_eq!(original.ops.len(), clone.ops.len());
    }

    #[test]
    fn under_provisioned_anonymous_algorithm_is_defeated() {
        // Anonymous 1-set agreement (consensus) among 4 processes with a
        // single component: groups decide their own values.
        let params = Params::new(4, 1, 1).unwrap();
        let outcome = clone_attack(params, 1, 200_000);
        assert!(outcome.completed, "attack did not finish");
        assert!(outcome.violates_agreement(), "{outcome}");
    }

    #[test]
    fn paper_width_resists_the_anonymous_attack() {
        for (n, m, k) in [(4, 1, 1), (4, 1, 2), (5, 2, 3)] {
            let params = Params::new(n, m, k).unwrap();
            let outcome = clone_attack(params, params.anonymous_snapshot_components(), 500_000);
            assert!(outcome.completed, "did not finish for n={n} m={m} k={k}");
            assert!(!outcome.violates_agreement(), "{outcome}");
        }
    }

    #[test]
    fn resilient_width_sits_between_the_paper_bounds() {
        for (n, m, k) in [(4, 1, 1), (5, 1, 2), (5, 2, 3)] {
            let params = Params::new(n, m, k).unwrap();
            let width = minimal_resilient_anonymous_width(params, 300_000);
            assert!(width >= 1);
            assert!(
                width <= params.anonymous_snapshot_components(),
                "resilient width exceeds Theorem 11 width for n={n} m={m} k={k}"
            );
        }
    }
}
