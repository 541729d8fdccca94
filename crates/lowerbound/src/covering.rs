//! Executable witnesses of the covering lower-bound mechanism (Theorem 2).
//!
//! Theorem 2 proves that repeated `k`-set agreement needs `n + m − k`
//! registers by building an execution in which `c = ⌈(k+1)/m⌉` disjoint
//! groups of `m` processes each run essentially in isolation: every trace a
//! group leaves in shared memory is overwritten (by a block write) before the
//! next group looks, so each group decides its own `m` values and the
//! execution produces `k + 1` distinct outputs — a contradiction whenever an
//! algorithm uses too few registers.
//!
//! This module makes that mechanism executable against the paper's own
//! algorithms instantiated with **deliberately under-provisioned** snapshot
//! objects (`OneShotSetAgreement::deficient` and friends):
//!
//! * [`GroupSequentialScheduler`] — the adversary schedule of the
//!   construction, reduced to its essence: groups of `m` processes run one
//!   group at a time, so a group's writes are the only fresh traces the next
//!   group can see (and an under-provisioned object cannot retain older
//!   traces).
//! * [`attack_one_shot`] / [`attack_repeated`] — run the attack against a
//!   given width and report how many distinct values were output.
//! * [`minimal_resilient_width`] — the smallest width at which the attack no
//!   longer violates k-agreement, printed beside the paper's formulas by the
//!   `lower_bound_witness` binary and checked against the paper's width by
//!   the test `minimal_resilient_width_never_exceeds_paper_width`.
//! * [`exhaustive_violation`] — for tiny configurations, search **all**
//!   interleavings for an agreement violation of an under-provisioned
//!   variant using the bounded explorer.
//! * [`hand_built_witness`] — the construction re-expressed as a replayable
//!   [`Witness`] (schedule + goal + certificate): the group-sequential
//!   schedule is recorded step by step, the best covering configuration
//!   along it is certified, and the result is checked by the **same**
//!   replay verifier (`sa-search`'s [`verify`]) that checks machine-found
//!   witnesses — one verification path for both.

use sa_core::{OneShotSetAgreement, RepeatedSetAgreement};
use sa_model::{DecisionSet, Params, ProcessId};
use sa_runtime::{
    agreement_predicate, explore, Executor, Exploration, ExploreConfig, RunConfig, RunReport,
    Scheduler, SchedulerView, SearchGoal,
};
use sa_search::{goal_for, verify, Certificate, Witness};
use std::fmt;

/// The adversary schedule of the covering construction: processes are
/// partitioned into groups and scheduled one group at a time; **within** a
/// group, members also run one by one (each to completion before the next
/// starts), exactly like the fragments `γ_j` of the Theorem 2 proof, where
/// "the processes in `Q_j` run one by one until each completes its first `s`
/// invocations of Propose".
///
/// At every point at most one process is taking steps, so the schedule is
/// `m`-obstruction-free for every `m ≥ 1` and a correct algorithm must let
/// every scheduled process decide — which is exactly what the lower-bound
/// argument exploits.
#[derive(Debug, Clone)]
pub struct GroupSequentialScheduler {
    groups: Vec<Vec<ProcessId>>,
}

impl GroupSequentialScheduler {
    /// Creates the scheduler from an explicit partition into groups.
    pub fn new(groups: Vec<Vec<ProcessId>>) -> Self {
        GroupSequentialScheduler { groups }
    }

    /// Partitions processes `0..n` into consecutive groups of size `m` (the
    /// last group may be smaller) — the shape used by the Theorem 2
    /// construction.
    pub fn consecutive(n: usize, m: usize) -> Self {
        let mut groups = Vec::new();
        let mut next = 0;
        while next < n {
            let end = (next + m).min(n);
            groups.push((next..end).map(ProcessId).collect());
            next = end;
        }
        GroupSequentialScheduler::new(groups)
    }

    /// The group partition driven by this scheduler.
    pub fn groups(&self) -> &[Vec<ProcessId>] {
        &self.groups
    }
}

impl Scheduler for GroupSequentialScheduler {
    fn next(&mut self, view: &SchedulerView<'_>) -> Option<ProcessId> {
        for group in &self.groups {
            if let Some(pick) = group.iter().copied().find(|p| view.runnable.contains(p)) {
                return Some(pick);
            }
        }
        None
    }

    fn name(&self) -> &str {
        "group-sequential"
    }
}

/// The outcome of a covering attack against a (possibly under-provisioned)
/// algorithm instance.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// The problem parameters.
    pub params: Params,
    /// The snapshot width the attacked algorithm was instantiated with.
    pub width: usize,
    /// Every decision produced during the attack.
    pub decisions: DecisionSet,
    /// Total steps executed.
    pub steps: u64,
    /// `true` if every scheduled process halted within the step budget.
    pub completed: bool,
}

impl AttackOutcome {
    fn from_report(params: Params, width: usize, report: &RunReport) -> Self {
        AttackOutcome {
            params,
            width,
            decisions: report.decisions.clone(),
            steps: report.steps,
            completed: report.all_halted(),
        }
    }

    /// The largest number of distinct values output in any single instance.
    pub fn max_distinct_outputs(&self) -> usize {
        self.decisions
            .instances()
            .map(|i| self.decisions.distinct_outputs(i))
            .max()
            .unwrap_or(0)
    }

    /// `true` if some instance output more than `k` distinct values — the
    /// k-agreement violation the lower bound predicts for under-provisioned
    /// algorithms.
    pub fn violates_agreement(&self) -> bool {
        self.max_distinct_outputs() > self.params.k()
    }
}

impl fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "width {:>3}: {} distinct outputs (k = {}) in {} steps{}",
            self.width,
            self.max_distinct_outputs(),
            self.params.k(),
            self.steps,
            if self.violates_agreement() {
                " — VIOLATION"
            } else {
                ""
            }
        )
    }
}

/// Runs the covering attack against the **one-shot** algorithm of Figure 3
/// instantiated with `width` snapshot components. Process `p` proposes the
/// distinct value `100 + p`.
///
/// For widths below the paper's `n + 2m − k` the pigeonhole step of the
/// k-agreement proof fails and the attack typically produces more than `k`
/// distinct outputs; at the paper's width it never can.
pub fn attack_one_shot(params: Params, width: usize, max_steps: u64) -> AttackOutcome {
    let automata: Vec<OneShotSetAgreement> = (0..params.n())
        .map(|p| {
            OneShotSetAgreement::deficient(params, ProcessId(p), 100 + p as u64, width)
                .expect("width is positive and ids are in range")
        })
        .collect();
    let mut exec = Executor::new(automata);
    let mut scheduler = GroupSequentialScheduler::consecutive(params.n(), params.m());
    let report = exec.run(&mut scheduler, RunConfig::with_max_steps(max_steps));
    AttackOutcome::from_report(params, width, &report)
}

/// Runs the covering attack against the **repeated** algorithm of Figure 4
/// with `instances` instances per process. Process `p` proposes
/// `100 · t + p` in its `t`-th instance, so inputs are distinct within every
/// instance.
pub fn attack_repeated(
    params: Params,
    width: usize,
    instances: usize,
    max_steps: u64,
) -> AttackOutcome {
    let automata: Vec<RepeatedSetAgreement> = (0..params.n())
        .map(|p| {
            let inputs: Vec<_> = (1..=instances as u64).map(|t| 100 * t + p as u64).collect();
            RepeatedSetAgreement::deficient(params, ProcessId(p), inputs, width)
                .expect("width is positive and ids are in range")
        })
        .collect();
    let mut exec = Executor::new(automata);
    let mut scheduler = GroupSequentialScheduler::consecutive(params.n(), params.m());
    let report = exec.run(&mut scheduler, RunConfig::with_max_steps(max_steps));
    AttackOutcome::from_report(params, width, &report)
}

/// Sweeps the one-shot attack over widths `1..=params.snapshot_components()`
/// and returns one outcome per width, in increasing width order. Used by the
/// `lower_bound_witness` binary and the space benches.
pub fn width_sweep_one_shot(params: Params, max_steps: u64) -> Vec<AttackOutcome> {
    (1..=params.snapshot_components())
        .map(|width| attack_one_shot(params, width, max_steps))
        .collect()
}

/// The smallest snapshot width at which the covering attack no longer
/// violates k-agreement for the one-shot algorithm.
///
/// This is an **empirical** quantity for one specific adversary, so it is a
/// lower estimate of the true requirement; the paper's guarantee is that it
/// can never exceed `n + 2m − k` (at that width the algorithm is proven
/// correct against *every* adversary).
pub fn minimal_resilient_width(params: Params, max_steps: u64) -> usize {
    for outcome in width_sweep_one_shot(params, max_steps) {
        if !outcome.violates_agreement() {
            return outcome.width;
        }
    }
    params.snapshot_components()
}

/// Builds the Theorem 2 construction as a replayable [`Witness`]: runs the
/// one-shot algorithm at `width` snapshot components under the
/// group-sequential adversary, recording the exact schedule, and certifies
/// the best `goal` configuration encountered along it (most registers
/// charged, then widest covering, then shallowest — the same order the
/// machine search uses).
///
/// The returned witness has already been checked by the shared replay
/// verifier, so it is interchangeable with a machine-found one: same
/// format, same certificate semantics, same verification path. Returns
/// `None` when no configuration along the schedule exhibits the goal
/// within `max_steps` (e.g. `BlockWrite` at width 1 before any write
/// lands).
///
/// # Panics
///
/// Panics if the freshly recorded witness fails replay verification —
/// that would mean the construction and the verifier disagree, which is a
/// bug, not a caller error.
pub fn hand_built_witness(
    params: Params,
    width: usize,
    goal: SearchGoal,
    max_steps: u64,
) -> Option<Witness> {
    let build = || -> Executor<OneShotSetAgreement> {
        let automata: Vec<OneShotSetAgreement> = (0..params.n())
            .map(|p| {
                OneShotSetAgreement::deficient(params, ProcessId(p), 100 + p as u64, width)
                    .expect("width is positive and ids are in range")
            })
            .collect();
        Executor::new(automata)
    };
    let evaluator = goal_for::<OneShotSetAgreement>(goal);
    let mut exec = build();
    let mut scheduler = GroupSequentialScheduler::consecutive(params.n(), params.m());
    let mut schedule: Vec<ProcessId> = Vec::new();
    // best = (registers, registers_covered, schedule prefix, measure): the
    // earliest prefix wins ties because later equal measures never replace
    // an earlier one.
    let mut best: Option<(usize, usize, usize, Certificate)> = None;
    let mut consider = |depth: usize, exec: &Executor<OneShotSetAgreement>| {
        if let Some(measure) = evaluator.evaluate(exec) {
            let key = (measure.registers, measure.registers_covered);
            if best.as_ref().is_none_or(|(r, c, _, _)| key > (*r, *c)) {
                let cert = Certificate::from_measure(goal, depth as u64, measure);
                best = Some((key.0, key.1, depth, cert));
            }
        }
    };
    consider(0, &exec);
    while (schedule.len() as u64) < max_steps {
        let runnable = exec.runnable();
        let view = SchedulerView {
            step: schedule.len() as u64,
            runnable: &runnable,
        };
        let Some(process) = scheduler.next(&view) else {
            break;
        };
        exec.step(process);
        schedule.push(process);
        consider(schedule.len(), &exec);
    }
    let (_, _, depth, certificate) = best?;
    schedule.truncate(depth);
    let witness = Witness {
        goal,
        schedule,
        certificate,
    };
    verify(&build(), &witness)
        .expect("a freshly recorded construction must replay to its own certificate");
    Some(witness)
}

/// Exhaustively searches every interleaving (up to `config.max_depth` steps)
/// of the one-shot algorithm instantiated with `width` components for a
/// k-agreement violation. Only feasible for very small `(n, m, k)`.
pub fn exhaustive_violation(params: Params, width: usize, config: ExploreConfig) -> Exploration {
    let automata: Vec<OneShotSetAgreement> = (0..params.n())
        .map(|p| {
            OneShotSetAgreement::deficient(params, ProcessId(p), 100 + p as u64, width)
                .expect("width is positive and ids are in range")
        })
        .collect();
    let exec = Executor::new(automata);
    explore(&exec, config, agreement_predicate(params.k()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_groups_partition_all_processes() {
        let sched = GroupSequentialScheduler::consecutive(7, 3);
        assert_eq!(sched.groups().len(), 3);
        assert_eq!(sched.groups()[0].len(), 3);
        assert_eq!(sched.groups()[2], vec![ProcessId(6)]);
        let total: usize = sched.groups().iter().map(|g| g.len()).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn scheduler_prefers_earliest_unfinished_group() {
        let mut sched = GroupSequentialScheduler::new(vec![
            vec![ProcessId(0), ProcessId(1)],
            vec![ProcessId(2)],
        ]);
        // While p0/p1 are runnable the scheduler never picks p2.
        let runnable = vec![ProcessId(0), ProcessId(1), ProcessId(2)];
        for _ in 0..10 {
            let view = SchedulerView {
                step: 0,
                runnable: &runnable,
            };
            let pick = sched.next(&view).unwrap();
            assert_ne!(pick, ProcessId(2));
        }
        // Once group 0 has halted, p2 runs.
        let runnable = vec![ProcessId(2)];
        let view = SchedulerView {
            step: 0,
            runnable: &runnable,
        };
        assert_eq!(sched.next(&view), Some(ProcessId(2)));
        assert_eq!(sched.name(), "group-sequential");
    }

    #[test]
    fn scheduler_exhausts_when_nothing_is_runnable() {
        let mut sched = GroupSequentialScheduler::consecutive(3, 1);
        let view = SchedulerView {
            step: 0,
            runnable: &[],
        };
        assert_eq!(sched.next(&view), None);
    }

    #[test]
    fn under_provisioned_consensus_is_defeated() {
        // Obstruction-free consensus among 3 processes with only 2 components
        // (below both n + 2m - k = 4 and the repeated lower bound n + m - k = 3).
        let params = Params::new(3, 1, 1).unwrap();
        let outcome = attack_one_shot(params, 2, 100_000);
        assert!(outcome.completed, "attack did not finish");
        assert!(
            outcome.violates_agreement(),
            "expected a violation: {outcome}"
        );
    }

    #[test]
    fn paper_width_resists_the_attack() {
        for (n, m, k) in [(3, 1, 1), (4, 1, 2), (5, 2, 3), (6, 2, 2)] {
            let params = Params::new(n, m, k).unwrap();
            let outcome = attack_one_shot(params, params.snapshot_components(), 500_000);
            assert!(
                outcome.completed,
                "attack did not finish for n={n} m={m} k={k}"
            );
            assert!(
                !outcome.violates_agreement(),
                "paper width violated agreement: {outcome}"
            );
        }
    }

    #[test]
    fn repeated_attack_defeats_single_component() {
        let params = Params::new(4, 1, 2).unwrap();
        let outcome = attack_repeated(params, 1, 2, 200_000);
        assert!(outcome.completed);
        assert!(outcome.violates_agreement(), "{outcome}");
    }

    #[test]
    fn repeated_attack_at_paper_width_is_safe() {
        let params = Params::new(4, 1, 2).unwrap();
        let outcome = attack_repeated(params, params.snapshot_components(), 3, 500_000);
        assert!(outcome.completed);
        assert!(!outcome.violates_agreement(), "{outcome}");
    }

    #[test]
    fn minimal_resilient_width_never_exceeds_paper_width() {
        for (n, m, k) in [(3, 1, 1), (4, 1, 2), (4, 2, 3), (5, 2, 3)] {
            let params = Params::new(n, m, k).unwrap();
            let width = minimal_resilient_width(params, 300_000);
            assert!(
                width <= params.snapshot_components(),
                "resilient width {width} exceeds paper width for n={n} m={m} k={k}"
            );
            assert!(width >= 1);
        }
    }

    #[test]
    fn width_sweep_is_ordered_and_complete() {
        let params = Params::new(4, 1, 2).unwrap();
        let sweep = width_sweep_one_shot(params, 100_000);
        assert_eq!(sweep.len(), params.snapshot_components());
        for (i, outcome) in sweep.iter().enumerate() {
            assert_eq!(outcome.width, i + 1);
        }
        // The rendering mentions the width and the verdict.
        assert!(sweep[0].to_string().contains("width"));
    }

    #[test]
    fn exhaustive_search_finds_violation_in_tiny_config() {
        // 2 processes, consensus, a single component: some interleaving must
        // produce two distinct outputs.
        let params = Params::new(2, 1, 1).unwrap();
        let result = exhaustive_violation(params, 1, ExploreConfig::with_depth(40));
        assert!(result.violation.is_some(), "no violation found: {result:?}");
    }

    #[test]
    fn hand_built_witnesses_reach_the_paper_register_count() {
        // At the paper's width the group-sequential construction commits
        // exactly n + 2m − k registers (written or covered) — the count the
        // Theorem 2 argument charges — for both witness goals.
        for (n, m, k) in [(2, 1, 1), (3, 1, 2), (3, 1, 1), (4, 1, 2)] {
            let params = Params::new(n, m, k).unwrap();
            let width = params.snapshot_components();
            for goal in [SearchGoal::Covering, SearchGoal::BlockWrite] {
                let witness = hand_built_witness(params, width, goal, 10_000)
                    .unwrap_or_else(|| panic!("no {} witness for n={n} m={m} k={k}", goal.label()));
                assert_eq!(
                    witness.certificate.registers,
                    width,
                    "n={n} m={m} k={k} {}: {}",
                    goal.label(),
                    witness
                );
                assert_eq!(witness.schedule.len() as u64, witness.certificate.depth);
            }
        }
    }

    #[test]
    fn hand_built_witnesses_replay_through_the_shared_verifier() {
        let params = Params::new(3, 1, 1).unwrap();
        let width = params.snapshot_components();
        let witness = hand_built_witness(params, width, SearchGoal::BlockWrite, 10_000).unwrap();
        let initial = |width: usize| {
            let automata: Vec<OneShotSetAgreement> = (0..params.n())
                .map(|p| {
                    OneShotSetAgreement::deficient(params, ProcessId(p), 100 + p as u64, width)
                        .unwrap()
                })
                .collect();
            Executor::new(automata)
        };
        // The emitted witness re-verifies from a fresh initial configuration.
        let replayed = verify(&initial(width), &witness).expect("hand-built witness must verify");
        assert_eq!(replayed, witness.certificate);
        // A tampered certificate is caught by the same path.
        let mut tampered = witness.clone();
        tampered.certificate.registers += 1;
        assert!(matches!(
            verify(&initial(width), &tampered),
            Err(sa_search::VerifyError::CertificateMismatch { .. })
        ));
        // Replaying against the wrong initial configuration is caught too.
        assert!(verify(&initial(1), &witness).is_err());
    }

    #[test]
    fn hand_built_witness_is_none_before_any_write_lands() {
        // With a zero step budget nothing has been written yet, so no
        // covered location can already carry information: no block-write
        // witness exists (while a bare covering does — all processes start
        // poised to update component 0).
        let params = Params::new(3, 1, 1).unwrap();
        let width = params.snapshot_components();
        assert!(hand_built_witness(params, width, SearchGoal::BlockWrite, 0).is_none());
        let covering = hand_built_witness(params, width, SearchGoal::Covering, 0).unwrap();
        assert_eq!(covering.certificate.depth, 0);
        assert_eq!(covering.schedule, Vec::<ProcessId>::new());
    }

    #[test]
    fn exhaustive_search_verifies_paper_width_in_tiny_config() {
        let params = Params::new(2, 1, 1).unwrap();
        let result = exhaustive_violation(
            params,
            params.snapshot_components(),
            ExploreConfig::with_depth(24),
        );
        assert!(
            result.violation.is_none(),
            "unexpected violation: {result:?}"
        );
    }
}
