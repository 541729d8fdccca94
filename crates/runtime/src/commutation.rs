//! The dynamic commutation checker: an executable oracle for the static
//! independence relation.
//!
//! The serial explorer's persistent-set search
//! ([`ReductionMode::PersistentSets`](crate::ReductionMode)) closes its
//! persistent sets under, and prunes sleeping sibling orders of, every pair
//! of transitions whose poised operations [`sa_model::independent`] calls
//! independent. That relation is computed *statically* from op footprints —
//! if it ever called a non-commuting pair independent (say, after a new op
//! kind or a memory semantics change), the reduction would silently prune
//! reachable states. [`check_commutation`] closes that gap dynamically: it
//! walks the reachable configurations of a system and, for every enabled
//! pair the static analysis calls independent, executes **both orders**
//! from the same configuration and asserts the successors collapse to one
//! state key.
//!
//! The DPOR explorer's sleep sets also prune through a *state-conditional*
//! refinement — [`sa_memory::SimMemory::invisibly_independent`], which calls
//! same-value writes to one cell and already-present-value writes against a
//! reader independent in the state at hand — so the sweep audits that
//! relation too, at exactly the configurations it would be consulted from.
//!
//! The DPOR explorer additionally runs the same oracle inline in debug
//! builds (see [`orders_commute`]): every pair a sleep set actually retains
//! is checked at the very expansion that would prune unsoundly. This module
//! is the campaign-level sweep — it checks *all* independent pairs
//! everywhere, not just the ones a particular search happens to keep
//! asleep.

use crate::executor::Executor;
use crate::explore::{dfs, state_key, ExploreConfig};
use sa_model::{independent, Automaton, ProcessId};
use std::fmt::Debug;
use std::hash::Hash;

/// Bounds on a commutation sweep. The defaults match a medium exhaustive
/// cell; the sweep walks the same deduplicated state space an exploration
/// does, plus four extra steps per independent pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommutationConfig {
    /// Maximum schedule depth to walk.
    pub max_depth: u64,
    /// Maximum number of states to check before giving up.
    pub max_states: u64,
}

impl Default for CommutationConfig {
    fn default() -> Self {
        CommutationConfig {
            max_depth: 60,
            max_states: 100_000,
        }
    }
}

/// A pair the static analysis called independent whose two orders produced
/// **different** successor states — a witness that the footprint analysis
/// is unsound for this system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommutationViolation {
    /// The schedule reaching the configuration the pair diverges from.
    pub schedule: Vec<ProcessId>,
    /// The first process of the pair.
    pub first: ProcessId,
    /// The second process of the pair.
    pub second: ProcessId,
    /// The operation kind `first` was poised to perform.
    pub first_op: String,
    /// The operation kind `second` was poised to perform.
    pub second_op: String,
}

/// The result of a commutation sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommutationReport {
    /// Configurations walked.
    pub states_checked: u64,
    /// Statically-independent enabled pairs whose orders were executed.
    pub pairs_checked: u64,
    /// Enabled pairs the state-conditional invisible-write refinement
    /// ([`sa_memory::SimMemory::invisibly_independent`]) called independent
    /// where the static relation did not; each was executed in both orders
    /// from the very configuration the refinement judged.
    pub conditional_pairs_checked: u64,
    /// `true` if a bound cut the walk short of the full reachable space.
    pub truncated: bool,
    /// Every pair that failed to commute (empty on a sound relation).
    pub violations: Vec<CommutationViolation>,
}

impl CommutationReport {
    /// `true` if no independent pair failed to commute. A truncated pass is
    /// still a pass over everything walked — check
    /// [`truncated`](Self::truncated) separately when exhaustiveness
    /// matters.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// `true` if stepping `first` then `second` reaches the same configuration
/// as stepping `second` then `first` — the ground truth the static
/// independence relation predicts. Shared by [`check_commutation`] and the
/// explorers' debug-build inline oracle.
pub fn orders_commute<A>(state: &Executor<A>, first: ProcessId, second: ProcessId) -> bool
where
    A: Automaton + Clone + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    let mut ab = state.clone();
    ab.step(first);
    ab.step(second);
    let mut ba = state.clone();
    ba.step(second);
    ba.step(first);
    state_key(&ab) == state_key(&ba)
}

/// Walks the deduplicated reachable configurations of `initial` and, in
/// every one, executes both orders of every enabled pair the interference
/// analysis calls independent — statically via [`sa_model::independent`] or
/// conditionally via
/// [`invisibly_independent`](sa_memory::SimMemory::invisibly_independent)
/// judged at that very configuration — collecting the pairs whose orders
/// diverge.
///
/// The walk is [`explore`](crate::explore)'s plain DFS with no symmetry,
/// reduction or spill — the oracle must not trust the relation it is
/// auditing — and is deterministic: depth-first in process order, so a
/// violating system yields the same witness every run.
pub fn check_commutation<A>(initial: &Executor<A>, config: CommutationConfig) -> CommutationReport
where
    A: Automaton + Clone + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    let mut report = CommutationReport {
        states_checked: 0,
        pairs_checked: 0,
        conditional_pairs_checked: 0,
        truncated: false,
        violations: Vec::new(),
    };
    let walk = ExploreConfig {
        max_depth: config.max_depth,
        max_states: config.max_states,
        ..ExploreConfig::default()
    };
    let audit = |state: &Executor<A>, schedule: &[ProcessId], runnable: &[ProcessId]| {
        for (i, &p) in runnable.iter().enumerate() {
            // A process with no poised op contributes no footprint; there
            // is nothing to audit.
            let Some(op_p) = state.poised(p) else {
                continue;
            };
            for &q in &runnable[i + 1..] {
                let Some(op_q) = state.poised(q) else {
                    continue;
                };
                // Audit both faces of the interference analysis: the static
                // footprint relation and, where it declines, the
                // state-conditional invisible-write refinement judged at
                // exactly this configuration — the same disjunction the
                // DPOR explorer's sleep sets prune with.
                if independent(&op_p, &op_q) {
                    report.pairs_checked += 1;
                } else if state.memory().invisibly_independent(&op_p, &op_q) {
                    report.conditional_pairs_checked += 1;
                } else {
                    continue;
                }
                if !orders_commute(state, p, q) {
                    report.violations.push(CommutationViolation {
                        schedule: schedule.to_vec(),
                        first: p,
                        second: q,
                        first_op: op_p.kind().to_string(),
                        second_op: op_q.kind().to_string(),
                    });
                }
            }
        }
    };
    let walked = dfs(initial, walk, |_| None, audit);
    report.states_checked = walked.states_visited;
    report.truncated = walked.truncated;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{RacyConsensus, ToyWriter};

    #[test]
    fn independent_writers_commute_everywhere() {
        // Three writers on three distinct registers: every enabled pair is
        // independent, and every one must commute.
        let exec = Executor::new(vec![
            ToyWriter::new(0, 1),
            ToyWriter::new(1, 2),
            ToyWriter::new(2, 3),
        ]);
        let report = check_commutation(&exec, CommutationConfig::default());
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(!report.truncated);
        assert!(report.states_checked > 1);
        assert!(report.pairs_checked > 0, "independent pairs must be found");
    }

    #[test]
    fn racy_readers_commute_where_independent() {
        // RacyConsensus processes read the same register before writing it:
        // the read/read pairs are independent (and commute); the read/write
        // and write/write pairs are dependent and never audited.
        let exec = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 20),
        ]);
        let report = check_commutation(&exec, CommutationConfig::default());
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.pairs_checked > 0, "the read/read pair is audited");
    }

    #[test]
    fn dependent_orders_genuinely_diverge() {
        // The ground-truth helper distinguishes a dependent pair: two
        // writers racing on one register with different values do NOT
        // commute — which is exactly why `independent` keeps them apart.
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(0, 2)]);
        assert!(!orders_commute(&exec, ProcessId(0), ProcessId(1)));
        // Same values, though, collapse to one state either way.
        let same = Executor::new(vec![ToyWriter::new(0, 7), ToyWriter::new(0, 7)]);
        assert!(orders_commute(&same, ProcessId(0), ProcessId(1)));
    }

    #[test]
    fn conditional_pairs_are_audited() {
        // Two writers of the SAME value on one register: statically
        // dependent, but the invisible-write refinement calls them
        // independent — so the sweep must audit (and pass) them.
        let exec = Executor::new(vec![ToyWriter::new(0, 7), ToyWriter::new(0, 7)]);
        let report = check_commutation(&exec, CommutationConfig::default());
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(
            report.conditional_pairs_checked > 0,
            "the same-value write/write pair is conditionally independent"
        );
        // Different values stay dependent under both relations: nothing
        // conditional is audited and nothing can be (unsoundly) pruned.
        let racing = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(0, 2)]);
        let report = check_commutation(&racing, CommutationConfig::default());
        assert!(report.passed());
        assert_eq!(report.conditional_pairs_checked, 0);
    }

    #[test]
    fn state_budget_truncates() {
        let exec = Executor::new(vec![
            ToyWriter::new(0, 1),
            ToyWriter::new(1, 2),
            ToyWriter::new(2, 3),
        ]);
        let report = check_commutation(
            &exec,
            CommutationConfig {
                max_states: 2,
                ..CommutationConfig::default()
            },
        );
        assert!(report.truncated);
        assert_eq!(report.states_checked, 2);
    }

    #[test]
    fn sweep_counts_are_exact() {
        // Three writers on distinct registers: 27 reachable states (3
        // stages each), and every pair of poised ops is statically
        // independent.
        let writers = Executor::new(vec![
            ToyWriter::new(0, 1),
            ToyWriter::new(1, 2),
            ToyWriter::new(2, 3),
        ]);
        let report = check_commutation(&writers, CommutationConfig::default());
        assert_eq!(
            (
                report.states_checked,
                report.pairs_checked,
                report.conditional_pairs_checked,
                report.truncated
            ),
            (27, 36, 0, false)
        );
        // Two same-value writers on one register: one read/read pair is
        // statically independent, three write/write and write/read pairs
        // are conditionally independent.
        let same = Executor::new(vec![ToyWriter::new(0, 7), ToyWriter::new(0, 7)]);
        let report = check_commutation(&same, CommutationConfig::default());
        assert_eq!(
            (
                report.states_checked,
                report.pairs_checked,
                report.conditional_pairs_checked,
                report.truncated
            ),
            (9, 1, 3, false)
        );
        // The depth bound cuts the writers' walk short.
        let report = check_commutation(
            &writers,
            CommutationConfig {
                max_depth: 2,
                ..CommutationConfig::default()
            },
        );
        assert_eq!(
            (
                report.states_checked,
                report.pairs_checked,
                report.truncated
            ),
            (10, 24, true)
        );
    }
}
