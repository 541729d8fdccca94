//! The deterministic goal-directed search driver.
//!
//! A level-synchronized breadth-first search over schedule space, run on
//! the exhaustive explorers' own breadth-first kernel ([`Bfs`]): the same
//! parallel level expansion, sharded seen-set of (optionally
//! symmetry-canonicalized) 128-bit `StateKey`s and
//! lexicographically-smallest-schedule merge as
//! [`parallel_explore`](sa_runtime::parallel_explore). The driver adds only
//! its barrier policy: new configurations are admitted in schedule order
//! until the state budget runs out, each admitted one is evaluated against
//! the configured [`WitnessGoal`](crate::goal::WitnessGoal), and the best
//! witness is kept under a total order — most registers, then widest
//! covering, then shallowest depth, then lexicographically smallest
//! schedule. The report (and the campaign JSONL built from it) is
//! therefore **byte-identical at any thread count**.
//!
//! The search expands every enabled transition of every admitted
//! configuration.

use crate::goal::{goal_for, GoalMeasure};
use crate::witness::{verify, Certificate, Witness};
use sa_model::{Automaton, ProcessId};
use sa_runtime::{Bfs, Executor, SearchConfig, SearchGoal};
use std::fmt::Debug;
use std::hash::Hash;

/// Why an adversary search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStop {
    /// A witness with at least `target_registers` registers was found (the
    /// level it was found in was finished first, so the result is the best
    /// witness of that level).
    TargetReached,
    /// Every reachable configuration within the depth bound was visited.
    StateSpaceExhausted,
    /// A state or depth budget ran out while work remained.
    Truncated,
}

impl SearchStop {
    /// A short identifier used in records and reports.
    pub fn label(&self) -> &'static str {
        match self {
            SearchStop::TargetReached => "target-reached",
            SearchStop::StateSpaceExhausted => "state-space-exhausted",
            SearchStop::Truncated => "truncated",
        }
    }
}

/// The result of one adversary search.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// The goal that was searched for.
    pub goal: SearchGoal,
    /// The register target (`0` = none: search the whole budgeted space).
    pub target_registers: usize,
    /// The worker threads the levels were expanded over.
    pub threads: usize,
    /// Distinct configurations visited (orbit representatives under
    /// symmetry reduction).
    pub states_visited: u64,
    /// The deepest BFS level a first-visit configuration was found at.
    pub max_depth_reached: u64,
    /// `true` if a budget ran out while unexplored work remained.
    pub truncated: bool,
    /// `true` if the target register count was reached.
    pub target_reached: bool,
    /// `true` if configurations were canonicalized up to process-id orbits
    /// before deduplication.
    pub symmetry_applied: bool,
    /// Successor expansions performed.
    pub expansions: u64,
    /// Why the search stopped.
    pub stop: SearchStop,
    /// The best witness found, if any.
    pub witness: Option<Witness>,
    /// `true` if the emitted witness (when there is one) replayed to an
    /// identical certificate — the driver's own verification pass.
    pub verified: bool,
}

/// `true` when `candidate` beats `best` under the witness order: most
/// registers, then widest covering, then shallowest, then lexicographically
/// smallest schedule.
fn better(candidate: &Witness, best: &Witness) -> bool {
    let rank = |w: &Witness| {
        let c = &w.certificate;
        (c.registers, c.registers_covered, std::cmp::Reverse(c.depth))
    };
    rank(candidate)
        .cmp(&rank(best))
        .then_with(|| best.schedule.cmp(&candidate.schedule))
        .is_gt()
}

/// Runs a goal-directed adversary search from `initial`.
///
/// The search visits configurations breadth-first up to
/// [`SearchConfig::max_depth`] steps and [`SearchConfig::max_states`]
/// distinct configurations, evaluating the goal on every first visit. Each
/// level's new configurations are admitted in schedule order, so a budget
/// that runs out mid-level keeps the level's lexicographically first ones.
/// With a non-zero [`SearchConfig::target_registers`] it stops at the end
/// of the first level containing a witness with at least that many
/// registers; otherwise it searches the whole budgeted space for the best
/// witness. The emitted witness is replay-verified before the report is
/// returned.
pub fn search<A>(initial: &Executor<A>, config: SearchConfig) -> SearchReport
where
    A: Automaton + Clone + Hash + Send + Sync,
    A::Value: Hash + Clone + Eq + Debug + Send + Sync,
{
    let goal = goal_for::<A>(config.goal);
    let threads = config.threads.max(1);
    let (mut bfs, mut level) = Bfs::new(initial, config.symmetry, threads);

    let mut best: Option<Witness> = None;
    let consider = |best: &mut Option<Witness>, schedule: Vec<ProcessId>, measure: GoalMeasure| {
        let depth = schedule.len() as u64;
        let candidate = Witness {
            goal: config.goal,
            schedule,
            certificate: Certificate::from_measure(config.goal, depth, measure),
        };
        if best.as_ref().is_none_or(|b| better(&candidate, b)) {
            *best = Some(candidate);
        }
    };

    // Depth 0: the initial configuration is visited (and measured) too.
    let mut states_visited: u64 = 1;
    if let Some(measure) = goal.evaluate(initial) {
        consider(&mut best, Vec::new(), measure);
    }
    let mut max_depth_reached: u64 = 0;
    let mut expansions: u64 = 0;
    let mut depth: u64 = 0;
    let stop = 'search: loop {
        let target_reached = config.target_registers > 0
            && best
                .as_ref()
                .is_some_and(|w| w.certificate.registers >= config.target_registers);
        if target_reached {
            break SearchStop::TargetReached;
        }
        if level.is_empty() {
            break SearchStop::StateSpaceExhausted;
        }
        if depth >= config.max_depth {
            break SearchStop::Truncated;
        }
        let expanded = bfs.expand(level, depth as usize, true, &|state| goal.evaluate(state));
        expansions += expanded.expansions;
        depth += 1;
        level = Vec::with_capacity(expanded.successors.len());
        for mut successor in expanded.successors {
            if states_visited >= config.max_states {
                break 'search SearchStop::Truncated;
            }
            states_visited += 1;
            max_depth_reached = depth;
            if let Some(measure) = successor.value.take() {
                consider(&mut best, bfs.schedule(&successor), measure);
            }
            level.push(bfs.commit(successor));
        }
    };

    let verified = match &best {
        Some(witness) => verify(initial, witness).is_ok(),
        None => true,
    };
    SearchReport {
        goal: config.goal,
        target_registers: config.target_registers,
        threads,
        states_visited,
        max_depth_reached,
        truncated: stop == SearchStop::Truncated,
        target_reached: stop == SearchStop::TargetReached,
        symmetry_applied: bfs.symmetry_applied(),
        expansions,
        stop,
        witness: best,
        verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_runtime::toy::ToyWriter;
    use sa_runtime::SymmetryMode;

    #[test]
    fn symmetric_search_is_thread_invariant() {
        // A symmetric same-register pair (dependent, mergeable orbit) plus
        // an independent writer: symmetry engages, and the merged report
        // must stay byte-identical at any thread count.
        let exec = Executor::new(vec![
            ToyWriter::new(0, 7),
            ToyWriter::new(0, 7),
            ToyWriter::new(1, 9),
        ]);
        let config = SearchConfig {
            goal: SearchGoal::BlockWrite,
            max_depth: 32,
            max_states: 1_000_000,
            symmetry: SymmetryMode::ProcessIds,
            ..SearchConfig::default()
        };
        let serial = search(&exec, config);
        assert!(serial.symmetry_applied);
        for threads in [2, 8] {
            let parallel = search(&exec, SearchConfig { threads, ..config });
            assert_eq!(parallel.states_visited, serial.states_visited);
            assert_eq!(parallel.expansions, serial.expansions);
            assert_eq!(parallel.max_depth_reached, serial.max_depth_reached);
            assert_eq!(parallel.stop, serial.stop);
            let (a, b) = (&parallel.witness, &serial.witness);
            assert_eq!(
                a.as_ref().map(|w| (&w.schedule, &w.certificate)),
                b.as_ref().map(|w| (&w.schedule, &w.certificate)),
                "witness must be byte-identical at {threads} threads"
            );
        }
    }

    #[test]
    fn state_budget_truncates_identically_at_any_thread_count() {
        // The 4/1/3 anonymous one-shot cell under process-id symmetry, with
        // no target: the budget admits exactly `max_states` states, in
        // schedule order, and every count and the witness are the same at
        // any worker count.
        use sa_core::AnonymousSetAgreement;
        use sa_model::Params;
        let params = Params::new(4, 1, 3).unwrap();
        let exec = Executor::new(
            (0..4)
                .map(|p| AnonymousSetAgreement::one_shot(params, 100 + p as u64))
                .collect(),
        );
        let config = SearchConfig {
            max_states: 5_000,
            symmetry: SymmetryMode::ProcessIds,
            ..SearchConfig::default()
        };
        let serial = search(&exec, config);
        assert_eq!(serial.states_visited, 5_000);
        assert_eq!(serial.stop, SearchStop::Truncated);
        assert!(serial.truncated && serial.verified);
        assert_eq!((serial.max_depth_reached, serial.expansions), (12, 18_652));
        let witness = serial.witness.as_ref().expect("a covering is found");
        assert_eq!(
            (witness.schedule.len(), witness.certificate.registers),
            (9, 3)
        );
        for threads in [2, 8] {
            let parallel = search(&exec, SearchConfig { threads, ..config });
            assert_eq!(parallel.states_visited, serial.states_visited);
            assert_eq!(parallel.max_depth_reached, serial.max_depth_reached);
            assert_eq!(parallel.expansions, serial.expansions, "threads={threads}");
            assert_eq!(parallel.stop, serial.stop);
            assert_eq!(
                parallel
                    .witness
                    .as_ref()
                    .map(|w| (&w.schedule, &w.certificate)),
                Some((&witness.schedule, &witness.certificate)),
                "threads={threads}"
            );
        }
    }
}
