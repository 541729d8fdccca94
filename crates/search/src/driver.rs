//! The deterministic goal-directed search driver.
//!
//! A level-synchronized breadth-first search over schedule space, built on
//! the same state machinery as the exhaustive explorers: configurations are
//! deduplicated by their (optionally symmetry-canonicalized) 128-bit
//! [`StateKey`] in a [`KeyTable`], every first-visited configuration is
//! evaluated against the configured
//! [`WitnessGoal`](crate::goal::WitnessGoal), and the best witness is kept
//! under a total order — most registers, then widest covering, then
//! shallowest depth, then lexicographically smallest schedule. Levels are
//! expanded in contiguous chunks across worker threads and merged back in
//! submission order, so the report (and the campaign JSONL built from it)
//! is **byte-identical at any thread count**; a serial search is simply the
//! one-chunk case of the same merge.
//!
//! The search expands every enabled transition of every first-visited
//! configuration: partial-order reduction lives only in the serial
//! exhaustive explorer, whose DPOR search needs a DFS path to backtrack
//! over.

use crate::goal::{goal_for, GoalMeasure};
use crate::witness::{verify, Certificate, Witness};
use sa_model::{Automaton, ProcessId};
use sa_runtime::store::KeyTable;
use sa_runtime::{keyed, Executor, SearchConfig, SearchGoal, StateKey, SymmetryPlan};
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

/// One expansion chunk's output: candidates plus the chunk's expansion
/// count.
type ChunkExpansion<A> = (Vec<Candidate<A>>, u64);

/// A successor produced by expanding one frontier entry.
struct Candidate<A: Automaton> {
    key: StateKey,
    state: Executor<A>,
    schedule: Vec<ProcessId>,
    hit: Option<GoalMeasure>,
}

/// One frontier entry: a configuration and the schedule reaching it.
struct Frontier<A: Automaton> {
    state: Executor<A>,
    schedule: Vec<ProcessId>,
}

/// `true` when `candidate` beats `best` under the witness order: most
/// registers, then widest covering, then shallowest, then lexicographically
/// smallest schedule.
fn better(candidate: &Witness, best: &Witness) -> bool {
    let c = &candidate.certificate;
    let b = &best.certificate;
    (
        c.registers,
        c.registers_covered,
        std::cmp::Reverse(c.depth),
        std::cmp::Reverse(candidate.schedule.clone()),
    ) > (
        b.registers,
        b.registers_covered,
        std::cmp::Reverse(b.depth),
        std::cmp::Reverse(best.schedule.clone()),
    )
}

/// Runs a goal-directed adversary search from `initial`.
///
/// The search visits configurations breadth-first up to
/// [`SearchConfig::max_depth`] steps and [`SearchConfig::max_states`]
/// distinct configurations, evaluating the goal on every first visit. With
/// a non-zero [`SearchConfig::target_registers`] it stops at the end of the
/// first level containing a witness with at least that many registers;
/// otherwise it searches the whole budgeted space for the best witness.
/// The emitted witness is replay-verified before the report is returned.
pub fn search<A>(initial: &Executor<A>, config: SearchConfig) -> SearchReport
where
    A: Automaton + Clone + Hash + Send + Sync,
    A::Value: Hash + Clone + Eq + Debug + Send + Sync,
{
    let plan = SymmetryPlan::for_executor(initial, config.symmetry);
    let goal = goal_for::<A>(config.goal);
    let threads = config.threads.max(1);

    let mut seen = KeyTable::new();
    let mut best: Option<Witness> = None;
    let mut states_visited: u64 = 0;
    let mut max_depth_reached: u64 = 0;
    let mut expansions: u64 = 0;
    let mut truncated = false;

    let consider = |best: &mut Option<Witness>, schedule: &[ProcessId], measure: GoalMeasure| {
        let candidate = Witness {
            goal: config.goal,
            schedule: schedule.to_vec(),
            certificate: Certificate::from_measure(config.goal, schedule.len() as u64, measure),
        };
        if best.as_ref().is_none_or(|b| better(&candidate, b)) {
            *best = Some(candidate);
        }
    };

    // Depth 0: the initial configuration is visited (and measured) too.
    seen.insert(keyed(initial, &plan).0);
    states_visited += 1;
    if let Some(measure) = goal.evaluate(initial) {
        consider(&mut best, &[], measure);
    }

    let mut frontier: Vec<Frontier<A>> = vec![Frontier {
        state: initial.clone(),
        schedule: Vec::new(),
    }];
    let mut depth: u64 = 0;
    let stop = loop {
        let target_reached = config.target_registers > 0
            && best
                .as_ref()
                .is_some_and(|w| w.certificate.registers >= config.target_registers);
        if target_reached {
            break SearchStop::TargetReached;
        }
        if frontier.is_empty() {
            break SearchStop::StateSpaceExhausted;
        }
        if depth >= config.max_depth {
            truncated = true;
            break SearchStop::Truncated;
        }

        // Expand the level in contiguous chunks, merged back in submission
        // order — the order is a pure function of the frontier, never of
        // the thread count.
        let chunk_count = threads.min(frontier.len());
        let chunk_size = frontier.len().div_ceil(chunk_count);
        let expand = |chunk: &[Frontier<A>]| -> ChunkExpansion<A> {
            let mut out = Vec::new();
            let mut stepped: u64 = 0;
            for entry in chunk {
                for process in entry.state.runnable() {
                    stepped += 1;
                    let mut successor = entry.state.clone();
                    successor.step(process);
                    let (key, _) = keyed(&successor, &plan);
                    let hit = goal.evaluate(&successor);
                    let mut next_schedule = Vec::with_capacity(entry.schedule.len() + 1);
                    next_schedule.extend_from_slice(&entry.schedule);
                    next_schedule.push(process);
                    out.push(Candidate {
                        key,
                        state: successor,
                        schedule: next_schedule,
                        hit,
                    });
                }
            }
            (out, stepped)
        };
        let merged: Vec<ChunkExpansion<A>> = if chunk_count == 1 {
            vec![expand(&frontier)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = frontier
                    .chunks(chunk_size)
                    .map(|chunk| scope.spawn(|| expand(chunk)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };

        depth += 1;
        let mut next: Vec<Frontier<A>> = Vec::new();
        let mut budget_hit = false;
        'merge: for (chunk, stepped) in merged {
            expansions += stepped;
            for candidate in chunk {
                if seen.contains(&candidate.key) {
                    continue;
                }
                if states_visited >= config.max_states {
                    budget_hit = true;
                    break 'merge;
                }
                seen.insert(candidate.key);
                states_visited += 1;
                max_depth_reached = depth;
                if let Some(measure) = candidate.hit {
                    consider(&mut best, &candidate.schedule, measure);
                }
                next.push(Frontier {
                    state: candidate.state,
                    schedule: candidate.schedule,
                });
            }
        }
        if budget_hit {
            truncated = true;
            break SearchStop::Truncated;
        }
        frontier = next;
    };

    let target_reached = stop == SearchStop::TargetReached;
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
        truncated,
        target_reached,
        symmetry_applied: plan.applied(),
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
}
