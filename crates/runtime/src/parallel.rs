//! The parallel exhaustive explorer, and the breadth-first kernel it
//! shares with the adversary search.
//!
//! [`parallel_explore`] checks the same property as [`explore`](crate::explore)
//! — a safety predicate in **every** reachable configuration — but spreads
//! the search over a pool of worker threads, which is what pushes exhaustive
//! verification past the cell sizes the serial depth-first explorer can
//! finish in a reasonable budget.
//!
//! # Design
//!
//! The search is a **level-synchronized breadth-first traversal**, run by
//! the [`Bfs`] kernel:
//!
//! * the current BFS level is the shared frontier: it sits behind one lock,
//!   and each worker takes up to 32 entries from it at a time, exiting when
//!   a take comes back empty;
//! * discovered successors are deduplicated against a **sharded seen-set**
//!   (shards selected by a [`StateKey`] prefix) holding the same
//!   collision-resistant 128-bit keys as the serial explorer;
//! * levels are separated by a barrier at which the caller's policy
//!   (violations and budgets here, admission and witnesses in
//!   `sa_search::search`) commits new states, in schedule order.
//!
//! # Determinism
//!
//! The report is **byte-identical at any thread count** — matching the sweep
//! engine's guarantee that parallelism changes wall-clock time, never
//! output. Every reported field is a pure function of the state space:
//!
//! * a state's BFS depth does not depend on which worker discovered it, so
//!   `states_visited`, `paths`, `max_depth_reached` and the memory
//!   statistics are fixed by the reachable state space and the budgets;
//! * when the same successor is discovered from several parents in one
//!   level, the **lexicographically smallest** schedule is kept (parents'
//!   schedules are final when their level expands, so by induction every
//!   state carries the lexicographically smallest of its shortest
//!   schedules);
//! * budgets are enforced at level barriers, so truncation decisions never
//!   depend on scheduling races;
//! * when a level discovers violations, the whole level is still finished
//!   and the violation with the lexicographically smallest schedule is
//!   reported — the first violation in breadth-first order, deterministic
//!   regardless of which worker stumbled on it first.
//!
//! Note the serial explorer visits states in depth-first order, so against
//! *violating* systems the two explorers may report different (both
//! correct) witness schedules, and `max_depth_reached`/`frontier_peak`
//! measure a stack rather than a level. On *verified* runs `states_visited`,
//! `verified` and the absence of a violation agree exactly; the
//! serial-vs-parallel equivalence suite pins that.

use crate::commutation::ReductionMode;
use crate::executor::Executor;
use crate::explore::{
    entry_bytes, keyed, replay, successors_of, Exploration, ExploredViolation, FrontierSemantics,
    StateKey, SymmetryMode, SymmetryPlan,
};
use crate::store::{KeyTable, ScheduleArena, SCHEDULE_ROOT};
use sa_model::{Automaton, ProcessId};
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of seen-set (and next-frontier) shards. A power of two so a
/// [`StateKey`] prefix selects a shard with a mask; 64 shards keep lock
/// contention negligible at any realistic worker count.
const SHARDS: usize = 64;

/// Entries a worker takes from the shared level at a time.
const CHUNK: usize = 32;

/// Configuration of a parallel bounded exploration.
///
/// Like the serial explorer, it always deduplicates: the sharded seen-set
/// *is* the shared search structure, and its keys are collision-resistant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelExploreConfig {
    /// Worker threads; 0 means one per available CPU. The result does not
    /// depend on this value — only the wall-clock time does.
    pub threads: usize,
    /// Maximum schedule depth (breadth-first radius) to explore.
    pub max_depth: u64,
    /// Maximum number of states to visit before giving up. Enforced at
    /// level granularity: a level in flight is always finished, so the
    /// count may overshoot by up to one level, but never silently — the
    /// report is marked truncated whenever unexplored work remains.
    pub max_states: u64,
    /// Whether to deduplicate up to process-id symmetry. Like everything
    /// else here, canonicalization is a pure function of the state, so the
    /// byte-identical-at-any-thread-count guarantee holds with symmetry on.
    /// Falls back to [`SymmetryMode::Off`] for automata that do not opt in
    /// (see [`SymmetryMode::ProcessIds`]).
    pub symmetry: SymmetryMode,
    /// The requested partial-order reduction; [`ReductionMode::Off`] is its
    /// only value, and this explorer always expands every enabled
    /// transition.
    pub reduction: ReductionMode,
    /// Whether the explorer may shed the executors of a frozen BFS level
    /// when the level exceeds
    /// [`max_resident_bytes`](Self::max_resident_bytes). A shed entry keeps
    /// only its schedule-arena node and orbit weight, and the worker that
    /// expands it rebuilds its executor by deterministic replay, so the
    /// report stays byte-identical with spill on or off — and still at any
    /// thread count — except for [`Exploration::spilled_entries`]. Nothing
    /// is written to disk, and the seen-set stays resident.
    pub spill: bool,
    /// A budget, in estimated deep bytes, on a resident BFS level. `0`
    /// means unlimited. Over budget: with [`spill`](Self::spill) the frozen
    /// level sheds its executors; without it the search deterministically
    /// truncates at the level barrier, reporting the pending count in
    /// [`Exploration::pending_at_exit`].
    pub max_resident_bytes: u64,
}

impl Default for ParallelExploreConfig {
    fn default() -> Self {
        ParallelExploreConfig {
            threads: 0,
            max_depth: 60,
            max_states: 2_000_000,
            symmetry: SymmetryMode::Off,
            reduction: ReductionMode::Off,
            spill: false,
            max_resident_bytes: 0,
        }
    }
}

impl ParallelExploreConfig {
    /// A config with the given worker count.
    pub fn with_threads(threads: usize) -> Self {
        ParallelExploreConfig {
            threads,
            ..ParallelExploreConfig::default()
        }
    }

    /// Resolves `threads = 0` to the machine's parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// The seen-set, sharded by key prefix so workers rarely contend on the
/// same lock. It stays resident: at 16 bytes per key it is small next to
/// the executors of a single level.
#[derive(Debug)]
struct ShardedSeen {
    shards: Vec<Mutex<KeyTable>>,
}

impl ShardedSeen {
    fn new() -> Self {
        ShardedSeen {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    fn shard(&self, index: usize) -> std::sync::MutexGuard<'_, KeyTable> {
        self.shards[index].lock().expect("seen shard poisoned")
    }

    fn contains(&self, key: &StateKey) -> bool {
        self.shard(key.shard(SHARDS)).contains(key)
    }

    fn insert(&self, key: StateKey) -> bool {
        self.shard(key.shard(SHARDS)).insert(key)
    }

    /// The number of keys held, over every shard.
    fn len(&self) -> u64 {
        (0..SHARDS)
            .map(|index| self.shard(index).len() as u64)
            .sum()
    }
}

/// One entry of a breadth-first level: a configuration awaiting expansion.
/// States are kept in their *original* labeling — canonical forms exist
/// only inside the dedup keys.
#[derive(Debug)]
pub struct BfsEntry<A: Automaton> {
    /// The configuration; `None` once shed to honor the resident budget —
    /// the worker that expands the entry rebuilds it by replaying `node`.
    state: Option<Executor<A>>,
    /// Schedule-arena node of the delta-encoded path that produced it, the
    /// lexicographically smallest among its shortest schedules.
    node: u32,
    /// Orbit-size lower bound.
    orbit_lower: u64,
}

/// A successor found by [`Bfs::expand`] and not yet committed: the retained
/// configuration of one new dedup key.
///
/// With symmetry on, several *distinct* configurations of one orbit can be
/// discovered under the same canonical key in one level; the kernel keeps
/// the one whose schedule is lexicographically smallest (state, schedule,
/// weight, bytes and value are always replaced together, so the retained
/// successor stays consistent and deterministic). All orbit members have
/// relabel-identical futures and identical predicate verdicts, so which one
/// expands cannot change any reported verdict — only the
/// (deterministically chosen) witness labels.
#[derive(Debug)]
pub struct BfsSuccessor<A: Automaton, V> {
    /// The caller's per-state value of the retained configuration: a
    /// predicate's verdict, a goal's measure.
    pub value: V,
    /// The retained configuration's deep-byte frontier charge.
    pub(crate) bytes: u64,
    key: StateKey,
    state: Executor<A>,
    /// The parent's position in its (schedule-ordered) level: successors
    /// order by `(rank, step)` exactly as their schedules order.
    rank: usize,
    parent: u32,
    step: ProcessId,
    orbit_lower: u64,
}

/// One expanded level; see [`Bfs::expand`].
#[derive(Debug)]
pub struct BfsLevel<A: Automaton, V> {
    /// One successor per dedup key not seen before, in schedule order.
    pub successors: Vec<BfsSuccessor<A, V>>,
    /// Successor configurations generated (one per expanded transition).
    pub expansions: u64,
    /// Entries that ended a path: halted, or in a level not expanded.
    pub(crate) terminal: u64,
    /// `true` if an entry of a level not expanded could still step.
    pub(crate) depth_cut: bool,
}

/// The level-synchronized breadth-first kernel shared by
/// [`parallel_explore`] and the adversary search (`sa_search::search`).
///
/// The kernel owns the traversal's symmetry plan, its sharded seen-set and
/// its schedule arena. [`expand`](Self::expand) expands one level on the
/// worker pool and returns its new successors; the caller's barrier policy
/// decides which of them to [`commit`](Self::commit) into the next level.
#[derive(Debug)]
pub struct Bfs<'a, A: Automaton> {
    initial: &'a Executor<A>,
    plan: SymmetryPlan,
    threads: usize,
    seen: ShardedSeen,
    arena: ScheduleArena,
}

impl<'a, A> Bfs<'a, A>
where
    A: Automaton + Clone + Hash + Send + Sync,
    A::Value: Hash + Clone + Eq + Debug + Send + Sync,
{
    /// A traversal from `initial` on `threads` workers (at least one),
    /// deduplicating under `symmetry`, and its root level. The initial
    /// configuration's key is already seen.
    pub fn new(
        initial: &'a Executor<A>,
        symmetry: SymmetryMode,
        threads: usize,
    ) -> (Self, Vec<BfsEntry<A>>) {
        let plan = SymmetryPlan::for_executor(initial, symmetry);
        let seen = ShardedSeen::new();
        let (key, orbit_lower) = keyed(initial, &plan);
        seen.insert(key);
        let root = BfsEntry {
            state: Some(initial.clone()),
            node: SCHEDULE_ROOT,
            orbit_lower,
        };
        let bfs = Bfs {
            initial,
            plan,
            threads: threads.max(1),
            seen,
            arena: ScheduleArena::new(),
        };
        (bfs, vec![root])
    }

    /// `true` if configurations are deduplicated up to process-id symmetry
    /// (see [`SymmetryPlan::applied`]).
    pub fn symmetry_applied(&self) -> bool {
        self.plan.applied()
    }

    /// Expands `level`, whose entries are `depth` steps deep, across the
    /// worker pool; with `successors` off, entries are only classified.
    ///
    /// Each successor whose key is not yet seen is kept once per key: the
    /// one reached by the lexicographically smallest schedule. `value` is
    /// evaluated, in nondeterministic order, on first discovery and again
    /// whenever a smaller schedule replaces the kept state, so a returned
    /// value always describes its successor's state.
    pub fn expand<V, F>(
        &self,
        level: Vec<BfsEntry<A>>,
        depth: usize,
        successors: bool,
        value: &F,
    ) -> BfsLevel<A, V>
    where
        V: Send,
        F: Fn(&Executor<A>) -> V + Sync,
    {
        let next: Vec<Mutex<HashMap<StateKey, BfsSuccessor<A, V>>>> =
            (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect();
        let terminal = AtomicU64::new(0);
        let expansions = AtomicU64::new(0);
        let depth_cut = AtomicBool::new(false);
        // The shared iterator owns the level, so each entry's executor is
        // dropped as soon as a worker has expanded it.
        let level = Mutex::new(level.into_iter().enumerate());
        std::thread::scope(|scope| {
            for _ in 0..self.threads {
                scope.spawn(|| {
                    let tasks = std::iter::from_fn(|| {
                        let mut level = level.lock().expect("level poisoned");
                        let chunk: Vec<_> = level.by_ref().take(CHUNK).collect();
                        (!chunk.is_empty()).then_some(chunk)
                    });
                    for (rank, entry) in tasks.flatten() {
                        let state = entry.state.unwrap_or_else(|| {
                            replay(self.initial, self.arena.materialize(entry.node))
                        });
                        let runnable = state.runnable();
                        if runnable.is_empty() || !successors {
                            terminal.fetch_add(1, Ordering::Relaxed);
                            if !runnable.is_empty() {
                                depth_cut.store(true, Ordering::Relaxed);
                            }
                            continue;
                        }
                        expansions.fetch_add(runnable.len() as u64, Ordering::Relaxed);
                        for (step, successor) in successors_of(state, runnable) {
                            let (key, orbit_lower) = keyed(&successor, &self.plan);
                            if self.seen.contains(&key) {
                                continue;
                            }
                            let mut shard =
                                next[key.shard(SHARDS)].lock().expect("next shard poisoned");
                            // Same key, different parent: keep the
                            // lexicographically smallest schedule, so the
                            // retained successor never depends on timing.
                            if shard
                                .get(&key)
                                .is_some_and(|kept| (kept.rank, kept.step) < (rank, step))
                            {
                                continue;
                            }
                            let found = BfsSuccessor {
                                value: value(&successor),
                                bytes: entry_bytes(&successor, depth + 1),
                                key,
                                state: successor,
                                rank,
                                parent: entry.node,
                                step,
                                orbit_lower,
                            };
                            shard.insert(key, found);
                        }
                    }
                });
            }
        });
        let next: Vec<HashMap<StateKey, BfsSuccessor<A, V>>> = next
            .into_iter()
            .map(|shard| shard.into_inner().expect("next shard poisoned"))
            .collect();
        // One allocation at the level's exact size: growing the vector shard
        // by shard would briefly hold the old buffer and a larger new one.
        let mut found = Vec::with_capacity(next.iter().map(HashMap::len).sum());
        found.extend(next.into_iter().flat_map(HashMap::into_values));
        found.sort_unstable_by_key(|s| (s.rank, s.step));
        BfsLevel {
            successors: found,
            expansions: expansions.into_inner(),
            terminal: terminal.into_inner(),
            depth_cut: depth_cut.into_inner(),
        }
    }

    /// Commits `successor` into the traversal — its key becomes seen and its
    /// schedule joins the arena — and returns its next-level entry.
    pub fn commit<V>(&mut self, successor: BfsSuccessor<A, V>) -> BfsEntry<A> {
        self.seen.insert(successor.key);
        BfsEntry {
            state: Some(successor.state),
            node: self.arena.push(successor.parent, successor.step),
            orbit_lower: successor.orbit_lower,
        }
    }

    /// The schedule reaching `successor`'s configuration.
    pub fn schedule<V>(&self, successor: &BfsSuccessor<A, V>) -> Vec<ProcessId> {
        let mut schedule = self.arena.materialize(successor.parent);
        schedule.push(successor.step);
        schedule
    }
}

/// Exhaustively explores every interleaving of the executor's processes on a
/// pool of worker threads, checking `predicate` in every reachable
/// configuration — including the initial one.
///
/// The report is byte-identical at any `config.threads` (see the module
/// docs for how); the predicate must therefore be pure with respect to the
/// reported fields, though it may accumulate its own statistics through
/// interior mutability. It is evaluated (in nondeterministic order) once
/// per newly discovered dedup key, and again whenever a lexicographically
/// smaller schedule replaces the state retained for that key, so a
/// violation's description always describes the reported schedule's
/// configuration. With [`SymmetryMode::ProcessIds`] the predicate must
/// additionally be relabeling-invariant — true of any predicate over
/// decided value sets and memory contents, like the safety properties.
pub fn parallel_explore<A, F>(
    initial: &Executor<A>,
    config: ParallelExploreConfig,
    predicate: F,
) -> Exploration
where
    A: Automaton + Clone + Hash + Send + Sync,
    A::Value: Hash + Clone + Eq + Debug + Send + Sync,
    F: Fn(&Executor<A>) -> Option<String> + Sync,
{
    let (mut bfs, root) = Bfs::new(initial, config.symmetry, config.effective_threads());
    let mut result = Exploration::new(
        FrontierSemantics::BfsLevelWidth,
        bfs.symmetry_applied(),
        predicate(initial),
    );
    if result.violation.is_some() {
        return result;
    }
    let cap = config.max_resident_bytes;
    let mut level = root;
    // Peak deep bytes of any single level — the frontier term of
    // `approx_bytes`. Tracked from barrier sums (plus the root entry), so
    // it is a pure function of the state space.
    let mut level_bytes_peak: u64 = entry_bytes(initial, 0);
    let mut depth: u64 = 0;
    loop {
        result.states_visited += level.len() as u64;
        for entry in &level {
            result.full_states_lower_bound = result
                .full_states_lower_bound
                .saturating_add(entry.orbit_lower);
        }
        result.frontier_peak = result.frontier_peak.max(level.len() as u64);
        result.max_depth_reached = depth;
        let at_depth_limit = depth >= config.max_depth;
        let expanded = bfs.expand(level, depth as usize, !at_depth_limit, &predicate);
        result.paths += expanded.terminal;
        result.expansions += expanded.expansions;
        if at_depth_limit {
            result.truncated |= expanded.depth_cut;
            break;
        }

        // Barrier: commit the level's new states and freeze the next
        // frontier. Successors arrive in schedule order, so the first
        // violating one is the lexicographically smallest violating
        // schedule, and its description was computed on the retained state.
        result.violation = expanded.successors.iter().find_map(|successor| {
            Some(ExploredViolation {
                description: successor.value.clone()?,
                schedule: bfs.schedule(successor),
            })
        });
        let next_level_bytes: u64 = expanded.successors.iter().map(|s| s.bytes).sum();
        let mut next_level: Vec<BfsEntry<A>> = expanded
            .successors
            .into_iter()
            .map(|s| bfs.commit(s))
            .collect();
        if result.violation.is_some() {
            result.max_depth_reached = depth + 1;
            break;
        }
        if next_level.is_empty() {
            break;
        }
        level_bytes_peak = level_bytes_peak.max(next_level_bytes);
        if result.states_visited >= config.max_states {
            // Budget exhausted while work remains — at level granularity,
            // so the decision is a pure function of the state space.
            result.truncated = true;
            result.pending_at_exit = next_level.len() as u64;
            break;
        }
        if cap > 0 && next_level_bytes > cap {
            if !config.spill {
                // Over the resident-byte budget with spill disabled: a
                // deterministic truncation, decided at the barrier from the
                // frozen level alone.
                result.truncated = true;
                result.pending_at_exit = next_level.len() as u64;
                break;
            }
            // Over budget with spill enabled: shed the frozen level's
            // executors in place, as the serial explorer evicts its coldest
            // entries. Each is rebuilt by replay when a worker expands it.
            result.spilled_entries += next_level.len() as u64;
            for entry in &mut next_level {
                entry.state = None;
            }
        }
        level = next_level;
        depth += 1;
    }
    // Every committed key is charged as if resident in one table, as the
    // serial explorer charges its own: the figure is then identical at any
    // thread count, and does not depend on how the keys' bits happen to
    // spread over the shards.
    result.seen_entries = bfs.seen.len();
    result.approx_bytes = level_bytes_peak + KeyTable::bytes_for_len(result.seen_entries);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{agreement_predicate, explore, ExploreConfig};
    use crate::toy::{RacyConsensus, ToyWriter};

    fn writers(n: usize) -> Executor<ToyWriter> {
        Executor::new((0..n).map(|p| ToyWriter::new(p, p as u64 + 1)).collect())
    }

    fn racy() -> Executor<RacyConsensus> {
        Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 20),
        ])
    }

    #[test]
    fn matches_the_serial_explorer_on_verified_systems() {
        // Six writers reach 729 states, and their widest level holds 141
        // entries: several chunks, so equal `expansions` at every worker
        // count means every entry was expanded exactly once.
        for n in [3, 6] {
            let exec = writers(n);
            let serial = explore(&exec, ExploreConfig::default(), agreement_predicate(n));
            assert!(serial.verified());
            for threads in [1, 2, 3, 8] {
                let parallel = parallel_explore(
                    &exec,
                    ParallelExploreConfig::with_threads(threads),
                    agreement_predicate(n),
                );
                assert!(parallel.verified(), "n={n} threads={threads}: {parallel:?}");
                assert_eq!(
                    parallel.states_visited, serial.states_visited,
                    "n={n} threads={threads}"
                );
                assert_eq!(parallel.paths, serial.paths, "n={n} threads={threads}");
                assert_eq!(
                    parallel.expansions, serial.expansions,
                    "n={n} threads={threads}"
                );
                assert_eq!(parallel.violation, serial.violation);
                assert_eq!(parallel.seen_entries, serial.seen_entries);
            }
        }
    }

    #[test]
    fn reports_are_identical_at_any_thread_count() {
        let exec = racy();
        let reference = parallel_explore(
            &exec,
            ParallelExploreConfig::with_threads(1),
            agreement_predicate(1),
        );
        let violation = reference.violation.clone().expect("the race must be found");
        assert!(violation.description.contains("exceeding k = 1"));
        for threads in [2, 4, 8] {
            let other = parallel_explore(
                &exec,
                ParallelExploreConfig::with_threads(threads),
                agreement_predicate(1),
            );
            assert_eq!(other.states_visited, reference.states_visited);
            assert_eq!(other.paths, reference.paths);
            assert_eq!(other.max_depth_reached, reference.max_depth_reached);
            assert_eq!(other.truncated, reference.truncated);
            assert_eq!(other.violation, reference.violation);
            assert_eq!(other.frontier_peak, reference.frontier_peak);
            assert_eq!(other.seen_entries, reference.seen_entries);
            assert_eq!(other.approx_bytes, reference.approx_bytes);
        }
    }

    #[test]
    fn violating_schedule_is_breadth_first_minimal_and_replays() {
        let exec = racy();
        let result = parallel_explore(
            &exec,
            ParallelExploreConfig::default(),
            agreement_predicate(1),
        );
        let violation = result.violation.expect("the race must be found");
        // The witness replays: stepping the schedule on a fresh executor
        // reproduces the violation in the final configuration.
        let mut replay = racy();
        for &process in &violation.schedule {
            replay.step(process);
        }
        assert!(
            agreement_predicate(1)(&replay).is_some(),
            "the reported schedule must reproduce the violation"
        );
        // Breadth-first minimality: no strictly shorter schedule violates
        // (the serial explorer, which enumerates every interleaving, finds
        // no violation below that depth).
        let shallower = explore(
            &exec,
            ExploreConfig {
                max_depth: violation.schedule.len() as u64 - 1,
                ..ExploreConfig::default()
            },
            agreement_predicate(1),
        );
        assert!(shallower.violation.is_none());
    }

    #[test]
    fn checks_the_initial_configuration() {
        let exec = writers(2);
        let result = parallel_explore(
            &exec,
            ParallelExploreConfig::default(),
            |e: &Executor<ToyWriter>| (e.steps() == 0).then(|| "rejected root".to_string()),
        );
        assert!(!result.verified());
        let violation = result.violation.expect("root violation must be reported");
        assert!(violation.schedule.is_empty());
    }

    #[test]
    fn exact_state_budget_is_exhausted_not_truncated() {
        let exec = writers(2);
        let space = parallel_explore(
            &exec,
            ParallelExploreConfig::default(),
            agreement_predicate(2),
        );
        assert!(space.verified());
        let exact = ParallelExploreConfig {
            max_states: space.states_visited,
            ..ParallelExploreConfig::default()
        };
        let result = parallel_explore(&exec, exact, agreement_predicate(2));
        assert!(result.verified(), "{result:?}");
        assert_eq!(result.states_visited, space.states_visited);
    }

    #[test]
    fn depth_bound_truncates_deterministically() {
        let exec = writers(2);
        let config = ParallelExploreConfig {
            max_depth: 1,
            ..ParallelExploreConfig::default()
        };
        let a = parallel_explore(&exec, config, agreement_predicate(2));
        let b = parallel_explore(&exec, config, agreement_predicate(2));
        assert!(a.truncated && !a.verified());
        assert_eq!(a.max_depth_reached, 1);
        assert_eq!(a.states_visited, b.states_visited);
        assert_eq!(a.paths, b.paths);
    }

    #[test]
    fn state_budget_truncates_at_level_granularity() {
        let exec = writers(3);
        let config = ParallelExploreConfig {
            max_states: 2,
            ..ParallelExploreConfig::default()
        };
        let result = parallel_explore(&exec, config, agreement_predicate(3));
        assert!(result.truncated);
        assert!(!result.verified());
        // The level in flight is finished, so the count can overshoot the
        // budget, but only by that level.
        assert!(result.states_visited >= 2);
    }

    #[test]
    fn memory_statistics_reflect_the_widest_level() {
        let exec = writers(3);
        let result = parallel_explore(
            &exec,
            ParallelExploreConfig::default(),
            agreement_predicate(3),
        );
        assert!(result.verified());
        assert!(result.frontier_peak > 1, "BFS levels must widen");
        assert_eq!(result.seen_entries, result.states_visited);
        assert!(result.approx_bytes > 0);
    }

    #[test]
    fn symmetry_reduction_matches_serial_and_is_thread_count_invariant() {
        let exec = Executor::new(vec![
            ToyWriter::new(0, 7),
            ToyWriter::new(0, 7),
            ToyWriter::new(1, 9),
        ]);
        let serial_off = explore(&exec, ExploreConfig::default(), agreement_predicate(3));
        let serial_sym = explore(
            &exec,
            ExploreConfig {
                symmetry: SymmetryMode::ProcessIds,
                ..ExploreConfig::default()
            },
            agreement_predicate(3),
        );
        assert!(serial_sym.symmetry_applied);
        assert!(serial_sym.states_visited < serial_off.states_visited);
        let mut previous: Option<Exploration> = None;
        for threads in [1, 2, 8] {
            let parallel = parallel_explore(
                &exec,
                ParallelExploreConfig {
                    threads,
                    symmetry: SymmetryMode::ProcessIds,
                    ..ParallelExploreConfig::default()
                },
                agreement_predicate(3),
            );
            assert!(parallel.symmetry_applied, "threads={threads}");
            assert!(parallel.verified(), "threads={threads}");
            // The two explorers share one canonical key function, so the
            // quotient they exhaust is the identical state set.
            assert_eq!(parallel.states_visited, serial_sym.states_visited);
            assert_eq!(parallel.seen_entries, serial_sym.seen_entries);
            assert_eq!(
                parallel.full_states_lower_bound,
                serial_sym.full_states_lower_bound
            );
            assert_eq!(parallel.full_states_lower_bound, serial_off.states_visited);
            if let Some(previous) = &previous {
                assert_eq!(parallel.paths, previous.paths);
                assert_eq!(parallel.frontier_peak, previous.frontier_peak);
                assert_eq!(parallel.max_depth_reached, previous.max_depth_reached);
                assert_eq!(parallel.approx_bytes, previous.approx_bytes);
            }
            previous = Some(parallel);
        }
    }

    #[test]
    fn symmetric_witnesses_are_deterministic_and_replay() {
        // Two racy processes with the same input value are one orbit; the
        // third carries a distinct value, so 1-agreement is violated. The
        // witness must be identical at any thread count (and between runs)
        // and must replay on the ORIGINAL (un-relabeled) process ids.
        let exec = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 5),
            RacyConsensus::new(ProcessId(1), 5),
            RacyConsensus::new(ProcessId(2), 9),
        ]);
        let config = |threads| ParallelExploreConfig {
            threads,
            symmetry: SymmetryMode::ProcessIds,
            ..ParallelExploreConfig::default()
        };
        let reference = parallel_explore(&exec, config(1), agreement_predicate(1));
        assert!(reference.symmetry_applied);
        let witness = reference.violation.clone().expect("the race must be found");
        for threads in [2, 8] {
            let other = parallel_explore(&exec, config(threads), agreement_predicate(1));
            assert_eq!(
                other.violation.as_ref(),
                Some(&witness),
                "threads={threads}"
            );
            assert_eq!(other.states_visited, reference.states_visited);
        }
        let mut replay = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 5),
            RacyConsensus::new(ProcessId(1), 5),
            RacyConsensus::new(ProcessId(2), 9),
        ]);
        for &process in &witness.schedule {
            assert!(replay.step(process).is_some(), "witness must be steppable");
        }
        assert!(
            agreement_predicate(1)(&replay).is_some(),
            "the witness schedule must reproduce the violation"
        );
    }

    #[test]
    fn frontier_semantics_distinguish_the_backends() {
        // Regression for the conflated `frontier_peak` field: the serial
        // explorer reports a DFS stack depth, the parallel one a BFS level
        // width — same field, incomparable quantities, now labeled.
        let exec = writers(3);
        let serial = explore(&exec, ExploreConfig::default(), agreement_predicate(3));
        let parallel = parallel_explore(
            &exec,
            ParallelExploreConfig::default(),
            agreement_predicate(3),
        );
        assert_eq!(
            serial.frontier_semantics,
            crate::explore::FrontierSemantics::DfsStackDepth
        );
        assert_eq!(
            parallel.frontier_semantics,
            crate::explore::FrontierSemantics::BfsLevelWidth
        );
        assert_eq!(serial.frontier_semantics.label(), "dfs-stack-depth");
        assert_eq!(parallel.frontier_semantics.label(), "bfs-level-width");
    }

    #[test]
    fn spill_mode_is_byte_identical_at_any_worker_count() {
        for n in [3, 6] {
            let exec = writers(n);
            let base = parallel_explore(
                &exec,
                ParallelExploreConfig::with_threads(1),
                agreement_predicate(n),
            );
            assert!(base.verified());
            assert_eq!(base.spilled_entries, 0);
            for threads in [1, 2, 3, 8] {
                let spilled = parallel_explore(
                    &exec,
                    ParallelExploreConfig {
                        threads,
                        spill: true,
                        max_resident_bytes: 1,
                        ..ParallelExploreConfig::default()
                    },
                    agreement_predicate(n),
                );
                // A 1-byte cap sheds every level past the root.
                assert_eq!(
                    spilled.spilled_entries,
                    base.states_visited - 1,
                    "n={n} threads={threads}"
                );
                assert!(spilled.verified(), "n={n} threads={threads}: {spilled:?}");
                assert_eq!(spilled.states_visited, base.states_visited);
                assert_eq!(spilled.paths, base.paths);
                assert_eq!(spilled.expansions, base.expansions);
                assert_eq!(spilled.violation, base.violation);
                assert_eq!(spilled.max_depth_reached, base.max_depth_reached);
                assert_eq!(spilled.frontier_peak, base.frontier_peak);
                assert_eq!(spilled.pending_at_exit, base.pending_at_exit);
                assert_eq!(spilled.seen_entries, base.seen_entries);
                assert_eq!(spilled.approx_bytes, base.approx_bytes);
                assert_eq!(
                    spilled.full_states_lower_bound,
                    base.full_states_lower_bound
                );
            }
        }
    }

    #[test]
    fn spill_mode_finds_the_same_violation() {
        let exec = racy();
        let base = parallel_explore(
            &exec,
            ParallelExploreConfig::with_threads(2),
            agreement_predicate(1),
        );
        let spilled = parallel_explore(
            &exec,
            ParallelExploreConfig {
                threads: 2,
                spill: true,
                max_resident_bytes: 1,
                ..ParallelExploreConfig::default()
            },
            agreement_predicate(1),
        );
        assert_eq!(spilled.violation, base.violation, "witness must not change");
        assert_eq!(spilled.states_visited, base.states_visited);
    }

    #[test]
    fn memory_cap_without_spill_truncates_and_spill_rescues_it() {
        let exec = writers(3);
        let capped = parallel_explore(
            &exec,
            ParallelExploreConfig {
                max_resident_bytes: 1,
                ..ParallelExploreConfig::default()
            },
            agreement_predicate(3),
        );
        assert!(capped.truncated, "over budget in-core must truncate");
        assert!(!capped.verified());
        assert!(capped.pending_at_exit > 0);
        let rescued = parallel_explore(
            &exec,
            ParallelExploreConfig {
                spill: true,
                max_resident_bytes: 1,
                ..ParallelExploreConfig::default()
            },
            agreement_predicate(3),
        );
        assert!(
            rescued.verified(),
            "spill must let the capped cell exhaust: {rescued:?}"
        );
        assert_eq!(rescued.pending_at_exit, 0);
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(ParallelExploreConfig::default().effective_threads() >= 1);
        assert_eq!(
            ParallelExploreConfig::with_threads(3).effective_threads(),
            3
        );
    }
}
