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
//!   a take comes back empty. The calling thread is one of the workers, so
//!   a level on `threads` workers spawns `threads − 1` threads, and a
//!   1-worker traversal spawns none;
//! * discovered successors are deduplicated against a **sharded seen-set**
//!   (shards selected by a [`StateKey`] prefix) holding the same
//!   collision-resistant 128-bit keys as the serial explorer. It changes
//!   only at level barriers, so workers read it without a lock. Under
//!   anonymous symmetry each entry carries its slot signatures, so a
//!   successor's key re-hashes only the slot that stepped (see
//!   [`BfsEntry`]);
//! * a successor whose key is not yet seen is kept **by the worker that
//!   built it**, in a vector of its own, once it holds the key's claim: a
//!   per-level claims map records, per new key, the smallest
//!   `(rank, step)` — the parent's position in its level and the step
//!   taken — that has reached it. A worker keeps a successor only if it set
//!   the claim, and at the barrier the successors whose claim a smaller
//!   schedule later took are dropped. The claims map holds no executors,
//!   so a successor is moved once, into its worker's vector;
//! * a worker builds every successor of an entry but the last in the
//!   executor of the last successor it did not keep (already seen, or its
//!   claim lost), refilled with [`Clone::clone_from`], and the last in the
//!   entry's own executor, so a duplicate successor allocates no vectors;
//! * levels are separated by a barrier that merges the worker vectors in
//!   schedule order (each is already sorted, so one worker's is one linear
//!   pass) and at which the caller's policy (violations and budgets here,
//!   admission and witnesses in `sa_search::search`) commits new states,
//!   in schedule order.
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
    entry_bytes, keyed, replay, successor_key, Exploration, ExploredViolation, FrontierSemantics,
    SignatureBuffers, SlotSignature, Spare, StateKey, SymmetryMode, SymmetryPlan,
};
use crate::store::{KeyTable, ScheduleArena, SCHEDULE_ROOT};
use sa_model::{Automaton, ProcessId};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Debug;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Mutex;

/// Number of seen-set (and claims-map) shards. A power of two so a
/// [`StateKey`] prefix selects a shard with a mask; 64 shards keep lock
/// contention on the claims map negligible at any realistic worker count.
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

/// The seen-set, split by key prefix so that a growing table rehashes one
/// shard's keys at a time. It changes only at level barriers, through
/// [`Bfs::commit`]'s `&mut self`, so workers read it without a lock. It
/// stays resident: at 16 bytes per key it is small next to the executors
/// of a single level.
#[derive(Debug)]
struct ShardedSeen {
    shards: Vec<KeyTable>,
}

impl ShardedSeen {
    fn new() -> Self {
        ShardedSeen {
            shards: (0..SHARDS).map(|_| KeyTable::new()).collect(),
        }
    }

    fn contains(&self, key: &StateKey) -> bool {
        self.shards[key.shard(SHARDS)].contains(key)
    }

    fn insert(&mut self, key: StateKey) -> bool {
        self.shards[key.shard(SHARDS)].insert(key)
    }

    /// The number of keys held, over every shard.
    fn len(&self) -> u64 {
        self.shards.iter().map(|shard| shard.len() as u64).sum()
    }
}

/// A successor's place in schedule order: its parent's rank in the
/// (schedule-ordered) level, then the index of the process that stepped.
/// Successors order by it exactly as their schedules order, and no two
/// successors of a level share one.
type Claim = (u32, u32);

/// A level's claims shard: new keys and the smallest [`Claim`] that has
/// reached each.
type ClaimShard = HashMap<StateKey, Claim, BuildHasherDefault<KeyHasher>>;

/// Hashes a [`StateKey`] to its second word. A key is already a uniform
/// 128-bit digest, so SipHash would only mix it again; the first word's top
/// bits select the shard, and the second word is independent of them.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    /// `StateKey`'s derived `Hash` writes a length prefix and then its two
    /// words: the last eight bytes written are the second word.
    fn write(&mut self, bytes: &[u8]) {
        if let Some(word) = bytes.rchunks_exact(8).next() {
            self.0 = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        }
    }

    fn write_usize(&mut self, _length_prefix: usize) {}

    fn finish(&self) -> u64 {
        self.0
    }
}

/// What one worker returns from a level: its share of the [`BfsLevel`],
/// whose successors are in schedule order, and the claims it took over,
/// each naming a successor that another worker kept and must drop.
type WorkerLevel<A, V> = (BfsLevel<A, V>, Vec<Claim>);

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
    /// The configuration's slot signatures, from which its successors'
    /// keys are built (see [`SymmetryPlan::carried_signatures`]); empty,
    /// with nothing allocated, under a plan that does not carry them, so
    /// such an entry holds only the box's 16-byte pointer. A shed entry
    /// keeps them, outside the resident budget.
    signatures: Box<[SlotSignature]>,
}

/// A successor found by [`Bfs::expand`] and not yet committed: the retained
/// configuration of one new dedup key.
///
/// The worker that builds a successor keeps it in its own vector if the
/// successor took its key's claim, and otherwise keeps its executor to
/// build the next successor in; a kept successor whose claim a smaller
/// schedule takes later is dropped at the level barrier. What survives
/// is, per key, the successor reached by the lexicographically smallest
/// schedule. With symmetry on, several
/// *distinct* configurations of one orbit can be discovered under the same
/// canonical key in one level; all orbit members have relabel-identical
/// futures and identical predicate verdicts, so which one expands cannot
/// change any reported verdict — only the (deterministically chosen)
/// witness labels.
///
/// A successor carries its slot signatures into its next-level entry. Its
/// rank, step and byte charge are held in 32 bits each, so the box of
/// signatures does not grow the struct.
#[derive(Debug)]
pub struct BfsSuccessor<A: Automaton, V> {
    /// The caller's per-state value of the retained configuration: a
    /// predicate's verdict, a goal's measure.
    pub value: V,
    /// The retained configuration's deep-byte frontier charge.
    pub(crate) bytes: u32,
    key: StateKey,
    state: Executor<A>,
    /// The parent's position in its (schedule-ordered) level: successors
    /// order by `(rank, step)` exactly as their schedules order.
    rank: u32,
    parent: u32,
    /// The index of the process that stepped.
    step: u32,
    orbit_lower: u64,
    /// The retained configuration's slot signatures, as a [`BfsEntry`]
    /// carries them.
    signatures: Box<[SlotSignature]>,
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
        let mut seen = ShardedSeen::new();
        let (key, orbit_lower) = keyed(initial, &plan);
        seen.insert(key);
        let root = BfsEntry {
            state: Some(initial.clone()),
            node: SCHEDULE_ROOT,
            orbit_lower,
            signatures: plan.carried_signatures(initial),
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
    /// worker pool — the calling thread and `threads − 1` spawned ones;
    /// with `successors` off, entries are only classified.
    ///
    /// Each successor whose key is not yet seen is kept once per key: the
    /// one reached by the lexicographically smallest schedule. A worker
    /// reads the seen-set without a lock, claims the key in the level's
    /// claims map, and keeps the successor in its own vector only if no
    /// smaller schedule holds the claim; the barrier drops the kept
    /// successors whose claim a smaller schedule took later, and merges the
    /// worker vectors in schedule order. A successor a worker does not
    /// keep becomes the executor it builds its next successor in, and each
    /// worker fills one reused buffer with an entry's runnable processes.
    /// `value` is evaluated, in nondeterministic order, on every successor
    /// a worker keeps, so a returned value always describes its successor's
    /// state.
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
        // The claims map is sized for as many new keys as the level has
        // entries, and each worker's vector for its share of them, so that
        // neither regrows while a level of steady width expands.
        let expected = if successors { level.len() } else { 0 };
        let claims: Vec<Mutex<ClaimShard>> = (0..SHARDS)
            .map(|_| {
                Mutex::new(ClaimShard::with_capacity_and_hasher(
                    expected / SHARDS,
                    Default::default(),
                ))
            })
            .collect();
        // The shared iterator owns the level, so each entry's executor is
        // dropped as soon as a worker has expanded it.
        let level = Mutex::new(level.into_iter().enumerate());
        let work = || -> WorkerLevel<A, V> {
            let mut found = BfsLevel {
                successors: Vec::with_capacity(expected / self.threads),
                expansions: 0,
                terminal: 0,
                depth_cut: false,
            };
            let mut superseded = Vec::new();
            let mut chunk = Vec::with_capacity(CHUNK);
            let mut buffers = SignatureBuffers::default();
            let mut runnable = Vec::new();
            let mut spare = Spare::default();
            loop {
                chunk.extend(level.lock().expect("level poisoned").by_ref().take(CHUNK));
                if chunk.is_empty() {
                    return (found, superseded);
                }
                for (rank, entry) in chunk.drain(..) {
                    let rank = u32::try_from(rank).expect("a level holds under 2^32 entries");
                    let state = entry.state.unwrap_or_else(|| {
                        replay(self.initial, self.arena.materialize(entry.node))
                    });
                    state.runnable_into(&mut runnable);
                    if runnable.is_empty() || !successors {
                        found.terminal += 1;
                        found.depth_cut |= !runnable.is_empty();
                        continue;
                    }
                    found.expansions += runnable.len() as u64;
                    let mut parent = Some(state);
                    for (i, &step) in runnable.iter().enumerate() {
                        let successor = spare.successor(&mut parent, step, i + 1 == runnable.len());
                        let (key, orbit_lower) = successor_key(
                            &self.plan,
                            &entry.signatures,
                            &successor,
                            step,
                            &mut buffers,
                        );
                        if self.seen.contains(&key) {
                            spare.recycle(successor);
                            continue;
                        }
                        // Same key, another schedule: the smallest one
                        // holds the claim, so the retained successor never
                        // depends on timing.
                        let step = u32::try_from(step.index()).expect("under 2^32 processes");
                        let claim = (rank, step);
                        let lost = match claims[key.shard(SHARDS)]
                            .lock()
                            .expect("claims shard poisoned")
                            .entry(key)
                        {
                            Entry::Vacant(free) => {
                                free.insert(claim);
                                false
                            }
                            Entry::Occupied(held) if *held.get() < claim => true,
                            Entry::Occupied(mut held) => {
                                superseded.push(held.insert(claim));
                                false
                            }
                        };
                        if lost {
                            spare.recycle(successor);
                            continue;
                        }
                        let bytes = entry_bytes(&successor, depth + 1);
                        found.successors.push(BfsSuccessor {
                            value: value(&successor),
                            bytes: u32::try_from(bytes).expect("an entry's charge fits 32 bits"),
                            key,
                            state: successor,
                            rank,
                            parent: entry.node,
                            step,
                            orbit_lower,
                            signatures: buffers.signatures.as_slice().into(),
                        });
                    }
                }
            }
        };
        let (mut found, mut superseded) = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..self.threads).map(|_| scope.spawn(work)).collect();
            let (mut found, mut superseded) = work();
            let helpers: Vec<WorkerLevel<A, V>> = helpers
                .into_iter()
                .map(|helper| helper.join().expect("BFS worker panicked"))
                .collect();
            // Every entry is expanded: free the level's buffer before the
            // merge allocates the next level's.
            drop(std::mem::take(&mut *level.lock().expect("level poisoned")));
            // One allocation at the level's exact size: growing the vector
            // worker by worker could briefly hold the old buffer and a
            // larger new one.
            found
                .successors
                .reserve_exact(helpers.iter().map(|(more, _)| more.successors.len()).sum());
            for (more, more_superseded) in helpers {
                found.successors.extend(more.successors);
                found.expansions += more.expansions;
                found.terminal += more.terminal;
                found.depth_cut |= more.depth_cut;
                superseded.extend(more_superseded);
            }
            (found, superseded)
        });
        if !superseded.is_empty() {
            superseded.sort_unstable();
            found
                .successors
                .retain(|s| superseded.binary_search(&(s.rank, s.step)).is_err());
        }
        // Each worker's successors are in schedule order already: the sort
        // merges those runs, and on one worker it is one pass.
        found.successors.sort_by_key(|s| (s.rank, s.step));
        found
    }

    /// Commits `successor` into the traversal — its key becomes seen and its
    /// schedule joins the arena — and returns its next-level entry.
    pub fn commit<V>(&mut self, successor: BfsSuccessor<A, V>) -> BfsEntry<A> {
        self.seen.insert(successor.key);
        BfsEntry {
            state: Some(successor.state),
            node: self
                .arena
                .push(successor.parent, ProcessId(successor.step as usize)),
            orbit_lower: successor.orbit_lower,
            signatures: successor.signatures,
        }
    }

    /// The schedule reaching `successor`'s configuration.
    pub fn schedule<V>(&self, successor: &BfsSuccessor<A, V>) -> Vec<ProcessId> {
        let mut schedule = self.arena.materialize(successor.parent);
        schedule.push(ProcessId(successor.step as usize));
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
/// smaller schedule takes over that key's claim, so a violation's
/// description always describes the reported schedule's configuration.
/// With [`SymmetryMode::ProcessIds`] the predicate must additionally be
/// relabeling-invariant — true of any predicate over decided value sets
/// and memory contents, like the safety properties.
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
        let next_level_bytes: u64 = expanded.successors.iter().map(|s| u64::from(s.bytes)).sum();
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
    use crate::explore::{
        agreement_predicate, canonical_state_key, explore, state_key, ExploreConfig,
    };
    use crate::toy::{RacyConsensus, ToyWriter};
    use std::hash::BuildHasher;

    /// Each level's successors as [`Bfs::expand`] returns them: schedule,
    /// value and orbit weight, in order.
    type Levels = Vec<Vec<(Vec<ProcessId>, StateKey, u64)>>;

    /// Drives the kernel by hand on `threads` workers, committing every
    /// successor. The value is the successor's unreduced key, which tells
    /// the members of one orbit apart, so it shows which member was kept.
    fn kernel_levels(exec: &Executor<ToyWriter>, symmetry: SymmetryMode, threads: usize) -> Levels {
        let (mut bfs, mut level) = Bfs::new(exec, symmetry, threads);
        let mut levels = Levels::new();
        while !level.is_empty() {
            let expanded = bfs.expand(level, levels.len(), true, &state_key::<ToyWriter>);
            levels.push(
                expanded
                    .successors
                    .iter()
                    .map(|s| (bfs.schedule(s), s.value, s.orbit_lower))
                    .collect(),
            );
            level = expanded
                .successors
                .into_iter()
                .map(|s| bfs.commit(s))
                .collect();
        }
        levels
    }

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
    fn key_hasher_hashes_a_key_to_its_second_word() {
        let key = StateKey::from_parts([0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210]);
        let hash = BuildHasherDefault::<KeyHasher>::default().hash_one(key);
        assert_eq!(hash, key.parts()[1]);
    }

    #[test]
    fn claims_keep_the_smallest_schedule_at_any_worker_count() {
        // Six distinct writers, and eight writers in four identical pairs.
        // Under symmetry the pairs' orbits merge, so one key is reached from
        // several parents of a level, and by two steps of one parent. The
        // widest levels span several chunks, so keys are found again in
        // chunks that other workers expand, and three workers split the
        // chunks unevenly.
        let paired = Executor::new(
            (0..8)
                .map(|p| ToyWriter::new(p / 2, p as u64 / 2 + 1))
                .collect(),
        );
        for exec in [writers(6), paired] {
            for symmetry in [SymmetryMode::Off, SymmetryMode::ProcessIds] {
                let reference = kernel_levels(&exec, symmetry, 1);
                assert!(reference.iter().any(|level| level.len() > 2 * CHUNK));
                for level in &reference {
                    assert!(level.windows(2).all(|pair| pair[0].0 < pair[1].0));
                }
                for threads in [2, 3, 8] {
                    let levels = kernel_levels(&exec, symmetry, threads);
                    assert_eq!(levels.len(), reference.len());
                    for (depth, (level, expected)) in levels.iter().zip(&reference).enumerate() {
                        assert_eq!(
                            level, expected,
                            "{symmetry:?}, {threads} workers, depth {depth}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn carried_keys_equal_keys_computed_from_scratch() {
        // Under symmetry each successor is keyed from its parent's carried
        // slot signatures, re-hashing only the slot that stepped; every
        // kept successor's key and orbit weight must equal those computed
        // from its state alone. The paired writers' orbits weigh more than
        // one state. Shedding every level, as a 1-byte spill cap does,
        // makes workers replay executors while entries keep signatures.
        let paired = Executor::new(
            (0..8)
                .map(|p| ToyWriter::new(p / 2, p as u64 / 2 + 1))
                .collect(),
        );
        for exec in [writers(6), paired] {
            for threads in [1, 3] {
                for shed in [false, true] {
                    let (mut bfs, mut level) = Bfs::new(&exec, SymmetryMode::ProcessIds, threads);
                    assert!(bfs.plan.carries_signatures());
                    let (mut depth, mut checked, mut weighted) = (0, 0, false);
                    while !level.is_empty() {
                        let expanded =
                            bfs.expand(level, depth, true, &|_: &Executor<ToyWriter>| ());
                        for successor in &expanded.successors {
                            assert_eq!(
                                (successor.key, successor.orbit_lower),
                                canonical_state_key(&successor.state, &bfs.plan),
                                "{threads} workers, shed {shed}, schedule {:?}",
                                bfs.schedule(successor)
                            );
                            weighted |= successor.orbit_lower > 1;
                        }
                        checked += expanded.successors.len();
                        level = expanded
                            .successors
                            .into_iter()
                            .map(|s| bfs.commit(s))
                            .collect();
                        if shed {
                            for entry in &mut level {
                                entry.state = None;
                            }
                        }
                        depth += 1;
                    }
                    assert_eq!(checked as u64 + 1, bfs.seen.len());
                    assert_eq!(weighted, exec.process_count() == 8);
                }
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
