//! The work-stealing exhaustive explorer.
//!
//! [`parallel_explore`] checks the same property as [`explore`](crate::explore)
//! — a safety predicate in **every** reachable configuration — but spreads
//! the search over a pool of worker threads, which is what pushes exhaustive
//! verification past the cell sizes the serial depth-first explorer can
//! finish in a reasonable budget.
//!
//! # Design
//!
//! The search is a **level-synchronized breadth-first traversal** with
//! work-stealing inside each level:
//!
//! * the current BFS level is the shared frontier: its `(Executor, schedule)`
//!   entries are pushed into a [`crossbeam::deque::Injector`], and each
//!   worker refills a local [`crossbeam::deque::Worker`] deque in batches,
//!   stealing from its peers' [`Stealer`](crossbeam::deque::Stealer)s when
//!   both run dry (cooperative termination: a worker exits once its own
//!   deque, the injector and every peer report `Empty`, retrying on
//!   contended `Retry` results);
//! * discovered successors are deduplicated against a **sharded seen-set**
//!   (shards selected by a [`StateKey`] prefix) holding the same
//!   collision-resistant 128-bit keys as the serial explorer;
//! * levels are separated by a barrier at which the next frontier is frozen,
//!   the predicate is evaluated once per newly discovered state, and
//!   violations are resolved.
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
//!
//! Partial-order reduction is the serial explorer's alone: its DPOR search
//! needs a DFS path to hang backtrack sets on. This explorer always expands
//! every enabled transition, whatever
//! [`ParallelExploreConfig::reduction`] asks for, and reports
//! [`Exploration::reduction_applied`] as `false`.

use crate::executor::Executor;
use crate::explore::{
    entry_bytes, keyed, replay, Exploration, ExploredViolation, FrontierSemantics, ReductionMode,
    StateKey, SymmetryMode, SymmetryPlan,
};
use crate::store::{
    read_segment, KeyTable, ScheduleArena, SegmentKind, SegmentWriter, SpillDir, SCHEDULE_ROOT,
};
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use sa_model::{Automaton, ProcessId};
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of seen-set (and next-frontier) shards. A power of two so a
/// [`StateKey`] prefix selects a shard with a mask; 64 shards keep lock
/// contention negligible at any realistic worker count.
const SHARDS: usize = 64;

/// Configuration of a parallel bounded exploration.
///
/// Compared to [`ExploreConfig`](crate::ExploreConfig) there is no `dedup`
/// flag: the sharded seen-set *is* the shared search structure, and sound
/// (collision-resistant) dedup is always on.
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
    /// The requested partial-order reduction. Never applied: this explorer
    /// always expands fully and reports
    /// [`Exploration::reduction_applied`] as `false`, the same fallback the
    /// serial explorer takes with dedup off or beyond 64 processes. Only
    /// the serial [`explore`](crate::explore) runs
    /// [`ReductionMode::PersistentSets`].
    pub reduction: ReductionMode,
    /// Whether the explorer may spill frozen BFS levels (and seen-set
    /// shards) to disk when they exceed
    /// [`max_resident_bytes`](Self::max_resident_bytes). Spilled level
    /// records carry only a schedule-arena node and an orbit weight; the
    /// executor states are rebuilt by deterministic replay, so the report
    /// stays byte-identical with spill on or off — and still at any thread
    /// count — except for [`Exploration::spilled_entries`].
    pub spill: bool,
    /// A budget, in estimated deep bytes, on a resident BFS level. `0`
    /// means unlimited. Over budget: with [`spill`](Self::spill) the frozen
    /// level moves to disk (and seen shards follow when their tables exceed
    /// the same budget); without it the search deterministically truncates
    /// at the level barrier, reporting the pending count in
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

/// A frontier entry awaiting expansion. States are kept in their *original*
/// labeling — canonical forms exist only inside the dedup keys.
struct Entry<A: Automaton> {
    /// The configuration; absent when the level was thawed from disk —
    /// workers rebuild it by deterministic replay.
    state: Option<Executor<A>>,
    /// Schedule-arena node of the delta-encoded path that produced it, the
    /// lexicographically smallest among its shortest schedules.
    node: u32,
    /// Orbit-size lower bound.
    orbit_lower: u64,
}

/// A successor discovered while expanding a level, before the barrier
/// resolves it: the state, its (still mergeable) schedule plus the
/// `(parent, step)` delta the arena will commit, the orbit-size lower
/// bound, the entry's deep-byte charge, and whether the predicate rejected
/// it.
///
/// With symmetry on, several *distinct* configurations of one orbit can be
/// discovered under the same canonical key in one level; the barrier keeps
/// the one whose schedule is lexicographically smallest (state, schedule,
/// delta, weight and bytes are always replaced together, so the retained
/// tuple stays consistent and deterministic). All orbit members have
/// relabel-identical futures and identical predicate verdicts, so which one
/// expands cannot change any reported verdict — only the (deterministically
/// chosen) witness labels.
struct Discovered<A: Automaton> {
    state: Executor<A>,
    schedule: Vec<ProcessId>,
    parent: u32,
    step: ProcessId,
    orbit_lower: u64,
    bytes: u64,
    violating: bool,
}

/// One seen-set shard: a live open-addressed key table plus the sealed
/// segments its earlier generations were spilled to. Spilled keys are
/// invisible to [`ShardedSeen::contains`] — workers may re-discover a
/// spilled state, and the barrier filters those candidates against the
/// on-disk generations before treating them as new. That deferral is sound:
/// every spilled key belongs to a state whose level already completed
/// without ending the search, so dropping its re-discovery changes no
/// verdict and no statistic.
struct SeenShard {
    live: KeyTable,
    spilled: Vec<PathBuf>,
    spilled_count: u64,
}

/// The seen-set, sharded by key prefix so workers rarely contend on the
/// same lock.
struct ShardedSeen {
    shards: Vec<Mutex<SeenShard>>,
}

impl ShardedSeen {
    fn new() -> Self {
        ShardedSeen {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(SeenShard {
                        live: KeyTable::new(),
                        spilled: Vec::new(),
                        spilled_count: 0,
                    })
                })
                .collect(),
        }
    }

    /// `true` if the key is in the shard's **live** table. Spilled keys
    /// report `false`; see [`SeenShard`] for why that is sound.
    fn contains(&self, key: &StateKey) -> bool {
        self.shards[key.shard(SHARDS)]
            .lock()
            .expect("seen shard poisoned")
            .live
            .contains(key)
    }

    fn insert(&self, key: StateKey) -> bool {
        self.shards[key.shard(SHARDS)]
            .lock()
            .expect("seen shard poisoned")
            .live
            .insert(key)
    }

    /// Total distinct keys committed, live and spilled.
    fn len(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("seen shard poisoned");
                shard.live.len() as u64 + shard.spilled_count
            })
            .sum()
    }

    /// Deep bytes of the live tables (what a spill decision polices).
    fn live_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("seen shard poisoned")
                    .live
                    .allocated_bytes()
            })
            .sum()
    }

    /// The deterministic byte charge of holding **every** committed key
    /// resident, computed from per-shard counts alone — so the reported
    /// figure is identical with spill on or off, at any thread count.
    fn table_bytes_if_resident(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("seen shard poisoned");
                KeyTable::bytes_for_len(shard.live.len() as u64 + shard.spilled_count)
            })
            .sum()
    }

    /// Moves every non-empty live table to a sealed on-disk generation.
    fn spill_live(&self, dir: &SpillDir, generation: u64) {
        for (index, shard) in self.shards.iter().enumerate() {
            let mut shard = shard.lock().expect("seen shard poisoned");
            if shard.live.is_empty() {
                continue;
            }
            let path = dir.file(&format!("seen-{index:02}-{generation:08}.seg"));
            let mut writer = SegmentWriter::create(&path, SegmentKind::SeenShard, generation)
                .expect("creating a seen-shard spill segment");
            for key in shard.live.iter() {
                let parts = key.parts();
                let mut record = [0u8; 16];
                record[..8].copy_from_slice(&parts[0].to_le_bytes());
                record[8..].copy_from_slice(&parts[1].to_le_bytes());
                writer.append(&record).expect("writing a seen-shard key");
            }
            writer.finish().expect("sealing a seen-shard spill segment");
            shard.spilled_count += shard.live.len() as u64;
            shard.spilled.push(path);
            shard.live = KeyTable::new();
        }
    }
}

/// Loads a shard's spilled generations back into one lookup table (used at
/// barriers to filter re-discovered states).
fn load_spilled_keys(paths: &[PathBuf]) -> KeyTable {
    let mut table = KeyTable::new();
    for path in paths {
        let (_tag, records) =
            read_segment(path, SegmentKind::SeenShard).expect("reading a seen-shard segment");
        for record in records {
            assert_eq!(record.len(), 16, "seen-shard records are 16-byte keys");
            let lo = u64::from_le_bytes(record[..8].try_into().expect("8 bytes"));
            let hi = u64::from_le_bytes(record[8..].try_into().expect("8 bytes"));
            table.insert(StateKey::from_parts([lo, hi]));
        }
    }
    table
}

/// A frozen BFS level: resident entries, or a sealed segment of
/// `(arena node, orbit weight)` records awaiting thaw.
enum PendingLevel<A: Automaton> {
    Resident(Vec<Entry<A>>),
    Spilled { path: PathBuf, count: u64 },
}

/// Length of one spilled-level record: arena node (u32) and orbit weight
/// (u64), both LE.
const LEVEL_RECORD_LEN: usize = 4 + 8;

/// Encodes one spilled-level record.
fn encode_level_record(node: u32, orbit_lower: u64) -> [u8; LEVEL_RECORD_LEN] {
    let mut record = [0u8; LEVEL_RECORD_LEN];
    record[..4].copy_from_slice(&node.to_le_bytes());
    record[4..].copy_from_slice(&orbit_lower.to_le_bytes());
    record
}

/// Decodes [`encode_level_record`] output.
fn decode_level_record(record: &[u8]) -> (u32, u64) {
    assert_eq!(
        record.len(),
        LEVEL_RECORD_LEN,
        "level records are {LEVEL_RECORD_LEN} bytes"
    );
    let node = u32::from_le_bytes(record[..4].try_into().expect("4 bytes"));
    let orbit = u64::from_le_bytes(record[4..].try_into().expect("8 bytes"));
    (node, orbit)
}

/// Pulls the next task for a worker: local deque first, then the shared
/// injector (in batches), then the peers — retrying while any source
/// reports a contended `Retry`, terminating once all report `Empty`.
fn find_task<T>(local: &Worker<T>, injector: &Injector<T>, stealers: &[Stealer<T>]) -> Option<T> {
    if let Some(task) = local.pop() {
        return Some(task);
    }
    loop {
        let mut contended = false;
        match injector.steal_batch_and_pop(local) {
            Steal::Success(task) => return Some(task),
            Steal::Retry => contended = true,
            Steal::Empty => {}
        }
        for stealer in stealers {
            match stealer.steal() {
                Steal::Success(task) => return Some(task),
                Steal::Retry => contended = true,
                Steal::Empty => {}
            }
        }
        if !contended {
            return None;
        }
        std::hint::spin_loop();
    }
}

/// Exhaustively explores every interleaving of the executor's processes on a
/// pool of work-stealing workers, checking `predicate` in every reachable
/// configuration — including the initial one.
///
/// The report is byte-identical at any `config.threads` (see the module
/// docs for how); the predicate must therefore be pure with respect to the
/// reported fields, though it may accumulate its own statistics through
/// interior mutability. It is evaluated once per newly discovered dedup key
/// (in nondeterministic order), plus once more per *violating* key at the
/// level barrier to bind the description to the retained witness state.
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
    let threads = config.effective_threads();
    let plan = SymmetryPlan::for_executor(initial, config.symmetry);
    let mut result = Exploration {
        states_visited: 0,
        paths: 0,
        violation: None,
        truncated: false,
        max_depth_reached: 0,
        frontier_peak: 0,
        frontier_semantics: FrontierSemantics::BfsLevelWidth,
        pending_at_exit: 0,
        seen_entries: 0,
        approx_bytes: 0,
        spilled_entries: 0,
        symmetry_applied: plan.applied(),
        full_states_lower_bound: 0,
        reduction_applied: false,
        expansions: 0,
        sleep_pruned: 0,
        persistent_expanded: 0,
        states_cut: 0,
    };
    if let Some(description) = predicate(initial) {
        result.states_visited = 1;
        result.full_states_lower_bound = 1;
        result.violation = Some(ExploredViolation {
            schedule: Vec::new(),
            description,
        });
        return result;
    }
    let seen = ShardedSeen::new();
    let (initial_key, initial_orbit) = keyed(initial, &plan);
    seen.insert(initial_key);
    // Delta-encoded schedules: every frontier entry references an arena
    // node; the node chain materializes its schedule. The arena is only
    // mutated at single-threaded barriers, so workers share it by
    // reference while a level is in flight.
    let mut arena = ScheduleArena::new();
    let cap = config.max_resident_bytes;
    let mut spill_dir: Option<SpillDir> = None;
    let mut seen_spill_generation: u64 = 0;
    let mut pending: PendingLevel<A> = PendingLevel::Resident(vec![Entry {
        state: Some(initial.clone()),
        node: SCHEDULE_ROOT,
        orbit_lower: initial_orbit,
    }]);
    // Peak deep bytes of any single level — the frontier term of
    // `approx_bytes`. Tracked from barrier sums (plus the root entry), so
    // it is a pure function of the state space.
    let mut level_bytes_peak: u64 = entry_bytes(initial, 0);
    let mut depth: u64 = 0;
    loop {
        // Thaw a spilled level: records carry only (node, orbit); workers
        // rebuild the executors by replaying the materialized schedules.
        let level: Vec<Entry<A>> =
            match std::mem::replace(&mut pending, PendingLevel::Resident(Vec::new())) {
                PendingLevel::Resident(entries) => entries,
                PendingLevel::Spilled { path, count } => {
                    let (_tag, records) = read_segment(&path, SegmentKind::FrontierLevel)
                        .expect("reading back a spilled level segment");
                    let _ = std::fs::remove_file(&path);
                    debug_assert_eq!(records.len() as u64, count);
                    records
                        .iter()
                        .map(|record| {
                            let (node, orbit_lower) = decode_level_record(record);
                            Entry {
                                state: None,
                                node,
                                orbit_lower,
                            }
                        })
                        .collect()
                }
            };
        result.states_visited += level.len() as u64;
        for entry in &level {
            result.full_states_lower_bound = result
                .full_states_lower_bound
                .saturating_add(entry.orbit_lower);
        }
        result.frontier_peak = result.frontier_peak.max(level.len() as u64);
        result.max_depth_reached = depth;
        let at_depth_limit = depth >= config.max_depth;

        // Expand the level across the worker pool. Successors land in the
        // sharded next-frontier map keyed by state, merging duplicate
        // discoveries to the lexicographically smallest schedule.
        let next: Vec<Mutex<HashMap<StateKey, Discovered<A>>>> =
            (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect();
        let terminal_paths = AtomicU64::new(0);
        let expansions = AtomicU64::new(0);
        let depth_cut = AtomicBool::new(false);
        let injector: Injector<Entry<A>> = Injector::new();
        for entry in level {
            injector.push(entry);
        }
        let workers: Vec<Worker<Entry<A>>> = (0..threads).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<Entry<A>>> = workers.iter().map(Worker::stealer).collect();
        std::thread::scope(|scope| {
            for local in workers {
                let stealers = &stealers;
                let injector = &injector;
                let seen = &seen;
                let next = &next;
                let terminal_paths = &terminal_paths;
                let expansions = &expansions;
                let depth_cut = &depth_cut;
                let predicate = &predicate;
                let plan = &plan;
                let arena = &arena;
                scope.spawn(move || {
                    while let Some(entry) = find_task(&local, injector, stealers) {
                        let Entry { state, node, .. } = entry;
                        let schedule = arena.materialize(node);
                        let state = state.unwrap_or_else(|| replay(initial, &schedule));
                        let runnable = state.runnable();
                        if runnable.is_empty() {
                            terminal_paths.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        if at_depth_limit {
                            // The depth bound cut this path short.
                            terminal_paths.fetch_add(1, Ordering::Relaxed);
                            depth_cut.store(true, Ordering::Relaxed);
                            continue;
                        }
                        for process in runnable {
                            expansions.fetch_add(1, Ordering::Relaxed);
                            let mut successor = state.clone();
                            successor.step(process);
                            let (key, orbit_lower) = keyed(&successor, plan);
                            if seen.contains(&key) {
                                // A spilled key reads as unseen here; the
                                // barrier re-filters against the on-disk
                                // generations before committing.
                                continue;
                            }
                            let mut successor_schedule = schedule.clone();
                            successor_schedule.push(process);
                            let bytes = entry_bytes(&successor, successor_schedule.len());
                            let mut shard =
                                next[key.shard(SHARDS)].lock().expect("next shard poisoned");
                            match shard.entry(key) {
                                std::collections::hash_map::Entry::Occupied(mut occupied) => {
                                    let kept = occupied.get_mut();
                                    // Same key, different parent: keep the
                                    // lexicographically smallest schedule —
                                    // and the state it produced, which with
                                    // symmetry on may be a different member
                                    // of the same orbit — so the retained
                                    // tuple never depends on timing.
                                    if successor_schedule < kept.schedule {
                                        kept.state = successor;
                                        kept.schedule = successor_schedule;
                                        kept.parent = node;
                                        kept.step = process;
                                        // The orbit weight and byte charge
                                        // belong to the retained member, so
                                        // they travel with the state to stay
                                        // deterministic.
                                        kept.orbit_lower = orbit_lower;
                                        kept.bytes = bytes;
                                    }
                                }
                                std::collections::hash_map::Entry::Vacant(vacant) => {
                                    // First discovery this level: evaluate
                                    // the predicate once per fresh key
                                    // (verdicts are identical across an
                                    // orbit, so whichever member arrives
                                    // first decides the same way).
                                    let violating = predicate(&successor).is_some();
                                    vacant.insert(Discovered {
                                        state: successor,
                                        schedule: successor_schedule,
                                        parent: node,
                                        step: process,
                                        orbit_lower,
                                        bytes,
                                        violating,
                                    });
                                }
                            }
                        }
                    }
                });
            }
        });
        result.paths += terminal_paths.load(Ordering::Relaxed);
        result.expansions += expansions.load(Ordering::Relaxed);
        if at_depth_limit {
            result.truncated |= depth_cut.load(Ordering::Relaxed);
            break;
        }

        // Barrier: filter candidates against spilled seen generations,
        // commit the survivors' keys and arena deltas, resolve violations,
        // freeze the next frontier. The spilled-filter runs FIRST: a
        // re-discovered spilled key must vanish before violation handling,
        // which keeps the output identical to a spill-off run (a seen key
        // is never violating — its discovery level would have ended the
        // search). Violation descriptions are (re)computed from the
        // *retained* state, so the reported witness schedule and its
        // description always describe the same configuration, whichever
        // orbit member was discovered first.
        let mut violations: Vec<ExploredViolation> = Vec::new();
        let mut next_level: Vec<Entry<A>> = Vec::new();
        let mut next_level_bytes: u64 = 0;
        for (index, shard) in next.into_iter().enumerate() {
            let candidates = shard.into_inner().expect("next shard poisoned");
            if candidates.is_empty() {
                continue;
            }
            let spilled_paths = {
                let shard = seen.shards[index].lock().expect("seen shard poisoned");
                shard.spilled.clone()
            };
            let spilled_keys =
                (!spilled_paths.is_empty()).then(|| load_spilled_keys(&spilled_paths));
            for (key, discovered) in candidates {
                if let Some(spilled) = &spilled_keys {
                    if spilled.contains(&key) {
                        continue;
                    }
                }
                if !seen.insert(key) {
                    continue;
                }
                if discovered.violating {
                    let description = predicate(&discovered.state).expect(
                        "the predicate rejected an orbit member of this state; verdicts \
                         must be pure and relabeling-invariant",
                    );
                    violations.push(ExploredViolation {
                        schedule: discovered.schedule,
                        description,
                    });
                } else {
                    let node = arena.push(discovered.parent, discovered.step);
                    next_level_bytes += discovered.bytes;
                    next_level.push(Entry {
                        state: Some(discovered.state),
                        node,
                        orbit_lower: discovered.orbit_lower,
                    });
                }
            }
        }
        if !violations.is_empty() {
            violations.sort_by(|a, b| a.schedule.cmp(&b.schedule));
            let chosen = violations.swap_remove(0);
            result.max_depth_reached = result.max_depth_reached.max(chosen.schedule.len() as u64);
            result.violation = Some(chosen);
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
        if cap > 0 && !config.spill && next_level_bytes > cap {
            // Over the resident-byte budget with spill disabled: a
            // deterministic truncation, decided at the barrier from the
            // frozen level alone.
            result.truncated = true;
            result.pending_at_exit = next_level.len() as u64;
            break;
        }
        if config.spill && cap > 0 && next_level_bytes > cap {
            // Freeze the level to a sealed segment of (node, orbit)
            // records; the executors are dropped here and rebuilt by
            // replay when the level thaws.
            let dir = match &spill_dir {
                Some(dir) => dir,
                None => {
                    spill_dir = Some(SpillDir::fresh().expect("creating the spill directory"));
                    spill_dir.as_ref().expect("just created")
                }
            };
            let path = dir.file(&format!("level-{depth:08}.seg"));
            let mut writer = SegmentWriter::create(&path, SegmentKind::FrontierLevel, depth)
                .expect("creating a level spill segment");
            let count = next_level.len() as u64;
            for entry in next_level.drain(..) {
                writer
                    .append(&encode_level_record(entry.node, entry.orbit_lower))
                    .expect("writing a level spill record");
            }
            writer.finish().expect("sealing a level spill segment");
            result.spilled_entries += count;
            pending = PendingLevel::Spilled { path, count };
        } else {
            pending = PendingLevel::Resident(next_level);
        }
        // Seen-set shards follow the same budget: once the live tables
        // outgrow it, they move to sealed per-shard generations.
        if config.spill && cap > 0 && seen.live_bytes() > cap {
            let dir = match &spill_dir {
                Some(dir) => dir,
                None => {
                    spill_dir = Some(SpillDir::fresh().expect("creating the spill directory"));
                    spill_dir.as_ref().expect("just created")
                }
            };
            seen.spill_live(dir, seen_spill_generation);
            seen_spill_generation += 1;
        }
        depth += 1;
    }
    result.seen_entries = seen.len();
    result.approx_bytes = level_bytes_peak + seen.table_bytes_if_resident();
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
        let exec = writers(3);
        let serial = explore(&exec, ExploreConfig::default(), agreement_predicate(3));
        assert!(serial.verified());
        for threads in [1, 2, 8] {
            let parallel = parallel_explore(
                &exec,
                ParallelExploreConfig::with_threads(threads),
                agreement_predicate(3),
            );
            assert!(parallel.verified(), "threads={threads}: {parallel:?}");
            assert_eq!(
                parallel.states_visited, serial.states_visited,
                "threads={threads}"
            );
            assert_eq!(parallel.paths, serial.paths, "threads={threads}");
            assert_eq!(parallel.violation, serial.violation);
            assert_eq!(parallel.seen_entries, serial.seen_entries);
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
        let exec = writers(3);
        let base = parallel_explore(
            &exec,
            ParallelExploreConfig::with_threads(1),
            agreement_predicate(3),
        );
        assert!(base.verified());
        assert_eq!(base.spilled_entries, 0);
        for threads in [1, 2, 8] {
            let spilled = parallel_explore(
                &exec,
                ParallelExploreConfig {
                    threads,
                    spill: true,
                    max_resident_bytes: 1,
                    ..ParallelExploreConfig::default()
                },
                agreement_predicate(3),
            );
            assert!(
                spilled.spilled_entries > 0,
                "threads={threads}: the tiny cap must force level spills"
            );
            assert!(spilled.verified(), "threads={threads}: {spilled:?}");
            assert_eq!(spilled.states_visited, base.states_visited);
            assert_eq!(spilled.paths, base.paths);
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
    fn reduction_requests_fall_back_to_full_expansion() {
        // Partial-order reduction belongs to the serial DPOR explorer: a
        // persistent-set request here must expand fully, report that it
        // did, and leave every statistic equal to the unreduced run.
        let exec = writers(3);
        let off = parallel_explore(
            &exec,
            ParallelExploreConfig::default(),
            agreement_predicate(3),
        );
        let requested = parallel_explore(
            &exec,
            ParallelExploreConfig {
                reduction: ReductionMode::PersistentSets,
                ..ParallelExploreConfig::default()
            },
            agreement_predicate(3),
        );
        assert!(requested.verified());
        assert!(!off.reduction_applied && !requested.reduction_applied);
        assert_eq!(requested.states_visited, off.states_visited);
        assert_eq!(requested.expansions, off.expansions);
        assert_eq!(requested.approx_bytes, off.approx_bytes);
        assert_eq!(
            (
                requested.sleep_pruned,
                requested.persistent_expanded,
                requested.states_cut
            ),
            (0, 0, 0)
        );
    }

    #[test]
    fn level_records_roundtrip() {
        assert_eq!(decode_level_record(&encode_level_record(7, 42)), (7, 42));
        assert_eq!(
            decode_level_record(&encode_level_record(u32::MAX, u64::MAX)),
            (u32::MAX, u64::MAX)
        );
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
