//! Bounded exhaustive exploration of interleavings — a tiny model checker.
//!
//! For small systems (a handful of processes, a bounded number of steps) it
//! is feasible to enumerate *every* schedule and check a safety predicate in
//! every reachable configuration. This provides much stronger evidence than
//! randomized testing:
//!
//! * the paper's algorithms (Figures 3–5) are checked to satisfy Validity and
//!   k-Agreement in **all** interleavings of small configurations, and
//! * deliberately under-provisioned variants (fewer registers than the lower
//!   bounds allow) are shown to have *some* interleaving that violates
//!   k-agreement — an executable companion to the Theorem 2 argument.
//!
//! States are deduplicated by a collision-resistant 128-bit [`StateKey`]
//! over the automata, the raw memory contents and the decisions taken so
//! far, which keeps the search tractable well beyond naive schedule
//! enumeration without risking an unsound prune (see
//! [`Exploration::verified`]).
//!
//! This module is the serial depth-first explorer; its parallel
//! breadth-first counterpart, which shares the [`StateKey`] dedup guarantee, lives in
//! [`parallel_explore`](crate::parallel_explore).

use crate::executor::Executor;
use crate::store::KeyTable;
use sa_memory::SimMemory;
use sa_model::{Automaton, Fingerprinter, IdRelabeling, ProcessId, SymmetryClass};
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

/// Whether an explorer deduplicates reachable configurations up to
/// process-id symmetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SymmetryMode {
    /// Every configuration is its own dedup key — the historical behavior.
    #[default]
    Off,
    /// Configurations are canonicalized up to process-id orbits before
    /// computing their [`StateKey`]: processes that the algorithm cannot
    /// distinguish may be relabeled, so one representative per orbit is
    /// explored.
    ///
    /// This is **requested**, not guaranteed: automata must opt in through
    /// [`Automaton::symmetry_class`], and a system whose automata report
    /// [`SymmetryClass::Opaque`] falls back to [`Off`](SymmetryMode::Off)
    /// rather than prune unsoundly —
    /// [`Exploration::symmetry_applied`] records what actually happened.
    ProcessIds,
}

impl SymmetryMode {
    /// A stable label used by records and CLIs.
    pub fn label(&self) -> &'static str {
        match self {
            SymmetryMode::Off => "off",
            SymmetryMode::ProcessIds => "process-ids",
        }
    }

    /// Parses [`SymmetryMode::label`] output.
    pub fn parse(text: &str) -> Option<SymmetryMode> {
        match text {
            "off" => Some(SymmetryMode::Off),
            "process-ids" => Some(SymmetryMode::ProcessIds),
            _ => None,
        }
    }
}

/// Configuration of a bounded exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Maximum number of steps along any single execution path: in this
    /// depth-first explorer, the length of the DFS path. That length
    /// depends on the order the search takes, not on the model alone: the
    /// 5/1/4 anonymous cell under symmetry reaches a DFS path 152,628 steps
    /// deep, so a bound of 100,000 reports it truncated. The parallel
    /// explorer's bound
    /// ([`ParallelExploreConfig::max_depth`](crate::ParallelExploreConfig::max_depth))
    /// is the breadth-first radius instead.
    pub max_depth: u64,
    /// Maximum number of states to visit before giving up (truncation).
    /// A state space of **exactly** `max_states` states is exhausted, not
    /// truncated: truncation means the budget ran out while unexplored
    /// work remained.
    pub max_states: u64,
    /// Whether to deduplicate up to process-id symmetry (falls back to [`SymmetryMode::Off`] for automata that do not opt
    /// in — see [`SymmetryMode::ProcessIds`]).
    pub symmetry: SymmetryMode,
    /// Whether the explorer may evict the executors of cold frontier entries
    /// when the resident frontier exceeds
    /// [`max_resident_bytes`](Self::max_resident_bytes). An evicted entry
    /// keeps only its place on the DFS stack; its executor is rebuilt by
    /// deterministic replay of the DFS path when the search reaches it
    /// again, so the search verdict and every statistic except
    /// [`Exploration::spilled_entries`] are identical with spill on or off.
    /// Nothing is written to disk.
    pub spill: bool,
    /// A budget, in estimated deep bytes ([`Executor::approx_deep_bytes`]),
    /// on the resident frontier. `0` means unlimited. When the budget is
    /// exceeded: with [`spill`](Self::spill) the explorer evicts the coldest
    /// half of the resident frontier and continues; without it the search
    /// deterministically truncates, preserving the pending count in
    /// [`Exploration::pending_at_exit`].
    pub max_resident_bytes: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_depth: 60,
            max_states: 2_000_000,
            symmetry: SymmetryMode::Off,
            spill: false,
            max_resident_bytes: 0,
        }
    }
}

impl ExploreConfig {
    /// A config with the given depth bound.
    pub fn with_depth(max_depth: u64) -> Self {
        ExploreConfig {
            max_depth,
            ..ExploreConfig::default()
        }
    }
}

/// A safety violation discovered by the explorer, together with the schedule
/// that exhibits it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploredViolation {
    /// The schedule (sequence of process ids) leading to the violation. An
    /// empty schedule means the **initial** configuration already violates
    /// the predicate.
    pub schedule: Vec<ProcessId>,
    /// A human-readable description produced by the predicate.
    pub description: String,
}

/// What [`Exploration::frontier_peak`] measures — the two explorers keep
/// fundamentally different frontiers, and the shared field name used to
/// silently conflate them (a DFS stack depth is *not* comparable to a BFS
/// level width when sizing a run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrontierSemantics {
    /// The serial [`explore`](crate::explore): the deepest pending DFS
    /// stack, counting resident and evicted entries alike.
    DfsStackDepth,
    /// [`parallel_explore`](crate::parallel_explore): the widest
    /// breadth-first level awaiting expansion.
    BfsLevelWidth,
}

impl FrontierSemantics {
    /// A stable label used by records and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            FrontierSemantics::DfsStackDepth => "dfs-stack-depth",
            FrontierSemantics::BfsLevelWidth => "bfs-level-width",
        }
    }
}

/// The result of a bounded exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Number of states visited.
    pub states_visited: u64,
    /// Number of maximal paths (all-halted or depth-bounded) examined.
    pub paths: u64,
    /// The first violation found, if any.
    pub violation: Option<ExploredViolation>,
    /// `true` if the search stopped because a limit was hit rather than
    /// because the state space was exhausted.
    pub truncated: bool,
    /// The deepest schedule prefix (in steps) the search examined: the
    /// longest *non-revisiting* path for the serial
    /// explorer, and the breadth-first radius of the explored state space
    /// for the parallel explorer — both can be far below `max_depth` even
    /// when the state space is exhausted.
    pub max_depth_reached: u64,
    /// Peak size of the frontier of states awaiting expansion; what a
    /// "frontier entry" *is* differs per backend — see
    /// [`frontier_semantics`](Self::frontier_semantics). Entries that shed
    /// their executors count: the peak is a property of the search, not of
    /// which entries held their executors.
    pub frontier_peak: u64,
    /// What [`frontier_peak`](Self::frontier_peak) measures for the backend
    /// that produced this report: the deepest DFS stack for the serial
    /// explorer, the widest BFS level for the parallel one.
    pub frontier_semantics: FrontierSemantics,
    /// States that were discovered but still awaiting expansion when the
    /// search stopped (0 when the space was exhausted). Together with
    /// [`states_visited`](Self::states_visited) this accounts for **every**
    /// discovered state: a truncated search loses nothing, which is what a
    /// checkpoint-resume needs. The pre-fix explorer silently discarded the
    /// state it had just popped when the budget ran out.
    pub pending_at_exit: u64,
    /// Entries held by the dedup seen-set when the search stopped.
    pub seen_entries: u64,
    /// A rough, deterministic estimate of the bytes held by the explorer's
    /// data structures at their peak: the deep size of the peak frontier
    /// (entries holding their executors plus those that shed them, so it is
    /// spill-invariant) plus the final seen-set table. Deep means heap
    /// payloads — register contents, histories, decision sets — are charged
    /// per entry, not just the struct shells; the pre-fix shallow
    /// accounting under-reported history-heavy cells by an order of
    /// magnitude.
    pub approx_bytes: u64,
    /// Cumulative number of frontier entries whose executors were shed (0
    /// unless spill was on and the resident budget was exceeded): entries
    /// the serial explorer evicted from its DFS stack, or entries of the
    /// frozen BFS levels that exceeded the budget. Both explorers rebuild a
    /// shed executor by replay. The only statistic that legitimately
    /// differs between a spilled and an in-core run of the same cell.
    pub spilled_entries: u64,
    /// `true` if the search deduplicated up to process-id symmetry:
    /// [`SymmetryMode::ProcessIds`] was requested **and** every automaton
    /// opted in (see [`Automaton::symmetry_class`]). When `false` despite a
    /// request, the search fell back to plain exploration — same verdicts,
    /// no reduction.
    pub symmetry_applied: bool,
    /// A lower bound on the number of distinct reachable configurations
    /// represented by the visited states: with symmetry applied, the sum
    /// over visited orbit representatives of the number of distinct
    /// configurations their input-preserving relabelings produce (every one
    /// of them reachable); without symmetry, exactly `states_visited`. The
    /// ratio `full_states_lower_bound / states_visited` is the reduction
    /// factor the quotient achieved. Exact up to 128-bit signature
    /// collisions between distinct slot states.
    pub full_states_lower_bound: u64,
    /// Number of successor configurations generated (one per expanded
    /// transition).
    pub expansions: u64,
}

impl Exploration {
    /// The report of a search that has visited nothing yet — or, when the
    /// predicate rejected the initial configuration (`root_violation`), the
    /// finished report of that one-state search, which the caller returns
    /// as is.
    pub(crate) fn new(
        frontier_semantics: FrontierSemantics,
        symmetry_applied: bool,
        root_violation: Option<String>,
    ) -> Exploration {
        let root_visited = root_violation.is_some() as u64;
        Exploration {
            states_visited: root_visited,
            paths: 0,
            violation: root_violation.map(|description| ExploredViolation {
                schedule: Vec::new(),
                description,
            }),
            truncated: false,
            max_depth_reached: 0,
            frontier_peak: 0,
            frontier_semantics,
            pending_at_exit: 0,
            seen_entries: 0,
            approx_bytes: 0,
            spilled_entries: 0,
            symmetry_applied,
            full_states_lower_bound: root_visited,
            expansions: 0,
        }
    }

    /// `true` if no violation was found and the search was not truncated —
    /// i.e. the predicate holds in **every** reachable configuration within
    /// the depth bound.
    ///
    /// # Soundness
    ///
    /// Deduplication keys are 128-bit fingerprints, from two independently
    /// seeded 64-bit lanes, of the **full** (canonical) state: every
    /// automaton, the raw register/snapshot contents and all decisions —
    /// under symmetry, the anonymous key reaches automata and decisions
    /// through the slot signatures (see [`StateKey`] and
    /// [`canonical_state_key`]). A reachable state is pruned only if a
    /// state with the same key was already expanded. A false `verified`
    /// therefore requires a 128-bit collision between two distinct reachable
    /// states (probability ≈ `s² / 2¹²⁹` for `s` states, if the fingerprint
    /// behaves like a random function — below `10⁻²⁵` even at the default
    /// two-million-state budget), not a 64-bit one as in earlier releases.
    pub fn verified(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }
}

/// A collision-resistant dedup key: the 128-bit [`Fingerprinter`] digest of
/// a configuration's full (possibly canonical) state.
///
/// The digest is stable: it depends on the fingerprint's constants and on
/// the `Hash` streams of the hashed types, not on the toolchain's std
/// hasher, and the known-answer tests pin both. The pre-fix explorer keyed
/// its seen-set by a single 64-bit hash, so one collision anywhere in a
/// million-state search (birthday probability ≈ `s² / 2⁶⁵`, i.e. one in
/// ~10⁷ per cell — material across whole campaigns) could unsoundly prune
/// a reachable state while still reporting `verified`. The two 64-bit
/// halves come from independently seeded lanes, which makes that
/// probability negligible; see [`Exploration::verified`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateKey([u64; 2]);

impl StateKey {
    /// Reassembles a key from [`parts`](Self::parts) output — used where
    /// keys are stored as their bare words, as
    /// [`KeyTable`](crate::store::KeyTable) stores them.
    pub fn from_parts(parts: [u64; 2]) -> StateKey {
        StateKey(parts)
    }

    /// The two independently seeded halves of the key.
    pub fn parts(&self) -> [u64; 2] {
        self.0
    }

    /// The shard index this key belongs to when the seen-set is split into
    /// `shards` parts — a prefix of the first half, so keys spread evenly.
    pub fn shard(&self, shards: usize) -> usize {
        debug_assert!(shards.is_power_of_two(), "shard counts are powers of two");
        ((self.0[0] >> 48) as usize) & (shards - 1)
    }
}

/// The dedup key of an executor configuration: automata, raw memory
/// contents and decisions, hashed into a [`StateKey`]. Shared by the serial
/// and the parallel explorer so their seen-sets agree on state identity.
pub fn state_key<A>(executor: &Executor<A>) -> StateKey
where
    A: Automaton + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    let mut hasher = Fingerprinter::new();
    for p in 0..executor.process_count() {
        executor.automaton(ProcessId(p)).hash(&mut hasher);
    }
    executor.memory().hash_contents(&mut hasher);
    executor.decisions().hash(&mut hasher);
    StateKey(hasher.finish128())
}

/// The precomputed symmetry structure of one exploration: whether reduction
/// applies at all, and which process slots may exchange positions during
/// canonicalization.
///
/// Built once per search from the **initial** configuration (see
/// [`SymmetryPlan::for_executor`]) and shared by the serial and the parallel
/// explorer, so their canonical keys agree exactly.
#[derive(Debug, Clone)]
pub struct SymmetryPlan {
    applied: bool,
    n: usize,
    /// The automata's declared class; id-carrying systems additionally sign
    /// slots with their memory-occurrence profile (see `canonical_order`).
    class: SymmetryClass,
    /// Canonical sorting domain per slot: slots may only exchange canonical
    /// positions with slots of the same domain. One domain for anonymous
    /// systems (full-group permutation); equal-initial-behavior domains for
    /// id-carrying systems (so the relabelings quotiented by are exactly
    /// those fixing the initial configuration).
    canon_class: Vec<usize>,
    /// The slots of each equal-initial-behavior class of two or more slots,
    /// used by the orbit-size lower bound: relabelings within these classes
    /// fix the initial configuration, so every orbit member they produce is
    /// reachable. A one-slot class has one arrangement and is left out.
    shared_classes: Vec<Vec<usize>>,
    /// The id-erasing map used for order-independent slot signatures.
    erase: IdRelabeling,
}

impl SymmetryPlan {
    /// A plan that applies no reduction.
    fn off(n: usize) -> SymmetryPlan {
        SymmetryPlan {
            applied: false,
            n,
            class: SymmetryClass::Opaque,
            canon_class: Vec::new(),
            shared_classes: Vec::new(),
            erase: IdRelabeling::erase(n),
        }
    }

    /// Builds the plan for exploring from `initial` under `mode`.
    ///
    /// [`SymmetryMode::ProcessIds`] is **established** (rather than assumed)
    /// here: every automaton must report the same non-
    /// [`Opaque`](SymmetryClass::Opaque) [`Automaton::symmetry_class`],
    /// otherwise the plan falls back to no reduction — an unsound prune is
    /// worse than a slow search. Anonymous systems get one orbit group over
    /// all slots; id-carrying systems get one group per class of processes
    /// with identical (id-erased) initial behavior, i.e. identical inputs.
    pub fn for_executor<A>(initial: &Executor<A>, mode: SymmetryMode) -> SymmetryPlan
    where
        A: Automaton + Hash,
        A::Value: Hash + Clone + Eq + Debug,
    {
        let n = initial.process_count();
        if mode == SymmetryMode::Off || n == 0 {
            return SymmetryPlan::off(n);
        }
        let class = initial.automaton(ProcessId(0)).symmetry_class();
        if class == SymmetryClass::Opaque {
            return SymmetryPlan::off(n);
        }
        for p in 1..n {
            if initial.automaton(ProcessId(p)).symmetry_class() != class {
                return SymmetryPlan::off(n);
            }
        }
        let erase = IdRelabeling::erase(n);
        // Group slots by their id-erased initial behavior: for the paper's
        // algorithms this is exactly "identical input sequence".
        let signatures: Vec<StateKey> = (0..n)
            .map(|p| {
                let mut hasher = Fingerprinter::new();
                initial
                    .automaton(ProcessId(p))
                    .hash_behavior(&erase, &mut hasher);
                StateKey(hasher.finish128())
            })
            .collect();
        let mut initial_class = vec![0usize; n];
        let mut representatives: Vec<StateKey> = Vec::new();
        for p in 0..n {
            initial_class[p] = representatives
                .iter()
                .position(|sig| *sig == signatures[p])
                .unwrap_or_else(|| {
                    representatives.push(signatures[p]);
                    representatives.len() - 1
                });
        }
        let canon_class = match class {
            // Anonymous algorithms permit full-group permutation: nothing
            // in the transition system references a slot index.
            SymmetryClass::Anonymous => vec![0usize; n],
            // Id-carrying algorithms only within equal-input groups, where
            // the consistent relabeling fixes the initial configuration.
            SymmetryClass::IdCarrying => initial_class.clone(),
            SymmetryClass::Opaque => unreachable!("checked above"),
        };
        let initial_class = &initial_class;
        let members = |class: usize| (0..n).filter(move |&p| initial_class[p] == class);
        let shared_classes = (0..representatives.len())
            .filter(|&class| members(class).nth(1).is_some())
            .map(|class| members(class).collect())
            .collect();
        SymmetryPlan {
            applied: true,
            n,
            class,
            canon_class,
            shared_classes,
            erase,
        }
    }

    /// `true` if this plan performs symmetry reduction.
    pub fn applied(&self) -> bool {
        self.applied
    }

    /// `true` if every orbit group is a single slot, so canonicalization is
    /// provably the identity and no two distinct configurations can ever
    /// merge — e.g. a distinct-workload cell of an id-carrying algorithm.
    /// The explorers use this to take the plain [`state_key`] fast path
    /// (same dedup semantics, none of the per-slot signature work) while
    /// still reporting the symmetry as applied.
    pub fn is_trivial(&self) -> bool {
        let groups = self.orbit_groups();
        groups == self.n && self.n > 0
    }

    /// The number of orbit groups canonicalization sorts within (`0` when
    /// the plan applies no reduction).
    pub fn orbit_groups(&self) -> usize {
        self.canon_class.iter().copied().max().map_or(0, |c| c + 1)
    }

    /// `true` if entries carry their slot signatures, so a successor's
    /// key re-hashes only the slot that stepped (see [`successor_key`]):
    /// an applied, non-trivial anonymous plan. An id-carrying signature
    /// includes the slot's memory spotlight profile, which any write
    /// changes, so those plans (and off and trivial ones) key every state
    /// from scratch.
    pub(crate) fn carries_signatures(&self) -> bool {
        self.applied && self.class == SymmetryClass::Anonymous && !self.is_trivial()
    }

    /// The slot signatures a frontier entry for `executor` carries: every
    /// slot's, in slot order, under a plan that
    /// [carries them](Self::carries_signatures); none otherwise, and an
    /// empty box allocates nothing.
    pub(crate) fn carried_signatures<A>(&self, executor: &Executor<A>) -> Box<[SlotSignature]>
    where
        A: Automaton + Hash,
        A::Value: Hash + Clone + Eq + Debug,
    {
        if !self.carries_signatures() {
            return Box::default();
        }
        self.signatures(executor).collect()
    }

    /// The canonical relabeling of `executor`'s configuration: a bijection
    /// `old id → new id` that, applied consistently to slots, local states,
    /// memory values and decisions, yields the orbit representative whose
    /// [`canonical_state_key`] is computed. The identity when the plan
    /// applies no reduction.
    pub fn canonical_relabeling<A>(&self, executor: &Executor<A>) -> IdRelabeling
    where
        A: Automaton + Hash,
        A::Value: Hash + Clone + Eq + Debug,
    {
        if !self.applied {
            return IdRelabeling::identity(self.n);
        }
        let signatures: Vec<SlotSignature> = self.signatures(executor).collect();
        relabel_for_order(&self.canonical_order(&signatures))
    }

    /// The signature of one slot: the id-erased 128-bit digest of its
    /// behavioral state and its decisions, by which the canonical order
    /// sorts slots.
    fn slot_signature<A>(&self, executor: &Executor<A>, slot: usize) -> SlotSignature
    where
        A: Automaton + Hash,
        A::Value: Hash + Clone + Eq + Debug,
    {
        let mut hasher = Fingerprinter::new();
        executor
            .automaton(ProcessId(slot))
            .hash_behavior(&self.erase, &mut hasher);
        // The slot's decisions travel with it under relabeling, so they are
        // part of what makes slots interchangeable.
        for (instance, value) in executor.decisions().decisions_by(ProcessId(slot)) {
            instance.hash(&mut hasher);
            value.hash(&mut hasher);
        }
        // Id-carrying values couple slots to memory: two slots whose local
        // states differ only in the id are still distinguished by WHERE
        // their ids occur in memory (e.g. only p1 has a pair in the
        // snapshot). Sign each slot with its id-occurrence profile — every
        // value hashed under a "spotlight" map sending this slot's id to p1
        // and every other id to p0 — so the canonical order separates them
        // consistently across the whole orbit. (Anonymous values embed no
        // ids; the profile would be constant, so skip it.)
        if self.class == SymmetryClass::IdCarrying && self.n > 1 {
            let mut spotlight = vec![ProcessId(0); self.n];
            spotlight[slot] = ProcessId(1);
            let spotlight = IdRelabeling::from_map(spotlight);
            executor
                .memory()
                .hash_contents_mapped(&mut hasher, |value| A::relabel_value(value, &spotlight));
        }
        hasher.finish128()
    }

    /// Every slot's [signature](Self::slot_signature), in slot order.
    fn signatures<'a, A>(
        &'a self,
        executor: &'a Executor<A>,
    ) -> impl Iterator<Item = SlotSignature> + 'a
    where
        A: Automaton + Hash,
        A::Value: Hash + Clone + Eq + Debug,
    {
        (0..self.n).map(|slot| self.slot_signature(executor, slot))
    }

    /// The canonical slot order (`order[new_slot] = old_slot`) of a
    /// configuration whose slot signatures are `signatures`.
    ///
    /// Within each orbit group, slots are sorted by signature; ties keep
    /// original slot order, so the result is a deterministic function of
    /// the configuration alone (never of thread count or discovery order).
    fn canonical_order(&self, signatures: &[SlotSignature]) -> Vec<usize> {
        let n = self.n;
        // Within each orbit group, reassign the group's slot positions to
        // its members in signature order (stable: ties keep slot order).
        // One group (every anonymous plan) holds every slot in order, so
        // the sorted slots are the order itself.
        let mut order: Vec<usize> = (0..n).collect();
        let groups = self.orbit_groups();
        if groups == 1 {
            order.sort_by_key(|p| (signatures[*p], *p));
        } else {
            let (mut positions, mut members) = (Vec::with_capacity(n), Vec::with_capacity(n));
            for group in 0..groups {
                positions.clear();
                positions.extend((0..n).filter(|p| self.canon_class[*p] == group));
                members.clear();
                members.extend_from_slice(&positions);
                members.sort_by_key(|p| (signatures[*p], *p));
                for (&position, &member) in positions.iter().zip(&members) {
                    order[position] = member;
                }
            }
        }
        order
    }

    /// The orbit-size lower bound of a configuration whose slot signatures
    /// are `signatures`; `sorted` is scratch space.
    ///
    /// Within each equal-initial-behavior class, relabelings fix the
    /// initial configuration, so they produce class_size! / (product of
    /// equal-signature run lengths!) distinct reachable configurations.
    /// Slots whose *projected* states collide are conservatively treated as
    /// interchangeable, keeping this a lower bound.
    fn orbit_lower(&self, signatures: &[SlotSignature], sorted: &mut Vec<SlotSignature>) -> u64 {
        let mut orbit_lower: u64 = 1;
        for members in &self.shared_classes {
            sorted.clear();
            sorted.extend(members.iter().map(|&p| signatures[p]));
            sorted.sort_unstable();
            let mut arrangements: u64 = factorial(sorted.len() as u64);
            let mut run = 1u64;
            for i in 1..=sorted.len() {
                if i < sorted.len() && sorted[i] == sorted[i - 1] {
                    run += 1;
                } else {
                    arrangements /= factorial(run);
                    run = 1;
                }
            }
            orbit_lower = orbit_lower.saturating_mul(arrangements);
        }
        orbit_lower
    }

    /// The anonymous canonical key and orbit weight of a configuration
    /// whose slot signatures (in slot order) are `signatures` and whose
    /// memory is `memory`: the signatures in sorted order, then the raw
    /// memory contents. Sorting the signatures hashes the same words as
    /// hashing them in canonical slot order, whose ties are equal
    /// signatures. `sorted` is scratch space.
    fn anonymous_key<V: Hash + Clone + Eq + Debug>(
        &self,
        signatures: &[SlotSignature],
        memory: &SimMemory<V>,
        sorted: &mut Vec<SlotSignature>,
    ) -> (StateKey, u64) {
        sorted.clear();
        sorted.extend_from_slice(signatures);
        sorted.sort_unstable();
        let mut hasher = Fingerprinter::new();
        for &[lo, hi] in sorted.iter() {
            hasher.write_u64(lo);
            hasher.write_u64(hi);
        }
        memory.hash_contents(&mut hasher);
        let key = StateKey(hasher.finish128());
        (key, self.orbit_lower(signatures, sorted))
    }
}

/// One process slot's signature: the 128-bit digest of its id-erased
/// behavior and its decisions (plus, for id-carrying plans, its memory
/// spotlight profile) that the canonical order sorts slots by.
pub(crate) type SlotSignature = [u64; 2];

/// Reused buffers for keying configurations from slot signatures.
#[derive(Debug, Default)]
pub(crate) struct SignatureBuffers {
    /// The slot signatures of the configuration keyed last, in slot order:
    /// empty after [`successor_key`] under a plan that does not carry
    /// signatures.
    pub(crate) signatures: Vec<SlotSignature>,
    /// The sort buffer of the key.
    sorted: Vec<SlotSignature>,
}

/// `n!`, saturating — orbit groups are at most `n` slots wide, and a
/// saturated count still satisfies the "lower bound" contract because it is
/// only ever *divided* by factorials of run lengths that partition `n`.
fn factorial(n: u64) -> u64 {
    (2..=n).fold(1u64, |acc, i| acc.saturating_mul(i))
}

/// The symmetry-reduced dedup key of a configuration, plus the orbit-size
/// lower bound feeding [`Exploration::full_states_lower_bound`].
///
/// The key is the 128-bit [`StateKey`] of the configuration's **canonical
/// orbit representative**: slots are reordered within their orbit groups by
/// id-erased behavioral signature, and the representative is hashed in one
/// of two ways, by the plan's [`SymmetryClass`]:
///
/// * **anonymous** — the slot signatures the canonical order sorted by, in
///   canonical order, then the raw memory contents
///   ([`SimMemory::hash_contents`](sa_memory::SimMemory::hash_contents)).
///   A signature already covers its slot's behavior
///   ([`Automaton::hash_behavior`]) and its decisions, and anonymous states
///   and values embed no id, so the relabeling changes nothing the
///   signatures or the memory hold;
/// * **id-carrying** — the automata ([`Automaton::hash_behavior`]), the
///   memory contents
///   ([`SimMemory::hash_contents_mapped`](sa_memory::SimMemory::hash_contents_mapped)
///   with [`Automaton::relabel_value`]) and the decisions, each under the
///   canonical relabeling.
///
/// Two configurations share a key **only if** one is the other's image
/// under an orbit-group permutation applied consistently through states,
/// values and decisions (up to the same 128-bit collision bound as plain
/// [`state_key`]) — so pruning on this key is sound: the pruned
/// configuration's entire future is the relabeled image of an explored one,
/// with identical safety verdicts.
///
/// A plan that applies no reduction (a fallback for Opaque automata, or
/// [`SymmetryMode::Off`]) degrades gracefully to the plain [`state_key`]
/// with a singleton orbit weight.
///
/// This function computes every slot signature from scratch. The explorers
/// key an anonymous successor from the signatures its parent carries
/// instead, recomputing only the slot that stepped, and then hash the same
/// words through the same code (see [`keyed`]), so both paths give the
/// same key.
pub fn canonical_state_key<A>(executor: &Executor<A>, plan: &SymmetryPlan) -> (StateKey, u64)
where
    A: Automaton + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    if !plan.applied {
        // A fallback plan (Opaque automata, or `SymmetryMode::Off`) defines
        // no orbits: the canonical key degrades to the plain key with a
        // singleton orbit, so callers can use the two interchangeably.
        return (state_key(executor), 1);
    }
    let signatures: Vec<SlotSignature> = plan.signatures(executor).collect();
    if plan.class == SymmetryClass::Anonymous {
        return plan.anonymous_key(&signatures, executor.memory(), &mut Vec::new());
    }
    let order = plan.canonical_order(&signatures);
    let orbit_lower = plan.orbit_lower(&signatures, &mut Vec::new());
    let mut hasher = Fingerprinter::new();
    let relabel = relabel_for_order(&order);
    for &old_slot in &order {
        executor
            .automaton(ProcessId(old_slot))
            .hash_behavior(&relabel, &mut hasher);
    }
    executor
        .memory()
        .hash_contents_mapped(&mut hasher, |value| A::relabel_value(value, &relabel));
    for instance in executor.decisions().instances() {
        instance.hash(&mut hasher);
        for (new_slot, &old_slot) in order.iter().enumerate() {
            if let Some(value) = executor
                .decisions()
                .decision_of(ProcessId(old_slot), instance)
            {
                new_slot.hash(&mut hasher);
                value.hash(&mut hasher);
            }
        }
    }
    (StateKey(hasher.finish128()), orbit_lower)
}

/// The canonical relabeling (`old id → new id`) induced by a canonical slot
/// order (`order[new_slot] = old_slot`).
fn relabel_for_order(order: &[usize]) -> IdRelabeling {
    let mut map = vec![ProcessId(0); order.len()];
    for (new_slot, &old_slot) in order.iter().enumerate() {
        map[old_slot] = ProcessId(new_slot);
    }
    IdRelabeling::from_map(map)
}

/// The dedup key (and visited-orbit weight) of a configuration under a
/// plan: [`canonical_state_key`] when the plan applies non-trivially, the
/// plain [`state_key`] (weight 1) otherwise. The single key function the
/// explorers and the adversary search share. Trivial plans (every orbit
/// group a singleton, e.g. a distinct-workload id-carrying cell) provably
/// cannot merge anything, so they skip the per-slot signature work entirely
/// rather than pay n extra memory hashes per state for a 1.0x reduction.
///
/// The explorers call it for their root and for the states of plans that do
/// not carry slot signatures. Under an applied, non-trivial anonymous plan
/// every other state is keyed from its parent's carried signatures by
/// `successor_key`: the same key, without re-hashing the n − 1 slots a
/// step left unchanged.
pub fn keyed<A>(executor: &Executor<A>, plan: &SymmetryPlan) -> (StateKey, u64)
where
    A: Automaton + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    if plan.applied && !plan.is_trivial() {
        canonical_state_key(executor, plan)
    } else {
        (state_key(executor), 1)
    }
}

/// The key and orbit weight of `successor`, reached by a step of `stepped`
/// from a parent whose carried slot signatures are `parent` (see
/// [`SymmetryPlan::carried_signatures`]). `buffers.signatures` is left
/// holding the successor's signatures, to carry on.
///
/// [`Executor::step`] changes only the stepping process's automaton and
/// records decisions only for it, so the successor's other n − 1 slot
/// signatures are the parent's: only `stepped`'s is recomputed, and the
/// key is built by the code [`canonical_state_key`] builds it with, so the
/// two agree bit for bit. A parent that carries no signatures (a plan that
/// does not carry them) is keyed by [`keyed`], from scratch.
pub(crate) fn successor_key<A>(
    plan: &SymmetryPlan,
    parent: &[SlotSignature],
    successor: &Executor<A>,
    stepped: ProcessId,
    buffers: &mut SignatureBuffers,
) -> (StateKey, u64)
where
    A: Automaton + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    buffers.signatures.clear();
    if parent.is_empty() {
        return keyed(successor, plan);
    }
    buffers.signatures.extend_from_slice(parent);
    buffers.signatures[stepped.index()] = plan.slot_signature(successor, stepped.index());
    plan.anonymous_key(&buffers.signatures, successor.memory(), &mut buffers.sorted)
}

/// The deterministic deep-byte charge of one frontier entry: the executor's
/// [`deep size`](Executor::approx_deep_bytes) (struct shells **plus** heap
/// payloads — register contents, histories, decision sets) plus a schedule
/// vector and the entry's bookkeeping words — charged even where no schedule
/// is stored, as recorded `approx_bytes` and budget decisions depend on it.
///
/// The pre-fix `estimate_bytes` charged only `size_of::<Executor<A>>()` per
/// entry, blind to every heap allocation inside the state; a 4-process
/// repeated-agreement cell reported ~430 MB while actually allocating
/// ~3.8 GB. Length-based deep accounting keeps the figure a pure function
/// of the search (never of capacities or discovery order), so it stays
/// byte-identical across worker counts and spill modes.
///
/// The slot signatures an entry carries under anonymous symmetry (see
/// [`SymmetryPlan::carried_signatures`]) are not charged, so recorded
/// `approx_bytes` and every budget decision are those of a search that
/// carries none.
pub(crate) fn entry_bytes<A: Automaton>(state: &Executor<A>, schedule_len: usize) -> u64 {
    state.approx_deep_bytes()
        + (std::mem::size_of::<Vec<ProcessId>>()
            + schedule_len * std::mem::size_of::<ProcessId>()
            + 2 * std::mem::size_of::<u64>()) as u64
}

/// Reconstructs the executor reached by `schedule` from `initial` by
/// deterministic replay — the reason a frontier entry that shed its
/// executor needs to keep no automaton or memory bytes at all.
pub(crate) fn replay<A>(
    initial: &Executor<A>,
    schedule: impl IntoIterator<Item = ProcessId>,
) -> Executor<A>
where
    A: Automaton + Clone,
    A::Value: Clone + Eq + Debug,
{
    let mut state = initial.clone();
    for process in schedule {
        state.step(process);
    }
    state
}

/// The executor an expanding worker builds its next successor in: the
/// last successor it did not keep, or none.
///
/// Every successor of a state but the last is a copy of the parent
/// stepped once, and most of them are duplicates that the worker drops as
/// soon as their key is known. Built by [`Executor::clone_from`] into a
/// spare of the same system, such a copy allocates no vectors; handed back by
/// [`recycle`](Self::recycle), a duplicate becomes the next spare instead
/// of being freed.
#[derive(Debug)]
pub(crate) struct Spare<A: Automaton>(Option<Executor<A>>);

impl<A: Automaton> Default for Spare<A> {
    fn default() -> Self {
        Spare(None)
    }
}

impl<A> Spare<A>
where
    A: Automaton + Clone,
    A::Value: Clone + Eq + Debug,
{
    /// The successor of `parent` by `step`. The last step of a state
    /// (`last`) takes and steps the parent itself, so no parent is copied
    /// only to be dropped; any other step copies the parent into the spare,
    /// or into a fresh clone when there is none.
    pub(crate) fn successor(
        &mut self,
        parent: &mut Option<Executor<A>>,
        step: ProcessId,
        last: bool,
    ) -> Executor<A> {
        let mut successor = if last {
            parent.take().expect("only the last step takes the parent")
        } else {
            let parent = parent
                .as_ref()
                .expect("the parent outlives every other step");
            match self.0.take() {
                Some(mut spare) => {
                    spare.clone_from(parent);
                    spare
                }
                None => parent.clone(),
            }
        };
        successor.step(step);
        successor
    }

    /// Keeps `successor`, which the caller does not keep, to build the next
    /// successor in.
    pub(crate) fn recycle(&mut self, successor: Executor<A>) {
        self.0 = Some(successor);
    }
}

/// One pending entry of the serial DFS: its depth and the step from its
/// parent, whose schedule is a prefix of the DFS path when the entry is
/// popped (see [`explore`]). States are kept in their *original* labeling —
/// canonical forms exist only inside the dedup keys — so witness schedules
/// replay on the caller's executor as-is. Under a plan that carries slot
/// signatures, the one an entry needs is kept beside the stack (see
/// [`PathSignatures`]), so an entry is the same size under every plan.
struct DfsEntry<A: Automaton> {
    /// `None` once evicted to honor the resident budget; rebuilt by
    /// replaying the DFS path when the entry is popped.
    state: Option<Executor<A>>,
    depth: usize,
    step: ProcessId,
    orbit_lower: u64,
    bytes: u64,
}

/// The carried slot signatures of the serial DFS: one row of n signatures
/// per state on the path, the root's first, and for every stack entry above
/// the root the signature of the slot its step changed. An entry's row is
/// its parent's with that one signature replaced, so a pending entry costs
/// 16 B beside the stack, and an evicted entry keeps its signature. Both
/// stay empty under a plan that does not carry signatures.
struct PathSignatures {
    width: usize,
    rows: Vec<SlotSignature>,
    /// The stepped slot's signature of each stack entry above the root, in
    /// stack order.
    stepped: Vec<SlotSignature>,
}

impl PathSignatures {
    fn new(root: Box<[SlotSignature]>) -> Self {
        PathSignatures {
            width: root.len(),
            rows: root.into_vec(),
            stepped: Vec::new(),
        }
    }

    /// Records the entry just pushed on the stack, reached by `step` and
    /// keyed from `signatures` (its signatures, as [`successor_key`] left
    /// them).
    fn push(&mut self, signatures: &[SlotSignature], step: ProcessId) {
        if self.width > 0 {
            self.stepped.push(signatures[step.index()]);
        }
    }

    /// Enters the entry just popped from the stack, at `depth` (at least 1)
    /// and reached by `step` from the state at `depth − 1` on the path: its
    /// row is its parent's with `step`'s signature replaced by the one
    /// recorded when it was pushed.
    fn enter(&mut self, depth: usize, step: ProcessId) {
        if self.width == 0 {
            return;
        }
        let signature = self.stepped.pop().expect("every pushed entry recorded one");
        self.rows.truncate(depth * self.width);
        self.rows.extend_from_within((depth - 1) * self.width..);
        self.rows[depth * self.width + step.index()] = signature;
    }

    /// The signatures of the state entered last.
    fn current(&self) -> &[SlotSignature] {
        &self.rows[self.rows.len() - self.width..]
    }
}

/// Exhaustively explores every interleaving of the executor's processes up to
/// the configured depth, checking `predicate` in every reachable
/// configuration — **including the initial one**.
///
/// The predicate receives the executor after each step and returns
/// `Some(description)` to report a violation (which stops the search) or
/// `None` if the configuration is acceptable. It is evaluated once per
/// newly discovered dedup key, after the seen-set is probed: every seen
/// key's state already passed it, and states with equal keys get the same
/// verdict, so a successor whose key is seen is dropped unchecked. With
/// [`SymmetryMode::ProcessIds`] the predicate must therefore be
/// relabeling-invariant, as
/// [`parallel_explore`](crate::parallel_explore) requires too; a
/// violating successor's key is never inserted.
///
/// The search is a depth-first one, and the only schedule it stores is the
/// path to the state being expanded. Stack depths never decrease toward the
/// top, so every pending entry's parent lies on the path: popping an entry
/// at depth `d` truncates the path to `d - 1` steps and appends the entry's
/// step. Under anonymous symmetry the path also holds each of its states'
/// slot signatures, from which a successor's key is built by re-hashing
/// only the slot that stepped.
///
/// A popped state's successors are built one at a time: each but the last
/// in the executor of the last successor that was dropped as a duplicate,
/// the last in the popped state itself. So a duplicate allocates no
/// vectors, and the runnable processes fill one reused buffer.
pub fn explore<A, F>(initial: &Executor<A>, config: ExploreConfig, mut predicate: F) -> Exploration
where
    A: Automaton + Clone + Hash,
    A::Value: Hash + Clone + Eq + Debug,
    F: FnMut(&Executor<A>) -> Option<String>,
{
    let plan = SymmetryPlan::for_executor(initial, config.symmetry);
    let mut result = Exploration::new(
        FrontierSemantics::DfsStackDepth,
        plan.applied(),
        // The initial configuration is reachable (by the empty schedule): a
        // predicate that rejects it must be reported, not silently skipped.
        predicate(initial),
    );
    if result.violation.is_some() {
        return result;
    }
    let mut seen = KeyTable::new();
    let (initial_key, initial_orbit) = keyed(initial, &plan);
    let initial_bytes = entry_bytes(initial, 0);
    let mut stack: Vec<DfsEntry<A>> = vec![DfsEntry {
        state: Some(initial.clone()),
        depth: 0,
        step: ProcessId(0),
        orbit_lower: initial_orbit,
        bytes: initial_bytes,
    }];
    result.frontier_peak = 1;
    seen.insert(initial_key);
    let mut path: Vec<ProcessId> = Vec::new();
    let mut signatures = PathSignatures::new(plan.carried_signatures(initial));
    let mut buffers = SignatureBuffers::default();
    let mut runnable = Vec::new();
    let mut spare = Spare::default();
    // Byte accounting. `resident` tracks the deep bytes of entries holding
    // their executor (what the cap polices), `evicted` those of evicted
    // entries. Their sum — whose peak feeds `approx_bytes` — is conserved
    // by eviction and rebuild, so the reported figure is spill-invariant.
    let cap = config.max_resident_bytes;
    let mut resident: u64 = initial_bytes;
    let mut evicted: u64 = 0;
    let mut logical_peak: u64 = resident;
    // Eviction takes the coldest resident entries, so the evicted entries
    // are always the stack's bottom `evicted_below`.
    let mut evicted_below: usize = 0;
    'search: loop {
        // Budget first, pop second: running out of budget must leave every
        // pending state *pending* (counted in `pending_at_exit`, resumable
        // from a checkpoint) — the pre-fix code popped first and silently
        // discarded the popped state on truncation. Visiting exactly
        // `max_states` states and then finding no pending work is still an
        // exhausted search, not a truncated one.
        if result.states_visited >= config.max_states {
            if !stack.is_empty() {
                result.truncated = true;
                result.pending_at_exit = stack.len() as u64;
            }
            break;
        }
        // A resident-byte budget without spill is a deterministic
        // truncation — same accounting as exhausting the state budget.
        if cap > 0 && !config.spill && resident > cap {
            result.truncated = true;
            result.pending_at_exit = stack.len() as u64;
            break;
        }
        let Some(entry) = stack.pop() else {
            break;
        };
        if let Some(parent_len) = entry.depth.checked_sub(1) {
            path.truncate(parent_len);
            path.push(entry.step);
            signatures.enter(entry.depth, entry.step);
        }
        let state = match entry.state {
            Some(state) => {
                resident -= entry.bytes;
                state
            }
            None => {
                evicted_below = stack.len();
                evicted -= entry.bytes;
                replay(initial, path.iter().copied())
            }
        };
        result.states_visited += 1;
        result.full_states_lower_bound = result
            .full_states_lower_bound
            .saturating_add(entry.orbit_lower);
        result.max_depth_reached = result.max_depth_reached.max(path.len() as u64);
        state.runnable_into(&mut runnable);
        if runnable.is_empty() || path.len() as u64 >= config.max_depth {
            if !runnable.is_empty() {
                // Depth bound cut this path short.
                result.truncated = true;
            }
            result.paths += 1;
            continue;
        }
        let mut parent = Some(state);
        for (i, &process) in runnable.iter().enumerate() {
            let next = spare.successor(&mut parent, process, i + 1 == runnable.len());
            result.expansions += 1;
            let (key, next_orbit) =
                successor_key(&plan, signatures.current(), &next, process, &mut buffers);
            if seen.contains(&key) {
                // Plain keys: an identical state was expanded. Canonical
                // keys: a configuration whose entire future is the
                // consistently relabeled image of an expanded one — same
                // verdicts, so pruning it is sound.
                spare.recycle(next);
                continue;
            }
            if let Some(description) = predicate(&next) {
                path.push(process);
                result.max_depth_reached = result.max_depth_reached.max(path.len() as u64);
                result.violation = Some(ExploredViolation {
                    schedule: path,
                    description,
                });
                break 'search;
            }
            seen.insert(key);
            let next_bytes = entry_bytes(&next, path.len() + 1);
            resident += next_bytes;
            stack.push(DfsEntry {
                state: Some(next),
                depth: path.len() + 1,
                step: process,
                orbit_lower: next_orbit,
                bytes: next_bytes,
            });
            signatures.push(&buffers.signatures, process);
        }
        result.frontier_peak = result.frontier_peak.max(stack.len() as u64);
        logical_peak = logical_peak.max(resident + evicted);
        // Over budget with spill enabled: evict the bottom half of the
        // resident entries (the coldest — DFS will not reach them until
        // everything above is done).
        let live = stack.len() - evicted_below;
        if config.spill && cap > 0 && resident > cap && live >= 2 {
            for entry in &mut stack[evicted_below..evicted_below + live / 2] {
                entry.state = None;
                resident -= entry.bytes;
                evicted += entry.bytes;
            }
            evicted_below += live / 2;
            result.spilled_entries += (live / 2) as u64;
        }
    }
    if !plan.applied() {
        // Without symmetry every visited state is its own orbit (a no-op
        // after a violation, where every weight summed so far was 1).
        result.full_states_lower_bound = result.states_visited;
    }
    result.seen_entries = seen.len() as u64;
    result.approx_bytes = logical_peak + KeyTable::bytes_for_len(seen.len() as u64);
    result
}

/// Convenience predicate: fail whenever more than `k` distinct values have
/// been decided in any instance (the k-Agreement safety property).
///
/// The closure is `Fn + Sync`, so one definition serves both [`explore`]
/// (which accepts any `FnMut`) and
/// [`parallel_explore`](crate::parallel_explore).
pub fn agreement_predicate<A>(k: usize) -> impl Fn(&Executor<A>) -> Option<String> + Sync
where
    A: Automaton,
    A::Value: Clone + Eq + Debug,
{
    move |executor: &Executor<A>| {
        let decisions = executor.decisions();
        let instance = decisions
            .instances()
            .find(|&instance| decisions.distinct_outputs(instance) > k)?;
        // Only a violation's description builds the output set.
        let outputs = decisions.outputs(instance);
        Some(format!(
            "instance {instance} has {} distinct outputs {:?}, exceeding k = {k}",
            outputs.len(),
            outputs
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{RacyConsensus, ToyWriter};

    #[test]
    fn explorer_verifies_trivially_safe_system() {
        // Two independent writers can never violate 2-agreement.
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let result = explore(&exec, ExploreConfig::default(), agreement_predicate(2));
        assert!(result.verified(), "unexpected result: {result:?}");
        assert!(result.states_visited > 0);
    }

    #[test]
    fn explorer_finds_the_racy_interleaving() {
        // RacyConsensus violates 1-agreement only when both processes read
        // before either writes; the explorer must find that schedule.
        let exec = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 20),
        ]);
        let result = explore(&exec, ExploreConfig::default(), agreement_predicate(1));
        let violation = result.violation.expect("the race must be found");
        assert!(violation.description.contains("exceeding k = 1"));
        // The violating schedule necessarily lets both processes read first.
        assert!(violation.schedule.len() >= 3);
    }

    #[test]
    fn racy_consensus_satisfies_two_agreement() {
        let exec = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 20),
        ]);
        let result = explore(&exec, ExploreConfig::default(), agreement_predicate(2));
        assert!(result.verified());
    }

    #[test]
    fn explorer_checks_the_initial_configuration() {
        // A predicate that rejects ONLY the initial configuration (before
        // any step is taken): pre-fix, the explorer never evaluated the
        // predicate on the root, so this system read as `verified`.
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let result = explore(&exec, ExploreConfig::default(), |e| {
            (e.steps() == 0).then(|| "the initial configuration is rejected".to_string())
        });
        assert!(!result.verified());
        assert_eq!(result.states_visited, 1);
        let violation = result
            .violation
            .expect("a depth-0 violation must be reported");
        assert!(
            violation.schedule.is_empty(),
            "the witnessing schedule for a root violation is empty, got {:?}",
            violation.schedule
        );
        assert!(violation.description.contains("initial configuration"));
    }

    #[test]
    fn depth_bound_reports_truncation() {
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let result = explore(&exec, ExploreConfig::with_depth(1), agreement_predicate(2));
        assert!(result.truncated);
        assert!(!result.verified());
        assert_eq!(result.max_depth_reached, 1, "depth bound caps the search");
    }

    #[test]
    fn max_depth_reached_spans_the_full_run_when_exhausted() {
        // Two ToyWriters halt after 2 steps each: the deepest maximal path
        // is exactly 4 steps, and exhausting the space must report it.
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let result = explore(&exec, ExploreConfig::default(), agreement_predicate(2));
        assert!(result.verified());
        assert_eq!(result.max_depth_reached, 4);
    }

    #[test]
    fn state_limit_reports_truncation() {
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let config = ExploreConfig {
            max_states: 2,
            ..ExploreConfig::default()
        };
        let result = explore(&exec, config, agreement_predicate(2));
        assert!(result.truncated);
        assert_eq!(result.states_visited, 2, "the budget itself is honored");
    }

    #[test]
    fn exact_state_budget_is_exhausted_not_truncated() {
        // The 2-writer space has a known, fixed size; a budget of exactly
        // that size must report an exhausted (verified) search. Pre-fix, the
        // `>=`-after-increment comparison flagged it as truncated.
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let space = explore(&exec, ExploreConfig::default(), agreement_predicate(2));
        assert!(space.verified());
        let exact = ExploreConfig {
            max_states: space.states_visited,
            ..ExploreConfig::default()
        };
        let result = explore(&exec, exact, agreement_predicate(2));
        assert!(
            result.verified(),
            "a budget of exactly the space size ({}) must exhaust, got {result:?}",
            space.states_visited
        );
        assert_eq!(result.states_visited, space.states_visited);

        // One state fewer genuinely truncates.
        let short = ExploreConfig {
            max_states: space.states_visited - 1,
            ..ExploreConfig::default()
        };
        let result = explore(&exec, short, agreement_predicate(2));
        assert!(result.truncated);
        assert!(!result.verified());
    }

    #[test]
    fn state_keys_are_wide_and_distinguish_states() {
        // Regression shape for the 64-bit dedup keys: the seen-set key is
        // 128 bits wide, its halves are independently seeded, and distinct
        // reachable states produce distinct keys. (The pre-fix code had a
        // single `u64` key, so this test did not even compile against it.)
        assert_eq!(std::mem::size_of::<StateKey>(), 16);
        let mut exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let root = state_key(&exec);
        assert_ne!(
            root.parts()[0],
            root.parts()[1],
            "the seeds must decorrelate the two halves"
        );
        exec.step(ProcessId(0));
        let stepped = state_key(&exec);
        assert_ne!(root, stepped);
        // Keys are pure functions of the state.
        assert_eq!(stepped, state_key(&exec));
        // Shards are a prefix of the first half and stay in range.
        assert!(root.shard(64) < 64);
    }

    #[test]
    fn symmetric_toy_writers_merge_under_process_id_symmetry() {
        // Two identical ToyWriters (same register, same value) are
        // interchangeable: the quotient halves the mixed-progress states.
        let exec = Executor::new(vec![ToyWriter::new(0, 7), ToyWriter::new(0, 7)]);
        let off = explore(&exec, ExploreConfig::default(), agreement_predicate(2));
        let sym = explore(
            &exec,
            ExploreConfig {
                symmetry: SymmetryMode::ProcessIds,
                ..ExploreConfig::default()
            },
            agreement_predicate(2),
        );
        assert!(off.verified() && sym.verified());
        assert!(!off.symmetry_applied);
        assert!(sym.symmetry_applied);
        assert!(
            sym.states_visited < off.states_visited,
            "equal-input slots must merge: {} !< {}",
            sym.states_visited,
            off.states_visited
        );
        // Equal-initial slots: every orbit member is reachable, so the
        // lower bound recovers the full state count exactly.
        assert_eq!(sym.full_states_lower_bound, off.states_visited);
        assert_eq!(off.full_states_lower_bound, off.states_visited);
    }

    #[test]
    fn id_carrying_slots_with_distinct_inputs_do_not_merge() {
        // RacyConsensus is IdCarrying: with distinct values the orbit
        // groups are singletons, so the quotient equals the full space and
        // the same witness is found.
        let exec = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 20),
        ]);
        let off = explore(&exec, ExploreConfig::default(), agreement_predicate(1));
        let sym = explore(
            &exec,
            ExploreConfig {
                symmetry: SymmetryMode::ProcessIds,
                ..ExploreConfig::default()
            },
            agreement_predicate(1),
        );
        assert!(sym.symmetry_applied);
        assert_eq!(sym.violation, off.violation, "witness must not change");
        assert_eq!(sym.states_visited, off.states_visited);
        assert_eq!(sym.full_states_lower_bound, off.states_visited);

        // With equal values the two slots form one orbit group and merge.
        let uniform = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 5),
            RacyConsensus::new(ProcessId(1), 5),
        ]);
        let off = explore(&uniform, ExploreConfig::default(), agreement_predicate(1));
        let sym = explore(
            &uniform,
            ExploreConfig {
                symmetry: SymmetryMode::ProcessIds,
                ..ExploreConfig::default()
            },
            agreement_predicate(1),
        );
        assert!(off.verified() && sym.verified());
        assert!(sym.states_visited < off.states_visited);
        assert_eq!(sym.full_states_lower_bound, off.states_visited);
    }

    #[test]
    fn opaque_automata_fall_back_to_plain_exploration() {
        use crate::toy::Spinner;
        // Spinner keeps the Opaque default, so the request must be refused
        // (fall back) and the results must equal a plain exploration.
        let exec = Executor::new(vec![Spinner::new(0), Spinner::new(1)]);
        let config = ExploreConfig {
            max_depth: 4,
            max_states: 10_000,
            ..ExploreConfig::default()
        };
        let off = explore(&exec, config, agreement_predicate(2));
        let requested = explore(
            &exec,
            ExploreConfig {
                symmetry: SymmetryMode::ProcessIds,
                ..config
            },
            agreement_predicate(2),
        );
        assert!(!requested.symmetry_applied, "Opaque must refuse symmetry");
        assert_eq!(requested.states_visited, off.states_visited);
        assert_eq!(requested.paths, off.paths);
        assert_eq!(requested.truncated, off.truncated);
        assert_eq!(requested.full_states_lower_bound, off.states_visited);
    }

    #[test]
    fn canonical_keys_are_invariant_under_orbit_permutations() {
        use sa_model::IdRelabeling;
        let mut exec = Executor::new(vec![ToyWriter::new(0, 7), ToyWriter::new(0, 7)]);
        exec.step(ProcessId(1));
        let plan = SymmetryPlan::for_executor(&exec, SymmetryMode::ProcessIds);
        assert!(plan.applied());
        assert_eq!(plan.orbit_groups(), 1);
        assert!(!plan.is_trivial(), "a 2-slot orbit group can merge");
        // Distinct-input id-carrying slots form singleton groups: the plan
        // is trivial, so the explorers take the plain-key fast path.
        let distinct = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 20),
        ]);
        let trivial = SymmetryPlan::for_executor(&distinct, SymmetryMode::ProcessIds);
        assert!(trivial.applied() && trivial.is_trivial());
        // A fallback plan degrades canonical keys to plain keys.
        let off = SymmetryPlan::for_executor(&exec, SymmetryMode::Off);
        assert!(!off.applied());
        assert_eq!(canonical_state_key(&exec, &off), (state_key(&exec), 1));
        let swap = IdRelabeling::swap(2, ProcessId(0), ProcessId(1));
        let swapped = exec.permuted(&swap);
        // The permuted configuration is a genuinely different state...
        assert_ne!(state_key(&exec), state_key(&swapped));
        // ...but canonicalization maps both to the same key and weight.
        assert_eq!(
            canonical_state_key(&exec, &plan),
            canonical_state_key(&swapped, &plan)
        );
        // Canonicalizing a canonical state is the identity.
        let canonical = exec.permuted(&plan.canonical_relabeling(&exec));
        assert!(plan.canonical_relabeling(&canonical).is_identity());
        assert_eq!(
            canonical_state_key(&canonical, &plan).0,
            canonical_state_key(&exec, &plan).0
        );
    }

    /// The anonymous canonical key hashes slot signatures and raw memory
    /// only, so it must still separate configurations that differ in a
    /// single decision, memory cell or slot phase — none of which is a slot
    /// permutation of the other.
    #[test]
    fn anonymous_canonical_keys_separate_decisions_memory_and_phases() {
        fn run<const N: usize>(writers: [ToyWriter; N], schedule: &[usize]) -> Executor<ToyWriter> {
            let mut exec = Executor::new(writers.to_vec());
            for &p in schedule {
                exec.step(ProcessId(p));
            }
            exec
        }
        fn assert_separated(x: &Executor<ToyWriter>, y: &Executor<ToyWriter>, what: &str) {
            let plan = SymmetryPlan::for_executor(x, SymmetryMode::ProcessIds);
            assert!(plan.applied() && plan.class == SymmetryClass::Anonymous);
            assert_ne!(
                canonical_state_key(x, &plan).0,
                canonical_state_key(y, &plan).0,
                "configurations differing only in {what} share a canonical key"
            );
        }
        let automata = |e: &Executor<ToyWriter>| -> Vec<ToyWriter> {
            (0..e.process_count())
                .map(|p| e.automaton(ProcessId(p)).clone())
                .collect()
        };

        // p0 reads register 0 before or after p1 overwrites it; p2 then
        // restores p0's value. Only p0's decision differs (1 versus 2).
        let writers = [
            ToyWriter::new(0, 1),
            ToyWriter::new(0, 2),
            ToyWriter::new(0, 1),
        ];
        let x = run(writers.clone(), &[0, 0, 1, 2]);
        let y = run(writers, &[0, 1, 0, 2]);
        assert_eq!(automata(&x), automata(&y));
        assert!(x.memory().same_contents(y.memory()));
        assert_ne!(x.decisions(), y.decisions());
        assert_separated(&x, &y, "one decision");

        // The two writes land in either order: only register 0 differs.
        let writers = [ToyWriter::new(0, 1), ToyWriter::new(0, 2)];
        let x = run(writers.clone(), &[0, 1]);
        let y = run(writers, &[1, 0]);
        assert_eq!(automata(&x), automata(&y));
        assert!(!x.memory().same_contents(y.memory()));
        assert_eq!(x.decisions(), y.decisions());
        assert_separated(&x, &y, "one memory cell");

        // Twin writers of one value: after both wrote, or only p0 did, the
        // memory is the same and only p1's phase differs.
        let writers = [ToyWriter::new(0, 5), ToyWriter::new(0, 5)];
        let x = run(writers.clone(), &[0, 1]);
        let y = run(writers, &[0]);
        assert_eq!(x.automaton(ProcessId(0)), y.automaton(ProcessId(0)));
        assert_ne!(x.automaton(ProcessId(1)), y.automaton(ProcessId(1)));
        assert!(x.memory().same_contents(y.memory()));
        assert_eq!(x.decisions(), y.decisions());
        assert_separated(&x, &y, "one slot's phase");
    }

    #[test]
    fn successor_keys_equal_keys_computed_from_scratch() {
        use sa_model::SplitMix64;
        // Six writers on two registers: slots 0 and 2, and 1 and 3, are
        // identical pairs (orbit weights above 1), and reads see other
        // writers' values, so decisions differ between walks.
        let initial = Executor::new(
            (0..6)
                .map(|p| ToyWriter::new(p % 2, p as u64 / 4 + 1))
                .collect(),
        );
        let plan = SymmetryPlan::for_executor(&initial, SymmetryMode::ProcessIds);
        assert!(plan.carries_signatures());
        let mut buffers = SignatureBuffers::default();
        let mut rng = SplitMix64::new(0x5EED);
        let mut weighted = false;
        for walk in 0..200 {
            let mut state = initial.clone();
            let mut signatures = plan.carried_signatures(&state);
            loop {
                let runnable = state.runnable();
                if runnable.is_empty() {
                    break;
                }
                let step = runnable[rng.below(runnable.len() as u64) as usize];
                state.step(step);
                let carried = successor_key(&plan, &signatures, &state, step, &mut buffers);
                assert_eq!(
                    carried,
                    canonical_state_key(&state, &plan),
                    "walk {walk}, step {}",
                    state.steps()
                );
                assert_eq!(buffers.signatures, *plan.carried_signatures(&state));
                weighted |= carried.1 > 1;
                signatures = buffers.signatures.as_slice().into();
            }
        }
        assert!(weighted, "some walk must reach a state of orbit weight > 1");

        // A plan that carries no signatures keys every state from scratch.
        let mut uniform = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 5),
            RacyConsensus::new(ProcessId(1), 5),
        ]);
        let plan = SymmetryPlan::for_executor(&uniform, SymmetryMode::ProcessIds);
        assert!(plan.applied() && !plan.carries_signatures());
        assert!(plan.carried_signatures(&uniform).is_empty());
        uniform.step(ProcessId(1));
        let key = successor_key(&plan, &[], &uniform, ProcessId(1), &mut buffers);
        assert_eq!(key, keyed(&uniform, &plan));
        assert!(buffers.signatures.is_empty());
    }

    #[test]
    fn evicted_entries_keep_their_signatures() {
        // Under symmetry a 1-byte cap evicts after every expansion, and an
        // evicted entry is rebuilt by replay: its carried signature and the
        // path's rows still key its successors, so the search is the
        // in-core one.
        let exec = Executor::new(
            (0..6)
                .map(|p| ToyWriter::new(p % 2, p as u64 / 4 + 1))
                .collect(),
        );
        let config = ExploreConfig {
            symmetry: SymmetryMode::ProcessIds,
            ..ExploreConfig::default()
        };
        let base = explore(&exec, config, agreement_predicate(6));
        let spilled = explore(
            &exec,
            ExploreConfig {
                spill: true,
                max_resident_bytes: 1,
                ..config
            },
            agreement_predicate(6),
        );
        assert!(base.verified() && spilled.verified());
        assert!(spilled.spilled_entries > 0);
        assert_eq!(spilled.states_visited, base.states_visited);
        assert_eq!(spilled.paths, base.paths);
        assert_eq!(spilled.frontier_peak, base.frontier_peak);
        assert_eq!(spilled.approx_bytes, base.approx_bytes);
        assert_eq!(
            spilled.full_states_lower_bound,
            base.full_states_lower_bound
        );
    }

    #[test]
    fn state_budget_preserves_pending_work() {
        // Budget of one state: the root is visited, its two children are
        // discovered and must BOTH remain pending. The pre-fix explorer
        // popped before checking the budget, so one discovered child was
        // silently discarded — neither visited, nor pending, nor counted —
        // which is unsound for checkpoint-resume accounting.
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let config = ExploreConfig {
            max_states: 1,
            ..ExploreConfig::default()
        };
        let result = explore(&exec, config, agreement_predicate(2));
        assert!(result.truncated);
        assert_eq!(result.states_visited, 1);
        assert_eq!(
            result.pending_at_exit, 2,
            "both children of the root stay pending"
        );
        assert_eq!(
            result.frontier_semantics,
            FrontierSemantics::DfsStackDepth,
            "the serial explorer reports a DFS stack depth"
        );

        // An exhausted search has nothing pending.
        let exhausted = explore(&exec, ExploreConfig::default(), agreement_predicate(2));
        assert!(exhausted.verified());
        assert_eq!(exhausted.pending_at_exit, 0);
    }

    #[test]
    fn spill_mode_is_byte_identical_to_in_core() {
        let exec = Executor::new(vec![
            ToyWriter::new(0, 1),
            ToyWriter::new(1, 2),
            ToyWriter::new(2, 3),
        ]);
        let base = explore(&exec, ExploreConfig::default(), agreement_predicate(3));
        assert!(base.verified());
        assert_eq!(base.spilled_entries, 0);
        // A 1-byte resident budget forces a spill after every expansion.
        let spilled = explore(
            &exec,
            ExploreConfig {
                spill: true,
                max_resident_bytes: 1,
                ..ExploreConfig::default()
            },
            agreement_predicate(3),
        );
        assert!(
            spilled.spilled_entries > 0,
            "the tiny cap must force spills"
        );
        assert!(spilled.verified());
        assert_eq!(spilled.states_visited, base.states_visited);
        assert_eq!(spilled.paths, base.paths);
        assert_eq!(spilled.violation, base.violation);
        assert_eq!(spilled.truncated, base.truncated);
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

    #[test]
    fn spill_mode_finds_the_same_violation() {
        let exec = Executor::new(vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 20),
        ]);
        let base = explore(&exec, ExploreConfig::default(), agreement_predicate(1));
        let spilled = explore(
            &exec,
            ExploreConfig {
                spill: true,
                max_resident_bytes: 1,
                ..ExploreConfig::default()
            },
            agreement_predicate(1),
        );
        assert_eq!(spilled.violation, base.violation, "witness must not change");
        assert_eq!(spilled.states_visited, base.states_visited);
    }

    #[test]
    fn memory_cap_without_spill_truncates_and_spill_rescues_it() {
        let exec = Executor::new(vec![
            ToyWriter::new(0, 1),
            ToyWriter::new(1, 2),
            ToyWriter::new(2, 3),
        ]);
        // Pick a cap below the cell's in-core peak but far above any single
        // entry, so the capped run makes real progress before giving up.
        let base = explore(&exec, ExploreConfig::default(), agreement_predicate(3));
        let cap = base.approx_bytes / 4;
        let capped_config = ExploreConfig {
            max_resident_bytes: cap,
            ..ExploreConfig::default()
        };
        let capped = explore(&exec, capped_config, agreement_predicate(3));
        assert!(capped.truncated, "an in-core run over budget must truncate");
        assert!(!capped.verified());
        assert!(capped.pending_at_exit > 0);
        // Deterministic: the same capped run yields the same report.
        let again = explore(&exec, capped_config, agreement_predicate(3));
        assert_eq!(capped.states_visited, again.states_visited);
        assert_eq!(capped.pending_at_exit, again.pending_at_exit);
        // The same budget with spill enabled exhausts the space.
        let rescued = explore(
            &exec,
            ExploreConfig {
                spill: true,
                ..capped_config
            },
            agreement_predicate(3),
        );
        assert!(
            rescued.verified(),
            "spill must let the capped cell exhaust: {rescued:?}"
        );
        assert!(rescued.spilled_entries > 0);
        assert_eq!(rescued.states_visited, base.states_visited);
    }

    #[test]
    fn deep_byte_accounting_charges_heap_payloads() {
        // ToyWriter states carry SimMemory registers: the deep estimate must
        // exceed the shallow per-entry struct sizes the pre-fix accounting
        // charged, and stay a pure function of the state.
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let shallow = std::mem::size_of::<Executor<ToyWriter>>() as u64;
        assert!(
            exec.approx_deep_bytes() > shallow,
            "deep size must charge heap payloads beyond the struct shell"
        );
        assert_eq!(exec.approx_deep_bytes(), exec.clone().approx_deep_bytes());
        assert_eq!(entry_bytes(&exec, 3), entry_bytes(&exec, 3));
        assert!(entry_bytes(&exec, 3) > entry_bytes(&exec, 0));
    }

    #[test]
    fn memory_statistics_are_populated_and_deterministic() {
        let exec = Executor::new(vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)]);
        let a = explore(&exec, ExploreConfig::default(), agreement_predicate(2));
        let b = explore(&exec, ExploreConfig::default(), agreement_predicate(2));
        assert!(a.frontier_peak > 0);
        assert_eq!(a.seen_entries, a.states_visited);
        assert!(a.approx_bytes > 0);
        assert_eq!(
            (a.frontier_peak, a.seen_entries, a.approx_bytes),
            (b.frontier_peak, b.seen_entries, b.approx_bytes)
        );
    }
}
