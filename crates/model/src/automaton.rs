//! The `Automaton` step-machine trait and decision events.

use crate::ids::{InputValue, InstanceId};
use crate::layout::MemoryLayout;
use crate::op::{Op, OpKind, Response};
use crate::symmetry::{IdRelabeling, SymmetryClass};
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

/// An output event of a `Propose` operation: in instance `instance` the
/// process decided `value`.
///
/// One-shot algorithms always report `instance == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Decision {
    /// The (1-based) instance of repeated set agreement this decision belongs to.
    pub instance: InstanceId,
    /// The decided value.
    pub value: InputValue,
}

impl Decision {
    /// Convenience constructor.
    pub fn new(instance: InstanceId, value: InputValue) -> Self {
        Decision { instance, value }
    }
}

/// A process automaton: the algorithm of one process, expressed as an
/// explicit state machine performing **one shared-memory operation per
/// step**.
///
/// This is exactly the granularity of the paper's model, and it is what makes
/// adversarial scheduling possible: a scheduler (or the Theorem 2 covering
/// adversary) can inspect the operation a process is *poised* to perform via
/// [`Automaton::poised`] before deciding whether to let it run.
///
/// The driving loop is always:
///
/// ```text
/// while let Some(op) = a.poised() {
///     let resp = memory.apply(op);      // atomic; a scan may borrow memory
///     let decision = a.apply(resp);     // local computation
/// }
/// ```
///
/// The same automaton runs unchanged on the deterministic simulator
/// (`sa-runtime`) and on real threads (`sa-runtime::threaded`), because all
/// shared state lives behind the `Op`/`Response` exchange.
///
/// Implementations must be deterministic: the next poised operation is a
/// function of the local state only (the paper considers deterministic
/// algorithms).
pub trait Automaton {
    /// The type of values this algorithm stores in shared memory.
    type Value: Clone + Eq + Debug;

    /// The shared objects this automaton expects to exist.
    ///
    /// All automata participating in one execution must declare compatible
    /// layouts (the runtime uses the union).
    fn layout(&self) -> MemoryLayout;

    /// The shared-memory operation this process is poised to perform, or
    /// `None` if the process has halted (it has completed all the `Propose`
    /// operations it was configured to perform).
    fn poised(&self) -> Option<Op<Self::Value>>;

    /// Delivers the response of the poised operation and performs the local
    /// computation that follows it, returning the decision this step
    /// produced, if any. A step completes at most one `Propose`, so it
    /// yields at most one decision.
    ///
    /// A scan's view may borrow the memory's cells, and only for the length
    /// of this call: an implementation clones the entries it keeps (such as
    /// a history it adopts) and nothing else.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called while [`Automaton::poised`]
    /// returns `None` or with a response of the wrong shape; both indicate a
    /// bug in the driver, not in user code.
    fn apply(&mut self, response: Response<'_, Self::Value>) -> Option<Decision>;

    /// `true` once the process has halted.
    fn is_halted(&self) -> bool {
        self.poised().is_none()
    }

    /// How this automaton transforms under process-id relabeling — what a
    /// symmetry-reduced explorer may assume about it.
    ///
    /// The default is [`SymmetryClass::Opaque`]: nothing is known, and a
    /// symmetry-reduced exploration must fall back to plain exploration
    /// rather than risk an unsound prune. Automata opting in declare
    /// [`SymmetryClass::Anonymous`] (no ids anywhere) or
    /// [`SymmetryClass::IdCarrying`] (ids rewritten completely by
    /// [`Automaton::relabeled`] and [`Automaton::relabel_value`]).
    fn symmetry_class(&self) -> SymmetryClass {
        SymmetryClass::Opaque
    }

    /// A copy of this automaton with every embedded process id written
    /// through `relabel` (which must be a bijection).
    ///
    /// The default returns an unchanged clone, which is correct only for
    /// automata whose local state embeds no process id
    /// ([`SymmetryClass::Anonymous`]); [`SymmetryClass::IdCarrying`]
    /// automata must override it.
    fn relabeled(&self, relabel: &IdRelabeling) -> Self
    where
        Self: Sized + Clone,
    {
        let _ = relabel;
        self.clone()
    }

    /// Hashes the automaton's **behavioral** state — every field that can
    /// still influence a future [`Automaton::poised`] or
    /// [`Automaton::apply`] — with every embedded process id first mapped
    /// through `relabel`.
    ///
    /// This is the per-slot ingredient of the explorers' canonical state
    /// keys. Two contracts, checked by the orbit-soundness test battery:
    ///
    /// * **completeness** — together with the (relabeled) memory contents
    ///   and decisions, the hashed projection must determine all future
    ///   behavior. Fields that are provably dead (e.g. an input already
    ///   consumed into the preference) *may* be omitted, which is what lets
    ///   anonymous processes that have converged merge even when their
    ///   original inputs differed;
    /// * **relabel-consistency** — hashing `self.relabeled(σ)` under
    ///   `relabel` must equal hashing `self` under `relabel ∘ σ`.
    ///
    /// The default hashes the full state and ignores `relabel`, which is
    /// correct only for [`SymmetryClass::Anonymous`] automata without dead
    /// fields.
    fn hash_behavior<H: Hasher>(&self, relabel: &IdRelabeling, state: &mut H)
    where
        Self: Sized + Hash,
    {
        let _ = relabel;
        self.hash(state);
    }

    /// A copy of a shared-memory value with every embedded process id
    /// written through `relabel`.
    ///
    /// The default returns an unchanged clone, correct only for value types
    /// that embed no process id; [`SymmetryClass::IdCarrying`] automata
    /// whose values carry ids (e.g. Figure 3's `(pref, id)` pairs) must
    /// override it.
    fn relabel_value(value: &Self::Value, relabel: &IdRelabeling) -> Self::Value
    where
        Self: Sized,
    {
        let _ = relabel;
        value.clone()
    }

    /// A **length-based** estimate of the heap bytes owned by this
    /// automaton's local state beyond `size_of::<Self>()` — the deep-size
    /// hook behind the explorers' memory accounting.
    ///
    /// The default of 0 is correct for automata whose state is entirely
    /// inline (no `Vec`, `Arc` or other owned allocations). Automata with
    /// heap-owning fields must override it, or the explorers' resident-byte
    /// estimates undercount by the dominant term (the bug this hook fixes:
    /// a 4/1/3 cell reported ~430 MB while actually peaking near 3.8 GB).
    ///
    /// Estimates must be computed from **lengths, never capacities**, so
    /// they are pure functions of the configuration — that is what keeps
    /// the explorers' reports byte-identical at any worker count.
    fn approx_heap_bytes(&self) -> usize {
        0
    }

    /// A length-based estimate of the heap bytes owned by one shared-memory
    /// value beyond `size_of::<Self::Value>()`; the per-value counterpart
    /// of [`Automaton::approx_heap_bytes`], applied by the explorers to
    /// every occupied register and snapshot component. Same contract:
    /// lengths, never capacities. The default of 0 is correct for inline
    /// value types.
    fn value_heap_bytes(value: &Self::Value) -> usize
    where
        Self: Sized,
    {
        let _ = value;
        0
    }
}

/// The result of driving an automaton through a single step against some
/// memory. Produced by runtime drivers; bundled here so that both the
/// simulated and the threaded driver report the same shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepOutcome {
    /// The kind of operation performed.
    pub op_kind: OpKind,
    /// The decision produced by this step, if any.
    pub decision: Option<Decision>,
    /// Whether the automaton is halted after this step.
    pub halted: bool,
}

/// An accumulator of decisions grouped by instance, used by property checkers
/// and experiments to evaluate Validity and k-Agreement.
///
/// ```
/// use sa_model::{Decision, DecisionSet, ProcessId};
/// let mut set = DecisionSet::new();
/// set.record(ProcessId(0), Decision::new(1, 10));
/// set.record(ProcessId(1), Decision::new(1, 20));
/// set.record(ProcessId(0), Decision::new(2, 10));
/// assert_eq!(set.distinct_outputs(1), 2);
/// assert_eq!(set.distinct_outputs(2), 1);
/// assert_eq!(set.instances().count(), 2);
/// ```
#[derive(Debug, Default, PartialEq, Eq)]
pub struct DecisionSet {
    /// One `(instance, process, value)` entry per deciding pair, sorted by
    /// `(instance, process)`: one allocation however many instances there
    /// are, so cloning a configuration copies the set in one `memcpy`.
    entries: Vec<Entry>,
}

/// One recorded decision: `(instance, process, value)`.
type Entry = (InstanceId, crate::ProcessId, InputValue);

impl Clone for DecisionSet {
    fn clone(&self) -> Self {
        DecisionSet {
            entries: self.entries.clone(),
        }
    }

    /// Copies `source`'s entries into this set's buffer, which is reused
    /// when it is large enough.
    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
    }
}

impl DecisionSet {
    /// Creates an empty decision set.
    pub fn new() -> Self {
        DecisionSet::default()
    }

    /// Records that `process` decided `decision.value` in `decision.instance`.
    ///
    /// A well-formed execution never has a process decide twice in the same
    /// instance; if it does (a protocol bug), the later value silently
    /// overwrites the earlier one.
    pub fn record(&mut self, process: crate::ProcessId, decision: Decision) {
        match self.find(decision.instance, process) {
            Ok(at) => self.entries[at].2 = decision.value,
            Err(at) => self
                .entries
                .insert(at, (decision.instance, process, decision.value)),
        }
    }

    /// The index of the entry of `(instance, process)`, or where it would
    /// be inserted.
    fn find(&self, instance: InstanceId, process: crate::ProcessId) -> Result<usize, usize> {
        self.entries
            .binary_search_by_key(&(instance, process), |&(i, p, _)| (i, p))
    }

    /// The entries of each instance with at least one decision, in
    /// instance order.
    fn groups(&self) -> impl Iterator<Item = &[Entry]> + '_ {
        self.entries.chunk_by(|a, b| a.0 == b.0)
    }

    /// The entries of `instance`, in process order.
    fn of_instance(&self, instance: InstanceId) -> &[Entry] {
        let start = self.entries.partition_point(|e| e.0 < instance);
        let len = self.entries[start..].partition_point(|e| e.0 == instance);
        &self.entries[start..start + len]
    }

    /// The instances for which at least one decision was recorded.
    pub fn instances(&self) -> impl Iterator<Item = InstanceId> + '_ {
        self.groups().map(|group| group[0].0)
    }

    /// The set of distinct values output in `instance`.
    pub fn outputs(&self, instance: InstanceId) -> BTreeSet<InputValue> {
        self.values(instance).collect()
    }

    /// The values decided in `instance`, one per decider, in process
    /// order: a value several processes decided repeats.
    pub fn values(&self, instance: InstanceId) -> impl Iterator<Item = InputValue> + '_ {
        self.of_instance(instance).iter().map(|e| e.2)
    }

    /// The number of distinct values output in `instance`, counted in
    /// place: a value counts at its first decider.
    pub fn distinct_outputs(&self, instance: InstanceId) -> usize {
        let entries = self.of_instance(instance);
        entries
            .iter()
            .enumerate()
            .filter(|&(j, e)| !entries[..j].iter().any(|earlier| earlier.2 == e.2))
            .count()
    }

    /// The value decided by `process` in `instance`, if any.
    pub fn decision_of(
        &self,
        process: crate::ProcessId,
        instance: InstanceId,
    ) -> Option<InputValue> {
        self.find(instance, process)
            .ok()
            .map(|at| self.entries[at].2)
    }

    /// The `(instance, value)` decisions of `process`, in instance order.
    pub fn decisions_by(
        &self,
        process: crate::ProcessId,
    ) -> impl Iterator<Item = (InstanceId, InputValue)> + '_ {
        self.entries
            .iter()
            .filter(move |e| e.1 == process)
            .map(|e| (e.0, e.2))
    }

    /// The number of processes that decided in `instance`.
    pub fn deciders(&self, instance: InstanceId) -> usize {
        self.of_instance(instance).len()
    }

    /// Total number of recorded decisions across all instances.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no decision has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A length-based estimate of the heap bytes this set owns: its entry
    /// vector, charged per recorded decision. Part of the explorers'
    /// deep-size accounting; like every such estimate it is a pure function
    /// of the contents (lengths, never capacities).
    pub fn approx_heap_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<Entry>()
    }

    /// A copy of this set with every process id written through `relabel`
    /// (which must be a bijection): the decisions of process `p` become the
    /// decisions of `relabel.apply(p)`. Used by the symmetry-reduced
    /// explorers' canonical state keys and the orbit-soundness tests.
    pub fn relabeled(&self, relabel: &crate::symmetry::IdRelabeling) -> DecisionSet {
        debug_assert!(relabel.is_bijection(), "relabeling a set needs a bijection");
        let mut entries: Vec<_> = self
            .entries
            .iter()
            .map(|&(instance, p, value)| (instance, relabel.apply(p), value))
            .collect();
        entries.sort_unstable();
        DecisionSet { entries }
    }
}

/// Writes the word stream of a
/// `BTreeMap<InstanceId, BTreeMap<ProcessId, InputValue>>` holding the same
/// decisions: the instance count, then per instance its id, its decider
/// count and each `(process, value)` pair in process order. State keys hash
/// decision sets, and `tests/state_keys.rs` pins keys of that stream.
impl Hash for DecisionSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.groups().count());
        for group in self.groups() {
            group[0].0.hash(state);
            state.write_usize(group.len());
            for (_, process, value) in group {
                process.hash(state);
                value.hash(state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcessId;
    use std::collections::BTreeMap;

    #[test]
    fn decision_ordering_is_by_instance_then_value() {
        let a = Decision::new(1, 5);
        let b = Decision::new(2, 0);
        assert!(a < b);
    }

    #[test]
    fn decision_set_groups_by_instance() {
        let mut set = DecisionSet::new();
        set.record(ProcessId(0), Decision::new(1, 7));
        set.record(ProcessId(1), Decision::new(1, 7));
        set.record(ProcessId(2), Decision::new(1, 9));
        assert_eq!(set.distinct_outputs(1), 2);
        assert_eq!(set.deciders(1), 3);
        assert_eq!(set.outputs(1).into_iter().collect::<Vec<_>>(), vec![7, 9]);
        assert_eq!(set.decision_of(ProcessId(1), 1), Some(7));
        assert_eq!(set.decision_of(ProcessId(1), 2), None);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
    }

    #[test]
    fn empty_instance_has_no_outputs() {
        let set = DecisionSet::new();
        assert_eq!(set.distinct_outputs(3), 0);
        assert!(set.outputs(3).is_empty());
        assert!(set.is_empty());
    }

    /// A decision set as nested maps: the reference for the flat set's
    /// queries and hash stream.
    type Nested = BTreeMap<InstanceId, BTreeMap<ProcessId, InputValue>>;

    #[test]
    fn flat_set_matches_nested_maps_on_seeded_sequences() {
        use crate::{Fingerprinter, SplitMix64};
        let digest = |value: &dyn Fn(&mut Fingerprinter)| {
            let mut hasher = Fingerprinter::new();
            value(&mut hasher);
            hasher.finish128()
        };
        for seed in 0..200 {
            let mut rng = SplitMix64::new(seed);
            let mut set = DecisionSet::new();
            let mut nested = Nested::new();
            let mut record = |set: &mut DecisionSet, p: usize, instance: u64, value: u64| {
                set.record(ProcessId(p), Decision::new(instance, value));
                nested
                    .entry(instance)
                    .or_default()
                    .insert(ProcessId(p), value);
            };
            let mut first = None;
            for _ in 0..rng.below(20) {
                let (p, instance) = (rng.below(5) as usize, 1 + rng.below(4));
                record(&mut set, p, instance, rng.below(3));
                first.get_or_insert((p, instance));
            }
            // Decide the first pair again with a new value: the later
            // value overwrites the earlier one in both representations.
            if let Some((p, instance)) = first {
                record(&mut set, p, instance, 7);
            }

            assert_eq!(
                digest(&|h| set.hash(h)),
                digest(&|h| nested.hash(h)),
                "seed {seed}"
            );
            assert_eq!(
                set.instances().collect::<Vec<_>>(),
                nested.keys().copied().collect::<Vec<_>>()
            );
            assert_eq!(set.len(), nested.values().map(BTreeMap::len).sum::<usize>());
            assert_eq!(set.is_empty(), nested.is_empty());
            for instance in 0..6 {
                let deciders = nested.get(&instance);
                assert_eq!(set.deciders(instance), deciders.map_or(0, BTreeMap::len));
                assert_eq!(
                    set.outputs(instance),
                    deciders
                        .map(|m| m.values().copied().collect())
                        .unwrap_or_default()
                );
                for p in (0..6).map(ProcessId) {
                    assert_eq!(
                        set.decision_of(p, instance),
                        deciders.and_then(|m| m.get(&p)).copied()
                    );
                }
            }
            for p in (0..6).map(ProcessId) {
                assert_eq!(
                    set.decisions_by(p).collect::<Vec<_>>(),
                    nested
                        .iter()
                        .filter_map(|(i, m)| m.get(&p).map(|v| (*i, *v)))
                        .collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn distinct_outputs_count_the_output_set_in_place() {
        use crate::SplitMix64;
        for seed in 0..200 {
            let mut rng = SplitMix64::new(seed);
            let mut set = DecisionSet::new();
            for _ in 0..rng.below(20) {
                let (p, instance) = (rng.below(8) as usize, 1 + rng.below(3));
                set.record(ProcessId(p), Decision::new(instance, rng.below(4)));
            }
            let mut clone = DecisionSet::new();
            clone.record(ProcessId(9), Decision::new(5, 1));
            clone.clone_from(&set);
            assert_eq!(clone, set, "seed {seed}");
            for instance in 0..5 {
                assert_eq!(
                    set.distinct_outputs(instance),
                    set.outputs(instance).len(),
                    "seed {seed}, instance {instance}"
                );
                assert_eq!(set.values(instance).count(), set.deciders(instance));
            }
        }
    }
}
