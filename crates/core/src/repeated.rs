//! The repeated algorithm of Figure 4: m-obstruction-free *repeated* k-set
//! agreement over a snapshot object with `r = n + 2m − k` components.
//!
//! The algorithm follows the one-shot algorithm of Figure 3 with two
//! additions ("shortcuts"):
//!
//! * every stored value carries the instance number `t` and the process's
//!   `history` of earlier outputs; a tuple stored by a process working on a
//!   *lower* instance is treated like `⊥`, and a tuple from a *higher*
//!   instance lets the process adopt that history and finish immediately;
//! * a process entering instance `t` whose history already covers `t`
//!   (because it adopted a longer history earlier) outputs from the history
//!   without touching shared memory.
//!
//! The automaton proposes the configured sequence of inputs, one instance
//! after another, and halts after its last instance.

use crate::error::AlgorithmError;
use crate::values::{History, Inputs, Tuple};
use sa_model::{
    Automaton, Decision, IdRelabeling, InputValue, InstanceId, MemoryLayout, Op, Params, ProcessId,
    Response, SymmetryClass,
};
use std::hash::{Hash, Hasher};

/// Which step the process performs next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// Local bookkeeping at the start of `Propose` (lines 8–11).
    BeginPropose,
    /// About to `update` component `i` (line 13).
    Update,
    /// About to `scan` the snapshot object (line 14).
    Scan,
    /// All configured instances are complete.
    Done,
}

/// A single process of the Figure 4 repeated algorithm.
///
/// ```
/// use sa_core::RepeatedSetAgreement;
/// use sa_model::{Params, ProcessId};
/// use sa_runtime::{Executor, ObstructionScheduler, RunConfig};
///
/// let params = Params::new(3, 1, 1)?;
/// // Each process proposes two values, one per instance.
/// let automata: Vec<_> = (0..3)
///     .map(|p| RepeatedSetAgreement::new(params, ProcessId(p), vec![10 + p as u64, 20 + p as u64]).unwrap())
///     .collect();
/// let mut exec = Executor::new(automata);
/// let mut solo = ObstructionScheduler::isolated(vec![ProcessId(0)], 1);
/// let report = exec.run(&mut solo, RunConfig::default());
/// assert!(report.halted[0]);
/// assert_eq!(report.decisions.deciders(2), 1);
/// # Ok::<(), sa_model::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RepeatedSetAgreement {
    params: Params,
    components: usize,
    id: ProcessId,
    inputs: Inputs,
    // Persistent local variables of Figure 4.
    location: usize,
    instance: InstanceId,
    history: History,
    pref: InputValue,
    phase: Phase,
}

impl RepeatedSetAgreement {
    /// Creates the automaton of process `id`, proposing `inputs[t - 1]` in
    /// its `t`-th instance, with the paper's snapshot width `n + 2m − k`.
    ///
    /// # Errors
    ///
    /// Returns an error if `inputs` is empty or `id` is out of range.
    pub fn new(
        params: Params,
        id: ProcessId,
        inputs: impl Into<Inputs>,
    ) -> Result<Self, AlgorithmError> {
        RepeatedSetAgreement::with_width(params, id, inputs, params.snapshot_components())
    }

    /// Creates the automaton with an explicit snapshot width of at least
    /// `n + 2m − k` components.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::TooFewComponents`] if `width` is too small,
    /// [`AlgorithmError::UnknownProcess`] if `id` is out of range, or
    /// [`AlgorithmError::EmptyInputSequence`] if no inputs are supplied.
    pub fn with_width(
        params: Params,
        id: ProcessId,
        inputs: impl Into<Inputs>,
        width: usize,
    ) -> Result<Self, AlgorithmError> {
        if width < params.snapshot_components() {
            return Err(AlgorithmError::TooFewComponents {
                required: params.snapshot_components(),
                requested: width,
            });
        }
        Self::unchecked(params, id, inputs, width)
    }

    /// Creates a **deliberately under-provisioned** automaton for the
    /// lower-bound experiments; see
    /// [`OneShotSetAgreement::deficient`](crate::OneShotSetAgreement::deficient).
    ///
    /// # Errors
    ///
    /// Returns an error if `width` is zero, `id` is out of range or `inputs`
    /// is empty.
    pub fn deficient(
        params: Params,
        id: ProcessId,
        inputs: impl Into<Inputs>,
        width: usize,
    ) -> Result<Self, AlgorithmError> {
        if width == 0 {
            return Err(AlgorithmError::TooFewComponents {
                required: 1,
                requested: 0,
            });
        }
        Self::unchecked(params, id, inputs, width)
    }

    fn unchecked(
        params: Params,
        id: ProcessId,
        inputs: impl Into<Inputs>,
        width: usize,
    ) -> Result<Self, AlgorithmError> {
        let inputs = inputs.into();
        if id.index() >= params.n() {
            return Err(AlgorithmError::UnknownProcess {
                id: id.index(),
                n: params.n(),
            });
        }
        if inputs.is_empty() {
            return Err(AlgorithmError::EmptyInputSequence);
        }
        Ok(RepeatedSetAgreement {
            params,
            components: width,
            id,
            inputs,
            location: 0,
            instance: 0,
            history: History::empty(),
            pref: 0,
            phase: Phase::BeginPropose,
        })
    }

    /// The problem parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The snapshot width used by this instance.
    pub fn width(&self) -> usize {
        self.components
    }

    /// The process identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The instance the process is currently working on (0 before the first
    /// `Propose`).
    pub fn current_instance(&self) -> InstanceId {
        self.instance
    }

    /// The outputs this process has produced (or adopted) so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The number of instances this process will propose in.
    pub fn planned_instances(&self) -> usize {
        self.inputs.len()
    }

    /// Finishes the current instance with output `value` and moves on to the
    /// next `Propose` (or halts after the last one). The caller has already
    /// updated `history` as appropriate.
    fn finish_instance(&mut self, value: InputValue) -> Decision {
        let decision = Decision::new(self.instance, value);
        self.phase = if (self.instance as usize) < self.inputs.len() {
            Phase::BeginPropose
        } else {
            Phase::Done
        };
        decision
    }

    /// Lines 8–11: begin the next `Propose`, answering from the history if it
    /// already covers this instance.
    fn begin_propose(&mut self) -> Option<Decision> {
        self.instance += 1;
        if let Some(value) = self.history.get(self.instance) {
            return Some(self.finish_instance(value));
        }
        self.pref = self.inputs[(self.instance - 1) as usize];
        self.phase = Phase::Update;
        None
    }

    /// Lines 15–25: process a scan result.
    fn handle_scan(&mut self, view: &[Option<Tuple>]) -> Option<Decision> {
        let t = self.instance;
        // Line 15: somebody is already working on a higher instance — adopt
        // its history, which necessarily covers instance t.
        if let Some(ahead) = view
            .iter()
            .flatten()
            .filter(|tuple| tuple.instance > t)
            .max_by_key(|tuple| tuple.instance)
        {
            self.history = ahead.history.clone();
            let value = self
                .history
                .get(t)
                .expect("a process in a higher instance has output every instance up to t");
            return Some(self.finish_instance(value));
        }
        // Line 17: all entries are t-tuples (no ⊥, nothing from an earlier
        // instance) and at most m distinct tuples remain.
        let all_current = view
            .iter()
            .all(|entry| matches!(entry, Some(tuple) if tuple.instance >= t));
        if all_current && at_most_distinct(view, self.params.m()) {
            let j1 = first_duplicate_index(view).unwrap_or(0);
            let value = view[j1].as_ref().expect("all entries are full").value;
            self.history = self.history.appended(value);
            return Some(self.finish_instance(value));
        }
        // Line 22: own tuple `(pref, id, t, history)` absent outside
        // location i and two identical t-tuples exist somewhere.
        let is_own = |tuple: &Tuple| {
            tuple.value == self.pref
                && tuple.id == self.id
                && tuple.instance == t
                && tuple.history == self.history
        };
        let own_absent_elsewhere = view
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != self.location)
            .all(|(_, entry)| matches!(entry, Some(tuple) if !is_own(tuple)));
        if own_absent_elsewhere {
            if let Some(j1) = first_duplicate_t_index(view, t) {
                // Lines 23–24: as in the one-shot algorithm, the location is
                // kept only when the preference actually changes (see the
                // note on lines 12–13 in `OneShotSetAgreement`'s scan
                // handling in `oneshot.rs`).
                let adopted = view[j1].as_ref().expect("duplicates are full").value;
                if adopted != self.pref {
                    self.pref = adopted;
                    self.phase = Phase::Update;
                    return None;
                }
            }
        }
        // Line 25: advance the location.
        self.location = (self.location + 1) % self.components;
        self.phase = Phase::Update;
        None
    }
}

/// `true` if a scan holds at most `m` distinct non-`⊥` tuples. A tuple
/// counts at the first entry that holds it, and the count stops at the
/// (m + 1)-th. Each entry is compared with the earlier ones nearest first:
/// a process updates consecutive components, so equal tuples sit in runs.
fn at_most_distinct(view: &[Option<Tuple>], m: usize) -> bool {
    let mut distinct = 0;
    for (j, entry) in view.iter().enumerate() {
        if entry.is_some() && !view[..j].iter().rev().any(|earlier| earlier == entry) {
            distinct += 1;
            if distinct > m {
                return false;
            }
        }
    }
    true
}

/// The smallest index holding a tuple that also occurs at a later index.
fn first_duplicate_index(view: &[Option<Tuple>]) -> Option<usize> {
    for (j1, entry) in view.iter().enumerate() {
        let Some(tuple) = entry else { continue };
        if view[j1 + 1..].iter().flatten().any(|other| other == tuple) {
            return Some(j1);
        }
    }
    None
}

/// The smallest index holding a *t-tuple* that also occurs at a later index.
fn first_duplicate_t_index(view: &[Option<Tuple>], t: InstanceId) -> Option<usize> {
    for (j1, entry) in view.iter().enumerate() {
        let Some(tuple) = entry else { continue };
        if !tuple.is_for(t) {
            continue;
        }
        if view[j1 + 1..].iter().flatten().any(|other| other == tuple) {
            return Some(j1);
        }
    }
    None
}

impl Automaton for RepeatedSetAgreement {
    type Value = Tuple;

    fn layout(&self) -> MemoryLayout {
        MemoryLayout::with_snapshot(self.components)
    }

    fn poised(&self) -> Option<Op<Tuple>> {
        match self.phase {
            Phase::BeginPropose => Some(Op::Nop),
            Phase::Update => Some(Op::Update {
                snapshot: 0,
                component: self.location,
                value: Tuple::new(self.pref, self.id, self.instance, self.history.clone()),
            }),
            Phase::Scan => Some(Op::Scan { snapshot: 0 }),
            Phase::Done => None,
        }
    }

    fn is_halted(&self) -> bool {
        // The phase says it without building the poised op (which clones
        // the history).
        self.phase == Phase::Done
    }

    fn apply(&mut self, response: Response<'_, Tuple>) -> Option<Decision> {
        match self.phase {
            Phase::BeginPropose => {
                debug_assert_eq!(response, Response::Nop);
                self.begin_propose()
            }
            Phase::Update => {
                debug_assert_eq!(response, Response::Updated);
                self.phase = Phase::Scan;
                None
            }
            Phase::Scan => {
                let view = response.expect_snapshot();
                self.handle_scan(&view)
            }
            Phase::Done => panic!("apply called on a halted process"),
        }
    }

    fn symmetry_class(&self) -> SymmetryClass {
        // As in Figure 3: the id lives in local state and stored tuples,
        // never in an object address.
        SymmetryClass::IdCarrying
    }

    fn approx_heap_bytes(&self) -> usize {
        // The inputs are charged nothing: one value is inline, and a longer
        // sequence is shared behind an `Arc` by every clone.
        self.history.heap_bytes()
    }

    fn value_heap_bytes(value: &Tuple) -> usize {
        value.history.heap_bytes()
    }

    fn relabeled(&self, relabel: &IdRelabeling) -> Self {
        RepeatedSetAgreement {
            id: relabel.apply(self.id),
            ..self.clone()
        }
    }

    fn hash_behavior<H: Hasher>(&self, relabel: &IdRelabeling, state: &mut H) {
        // The full state with the id mapped; like the one-shot algorithm,
        // the input sequence is hashed whole (no dead-field projection) so
        // non-anonymous slots are identified with their inputs.
        self.params.hash(state);
        self.components.hash(state);
        relabel.apply(self.id).hash(state);
        self.inputs.hash(state);
        self.location.hash(state);
        self.instance.hash(state);
        self.history.hash(state);
        self.pref.hash(state);
        self.phase.hash(state);
    }

    fn relabel_value(value: &Tuple, relabel: &IdRelabeling) -> Tuple {
        Tuple::new(
            value.value,
            relabel.apply(value.id),
            value.instance,
            value.history.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_runtime::{
        check_k_agreement, check_validity, Executor, InputLog, ObstructionScheduler,
        RandomScheduler, RunConfig, SoloScheduler, Workload,
    };

    fn build(params: Params, workload: &Workload) -> Vec<RepeatedSetAgreement> {
        (0..params.n())
            .map(|p| {
                RepeatedSetAgreement::new(params, ProcessId(p), workload.sequence(p).to_vec())
                    .unwrap()
            })
            .collect()
    }

    fn log_of(workload: &Workload) -> InputLog {
        let mut log = InputLog::new();
        log.record_matrix(workload.matrix());
        log
    }

    #[test]
    fn constructor_validates_inputs() {
        let params = Params::new(4, 1, 2).unwrap();
        assert!(RepeatedSetAgreement::new(params, ProcessId(0), vec![]).is_err());
        assert!(RepeatedSetAgreement::new(params, ProcessId(4), vec![1]).is_err());
        assert!(RepeatedSetAgreement::with_width(params, ProcessId(0), vec![1], 3).is_err());
        assert!(RepeatedSetAgreement::deficient(params, ProcessId(0), vec![1], 0).is_err());
        let a = RepeatedSetAgreement::new(params, ProcessId(0), vec![1, 2, 3]).unwrap();
        assert_eq!(a.planned_instances(), 3);
        assert_eq!(a.width(), 4);
        assert_eq!(a.current_instance(), 0);
        assert!(a.history().is_empty());
    }

    #[test]
    fn solo_process_completes_every_instance_with_its_own_inputs() {
        let params = Params::new(3, 1, 1).unwrap();
        let workload = Workload::all_distinct(3, 4);
        let mut exec = Executor::new(build(params, &workload));
        let report = exec.run(&mut SoloScheduler::new(ProcessId(1)), RunConfig::default());
        assert!(report.halted[1]);
        for t in 1..=4u64 {
            assert_eq!(
                report.decisions.decision_of(ProcessId(1), t),
                Some(workload.input(1, t)),
                "solo run must decide its own input in instance {t}"
            );
        }
    }

    #[test]
    fn obstruction_runs_satisfy_all_properties_per_instance() {
        for (n, m, k) in [(3, 1, 1), (4, 2, 3), (5, 2, 2), (5, 1, 3)] {
            let params = Params::new(n, m, k).unwrap();
            let workload = Workload::all_distinct(n, 3);
            let mut exec = Executor::new(build(params, &workload));
            let survivors: Vec<ProcessId> = (0..m).map(ProcessId).collect();
            let mut sched = ObstructionScheduler::new(300, survivors.clone(), 13);
            let report = exec.run(&mut sched, RunConfig::with_max_steps(500_000));
            for p in &survivors {
                assert!(
                    report.halted[p.index()],
                    "survivor {p} stuck for n={n} m={m} k={k}"
                );
            }
            check_k_agreement(k, &report.decisions).unwrap();
            check_validity(&log_of(&workload), &report.decisions).unwrap();
        }
    }

    #[test]
    fn random_contention_preserves_safety_across_instances() {
        for seed in 0..8u64 {
            let params = Params::new(4, 2, 3).unwrap();
            let workload = Workload::random(4, 3, 50, seed);
            let mut exec = Executor::new(build(params, &workload));
            let mut sched = RandomScheduler::new(seed * 31 + 1);
            let report = exec.run(&mut sched, RunConfig::with_max_steps(20_000));
            check_k_agreement(3, &report.decisions).unwrap();
            check_validity(&log_of(&workload), &report.decisions).unwrap();
        }
    }

    #[test]
    fn laggard_adopts_history_from_faster_process() {
        // p0 runs alone through 3 instances, then p1 runs alone: p1 must
        // adopt p0's outputs for the instances it missed (it sees p0's tuple
        // from a higher instance or decides consistently).
        let params = Params::new(3, 1, 1).unwrap();
        let workload = Workload::all_distinct(3, 3);
        let mut exec = Executor::new(build(params, &workload));
        let mut first = SoloScheduler::new(ProcessId(0));
        let report0 = exec.run(&mut first, RunConfig::default());
        assert!(report0.halted[0]);
        let mut second = SoloScheduler::new(ProcessId(1));
        let report = exec.run(&mut second, RunConfig::default());
        assert!(report.halted[1]);
        // Consensus (k = 1): both processes must have decided identically in
        // every instance.
        for t in 1..=3u64 {
            let d0 = report.decisions.decision_of(ProcessId(0), t).unwrap();
            let d1 = report.decisions.decision_of(ProcessId(1), t).unwrap();
            assert_eq!(d0, d1, "instance {t} outputs diverged");
        }
        check_k_agreement(1, &report.decisions).unwrap();
    }

    #[test]
    fn history_shortcut_answers_without_shared_memory() {
        // A process whose history already covers the next instance decides
        // with a single local step.
        let params = Params::new(3, 1, 1).unwrap();
        let mut a = RepeatedSetAgreement::new(params, ProcessId(0), vec![5, 6]).unwrap();
        a.history = History::from_vec(vec![40, 41]);
        // First Propose: history covers instance 1.
        assert_eq!(a.poised(), Some(Op::Nop));
        let d = a.apply(Response::Nop);
        assert_eq!(d, Some(Decision::new(1, 40)));
        // Second Propose: history covers instance 2; after that the process halts.
        let d = a.apply(Response::Nop);
        assert_eq!(d, Some(Decision::new(2, 41)));
        assert!(a.is_halted());
    }

    #[test]
    fn tuples_from_lower_instances_are_treated_as_bottom() {
        let params = Params::new(3, 1, 1).unwrap();
        // r = 3 + 2 - 1 = 4 components.
        let mut a = RepeatedSetAgreement::new(params, ProcessId(0), vec![5]).unwrap();
        a.apply(Response::Nop); // begin instance 1
        assert_eq!(a.current_instance(), 1);
        a.phase = Phase::Scan;
        // Everything in the snapshot is from instance 0 lookalikes (lower
        // instance tuples do not exist for t = 1, so use full entries from a
        // *higher* process count scenario): here we instead check that a view
        // full of the process's own instance-1 tuples leads to a decision.
        let own = Tuple::new(5, ProcessId(0), 1, History::empty());
        let view = vec![
            Some(own.clone()),
            Some(own.clone()),
            Some(own.clone()),
            Some(own),
        ];
        let d = a.handle_scan(&view).expect("must decide");
        assert_eq!(d.value, 5);
        assert_eq!(a.history().get(1), Some(5));
    }

    #[test]
    fn scan_with_stale_tuples_does_not_decide() {
        let params = Params::new(4, 1, 2).unwrap();
        // r = 4 + 2 - 2 = 4.
        let mut a = RepeatedSetAgreement::new(params, ProcessId(0), vec![5, 6]).unwrap();
        a.apply(Response::Nop); // instance 1
        a.history = History::from_vec(vec![9]);
        a.instance = 2;
        a.pref = 6;
        a.phase = Phase::Scan;
        // One entry is from instance 1 (stale): the decision condition of
        // line 17 must not fire even though only one distinct tuple exists.
        let stale = Tuple::new(7, ProcessId(1), 1, History::empty());
        let current = Tuple::new(6, ProcessId(0), 2, History::from_vec(vec![9]));
        let view = vec![
            Some(stale),
            Some(current.clone()),
            Some(current.clone()),
            Some(current),
        ];
        let d = a.handle_scan(&view);
        assert!(d.is_none(), "stale tuple must block the decision");
    }

    #[test]
    fn higher_instance_tuple_is_adopted_immediately() {
        let params = Params::new(4, 1, 2).unwrap();
        let mut a = RepeatedSetAgreement::new(params, ProcessId(0), vec![5, 6]).unwrap();
        a.apply(Response::Nop); // instance 1
        a.phase = Phase::Scan;
        let ahead = Tuple::new(99, ProcessId(2), 3, History::from_vec(vec![70, 71]));
        let view = vec![Some(ahead), None, None, None];
        let d = a.handle_scan(&view).expect("must adopt and decide");
        assert_eq!(d, Decision::new(1, 70));
        assert_eq!(a.history().len(), 2);
        // The next Propose is answered straight from the adopted history.
        let d = a.apply(Response::Nop);
        assert_eq!(d, Some(Decision::new(2, 71)));
        assert!(a.is_halted());
    }

    #[test]
    fn adoption_picks_the_highest_instance_in_the_view() {
        // Two tuples from the future: the line 15 shortcut must adopt the
        // history of the *highest* instance present, not merely the first
        // found — driven through the full `Automaton` interface.
        let params = Params::new(4, 1, 2).unwrap();
        let mut a = RepeatedSetAgreement::new(params, ProcessId(0), vec![5]).unwrap();
        a.apply(Response::Nop); // instance 1
        a.apply(Response::Updated);
        assert_eq!(a.poised(), Some(Op::Scan { snapshot: 0 }));
        let near = Tuple::new(30, ProcessId(1), 2, History::from_vec(vec![80]));
        let far = Tuple::new(50, ProcessId(2), 4, History::from_vec(vec![60, 61, 62]));
        let d = a.apply(Response::Snapshot(
            vec![Some(near), None, Some(far), None].into(),
        ));
        assert_eq!(d, Some(Decision::new(1, 60)));
        assert_eq!(a.history().len(), 3, "the longer history must be adopted");
        assert!(a.is_halted());
    }

    #[test]
    fn covered_history_never_issues_shared_memory_ops() {
        // A process whose adopted history covers every planned instance
        // answers each Propose locally: every poised op across its whole
        // remaining life must be `Op::Nop` — no Update, no Scan.
        let params = Params::new(3, 1, 1).unwrap();
        let mut a = RepeatedSetAgreement::new(params, ProcessId(2), vec![5, 6, 7]).unwrap();
        a.history = History::from_vec(vec![40, 41, 42]);
        let mut decided = Vec::new();
        while let Some(op) = a.poised() {
            assert_eq!(op, Op::Nop, "history shortcut must stay off shared memory");
            decided.extend(a.apply(Response::Nop));
        }
        let expected: Vec<Decision> = (1..=3).map(|t| Decision::new(t, 39 + t)).collect();
        assert_eq!(decided, expected);
        assert!(a.is_halted());
    }

    #[test]
    fn lower_instance_tuples_act_as_bottom_in_the_decision_condition() {
        let params = Params::new(4, 1, 2).unwrap();
        let mut a = RepeatedSetAgreement::new(params, ProcessId(0), vec![5, 6]).unwrap();
        a.apply(Response::Nop);
        a.history = History::from_vec(vec![9]);
        a.instance = 2;
        a.pref = 6;
        a.phase = Phase::Scan;
        let mine = Tuple::new(6, ProcessId(0), 2, History::from_vec(vec![9]));
        let stale = Tuple::new(6, ProcessId(1), 1, History::empty());
        // Unanimous *values*, but one tuple is from instance 1 < t = 2: the
        // paper treats it like ⊥, so line 17's "no ⊥ in the view" fails.
        let blocked = vec![
            Some(mine.clone()),
            Some(stale),
            Some(mine.clone()),
            Some(mine.clone()),
        ];
        assert!(a.handle_scan(&blocked).is_none());
        // Replacing the stale entry with a current copy makes the same view
        // decide: the lower instance, not value disagreement, was the blocker.
        let mut b = a.clone();
        let unanimous = vec![
            Some(mine.clone()),
            Some(mine.clone()),
            Some(mine.clone()),
            Some(mine),
        ];
        let d = b.handle_scan(&unanimous).expect("current view must decide");
        assert_eq!(d, Decision::new(2, 6));
        assert_eq!(b.history().get(2), Some(6));
    }

    #[test]
    fn duplicated_stale_tuples_do_not_change_the_preference() {
        // Line 22 adopts a duplicated *t*-tuple's value; a pair of identical
        // tuples from an earlier instance is ⊥-like and must not be adopted.
        let params = Params::new(4, 1, 2).unwrap();
        let mut a = RepeatedSetAgreement::new(params, ProcessId(0), vec![5, 6]).unwrap();
        a.apply(Response::Nop);
        a.history = History::from_vec(vec![9]);
        a.instance = 2;
        a.pref = 6;
        a.phase = Phase::Scan;
        let stale = Tuple::new(7, ProcessId(1), 1, History::empty());
        let view = vec![Some(stale.clone()), Some(stale), None, None];
        assert!(a.handle_scan(&view).is_none());
        assert_eq!(a.pref, 6, "stale duplicates must not be adopted");
        // The process fell through to line 25 and merely advanced.
        assert_eq!(a.location, 1);
    }

    #[test]
    fn space_usage_stays_within_width() {
        let params = Params::new(5, 2, 3).unwrap();
        let workload = Workload::all_distinct(5, 2);
        let mut exec = Executor::new(build(params, &workload));
        let mut sched = ObstructionScheduler::new(400, vec![ProcessId(0), ProcessId(1)], 3);
        let report = exec.run(&mut sched, RunConfig::with_max_steps(500_000));
        assert!(report.metrics.components_written(0) <= params.snapshot_components());
    }

    #[test]
    fn at_most_distinct_matches_a_seen_vector_on_seeded_views() {
        use sa_model::SplitMix64;
        /// Reference: the count with a `seen` vector.
        fn reference(view: &[Option<Tuple>]) -> usize {
            let mut seen: Vec<&Tuple> = Vec::with_capacity(view.len());
            for tuple in view.iter().flatten() {
                if !seen.contains(&tuple) {
                    seen.push(tuple);
                }
            }
            seen.len()
        }
        // Few values, ids, instances and histories over widths 1–8, so that
        // duplicate tuples are common.
        let histories = [History::empty(), History::from_vec(vec![4])];
        for seed in 0..2_000 {
            let mut rng = SplitMix64::new(seed);
            let width = 1 + rng.below(8) as usize;
            let view: Vec<Option<Tuple>> = (0..width)
                .map(|_| {
                    (rng.below(6) != 0).then(|| {
                        Tuple::new(
                            rng.below(2),
                            ProcessId(rng.below(2) as usize),
                            1 + rng.below(2),
                            histories[rng.below(2) as usize].clone(),
                        )
                    })
                })
                .collect();
            let distinct = reference(&view);
            for m in 0..=width {
                assert_eq!(
                    at_most_distinct(&view, m),
                    distinct <= m,
                    "seed {seed}, m = {m}"
                );
            }
        }
    }

    #[test]
    fn duplicate_helpers_respect_instance_filter() {
        let h = History::empty();
        let t1 = |v: u64, p: usize| Some(Tuple::new(v, ProcessId(p), 1, h.clone()));
        let t2 = |v: u64, p: usize| Some(Tuple::new(v, ProcessId(p), 2, h.clone()));
        let view = vec![t1(4, 0), t1(4, 0), t2(5, 1), t2(5, 1)];
        assert!(!at_most_distinct(&view, 1));
        assert!(at_most_distinct(&view, 2));
        assert_eq!(first_duplicate_index(&view), Some(0));
        assert_eq!(first_duplicate_t_index(&view, 2), Some(2));
        assert_eq!(first_duplicate_t_index(&view, 3), None);
    }
}
