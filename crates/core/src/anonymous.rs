//! The anonymous algorithm of Figure 5: m-obstruction-free repeated k-set
//! agreement for processes **without identifiers**, over a snapshot object
//! with `r = (m+1)(n−k) + m²` components plus one helper register `H`.
//!
//! The structure mirrors Figure 4, with three differences forced by
//! anonymity:
//!
//! * stored tuples are `(pref, t, history)` — no identifier;
//! * a process decides when a scan shows at most `m` distinct tuples, all
//!   from its own instance, and outputs the *most frequent* value;
//! * it adopts a new preference only when its own preferred value occupies
//!   fewer than `ℓ = n + m − k` components while some other value occupies at
//!   least `ℓ`;
//! * the location index advances on **every** iteration (line 29).
//!
//! Because the anonymous snapshot construction the paper relies on is only
//! non-blocking, a "fast" process could starve the others; the helper
//! register `H` (into which every process writes its output history at the
//! start of each `Propose`) lets starving processes finish by adopting a
//! published output. A second logical thread polls `H`; here the two threads
//! are interleaved deterministically, checking `H` once every
//! [`helper period`](AnonymousSetAgreement::with_helper_period) iterations of
//! the main loop. For the one-shot version the register `H` is not needed
//! (the paper's concluding remark in Appendix B), which is why
//! [`AnonymousSetAgreement::one_shot`] uses one register fewer.

use crate::error::AlgorithmError;
use crate::values::{AnonTuple, AnonValue, History, Inputs};
use sa_model::{
    Automaton, Decision, IdRelabeling, InputValue, InstanceId, MemoryLayout, Op, Params, Response,
    SymmetryClass,
};
use std::cmp::Reverse;
use std::hash::{Hash, Hasher};

/// Which step the process performs next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// Write the current history to `H` (line 9; repeated mode only).
    WriteHelper,
    /// Local bookkeeping at the start of `Propose` (lines 10–12).
    BeginPropose,
    /// `update` component `i` (line 18).
    Update,
    /// `scan` the snapshot object (line 19).
    Scan,
    /// Poll the helper register `H` (thread 2, lines 32–37).
    ReadHelper,
    /// All configured instances are complete.
    Done,
}

/// A single (anonymous) process of the Figure 5 algorithm.
///
/// The automaton never inspects a process identifier; all processes with the
/// same input sequence are literally identical, which is what allows the
/// cloning lower-bound machinery to duplicate them.
///
/// ```
/// use sa_core::AnonymousSetAgreement;
/// use sa_model::{Params, ProcessId};
/// use sa_runtime::{Executor, ObstructionScheduler, RunConfig};
///
/// let params = Params::new(4, 1, 2)?;
/// let automata: Vec<_> = (0..4)
///     .map(|p| AnonymousSetAgreement::one_shot(params, 10 + p as u64))
///     .collect();
/// let mut exec = Executor::new(automata);
/// let mut solo = ObstructionScheduler::isolated(vec![ProcessId(0)], 3);
/// let report = exec.run(&mut solo, RunConfig::default());
/// assert!(report.halted[0]);
/// # Ok::<(), sa_model::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AnonymousSetAgreement {
    params: Params,
    components: usize,
    ell: usize,
    inputs: Inputs,
    use_helper: bool,
    helper_period: u8,
    // Persistent local variables of Figure 5.
    location: usize,
    instance: InstanceId,
    history: History,
    pref: InputValue,
    phase: Phase,
    iterations_since_helper_check: u8,
}

impl AnonymousSetAgreement {
    /// Creates a repeated-agreement automaton proposing `inputs[t - 1]` in
    /// its `t`-th instance, using the paper's width `(m+1)(n−k) + m²` plus
    /// the helper register `H`.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::EmptyInputSequence`] if no inputs are given.
    pub fn repeated(params: Params, inputs: Vec<InputValue>) -> Result<Self, AlgorithmError> {
        Self::with_width(params, inputs, params.anonymous_snapshot_components())
    }

    /// Creates a one-shot automaton (a single instance, no helper register).
    pub fn one_shot(params: Params, input: InputValue) -> Self {
        let mut automaton = Self::unchecked(
            params,
            Inputs::One(input),
            params.anonymous_snapshot_components(),
        )
        .expect("a single input is never empty");
        automaton.use_helper = false;
        automaton.phase = Phase::BeginPropose;
        automaton
    }

    /// Creates a repeated-agreement automaton with an explicit snapshot width
    /// of at least `(m+1)(n−k) + m²`.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::TooFewComponents`] if `width` is too small
    /// or [`AlgorithmError::EmptyInputSequence`] if no inputs are given.
    pub fn with_width(
        params: Params,
        inputs: Vec<InputValue>,
        width: usize,
    ) -> Result<Self, AlgorithmError> {
        if width < params.anonymous_snapshot_components() {
            return Err(AlgorithmError::TooFewComponents {
                required: params.anonymous_snapshot_components(),
                requested: width,
            });
        }
        Self::unchecked(params, inputs.into(), width)
    }

    /// Creates a **deliberately under-provisioned** automaton for the
    /// lower-bound experiments (see Theorem 10 of the paper).
    ///
    /// # Errors
    ///
    /// Returns an error if `width` is zero or `inputs` is empty.
    pub fn deficient(
        params: Params,
        inputs: Vec<InputValue>,
        width: usize,
    ) -> Result<Self, AlgorithmError> {
        if width == 0 {
            return Err(AlgorithmError::TooFewComponents {
                required: 1,
                requested: 0,
            });
        }
        Self::unchecked(params, inputs.into(), width)
    }

    fn unchecked(params: Params, inputs: Inputs, width: usize) -> Result<Self, AlgorithmError> {
        if inputs.is_empty() {
            return Err(AlgorithmError::EmptyInputSequence);
        }
        Ok(AnonymousSetAgreement {
            params,
            components: width,
            ell: params.ell(),
            inputs,
            use_helper: true,
            helper_period: 2,
            location: 0,
            instance: 0,
            history: History::empty(),
            pref: 0,
            phase: Phase::WriteHelper,
            iterations_since_helper_check: 0,
        })
    }

    /// Sets how many main-loop iterations run between polls of the helper
    /// register `H` (the interleaving of the paper's two threads). Has no
    /// effect in one-shot mode.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn with_helper_period(mut self, period: u8) -> Self {
        assert!(period > 0, "helper period must be positive");
        self.helper_period = period;
        self
    }

    /// The problem parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The snapshot width used by this instance.
    pub fn width(&self) -> usize {
        self.components
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

    fn finish_instance(&mut self, value: InputValue) -> Decision {
        let decision = Decision::new(self.instance, value);
        self.phase = if (self.instance as usize) < self.inputs.len() {
            if self.use_helper {
                Phase::WriteHelper
            } else {
                Phase::BeginPropose
            }
        } else {
            Phase::Done
        };
        decision
    }

    /// Lines 10–12: enter the next instance, answering from the history when
    /// it already covers it.
    fn begin_propose(&mut self) -> Option<Decision> {
        self.instance += 1;
        self.iterations_since_helper_check = 0;
        if let Some(value) = self.history.get(self.instance) {
            return Some(self.finish_instance(value));
        }
        self.pref = self.inputs[(self.instance - 1) as usize];
        self.phase = Phase::Update;
        None
    }

    /// After a scan (or a helper poll) that did not finish the instance,
    /// decide whether the next step is another update or a helper poll.
    fn continue_loop(&mut self) {
        if self.use_helper {
            self.iterations_since_helper_check += 1;
            if self.iterations_since_helper_check >= self.helper_period {
                self.iterations_since_helper_check = 0;
                self.phase = Phase::ReadHelper;
                return;
            }
        }
        self.phase = Phase::Update;
    }

    /// Lines 20–28: process a scan of the snapshot object.
    fn handle_scan(&mut self, view: &[Option<AnonValue>]) -> Option<Decision> {
        let t = self.instance;
        // Line 20: a tuple from a higher instance carries every output up to
        // (and beyond) this instance.
        if let Some(ahead) = cells(view)
            .flatten()
            .filter(|cell| cell.instance > t)
            .max_by_key(|cell| cell.instance)
        {
            self.history = ahead.history.clone();
            let value = self
                .history
                .get(t)
                .expect("a process in a higher instance has output every instance up to t");
            return Some(self.finish_instance(value));
        }
        // Line 23: at most m distinct tuples and every component holds a
        // tuple of this very instance.
        let all_current = cells(view).all(|cell| matches!(cell, Some(c) if c.instance == t));
        if all_current && at_most_distinct_cells(view, self.params.m()) {
            let value = most_frequent_value(view).expect("the object is full");
            self.history = self.history.appended(value);
            return Some(self.finish_instance(value));
        }
        // Line 27: adopt a value that already occupies ℓ components when the
        // current preference occupies fewer than ℓ.
        let own_support = value_support(view, t, self.pref);
        if own_support < self.ell {
            if let Some(new) = best_supported_value(view, t, self.ell, self.pref) {
                self.pref = new;
            }
        }
        // Line 29: the location advances in every iteration.
        self.location = (self.location + 1) % self.components;
        self.continue_loop();
        None
    }

    /// Thread 2 (lines 32–37): poll the helper register.
    fn handle_helper(&mut self, value: Option<AnonValue>) -> Option<Decision> {
        if let Some(outputs) = value.as_ref().and_then(AnonValue::as_outputs) {
            if let Some(decided) = outputs.get(self.instance) {
                self.history = self.history.appended(decided);
                return Some(self.finish_instance(decided));
            }
        }
        self.phase = Phase::Update;
        None
    }
}

/// The tuple in each component of a scan; `⊥` (and anything that is not a
/// tuple) is `None`.
fn cells(view: &[Option<AnonValue>]) -> impl DoubleEndedIterator<Item = Option<&AnonTuple>> {
    view.iter()
        .map(|entry| entry.as_ref().and_then(AnonValue::as_cell))
}

/// `true` if the snapshot cells hold at most `m` distinct tuples. A tuple
/// counts at the first component that holds it, and the count stops at the
/// (m + 1)-th. Each component is compared with the earlier ones nearest
/// first: a process updates consecutive components, so equal tuples sit in
/// runs.
fn at_most_distinct_cells(view: &[Option<AnonValue>], m: usize) -> bool {
    let mut distinct = 0;
    for (j, cell) in cells(view).enumerate() {
        if cell.is_some() && !cells(&view[..j]).rev().any(|earlier| earlier == cell) {
            distinct += 1;
            if distinct > m {
                return false;
            }
        }
    }
    true
}

/// The value occurring in the most components (ties broken towards the
/// smallest value, for determinism).
fn most_frequent_value(view: &[Option<AnonValue>]) -> Option<InputValue> {
    cells(view)
        .flatten()
        .map(|cell| {
            let count = cells(view)
                .flatten()
                .filter(|c| c.value == cell.value)
                .count();
            (Reverse(count), cell.value)
        })
        .min()
        .map(|(_, value)| value)
}

/// How many components hold a tuple of instance `t` with value `value`.
fn value_support(view: &[Option<AnonValue>], t: InstanceId, value: InputValue) -> usize {
    cells(view)
        .flatten()
        .filter(|cell| cell.instance == t && cell.value == value)
        .count()
}

/// The smallest value different from `pref` whose support in instance `t`
/// reaches `ell`.
fn best_supported_value(
    view: &[Option<AnonValue>],
    t: InstanceId,
    ell: usize,
    pref: InputValue,
) -> Option<InputValue> {
    cells(view)
        .flatten()
        .filter(|cell| cell.instance == t && cell.value != pref)
        .map(|cell| cell.value)
        .filter(|&value| value_support(view, t, value) >= ell)
        .min()
}

impl Automaton for AnonymousSetAgreement {
    type Value = AnonValue;

    fn approx_heap_bytes(&self) -> usize {
        // The inputs are charged nothing: one value is inline, and a longer
        // sequence is shared behind an `Arc` by every clone.
        self.history.heap_bytes()
    }

    fn value_heap_bytes(value: &AnonValue) -> usize {
        match value {
            AnonValue::Cell(tuple) => tuple.history.heap_bytes(),
            AnonValue::Outputs(history) => history.heap_bytes(),
        }
    }

    fn layout(&self) -> MemoryLayout {
        MemoryLayout::with_snapshot_and_registers(
            self.components,
            if self.use_helper { 1 } else { 0 },
        )
    }

    fn poised(&self) -> Option<Op<AnonValue>> {
        match self.phase {
            Phase::WriteHelper => Some(Op::Write {
                register: 0,
                value: AnonValue::Outputs(self.history.clone()),
            }),
            Phase::BeginPropose => Some(Op::Nop),
            Phase::Update => Some(Op::Update {
                snapshot: 0,
                component: self.location,
                value: AnonValue::Cell(AnonTuple::new(
                    self.pref,
                    self.instance,
                    self.history.clone(),
                )),
            }),
            Phase::Scan => Some(Op::Scan { snapshot: 0 }),
            Phase::ReadHelper => Some(Op::Read { register: 0 }),
            Phase::Done => None,
        }
    }

    fn is_halted(&self) -> bool {
        // The phase says it without building the poised op (which clones
        // the history).
        self.phase == Phase::Done
    }

    fn apply(&mut self, response: Response<'_, AnonValue>) -> Option<Decision> {
        match self.phase {
            Phase::WriteHelper => {
                debug_assert_eq!(response, Response::Written);
                self.begin_propose()
            }
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
            Phase::ReadHelper => {
                let value = response.expect_read();
                self.handle_helper(value)
            }
            Phase::Done => panic!("apply called on a halted process"),
        }
    }

    fn symmetry_class(&self) -> SymmetryClass {
        // No id anywhere: not in the local state, not in the stored
        // `(pref, t, history)` tuples, not in an address. *Any* permutation
        // of the process slots is a transition-system automorphism, which
        // is what lets symmetry reduction collapse distinct-workload cells.
        SymmetryClass::Anonymous
    }

    // `relabeled` and `relabel_value` keep their no-op defaults: there is
    // no id to rewrite.

    fn hash_behavior<H: Hasher>(&self, _relabel: &IdRelabeling, state: &mut H) {
        // The *behavioral* projection: everything a future `poised`/`apply`
        // can read. Two fields are provably dead and deliberately omitted —
        // this is where the reduction on distinct workloads comes from,
        // because anonymous processes whose mutable state has converged
        // become interchangeable even though their original inputs differ:
        //
        // * a halted process never takes another step, so nothing beyond
        //   the fact that it halted matters (its outputs live in the
        //   `DecisionSet`, hashed separately by the canonical key);
        // * `begin_propose` consumes `inputs[t - 1]` on entering instance
        //   `t` (or skips it when the history already covers `t`), so only
        //   the inputs of instances not yet begun can still be read.
        if matches!(self.phase, Phase::Done) {
            state.write_u8(0xD0);
            return;
        }
        state.write_u8(0xA1);
        self.params.hash(state);
        self.components.hash(state);
        self.ell.hash(state);
        self.inputs[(self.instance as usize).min(self.inputs.len())..].hash(state);
        self.use_helper.hash(state);
        self.helper_period.hash(state);
        self.location.hash(state);
        self.instance.hash(state);
        self.history.hash(state);
        self.pref.hash(state);
        self.phase.hash(state);
        self.iterations_since_helper_check.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_model::ProcessId;
    use sa_runtime::{
        check_k_agreement, check_validity, Executor, InputLog, ObstructionScheduler,
        RandomScheduler, RunConfig, SoloScheduler, Workload,
    };

    fn build_repeated(params: Params, workload: &Workload) -> Vec<AnonymousSetAgreement> {
        (0..params.n())
            .map(|p| {
                AnonymousSetAgreement::repeated(params, workload.sequence(p).to_vec()).unwrap()
            })
            .collect()
    }

    fn build_oneshot(params: Params) -> Vec<AnonymousSetAgreement> {
        (0..params.n())
            .map(|p| AnonymousSetAgreement::one_shot(params, 100 + p as u64))
            .collect()
    }

    fn log_of(workload: &Workload) -> InputLog {
        let mut log = InputLog::new();
        log.record_matrix(workload.matrix());
        log
    }

    #[test]
    fn constructors_validate_and_report_shape() {
        let params = Params::new(5, 2, 3).unwrap();
        // (m+1)(n-k) + m^2 = 3*2 + 4 = 10 components.
        assert_eq!(params.anonymous_snapshot_components(), 10);
        assert!(AnonymousSetAgreement::repeated(params, vec![]).is_err());
        assert!(AnonymousSetAgreement::with_width(params, vec![1], 9).is_err());
        assert!(AnonymousSetAgreement::deficient(params, vec![1], 0).is_err());
        let a = AnonymousSetAgreement::repeated(params, vec![1, 2]).unwrap();
        assert_eq!(a.width(), 10);
        assert_eq!(a.planned_instances(), 2);
        assert_eq!(a.layout(), MemoryLayout::with_snapshot_and_registers(10, 1));
        let o = AnonymousSetAgreement::one_shot(params, 5);
        assert_eq!(o.layout(), MemoryLayout::with_snapshot_and_registers(10, 0));
    }

    #[test]
    #[should_panic(expected = "helper period must be positive")]
    fn zero_helper_period_is_rejected() {
        let params = Params::new(4, 1, 2).unwrap();
        let _ = AnonymousSetAgreement::repeated(params, vec![1])
            .unwrap()
            .with_helper_period(0);
    }

    #[test]
    fn solo_one_shot_decides_own_input() {
        let params = Params::new(4, 1, 2).unwrap();
        let mut exec = Executor::new(build_oneshot(params));
        let report = exec.run(&mut SoloScheduler::new(ProcessId(3)), RunConfig::default());
        assert!(report.halted[3]);
        assert_eq!(report.decisions.decision_of(ProcessId(3), 1), Some(103));
    }

    #[test]
    fn one_shot_obstruction_runs_satisfy_properties() {
        for (n, m, k) in [(3, 1, 1), (4, 1, 2), (4, 2, 2), (5, 2, 3)] {
            let params = Params::new(n, m, k).unwrap();
            let mut exec = Executor::new(build_oneshot(params));
            let survivors: Vec<ProcessId> = (0..m).map(ProcessId).collect();
            let mut sched = ObstructionScheduler::new(200, survivors.clone(), 7);
            let report = exec.run(&mut sched, RunConfig::with_max_steps(500_000));
            for p in &survivors {
                assert!(
                    report.halted[p.index()],
                    "survivor {p} stuck for n={n} m={m} k={k}"
                );
            }
            let mut log = InputLog::new();
            for p in 0..n {
                log.record(1, 100 + p as u64);
            }
            check_k_agreement(k, &report.decisions).unwrap();
            check_validity(&log, &report.decisions).unwrap();
        }
    }

    #[test]
    fn repeated_obstruction_runs_satisfy_properties() {
        for (n, m, k) in [(3, 1, 1), (4, 2, 3), (5, 1, 3)] {
            let params = Params::new(n, m, k).unwrap();
            let workload = Workload::all_distinct(n, 3);
            let mut exec = Executor::new(build_repeated(params, &workload));
            let survivors: Vec<ProcessId> = (0..m).map(ProcessId).collect();
            let mut sched = ObstructionScheduler::new(300, survivors.clone(), 23);
            let report = exec.run(&mut sched, RunConfig::with_max_steps(800_000));
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
    fn random_contention_preserves_safety() {
        for seed in 0..6u64 {
            let params = Params::new(4, 2, 3).unwrap();
            let workload = Workload::random(4, 2, 30, seed);
            let mut exec = Executor::new(build_repeated(params, &workload));
            let mut sched = RandomScheduler::new(seed + 100);
            let report = exec.run(&mut sched, RunConfig::with_max_steps(30_000));
            check_k_agreement(3, &report.decisions).unwrap();
            check_validity(&log_of(&workload), &report.decisions).unwrap();
        }
    }

    #[test]
    fn starving_process_finishes_through_helper_register() {
        // p0 completes two instances solo (publishing its outputs in H),
        // then p1 runs but we only let it poll H frequently; it must adopt
        // p0's outputs rather than computing its own.
        let params = Params::new(3, 1, 1).unwrap();
        let workload = Workload::all_distinct(3, 2);
        let mut exec = Executor::new(
            (0..3)
                .map(|p| {
                    AnonymousSetAgreement::repeated(params, workload.sequence(p).to_vec())
                        .unwrap()
                        .with_helper_period(1)
                })
                .collect::<Vec<_>>(),
        );
        let report0 = exec.run(&mut SoloScheduler::new(ProcessId(0)), RunConfig::default());
        assert!(report0.halted[0]);
        let report = exec.run(&mut SoloScheduler::new(ProcessId(1)), RunConfig::default());
        assert!(report.halted[1]);
        for t in 1..=2u64 {
            assert_eq!(
                report.decisions.decision_of(ProcessId(0), t),
                report.decisions.decision_of(ProcessId(1), t),
                "instance {t} outputs diverged"
            );
        }
    }

    #[test]
    fn helper_adoption_state_machine() {
        let params = Params::new(3, 1, 1).unwrap();
        let mut a = AnonymousSetAgreement::repeated(params, vec![5]).unwrap();
        // Write H, then begin instance 1.
        assert!(matches!(a.poised(), Some(Op::Write { register: 0, .. })));
        a.apply(Response::Written);
        assert_eq!(a.current_instance(), 1);
        // Force the helper-poll branch and feed it a published history.
        a.phase = Phase::ReadHelper;
        let outputs = AnonValue::Outputs(History::from_vec(vec![77]));
        let d = a.apply(Response::Read(Some(outputs)));
        assert_eq!(d, Some(Decision::new(1, 77)));
        assert!(a.is_halted());
        assert_eq!(a.history().get(1), Some(77));
    }

    #[test]
    fn helper_poll_without_useful_history_resumes_loop() {
        let params = Params::new(3, 1, 1).unwrap();
        let mut a = AnonymousSetAgreement::repeated(params, vec![5]).unwrap();
        a.apply(Response::Written);
        a.phase = Phase::ReadHelper;
        let d = a.apply(Response::Read(Some(AnonValue::Outputs(History::empty()))));
        assert!(d.is_none());
        assert!(matches!(a.poised(), Some(Op::Update { .. })));
    }

    #[test]
    fn scan_decides_on_most_frequent_value() {
        let params = Params::new(4, 2, 3).unwrap();
        // width = 3 * 1 + 4 = 7, ell = 3.
        let mut a = AnonymousSetAgreement::one_shot(params, 1);
        a.apply(Response::Nop); // begin instance 1
        a.phase = Phase::Scan;
        let cell = |v: u64| Some(AnonValue::Cell(AnonTuple::new(v, 1, History::empty())));
        let view = vec![
            cell(9),
            cell(9),
            cell(9),
            cell(9),
            cell(8),
            cell(8),
            cell(8),
        ];
        let d = a.handle_scan(&view).expect("must decide");
        assert_eq!(d.value, 9);
    }

    #[test]
    fn scan_adopts_value_with_ell_support() {
        let params = Params::new(4, 1, 2).unwrap();
        // width = 2 * 2 + 1 = 5, ell = 3.
        let mut a = AnonymousSetAgreement::one_shot(params, 1);
        a.apply(Response::Nop);
        assert_eq!(a.pref, 1);
        a.phase = Phase::Scan;
        let cell = |v: u64| Some(AnonValue::Cell(AnonTuple::new(v, 1, History::empty())));
        // Value 6 occupies ell = 3 components; own value 1 occupies none; one
        // component still holds ⊥ so no decision is possible.
        let view = vec![cell(6), cell(6), cell(6), cell(7), None];
        let d = a.handle_scan(&view);
        assert!(d.is_none());
        assert_eq!(a.pref, 6, "must adopt the well-supported value");
    }

    #[test]
    fn scan_ignores_stale_instances_for_decision() {
        let params = Params::new(4, 1, 2).unwrap();
        let mut a = AnonymousSetAgreement::repeated(params, vec![5, 6]).unwrap();
        a.apply(Response::Written); // begin instance 1
        a.history = History::from_vec(vec![4]);
        a.instance = 2;
        a.pref = 6;
        a.phase = Phase::Scan;
        let current = |v: u64| {
            Some(AnonValue::Cell(AnonTuple::new(
                v,
                2,
                History::from_vec(vec![4]),
            )))
        };
        let stale = Some(AnonValue::Cell(AnonTuple::new(9, 1, History::empty())));
        let view = vec![stale, current(6), current(6), current(6), current(6)];
        assert!(
            a.handle_scan(&view).is_none(),
            "stale tuple must block the decision"
        );
    }

    #[test]
    fn scan_adopts_history_from_higher_instance() {
        let params = Params::new(4, 1, 2).unwrap();
        let mut a = AnonymousSetAgreement::repeated(params, vec![5, 6]).unwrap();
        a.apply(Response::Written); // begin instance 1
        a.phase = Phase::Scan;
        let ahead = Some(AnonValue::Cell(AnonTuple::new(
            50,
            3,
            History::from_vec(vec![30, 31]),
        )));
        let view = vec![ahead, None, None, None, None];
        let d = a.handle_scan(&view).expect("must adopt");
        assert_eq!(d, Decision::new(1, 30));
    }

    #[test]
    fn helper_functions_compute_supports() {
        let cell = |value, instance| {
            Some(AnonValue::Cell(AnonTuple::new(
                value,
                instance,
                History::empty(),
            )))
        };
        let view = vec![cell(5, 1), cell(7, 1), cell(7, 1), cell(7, 2), None];
        assert!(!at_most_distinct_cells(&view, 2));
        assert!(at_most_distinct_cells(&view, 3));
        assert_eq!(most_frequent_value(&view), Some(7));
        assert_eq!(value_support(&view, 1, 7), 2);
        assert_eq!(value_support(&view, 1, 5), 1);
        assert_eq!(best_supported_value(&view, 1, 2, 5), Some(7));
        assert_eq!(best_supported_value(&view, 1, 3, 5), None);
        assert_eq!(most_frequent_value(&[]), None);
    }

    /// Reference scan helpers that count with a `seen` vector and
    /// `BTreeMap` counters over a vector of cell references.
    mod reference {
        use super::*;
        use std::collections::BTreeMap;

        pub fn distinct_cells(cells: &[Option<&AnonTuple>]) -> usize {
            let mut seen: Vec<&AnonTuple> = Vec::with_capacity(cells.len());
            for cell in cells.iter().flatten() {
                if !seen.contains(cell) {
                    seen.push(cell);
                }
            }
            seen.len()
        }

        pub fn most_frequent_value(cells: &[Option<&AnonTuple>]) -> Option<InputValue> {
            let mut counts: BTreeMap<InputValue, usize> = BTreeMap::new();
            for cell in cells.iter().flatten() {
                *counts.entry(cell.value).or_insert(0) += 1;
            }
            counts
                .into_iter()
                .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then(vb.cmp(va)))
                .map(|(value, _)| value)
        }

        pub fn best_supported_value(
            cells: &[Option<&AnonTuple>],
            t: InstanceId,
            ell: usize,
            pref: InputValue,
        ) -> Option<InputValue> {
            let mut counts: BTreeMap<InputValue, usize> = BTreeMap::new();
            for cell in cells.iter().flatten() {
                if cell.instance == t {
                    *counts.entry(cell.value).or_insert(0) += 1;
                }
            }
            counts
                .into_iter()
                .filter(|(value, count)| *count >= ell && *value != pref)
                .map(|(value, _)| value)
                .next()
        }
    }

    #[test]
    fn scan_helpers_match_the_counting_references_on_seeded_views() {
        use sa_model::SplitMix64;
        // Three values, two instances and two histories over widths 1–8, so
        // that duplicate tuples and tied counts are common.
        let histories = [History::empty(), History::from_vec(vec![4])];
        for seed in 0..2_000 {
            let mut rng = SplitMix64::new(seed);
            let width = 1 + rng.below(8) as usize;
            let view: Vec<Option<AnonValue>> = (0..width)
                .map(|_| match rng.below(8) {
                    0 => None,
                    1 => Some(AnonValue::Outputs(History::empty())),
                    _ => Some(AnonValue::Cell(AnonTuple::new(
                        rng.below(3),
                        1 + rng.below(2),
                        histories[rng.below(2) as usize].clone(),
                    ))),
                })
                .collect();
            let cells: Vec<Option<&AnonTuple>> = view
                .iter()
                .map(|entry| entry.as_ref().and_then(AnonValue::as_cell))
                .collect();
            let distinct = reference::distinct_cells(&cells);
            for m in 0..=width {
                assert_eq!(
                    at_most_distinct_cells(&view, m),
                    distinct <= m,
                    "seed {seed}, m = {m}"
                );
            }
            assert_eq!(
                most_frequent_value(&view),
                reference::most_frequent_value(&cells),
                "seed {seed}"
            );
            for t in 1..=2 {
                for value in 0..3 {
                    for ell in 1..=width {
                        assert_eq!(
                            best_supported_value(&view, t, ell, value),
                            reference::best_supported_value(&cells, t, ell, value),
                            "seed {seed}, t {t}, ell {ell}, pref {value}"
                        );
                    }
                }
            }
        }
    }
}
