//! The one-shot algorithm of Figure 3: m-obstruction-free k-set agreement
//! over a snapshot object with `r = n + 2m − k` components.
//!
//! Each process keeps a preferred value `pref` (initially its input) and a
//! location index `i`. It repeatedly stores `(pref, id)` into component `i`
//! and scans the object:
//!
//! * if the scan contains at most `m` distinct pairs and no `⊥`, it outputs
//!   the value of the smallest-indexed duplicated pair and halts;
//! * otherwise, if its own pair appears nowhere except possibly at `i` and
//!   some other pair appears twice, it adopts the value of the
//!   smallest-indexed duplicated pair (and stays at location `i`);
//! * otherwise it advances `i` cyclically.
//!
//! The first `k − m` deciders may output anything (valid) values; the last
//! `ℓ = n − k + m` deciders agree on at most `m` values, for at most `k`
//! distinct outputs in total (Lemma 4 of the paper).

use crate::error::AlgorithmError;
use crate::values::Pair;
use sa_model::{
    Automaton, Decision, IdRelabeling, InputValue, MemoryLayout, Op, Params, ProcessId, Response,
    SymmetryClass,
};
use std::hash::{Hash, Hasher};

/// Which shared-memory operation the process performs next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// About to `update` component `i`.
    Update,
    /// About to `scan` the snapshot object.
    Scan,
    /// Halted (decided).
    Done,
}

/// A single process of the Figure 3 one-shot algorithm.
///
/// ```
/// use sa_core::OneShotSetAgreement;
/// use sa_model::{Params, ProcessId};
/// use sa_runtime::{Executor, ObstructionScheduler, RunConfig};
///
/// let params = Params::new(4, 1, 2)?;
/// let automata: Vec<_> = (0..4)
///     .map(|p| OneShotSetAgreement::new(params, ProcessId(p), 100 + p as u64))
///     .collect();
/// let mut exec = Executor::new(automata);
/// // Only p0 keeps running: 1-obstruction-freedom forces it to decide.
/// let mut solo = ObstructionScheduler::isolated(vec![ProcessId(0)], 7);
/// let report = exec.run(&mut solo, RunConfig::default());
/// assert!(report.halted[0]);
/// # Ok::<(), sa_model::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OneShotSetAgreement {
    params: Params,
    components: usize,
    id: ProcessId,
    input: InputValue,
    pref: InputValue,
    location: usize,
    phase: Phase,
}

impl OneShotSetAgreement {
    /// Creates the automaton of process `id` with input `input`, using the
    /// paper's snapshot width `r = n + 2m − k`.
    pub fn new(params: Params, id: ProcessId, input: InputValue) -> Self {
        OneShotSetAgreement::with_width(params, id, input, params.snapshot_components())
            .expect("the paper's width always satisfies the minimum")
    }

    /// Creates the automaton with an explicit snapshot width of at least
    /// `n + 2m − k` components. Wider objects remain correct (the pigeonhole
    /// arguments only need *at least* that many components); this is how the
    /// space-inefficient baseline of EXPERIMENTS.md is instantiated.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::TooFewComponents`] if `width` is below the
    /// required minimum, or [`AlgorithmError::UnknownProcess`] if `id` is out
    /// of range.
    pub fn with_width(
        params: Params,
        id: ProcessId,
        input: InputValue,
        width: usize,
    ) -> Result<Self, AlgorithmError> {
        if width < params.snapshot_components() {
            return Err(AlgorithmError::TooFewComponents {
                required: params.snapshot_components(),
                requested: width,
            });
        }
        Self::unchecked(params, id, input, width)
    }

    /// Creates a **deliberately under-provisioned** automaton with fewer
    /// components than the correctness proof requires. Only useful for the
    /// lower-bound experiments, which exhibit k-agreement violations of such
    /// variants; never use this to actually solve agreement.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::UnknownProcess`] if `id` is out of range, or
    /// [`AlgorithmError::TooFewComponents`] if `width` is zero.
    pub fn deficient(
        params: Params,
        id: ProcessId,
        input: InputValue,
        width: usize,
    ) -> Result<Self, AlgorithmError> {
        if width == 0 {
            return Err(AlgorithmError::TooFewComponents {
                required: 1,
                requested: 0,
            });
        }
        Self::unchecked(params, id, input, width)
    }

    fn unchecked(
        params: Params,
        id: ProcessId,
        input: InputValue,
        width: usize,
    ) -> Result<Self, AlgorithmError> {
        if id.index() >= params.n() {
            return Err(AlgorithmError::UnknownProcess {
                id: id.index(),
                n: params.n(),
            });
        }
        Ok(OneShotSetAgreement {
            params,
            components: width,
            id,
            input,
            pref: input,
            location: 0,
            phase: Phase::Update,
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

    /// The input value.
    pub fn input(&self) -> InputValue {
        self.input
    }

    /// The current preferred value (the input until the process adopts a
    /// value seen twice in a scan).
    pub fn preference(&self) -> InputValue {
        self.pref
    }

    /// Processes a scan result according to lines 9–14 of Figure 3, returning
    /// a decision if the process outputs and halts.
    fn handle_scan(&mut self, view: &[Option<Pair>]) -> Option<Decision> {
        // Line 9: at most m distinct pairs and no ⊥ anywhere.
        let all_full = view.iter().all(|entry| entry.is_some());
        if all_full && distinct_pairs(view) <= self.params.m() {
            // Line 10: output the value of the smallest-indexed duplicated pair.
            let j1 = first_duplicate_index(view).unwrap_or(0);
            let value = view[j1].as_ref().expect("all entries are full").value;
            self.phase = Phase::Done;
            return Some(Decision::new(1, value));
        }
        // Line 11: own pair absent everywhere except location i, and some
        // pair is duplicated.
        let own = Pair::new(self.pref, self.id);
        let own_absent_elsewhere = view
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != self.location)
            .all(|(_, entry)| match entry {
                None => false,
                Some(pair) => *pair != own,
            });
        if own_absent_elsewhere {
            if let Some(j1) = first_duplicate_index(view) {
                // Lines 12–13: adopt the duplicated value and keep the
                // location — but only when the preference actually changes.
                // The paper's prose is explicit that the location advances
                // "as long as the process's pref value remains the same";
                // without this qualification a solo process that keeps
                // re-adopting the value it already prefers would stay at one
                // location forever and never fill the object, contradicting
                // m-obstruction-freedom. (The k-agreement proof is unaffected:
                // a kept preference whose pair appears twice is already
                // covered by the induction hypothesis of Lemma 4.)
                let adopted = view[j1].as_ref().expect("duplicate entries are full").value;
                if adopted != self.pref {
                    self.pref = adopted;
                    self.phase = Phase::Update;
                    return None;
                }
            }
        }
        // Line 14: advance the location.
        self.location = (self.location + 1) % self.components;
        self.phase = Phase::Update;
        None
    }
}

/// Counts the distinct non-`⊥` pairs of a scan: an entry counts when no
/// earlier entry equals it.
fn distinct_pairs(view: &[Option<Pair>]) -> usize {
    view.iter()
        .enumerate()
        .filter(|&(j, entry)| entry.is_some() && !view[..j].contains(entry))
        .count()
}

/// The smallest index `j1` such that some `j2 > j1` holds an identical
/// (non-`⊥`) pair.
fn first_duplicate_index(view: &[Option<Pair>]) -> Option<usize> {
    for (j1, entry) in view.iter().enumerate() {
        let Some(pair) = entry else { continue };
        if view[j1 + 1..].iter().flatten().any(|other| other == pair) {
            return Some(j1);
        }
    }
    None
}

impl Automaton for OneShotSetAgreement {
    type Value = Pair;

    fn layout(&self) -> MemoryLayout {
        MemoryLayout::with_snapshot(self.components)
    }

    fn poised(&self) -> Option<Op<Pair>> {
        match self.phase {
            Phase::Update => Some(Op::Update {
                snapshot: 0,
                component: self.location,
                value: Pair::new(self.pref, self.id),
            }),
            Phase::Scan => Some(Op::Scan { snapshot: 0 }),
            Phase::Done => None,
        }
    }

    fn apply(&mut self, response: Response<'_, Pair>) -> Vec<Decision> {
        match self.phase {
            Phase::Update => {
                debug_assert_eq!(response, Response::Updated);
                self.phase = Phase::Scan;
                Vec::new()
            }
            Phase::Scan => {
                let view = response.expect_snapshot();
                self.handle_scan(&view).into_iter().collect()
            }
            Phase::Done => panic!("apply called on a halted process"),
        }
    }

    fn symmetry_class(&self) -> SymmetryClass {
        // The id appears in the local state and in every stored pair, but
        // never in an object address (components are location-indexed), so
        // consistent relabeling is a transition-system automorphism.
        SymmetryClass::IdCarrying
    }

    fn relabeled(&self, relabel: &IdRelabeling) -> Self {
        OneShotSetAgreement {
            id: relabel.apply(self.id),
            ..self.clone()
        }
    }

    fn hash_behavior<H: Hasher>(&self, relabel: &IdRelabeling, state: &mut H) {
        // The full state with the id mapped. The (immutable, post-init
        // unread) `input` field is hashed deliberately: a non-anonymous
        // process is identified with its input, so slots with distinct
        // inputs never merge and symmetry-reduced exploration of a
        // distinct-workload cell visits exactly the full state count.
        self.params.hash(state);
        self.components.hash(state);
        relabel.apply(self.id).hash(state);
        self.input.hash(state);
        self.pref.hash(state);
        self.location.hash(state);
        self.phase.hash(state);
    }

    fn relabel_value(value: &Pair, relabel: &IdRelabeling) -> Pair {
        Pair::new(value.value, relabel.apply(value.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_runtime::{
        check_k_agreement, check_validity, Executor, InputLog, ObstructionScheduler,
        RandomScheduler, RoundRobin, RunConfig, SoloScheduler,
    };

    fn automata(params: Params) -> Vec<OneShotSetAgreement> {
        (0..params.n())
            .map(|p| OneShotSetAgreement::new(params, ProcessId(p), 100 + p as u64))
            .collect()
    }

    fn input_log(params: Params) -> InputLog {
        let mut log = InputLog::new();
        for p in 0..params.n() {
            log.record(1, 100 + p as u64);
        }
        log
    }

    #[test]
    fn constructor_validates_width_and_id() {
        let params = Params::new(5, 2, 3).unwrap();
        assert_eq!(params.snapshot_components(), 6);
        assert!(OneShotSetAgreement::with_width(params, ProcessId(0), 1, 5).is_err());
        assert!(OneShotSetAgreement::with_width(params, ProcessId(0), 1, 6).is_ok());
        assert!(OneShotSetAgreement::with_width(params, ProcessId(5), 1, 6).is_err());
        assert!(OneShotSetAgreement::deficient(params, ProcessId(0), 1, 0).is_err());
        assert!(OneShotSetAgreement::deficient(params, ProcessId(0), 1, 3).is_ok());
        let a = OneShotSetAgreement::new(params, ProcessId(1), 7);
        assert_eq!(a.width(), 6);
        assert_eq!(a.id(), ProcessId(1));
        assert_eq!(a.input(), 7);
        assert_eq!(a.preference(), 7);
        assert_eq!(a.params().n(), 5);
    }

    #[test]
    fn layout_matches_paper_width() {
        let params = Params::new(6, 2, 4).unwrap();
        let a = OneShotSetAgreement::new(params, ProcessId(0), 0);
        assert_eq!(a.layout(), MemoryLayout::with_snapshot(6 + 4 - 4));
    }

    #[test]
    fn solo_process_decides_its_own_input() {
        let params = Params::new(4, 1, 1).unwrap();
        let mut exec = Executor::new(automata(params));
        let report = exec.run(&mut SoloScheduler::new(ProcessId(2)), RunConfig::default());
        assert!(report.halted[2]);
        assert_eq!(report.decisions.decision_of(ProcessId(2), 1), Some(102));
    }

    #[test]
    fn obstruction_runs_terminate_and_agree() {
        // Every (n, m, k) in a small sweep, heavy contention then m survivors.
        for (n, m, k) in [
            (3, 1, 1),
            (4, 1, 2),
            (4, 2, 2),
            (5, 2, 3),
            (6, 3, 3),
            (6, 1, 4),
        ] {
            let params = Params::new(n, m, k).unwrap();
            let mut exec = Executor::new(automata(params));
            let survivors: Vec<ProcessId> = (0..m).map(ProcessId).collect();
            let mut sched = ObstructionScheduler::new(200, survivors.clone(), 99);
            let report = exec.run(&mut sched, RunConfig::with_max_steps(200_000));
            for p in &survivors {
                assert!(
                    report.halted[p.index()],
                    "survivor {p} did not decide for n={n} m={m} k={k}"
                );
            }
            check_k_agreement(k, &report.decisions).unwrap();
            check_validity(&input_log(params), &report.decisions).unwrap();
        }
    }

    #[test]
    fn contended_runs_preserve_safety() {
        for seed in 0..10u64 {
            let params = Params::new(5, 2, 3).unwrap();
            let mut exec = Executor::new(automata(params));
            let mut sched = RandomScheduler::new(seed);
            let report = exec.run(&mut sched, RunConfig::with_max_steps(5_000));
            check_k_agreement(3, &report.decisions).unwrap();
            check_validity(&input_log(params), &report.decisions).unwrap();
        }
    }

    #[test]
    fn round_robin_full_contention_is_safe() {
        let params = Params::new(4, 2, 3).unwrap();
        let mut exec = Executor::new(automata(params));
        let report = exec.run(&mut RoundRobin::new(), RunConfig::with_max_steps(10_000));
        check_k_agreement(3, &report.decisions).unwrap();
    }

    #[test]
    fn maximal_obstruction_degree_lets_k_survivors_finish() {
        // With m = k = 3 the progress condition covers schedules where three
        // processes keep running; all three survivors must decide.
        let params = Params::new(4, 3, 3).unwrap();
        let mut exec = Executor::new(automata(params));
        let survivors = vec![ProcessId(0), ProcessId(1), ProcessId(3)];
        let mut sched = ObstructionScheduler::new(100, survivors.clone(), 17);
        let report = exec.run(&mut sched, RunConfig::with_max_steps(300_000));
        for p in &survivors {
            assert!(report.halted[p.index()], "{p} did not decide");
        }
        check_k_agreement(3, &report.decisions).unwrap();
    }

    #[test]
    fn uniform_inputs_decide_that_value() {
        let params = Params::new(5, 1, 2).unwrap();
        let automata: Vec<_> = (0..5)
            .map(|p| OneShotSetAgreement::new(params, ProcessId(p), 7))
            .collect();
        let mut exec = Executor::new(automata);
        let mut sched = ObstructionScheduler::new(50, vec![ProcessId(0)], 1);
        let report = exec.run(&mut sched, RunConfig::default());
        for value in report.decisions.outputs(1) {
            assert_eq!(value, 7);
        }
    }

    #[test]
    fn decided_space_stays_within_declared_width() {
        let params = Params::new(6, 2, 3).unwrap();
        let mut exec = Executor::new(automata(params));
        let mut sched = ObstructionScheduler::new(500, vec![ProcessId(0), ProcessId(1)], 5);
        let report = exec.run(&mut sched, RunConfig::with_max_steps(100_000));
        assert!(report.metrics.components_written(0) <= params.snapshot_components());
    }

    #[test]
    fn scan_handling_adopts_duplicated_value() {
        // Hand-crafted scan: the process's own pair is absent, value 55
        // appears twice, so the process must adopt 55 without advancing i.
        let params = Params::new(4, 1, 2).unwrap();
        let mut a = OneShotSetAgreement::new(params, ProcessId(0), 1);
        a.phase = Phase::Scan;
        let other = |v, p| Some(Pair::new(v, ProcessId(p)));
        // Width is 4; the process sits at location 0. Every other location is
        // full, none holds the process's own pair, and 55 appears twice.
        let view = vec![other(2, 3), other(55, 1), other(55, 1), other(66, 2)];
        assert_eq!(view.len(), a.width());
        let decision = a.handle_scan(&view);
        assert!(decision.is_none());
        assert_eq!(a.preference(), 55);
        assert_eq!(a.location, 0, "adopting must not advance the location");
    }

    #[test]
    fn scan_handling_decides_when_few_pairs_remain() {
        let params = Params::new(4, 2, 3).unwrap();
        // r = 4 + 4 - 3 = 5 components.
        let mut a = OneShotSetAgreement::new(params, ProcessId(0), 1);
        a.phase = Phase::Scan;
        let p = |v, id| Some(Pair::new(v, ProcessId(id)));
        let view = vec![p(9, 1), p(9, 1), p(8, 2), p(8, 2), p(9, 1)];
        let decision = a.handle_scan(&view).expect("must decide");
        assert_eq!(decision, Decision::new(1, 9));
        assert!(a.is_halted());
    }

    #[test]
    fn scan_handling_advances_location_when_own_pair_visible() {
        let params = Params::new(4, 1, 2).unwrap();
        let mut a = OneShotSetAgreement::new(params, ProcessId(0), 1);
        a.phase = Phase::Scan;
        // Own pair (1, p0) sits at another location: the process keeps its
        // preference and advances.
        let view = vec![
            Some(Pair::new(1, ProcessId(0))),
            Some(Pair::new(1, ProcessId(0))),
            Some(Pair::new(3, ProcessId(2))),
            None,
        ];
        let location_before = a.location;
        let decision = a.handle_scan(&view);
        assert!(decision.is_none());
        assert_eq!(a.preference(), 1);
        assert_eq!(a.location, (location_before + 1) % a.width());
    }

    #[test]
    fn helpers_count_and_find_duplicates() {
        let p = |v, id| Some(Pair::new(v, ProcessId(id)));
        let view = vec![None, p(1, 0), p(2, 1), p(1, 0), None];
        assert_eq!(distinct_pairs(&view), 2);
        assert_eq!(first_duplicate_index(&view), Some(1));
        let no_dup = vec![None, p(1, 0), p(2, 1)];
        assert_eq!(first_duplicate_index(&no_dup), None);
        assert_eq!(distinct_pairs(&[]), 0);
    }

    #[test]
    fn distinct_pairs_matches_a_seen_vector_on_seeded_views() {
        use sa_model::SplitMix64;
        /// Reference: the count with a `seen` vector.
        fn reference(view: &[Option<Pair>]) -> usize {
            let mut seen: Vec<&Pair> = Vec::with_capacity(view.len());
            for pair in view.iter().flatten() {
                if !seen.contains(&pair) {
                    seen.push(pair);
                }
            }
            seen.len()
        }
        // Few values and ids over widths 1–8, so that duplicate pairs are
        // common.
        for seed in 0..2_000 {
            let mut rng = SplitMix64::new(seed);
            let width = 1 + rng.below(8) as usize;
            let view: Vec<Option<Pair>> = (0..width)
                .map(|_| {
                    (rng.below(6) != 0)
                        .then(|| Pair::new(rng.below(2), ProcessId(rng.below(2) as usize)))
                })
                .collect();
            assert_eq!(distinct_pairs(&view), reference(&view), "seed {seed}");
        }
    }
}
