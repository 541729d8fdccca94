//! Baseline algorithms the paper compares against.
//!
//! * [`WideBaseline`] — the Figure 3 state machine instantiated with
//!   `2(n − k)` snapshot components. This is the space used by the prior
//!   1-obstruction-free k-set agreement algorithm of Delporte-Gallet,
//!   Fauconnier, Gafni and Rajsbaum \[4\], which the paper improves to
//!   `n − k + 2` components. (The exact pseudocode of \[4\] is not contained
//!   in the paper; instantiating Figure 3 with the wider object preserves the
//!   quantity the paper compares — the register count — and gives a runnable
//!   algorithm with the same communication pattern. See DESIGN.md.)
//! * [`SwmrEmulated`] — a protocol adapter realizing the paper's *trivial*
//!   upper bound of `n` registers: "n (large) single-writer registers can
//!   implement any number of multi-writer registers \[13\]". It wraps any
//!   snapshot-based automaton and emulates its snapshot object from `n`
//!   single-writer full-information registers (collect-before-update for
//!   per-component timestamps, double collect for atomic scans).
//! * [`FullInfoSetAgreement`] — `SwmrEmulated<OneShotSetAgreement>`, the
//!   concrete trivial baseline used in the benchmark harness.

use crate::error::AlgorithmError;
use crate::oneshot::OneShotSetAgreement;
use crate::values::Pair;
use sa_model::{
    Automaton, Decision, IdRelabeling, InputValue, MemoryLayout, Op, Params, ProcessId, Response,
    SymmetryClass,
};
use std::hash::Hasher;

/// The Figure 3 one-shot algorithm run over a snapshot object with
/// `2(n − k)` components — the space of the prior algorithm \[4\] for
/// `m = 1`.
///
/// ```
/// use sa_core::WideBaseline;
/// use sa_model::{Params, ProcessId};
///
/// let params = Params::new(10, 1, 3)?;
/// let baseline = WideBaseline::new(params, ProcessId(0), 42).unwrap();
/// assert_eq!(baseline.width(), 2 * (10 - 3));
/// # Ok::<(), sa_model::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WideBaseline {
    inner: OneShotSetAgreement,
}

impl WideBaseline {
    /// Creates the baseline automaton of process `id` with input `input`.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::TooFewComponents`] if `2(n − k)` is below
    /// the `n + 2m − k` components the Figure 3 correctness proof requires
    /// (this happens exactly when `n < k + 2m`, e.g. `m = 1` and `k = n − 1`,
    /// the one case where \[4\] uses fewer registers than the paper), or
    /// [`AlgorithmError::UnknownProcess`] if `id` is out of range.
    pub fn new(params: Params, id: ProcessId, input: InputValue) -> Result<Self, AlgorithmError> {
        let width = WideBaseline::width_for(params);
        let inner = OneShotSetAgreement::with_width(params, id, input, width)?;
        Ok(WideBaseline { inner })
    }

    /// The snapshot width `2(n − k)` used by the prior algorithm \[4\].
    pub fn width_for(params: Params) -> usize {
        2 * (params.n() - params.k())
    }

    /// The snapshot width used by this instance.
    pub fn width(&self) -> usize {
        self.inner.width()
    }

    /// The problem parameters.
    pub fn params(&self) -> &Params {
        self.inner.params()
    }

    /// The process identifier.
    pub fn id(&self) -> ProcessId {
        self.inner.id()
    }

    /// The wrapped Figure 3 automaton.
    pub fn inner(&self) -> &OneShotSetAgreement {
        &self.inner
    }
}

impl Automaton for WideBaseline {
    type Value = Pair;

    fn layout(&self) -> MemoryLayout {
        self.inner.layout()
    }

    fn poised(&self) -> Option<Op<Pair>> {
        self.inner.poised()
    }

    fn apply(&mut self, response: Response<'_, Pair>) -> Vec<Decision> {
        self.inner.apply(response)
    }

    fn symmetry_class(&self) -> SymmetryClass {
        self.inner.symmetry_class()
    }

    fn relabeled(&self, relabel: &IdRelabeling) -> Self {
        WideBaseline {
            inner: self.inner.relabeled(relabel),
        }
    }

    fn hash_behavior<H: Hasher>(&self, relabel: &IdRelabeling, state: &mut H) {
        self.inner.hash_behavior(relabel, state);
    }

    fn relabel_value(value: &Pair, relabel: &IdRelabeling) -> Pair {
        OneShotSetAgreement::relabel_value(value, relabel)
    }
}

/// A per-component cell of a full-information single-writer register: the
/// latest value this process wrote to the emulated component, together with
/// the timestamp it used.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct EmulatedCell<V> {
    value: V,
    seq: u64,
    writer: ProcessId,
}

/// The full-information record stored in one single-writer register: one
/// optional cell per emulated snapshot component.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FullInfoRecord<V> {
    cells: Vec<Option<EmulatedCell<V>>>,
}

impl<V: Clone> FullInfoRecord<V> {
    fn empty(width: usize) -> Self {
        FullInfoRecord {
            cells: vec![None; width],
        }
    }
}

/// Micro-phase of the single-writer emulation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum EmulationPhase<V> {
    /// The wrapped automaton has no pending shared-memory request; forward
    /// its next operation on the following step.
    Idle,
    /// Emulating `update(component, value)`: collecting every register to
    /// learn the highest timestamp already used for `component`.
    UpdateCollect {
        component: usize,
        value: V,
        next_register: usize,
        max_seq: u64,
    },
    /// Emulating `update`: about to write the own register with the bumped
    /// timestamp in place.
    UpdateWrite,
    /// Emulating `scan()`: performing collect number `round` (0 or 1) of a
    /// double collect; `previous` holds the first collect once complete.
    ScanCollect {
        next_register: usize,
        current: Vec<Option<FullInfoRecord<V>>>,
        previous: Option<Vec<Option<FullInfoRecord<V>>>>,
    },
    /// The wrapped automaton halted.
    Done,
}

/// A protocol adapter that runs any snapshot-based automaton over `n`
/// single-writer full-information registers — the construction behind the
/// paper's trivial upper bound of `n` registers (\[1, 13\] in the paper).
///
/// Register `i` is written only by process `i` and holds that process's
/// latest value for **every** emulated snapshot component, each tagged with
/// a `(sequence number, writer)` timestamp:
///
/// * an emulated `update(j, v)` first collects all `n` registers to learn the
///   largest timestamp already attached to component `j`, then writes the own
///   register with `v` under a strictly larger timestamp (the write is the
///   linearization point);
/// * an emulated `scan()` repeatedly collects all `n` registers until two
///   consecutive collects are identical; the merged view (per component, the
///   cell with the largest timestamp) is then the memory content at every
///   point between the two collects, which makes the scan atomic.
///
/// The double collect is non-blocking rather than wait-free, exactly like the
/// progress the paper needs: under an `m`-obstruction-free schedule the
/// interfering writers eventually stop, so scans complete.
///
/// ```
/// use sa_core::{FullInfoSetAgreement, OneShotSetAgreement, SwmrEmulated};
/// use sa_model::{Automaton, Params, ProcessId};
///
/// let params = Params::new(5, 1, 2)?;
/// let inner = OneShotSetAgreement::new(params, ProcessId(3), 7);
/// let emulated: FullInfoSetAgreement = SwmrEmulated::new(params, ProcessId(3), inner);
/// // The layout is n plain registers — no snapshot object at all.
/// assert_eq!(emulated.layout().register_count(), 5);
/// assert_eq!(emulated.layout().snapshot_count(), 0);
/// # Ok::<(), sa_model::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SwmrEmulated<A: Automaton> {
    params: Params,
    id: ProcessId,
    inner: A,
    /// The emulated snapshot width (taken from the wrapped automaton's layout).
    width: usize,
    /// The process's own register content (mirrored locally so an update can
    /// modify one cell and rewrite the record).
    own_record: FullInfoRecord<A::Value>,
    phase: EmulationPhase<A::Value>,
    /// Number of double-collect rounds performed by the current scan (for
    /// diagnostics; reset when the scan completes).
    scan_rounds: u64,
}

/// The paper's trivial `n`-register baseline: the Figure 3 one-shot algorithm
/// run over the single-writer emulation.
pub type FullInfoSetAgreement = SwmrEmulated<OneShotSetAgreement>;

impl<A: Automaton> SwmrEmulated<A>
where
    A::Value: Clone,
{
    /// Wraps `inner`, which must use a single snapshot object (the shape of
    /// Figures 3 and 4), and emulates that object from `params.n()`
    /// single-writer registers.
    ///
    /// # Panics
    ///
    /// Panics if the wrapped automaton declares plain registers or more than
    /// one snapshot object — the emulation only targets the single-snapshot
    /// shape used by the paper's non-anonymous algorithms.
    pub fn new(params: Params, id: ProcessId, inner: A) -> Self {
        let layout = inner.layout();
        assert_eq!(
            layout.register_count(),
            0,
            "SwmrEmulated only emulates snapshot-only layouts"
        );
        assert_eq!(
            layout.snapshot_count(),
            1,
            "SwmrEmulated expects exactly one snapshot object"
        );
        let width = layout.snapshot_width(0).unwrap_or(0);
        SwmrEmulated {
            params,
            id,
            width,
            own_record: FullInfoRecord::empty(width),
            inner,
            phase: EmulationPhase::Idle,
            scan_rounds: 0,
        }
    }

    /// Convenience constructor for the concrete trivial baseline: Figure 3
    /// with input `input`, emulated over `n` single-writer registers.
    pub fn one_shot(params: Params, id: ProcessId, input: InputValue) -> FullInfoSetAgreement {
        SwmrEmulated::new(params, id, OneShotSetAgreement::new(params, id, input))
    }

    /// The wrapped automaton.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The problem parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The emulated snapshot width.
    pub fn emulated_width(&self) -> usize {
        self.width
    }

    /// Number of collect rounds performed by the scan currently in progress.
    pub fn scan_rounds(&self) -> u64 {
        self.scan_rounds
    }

    /// Starts emulating the operation the wrapped automaton is poised to
    /// perform, or marks the emulation finished if it halted.
    fn arm(&mut self) {
        self.phase = match self.inner.poised() {
            None => EmulationPhase::Done,
            Some(Op::Update {
                snapshot: _,
                component,
                value,
            }) => EmulationPhase::UpdateCollect {
                component,
                value,
                next_register: 0,
                max_seq: 0,
            },
            Some(Op::Scan { .. }) => {
                self.scan_rounds = 0;
                EmulationPhase::ScanCollect {
                    next_register: 0,
                    current: vec![None; self.params.n()],
                    previous: None,
                }
            }
            Some(Op::Nop) => EmulationPhase::Idle,
            Some(Op::Read { .. }) | Some(Op::Write { .. }) => {
                panic!("SwmrEmulated cannot wrap automata that use plain registers")
            }
        };
    }

    /// Merges a collect into the emulated snapshot view: for every component,
    /// the cell with the largest `(seq, writer)` timestamp wins.
    fn merge(collect: &[Option<FullInfoRecord<A::Value>>], width: usize) -> Vec<Option<A::Value>> {
        // Per component: the best cell seen so far and its (seq, writer) stamp.
        type Best<'a, V> = Option<(&'a EmulatedCell<V>, (u64, ProcessId))>;
        let mut view: Vec<Best<'_, A::Value>> = vec![None; width];
        for record in collect.iter().flatten() {
            for (component, cell) in record.cells.iter().enumerate() {
                let Some(cell) = cell else { continue };
                let stamp = (cell.seq, cell.writer);
                match &view[component] {
                    Some((_, best)) if *best >= stamp => {}
                    _ => view[component] = Some((cell, stamp)),
                }
            }
        }
        view.into_iter()
            .map(|entry| entry.map(|(cell, _)| cell.value.clone()))
            .collect()
    }
}

fn record_heap_bytes<A: Automaton>(record: &FullInfoRecord<A::Value>) -> usize {
    record.cells.len() * std::mem::size_of::<Option<EmulatedCell<A::Value>>>()
        + record
            .cells
            .iter()
            .flatten()
            .map(|cell| A::value_heap_bytes(&cell.value))
            .sum::<usize>()
}

impl<A: Automaton> Automaton for SwmrEmulated<A>
where
    A::Value: Clone,
{
    type Value = FullInfoRecord<A::Value>;

    fn approx_heap_bytes(&self) -> usize {
        let mut bytes = self.inner.approx_heap_bytes() + record_heap_bytes::<A>(&self.own_record);
        // A scan in flight holds one or two collect vectors of full records.
        if let EmulationPhase::ScanCollect {
            current, previous, ..
        } = &self.phase
        {
            for collect in std::iter::once(current).chain(previous.iter()) {
                bytes += collect.len() * std::mem::size_of::<Option<FullInfoRecord<A::Value>>>();
                bytes += collect
                    .iter()
                    .flatten()
                    .map(record_heap_bytes::<A>)
                    .sum::<usize>();
            }
        }
        bytes
    }

    fn value_heap_bytes(value: &FullInfoRecord<A::Value>) -> usize {
        record_heap_bytes::<A>(value)
    }

    // `symmetry_class` deliberately keeps its `Opaque` default: this
    // emulation addresses its own single-writer register *by process id*
    // (`register: self.id.index()`), so a relabeling would also have to
    // permute register locations — beyond what value relabeling can
    // express. Symmetry-reduced explorers therefore fall back to plain
    // exploration for this automaton instead of pruning unsoundly.

    fn layout(&self) -> MemoryLayout {
        MemoryLayout::registers_only(self.params.n())
    }

    fn poised(&self) -> Option<Op<FullInfoRecord<A::Value>>> {
        match &self.phase {
            EmulationPhase::Idle => Some(Op::Nop),
            EmulationPhase::UpdateCollect { next_register, .. } => Some(Op::Read {
                register: *next_register,
            }),
            EmulationPhase::UpdateWrite => Some(Op::Write {
                register: self.id.index(),
                value: self.own_record.clone(),
            }),
            EmulationPhase::ScanCollect { next_register, .. } => Some(Op::Read {
                register: *next_register,
            }),
            EmulationPhase::Done => None,
        }
    }

    fn is_halted(&self) -> bool {
        // The phase says it without building the poised op (which clones
        // the own record while a write is pending).
        matches!(self.phase, EmulationPhase::Done)
    }

    fn apply(&mut self, response: Response<'_, FullInfoRecord<A::Value>>) -> Vec<Decision> {
        match std::mem::replace(&mut self.phase, EmulationPhase::Idle) {
            EmulationPhase::Idle => {
                // The wrapped automaton was poised to a Nop (a purely local
                // step) or we are about to arm the next emulated operation.
                match self.inner.poised() {
                    Some(Op::Nop) => {
                        let decisions = self.inner.apply(Response::Nop);
                        self.arm();
                        decisions
                    }
                    _ => {
                        self.arm();
                        Vec::new()
                    }
                }
            }
            EmulationPhase::UpdateCollect {
                component,
                value,
                next_register,
                max_seq,
            } => {
                let record = response.expect_read();
                let observed = record
                    .as_ref()
                    .and_then(|r| r.cells.get(component))
                    .and_then(|cell| cell.as_ref())
                    .map_or(0, |cell| cell.seq);
                let max_seq = max_seq.max(observed);
                if next_register + 1 < self.params.n() {
                    self.phase = EmulationPhase::UpdateCollect {
                        component,
                        value,
                        next_register: next_register + 1,
                        max_seq,
                    };
                } else {
                    // All registers collected: bump the timestamp and write.
                    self.own_record.cells[component] = Some(EmulatedCell {
                        value,
                        seq: max_seq + 1,
                        writer: self.id,
                    });
                    self.phase = EmulationPhase::UpdateWrite;
                }
                Vec::new()
            }
            EmulationPhase::UpdateWrite => {
                debug_assert_eq!(response, Response::Written);
                let decisions = self.inner.apply(Response::Updated);
                self.arm();
                decisions
            }
            EmulationPhase::ScanCollect {
                next_register,
                mut current,
                previous,
            } => {
                current[next_register] = response.expect_read();
                if next_register + 1 < self.params.n() {
                    self.phase = EmulationPhase::ScanCollect {
                        next_register: next_register + 1,
                        current,
                        previous,
                    };
                    return Vec::new();
                }
                // A collect just completed.
                self.scan_rounds += 1;
                match previous {
                    Some(previous) if previous == current => {
                        // Two identical collects: the merged view is atomic.
                        let view = Self::merge(&current, self.width);
                        let decisions = self.inner.apply(Response::Snapshot(view.into()));
                        self.arm();
                        decisions
                    }
                    _ => {
                        // Keep collecting until two consecutive collects agree.
                        self.phase = EmulationPhase::ScanCollect {
                            next_register: 0,
                            current: vec![None; self.params.n()],
                            previous: Some(current),
                        };
                        Vec::new()
                    }
                }
            }
            EmulationPhase::Done => panic!("apply called on a halted process"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_runtime::{
        check_k_agreement, check_validity, Executor, InputLog, ObstructionScheduler,
        RandomScheduler, RunConfig, SoloScheduler,
    };

    fn input_log(params: Params) -> InputLog {
        let mut log = InputLog::new();
        for p in 0..params.n() {
            log.record(1, 100 + p as u64);
        }
        log
    }

    #[test]
    fn wide_baseline_uses_twice_n_minus_k_components() {
        let params = Params::new(10, 1, 3).unwrap();
        let baseline = WideBaseline::new(params, ProcessId(0), 1).unwrap();
        assert_eq!(baseline.width(), 14);
        assert_eq!(baseline.layout(), MemoryLayout::with_snapshot(14));
        assert_eq!(baseline.params().n(), 10);
        assert_eq!(baseline.id(), ProcessId(0));
        assert_eq!(baseline.inner().width(), 14);
    }

    #[test]
    fn wide_baseline_rejects_the_narrow_case() {
        // For k = n - 1 and m = 1, 2(n - k) = 2 < n + 2m - k = 3: the
        // Figure 3 proof does not cover the prior algorithm's width.
        let params = Params::new(4, 1, 3).unwrap();
        assert!(matches!(
            WideBaseline::new(params, ProcessId(0), 1),
            Err(AlgorithmError::TooFewComponents { .. })
        ));
    }

    #[test]
    fn wide_baseline_never_saves_space_over_figure_3() {
        for params in sa_model::ParamSweep::up_to(12).filter(|p| p.m() == 1) {
            if WideBaseline::new(params, ProcessId(0), 1).is_ok() {
                assert!(
                    WideBaseline::width_for(params) >= params.snapshot_components(),
                    "paper's algorithm should use no more components than [4] for {params:?}"
                );
            }
        }
    }

    #[test]
    fn wide_baseline_obstruction_runs_agree() {
        let params = Params::new(8, 1, 3).unwrap();
        let automata: Vec<_> = (0..8)
            .map(|p| WideBaseline::new(params, ProcessId(p), 100 + p as u64).unwrap())
            .collect();
        let mut exec = Executor::new(automata);
        let mut sched = ObstructionScheduler::new(300, vec![ProcessId(2)], 11);
        let report = exec.run(&mut sched, RunConfig::with_max_steps(200_000));
        assert!(report.halted[2]);
        check_k_agreement(3, &report.decisions).unwrap();
        check_validity(&input_log(params), &report.decisions).unwrap();
    }

    #[test]
    fn emulated_layout_is_n_plain_registers() {
        let params = Params::new(6, 2, 3).unwrap();
        let a = SwmrEmulated::<OneShotSetAgreement>::one_shot(params, ProcessId(1), 5);
        let layout = a.layout();
        assert_eq!(layout.register_count(), 6);
        assert_eq!(layout.snapshot_count(), 0);
        assert_eq!(a.emulated_width(), params.snapshot_components());
        assert_eq!(a.params().n(), 6);
    }

    #[test]
    fn emulated_solo_run_decides_own_input() {
        let params = Params::new(4, 1, 1).unwrap();
        let automata: Vec<_> = (0..4)
            .map(|p| {
                SwmrEmulated::<OneShotSetAgreement>::one_shot(params, ProcessId(p), 50 + p as u64)
            })
            .collect();
        let mut exec = Executor::new(automata);
        let report = exec.run(&mut SoloScheduler::new(ProcessId(1)), RunConfig::default());
        assert!(report.halted[1]);
        assert_eq!(report.decisions.decision_of(ProcessId(1), 1), Some(51));
    }

    #[test]
    fn emulated_obstruction_runs_satisfy_properties() {
        for (n, m, k) in [(4, 1, 2), (5, 2, 3), (4, 2, 2)] {
            let params = Params::new(n, m, k).unwrap();
            let automata: Vec<_> = (0..n)
                .map(|p| {
                    SwmrEmulated::<OneShotSetAgreement>::one_shot(
                        params,
                        ProcessId(p),
                        100 + p as u64,
                    )
                })
                .collect();
            let mut exec = Executor::new(automata);
            let survivors: Vec<_> = (0..m).map(ProcessId).collect();
            let mut sched = ObstructionScheduler::new(200, survivors.clone(), 3);
            let report = exec.run(&mut sched, RunConfig::with_max_steps(500_000));
            for p in &survivors {
                assert!(
                    report.halted[p.index()],
                    "{p} undecided for n={n} m={m} k={k}"
                );
            }
            check_k_agreement(k, &report.decisions).unwrap();
            check_validity(&input_log(params), &report.decisions).unwrap();
        }
    }

    #[test]
    fn emulated_contended_runs_preserve_safety() {
        for seed in 0..5u64 {
            let params = Params::new(4, 1, 2).unwrap();
            let automata: Vec<_> = (0..4)
                .map(|p| {
                    SwmrEmulated::<OneShotSetAgreement>::one_shot(
                        params,
                        ProcessId(p),
                        100 + p as u64,
                    )
                })
                .collect();
            let mut exec = Executor::new(automata);
            let mut sched = RandomScheduler::new(seed);
            let report = exec.run(&mut sched, RunConfig::with_max_steps(20_000));
            check_k_agreement(2, &report.decisions).unwrap();
            check_validity(&input_log(params), &report.decisions).unwrap();
        }
    }

    #[test]
    fn emulated_writes_touch_only_own_register() {
        let params = Params::new(5, 1, 2).unwrap();
        let automata: Vec<_> = (0..5)
            .map(|p| SwmrEmulated::<OneShotSetAgreement>::one_shot(params, ProcessId(p), p as u64))
            .collect();
        let mut exec = Executor::new(automata);
        let mut sched = RandomScheduler::new(7);
        let report = exec.run(&mut sched, RunConfig::with_max_steps(10_000).traced());
        let trace = report.trace.expect("trace was requested");
        let mut writes = 0;
        for event in trace.events() {
            if let Some(sa_memory::Location::Register(r)) = event.wrote {
                assert_eq!(
                    r,
                    event.process.index(),
                    "register {r} written by {}",
                    event.process
                );
                writes += 1;
            }
        }
        assert!(writes > 0, "the run wrote no register");
    }

    #[test]
    fn merge_prefers_largest_timestamp() {
        let cell = |value: u8, seq, writer| {
            Some(EmulatedCell {
                value,
                seq,
                writer: ProcessId(writer),
            })
        };
        let records = vec![
            Some(FullInfoRecord {
                cells: vec![cell(1, 1, 0), None],
            }),
            Some(FullInfoRecord {
                cells: vec![cell(2, 2, 1), cell(9, 1, 1)],
            }),
            None,
        ];
        let view = SwmrEmulated::<DummyAutomaton>::merge(&records, 2);
        assert_eq!(view, vec![Some(2), Some(9)]);
    }

    /// A minimal automaton used only to instantiate the generic `merge` in a
    /// unit test.
    #[derive(Debug)]
    struct DummyAutomaton;

    impl Automaton for DummyAutomaton {
        type Value = u8;

        fn layout(&self) -> MemoryLayout {
            MemoryLayout::with_snapshot(2)
        }

        fn poised(&self) -> Option<Op<u8>> {
            None
        }

        fn apply(&mut self, _response: Response<'_, u8>) -> Vec<Decision> {
            Vec::new()
        }
    }
}
