//! The deterministic step executor.
//!
//! An [`Executor`] owns a set of automata (one per process) and a
//! [`SimMemory`]; each call to [`Executor::step`] lets one process perform
//! its poised shared-memory operation atomically. [`Executor::run`] drives
//! the whole execution under a [`Scheduler`]; [`Executor::run_round_robin`]
//! and [`Executor::run_solo`] are the two fixed schedules the service runs
//! each batch under, with no scheduler at all.
//!
//! Because `Executor` is `Clone` (whenever the automata are), adversaries can
//! snapshot a configuration, explore alternative futures and backtrack —
//! which is exactly what the Theorem 2 covering construction and the bounded
//! explorer need.

use crate::explore::{ExploreConfig, SymmetryMode};
use crate::parallel::ParallelExploreConfig;
use crate::schedule::{Scheduler, SchedulerView};
use crate::threaded::ThreadedConfig;
use crate::trace::{Trace, TraceEvent};
use sa_memory::{MemoryMetrics, SimMemory};
use sa_model::{Automaton, DecisionSet, IdRelabeling, Op, ProcessId, StepOutcome};
use std::fmt::Debug;

/// Which execution backend drives a system of automata — the third axis of
/// an execution besides the algorithm and the adversary.
///
/// The same [`Automaton`](sa_model::Automaton) state machines can be driven
/// four ways, and the paper's safety properties must hold under all of
/// them:
///
/// * [`Backend::Scheduled`] — the deterministic simulator: one atomic step
///   at a time under an adversarial [`Scheduler`], fully reproducible.
/// * [`Backend::Threaded`] — one OS thread per process against the
///   lock-based shared memory: the hardware and the OS scheduler decide the
///   linearization order, so this measures *real* contention and is
///   reproducible only up to interleaving.
/// * [`Backend::Explore`] — the bounded exhaustive explorer: **every**
///   interleaving of a (tiny) configuration is checked, which subsumes any
///   single adversary.
/// * [`Backend::ParallelExplore`] — the same exhaustive check spread over a
///   pool of worker threads, with byte-identical results at any thread
///   count; the backend that pushes exhaustive verification past the cells
///   the serial explorer can finish.
///
/// Crash failures are *not* a backend: they are an adversary property
/// (see [`crate::CrashScheduler`]) layered over [`Backend::Scheduled`],
/// orthogonal to this axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Deterministic simulation under an adversarial scheduler.
    #[default]
    Scheduled,
    /// One OS thread per process against real shared memory.
    Threaded(ThreadedConfig),
    /// Bounded exhaustive exploration of every interleaving.
    Explore(ExploreConfig),
    /// Parallel exhaustive exploration of every interleaving.
    ParallelExplore(ParallelExploreConfig),
    /// A long-running batched agreement service under an open-loop load
    /// generator (implemented by the `sa-serve` crate; this variant only
    /// carries its knobs so the unified executor can dispatch to it).
    Serve(ServeOptions),
    /// Goal-directed search over schedule space for lower-bound witness
    /// structures — covering configurations and block-write extensions —
    /// instead of safety violations (implemented by the `sa-search` crate;
    /// this variant only carries its knobs so the unified executor can
    /// dispatch to it).
    AdversarySearch(SearchConfig),
}

impl Backend {
    /// A short identifier used in records and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Scheduled => "scheduled",
            Backend::Threaded(_) => "threaded",
            Backend::Explore(_) => "explore",
            Backend::ParallelExplore(_) => "parallel-explore",
            Backend::Serve(_) => "serve",
            Backend::AdversarySearch(_) => "adversary-search",
        }
    }
}

/// The witness structure a [`Backend::AdversarySearch`] run hunts for.
///
/// Both goals come from the Theorem 2 lower-bound machinery: a *covering
/// configuration* has `p` processes each poised to write, covering `p`
/// pairwise-distinct locations; a *block write* additionally requires that
/// every covered location already holds a value, so executing the poised
/// writes back-to-back obliterates recorded information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchGoal {
    /// A configuration where as many processes as possible are poised to
    /// write pairwise-distinct locations.
    #[default]
    Covering,
    /// A covering configuration whose covered locations have all been
    /// written before, so the block write obliterates information.
    BlockWrite,
}

impl SearchGoal {
    /// A short identifier used in specs, records and reports.
    pub fn label(&self) -> &'static str {
        match self {
            SearchGoal::Covering => "covering",
            SearchGoal::BlockWrite => "block-write",
        }
    }

    /// Parses a goal label; returns `None` for unknown names.
    pub fn parse(text: &str) -> Option<SearchGoal> {
        match text.trim() {
            "covering" => Some(SearchGoal::Covering),
            "block-write" => Some(SearchGoal::BlockWrite),
            _ => None,
        }
    }

    /// Every goal, in a fixed order (spec/CLI enumeration).
    pub fn all() -> [SearchGoal; 2] {
        [SearchGoal::Covering, SearchGoal::BlockWrite]
    }
}

/// The knobs of a [`Backend::AdversarySearch`] run: which witness structure
/// to hunt for, how hard, and over how many worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// The witness structure being searched for.
    pub goal: SearchGoal,
    /// Stop as soon as a witness touching (written or covered) at least
    /// this many locations is found; `0` searches the whole budgeted space
    /// for the best witness.
    pub target_registers: usize,
    /// Maximum schedule depth (BFS radius) to search.
    pub max_depth: u64,
    /// Maximum number of distinct configurations to visit.
    pub max_states: u64,
    /// Worker threads expanding each BFS level (results are byte-identical
    /// at any thread count).
    pub threads: usize,
    /// Canonicalize configurations up to process-id orbits before
    /// deduplication, exactly as the exhaustive explorers do.
    pub symmetry: SymmetryMode,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            goal: SearchGoal::Covering,
            target_registers: 0,
            max_depth: 64,
            max_states: 1_000_000,
            threads: 1,
            symmetry: SymmetryMode::Off,
        }
    }
}

/// The clock a [`Backend::Serve`] run is driven by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeClock {
    /// A deterministic virtual clock: one tick per millisecond of modelled
    /// time, execution cost modelled as one microsecond per algorithm step.
    /// Reports are reproducible bit-for-bit at any shard count.
    #[default]
    Virtual,
    /// The real wall clock: ticks are paced by `std::thread::sleep` and
    /// latencies are measured with `std::time::Instant`. Reports are *not*
    /// reproducible.
    Wall,
}

impl ServeClock {
    /// A short identifier used in reports and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            ServeClock::Virtual => "virtual",
            ServeClock::Wall => "wall",
        }
    }
}

/// How a [`Backend::Serve`] load generator picks proposal values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeLoad {
    /// Every proposal carries a globally unique value.
    #[default]
    Distinct,
    /// Every proposal carries the same value.
    Uniform(u64),
    /// Seed-derived values drawn from `0..universe`.
    Random {
        /// The number of distinct values to draw from.
        universe: u64,
    },
}

/// The knobs of a [`Backend::Serve`] run: a service sharded over
/// `shards` worker threads, batching proposals from `clients` simulated
/// clients arriving open-loop at `rate` proposals per tick for
/// `duration_ticks` ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Worker threads executing batches (at least 1).
    pub shards: usize,
    /// A batch is cut as soon as it holds this many proposals (at least 1).
    pub batch_max: usize,
    /// The number of simulated clients issuing proposals.
    pub clients: usize,
    /// Proposals issued per clock tick (open-loop, at least 1).
    pub rate: u64,
    /// How many ticks the load generator runs before the graceful drain.
    pub duration_ticks: u64,
    /// Virtual (deterministic) or wall (real time) clock.
    pub clock: ServeClock,
    /// How proposal values are generated.
    pub load: ServeLoad,
    /// Seed for the load generator's value stream.
    pub seed: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            shards: 2,
            batch_max: 8,
            clients: 64,
            rate: 8,
            duration_ticks: 1000,
            clock: ServeClock::Virtual,
            load: ServeLoad::Distinct,
            seed: 0,
        }
    }
}

/// Why an execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every process halted (completed all its configured `Propose`s).
    AllHalted,
    /// The step budget was exhausted before every process halted.
    StepLimit,
    /// The scheduler declined to schedule anybody else.
    SchedulerExhausted,
}

/// Configuration of an execution run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Maximum number of steps to execute.
    pub max_steps: u64,
    /// Whether to record a full [`Trace`].
    pub record_trace: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_steps: 1_000_000,
            record_trace: false,
        }
    }
}

impl RunConfig {
    /// A config with the given step budget and no trace.
    pub fn with_max_steps(max_steps: u64) -> Self {
        RunConfig {
            max_steps,
            ..RunConfig::default()
        }
    }

    /// Enables trace recording.
    pub fn traced(mut self) -> Self {
        self.record_trace = true;
        self
    }
}

/// The summary of an execution run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Why the run stopped.
    pub stop: StopReason,
    /// Total number of steps executed.
    pub steps: u64,
    /// Decisions recorded, grouped by instance.
    pub decisions: DecisionSet,
    /// Steps taken by each process.
    pub steps_per_process: Vec<u64>,
    /// Which processes had halted when the run stopped.
    pub halted: Vec<bool>,
    /// Shared-memory usage metrics of the run.
    pub metrics: MemoryMetrics,
    /// The execution trace, if recording was enabled.
    pub trace: Option<Trace>,
}

impl RunReport {
    /// `true` if every process halted.
    pub fn all_halted(&self) -> bool {
        self.halted.iter().all(|h| *h)
    }

    /// The processes that had **not** halted when the run stopped.
    pub fn unfinished(&self) -> Vec<ProcessId> {
        self.halted
            .iter()
            .enumerate()
            .filter(|(_, h)| !**h)
            .map(|(i, _)| ProcessId(i))
            .collect()
    }
}

/// Drives a set of automata against a simulated shared memory, one atomic
/// step at a time.
///
/// ```
/// use sa_runtime::{Executor, RoundRobin, RunConfig};
/// use sa_runtime::toy::ToyWriter;
///
/// let automata = vec![ToyWriter::new(0, 10), ToyWriter::new(1, 20)];
/// let mut exec = Executor::new(automata);
/// let report = exec.run(&mut RoundRobin::new(), RunConfig::default());
/// assert!(report.all_halted());
/// assert_eq!(report.decisions.deciders(1), 2);
/// ```
#[derive(Debug)]
pub struct Executor<A: Automaton> {
    automata: Vec<A>,
    memory: SimMemory<A::Value>,
    decisions: DecisionSet,
    steps: u64,
    steps_per_process: Vec<u64>,
}

impl<A: Automaton + Clone> Clone for Executor<A> {
    fn clone(&self) -> Self {
        Executor {
            automata: self.automata.clone(),
            memory: self.memory.clone(),
            decisions: self.decisions.clone(),
            steps: self.steps,
            steps_per_process: self.steps_per_process.clone(),
        }
    }

    /// Copies `source` field by field into this executor's buffers, so an
    /// executor of the same system becomes a copy of another without
    /// allocating its vectors again. The explorers build successors this
    /// way in the executor of a successor they did not keep.
    fn clone_from(&mut self, source: &Self) {
        self.automata.clone_from(&source.automata);
        self.memory.clone_from(&source.memory);
        self.decisions.clone_from(&source.decisions);
        self.steps = source.steps;
        self.steps_per_process.clone_from(&source.steps_per_process);
    }
}

impl<A: Automaton> Executor<A>
where
    A::Value: Clone + Eq + Debug,
{
    /// Creates an executor for the given automata. The shared memory is
    /// sized to the union of the automata's declared layouts.
    pub fn new(automata: Vec<A>) -> Self {
        // Automata of one algorithm declare equal layouts: the union is
        // built only where a layout differs from the union so far.
        let layout = automata
            .iter()
            .map(|a| a.layout())
            .reduce(|union, l| if union == l { union } else { union.union(&l) })
            .unwrap_or_default();
        let n = automata.len();
        Executor {
            automata,
            memory: SimMemory::for_layout(&layout),
            decisions: DecisionSet::new(),
            steps: 0,
            steps_per_process: vec![0; n],
        }
    }

    /// The number of processes.
    pub fn process_count(&self) -> usize {
        self.automata.len()
    }

    /// The processes that have not halted.
    pub fn runnable(&self) -> Vec<ProcessId> {
        let mut runnable = Vec::new();
        self.runnable_into(&mut runnable);
        runnable
    }

    /// Overwrites `runnable` with the processes that have not halted, in
    /// id order, reusing its buffer.
    pub(crate) fn runnable_into(&self, runnable: &mut Vec<ProcessId>) {
        runnable.clear();
        runnable.extend(
            self.automata
                .iter()
                .enumerate()
                .filter(|(_, a)| !a.is_halted())
                .map(|(i, _)| ProcessId(i)),
        );
    }

    /// `true` once every process has halted.
    pub fn all_halted(&self) -> bool {
        self.automata.iter().all(|a| a.is_halted())
    }

    /// The operation `process` is poised to perform, if it has not halted.
    pub fn poised(&self, process: ProcessId) -> Option<Op<A::Value>> {
        self.automata.get(process.index())?.poised()
    }

    /// A reference to the automaton of `process`.
    ///
    /// # Panics
    ///
    /// Panics if the process id is out of range.
    pub fn automaton(&self, process: ProcessId) -> &A {
        &self.automata[process.index()]
    }

    /// The shared memory (e.g. for metric inspection).
    pub fn memory(&self) -> &SimMemory<A::Value> {
        &self.memory
    }

    /// The decisions recorded so far.
    pub fn decisions(&self) -> &DecisionSet {
        &self.decisions
    }

    /// The number of steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Lets `process` perform its poised operation. Returns `None`, and
    /// changes nothing, if the process has halted or the id is out of
    /// range.
    ///
    /// # Panics
    ///
    /// Panics if the process issues an operation outside the memory layout —
    /// that is a protocol bug, not a schedulable condition.
    pub fn step(&mut self, process: ProcessId) -> Option<StepOutcome> {
        let automaton = self.automata.get_mut(process.index())?;
        let op = automaton.poised()?;
        let op_kind = op.kind();
        let response = self
            .memory
            .apply(op)
            .unwrap_or_else(|e| panic!("{process} issued an out-of-layout operation: {e}"));
        let decision = automaton.apply(response);
        if let Some(decision) = decision {
            self.decisions.record(process, decision);
        }
        self.steps += 1;
        self.steps_per_process[process.index()] += 1;
        Some(StepOutcome {
            op_kind,
            halted: self.automata[process.index()].is_halted(),
            decision,
        })
    }

    /// A deterministic, length-based estimate of the bytes this
    /// configuration occupies: the executor shell, the automata (inline
    /// size plus each one's [`Automaton::approx_heap_bytes`]), the shared
    /// memory contents (slots plus each occupied value's
    /// [`Automaton::value_heap_bytes`]) and the decision set. What every
    /// clone shares behind an `Arc` — the memory layout, an automaton's
    /// input sequence of more than one value — is charged nothing; a
    /// single input sits inline, inside the automaton's size.
    ///
    /// This is the deep-size hook behind
    /// [`Exploration::approx_bytes`](crate::Exploration::approx_bytes) and
    /// the explorers' spill triggers. It is computed from lengths, never
    /// capacities, so two equal configurations always report the same
    /// bytes — regardless of how they were produced (a fresh clone, or a
    /// [`clone_from`](Clone::clone_from) into a recycled executor whose
    /// buffers may be larger), which worker produced them, or whether they
    /// were rebuilt by replay after an explorer shed them.
    pub fn approx_deep_bytes(&self) -> u64 {
        let mut bytes = std::mem::size_of::<Executor<A>>()
            + self.automata.len() * std::mem::size_of::<A>()
            + self.steps_per_process.len() * std::mem::size_of::<u64>();
        for automaton in &self.automata {
            bytes += automaton.approx_heap_bytes();
        }
        bytes += self.memory.approx_heap_bytes(|v| A::value_heap_bytes(v));
        bytes += self.decisions.approx_heap_bytes();
        bytes as u64
    }

    /// The image of this configuration under a process-id relabeling,
    /// applied **consistently**: the automaton of old slot `p` moves to
    /// slot `relabel(p)` with its embedded ids rewritten
    /// ([`Automaton::relabeled`]), every shared-memory value is rewritten
    /// ([`Automaton::relabel_value`]), decisions and per-process step
    /// counts move with their process. Memory *locations* stay put.
    ///
    /// This is the group action the symmetry-reduced explorers quotient
    /// by; it is exposed so the orbit-soundness tests (and diagnostics) can
    /// apply concrete permutations and compare state keys.
    ///
    /// # Panics
    ///
    /// Panics if `relabel` is not a bijection on exactly this executor's
    /// process set.
    pub fn permuted(&self, relabel: &IdRelabeling) -> Executor<A>
    where
        A: Clone,
    {
        let n = self.automata.len();
        assert!(
            relabel.len() == n && relabel.is_bijection(),
            "permuting {n} processes needs a bijection on 0..{n}"
        );
        let mut automata: Vec<Option<A>> = vec![None; n];
        let mut steps_per_process = vec![0u64; n];
        for old in 0..n {
            let new = relabel.apply(ProcessId(old)).index();
            automata[new] = Some(self.automata[old].relabeled(relabel));
            steps_per_process[new] = self.steps_per_process[old];
        }
        Executor {
            automata: automata
                .into_iter()
                .map(|a| a.expect("a bijection fills every slot"))
                .collect(),
            memory: self
                .memory
                .canonicalized(|value| A::relabel_value(value, relabel)),
            decisions: self.decisions.relabeled(relabel),
            steps: self.steps,
            steps_per_process,
        }
    }

    /// Runs the execution under `scheduler` until every process halts, the
    /// step budget is exhausted, or the scheduler gives up.
    pub fn run<S: Scheduler + ?Sized>(
        &mut self,
        scheduler: &mut S,
        config: RunConfig,
    ) -> RunReport {
        let mut trace = config.record_trace.then(Trace::new);
        let stop = loop {
            if self.all_halted() {
                break StopReason::AllHalted;
            }
            if self.steps >= config.max_steps {
                break StopReason::StepLimit;
            }
            let runnable = self.runnable();
            let view = SchedulerView {
                step: self.steps,
                runnable: &runnable,
            };
            let Some(pick) = scheduler.next(&view) else {
                break StopReason::SchedulerExhausted;
            };
            let step_number = self.steps;
            let wrote = if trace.is_some() {
                self.poised(pick).and_then(|op| op.footprint().write_cell())
            } else {
                None
            };
            let Some(outcome) = self.step(pick) else {
                // The scheduler picked a halted process; treat as exhaustion
                // to avoid spinning forever.
                break StopReason::SchedulerExhausted;
            };
            if let Some(trace) = trace.as_mut() {
                trace.push(TraceEvent {
                    step: step_number,
                    process: pick,
                    op: outcome.op_kind,
                    wrote,
                    decision: outcome.decision,
                });
            }
        };
        RunReport {
            stop,
            steps: self.steps,
            decisions: self.decisions.clone(),
            steps_per_process: self.steps_per_process.clone(),
            halted: self.automata.iter().map(|a| a.is_halted()).collect(),
            metrics: self.memory.metrics(),
            trace,
        }
    }

    /// Cycles over the live processes for at most `budget` steps (stopping
    /// early once everyone halts) and returns the number of steps taken.
    ///
    /// This is bounded *contention*, not a termination schedule: an
    /// m-obstruction-free algorithm owes no progress while more than `m`
    /// processes keep taking steps. Unlike [`run`](Self::run) under a
    /// [`RoundRobin`](crate::RoundRobin) scheduler, it builds no runnable
    /// list or scheduler view per step and returns no report; the service
    /// executes every batch with it and [`run_solo`](Self::run_solo).
    pub fn run_round_robin(&mut self, budget: u64) -> u64 {
        let n = self.automata.len();
        let mut taken = 0;
        let mut idle = 0;
        let mut next = 0;
        while taken < budget && idle < n {
            if self.step(ProcessId(next)).is_some() {
                taken += 1;
                idle = 0;
            } else {
                idle += 1;
            }
            next = (next + 1) % n.max(1);
        }
        taken
    }

    /// Runs `process` alone until it halts or `budget` steps elapse;
    /// returns `true` if it halted (an out-of-range id counts as halted).
    /// Obstruction-freedom guarantees a solo run terminates, so a
    /// sufficient budget always returns `true`: bounded contention from
    /// [`run_round_robin`](Self::run_round_robin), then a solo run of each
    /// process in turn, is a deterministic schedule that finishes.
    pub fn run_solo(&mut self, process: ProcessId, budget: u64) -> bool {
        for _ in 0..budget {
            if self.step(process).is_none() {
                return true;
            }
        }
        self.automata
            .get(process.index())
            .is_none_or(|a| a.is_halted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{RoundRobin, ScriptedScheduler, SoloScheduler};
    use crate::toy::{RacyConsensus, Spinner, ToyWriter};

    #[test]
    fn run_to_completion_under_round_robin() {
        let automata = vec![
            ToyWriter::new(0, 1),
            ToyWriter::new(1, 2),
            ToyWriter::new(2, 3),
        ];
        let mut exec = Executor::new(automata);
        let report = exec.run(&mut RoundRobin::new(), RunConfig::default());
        assert_eq!(report.stop, StopReason::AllHalted);
        assert!(report.all_halted());
        assert_eq!(report.decisions.deciders(1), 3);
        assert_eq!(report.steps, 6);
        assert_eq!(report.steps_per_process, vec![2, 2, 2]);
        assert!(report.unfinished().is_empty());
    }

    #[test]
    fn step_limit_is_enforced() {
        let automata = vec![Spinner::new(0), Spinner::new(0)];
        let mut exec = Executor::new(automata);
        let report = exec.run(&mut RoundRobin::new(), RunConfig::with_max_steps(25));
        assert_eq!(report.stop, StopReason::StepLimit);
        assert_eq!(report.steps, 25);
        assert!(!report.all_halted());
        assert_eq!(report.unfinished().len(), 2);
    }

    #[test]
    fn scheduler_exhaustion_is_reported() {
        let automata = vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)];
        let mut exec = Executor::new(automata);
        // A script that only runs p0; after p0 halts nothing remains.
        let mut sched = ScriptedScheduler::new(vec![ProcessId(0); 10]);
        let report = exec.run(&mut sched, RunConfig::default());
        assert_eq!(report.stop, StopReason::SchedulerExhausted);
        assert_eq!(report.decisions.deciders(1), 1);
        assert_eq!(report.unfinished(), vec![ProcessId(1)]);
    }

    #[test]
    fn racy_automaton_disagrees_under_a_bad_schedule() {
        // Both processes read before either writes: they decide different values.
        let automata = vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 20),
        ];
        let mut exec = Executor::new(automata);
        let mut sched =
            ScriptedScheduler::new(vec![ProcessId(0), ProcessId(1), ProcessId(0), ProcessId(1)]);
        let report = exec.run(&mut sched, RunConfig::default());
        assert_eq!(report.decisions.distinct_outputs(1), 2);
    }

    #[test]
    fn racy_automaton_agrees_under_solo_then_solo() {
        let automata = vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 20),
        ];
        let mut exec = Executor::new(automata);
        let mut sched =
            ScriptedScheduler::new(vec![ProcessId(0), ProcessId(0), ProcessId(1), ProcessId(1)]);
        let report = exec.run(&mut sched, RunConfig::default());
        assert_eq!(report.decisions.distinct_outputs(1), 1);
        assert_eq!(report.decisions.outputs(1).into_iter().next(), Some(10));
    }

    #[test]
    fn manual_stepping_and_inspection() {
        let automata = vec![ToyWriter::new(0, 5)];
        let mut exec = Executor::new(automata);
        assert_eq!(exec.process_count(), 1);
        assert!(exec.poised(ProcessId(0)).is_some());
        let outcome = exec.step(ProcessId(0)).unwrap();
        assert!(!outcome.halted);
        let outcome = exec.step(ProcessId(0)).unwrap();
        assert!(outcome.halted);
        assert_eq!(outcome.decision, Some(sa_model::Decision::new(1, 5)));
        assert!(exec.step(ProcessId(0)).is_none());
        assert!(exec.all_halted());
        assert_eq!(exec.steps(), 2);
        assert_eq!(exec.memory().metrics().total_ops(), 2);
    }

    #[test]
    fn trace_recording_captures_schedule() {
        let automata = vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)];
        let mut exec = Executor::new(automata);
        let report = exec.run(&mut RoundRobin::new(), RunConfig::default().traced());
        let trace = report.trace.expect("trace was requested");
        assert_eq!(trace.len() as u64, report.steps);
        assert_eq!(trace.decisions().len(), 2);
    }

    #[test]
    fn solo_run_starves_other_processes() {
        let automata = vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)];
        let mut exec = Executor::new(automata);
        let report = exec.run(&mut SoloScheduler::new(ProcessId(1)), RunConfig::default());
        assert_eq!(report.steps_per_process[0], 0);
        assert!(report.halted[1]);
        assert!(!report.halted[0]);
    }

    #[test]
    fn executor_clone_allows_branching_executions() {
        let automata = vec![
            RacyConsensus::new(ProcessId(0), 10),
            RacyConsensus::new(ProcessId(1), 20),
        ];
        let mut exec = Executor::new(automata);
        exec.step(ProcessId(0));
        // Branch A: p0 finishes alone first.
        let mut branch_a = exec.clone();
        branch_a.step(ProcessId(0));
        branch_a.step(ProcessId(1));
        branch_a.step(ProcessId(1));
        // Branch B: p1 reads before p0 writes.
        let mut branch_b = exec;
        branch_b.step(ProcessId(1));
        branch_b.step(ProcessId(0));
        branch_b.step(ProcessId(1));
        assert_eq!(branch_a.decisions().distinct_outputs(1), 1);
        assert_eq!(branch_b.decisions().distinct_outputs(1), 2);
    }
}
