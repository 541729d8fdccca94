//! Schedulers: who takes the next step.
//!
//! In the asynchronous model an execution is just an interleaving of process
//! steps, so *the scheduler is the adversary*. The progress condition studied
//! by the paper — `m`-obstruction-freedom — quantifies over executions in
//! which at most `m` processes take infinitely many steps; the schedulers in
//! this module let tests and experiments produce exactly those executions
//! (plus crash patterns, bursts, solo runs and fully scripted interleavings).

use sa_model::{ProcessId, SplitMix64};
use std::collections::BTreeMap;

/// What a scheduler is allowed to observe when picking the next process: the
/// global step number and the processes that are still able to take a step
/// (not halted).
#[derive(Debug, Clone)]
pub struct SchedulerView<'a> {
    /// Number of steps taken so far in the execution.
    pub step: u64,
    /// Processes that have not halted.
    pub runnable: &'a [ProcessId],
}

/// A policy choosing which process takes the next step.
///
/// Returning `None` ends the execution (the scheduler has no process it is
/// willing to run); the executor reports this as
/// [`StopReason::SchedulerExhausted`](crate::StopReason::SchedulerExhausted).
pub trait Scheduler {
    /// Picks the next process to step among `view.runnable`.
    fn next(&mut self, view: &SchedulerView<'_>) -> Option<ProcessId>;

    /// A short human-readable name used in reports and benchmarks.
    fn name(&self) -> &str {
        "scheduler"
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn next(&mut self, view: &SchedulerView<'_>) -> Option<ProcessId> {
        (**self).next(view)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Schedules runnable processes in cyclic order — the maximally fair,
/// maximally contended schedule.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// Creates a round-robin scheduler.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Scheduler for RoundRobin {
    fn next(&mut self, view: &SchedulerView<'_>) -> Option<ProcessId> {
        if view.runnable.is_empty() {
            return None;
        }
        let pick = view.runnable[self.cursor % view.runnable.len()];
        self.cursor = self.cursor.wrapping_add(1);
        Some(pick)
    }

    fn name(&self) -> &str {
        "round-robin"
    }
}

/// Schedules a uniformly random runnable process at every step,
/// reproducibly from a seed.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: SplitMix64,
}

impl RandomScheduler {
    /// Creates a random scheduler from a seed.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: SplitMix64::new(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn next(&mut self, view: &SchedulerView<'_>) -> Option<ProcessId> {
        if view.runnable.is_empty() {
            return None;
        }
        let idx = self.rng.below(view.runnable.len() as u64) as usize;
        Some(view.runnable[idx])
    }

    fn name(&self) -> &str {
        "random"
    }
}

/// An `m`-obstruction adversary: for a configurable prefix it behaves like an
/// arbitrary (seeded random) scheduler over all processes; afterwards it only
/// schedules the configured set of *survivors*.
///
/// If the survivor set has size at most `m`, every execution it produces
/// satisfies the hypothesis of `m`-obstruction-freedom, so every correct
/// process must terminate — this is the schedule used by the termination
/// tests and the obstruction benchmarks.
#[derive(Debug, Clone)]
pub struct ObstructionScheduler {
    contention_steps: u64,
    survivors: Vec<ProcessId>,
    rng: SplitMix64,
}

impl ObstructionScheduler {
    /// Creates an obstruction adversary that schedules arbitrarily for
    /// `contention_steps` steps and then restricts to `survivors`.
    pub fn new(contention_steps: u64, survivors: Vec<ProcessId>, seed: u64) -> Self {
        ObstructionScheduler {
            contention_steps,
            survivors,
            rng: SplitMix64::new(seed),
        }
    }

    /// An adversary that never contends: only `survivors` ever run.
    pub fn isolated(survivors: Vec<ProcessId>, seed: u64) -> Self {
        ObstructionScheduler::new(0, survivors, seed)
    }

    /// The survivor set.
    pub fn survivors(&self) -> &[ProcessId] {
        &self.survivors
    }
}

impl Scheduler for ObstructionScheduler {
    fn next(&mut self, view: &SchedulerView<'_>) -> Option<ProcessId> {
        if view.runnable.is_empty() {
            return None;
        }
        let pool: Vec<ProcessId> = if view.step < self.contention_steps {
            view.runnable.to_vec()
        } else {
            view.runnable
                .iter()
                .copied()
                .filter(|p| self.survivors.contains(p))
                .collect()
        };
        if pool.is_empty() {
            return None;
        }
        let idx = self.rng.below(pool.len() as u64) as usize;
        Some(pool[idx])
    }

    fn name(&self) -> &str {
        "obstruction"
    }
}

/// A crash adversary: wraps another scheduler but stops scheduling each
/// process once it has taken its configured number of steps, modelling a
/// crash failure at that point.
#[derive(Debug, Clone)]
pub struct CrashScheduler<S> {
    inner: S,
    crash_after: BTreeMap<ProcessId, u64>,
    taken: BTreeMap<ProcessId, u64>,
}

impl<S: Scheduler> CrashScheduler<S> {
    /// Creates a crash adversary around `inner`; `crash_after[p]` is the
    /// number of steps process `p` takes before crashing (processes absent
    /// from the map never crash).
    pub fn new(inner: S, crash_after: BTreeMap<ProcessId, u64>) -> Self {
        CrashScheduler {
            inner,
            crash_after,
            taken: BTreeMap::new(),
        }
    }

    /// The processes that have already crashed.
    pub fn crashed(&self) -> Vec<ProcessId> {
        self.crash_after
            .iter()
            .filter(|(p, limit)| self.taken.get(p).copied().unwrap_or(0) >= **limit)
            .map(|(p, _)| *p)
            .collect()
    }
}

impl<S: Scheduler> Scheduler for CrashScheduler<S> {
    fn next(&mut self, view: &SchedulerView<'_>) -> Option<ProcessId> {
        let alive: Vec<ProcessId> = view
            .runnable
            .iter()
            .copied()
            .filter(|p| {
                let limit = self.crash_after.get(p).copied().unwrap_or(u64::MAX);
                self.taken.get(p).copied().unwrap_or(0) < limit
            })
            .collect();
        if alive.is_empty() {
            return None;
        }
        let inner_view = SchedulerView {
            step: view.step,
            runnable: &alive,
        };
        let pick = self.inner.next(&inner_view)?;
        *self.taken.entry(pick).or_insert(0) += 1;
        Some(pick)
    }

    fn name(&self) -> &str {
        "crash"
    }
}

/// Runs a single process and nobody else — the solo schedule under which
/// plain obstruction-freedom (`m = 1`) guarantees termination.
#[derive(Debug, Clone)]
pub struct SoloScheduler {
    process: ProcessId,
}

impl SoloScheduler {
    /// Creates a scheduler that only ever runs `process`.
    pub fn new(process: ProcessId) -> Self {
        SoloScheduler { process }
    }
}

impl Scheduler for SoloScheduler {
    fn next(&mut self, view: &SchedulerView<'_>) -> Option<ProcessId> {
        view.runnable.iter().copied().find(|p| *p == self.process)
    }

    fn name(&self) -> &str {
        "solo"
    }
}

/// Replays an explicit sequence of process ids, skipping entries whose
/// process has halted; tests use it to pin exact interleavings.
#[derive(Debug, Clone)]
pub struct ScriptedScheduler {
    script: Vec<ProcessId>,
    position: usize,
}

impl ScriptedScheduler {
    /// Creates a scheduler that replays `script` and then stops.
    pub fn new(script: Vec<ProcessId>) -> Self {
        ScriptedScheduler {
            script,
            position: 0,
        }
    }
}

impl Scheduler for ScriptedScheduler {
    fn next(&mut self, view: &SchedulerView<'_>) -> Option<ProcessId> {
        while self.position < self.script.len() {
            let pick = self.script[self.position];
            self.position += 1;
            if view.runnable.contains(&pick) {
                return Some(pick);
            }
        }
        None
    }

    fn name(&self) -> &str {
        "scripted"
    }
}

/// Schedules processes in randomly chosen bursts: a process is picked
/// (seeded-randomly) and then runs for a whole burst of consecutive steps.
/// Long bursts approximate low contention; burst length 1 degenerates to
/// [`RandomScheduler`].
#[derive(Debug, Clone)]
pub struct BurstScheduler {
    rng: SplitMix64,
    burst_len: u64,
    current: Option<ProcessId>,
    remaining: u64,
}

impl BurstScheduler {
    /// Creates a burst scheduler with the given burst length.
    ///
    /// # Panics
    ///
    /// Panics if `burst_len` is zero.
    pub fn new(burst_len: u64, seed: u64) -> Self {
        assert!(burst_len > 0, "burst length must be positive");
        BurstScheduler {
            rng: SplitMix64::new(seed),
            burst_len,
            current: None,
            remaining: 0,
        }
    }
}

impl Scheduler for BurstScheduler {
    fn next(&mut self, view: &SchedulerView<'_>) -> Option<ProcessId> {
        if view.runnable.is_empty() {
            return None;
        }
        if let Some(p) = self.current {
            if self.remaining > 0 && view.runnable.contains(&p) {
                self.remaining -= 1;
                return Some(p);
            }
        }
        let idx = self.rng.below(view.runnable.len() as u64) as usize;
        let pick = view.runnable[idx];
        self.current = Some(pick);
        self.remaining = self.burst_len - 1;
        Some(pick)
    }

    fn name(&self) -> &str {
        "burst"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<ProcessId> {
        ProcessId::all(n).collect()
    }

    fn view(runnable: &[ProcessId], step: u64) -> SchedulerView<'_> {
        SchedulerView { step, runnable }
    }

    #[test]
    fn round_robin_cycles_fairly() {
        let procs = ids(3);
        let mut s = RoundRobin::new();
        let picks: Vec<_> = (0..6).map(|i| s.next(&view(&procs, i)).unwrap()).collect();
        assert_eq!(
            picks,
            vec![
                ProcessId(0),
                ProcessId(1),
                ProcessId(2),
                ProcessId(0),
                ProcessId(1),
                ProcessId(2)
            ]
        );
    }

    #[test]
    fn round_robin_handles_empty() {
        let mut s = RoundRobin::new();
        assert_eq!(s.next(&view(&[], 0)), None);
    }

    #[test]
    fn random_scheduler_is_deterministic_per_seed() {
        let procs = ids(5);
        let picks = |seed| {
            let mut s = RandomScheduler::new(seed);
            (0..20)
                .map(|i| s.next(&view(&procs, i)).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8));
    }

    #[test]
    fn obstruction_scheduler_restricts_after_prefix() {
        let procs = ids(4);
        let survivors = vec![ProcessId(1), ProcessId(2)];
        let mut s = ObstructionScheduler::new(10, survivors.clone(), 3);
        for step in 0..100u64 {
            let pick = s.next(&view(&procs, step)).unwrap();
            if step >= 10 {
                assert!(survivors.contains(&pick), "step {step} scheduled {pick}");
            }
        }
        assert_eq!(s.survivors(), &survivors[..]);
    }

    #[test]
    fn obstruction_scheduler_stops_if_survivors_halt() {
        let mut s = ObstructionScheduler::isolated(vec![ProcessId(0)], 1);
        // Only p1 is runnable, but the adversary refuses to schedule it.
        assert_eq!(s.next(&view(&[ProcessId(1)], 0)), None);
    }

    #[test]
    fn crash_scheduler_stops_scheduling_after_limit() {
        let procs = ids(2);
        let mut crash_after = BTreeMap::new();
        crash_after.insert(ProcessId(0), 3u64);
        let mut s = CrashScheduler::new(RoundRobin::new(), crash_after);
        let mut count_p0 = 0;
        for step in 0..50u64 {
            match s.next(&view(&procs, step)) {
                Some(ProcessId(0)) => count_p0 += 1,
                Some(_) => {}
                None => break,
            }
        }
        assert_eq!(count_p0, 3);
        assert_eq!(s.crashed(), vec![ProcessId(0)]);
    }

    #[test]
    fn crash_scheduler_ends_when_everyone_crashed() {
        let procs = ids(1);
        let mut crash_after = BTreeMap::new();
        crash_after.insert(ProcessId(0), 1u64);
        let mut s = CrashScheduler::new(RoundRobin::new(), crash_after);
        assert!(s.next(&view(&procs, 0)).is_some());
        assert!(s.next(&view(&procs, 1)).is_none());
    }

    #[test]
    fn crash_at_step_zero_never_schedules_the_process() {
        use crate::executor::{Executor, RunConfig, StopReason};
        use crate::toy::ToyWriter;
        let automata = vec![
            ToyWriter::new(0, 1),
            ToyWriter::new(1, 2),
            ToyWriter::new(2, 3),
        ];
        let mut exec = Executor::new(automata);
        let mut crash_after = BTreeMap::new();
        crash_after.insert(ProcessId(0), 0u64);
        let mut sched = CrashScheduler::new(RoundRobin::new(), crash_after);
        // p0 is crashed before its first step; it must never run.
        assert_eq!(sched.crashed(), vec![ProcessId(0)]);
        let report = exec.run(&mut sched, RunConfig::default());
        assert_eq!(report.steps_per_process[0], 0);
        // The survivors run alone (obstruction-freedom) and must terminate.
        assert!(report.halted[1] && report.halted[2]);
        assert_eq!(report.stop, StopReason::SchedulerExhausted);
    }

    #[test]
    fn all_processes_crashing_exhausts_the_scheduler() {
        use crate::executor::{Executor, RunConfig, StopReason};
        use crate::toy::Spinner;
        let automata = vec![Spinner::new(0), Spinner::new(0), Spinner::new(0)];
        let mut exec = Executor::new(automata);
        let crash_after: BTreeMap<ProcessId, u64> = (0..3).map(|p| (ProcessId(p), 2u64)).collect();
        let mut sched = CrashScheduler::new(RoundRobin::new(), crash_after);
        let report = exec.run(&mut sched, RunConfig::default());
        // Every process takes exactly its pre-crash budget, then the
        // execution ends — the executor must not spin forever.
        assert_eq!(report.stop, StopReason::SchedulerExhausted);
        assert_eq!(report.steps, 6);
        assert_eq!(report.steps_per_process, vec![2, 2, 2]);
        assert_eq!(sched.crashed().len(), 3);
    }

    #[test]
    fn crash_points_beyond_the_budget_never_bite() {
        use crate::executor::{Executor, RunConfig, StopReason};
        use crate::toy::ToyWriter;
        let automata = vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2)];
        let mut exec = Executor::new(automata);
        let crash_after: BTreeMap<ProcessId, u64> =
            (0..2).map(|p| (ProcessId(p), 1_000_000u64)).collect();
        let mut sched = CrashScheduler::new(RoundRobin::new(), crash_after);
        let report = exec.run(&mut sched, RunConfig::with_max_steps(100));
        // The crash points lie far beyond what the processes need: the run
        // looks exactly like a crash-free one.
        assert_eq!(report.stop, StopReason::AllHalted);
        assert!(report.all_halted());
        assert!(sched.crashed().is_empty());
    }

    #[test]
    fn surviving_processes_terminate_under_crashed_obstruction() {
        use crate::executor::{Executor, RunConfig};
        use crate::toy::ToyWriter;
        // Obstruction survivors {0, 1}; p1 crashes after one step. The
        // remaining survivor runs solo and must still terminate.
        let automata = vec![
            ToyWriter::new(0, 1),
            ToyWriter::new(1, 2),
            ToyWriter::new(2, 3),
        ];
        let mut exec = Executor::new(automata);
        let inner = ObstructionScheduler::new(4, vec![ProcessId(0), ProcessId(1)], 9);
        let mut crash_after = BTreeMap::new();
        crash_after.insert(ProcessId(1), 1u64);
        let mut sched = CrashScheduler::new(inner, crash_after);
        let report = exec.run(&mut sched, RunConfig::default());
        assert!(report.halted[0], "the non-crashed survivor must decide");
        assert!(report.steps_per_process[1] <= 1);
    }

    #[test]
    fn boxed_schedulers_delegate() {
        let procs = ids(3);
        let mut boxed: Box<dyn Scheduler> = Box::new(RoundRobin::new());
        assert_eq!(boxed.name(), "round-robin");
        assert_eq!(boxed.next(&view(&procs, 0)), Some(ProcessId(0)));
        assert_eq!(boxed.next(&view(&procs, 1)), Some(ProcessId(1)));
    }

    #[test]
    fn solo_scheduler_only_runs_its_process() {
        let procs = ids(3);
        let mut s = SoloScheduler::new(ProcessId(2));
        for step in 0..10u64 {
            assert_eq!(s.next(&view(&procs, step)), Some(ProcessId(2)));
        }
        // If the process halts, the schedule ends.
        assert_eq!(s.next(&view(&[ProcessId(0)], 10)), None);
    }

    #[test]
    fn scripted_scheduler_replays_and_skips_halted() {
        let mut s = ScriptedScheduler::new(vec![ProcessId(0), ProcessId(1), ProcessId(0)]);
        let runnable = vec![ProcessId(0)];
        assert_eq!(s.next(&view(&runnable, 0)), Some(ProcessId(0)));
        // ProcessId(1) is not runnable: skipped, moves on to the next entry.
        assert_eq!(s.next(&view(&runnable, 1)), Some(ProcessId(0)));
        assert_eq!(s.next(&view(&runnable, 2)), None);
    }

    #[test]
    fn burst_scheduler_runs_bursts() {
        let procs = ids(4);
        let mut s = BurstScheduler::new(5, 11);
        let picks: Vec<_> = (0..20).map(|i| s.next(&view(&procs, i)).unwrap()).collect();
        for chunk in picks.chunks(5) {
            assert!(
                chunk.iter().all(|p| *p == chunk[0]),
                "burst not contiguous: {chunk:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "burst length must be positive")]
    fn zero_burst_length_is_rejected() {
        let _ = BurstScheduler::new(0, 0);
    }

    #[test]
    fn scheduler_names_are_distinct() {
        let names = [
            RoundRobin::new().name().to_string(),
            RandomScheduler::new(0).name().to_string(),
            ObstructionScheduler::isolated(vec![], 0).name().to_string(),
            SoloScheduler::new(ProcessId(0)).name().to_string(),
            ScriptedScheduler::new(vec![]).name().to_string(),
            BurstScheduler::new(1, 0).name().to_string(),
        ];
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }
}
