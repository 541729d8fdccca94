//! Running automata on real OS threads.
//!
//! The same [`Automaton`] state machines that the deterministic simulator
//! drives can be driven by one OS thread per process against a
//! [`SharedMemory`]. This exercises genuine concurrency (the linearization
//! order is decided by the hardware and the OS scheduler rather than by a
//! simulated adversary), which is how the examples and several benchmarks run
//! the paper's algorithms.
//!
//! Two things differ from the simulator:
//!
//! * Termination is not guaranteed for obstruction-free algorithms when all
//!   `n` threads keep contending — that is the whole point of the paper's
//!   progress condition — so every thread gets a step budget and the report
//!   says who finished. Tests assert *safety* on threaded runs and assert
//!   termination only on runs whose contention pattern satisfies the
//!   m-obstruction hypothesis (e.g. solo runs).
//! * Decisions are collected through a channel, so the report also contains
//!   the wall-clock arrival order of decisions.

use sa_memory::{MemoryMetrics, SharedMemory};
use sa_model::{Automaton, Decision, DecisionSet, MemoryLayout, ProcessId, SplitMix64};
use std::fmt::Debug;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Configuration of a threaded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadedConfig {
    /// Maximum number of shared-memory operations each thread may perform.
    pub max_steps_per_process: u64,
    /// Deterministic seed for everything the run derives pseudo-randomly —
    /// today the thread *spawn order* (a seed-derived permutation, so
    /// different seeds expose different start-up contention patterns and the
    /// same seed always spawns in the same order). Callers that generate
    /// workload inputs pseudo-randomly are expected to derive them from this
    /// same seed, which makes a threaded scenario reproducible *up to
    /// interleaving*: the inputs and spawn order are pinned, only the
    /// hardware's linearization order varies between runs.
    pub seed: u64,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            max_steps_per_process: 1_000_000,
            seed: 0,
        }
    }
}

impl ThreadedConfig {
    /// A config with the given per-thread step budget.
    pub fn with_step_budget(max_steps_per_process: u64) -> Self {
        ThreadedConfig {
            max_steps_per_process,
            ..ThreadedConfig::default()
        }
    }

    /// Sets the deterministic seed (spawn order, caller-derived workloads).
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The seed-derived order in which threads are spawned (a Fisher–Yates
/// shuffle of `0..n`). Seed 0 keeps the natural order so existing callers
/// observe no change.
fn spawn_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if seed != 0 {
        let mut rng = SplitMix64::new(seed);
        for i in (1..n).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
    }
    order
}

/// The result of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedReport {
    /// All decisions, grouped by instance.
    pub decisions: DecisionSet,
    /// Decisions in wall-clock arrival order.
    pub arrival_order: Vec<(ProcessId, Decision)>,
    /// Steps taken by each process.
    pub steps_per_process: Vec<u64>,
    /// Which processes halted (completed all their operations) within budget.
    pub halted: Vec<bool>,
    /// Shared-memory usage metrics.
    pub metrics: MemoryMetrics,
    /// Wall-clock duration of the run (spawn of the first thread to join of
    /// the last).
    pub wall: Duration,
}

impl ThreadedReport {
    /// `true` if every process halted within its budget. Not guaranteed for
    /// obstruction-free algorithms when all `n` threads keep contending —
    /// that is the paper's whole point — so tests assert safety, not this.
    pub fn all_halted(&self) -> bool {
        self.halted.iter().all(|h| *h)
    }

    /// Total shared-memory steps across all threads.
    pub fn total_steps(&self) -> u64 {
        self.steps_per_process.iter().sum()
    }

    /// Aggregate throughput in shared-memory steps per second (0.0 when the
    /// run was too fast for the clock to resolve).
    pub fn steps_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.total_steps() as f64 / secs
        } else {
            0.0
        }
    }
}

/// Runs one OS thread per automaton against a shared memory sized to the
/// union of the automata's layouts.
pub fn run_threaded<A>(automata: Vec<A>, config: ThreadedConfig) -> ThreadedReport
where
    A: Automaton + Send,
    A::Value: Clone + Eq + Debug + Send + Sync,
{
    let layout = automata
        .iter()
        .map(|a| a.layout())
        .fold(MemoryLayout::default(), |acc, l| acc.union(&l));
    let memory = SharedMemory::for_layout(&layout);
    let process_count = automata.len();
    let (tx, rx) = mpsc::channel::<(ProcessId, Decision)>();

    let mut steps_per_process = vec![0u64; process_count];
    let mut halted = vec![false; process_count];
    // Spawn order is a seed-derived permutation; process identities are
    // unaffected (thread i always runs automaton i as ProcessId(i)), only
    // who gets a head start changes — which is exactly the axis a threaded
    // campaign wants to vary across seeds.
    let mut slots: Vec<Option<A>> = automata.into_iter().map(Some).collect();
    let order = spawn_order(process_count, config.seed);
    let start = Instant::now();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(process_count);
        for index in order {
            let mut automaton = slots[index].take().expect("spawn order is a permutation");
            let process = ProcessId(index);
            let memory = &memory;
            let tx = tx.clone();
            let budget = config.max_steps_per_process;
            handles.push(scope.spawn(move || {
                let mut steps = 0u64;
                while steps < budget {
                    let Some(op) = automaton.poised() else {
                        break;
                    };
                    let response = memory.apply(op).unwrap_or_else(|e| {
                        panic!("{process} issued an out-of-layout operation: {e}")
                    });
                    if let Some(decision) = automaton.apply(response) {
                        // The receiver outlives all senders inside the scope.
                        let _ = tx.send((process, decision));
                    }
                    steps += 1;
                }
                (process, steps, automaton.is_halted())
            }));
        }
        drop(tx);
        for handle in handles {
            let (process, steps, done) = handle.join().expect("worker thread panicked");
            steps_per_process[process.index()] = steps;
            halted[process.index()] = done;
        }
    });
    let wall = start.elapsed();

    let mut decisions = DecisionSet::new();
    let mut arrival_order = Vec::new();
    while let Ok((process, decision)) = rx.try_recv() {
        decisions.record(process, decision);
        arrival_order.push((process, decision));
    }

    ThreadedReport {
        decisions,
        arrival_order,
        steps_per_process,
        halted,
        metrics: memory.metrics(),
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{Spinner, ToyWriter};

    #[test]
    fn threaded_writers_all_decide() {
        let automata: Vec<ToyWriter> = (0..4).map(|i| ToyWriter::new(i, i as u64 * 10)).collect();
        let report = run_threaded(automata, ThreadedConfig::default());
        assert!(report.all_halted());
        assert_eq!(report.decisions.deciders(1), 4);
        assert_eq!(report.arrival_order.len(), 4);
        assert_eq!(report.metrics.total_ops(), 8);
    }

    #[test]
    fn step_budget_bounds_spinners() {
        let automata = vec![Spinner::new(0), Spinner::new(0)];
        let report = run_threaded(automata, ThreadedConfig::with_step_budget(50));
        assert!(!report.all_halted());
        assert!(report.steps_per_process.iter().all(|s| *s == 50));
    }

    #[test]
    fn seeded_spawn_order_is_a_deterministic_permutation() {
        for n in [1usize, 2, 5, 8] {
            for seed in [0u64, 1, 42, u64::MAX] {
                let order = spawn_order(n, seed);
                assert_eq!(order, spawn_order(n, seed), "order not deterministic");
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "not a permutation");
            }
        }
        // Seed 0 preserves the natural order; some other seed must not.
        assert_eq!(spawn_order(6, 0), vec![0, 1, 2, 3, 4, 5]);
        assert!(
            (1..50).any(|seed| spawn_order(6, seed) != spawn_order(6, 0)),
            "no seed ever shuffles"
        );
    }

    #[test]
    fn seeded_runs_keep_process_identities_and_report_wall_clock() {
        let automata: Vec<ToyWriter> = (0..4).map(|i| ToyWriter::new(i, i as u64 * 10)).collect();
        let report = run_threaded(automata, ThreadedConfig::default().seeded(7));
        assert!(report.all_halted());
        // Every process took its own two steps regardless of spawn order.
        assert_eq!(report.steps_per_process, vec![2, 2, 2, 2]);
        assert_eq!(report.total_steps(), 8);
        assert!(report.wall > Duration::ZERO);
        assert!(report.steps_per_sec() > 0.0);
    }
}
