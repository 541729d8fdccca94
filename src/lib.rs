//! **set-agreement** — a reproduction of *"On the Space Complexity of Set
//! Agreement"* (Delporte-Gallet, Fauconnier, Kuznetsov, Ruppert — PODC 2015).
//!
//! The paper studies how many multi-writer multi-reader registers are needed
//! to solve `m`-obstruction-free `k`-set agreement among `n` processes, in
//! one-shot and repeated form, with and without process identifiers. This
//! workspace implements:
//!
//! * the paper's three algorithms (Figures 3, 4 and 5) and two baselines —
//!   [`algorithms`],
//! * the asynchronous shared-memory substrate they run on (simulated and
//!   threaded registers and snapshot objects, snapshot-from-register
//!   constructions) — [`memory`],
//! * an execution runtime with adversarial schedulers, property checkers and
//!   a bounded exhaustive explorer — [`runtime`],
//! * the bounds of Figure 1 and executable witnesses of both lower-bound
//!   mechanisms — [`lowerbound`],
//! * a goal-directed adversary search that *finds* covering and block-write
//!   witnesses over schedule space, with a replayable witness format shared
//!   with the hand-built constructions — [`search`],
//! * this facade crate, which re-exports everything and adds the unified
//!   execution API — [`ExecutionPlan`] → [`Executor`] → [`ExecutionReport`]
//!   — used by the examples, benches and the sweep engine, plus the
//!   [`Scenario`] shim kept for the original builder surface.
//!
//! # Execution model
//!
//! An execution has three orthogonal axes:
//!
//! 1. **what** runs — an [`ExecutionPlan`]: parameters, [`Algorithm`],
//!    [`Adversary`], workload and step budget;
//! 2. **how** it runs — a [`Backend`]: the deterministic simulator
//!    (`Scheduled`), real OS threads (`Threaded`), the bounded exhaustive
//!    explorer (`Explore`), its work-stealing counterpart
//!    (`ParallelExplore`, byte-identical results at any thread count), or
//!    the goal-directed adversary search (`AdversarySearch`, also
//!    byte-identical at any thread count);
//! 3. **who fails** — crash failures are part of the *adversary*
//!    ([`Adversary::Crash`]), not a backend, so they compose with any
//!    scheduler.
//!
//! An [`Executor`] binds a backend (any [`ExecutionBackend`] trait object)
//! and turns plans into [`ExecutionReport`]s.
//!
//! # Quickstart
//!
//! ```
//! use set_agreement::{Adversary, Algorithm, Backend, ExecutionPlan, Executor};
//! use set_agreement::model::Params;
//!
//! // 2-obstruction-free 3-set agreement among 8 processes, every process
//! // proposing a distinct value, under the obstruction adversary.
//! let params = Params::new(8, 2, 3)?;
//! let plan = ExecutionPlan::new(params)
//!     .algorithm(Algorithm::OneShot)
//!     .adversary(Adversary::Obstruction {
//!         contention_steps: 200,
//!         survivors: 2,
//!         seed: 42,
//!     });
//! let report = Executor::new(Backend::Scheduled)
//!     .execute(&plan)
//!     .expect_scheduled();
//! assert!(report.safety.is_safe());
//! assert!(report.survivors_decided);
//! # Ok::<(), set_agreement::model::ParamsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use sa_core as algorithms;
pub use sa_lowerbound as lowerbound;
pub use sa_memory as memory;
pub use sa_model as model;
pub use sa_runtime as runtime;
pub use sa_search as search;
pub use sa_serve as serve;

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::{
        Adversary, Algorithm, Backend, ExecutionBackend, ExecutionPlan, ExecutionReport, Executor,
        ExploreReport, Scenario, ScenarioReport, ThreadedRunReport,
    };
    pub use sa_core::{
        AnonymousSetAgreement, FullInfoSetAgreement, OneShotSetAgreement, RepeatedSetAgreement,
        SwmrEmulated, WideBaseline,
    };
    pub use sa_lowerbound::bounds::{Figure1, Naming, Setting};
    pub use sa_memory::MemoryMetrics;
    pub use sa_model::{Automaton, Decision, DecisionSet, Params, ProcessId};
    pub use sa_runtime::{
        check_k_agreement, check_validity, ExploreConfig, InputLog, ObstructionScheduler,
        ParallelExploreConfig, ReductionMode, RoundRobin, RunConfig, Scheduler, SearchConfig,
        SearchGoal, ServeClock, ServeLoad, ServeOptions, SymmetryMode, ThreadedConfig, Workload,
    };
    pub use sa_search::{Certificate, SearchReport, SearchStop, VerifyError, Witness};
    pub use sa_serve::{ServeConfig, ServeReport};
}

pub use sa_runtime::{Backend, SearchConfig, SearchGoal, ServeClock, ServeLoad, ServeOptions};

use sa_core::{
    AnonymousSetAgreement, OneShotSetAgreement, RepeatedSetAgreement, SwmrEmulated, WideBaseline,
};
use sa_memory::MemoryMetrics;
use sa_model::{Automaton, DecisionSet, Params, ProcessId};
use sa_runtime::{
    explore, parallel_explore, run_threaded, BurstScheduler, CrashScheduler,
    Executor as StepExecutor, ExploreConfig, ExploredViolation, InputLog, ObstructionScheduler,
    ParallelExploreConfig, RandomScheduler, RoundRobin, RunConfig, SafetyReport, Scheduler,
    SoloScheduler, StopReason, ThreadedConfig, Workload,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Which algorithm of the paper (or baseline) a [`Scenario`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Figure 3: one-shot, `n + 2m − k` snapshot components.
    OneShot,
    /// Figure 4: repeated, `n + 2m − k` snapshot components. The field is the
    /// number of instances each process proposes in.
    Repeated(usize),
    /// Figure 5 restricted to a single instance (no helper register),
    /// `(m+1)(n−k) + m²` components.
    AnonymousOneShot,
    /// Figure 5: anonymous repeated agreement with the helper register. The
    /// field is the number of instances.
    AnonymousRepeated(usize),
    /// The prior-work baseline \[4\]: Figure 3 over `2(n−k)` components
    /// (requires `n ≥ k + 2m`).
    WideBaseline,
    /// The trivial upper bound: Figure 3 emulated over `n` single-writer
    /// full-information registers.
    FullInformation,
}

impl Algorithm {
    /// Every algorithm variant, with repeated variants running `instances`
    /// instances — the catalog campaign sweeps iterate over.
    pub fn catalog(instances: usize) -> Vec<Algorithm> {
        vec![
            Algorithm::OneShot,
            Algorithm::Repeated(instances),
            Algorithm::AnonymousOneShot,
            Algorithm::AnonymousRepeated(instances),
            Algorithm::WideBaseline,
            Algorithm::FullInformation,
        ]
    }

    /// Parses an algorithm from its [`Algorithm::label`] or a short alias
    /// (`oneshot`, `repeated`, `anon-oneshot`, `anon-repeated`, `wide`,
    /// `fullinfo`); repeated variants run `instances` instances.
    pub fn from_label(label: &str, instances: usize) -> Option<Algorithm> {
        match label {
            "figure3-oneshot" | "oneshot" => Some(Algorithm::OneShot),
            "figure4-repeated" | "repeated" => Some(Algorithm::Repeated(instances)),
            "figure5-anon-oneshot" | "anon-oneshot" => Some(Algorithm::AnonymousOneShot),
            "figure5-anon-repeated" | "anon-repeated" => {
                Some(Algorithm::AnonymousRepeated(instances))
            }
            "baseline-wide" | "wide" => Some(Algorithm::WideBaseline),
            "baseline-fullinfo" | "fullinfo" => Some(Algorithm::FullInformation),
            _ => None,
        }
    }

    /// `true` if this algorithm is defined for `params`. Only
    /// [`Algorithm::WideBaseline`] is restricted: the `2(n−k)` construction
    /// of \[4\] needs `n ≥ k + 2m` so that its width covers the Figure 3
    /// minimum.
    pub fn applicable(&self, params: Params) -> bool {
        match self {
            Algorithm::WideBaseline => params.n() >= params.k() + 2 * params.m(),
            _ => true,
        }
    }

    /// A short identifier used in benchmark and experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::OneShot => "figure3-oneshot",
            Algorithm::Repeated(_) => "figure4-repeated",
            Algorithm::AnonymousOneShot => "figure5-anon-oneshot",
            Algorithm::AnonymousRepeated(_) => "figure5-anon-repeated",
            Algorithm::WideBaseline => "baseline-wide",
            Algorithm::FullInformation => "baseline-fullinfo",
        }
    }

    /// The number of instances of repeated agreement this algorithm runs.
    pub fn instances(&self) -> usize {
        match self {
            Algorithm::Repeated(t) | Algorithm::AnonymousRepeated(t) => (*t).max(1),
            _ => 1,
        }
    }

    /// The register cost of this algorithm for the given parameters, using
    /// the accounting of the paper (Theorems 7, 8 and 11): snapshot objects
    /// wider than `n` are charged `n` registers because they can be
    /// implemented from `n` single-writer registers.
    pub fn register_bound(&self, params: Params) -> usize {
        match self {
            Algorithm::OneShot | Algorithm::Repeated(_) => params.register_upper_bound(),
            Algorithm::AnonymousOneShot => params.anonymous_snapshot_components(),
            Algorithm::AnonymousRepeated(_) => params.anonymous_repeated_registers(),
            Algorithm::WideBaseline => 2 * (params.n() - params.k()),
            Algorithm::FullInformation => params.n(),
        }
    }

    /// Converts a measured footprint (distinct plain registers and snapshot
    /// components written) into the paper's *register* accounting.
    ///
    /// For the non-anonymous snapshot-backed algorithms (Figures 3 and 4) a
    /// snapshot object of any width can be implemented from `n` single-writer
    /// registers, so components are charged `min(components, n)` — this is
    /// exactly how the Figure 1 upper bound `min(n + 2m − k, n)` is obtained.
    /// Anonymous processes cannot own single-writer registers, and the
    /// baselines' bounds are stated without the appeal, so everything else is
    /// charged at face value.
    pub fn register_equivalent(
        &self,
        params: Params,
        registers_written: usize,
        components_written: usize,
    ) -> usize {
        match self {
            Algorithm::OneShot | Algorithm::Repeated(_) => {
                registers_written + components_written.min(params.n())
            }
            _ => registers_written + components_written,
        }
    }

    /// The number of base objects (snapshot components plus plain registers)
    /// the implementation actually declares — the quantity
    /// [`ScenarioReport::locations_written`] is bounded by. It differs from
    /// [`Algorithm::register_bound`] only when `n + 2m − k > n`, where the
    /// register accounting appeals to the `n`-single-writer-register
    /// construction.
    pub fn component_bound(&self, params: Params) -> usize {
        match self {
            Algorithm::OneShot | Algorithm::Repeated(_) => params.snapshot_components(),
            Algorithm::AnonymousOneShot => params.anonymous_snapshot_components(),
            Algorithm::AnonymousRepeated(_) => params.anonymous_repeated_registers(),
            Algorithm::WideBaseline => {
                (2 * (params.n() - params.k())).max(params.snapshot_components())
            }
            Algorithm::FullInformation => params.n(),
        }
    }
}

/// The schedule adversary a [`Scenario`] runs under.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Adversary {
    /// Maximally fair round-robin contention.
    RoundRobin,
    /// Uniformly random scheduling with the given seed.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Heavy contention for `contention_steps`, after which only the first
    /// `survivors` processes keep running — the canonical m-obstruction
    /// schedule when `survivors ≤ m`.
    Obstruction {
        /// Steps of all-process contention before the survivors take over.
        contention_steps: u64,
        /// How many processes keep running afterwards.
        survivors: usize,
        /// RNG seed for the contention phase.
        seed: u64,
    },
    /// Only one process ever runs.
    Solo {
        /// The index of the process that runs.
        process: usize,
    },
    /// Random bursts: one process runs for a geometric burst, then another.
    Bursts {
        /// Expected burst length.
        burst_len: u64,
        /// RNG seed.
        seed: u64,
    },
    /// A crash adversary: schedules like `inner`, but each listed process is
    /// crashed (never scheduled again) once it has taken its configured
    /// number of steps. A crash point of 0 means the process never runs.
    Crash {
        /// The scheduler the crash pattern is layered over.
        inner: Box<Adversary>,
        /// `(process, steps before crash)` pairs; processes absent from the
        /// list never crash.
        crash_after: Vec<(usize, u64)>,
    },
}

impl Adversary {
    /// A short identifier used in benchmark and experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Adversary::RoundRobin => "round-robin",
            Adversary::Random { .. } => "random",
            Adversary::Obstruction { .. } => "obstruction",
            Adversary::Solo { .. } => "solo",
            Adversary::Bursts { .. } => "bursts",
            Adversary::Crash { .. } => "crash",
        }
    }

    /// Builds the scheduler for `n` processes.
    pub fn build(&self, n: usize) -> Box<dyn Scheduler> {
        match self {
            Adversary::RoundRobin => Box::new(RoundRobin::new()),
            Adversary::Random { seed } => Box::new(RandomScheduler::new(*seed)),
            Adversary::Obstruction {
                contention_steps,
                survivors,
                seed,
            } => {
                let survivors: Vec<ProcessId> = (0..(*survivors).min(n)).map(ProcessId).collect();
                Box::new(ObstructionScheduler::new(
                    *contention_steps,
                    survivors,
                    *seed,
                ))
            }
            Adversary::Solo { process } => Box::new(SoloScheduler::new(ProcessId(*process % n))),
            Adversary::Bursts { burst_len, seed } => {
                Box::new(BurstScheduler::new(*burst_len, *seed))
            }
            Adversary::Crash { inner, crash_after } => {
                let crash_after: BTreeMap<ProcessId, u64> = crash_after
                    .iter()
                    .map(|(p, steps)| (ProcessId(p % n), *steps))
                    .collect();
                Box::new(CrashScheduler::new(inner.build(n), crash_after))
            }
        }
    }

    /// The processes that the progress condition obliges to decide under this
    /// adversary (those that keep taking steps forever).
    pub fn obligated(&self, n: usize) -> Vec<ProcessId> {
        match self {
            Adversary::Obstruction { survivors, .. } => {
                (0..(*survivors).min(n)).map(ProcessId).collect()
            }
            Adversary::Solo { process } => vec![ProcessId(*process % n)],
            // A crashed process stops taking steps eventually, so the
            // progress condition never obliges it — only the inner
            // adversary's survivors that never crash are on the hook.
            Adversary::Crash { inner, crash_after } => {
                let crashed: BTreeSet<usize> = crash_after.iter().map(|(p, _)| p % n).collect();
                inner
                    .obligated(n)
                    .into_iter()
                    .filter(|p| !crashed.contains(&p.index()))
                    .collect()
            }
            _ => Vec::new(),
        }
    }
}

/// The result of running a [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The parameters the scenario ran with.
    pub params: Params,
    /// The algorithm that ran.
    pub algorithm: Algorithm,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Steps executed.
    pub steps: u64,
    /// All decisions, grouped by instance.
    pub decisions: DecisionSet,
    /// Validity and k-agreement evaluated over the run.
    pub safety: SafetyReport,
    /// `true` if every process the adversary kept scheduling forever decided
    /// every instance it was configured to run.
    pub survivors_decided: bool,
    /// Shared-memory usage metrics.
    pub metrics: MemoryMetrics,
    /// The number of distinct base objects (registers or snapshot
    /// components) actually written during the run.
    pub locations_written: usize,
}

impl ScenarioReport {
    /// The number of distinct values decided in `instance`.
    pub fn distinct_outputs(&self, instance: u64) -> usize {
        self.decisions.distinct_outputs(instance)
    }
}

/// The result of exhaustively exploring a [`Scenario`]'s interleavings with
/// [`Scenario::explore`].
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// The parameters the scenario ran with.
    pub params: Params,
    /// The algorithm explored.
    pub algorithm: Algorithm,
    /// Reachable states visited.
    pub states_visited: u64,
    /// Maximal paths examined.
    pub paths: u64,
    /// The deepest schedule prefix (in steps) the search examined; with
    /// dedup this is the longest non-revisiting path, which can be far
    /// below the depth budget even when the state space is exhausted.
    pub max_depth_reached: u64,
    /// `true` if the search hit a depth or state budget before exhausting
    /// the reachable state space.
    pub truncated: bool,
    /// The first safety violation found, with its witnessing schedule.
    pub violation: Option<ExploredViolation>,
    /// `false` if the violation (if any) was a validity violation.
    pub validity_ok: bool,
    /// `false` if the violation (if any) was a k-agreement violation.
    pub agreement_ok: bool,
    /// Maximum distinct base objects written in any reachable state.
    pub max_locations_written: usize,
    /// Maximum distinct plain registers written in any reachable state.
    pub max_registers_written: usize,
    /// Maximum distinct snapshot components written in any reachable state
    /// (tracked per state, not derived from the other two maxima — they may
    /// be attained in different states).
    pub max_components_written: usize,
    /// Worker threads the exploration ran on (0 = the serial explorer).
    /// Everything else in the report is independent of this value:
    /// [`Backend::ParallelExplore`] results are byte-identical at any
    /// thread count.
    pub threads: usize,
    /// Peak size of the frontier of states awaiting expansion (the deepest
    /// DFS stack for the serial explorer, the widest BFS level for the
    /// parallel one).
    pub frontier_peak: u64,
    /// Entries held by the dedup seen-set when the search stopped.
    pub seen_entries: u64,
    /// Rough, deterministic estimate of the bytes held by the explorer's
    /// data structures at their peak (see
    /// [`Exploration::approx_bytes`](sa_runtime::Exploration)).
    pub approx_bytes: u64,
    /// `true` if the search deduplicated up to process-id symmetry:
    /// [`SymmetryMode::ProcessIds`](sa_runtime::SymmetryMode) was requested
    /// **and** every automaton opted in via its
    /// [`symmetry_class`](sa_model::Automaton::symmetry_class). `false`
    /// covers both "not requested" and "requested but fell back" (e.g. the
    /// single-writer emulation, whose register addresses are process ids).
    pub symmetry_applied: bool,
    /// Orbit representatives visited. This always equals
    /// [`states_visited`](ExploreReport::states_visited) — with symmetry
    /// applied the visited states *are* one representative per explored
    /// orbit; without it every state is its own orbit — and is carried
    /// separately so symmetry-enabled records are self-describing.
    pub orbit_states: u64,
    /// A lower bound on the number of distinct reachable configurations the
    /// visited states represent (see
    /// [`Exploration::full_states_lower_bound`](sa_runtime::Exploration)).
    /// `full_states_lower_bound / orbit_states` is the reduction factor the
    /// quotient achieved; 1x without symmetry.
    pub full_states_lower_bound: u64,
    /// `true` if the search ran the persistent-set DPOR explorer:
    /// [`ReductionMode::PersistentSets`](sa_runtime::ReductionMode) was
    /// requested **and** the explorer could honor it (the serial explorer,
    /// dedup on, at most 64 processes). The parallel explorer never
    /// reduces, so it always reports `false`.
    pub reduction_applied: bool,
    /// Successor expansions the search performed (state × enabled-process
    /// pairs actually stepped). Without reduction this is the raw edge
    /// count of the explored graph.
    pub expansions: u64,
    /// Expansions the DPOR explorer skipped because a sleeping sibling
    /// order was provably commuting (0 without reduction).
    pub sleep_pruned: u64,
    /// Expansions the DPOR explorer drew from persistent/backtrack sets
    /// (0 without reduction).
    pub persistent_expanded: u64,
    /// Enabled transitions persistent-set selection left permanently
    /// unexpanded — roots of subtrees proven redundant (0 without
    /// reduction). This cut removes *states*, so `states_visited` shrinks
    /// with it.
    pub states_cut: u64,
}

impl ExploreReport {
    /// `true` if the safety properties hold in **every** reachable
    /// configuration within the bounds — no violation found and the state
    /// space was exhausted, not truncated.
    ///
    /// Dedup keys are collision-resistant 128-bit hashes of the full
    /// canonical state (see
    /// [`Exploration::verified`](sa_runtime::Exploration::verified) for the
    /// precise guarantee), so this claim does not rest on a 64-bit hash
    /// never colliding.
    pub fn verified(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }

    /// `true` if no violation was found (weaker than [`verified`]: the
    /// search may have been truncated).
    ///
    /// [`verified`]: ExploreReport::verified
    pub fn safe(&self) -> bool {
        self.validity_ok && self.agreement_ok
    }
}

/// The result of running an [`ExecutionPlan`] on [`Backend::Threaded`]:
/// the same automata driven by one OS thread per process against the
/// lock-based shared memory.
///
/// Unlike a [`ScenarioReport`], nothing here is deterministic beyond the
/// inputs: the hardware decides the linearization order, so consumers
/// assert *safety counters* (validity, k-agreement, space bounds), never
/// step traces. Given the same [`ThreadedConfig::seed`] the run is
/// reproducible **up to interleaving** — inputs and spawn order are pinned.
#[derive(Debug, Clone)]
pub struct ThreadedRunReport {
    /// The parameters the plan ran with.
    pub params: Params,
    /// The algorithm that ran.
    pub algorithm: Algorithm,
    /// The threaded configuration (per-thread budget, stagger, seed).
    pub config: ThreadedConfig,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Total shared-memory steps across all threads.
    pub steps: u64,
    /// Steps taken by each process.
    pub steps_per_process: Vec<u64>,
    /// Which processes halted (completed all their operations) in budget.
    pub halted: Vec<bool>,
    /// All decisions, grouped by instance.
    pub decisions: DecisionSet,
    /// Decisions in wall-clock arrival order — the only ordering evidence a
    /// threaded run yields (e.g. that each process decides its repeated
    /// instances in instance order).
    pub arrival_order: Vec<(ProcessId, model::Decision)>,
    /// Validity and k-agreement evaluated over the run.
    pub safety: SafetyReport,
    /// Shared-memory usage metrics.
    pub metrics: MemoryMetrics,
    /// Distinct base objects (registers or snapshot components) written.
    pub locations_written: usize,
}

impl ThreadedRunReport {
    /// `true` if every process halted within its budget. Not guaranteed for
    /// obstruction-free algorithms when all `n` threads keep contending —
    /// that is the paper's whole point — so tests assert safety, not this.
    pub fn all_halted(&self) -> bool {
        self.halted.iter().all(|h| *h)
    }

    /// Aggregate throughput in shared-memory steps per second (0.0 when the
    /// run was too fast for the clock to resolve).
    pub fn steps_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.steps as f64 / secs
        } else {
            0.0
        }
    }
}

/// The result of executing an [`ExecutionPlan`] — one variant per
/// [`Backend`], with backend-agnostic accessors for the fields campaigns
/// aggregate.
#[derive(Debug, Clone)]
pub enum ExecutionReport {
    /// A [`Backend::Scheduled`] run.
    Scheduled(ScenarioReport),
    /// A [`Backend::Threaded`] run.
    Threaded(ThreadedRunReport),
    /// A [`Backend::Explore`] exhaustive exploration.
    Explored(ExploreReport),
    /// A [`Backend::Serve`] service run (boxed: the report carries the
    /// full decided-value log and latency histogram).
    Served(Box<sa_serve::ServeReport>),
    /// A [`Backend::AdversarySearch`] goal-directed search (boxed: the
    /// report carries the full witness, schedule included).
    Searched(Box<sa_search::SearchReport>),
}

impl ExecutionReport {
    /// The label of the backend that produced this report.
    pub fn backend_label(&self) -> &'static str {
        match self {
            ExecutionReport::Scheduled(_) => "scheduled",
            ExecutionReport::Threaded(_) => "threaded",
            ExecutionReport::Explored(r) if r.threads > 0 => "parallel-explore",
            ExecutionReport::Explored(_) => "explore",
            ExecutionReport::Served(_) => "serve",
            ExecutionReport::Searched(_) => "adversary-search",
        }
    }

    /// `true` if validity and k-agreement held (for explorations: in every
    /// configuration the search reached; for service runs: in every batch).
    pub fn safe(&self) -> bool {
        match self {
            ExecutionReport::Scheduled(r) => r.safety.is_safe(),
            ExecutionReport::Threaded(r) => r.safety.is_safe(),
            ExecutionReport::Explored(r) => r.safe(),
            ExecutionReport::Served(r) => r.safety_violations() == 0,
            // A search hunts structure, not violations: the only thing
            // that can go wrong is its witness failing to replay.
            ExecutionReport::Searched(r) => r.verified,
        }
    }

    /// Steps executed (0 for explorations, which count states instead).
    pub fn steps(&self) -> u64 {
        match self {
            ExecutionReport::Scheduled(r) => r.steps,
            ExecutionReport::Threaded(r) => r.steps,
            ExecutionReport::Explored(_) => 0,
            ExecutionReport::Served(r) => r.steps,
            ExecutionReport::Searched(_) => 0,
        }
    }

    /// Distinct base objects written (for explorations: the maximum over
    /// all reachable states; for searches: the witness's `written ∪
    /// covered` count; 0 for service runs, whose instances each use
    /// private short-lived memory).
    pub fn locations_written(&self) -> usize {
        match self {
            ExecutionReport::Scheduled(r) => r.locations_written,
            ExecutionReport::Threaded(r) => r.locations_written,
            ExecutionReport::Explored(r) => r.max_locations_written,
            ExecutionReport::Served(_) => 0,
            ExecutionReport::Searched(r) => {
                r.witness.as_ref().map_or(0, |w| w.certificate.registers)
            }
        }
    }

    /// The scheduled report, if this was a [`Backend::Scheduled`] run.
    pub fn as_scheduled(&self) -> Option<&ScenarioReport> {
        match self {
            ExecutionReport::Scheduled(r) => Some(r),
            _ => None,
        }
    }

    /// The threaded report, if this was a [`Backend::Threaded`] run.
    pub fn as_threaded(&self) -> Option<&ThreadedRunReport> {
        match self {
            ExecutionReport::Threaded(r) => Some(r),
            _ => None,
        }
    }

    /// The exploration report, if this was a [`Backend::Explore`] run.
    pub fn as_explored(&self) -> Option<&ExploreReport> {
        match self {
            ExecutionReport::Explored(r) => Some(r),
            _ => None,
        }
    }

    /// The service report, if this was a [`Backend::Serve`] run.
    pub fn as_served(&self) -> Option<&sa_serve::ServeReport> {
        match self {
            ExecutionReport::Served(r) => Some(r),
            _ => None,
        }
    }

    /// The search report, if this was a [`Backend::AdversarySearch`] run.
    pub fn as_searched(&self) -> Option<&sa_search::SearchReport> {
        match self {
            ExecutionReport::Searched(r) => Some(r),
            _ => None,
        }
    }

    /// Unwraps a [`Backend::Scheduled`] report.
    ///
    /// # Panics
    ///
    /// Panics if another backend produced this report.
    pub fn expect_scheduled(self) -> ScenarioReport {
        match self {
            ExecutionReport::Scheduled(r) => r,
            other => panic!(
                "expected a scheduled report, got {:?}",
                other.backend_label()
            ),
        }
    }

    /// Unwraps a [`Backend::Threaded`] report.
    ///
    /// # Panics
    ///
    /// Panics if another backend produced this report.
    pub fn expect_threaded(self) -> ThreadedRunReport {
        match self {
            ExecutionReport::Threaded(r) => r,
            other => panic!(
                "expected a threaded report, got {:?}",
                other.backend_label()
            ),
        }
    }

    /// Unwraps a [`Backend::Explore`] report.
    ///
    /// # Panics
    ///
    /// Panics if another backend produced this report.
    pub fn expect_explored(self) -> ExploreReport {
        match self {
            ExecutionReport::Explored(r) => r,
            other => panic!(
                "expected an exploration report, got {:?}",
                other.backend_label()
            ),
        }
    }

    /// Unwraps a [`Backend::Serve`] report.
    ///
    /// # Panics
    ///
    /// Panics if another backend produced this report.
    pub fn expect_served(self) -> sa_serve::ServeReport {
        match self {
            ExecutionReport::Served(r) => *r,
            other => panic!("expected a service report, got {:?}", other.backend_label()),
        }
    }

    /// Unwraps a [`Backend::AdversarySearch`] report.
    ///
    /// # Panics
    ///
    /// Panics if another backend produced this report.
    pub fn expect_searched(self) -> sa_search::SearchReport {
        match self {
            ExecutionReport::Searched(r) => *r,
            other => panic!("expected a search report, got {:?}", other.backend_label()),
        }
    }
}

/// A declarative description of **what** to execute: parameters, algorithm,
/// workload, adversary and step budget. **How** it executes is the
/// [`Executor`]'s backend, so the same plan can be simulated, run on real
/// threads, or exhaustively explored without being rebuilt.
///
/// Backends ignore the parts of the plan that do not apply to them: the
/// threaded backend lets the hardware schedule (the adversary is unused),
/// and the explorer quantifies over *all* schedules (adversary unused) with
/// `max_steps` reinterpreted by [`ExploreConfig`]'s own budgets.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    params: Params,
    algorithm: Algorithm,
    adversary: Adversary,
    workload: Option<Workload>,
    max_steps: u64,
}

impl ExecutionPlan {
    /// Creates a plan with the default algorithm (Figure 3 one-shot), a
    /// round-robin adversary, an all-distinct workload and a one-million-step
    /// budget.
    pub fn new(params: Params) -> Self {
        ExecutionPlan {
            params,
            algorithm: Algorithm::OneShot,
            adversary: Adversary::RoundRobin,
            workload: None,
            max_steps: 1_000_000,
        }
    }

    /// Selects the algorithm to run.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the adversary schedule (used by [`Backend::Scheduled`] only).
    pub fn adversary(mut self, adversary: Adversary) -> Self {
        self.adversary = adversary;
        self
    }

    /// Supplies an explicit workload (inputs per process and instance). The
    /// default is [`Workload::all_distinct`].
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Sets the step budget ([`Backend::Scheduled`]; the other backends
    /// carry their own budgets in their configs).
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// The parameters of this plan.
    pub fn params(&self) -> Params {
        self.params
    }

    /// The algorithm this plan runs.
    pub fn algorithm_selected(&self) -> Algorithm {
        self.algorithm
    }

    /// The adversary this plan schedules under ([`Backend::Scheduled`]).
    pub fn adversary_selected(&self) -> &Adversary {
        &self.adversary
    }

    /// Executes this plan on `backend` — shorthand for
    /// `Executor::new(backend).execute(&plan)`.
    pub fn execute(&self, backend: Backend) -> ExecutionReport {
        Executor::new(backend).execute(self)
    }

    fn effective_workload(&self) -> Workload {
        self.workload
            .clone()
            .unwrap_or_else(|| Workload::all_distinct(self.params.n(), self.algorithm.instances()))
    }

    /// Builds the automata for the configured algorithm and hands them to
    /// `driver` — the single place where the algorithm dispatch happens, so
    /// every backend constructs identical systems.
    fn with_automata<D: AutomataDriver>(&self, driver: D) -> D::Output {
        let params = self.params;
        let workload = self.effective_workload();
        let instances = self.algorithm.instances();
        match self.algorithm {
            Algorithm::OneShot => driver.drive(
                self,
                (0..params.n())
                    .map(|p| OneShotSetAgreement::new(params, ProcessId(p), workload.input(p, 1)))
                    .collect(),
                &workload,
            ),
            Algorithm::Repeated(_) => driver.drive(
                self,
                (0..params.n())
                    .map(|p| {
                        let inputs = (1..=instances as u64)
                            .map(|t| workload.input(p, t))
                            .collect();
                        RepeatedSetAgreement::new(params, ProcessId(p), inputs)
                            .expect("inputs are non-empty and ids are in range")
                    })
                    .collect(),
                &workload,
            ),
            Algorithm::AnonymousOneShot => driver.drive(
                self,
                (0..params.n())
                    .map(|p| AnonymousSetAgreement::one_shot(params, workload.input(p, 1)))
                    .collect(),
                &workload,
            ),
            Algorithm::AnonymousRepeated(_) => driver.drive(
                self,
                (0..params.n())
                    .map(|p| {
                        let inputs = (1..=instances as u64)
                            .map(|t| workload.input(p, t))
                            .collect();
                        AnonymousSetAgreement::repeated(params, inputs)
                            .expect("inputs are non-empty")
                    })
                    .collect(),
                &workload,
            ),
            Algorithm::WideBaseline => driver.drive(
                self,
                (0..params.n())
                    .map(|p| {
                        WideBaseline::new(params, ProcessId(p), workload.input(p, 1))
                            .expect("WideBaseline requires n >= k + 2m; check before selecting it")
                    })
                    .collect(),
                &workload,
            ),
            Algorithm::FullInformation => driver.drive(
                self,
                (0..params.n())
                    .map(|p| {
                        SwmrEmulated::<OneShotSetAgreement>::one_shot(
                            params,
                            ProcessId(p),
                            workload.input(p, 1),
                        )
                    })
                    .collect(),
                &workload,
            ),
        }
    }

    /// One sampled execution under the plan's adversary on the
    /// deterministic simulator.
    fn run_scheduled<A>(&self, automata: Vec<A>, workload: &Workload) -> ScenarioReport
    where
        A: Automaton + Clone + Debug + Hash,
        A::Value: Clone + Eq + Debug + Hash,
    {
        let mut executor = StepExecutor::new(automata);
        let mut scheduler = self.adversary.build(self.params.n());
        let report = executor.run(&mut *scheduler, RunConfig::with_max_steps(self.max_steps));

        let mut inputs = InputLog::new();
        inputs.record_matrix(workload.matrix());
        let safety = SafetyReport::evaluate(self.params.k(), &inputs, &report.decisions);

        let obligated = self.adversary.obligated(self.params.n());
        let survivors_decided = obligated
            .iter()
            .all(|p| report.halted.get(p.index()).copied().unwrap_or(false));

        ScenarioReport {
            params: self.params,
            algorithm: self.algorithm,
            stop: report.stop,
            steps: report.steps,
            locations_written: report.metrics.distinct_locations_written(),
            decisions: report.decisions,
            safety,
            survivors_decided,
            metrics: report.metrics,
        }
    }

    /// One execution on real OS threads: the hardware linearizes, the
    /// adversary is unused, and the report carries wall-clock throughput.
    fn run_on_threads<A>(
        &self,
        automata: Vec<A>,
        workload: &Workload,
        config: ThreadedConfig,
    ) -> ThreadedRunReport
    where
        A: Automaton + Send,
        A::Value: Clone + Eq + Debug + Send + Sync,
    {
        let start = Instant::now();
        let report = run_threaded(automata, config);
        // Prefer the runtime's own measurement but never report a zero wall
        // clock for a run that visibly took time.
        let wall = if report.wall > Duration::ZERO {
            report.wall
        } else {
            start.elapsed()
        };

        let mut inputs = InputLog::new();
        inputs.record_matrix(workload.matrix());
        let safety = SafetyReport::evaluate(self.params.k(), &inputs, &report.decisions);

        ThreadedRunReport {
            params: self.params,
            algorithm: self.algorithm,
            config,
            wall,
            steps: report.total_steps(),
            steps_per_process: report.steps_per_process,
            halted: report.halted,
            locations_written: report.metrics.distinct_locations_written(),
            decisions: report.decisions,
            arrival_order: report.arrival_order,
            safety,
            metrics: report.metrics,
        }
    }

    /// Bounded exhaustive exploration of every interleaving, checking
    /// validity and k-agreement in each reachable configuration.
    fn run_exploration<A>(
        &self,
        automata: Vec<A>,
        workload: &Workload,
        config: ExploreConfig,
    ) -> ExploreReport
    where
        A: Automaton + Clone + Debug + Hash,
        A::Value: Clone + Eq + Debug + Hash,
    {
        let executor = StepExecutor::new(automata);
        let probe = SafetyProbe::new(self.params.k(), workload);
        let result = explore(&executor, config, |exec| probe.check(exec));
        self.explore_report(result, probe, 0)
    }

    /// Bounded exhaustive exploration on the work-stealing worker pool —
    /// the same check as `run_exploration`, byte-identical at any thread
    /// count.
    fn run_parallel_exploration<A>(
        &self,
        automata: Vec<A>,
        workload: &Workload,
        config: ParallelExploreConfig,
    ) -> ExploreReport
    where
        A: Automaton + Clone + Debug + Hash + Send + Sync,
        A::Value: Clone + Eq + Debug + Hash + Send + Sync,
    {
        let executor = StepExecutor::new(automata);
        let probe = SafetyProbe::new(self.params.k(), workload);
        let result = parallel_explore(&executor, config, |exec| probe.check(exec));
        self.explore_report(result, probe, config.effective_threads())
    }

    /// Goal-directed adversary search over the same schedule space the
    /// explorers cover, hunting lower-bound witness structure instead of
    /// safety violations.
    fn run_search<A>(&self, automata: Vec<A>, config: SearchConfig) -> sa_search::SearchReport
    where
        A: Automaton + Clone + Hash + Send + Sync,
        A::Value: Clone + Eq + Debug + Hash + Send + Sync,
    {
        let executor = StepExecutor::new(automata);
        sa_search::search(&executor, config)
    }

    fn explore_report(
        &self,
        result: sa_runtime::Exploration,
        probe: SafetyProbe,
        threads: usize,
    ) -> ExploreReport {
        ExploreReport {
            params: self.params,
            algorithm: self.algorithm,
            states_visited: result.states_visited,
            paths: result.paths,
            max_depth_reached: result.max_depth_reached,
            truncated: result.truncated,
            violation: result.violation,
            validity_ok: !probe.violated_validity.into_inner(),
            agreement_ok: !probe.violated_agreement.into_inner(),
            max_locations_written: probe.max_locations.into_inner(),
            max_registers_written: probe.max_registers.into_inner(),
            max_components_written: probe.max_components.into_inner(),
            threads,
            frontier_peak: result.frontier_peak,
            seen_entries: result.seen_entries,
            approx_bytes: result.approx_bytes,
            symmetry_applied: result.symmetry_applied,
            orbit_states: result.states_visited,
            full_states_lower_bound: result.full_states_lower_bound,
            reduction_applied: result.reduction_applied,
            expansions: result.expansions,
            sleep_pruned: result.sleep_pruned,
            persistent_expanded: result.persistent_expanded,
            states_cut: result.states_cut,
        }
    }
}

/// The per-state safety check both explorers run: validity and k-agreement,
/// plus running maxima of the space actually used. Interior mutability
/// (atomics) lets the parallel explorer's workers share one probe; the
/// maxima and flags are monotone, so the accumulated result is independent
/// of evaluation order.
struct SafetyProbe {
    k: usize,
    /// Validity: anything decided in instance t must have been proposed
    /// by some process in instance t.
    allowed: BTreeMap<u64, BTreeSet<u64>>,
    max_locations: AtomicUsize,
    max_registers: AtomicUsize,
    max_components: AtomicUsize,
    violated_validity: AtomicBool,
    violated_agreement: AtomicBool,
}

impl SafetyProbe {
    fn new(k: usize, workload: &Workload) -> Self {
        let mut allowed: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        for p in 0..workload.processes() {
            for (i, value) in workload.sequence(p).iter().enumerate() {
                allowed.entry(i as u64 + 1).or_default().insert(*value);
            }
        }
        SafetyProbe {
            k,
            allowed,
            max_locations: AtomicUsize::new(0),
            max_registers: AtomicUsize::new(0),
            max_components: AtomicUsize::new(0),
            violated_validity: AtomicBool::new(false),
            violated_agreement: AtomicBool::new(false),
        }
    }

    fn check<A>(&self, exec: &StepExecutor<A>) -> Option<String>
    where
        A: Automaton,
        A::Value: Clone + Eq + Debug,
    {
        let metrics = exec.memory().metrics();
        let locations = metrics.distinct_locations_written();
        let registers = metrics.registers_written();
        self.max_locations.fetch_max(locations, Ordering::Relaxed);
        self.max_registers.fetch_max(registers, Ordering::Relaxed);
        self.max_components
            .fetch_max(locations - registers, Ordering::Relaxed);
        for instance in exec.decisions().instances() {
            let outputs = exec.decisions().outputs(instance);
            if let Some(bad) = outputs
                .iter()
                .find(|v| !self.allowed.get(&instance).is_some_and(|a| a.contains(v)))
            {
                self.violated_validity.store(true, Ordering::Relaxed);
                return Some(format!(
                    "instance {instance} decided {bad}, which nobody proposed"
                ));
            }
            if outputs.len() > self.k {
                self.violated_agreement.store(true, Ordering::Relaxed);
                return Some(format!(
                    "instance {instance} has {} distinct outputs {outputs:?}, \
                     exceeding k = {}",
                    outputs.len(),
                    self.k
                ));
            }
        }
        None
    }
}

/// An execution backend behind object-safe dispatch: anything that can turn
/// an [`ExecutionPlan`] into an [`ExecutionReport`].
///
/// The built-in implementation is the [`Backend`] enum itself — an
/// [`Executor`] is "the `Backend` enum behind one trait object". Downstream
/// code can implement this trait to plug in custom backends (e.g. a
/// distributed or work-stealing executor) and run unchanged plans through
/// [`Executor::with_backend`].
pub trait ExecutionBackend: Debug {
    /// A short identifier used in records and reports.
    fn label(&self) -> &'static str;

    /// Executes the plan.
    fn execute(&self, plan: &ExecutionPlan) -> ExecutionReport;
}

impl ExecutionBackend for Backend {
    fn label(&self) -> &'static str {
        Backend::label(self)
    }

    fn execute(&self, plan: &ExecutionPlan) -> ExecutionReport {
        if let Backend::Serve(options) = self {
            // The service builds its own automata, one fresh Figure 4
            // instance per batch, so it bypasses the plan's automata
            // construction; the plan contributes the cell (m, k) and the
            // per-batch step budget.
            let config = sa_serve::ServeConfig {
                m: plan.params.m(),
                k: plan.params.k(),
                options: *options,
                max_steps_per_batch: plan.max_steps,
            };
            return ExecutionReport::Served(Box::new(sa_serve::serve(&config)));
        }
        plan.with_automata(BackendDriver { backend: self })
    }
}

/// Executes [`ExecutionPlan`]s on a fixed backend.
///
/// This is the single execution surface of the workspace: the examples, the
/// bench binaries and the sweep engine all run through it, so an execution
/// differs between a campaign and a one-off test only in *what* plan it was
/// given, never in how the system was assembled.
#[derive(Debug)]
pub struct Executor {
    backend: Box<dyn ExecutionBackend>,
}

impl Executor {
    /// An executor for one of the built-in [`Backend`]s.
    pub fn new(backend: Backend) -> Self {
        Executor::with_backend(Box::new(backend))
    }

    /// An executor for the deterministic simulator.
    pub fn scheduled() -> Self {
        Executor::new(Backend::Scheduled)
    }

    /// An executor running one OS thread per process.
    pub fn threaded(config: ThreadedConfig) -> Self {
        Executor::new(Backend::Threaded(config))
    }

    /// An executor that exhaustively explores every interleaving.
    pub fn exploring(config: ExploreConfig) -> Self {
        Executor::new(Backend::Explore(config))
    }

    /// An executor that exhaustively explores every interleaving on a
    /// work-stealing worker pool, with byte-identical results at any
    /// thread count.
    pub fn exploring_parallel(config: ParallelExploreConfig) -> Self {
        Executor::new(Backend::ParallelExplore(config))
    }

    /// An executor running the batched, sharded agreement service under an
    /// open-loop load generator (see the `sa-serve` crate).
    pub fn serving(options: ServeOptions) -> Self {
        Executor::new(Backend::Serve(options))
    }

    /// An executor running the goal-directed adversary search for
    /// lower-bound witnesses (see the `sa-search` crate), with
    /// byte-identical results at any thread count.
    pub fn searching(config: SearchConfig) -> Self {
        Executor::new(Backend::AdversarySearch(config))
    }

    /// An executor for a custom [`ExecutionBackend`] trait object.
    pub fn with_backend(backend: Box<dyn ExecutionBackend>) -> Self {
        Executor { backend }
    }

    /// The label of this executor's backend.
    pub fn label(&self) -> &'static str {
        self.backend.label()
    }

    /// Executes a plan on this executor's backend.
    pub fn execute(&self, plan: &ExecutionPlan) -> ExecutionReport {
        self.backend.execute(plan)
    }
}

/// Rank-2 dispatch over the algorithm's concrete automaton type: the
/// [`ExecutionPlan::with_automata`] match instantiates `drive` once per
/// algorithm, so every consumer of a built system is written once,
/// generically.
trait AutomataDriver {
    /// What the driver produces.
    type Output;

    /// Consumes the constructed automata.
    fn drive<A>(self, plan: &ExecutionPlan, automata: Vec<A>, workload: &Workload) -> Self::Output
    where
        A: Automaton + Clone + Debug + Hash + Send + Sync,
        A::Value: Clone + Eq + Debug + Hash + Send + Sync;
}

/// The one driver behind every backend: dispatches the constructed system
/// to the simulator, the thread pool or the explorer. This replaces the
/// former separate `RunDriver`/`ExploreDriver` pair, so adding a backend
/// touches exactly this match.
struct BackendDriver<'a> {
    backend: &'a Backend,
}

impl AutomataDriver for BackendDriver<'_> {
    type Output = ExecutionReport;

    fn drive<A>(
        self,
        plan: &ExecutionPlan,
        automata: Vec<A>,
        workload: &Workload,
    ) -> ExecutionReport
    where
        A: Automaton + Clone + Debug + Hash + Send + Sync,
        A::Value: Clone + Eq + Debug + Hash + Send + Sync,
    {
        match self.backend {
            Backend::Scheduled => {
                ExecutionReport::Scheduled(plan.run_scheduled(automata, workload))
            }
            Backend::Threaded(config) => {
                ExecutionReport::Threaded(plan.run_on_threads(automata, workload, *config))
            }
            Backend::Explore(config) => {
                ExecutionReport::Explored(plan.run_exploration(automata, workload, *config))
            }
            Backend::ParallelExplore(config) => ExecutionReport::Explored(
                plan.run_parallel_exploration(automata, workload, *config),
            ),
            Backend::AdversarySearch(config) => {
                ExecutionReport::Searched(Box::new(plan.run_search(automata, *config)))
            }
            // Serve runs are intercepted before automata construction in
            // `<Backend as ExecutionBackend>::execute`.
            Backend::Serve(_) => unreachable!("serve dispatches before automata construction"),
        }
    }
}

/// Replays a [`Witness`](sa_search::Witness) against the initial
/// configuration of `plan` through the shared replay verifier — the path
/// `sweep verify` and the campaign engine use, so hand-built, machine-found
/// and persisted witnesses are all checked identically.
///
/// The plan contributes exactly what the search did: parameters, algorithm
/// and workload. Its adversary, step budget and backend are irrelevant — a
/// witness carries its own schedule.
pub fn verify_witness(
    plan: &ExecutionPlan,
    witness: &sa_search::Witness,
) -> Result<sa_search::Certificate, sa_search::VerifyError> {
    plan.with_automata(VerifyDriver { witness })
}

/// Rank-2 driver behind [`verify_witness`]: rebuilds the plan's initial
/// configuration and hands it to `sa_search::verify`.
struct VerifyDriver<'a> {
    witness: &'a sa_search::Witness,
}

impl AutomataDriver for VerifyDriver<'_> {
    type Output = Result<sa_search::Certificate, sa_search::VerifyError>;

    fn drive<A>(self, _plan: &ExecutionPlan, automata: Vec<A>, _workload: &Workload) -> Self::Output
    where
        A: Automaton + Clone + Debug + Hash + Send + Sync,
        A::Value: Clone + Eq + Debug + Hash + Send + Sync,
    {
        let executor = StepExecutor::new(automata);
        sa_search::verify(&executor, self.witness)
    }
}

/// The original builder surface, kept as a **thin shim** over the unified
/// [`ExecutionPlan`] → [`Executor`] → [`ExecutionReport`] API.
///
/// [`Scenario::run`] is `Executor::scheduled().execute(&plan)` and
/// [`Scenario::explore`] is `Executor::exploring(config).execute(&plan)`,
/// nothing more; new code (and anything that wants the threaded backend)
/// should hold an [`ExecutionPlan`] directly.
#[derive(Debug, Clone)]
pub struct Scenario {
    plan: ExecutionPlan,
}

impl Scenario {
    /// Creates a scenario with the default algorithm (Figure 3 one-shot), a
    /// round-robin adversary, an all-distinct workload and a one-million-step
    /// budget.
    pub fn new(params: Params) -> Self {
        Scenario {
            plan: ExecutionPlan::new(params),
        }
    }

    /// Selects the algorithm to run.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.plan = self.plan.algorithm(algorithm);
        self
    }

    /// Selects the adversary schedule.
    pub fn adversary(mut self, adversary: Adversary) -> Self {
        self.plan = self.plan.adversary(adversary);
        self
    }

    /// Supplies an explicit workload (inputs per process and instance). The
    /// default is [`Workload::all_distinct`].
    pub fn workload(mut self, workload: Workload) -> Self {
        self.plan = self.plan.workload(workload);
        self
    }

    /// Sets the step budget.
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.plan = self.plan.max_steps(max_steps);
        self
    }

    /// The parameters of this scenario.
    pub fn params(&self) -> Params {
        self.plan.params()
    }

    /// The underlying [`ExecutionPlan`].
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// Converts this scenario into its [`ExecutionPlan`].
    pub fn into_plan(self) -> ExecutionPlan {
        self.plan
    }

    /// Runs the scenario on the deterministic simulator and reports
    /// decisions, safety and space usage.
    ///
    /// Shim for `Executor::scheduled().execute(plan).expect_scheduled()`.
    pub fn run(&self) -> ScenarioReport {
        Executor::scheduled().execute(&self.plan).expect_scheduled()
    }

    /// Exhaustively explores **every** interleaving of the scenario's
    /// processes up to the configured depth and state budgets, checking
    /// validity and k-agreement in every reachable configuration.
    ///
    /// The adversary is deliberately ignored: exploration quantifies over
    /// all schedules, which subsumes any single adversary. Feasible only
    /// for tiny cells (a handful of processes, a modest depth bound).
    ///
    /// Shim for `Executor::exploring(config).execute(plan).expect_explored()`.
    pub fn explore(&self, config: ExploreConfig) -> ExploreReport {
        Executor::exploring(config)
            .execute(&self.plan)
            .expect_explored()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::new(6, 2, 3).unwrap()
    }

    #[test]
    fn algorithm_labels_and_bounds() {
        let p = params();
        assert_eq!(Algorithm::OneShot.label(), "figure3-oneshot");
        // min(n + 2m - k, n) = min(7, 6) = 6.
        assert_eq!(Algorithm::OneShot.register_bound(p), 6);
        assert_eq!(
            Algorithm::AnonymousRepeated(2).register_bound(p),
            3 * 3 + 4 + 1
        );
        assert_eq!(Algorithm::WideBaseline.register_bound(p), 6);
        assert_eq!(Algorithm::FullInformation.register_bound(p), 6);
        assert_eq!(Algorithm::Repeated(3).instances(), 3);
        assert_eq!(Algorithm::OneShot.instances(), 1);
    }

    #[test]
    fn catalog_round_trips_through_labels() {
        for algorithm in Algorithm::catalog(3) {
            assert_eq!(
                Algorithm::from_label(algorithm.label(), 3),
                Some(algorithm),
                "label {} does not round-trip",
                algorithm.label()
            );
        }
        assert_eq!(
            Algorithm::from_label("oneshot", 1),
            Some(Algorithm::OneShot)
        );
        assert_eq!(Algorithm::from_label("nonsense", 1), None);
    }

    #[test]
    fn wide_baseline_applicability_matches_its_width_requirement() {
        // n = 8 >= k + 2m = 5: applicable.
        assert!(Algorithm::WideBaseline.applicable(Params::new(8, 1, 3).unwrap()));
        // n = 6 < k + 2m = 7: not applicable.
        assert!(!Algorithm::WideBaseline.applicable(Params::new(6, 2, 3).unwrap()));
        for algorithm in Algorithm::catalog(1) {
            if algorithm != Algorithm::WideBaseline {
                assert!(algorithm.applicable(params()));
            }
        }
    }

    #[test]
    fn adversary_builders_produce_named_schedulers() {
        for adversary in [
            Adversary::RoundRobin,
            Adversary::Random { seed: 1 },
            Adversary::Obstruction {
                contention_steps: 10,
                survivors: 2,
                seed: 1,
            },
            Adversary::Solo { process: 0 },
            Adversary::Bursts {
                burst_len: 8,
                seed: 1,
            },
        ] {
            let scheduler = adversary.build(4);
            assert!(!scheduler.name().is_empty());
            assert!(!adversary.label().is_empty());
        }
        assert_eq!(
            Adversary::Solo { process: 1 }.obligated(4),
            vec![ProcessId(1)]
        );
        assert_eq!(
            Adversary::Obstruction {
                contention_steps: 0,
                survivors: 2,
                seed: 0
            }
            .obligated(4)
            .len(),
            2
        );
        assert!(Adversary::RoundRobin.obligated(4).is_empty());
    }

    #[test]
    fn oneshot_scenario_is_safe_and_terminates_for_survivors() {
        let report = Scenario::new(params())
            .algorithm(Algorithm::OneShot)
            .adversary(Adversary::Obstruction {
                contention_steps: 100,
                survivors: 2,
                seed: 7,
            })
            .run();
        assert!(report.safety.is_safe());
        assert!(report.survivors_decided);
        assert!(report.locations_written <= params().snapshot_components());
    }

    #[test]
    fn repeated_scenario_covers_every_instance_for_survivors() {
        let report = Scenario::new(params())
            .algorithm(Algorithm::Repeated(3))
            .adversary(Adversary::Obstruction {
                contention_steps: 150,
                survivors: 2,
                seed: 3,
            })
            .max_steps(2_000_000)
            .run();
        assert!(report.safety.is_safe());
        assert!(report.survivors_decided);
        assert!(report.decisions.instances().count() >= 3);
    }

    #[test]
    fn anonymous_scenarios_are_safe() {
        for algorithm in [Algorithm::AnonymousOneShot, Algorithm::AnonymousRepeated(2)] {
            let report = Scenario::new(params())
                .algorithm(algorithm)
                .adversary(Adversary::Obstruction {
                    contention_steps: 100,
                    survivors: 1,
                    seed: 11,
                })
                .max_steps(2_000_000)
                .run();
            assert!(report.safety.is_safe(), "{algorithm:?} violated safety");
            assert!(report.survivors_decided, "{algorithm:?} survivor starved");
        }
    }

    #[test]
    fn baselines_run_and_stay_safe() {
        let p = Params::new(8, 1, 3).unwrap();
        for algorithm in [Algorithm::WideBaseline, Algorithm::FullInformation] {
            let report = Scenario::new(p)
                .algorithm(algorithm)
                .adversary(Adversary::Obstruction {
                    contention_steps: 80,
                    survivors: 1,
                    seed: 5,
                })
                .max_steps(2_000_000)
                .run();
            assert!(report.safety.is_safe(), "{algorithm:?} violated safety");
            assert!(report.survivors_decided, "{algorithm:?} survivor starved");
        }
    }

    #[test]
    fn crash_adversary_preserves_safety_and_drops_obligations() {
        let adversary = Adversary::Crash {
            inner: Box::new(Adversary::Obstruction {
                contention_steps: 60,
                survivors: 2,
                seed: 5,
            }),
            crash_after: vec![(1, 3), (4, 0)],
        };
        // Survivor p1 crashes: only p0 stays obligated.
        assert_eq!(adversary.obligated(6), vec![ProcessId(0)]);
        assert_eq!(adversary.label(), "crash");
        let report = Scenario::new(params())
            .algorithm(Algorithm::OneShot)
            .adversary(adversary)
            .run();
        assert!(report.safety.is_safe());
        assert!(report.survivors_decided, "the non-crashed survivor starved");
    }

    #[test]
    fn crashed_processes_stop_stepping() {
        let adversary = Adversary::Crash {
            inner: Box::new(Adversary::RoundRobin),
            crash_after: vec![(0, 0), (2, 2)],
        };
        let mut executor = StepExecutor::new(
            (0..4)
                .map(|p| OneShotSetAgreement::new(params4(), ProcessId(p), p as u64))
                .collect::<Vec<_>>(),
        );
        let mut scheduler = adversary.build(4);
        let report = executor.run(&mut *scheduler, RunConfig::with_max_steps(100_000));
        assert_eq!(report.steps_per_process[0], 0);
        assert!(report.steps_per_process[2] <= 2);
        assert!(report.halted[1] && report.halted[3]);
    }

    fn params4() -> Params {
        Params::new(4, 1, 2).unwrap()
    }

    #[test]
    fn explore_verifies_tiny_oneshot_cell() {
        // (2, 1, 1) one-shot has ~1k reachable states: the explorer must
        // exhaust them (the depth bound has to be generous — executions are
        // only obstruction-free, so single paths can be much longer than
        // the state count suggests; dedup is what closes the cycles).
        let cell = Params::new(2, 1, 1).unwrap();
        let report = Scenario::new(cell)
            .algorithm(Algorithm::OneShot)
            .explore(ExploreConfig {
                max_depth: 100_000,
                max_states: 1_000_000,
                dedup: true,
                ..ExploreConfig::default()
            });
        assert!(
            report.verified(),
            "exploration truncated or found a violation: states={} truncated={} violation={:?}",
            report.states_visited,
            report.truncated,
            report.violation
        );
        assert!(report.safe());
        assert!(report.states_visited > 0 && report.paths > 0);
        assert!(
            report.max_locations_written <= Algorithm::OneShot.component_bound(cell),
            "some interleaving wrote {} locations",
            report.max_locations_written
        );
    }

    #[test]
    fn explore_reports_truncation_at_tiny_budgets() {
        let report = Scenario::new(Params::new(3, 1, 2).unwrap())
            .algorithm(Algorithm::OneShot)
            .explore(ExploreConfig {
                max_depth: 2,
                max_states: 10,
                dedup: true,
                ..ExploreConfig::default()
            });
        assert!(report.truncated);
        assert!(!report.verified());
        // No violation within the explored prefix, so it is still "safe".
        assert!(report.safe());
    }

    #[test]
    fn custom_workload_constrains_outputs() {
        let workload = Workload::uniform(6, 1, 99);
        let report = Scenario::new(params())
            .workload(workload)
            .adversary(Adversary::Solo { process: 2 })
            .run();
        assert!(report.safety.is_safe());
        for value in report.decisions.outputs(1) {
            assert_eq!(value, 99);
        }
        assert_eq!(report.distinct_outputs(1), 1);
    }

    #[test]
    fn executor_dispatches_every_backend_on_one_plan() {
        let plan = ExecutionPlan::new(Params::new(2, 1, 1).unwrap())
            .algorithm(Algorithm::OneShot)
            .adversary(Adversary::Solo { process: 0 });

        let scheduled = Executor::scheduled().execute(&plan);
        assert_eq!(scheduled.backend_label(), "scheduled");
        assert!(scheduled.safe());
        assert!(scheduled.steps() > 0);
        assert!(scheduled.as_scheduled().is_some());
        assert!(scheduled.as_threaded().is_none());

        let threaded = Executor::threaded(ThreadedConfig::with_step_budget(100_000)).execute(&plan);
        assert_eq!(threaded.backend_label(), "threaded");
        assert!(threaded.safe());
        assert!(threaded.locations_written() > 0);

        let explored = Executor::exploring(ExploreConfig {
            max_depth: 100_000,
            max_states: 1_000_000,
            dedup: true,
            ..ExploreConfig::default()
        })
        .execute(&plan);
        assert_eq!(explored.backend_label(), "explore");
        let explored = explored.expect_explored();
        assert!(explored.verified());
        assert!(explored.max_depth_reached > 0);
        assert_eq!(explored.threads, 0);

        let parallel = Executor::exploring_parallel(ParallelExploreConfig {
            threads: 2,
            max_depth: 100_000,
            max_states: 1_000_000,
            ..ParallelExploreConfig::default()
        })
        .execute(&plan);
        assert_eq!(parallel.backend_label(), "parallel-explore");
        let parallel = parallel.expect_explored();
        assert!(parallel.verified());
        assert_eq!(parallel.threads, 2);
        assert_eq!(parallel.states_visited, explored.states_visited);

        // n + 2m − k = 3 on this cell: the search must rediscover it.
        let searched = Executor::searching(SearchConfig {
            goal: SearchGoal::Covering,
            target_registers: 3,
            max_depth: 32,
            max_states: 100_000,
            threads: 2,
            symmetry: sa_runtime::SymmetryMode::ProcessIds,
        })
        .execute(&plan);
        assert_eq!(searched.backend_label(), "adversary-search");
        assert!(searched.safe());
        assert_eq!(searched.locations_written(), 3);
        let witness = searched.as_searched().unwrap().witness.clone().unwrap();
        assert!(verify_witness(&plan, &witness).is_ok());
        let searched = searched.expect_searched();
        assert!(searched.target_reached && searched.verified);
        assert_eq!(searched.goal, SearchGoal::Covering);
        assert_eq!(witness.certificate.registers, 3);
    }

    #[test]
    fn adversary_search_is_identical_at_any_thread_count() {
        let plan = ExecutionPlan::new(Params::new(2, 1, 1).unwrap()).algorithm(Algorithm::OneShot);
        for goal in SearchGoal::all() {
            let mut previous: Option<sa_search::SearchReport> = None;
            for threads in [1, 2, 8] {
                let report = Executor::searching(SearchConfig {
                    goal,
                    target_registers: 3,
                    max_depth: 32,
                    max_states: 100_000,
                    threads,
                    symmetry: sa_runtime::SymmetryMode::ProcessIds,
                })
                .execute(&plan)
                .expect_searched();
                assert!(report.target_reached, "{goal:?} threads={threads}");
                assert!(report.verified, "{goal:?} threads={threads}");
                let witness = report.witness.as_ref().expect("target reached");
                assert!(verify_witness(&plan, witness).is_ok());
                if let Some(previous) = &previous {
                    // Same witness, same schedule, same certificate —
                    // byte-identical results at any worker count.
                    assert_eq!(report.witness, previous.witness);
                    assert_eq!(report.states_visited, previous.states_visited);
                    assert_eq!(report.max_depth_reached, previous.max_depth_reached);
                    assert_eq!(report.stop, previous.stop);
                }
                previous = Some(report);
            }
        }
    }

    #[test]
    fn parallel_exploration_matches_serial_at_every_thread_count() {
        let plan = ExecutionPlan::new(Params::new(2, 1, 1).unwrap()).algorithm(Algorithm::OneShot);
        let serial = Executor::exploring(ExploreConfig {
            max_depth: 100_000,
            max_states: 1_000_000,
            dedup: true,
            ..ExploreConfig::default()
        })
        .execute(&plan)
        .expect_explored();
        assert!(serial.verified());
        let mut previous: Option<ExploreReport> = None;
        for threads in [1, 2, 8] {
            let report = Executor::exploring_parallel(ParallelExploreConfig {
                threads,
                max_depth: 100_000,
                max_states: 1_000_000,
                ..ParallelExploreConfig::default()
            })
            .execute(&plan)
            .expect_explored();
            assert!(report.verified(), "threads={threads}");
            assert_eq!(report.states_visited, serial.states_visited);
            assert_eq!(report.paths, serial.paths);
            assert_eq!(report.violation, serial.violation);
            // Safety verdicts and space maxima range over the same state
            // set, so they agree with the serial explorer exactly.
            assert_eq!(report.validity_ok, serial.validity_ok);
            assert_eq!(report.agreement_ok, serial.agreement_ok);
            assert_eq!(report.max_locations_written, serial.max_locations_written);
            assert_eq!(report.max_registers_written, serial.max_registers_written);
            assert_eq!(report.max_components_written, serial.max_components_written);
            // And every parallel field is identical at any worker count.
            if let Some(previous) = &previous {
                assert_eq!(report.frontier_peak, previous.frontier_peak);
                assert_eq!(report.seen_entries, previous.seen_entries);
                assert_eq!(report.approx_bytes, previous.approx_bytes);
                assert_eq!(report.max_depth_reached, previous.max_depth_reached);
            }
            previous = Some(report);
        }
    }

    #[test]
    fn scenario_is_a_shim_over_the_plan_api() {
        let scenario = Scenario::new(params())
            .algorithm(Algorithm::OneShot)
            .adversary(Adversary::Obstruction {
                contention_steps: 100,
                survivors: 2,
                seed: 7,
            });
        let via_shim = scenario.run();
        let via_plan = Executor::scheduled()
            .execute(scenario.plan())
            .expect_scheduled();
        // The scheduled backend is deterministic: the shim and the direct
        // path must agree step-for-step.
        assert_eq!(via_shim.steps, via_plan.steps);
        assert_eq!(via_shim.locations_written, via_plan.locations_written);
        assert_eq!(
            via_shim.decisions.outputs(1).len(),
            via_plan.decisions.outputs(1).len()
        );
        assert_eq!(scenario.params(), scenario.plan().params());
    }

    #[test]
    fn threaded_backend_checks_safety_and_reports_throughput() {
        let plan = ExecutionPlan::new(params()).algorithm(Algorithm::OneShot);
        let config = ThreadedConfig::with_step_budget(200_000).seeded(9);
        let report = Executor::threaded(config).execute(&plan).expect_threaded();
        // Safety counters, never step traces: the hardware linearizes.
        assert!(report.safety.is_safe());
        assert!(report.steps > 0);
        assert_eq!(report.steps_per_process.len(), 6);
        assert_eq!(report.config.seed, 9);
        assert!(report.wall > Duration::ZERO);
        assert!(report.steps_per_sec() > 0.0);
        assert!(report.locations_written <= Algorithm::OneShot.component_bound(params()));
    }

    #[test]
    fn custom_backends_plug_in_as_trait_objects() {
        /// A backend that delegates to the simulator but tags its label —
        /// the extension point future multi-backend scaling uses.
        #[derive(Debug)]
        struct Recorder;
        impl ExecutionBackend for Recorder {
            fn label(&self) -> &'static str {
                "recorder"
            }
            fn execute(&self, plan: &ExecutionPlan) -> ExecutionReport {
                Backend::Scheduled.execute(plan)
            }
        }
        let executor = Executor::with_backend(Box::new(Recorder));
        assert_eq!(executor.label(), "recorder");
        let plan = ExecutionPlan::new(params()).adversary(Adversary::Solo { process: 1 });
        assert!(executor.execute(&plan).safe());
    }

    #[test]
    fn plan_execute_shorthand_matches_explicit_executor() {
        let plan = ExecutionPlan::new(params()).adversary(Adversary::Solo { process: 0 });
        let a = plan.execute(Backend::Scheduled).expect_scheduled();
        let b = Executor::new(Backend::Scheduled)
            .execute(&plan)
            .expect_scheduled();
        assert_eq!(a.steps, b.steps);
        assert_eq!(plan.algorithm_selected(), Algorithm::OneShot);
        assert_eq!(plan.adversary_selected().label(), "solo");
    }
}
