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
//!   execution API — [`ExecutionPlan::execute`] on a [`Backend`] →
//!   [`ExecutionReport`] — used by the examples, benches and the sweep
//!   engine.
//!
//! # Execution model
//!
//! An execution has three orthogonal axes:
//!
//! 1. **what** runs — an [`ExecutionPlan`]: parameters, [`Algorithm`],
//!    [`Adversary`], workload and step budget;
//! 2. **how** it runs — a [`Backend`]: the deterministic simulator
//!    (`Scheduled`), real OS threads (`Threaded`), the bounded exhaustive
//!    explorer (`Explore`), its parallel counterpart
//!    (`ParallelExplore`, byte-identical results at any thread count), the
//!    batched agreement service (`Serve`), or the goal-directed adversary
//!    search (`AdversarySearch`, also byte-identical at any thread count);
//! 3. **who fails** — crash failures are part of the *adversary*
//!    ([`Adversary::Crash`]), not a backend, so they compose with any
//!    scheduler.
//!
//! [`ExecutionPlan::execute`] runs a plan on a backend and returns an
//! [`ExecutionReport`] with one variant per backend.
//!
//! # Quickstart
//!
//! ```
//! use set_agreement::{Adversary, Algorithm, Backend, ExecutionPlan};
//! use set_agreement::model::Params;
//!
//! // 2-obstruction-free 3-set agreement among 8 processes, every process
//! // proposing a distinct value, under the obstruction adversary.
//! let params = Params::new(8, 2, 3)?;
//! let report = ExecutionPlan::new(params)
//!     .algorithm(Algorithm::OneShot)
//!     .adversary(Adversary::Obstruction {
//!         contention_steps: 200,
//!         survivors: 2,
//!         seed: 42,
//!     })
//!     .execute(Backend::Scheduled)
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
        Adversary, Algorithm, Backend, ExecutionPlan, ExecutionReport, ExploreReport,
        ScenarioReport, ThreadedRunReport,
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
use sa_memory::{Location, MemoryMetrics};
use sa_model::{Automaton, DecisionSet, Params, ProcessId};
use sa_runtime::{
    explore, parallel_explore, run_threaded, BurstScheduler, CrashScheduler, Executor, Exploration,
    ExploreConfig, InputLog, ObstructionScheduler, ParallelExploreConfig, RandomScheduler,
    RoundRobin, RunConfig, SafetyReport, Scheduler, SoloScheduler, StopReason, ThreadedConfig,
    ThreadedReport, Workload,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Which algorithm of the paper (or baseline) an [`ExecutionPlan`] runs.
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

/// The schedule adversary an [`ExecutionPlan`] runs under on
/// [`Backend::Scheduled`].
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

/// The result of running an [`ExecutionPlan`] on [`Backend::Scheduled`].
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

/// The result of exhaustively exploring an [`ExecutionPlan`]'s
/// interleavings on [`Backend::Explore`] or [`Backend::ParallelExplore`]:
/// the explorer's own [`Exploration`], plus what the facade's safety probe
/// measured over every visited state.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// The parameters the plan ran with.
    pub params: Params,
    /// The algorithm explored.
    pub algorithm: Algorithm,
    /// The explorer's report: states, paths, depth, budgets, memory
    /// statistics, the first violation and the reduction counters.
    pub exploration: Exploration,
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
}

impl ExploreReport {
    /// `true` if the safety properties hold in **every** reachable
    /// configuration within the bounds — no violation found and the state
    /// space was exhausted, not truncated. See [`Exploration::verified`]
    /// for why this does not rest on a 64-bit hash never colliding.
    pub fn verified(&self) -> bool {
        self.exploration.verified()
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
    /// The threaded configuration (per-thread budget and seed).
    pub config: ThreadedConfig,
    /// The runtime's report: steps, halts, decisions in arrival order,
    /// memory metrics and the wall clock (never zero for a run that
    /// visibly took time).
    pub run: ThreadedReport,
    /// Validity and k-agreement evaluated over the run.
    pub safety: SafetyReport,
    /// Distinct base objects (registers or snapshot components) written.
    pub locations_written: usize,
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
            ExecutionReport::Threaded(r) => r.run.total_steps(),
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
/// [`Backend`] given to [`execute`](Self::execute), so the same plan can be
/// simulated, run on real threads, or exhaustively explored without being
/// rebuilt.
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

    /// Executes this plan on `backend` — the facade's one entry point.
    pub fn execute(&self, backend: Backend) -> ExecutionReport {
        if let Backend::Serve(options) = backend {
            // The service builds its own automata, one fresh Figure 4
            // instance per batch, so it bypasses the plan's automata
            // construction; the plan contributes the cell (m, k) and the
            // per-batch step budget.
            let config = sa_serve::ServeConfig {
                m: self.params.m(),
                k: self.params.k(),
                options,
                max_steps_per_batch: self.max_steps,
            };
            return ExecutionReport::Served(Box::new(sa_serve::serve(&config)));
        }
        self.with_automata(BackendDriver { backend })
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
                        let inputs: Vec<_> = (1..=instances as u64)
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
        let mut executor = Executor::new(automata);
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
        let mut run = run_threaded(automata, config);
        // Prefer the runtime's own measurement but never report a zero wall
        // clock for a run that visibly took time.
        if run.wall == Duration::ZERO {
            run.wall = start.elapsed();
        }

        let mut inputs = InputLog::new();
        inputs.record_matrix(workload.matrix());
        let safety = SafetyReport::evaluate(self.params.k(), &inputs, &run.decisions);

        ThreadedRunReport {
            params: self.params,
            algorithm: self.algorithm,
            config,
            locations_written: run.metrics.distinct_locations_written(),
            run,
            safety,
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
        let executor = Executor::new(automata);
        let probe = SafetyProbe::new(self.params.k(), workload);
        let result = explore(&executor, config, |exec| probe.check(exec));
        self.explore_report(result, probe, 0)
    }

    /// Bounded exhaustive exploration on the parallel worker pool —
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
        let executor = Executor::new(automata);
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
        let executor = Executor::new(automata);
        sa_search::search(&executor, config)
    }

    fn explore_report(
        &self,
        exploration: Exploration,
        probe: SafetyProbe,
        threads: usize,
    ) -> ExploreReport {
        ExploreReport {
            params: self.params,
            algorithm: self.algorithm,
            exploration,
            validity_ok: !probe.violated_validity.into_inner(),
            agreement_ok: !probe.violated_agreement.into_inner(),
            max_locations_written: probe.max_locations.into_inner(),
            max_registers_written: probe.max_registers.into_inner(),
            max_components_written: probe.max_components.into_inner(),
            threads,
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

    fn check<A>(&self, exec: &Executor<A>) -> Option<String>
    where
        A: Automaton,
        A::Value: Clone + Eq + Debug,
    {
        let (mut locations, mut registers) = (0, 0);
        for location in exec.memory().written_locations() {
            locations += 1;
            registers += usize::from(matches!(location, Location::Register(_)));
        }
        self.max_locations.fetch_max(locations, Ordering::Relaxed);
        self.max_registers.fetch_max(registers, Ordering::Relaxed);
        self.max_components
            .fetch_max(locations - registers, Ordering::Relaxed);
        let decisions = exec.decisions();
        for instance in decisions.instances() {
            // The smallest disallowed value, the one the sorted output set
            // would name first.
            let allowed = self.allowed.get(&instance);
            if let Some(bad) = decisions
                .values(instance)
                .filter(|v| !allowed.is_some_and(|a| a.contains(v)))
                .min()
            {
                self.violated_validity.store(true, Ordering::Relaxed);
                return Some(format!(
                    "instance {instance} decided {bad}, which nobody proposed"
                ));
            }
            if decisions.distinct_outputs(instance) > self.k {
                self.violated_agreement.store(true, Ordering::Relaxed);
                // Only a violation's description builds the output set.
                let outputs = decisions.outputs(instance);
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

/// The one driver behind every backend but the service: dispatches the
/// constructed system to the simulator, the thread pool, an explorer or
/// the search, so adding a backend touches exactly this match.
struct BackendDriver {
    backend: Backend,
}

impl AutomataDriver for BackendDriver {
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
                ExecutionReport::Threaded(plan.run_on_threads(automata, workload, config))
            }
            Backend::Explore(config) => {
                ExecutionReport::Explored(plan.run_exploration(automata, workload, config))
            }
            Backend::ParallelExplore(config) => {
                ExecutionReport::Explored(plan.run_parallel_exploration(automata, workload, config))
            }
            Backend::AdversarySearch(config) => {
                ExecutionReport::Searched(Box::new(plan.run_search(automata, config)))
            }
            // Serve runs are intercepted before automata construction in
            // `ExecutionPlan::execute`.
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
        let executor = Executor::new(automata);
        sa_search::verify(&executor, self.witness)
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
        let report = ExecutionPlan::new(params())
            .algorithm(Algorithm::OneShot)
            .adversary(Adversary::Obstruction {
                contention_steps: 100,
                survivors: 2,
                seed: 7,
            })
            .execute(Backend::Scheduled)
            .expect_scheduled();
        assert!(report.safety.is_safe());
        assert!(report.survivors_decided);
        assert!(report.locations_written <= params().snapshot_components());
    }

    #[test]
    fn repeated_scenario_covers_every_instance_for_survivors() {
        let report = ExecutionPlan::new(params())
            .algorithm(Algorithm::Repeated(3))
            .adversary(Adversary::Obstruction {
                contention_steps: 150,
                survivors: 2,
                seed: 3,
            })
            .max_steps(2_000_000)
            .execute(Backend::Scheduled)
            .expect_scheduled();
        assert!(report.safety.is_safe());
        assert!(report.survivors_decided);
        assert!(report.decisions.instances().count() >= 3);
    }

    #[test]
    fn anonymous_scenarios_are_safe() {
        for algorithm in [Algorithm::AnonymousOneShot, Algorithm::AnonymousRepeated(2)] {
            let report = ExecutionPlan::new(params())
                .algorithm(algorithm)
                .adversary(Adversary::Obstruction {
                    contention_steps: 100,
                    survivors: 1,
                    seed: 11,
                })
                .max_steps(2_000_000)
                .execute(Backend::Scheduled)
                .expect_scheduled();
            assert!(report.safety.is_safe(), "{algorithm:?} violated safety");
            assert!(report.survivors_decided, "{algorithm:?} survivor starved");
        }
    }

    #[test]
    fn baselines_run_and_stay_safe() {
        let p = Params::new(8, 1, 3).unwrap();
        for algorithm in [Algorithm::WideBaseline, Algorithm::FullInformation] {
            let report = ExecutionPlan::new(p)
                .algorithm(algorithm)
                .adversary(Adversary::Obstruction {
                    contention_steps: 80,
                    survivors: 1,
                    seed: 5,
                })
                .max_steps(2_000_000)
                .execute(Backend::Scheduled)
                .expect_scheduled();
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
        let report = ExecutionPlan::new(params())
            .algorithm(Algorithm::OneShot)
            .adversary(adversary)
            .execute(Backend::Scheduled)
            .expect_scheduled();
        assert!(report.safety.is_safe());
        assert!(report.survivors_decided, "the non-crashed survivor starved");
    }

    #[test]
    fn crashed_processes_stop_stepping() {
        let adversary = Adversary::Crash {
            inner: Box::new(Adversary::RoundRobin),
            crash_after: vec![(0, 0), (2, 2)],
        };
        let mut executor = Executor::new(
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
        let report = ExecutionPlan::new(cell)
            .algorithm(Algorithm::OneShot)
            .execute(Backend::Explore(ExploreConfig {
                max_depth: 100_000,
                max_states: 1_000_000,
                ..ExploreConfig::default()
            }))
            .expect_explored();
        assert!(
            report.verified(),
            "exploration truncated or found a violation: states={} truncated={} violation={:?}",
            report.exploration.states_visited,
            report.exploration.truncated,
            report.exploration.violation
        );
        assert!(report.safe());
        assert!(report.exploration.states_visited > 0 && report.exploration.paths > 0);
        assert!(
            report.max_locations_written <= Algorithm::OneShot.component_bound(cell),
            "some interleaving wrote {} locations",
            report.max_locations_written
        );
    }

    #[test]
    fn explore_reports_truncation_at_tiny_budgets() {
        let report = ExecutionPlan::new(Params::new(3, 1, 2).unwrap())
            .algorithm(Algorithm::OneShot)
            .execute(Backend::Explore(ExploreConfig {
                max_depth: 2,
                max_states: 10,
                ..ExploreConfig::default()
            }))
            .expect_explored();
        assert!(report.exploration.truncated);
        assert!(!report.verified());
        // No violation within the explored prefix, so it is still "safe".
        assert!(report.safe());
    }

    #[test]
    fn custom_workload_constrains_outputs() {
        let workload = Workload::uniform(6, 1, 99);
        let report = ExecutionPlan::new(params())
            .workload(workload)
            .adversary(Adversary::Solo { process: 2 })
            .execute(Backend::Scheduled)
            .expect_scheduled();
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

        let scheduled = plan.execute(Backend::Scheduled);
        assert_eq!(scheduled.backend_label(), "scheduled");
        assert!(scheduled.safe());
        assert!(scheduled.steps() > 0);

        let threaded = plan.execute(Backend::Threaded(ThreadedConfig::with_step_budget(100_000)));
        assert_eq!(threaded.backend_label(), "threaded");
        assert!(threaded.safe());
        assert!(threaded.locations_written() > 0);

        let explored = plan.execute(Backend::Explore(ExploreConfig {
            max_depth: 100_000,
            max_states: 1_000_000,
            ..ExploreConfig::default()
        }));
        assert_eq!(explored.backend_label(), "explore");
        let explored = explored.expect_explored();
        assert!(explored.verified());
        assert!(explored.exploration.max_depth_reached > 0);
        assert_eq!(explored.threads, 0);

        let parallel = plan.execute(Backend::ParallelExplore(ParallelExploreConfig {
            threads: 2,
            max_depth: 100_000,
            max_states: 1_000_000,
            ..ParallelExploreConfig::default()
        }));
        assert_eq!(parallel.backend_label(), "parallel-explore");
        let parallel = parallel.expect_explored();
        assert!(parallel.verified());
        assert_eq!(parallel.threads, 2);
        assert_eq!(
            parallel.exploration.states_visited,
            explored.exploration.states_visited
        );

        // n + 2m − k = 3 on this cell: the search must rediscover it.
        let searched = plan.execute(Backend::AdversarySearch(SearchConfig {
            goal: SearchGoal::Covering,
            target_registers: 3,
            max_depth: 32,
            max_states: 100_000,
            threads: 2,
            symmetry: sa_runtime::SymmetryMode::ProcessIds,
        }));
        assert_eq!(searched.backend_label(), "adversary-search");
        assert!(searched.safe());
        assert_eq!(searched.locations_written(), 3);
        let searched = searched.expect_searched();
        let witness = searched.witness.clone().unwrap();
        assert!(verify_witness(&plan, &witness).is_ok());
        assert!(searched.target_reached && searched.verified);
        assert_eq!(searched.goal, SearchGoal::Covering);
        assert_eq!(witness.certificate.registers, 3);

        // The service builds its own batches and takes only m, k and the
        // step budget from the plan. `sweep serve` prints the same
        // fingerprint.
        let served = plan.execute(Backend::Serve(ServeOptions::default()));
        assert_eq!(served.backend_label(), "serve");
        assert!(served.safe());
        assert_eq!(served.steps(), 90_000);
        let served = served.expect_served();
        assert_eq!(served.decided_fingerprint(), 0x07d7_f521_a1d3_bc25);
        assert_eq!(served.batches, 1_000);
        assert_eq!(served.proposals, 8_000);
        assert!(served.drained);
        assert_eq!(served.unfinished, 0);
    }

    #[test]
    fn adversary_search_is_identical_at_any_thread_count() {
        let plan = ExecutionPlan::new(Params::new(2, 1, 1).unwrap()).algorithm(Algorithm::OneShot);
        for goal in SearchGoal::all() {
            let mut previous: Option<sa_search::SearchReport> = None;
            for threads in [1, 2, 8] {
                let report = plan
                    .execute(Backend::AdversarySearch(SearchConfig {
                        goal,
                        target_registers: 3,
                        max_depth: 32,
                        max_states: 100_000,
                        threads,
                        symmetry: sa_runtime::SymmetryMode::ProcessIds,
                    }))
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
        let serial = plan
            .execute(Backend::Explore(ExploreConfig {
                max_depth: 100_000,
                max_states: 1_000_000,
                ..ExploreConfig::default()
            }))
            .expect_explored();
        assert!(serial.verified());
        let mut previous: Option<ExploreReport> = None;
        for threads in [1, 2, 8] {
            let report = plan
                .execute(Backend::ParallelExplore(ParallelExploreConfig {
                    threads,
                    max_depth: 100_000,
                    max_states: 1_000_000,
                    ..ParallelExploreConfig::default()
                }))
                .expect_explored();
            assert!(report.verified(), "threads={threads}");
            assert_eq!(
                report.exploration.states_visited,
                serial.exploration.states_visited
            );
            assert_eq!(report.exploration.paths, serial.exploration.paths);
            assert_eq!(report.exploration.violation, serial.exploration.violation);
            // Safety verdicts and space maxima range over the same state
            // set, so they agree with the serial explorer exactly.
            assert_eq!(report.validity_ok, serial.validity_ok);
            assert_eq!(report.agreement_ok, serial.agreement_ok);
            assert_eq!(report.max_locations_written, serial.max_locations_written);
            assert_eq!(report.max_registers_written, serial.max_registers_written);
            assert_eq!(report.max_components_written, serial.max_components_written);
            // And every parallel field is identical at any worker count.
            if let Some(previous) = &previous {
                assert_eq!(
                    report.exploration.frontier_peak,
                    previous.exploration.frontier_peak
                );
                assert_eq!(
                    report.exploration.seen_entries,
                    previous.exploration.seen_entries
                );
                assert_eq!(
                    report.exploration.approx_bytes,
                    previous.exploration.approx_bytes
                );
                assert_eq!(
                    report.exploration.max_depth_reached,
                    previous.exploration.max_depth_reached
                );
            }
            previous = Some(report);
        }
    }

    #[test]
    fn threaded_backend_checks_safety_and_reports_throughput() {
        let plan = ExecutionPlan::new(params()).algorithm(Algorithm::OneShot);
        let config = ThreadedConfig::with_step_budget(200_000).seeded(9);
        let report = plan.execute(Backend::Threaded(config)).expect_threaded();
        // Safety counters, never step traces: the hardware linearizes.
        assert!(report.safety.is_safe());
        assert!(report.run.total_steps() > 0);
        assert_eq!(report.run.steps_per_process.len(), 6);
        assert_eq!(report.config.seed, 9);
        assert!(report.run.wall > Duration::ZERO);
        assert!(report.run.steps_per_sec() > 0.0);
        assert!(report.locations_written <= Algorithm::OneShot.component_bound(params()));
    }
}
