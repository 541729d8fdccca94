//! Execution runtime for the set-agreement reproduction.
//!
//! The paper studies algorithms in the asynchronous shared-memory model, so
//! an *execution* is an interleaving of atomic process steps and the
//! scheduler is the adversary. This crate provides everything needed to
//! produce, control and check such executions:
//!
//! * [`Executor`] — drives [`Automaton`](sa_model::Automaton) state machines
//!   against a deterministic [`SimMemory`](sa_memory::SimMemory), one atomic
//!   step at a time.
//! * [Schedulers](crate::Scheduler) — round-robin, seeded random,
//!   [`ObstructionScheduler`] (the m-obstruction adversary), crash, burst,
//!   solo and fully scripted schedules.
//! * [Property checkers](crate::properties) — Validity, k-Agreement and
//!   termination-under-obstruction, the three obligations of the paper's
//!   problem statement.
//! * [`explore`] — a bounded exhaustive explorer (tiny model checker) that
//!   checks a safety predicate in **every** interleaving of small
//!   configurations.
//! * [`parallel_explore`] — the same exhaustive check on a pool of worker
//!   threads, byte-identical at any thread count.
//! * [`check_commutation`] — the dynamic oracle auditing the static
//!   independence relation ([`sa_model::independent`]) that feeds the
//!   serial explorer's persistent-set partial-order reduction
//!   ([`ReductionMode`]).
//! * [`run_threaded`] — runs the same automata on real OS threads against a
//!   [`SharedMemory`](sa_memory::SharedMemory).
//! * [`Workload`] — reproducible input generators.
//!
//! # Example: an execution under the m-obstruction adversary
//!
//! ```
//! use sa_runtime::{Executor, ObstructionScheduler, RunConfig};
//! use sa_runtime::toy::ToyWriter;
//! use sa_model::ProcessId;
//!
//! let automata = vec![ToyWriter::new(0, 1), ToyWriter::new(1, 2), ToyWriter::new(2, 3)];
//! let mut exec = Executor::new(automata);
//! // Heavy contention for 10 steps, then only p0 keeps running.
//! let mut adversary = ObstructionScheduler::new(10, vec![ProcessId(0)], 42);
//! let report = exec.run(&mut adversary, RunConfig::default());
//! assert!(report.halted[0], "the survivor must finish");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod commutation;
mod executor;
mod explore;
mod parallel;
pub mod properties;
mod schedule;
pub mod store;
mod threaded;
pub mod toy;
mod trace;
mod workload;

pub use commutation::{
    check_commutation, orders_commute, CommutationConfig, CommutationReport, CommutationViolation,
};
pub use executor::{
    Backend, Executor, RunConfig, RunReport, SearchConfig, SearchGoal, ServeClock, ServeLoad,
    ServeOptions, StopReason,
};
pub use explore::{
    agreement_predicate, canonical_state_key, checked_bit_of, checked_mask_of, explore, keyed,
    mask_of, persistent_set, state_key, successor_sleep, Exploration, ExploreConfig,
    ExploredViolation, FrontierSemantics, ReductionMode, StateKey, SymmetryMode, SymmetryPlan,
};
pub use parallel::{
    parallel_explore, Bfs, BfsEntry, BfsLevel, BfsSuccessor, ParallelExploreConfig,
};
pub use properties::{
    check_k_agreement, check_obstruction_termination, check_validity, AgreementViolation, InputLog,
    SafetyReport, TerminationViolation, ValidityViolation,
};
pub use schedule::{
    BurstScheduler, CrashScheduler, ObstructionScheduler, RandomScheduler, RoundRobin, Scheduler,
    SchedulerView, ScriptedScheduler, SoloScheduler,
};
pub use threaded::{run_threaded, ThreadedConfig, ThreadedReport};
pub use trace::{Trace, TraceEvent};
pub use workload::Workload;
