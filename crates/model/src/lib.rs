//! Core vocabulary shared by every crate in the set-agreement reproduction.
//!
//! This crate defines the *model* of computation used by the paper
//! "On the Space Complexity of Set Agreement" (Delporte-Gallet, Fauconnier,
//! Kuznetsov, Ruppert — PODC 2015):
//!
//! * [`Params`] — the problem parameters `(n, m, k)`: `n` processes solving
//!   `m`-obstruction-free `k`-set agreement.
//! * [`Op`] / [`Response`] — the shared-memory operations a process may be
//!   *poised* to perform (register read/write, snapshot update/scan) and their
//!   responses.
//! * [`MemoryLayout`] — how many registers and snapshot objects (and of what
//!   width) an algorithm declares.
//! * [`Automaton`] — the step-machine interface every algorithm implements:
//!   one shared-memory operation per step, exactly the granularity of the
//!   paper's formal model (Section 2).
//! * [`Decision`] — an output event `(instance, value)` of a `Propose`
//!   operation.
//! * [`Location`] / [`independent`] — the shared location vocabulary and the
//!   static interference analysis over op footprints (module
//!   [`independence`]) that feeds the explorers' partial-order reduction.
//! * [`Fingerprinter`] — the stable 128-bit hasher behind the explorers'
//!   state keys; [`SplitMix64`] — the seeded generator behind every random
//!   schedule and workload.
//!
//! The input domain of set agreement is the natural numbers (`D = IN` in the
//! paper); we represent input values as [`InputValue`] (`u64`).
//!
//! # Example
//!
//! ```
//! use sa_model::{Params, MemoryLayout};
//!
//! let params = Params::new(8, 2, 3)?;          // n = 8, m = 2, k = 3
//! assert_eq!(params.snapshot_components(), 9); // n + 2m - k
//! assert_eq!(params.register_upper_bound(), 8); // min(n + 2m - k, n)
//! let layout = MemoryLayout::with_snapshot(params.snapshot_components());
//! assert_eq!(layout.snapshot_width(0), Some(9));
//! # Ok::<(), sa_model::ParamsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod automaton;
mod error;
mod fingerprint;
mod ids;
pub mod independence;
mod layout;
mod op;
mod params;
mod symmetry;

pub use automaton::{Automaton, Decision, DecisionSet, StepOutcome};
pub use error::{LayoutError, ParamsError};
pub use fingerprint::{Fingerprinter, SplitMix64};
pub use ids::{InputValue, InstanceId, ProcessId};
pub use independence::{independent, Access, Footprint, Location};
pub use layout::{MemoryLayout, RegisterId, SnapshotId};
pub use op::{Op, OpKind, Response};
pub use params::{ParamSweep, Params};
pub use symmetry::{IdRelabeling, SymmetryClass};
