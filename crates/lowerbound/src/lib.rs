//! Executable lower-bound machinery for the set-agreement reproduction.
//!
//! The non-constructive half of "On the Space Complexity of Set Agreement"
//! (PODC 2015) consists of two lower-bound arguments and the bounds table of
//! Figure 1. This crate turns all three into running code:
//!
//! * [`bounds`] — every cell of **Figure 1** as an executable formula, with
//!   consistency relations, rendering and parameter sweeps (used by the
//!   `figure1` bench binary and EXPERIMENTS.md).
//! * [`covering`] — the covering attack of **Theorem 2** run against
//!   deliberately under-provisioned instances of the paper's algorithms:
//!   group-sequential adversary schedules, width sweeps, the empirical
//!   "smallest resilient width", exhaustive searches over all
//!   interleavings for tiny configurations, and [`hand_built_witness`] —
//!   the construction emitted as a replayable `sa-search` `Witness`, checked
//!   by the same replay verifier as machine-found ones. The mechanical
//!   core it drives — covering configurations, block writes, the
//!   obliteration and splice-invisibility checks — lives in
//!   `sa_search::goal`, where the adversary search evaluates the same
//!   mechanics.
//! * [`cloning`] — the cloning mechanism of **Lemma 9 / Theorem 10** for
//!   anonymous algorithms: lockstep clone schedules, the executable
//!   indistinguishability property, and the anonymous group-isolation
//!   attack.
//!
//! Lower bounds are statements about *all* algorithms, so no experiment can
//! prove them; what this crate provides are witnesses of the mechanisms the
//! proofs use (traces get overwritten, clones are indistinguishable) and
//! falsification evidence: the paper's algorithms, stripped of the registers
//! the bounds say are necessary, visibly violate k-agreement, while at the
//! paper's widths the same adversaries are powerless.
//!
//! # Example
//!
//! ```
//! use sa_lowerbound::bounds::{Figure1, Naming, Setting};
//! use sa_lowerbound::covering::attack_one_shot;
//! use sa_model::Params;
//!
//! let params = Params::new(4, 1, 2)?;
//! // Figure 1, repeated non-anonymous cell: lower n + m - k, upper n + 2m - k.
//! let table = Figure1::for_params(params);
//! let cell = table.cell(Setting::Repeated, Naming::NonAnonymous);
//! assert_eq!(cell.lower.registers, 3);
//! assert_eq!(cell.upper.registers, 4);
//!
//! // The covering attack defeats a 1-component instantiation of Figure 3...
//! assert!(attack_one_shot(params, 1, 100_000).violates_agreement());
//! // ...but not the paper's n + 2m - k = 4 components.
//! assert!(!attack_one_shot(params, 4, 100_000).violates_agreement());
//! # Ok::<(), sa_model::ParamsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bounds;
pub mod cloning;
pub mod covering;

pub use bounds::{Bound, BoundsCell, Figure1, Naming, Setting, SweepRow};
pub use cloning::{clone_attack, clones_behave_identically, LockstepScheduler, ProcessBehaviour};
pub use covering::{
    attack_one_shot, attack_repeated, hand_built_witness, minimal_resilient_width, AttackOutcome,
    GroupSequentialScheduler,
};
