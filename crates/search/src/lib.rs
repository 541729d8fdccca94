//! Machine-found lower-bound witnesses for the set-agreement reproduction.
//!
//! The paper's `n + 2m − k` space lower bound (Theorem 2) is proved by
//! *constructing* executions: drive processes until they cover registers
//! with pending writes, release the covering as a block write, and splice
//! invisible fragments in between. `sa-lowerbound` builds those executions
//! by hand; this crate finds them **by search**, driving the explorer's
//! state machinery over schedule space with a goal predicate instead of a
//! safety predicate:
//!
//! * [`goal`] — the [`WitnessGoal`] trait and its implementations:
//!   [`Covering`] (p processes poised to write p pairwise-distinct
//!   locations) and [`BlockWrite`] (a covering whose covered locations
//!   were all written before, so releasing it obliterates information) —
//!   plus the block-write mechanics ([`covered_locations`],
//!   [`block_write`], [`obliterates`]) they are built from.
//! * [`driver`] — [`search`]: a level-synchronized BFS over schedule space
//!   that deduplicates configurations by their (optionally
//!   symmetry-canonicalized) 128-bit `StateKey`, evaluates the goal on
//!   every first visit, and keeps the best witness under a total order
//!   (most registers, widest covering, shallowest, lex-min schedule).
//!   Levels are expanded across worker threads and merged in submission
//!   order, so results are **byte-identical at any thread count**.
//! * [`witness`] — the replayable [`Witness`] artifact (schedule + goal +
//!   [`Certificate`]) and the single replay [`verify`] path that checks
//!   hand-built and machine-found witnesses alike.
//!
//! The search plugs into the unified execution surface as
//! [`Backend::AdversarySearch`](sa_runtime::Backend::AdversarySearch)
//! (knobs in [`SearchConfig`], goal selector in [`SearchGoal`] — both
//! defined in `sa-runtime` so the backend enum stays dependency-free) and
//! into campaigns as `mode = adversary-search`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod driver;
pub mod goal;
pub mod witness;

pub use driver::{search, SearchReport, SearchStop};
pub use goal::{
    block_write, covered_locations, covering_measure, goal_for, obliterates, poised_write_location,
    BlockWrite, Covering, CoveringPair, GoalMeasure, WitnessGoal,
};
pub use sa_runtime::{SearchConfig, SearchGoal};
pub use witness::{location_label, verify, Certificate, VerifyError, Witness};
