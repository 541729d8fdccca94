//! Shared-memory substrate for the set-agreement reproduction.
//!
//! The paper "On the Space Complexity of Set Agreement" (PODC 2015) works in
//! the standard asynchronous shared-memory model: processes communicate by
//! applying atomic read and write operations to multi-writer multi-reader
//! registers, and its algorithms are expressed over multi-writer *snapshot
//! objects* (update/scan), which are implementable from registers.
//!
//! This crate provides that substrate in three forms:
//!
//! * [`SimMemory`] — a deterministic, single-threaded memory driven one
//!   atomic operation at a time by the simulator in `sa-runtime`. The
//!   interleaving chosen by a scheduler is the linearization order, which is
//!   what makes adversarial scheduling and exhaustive exploration possible.
//! * [`SharedMemory`] — the same objects behind locks so that real OS threads
//!   can drive the same algorithm state machines concurrently.
//! * [`constructions`] — snapshot objects *built from registers* (the
//!   double-collect multi-writer snapshot, the single-writer wait-free
//!   snapshot with helping, and an anonymous variant), which realize the
//!   space accounting the paper relies on when converting "components" into
//!   "registers".
//!
//! Space usage is measured by [`MemoryMetrics`], which holds every location
//! (register or snapshot component) ever written, so experiments can report
//! measured space next to the paper's formulas.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod constructions;
mod metrics;
mod shared;
mod sim;

pub use constructions::{
    IdTags, NonceTags, RegisterSnapshot, SnapshotHandle, SwmrCell, SwmrHandle, SwmrSnapshot,
    TagSource, Tagged, DEFAULT_SCAN_ATTEMPTS,
};
pub use metrics::{Location, MemoryMetrics};
pub use shared::SharedMemory;
pub use sim::SimMemory;
