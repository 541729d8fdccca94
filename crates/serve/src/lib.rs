//! **sa-serve** — set agreement as a service.
//!
//! The paper motivates *repeated* k-set agreement as the backbone of
//! replicated services (Herlihy's universal construction: agree, round
//! after round, on what to apply next). This crate is that story made
//! executable at service scale: a long-running process that accepts
//! `propose(client, value)` calls, batches concurrent proposals into
//! repeated-agreement instances — one batch is one instance of the
//! Figure 4 automaton per participating process — and answers every client
//! with its decided value and instance id.
//!
//! The pieces, each its own module:
//!
//! * [`Batcher`] — the global sequencer: cuts arrival-ordered batches at
//!   the `batch_max` cutoff and numbers them with sequential instance ids,
//!   *before* any sharding decision, so batch composition is independent of
//!   the shard count.
//! * [`LoadGenerator`] — an open-loop driver: `rate` proposals per tick
//!   from a pool of simulated clients, deterministic in the seed.
//! * [`LatencyHistogram`] — HDR-style fixed-memory latency recording with
//!   p50/p90/p99/p999 estimation and exact cross-shard merging.
//! * [`serve`] — the service loop: batches dispatch to `shards` worker
//!   threads over per-shard MPSC queues (`instance % shards`), each batch
//!   is stepped by [`sa_runtime::Executor`] under a fixed schedule with no
//!   scheduler (round-robin contention, then solo completion), and a
//!   graceful drain flushes, hangs up, joins and merges.
//!
//! Executions are driven either directly ([`serve`] with a
//! [`ServeConfig`]) or through the facade crate's one entry point,
//! `ExecutionPlan::execute(Backend::Serve(options))`. Under the virtual
//! clock the full report — decided values, latencies, throughput — is
//! bit-for-bit reproducible at any shard count; see [`service`](self) for
//! the argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batcher;
mod histogram;
mod loadgen;
mod service;

pub use batcher::{Batch, Batcher, Proposal};
pub use histogram::LatencyHistogram;
pub use loadgen::LoadGenerator;
pub use sa_runtime::{ServeClock, ServeLoad, ServeOptions};
pub use service::{serve, DecidedEntry, ServeConfig, ServeReport};
