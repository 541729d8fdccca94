//! **sa-sweep** — the parallel scenario-sweep engine of the set-agreement
//! reproduction.
//!
//! The paper's claims are parameterized over `(n, m, k)`, algorithms and
//! adversaries; checking them at scale means running *families* of
//! scenarios, not one [`ExecutionPlan`](set_agreement::ExecutionPlan) at a
//! time. This crate provides:
//!
//! * [`CampaignSpec`] — a declarative campaign: a parameter grid (or
//!   explicit cells), algorithms, adversary templates (including
//!   `crash:<inner>:<f>` crash-failure wrappers), seeds, workload, budget
//!   and execution [mode](CampaignMode), buildable in code or parsed from
//!   `key = value` text (and rendered back via `Display`, which
//!   round-trips).
//! * [`expand`] — deterministic expansion into an indexed work list with
//!   per-scenario derived seeds (crash points included).
//! * [`run_campaign`] — parallel execution over a thread pool, streaming
//!   one [`SweepRecord`] JSON line per scenario **in deterministic order**:
//!   the same campaign and seed produce byte-identical output at any thread
//!   count. `mode = explore` campaigns route each (cell, algorithm) pair
//!   through the bounded exhaustive explorer instead of sampling one
//!   schedule, upgrading "sampled, 0 violations" to "exhaustively
//!   verified"; `explore-threads = N` hands them to the parallel
//!   breadth-first explorer, whose records (including memory statistics) are
//!   byte-identical at any worker count. `mode = serve` campaigns run each
//!   cell as a batched, sharded set-agreement service (`sa-serve`) under an
//!   open-loop load generator and the virtual clock, recording latency
//!   percentiles, `ops_per_sec` and a fingerprint of the decided-value
//!   log — byte-identical at any shard count.
//! * [`Summary`] / [`diff`] — per-cell aggregation (pass/fail counts, crash
//!   accounting, exhaustive-vs-sampled coverage, max space used vs the
//!   Figure 1 accounting, bound-violation flags) and a scenario-level
//!   regression diff between two result files.
//! * the `sweep` CLI binary — `sweep run`, `sweep serve`, `sweep
//!   summarize`, `sweep diff`.
//!
//! # Example
//!
//! ```
//! use sa_sweep::{run_campaign_collect, CampaignSpec, EngineConfig, Summary};
//!
//! let spec = CampaignSpec::parse(
//!     "name = doc\n\
//!      n = 4..5\n\
//!      m = 1\n\
//!      k = 2\n\
//!      algorithms = oneshot\n\
//!      adversaries = obstruction:20\n\
//!      seeds = 2\n",
//! )?;
//! let (records, outcome) = run_campaign_collect(&spec, EngineConfig::default());
//! assert_eq!(records.len(), 4); // 2 cells x 1 algorithm x 1 adversary x 2 seeds
//! assert!(outcome.clean());
//! let summary = Summary::of(&records);
//! assert_eq!(summary.totals.safety_violations, 0);
//! # Ok::<(), sa_sweep::SpecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod grid;
mod lint;
mod record;
mod spec;
mod summary;

pub use engine::{run_campaign, run_campaign_collect, run_scenario, CampaignOutcome, EngineConfig};
pub use grid::{derive_seed, expand, ExpansionStats, ScenarioSpec};
pub use lint::{lint_source, parse_allowlist, stale_entries, AllowEntry, LintFinding};
pub use record::{merge_shards, parse_jsonl, ParseError, SweepRecord};
pub use spec::{
    parse_algorithms, parse_seeds, parse_values, AdversarySpec, BackendSpec, CampaignMode,
    CampaignSpec, ParamsSpec, SearchTarget, SpecError, Survivors, WorkloadSpec,
};
pub use summary::{diff, CellKey, CellSummary, DiffEntry, DiffReport, Summary};

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::{
        diff, expand, merge_shards, run_campaign, run_campaign_collect, AdversarySpec, BackendSpec,
        CampaignMode, CampaignOutcome, CampaignSpec, EngineConfig, ParamsSpec, SearchTarget,
        Summary, Survivors, SweepRecord, WorkloadSpec,
    };
}
