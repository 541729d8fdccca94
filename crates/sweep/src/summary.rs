//! Aggregation of sweep records: per-cell summaries and cross-file diffs.
//!
//! A *cell* is one `(n, m, k, algorithm)` combination; the summary
//! aggregates all its scenarios (across adversaries and seeds) into
//! pass/fail counts, the maximum space actually used, and bound-violation
//! flags — the tabular counterpart of the paper's Figure 1 "measured"
//! column. The diff compares two result files scenario-by-scenario and is
//! the regression gate used in CI.

use crate::record::SweepRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Identity of a summary cell.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellKey {
    /// `n` of the cell.
    pub n: usize,
    /// `m` of the cell.
    pub m: usize,
    /// `k` of the cell.
    pub k: usize,
    /// Algorithm label.
    pub algorithm: String,
    /// Instances of repeated agreement (1 for one-shot), so repeated
    /// variants with different instance counts stay distinct cells.
    pub instances: usize,
}

/// Aggregates of all scenarios of one cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellSummary {
    /// Scenarios aggregated.
    pub runs: u64,
    /// Scenarios violating validity or k-agreement.
    pub safety_violations: u64,
    /// Scenarios writing more base objects than declared.
    pub bound_violations: u64,
    /// Scenarios whose progress obligation applied.
    pub progress_required: u64,
    /// Obliged scenarios whose survivors failed to decide.
    pub progress_failures: u64,
    /// Scenarios run under a crash adversary (at least one crash point).
    pub crashed_runs: u64,
    /// Total crash points injected across all scenarios.
    pub total_crashes: u64,
    /// Scenarios executed by exhaustive exploration instead of sampling.
    pub explored: u64,
    /// Explored scenarios whose state space was exhausted violation-free.
    pub verified: u64,
    /// Explored scenarios whose search found a safety violation (a real
    /// counterexample, as opposed to a budget truncation).
    pub explored_violations: u64,
    /// Maximum states visited by any exploration of this cell.
    pub max_explored_states: u64,
    /// Maximum exploration depth (longest schedule prefix examined) of any
    /// exploration of this cell.
    pub max_explored_depth: u64,
    /// Explored scenarios run on the work-stealing parallel explorer.
    pub parallel_explored: u64,
    /// Explored scenarios deduplicated up to process-id orbits
    /// (`symmetry = process-ids` applied).
    pub symmetry_reduced: u64,
    /// Explored scenarios that requested symmetry but fell back to plain
    /// exploration (`symmetry = fallback-off`).
    pub symmetry_fallbacks: u64,
    /// Maximum orbit representatives visited by any symmetry-reduced
    /// exploration of this cell.
    pub max_orbit_states: u64,
    /// Maximum full-state lower bound of any symmetry-reduced exploration
    /// of this cell.
    pub max_full_states_lower_bound: u64,
    /// Scenarios pruned by the retired sleep-set mode
    /// (`reduction = sleep-set`, found only in older result files).
    pub sleep_reduced: u64,
    /// Scenarios that requested reduction but fell back to plain
    /// exploration (`reduction = fallback-off`).
    pub sleep_fallbacks: u64,
    /// Total expansions performed across the cell's reduced scenarios.
    pub total_expansions: u64,
    /// Total commuting sibling expansions pruned by sleep sets across the
    /// cell's scenarios.
    pub total_sleep_pruned: u64,
    /// Explorations reduced by persistent sets
    /// (`reduction = persistent-set` applied).
    pub persistent_reduced: u64,
    /// Total expansions drawn from persistent (or DPOR backtrack) sets
    /// across the cell's persistent-set scenarios.
    pub total_persistent_expanded: u64,
    /// Total enabled transitions left permanently unexpanded by persistent
    /// sets across the cell's scenarios — each one prunes a whole subtree,
    /// cutting states rather than just sibling transitions.
    pub total_states_cut: u64,
    /// Maximum peak BFS level width of any parallel exploration of this
    /// cell. Parallel `frontier_peak` counts the widest level of the
    /// level-synchronized search — the serial explorer's DFS stack depth is
    /// a different quantity and is deliberately not aggregated here.
    pub max_frontier_peak: u64,
    /// Maximum estimated explorer memory (bytes) of any parallel
    /// exploration of this cell.
    pub max_approx_bytes: u64,
    /// Scenarios executed on the threaded backend (real OS threads).
    pub threaded_runs: u64,
    /// Total wall-clock microseconds across the cell's threaded runs.
    pub total_wall_us: u64,
    /// Total shared-memory steps across the cell's threaded runs.
    pub threaded_steps: u64,
    /// Scenarios executed as batched service runs.
    pub serve_runs: u64,
    /// Total proposals accepted across the cell's service runs.
    pub serve_proposals: u64,
    /// Total batches cut across the cell's service runs.
    pub serve_batches: u64,
    /// Worst median proposal latency of any service run (microseconds).
    pub max_p50_us: u64,
    /// Worst 99th-percentile proposal latency of any service run
    /// (microseconds).
    pub max_p99_us: u64,
    /// Peak decided-proposals-per-second of any service run.
    pub max_ops_per_sec: u64,
    /// Scenarios executed as goal-directed adversary searches.
    pub searched: u64,
    /// Search scenarios that found a witness.
    pub witnesses_found: u64,
    /// Search scenarios with a register target whose best witness fell
    /// short of it (a rediscovery miss — the machine failed to re-find the
    /// paper's bound within its budgets).
    pub search_misses: u64,
    /// Largest register target any search of this cell chased (for the
    /// rediscovery cells: `n + 2m − k`).
    pub search_target: usize,
    /// Deepest best-witness schedule of any search of this cell.
    pub max_witness_depth: u64,
    /// Widest covering (distinct covered locations) of any best witness.
    pub max_registers_covered: usize,
    /// Largest `written ∪ covered` of any best witness.
    pub max_witness_registers: usize,
    /// Maximum distinct base objects written by any scenario.
    pub max_locations_written: usize,
    /// The paper's register bound (identical across the cell).
    pub register_bound: usize,
    /// Declared base objects (identical across the cell).
    pub component_bound: usize,
    /// Maximum steps any scenario executed.
    pub max_steps_seen: u64,
    /// Total steps across all scenarios.
    pub total_steps: u64,
}

/// A whole summarized campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// Per-cell aggregates, in deterministic key order.
    pub cells: BTreeMap<CellKey, CellSummary>,
    /// Total records.
    pub records: u64,
    /// Total safety violations.
    pub safety_violations: u64,
    /// Total bound violations.
    pub bound_violations: u64,
    /// Total progress failures among obliged scenarios.
    pub progress_failures: u64,
    /// Total crash points injected.
    pub total_crashes: u64,
    /// Total explore-mode records.
    pub explored: u64,
    /// Explore-mode records that were exhaustively verified.
    pub verified: u64,
    /// Explore-mode records whose search hit a budget before exhausting the
    /// state space *without* finding a violation (violation-finding
    /// explorations are counted under [`Summary::safety_violations`], not
    /// here).
    pub truncated_explorations: u64,
    /// Explore-mode records run on the work-stealing parallel explorer.
    pub parallel_explored: u64,
    /// Explore-mode records deduplicated up to process-id orbits.
    pub symmetry_reduced: u64,
    /// Explore-mode records that requested symmetry but fell back.
    pub symmetry_fallbacks: u64,
    /// Total orbit representatives across all symmetry-reduced records.
    pub total_orbit_states: u64,
    /// Total full-state lower bound across all symmetry-reduced records.
    pub total_full_states_lower_bound: u64,
    /// Records pruned by the retired sleep-set mode (older result files).
    pub sleep_reduced: u64,
    /// Records that requested reduction but fell back.
    pub sleep_fallbacks: u64,
    /// Total expansions performed across all reduced records.
    pub total_expansions: u64,
    /// Total commuting sibling expansions pruned across all reduced
    /// records.
    pub total_sleep_pruned: u64,
    /// Explore records reduced by persistent sets.
    pub persistent_reduced: u64,
    /// Total expansions drawn from persistent (or DPOR backtrack) sets
    /// across all persistent-set records.
    pub total_persistent_expanded: u64,
    /// Total enabled transitions left permanently unexpanded by persistent
    /// sets across all persistent-set records.
    pub total_states_cut: u64,
    /// Maximum peak BFS level width across all parallel explorations
    /// (the widest level of the level-synchronized search, not a DFS stack
    /// depth).
    pub max_frontier_peak: u64,
    /// Maximum estimated explorer memory (bytes) across all parallel
    /// explorations.
    pub max_approx_bytes: u64,
    /// Records executed on the threaded backend.
    pub threaded_runs: u64,
    /// Total wall-clock microseconds across all threaded records.
    pub total_wall_us: u64,
    /// Total shared-memory steps across all threaded records.
    pub threaded_steps: u64,
    /// Records executed as batched service runs.
    pub serve_runs: u64,
    /// Total proposals accepted across all service runs.
    pub serve_proposals: u64,
    /// Total batches cut across all service runs.
    pub serve_batches: u64,
    /// Worst median proposal latency across all service runs
    /// (microseconds).
    pub max_p50_us: u64,
    /// Worst 99th-percentile proposal latency across all service runs
    /// (microseconds).
    pub max_p99_us: u64,
    /// Peak decided-proposals-per-second across all service runs.
    pub max_ops_per_sec: u64,
    /// Records executed as goal-directed adversary searches.
    pub searched: u64,
    /// Search records that found a witness.
    pub witnesses_found: u64,
    /// Found witnesses that replayed successfully through the verifier.
    pub witnesses_verified: u64,
    /// Search records whose best witness fell short of their register
    /// target (see [`Summary::rediscovery_misses`]).
    pub search_misses: u64,
}

impl Summary {
    /// Aggregates records into per-cell summaries.
    pub fn of(records: &[SweepRecord]) -> Self {
        let mut summary = Summary::default();
        for record in records {
            let key = CellKey {
                n: record.n,
                m: record.m,
                k: record.k,
                algorithm: record.algorithm.clone(),
                instances: record.instances,
            };
            let cell = summary.cells.entry(key).or_default();
            cell.runs += 1;
            cell.register_bound = record.register_bound;
            cell.component_bound = record.component_bound;
            cell.max_locations_written = cell.max_locations_written.max(record.locations_written);
            cell.max_steps_seen = cell.max_steps_seen.max(record.steps);
            cell.total_steps += record.steps;
            if !record.safe() {
                cell.safety_violations += 1;
                summary.safety_violations += 1;
            }
            if !record.bound_ok {
                cell.bound_violations += 1;
                summary.bound_violations += 1;
            }
            if record.progress_required {
                cell.progress_required += 1;
                if !record.survivors_decided {
                    cell.progress_failures += 1;
                    summary.progress_failures += 1;
                }
            }
            if record.crashes > 0 {
                cell.crashed_runs += 1;
                cell.total_crashes += record.crashes as u64;
                summary.total_crashes += record.crashes as u64;
            }
            if record.backend == "threaded" {
                cell.threaded_runs += 1;
                cell.total_wall_us += record.wall_us;
                cell.threaded_steps += record.steps;
                summary.threaded_runs += 1;
                summary.total_wall_us += record.wall_us;
                summary.threaded_steps += record.steps;
            }
            if record.backend == "serve" {
                cell.serve_runs += 1;
                cell.serve_proposals += record.proposals;
                cell.serve_batches += record.batches;
                cell.max_p50_us = cell.max_p50_us.max(record.p50_us);
                cell.max_p99_us = cell.max_p99_us.max(record.p99_us);
                cell.max_ops_per_sec = cell.max_ops_per_sec.max(record.ops_per_sec);
                summary.serve_runs += 1;
                summary.serve_proposals += record.proposals;
                summary.serve_batches += record.batches;
                summary.max_p50_us = summary.max_p50_us.max(record.p50_us);
                summary.max_p99_us = summary.max_p99_us.max(record.p99_us);
                summary.max_ops_per_sec = summary.max_ops_per_sec.max(record.ops_per_sec);
            }
            if record.mode == "explore" || record.mode == "adversary-search" {
                // Older result files carry sleep-set reductions on both
                // exhaustive exploration and adversary search records, so
                // the aggregation sits outside the per-mode branches.
                if record.reduction == "sleep-set" {
                    cell.sleep_reduced += 1;
                    cell.total_expansions += record.expansions;
                    cell.total_sleep_pruned += record.sleep_pruned;
                    summary.sleep_reduced += 1;
                    summary.total_expansions += record.expansions;
                    summary.total_sleep_pruned += record.sleep_pruned;
                } else if record.reduction == "persistent-set" {
                    cell.persistent_reduced += 1;
                    cell.total_expansions += record.expansions;
                    cell.total_sleep_pruned += record.sleep_pruned;
                    cell.total_persistent_expanded += record.persistent_expanded;
                    cell.total_states_cut += record.states_cut;
                    summary.persistent_reduced += 1;
                    summary.total_expansions += record.expansions;
                    summary.total_sleep_pruned += record.sleep_pruned;
                    summary.total_persistent_expanded += record.persistent_expanded;
                    summary.total_states_cut += record.states_cut;
                } else if record.reduction == "fallback-off" {
                    cell.sleep_fallbacks += 1;
                    summary.sleep_fallbacks += 1;
                }
            }
            if record.mode == "adversary-search" {
                cell.searched += 1;
                summary.searched += 1;
                cell.search_target = cell.search_target.max(record.target_registers);
                cell.max_witness_depth = cell.max_witness_depth.max(record.witness_depth);
                cell.max_registers_covered =
                    cell.max_registers_covered.max(record.registers_covered);
                cell.max_witness_registers =
                    cell.max_witness_registers.max(record.witness_registers);
                cell.max_explored_states = cell.max_explored_states.max(record.explored_states);
                cell.max_explored_depth = cell.max_explored_depth.max(record.explored_depth);
                if record.witness_found {
                    cell.witnesses_found += 1;
                    summary.witnesses_found += 1;
                    if record.verified {
                        summary.witnesses_verified += 1;
                    }
                }
                if record.target_registers > 0 && record.witness_registers < record.target_registers
                {
                    cell.search_misses += 1;
                    summary.search_misses += 1;
                }
            }
            if record.mode == "explore" {
                cell.explored += 1;
                summary.explored += 1;
                cell.max_explored_states = cell.max_explored_states.max(record.explored_states);
                cell.max_explored_depth = cell.max_explored_depth.max(record.explored_depth);
                if record.symmetry == "process-ids" {
                    cell.symmetry_reduced += 1;
                    summary.symmetry_reduced += 1;
                    cell.max_orbit_states = cell.max_orbit_states.max(record.orbit_states);
                    cell.max_full_states_lower_bound = cell
                        .max_full_states_lower_bound
                        .max(record.full_states_lower_bound);
                    summary.total_orbit_states += record.orbit_states;
                    summary.total_full_states_lower_bound += record.full_states_lower_bound;
                } else if record.symmetry == "fallback-off" {
                    cell.symmetry_fallbacks += 1;
                    summary.symmetry_fallbacks += 1;
                }
                if record.backend == "parallel-explore" {
                    cell.parallel_explored += 1;
                    summary.parallel_explored += 1;
                    cell.max_frontier_peak = cell.max_frontier_peak.max(record.frontier_peak);
                    cell.max_approx_bytes = cell.max_approx_bytes.max(record.approx_bytes);
                    summary.max_frontier_peak = summary.max_frontier_peak.max(record.frontier_peak);
                    summary.max_approx_bytes = summary.max_approx_bytes.max(record.approx_bytes);
                }
                if record.verified {
                    cell.verified += 1;
                    summary.verified += 1;
                } else if record.safe() {
                    // Unverified but no violation found: the search was cut
                    // by a budget. (A found violation is a safety violation,
                    // not an exhaustiveness gap.)
                    summary.truncated_explorations += 1;
                } else {
                    cell.explored_violations += 1;
                }
            }
            summary.records += 1;
        }
        summary
    }

    /// `true` when the campaign is free of safety and bound violations.
    pub fn clean(&self) -> bool {
        self.safety_violations == 0 && self.bound_violations == 0
    }

    /// Explore-mode records whose state space was truncated by a budget
    /// before it could be exhausted (and that found no violation — those
    /// count as safety violations instead). Zero for sampled campaigns;
    /// non-zero is an exhaustiveness violation for an explore campaign.
    pub fn exhaustiveness_gaps(&self) -> u64 {
        self.truncated_explorations
    }

    /// Adversary-search records whose best witness fell short of their
    /// register target — the machine failed to re-find the paper's
    /// `n + 2m − k` structure within its budgets. Zero for campaigns
    /// without search records; non-zero fails `sweep summarize` the same
    /// way an exhaustiveness gap does.
    pub fn rediscovery_misses(&self) -> u64 {
        self.search_misses
    }

    /// Renders the summary as an aligned text table. The `coverage` column
    /// distinguishes exhaustively verified cells (`exhaustive`: every
    /// reachable interleaving checked) from sampled ones (`sampled`: zero
    /// violations observed, which is strictly weaker); `TRUNCATED` flags
    /// explorations that hit a budget before exhausting the state space.
    ///
    /// Campaigns with explore-mode records gain `states`/`depth` columns
    /// (maximum states visited and maximum exploration depth per cell);
    /// campaigns with parallel-explore records additionally gain
    /// `frontier`/`mem-MB` columns (peak BFS level width and estimated peak
    /// explorer memory per cell); campaigns with symmetry-reduced records
    /// gain `orbits`/`full-states`/`red` columns, where `red` reads `-`
    /// when the full-state lower bound only equals the orbit count and so
    /// says nothing about the real reduction; campaigns with
    /// partial-order-reduced records (`persistent-set`, or `sleep-set` from
    /// older files) gain `expanded`/`pruned`/`por` columns (total
    /// expansions performed, commuting sibling expansions pruned, and the
    /// multiplicative factor `(expanded + pruned) / expanded` per cell —
    /// multiplicative on top of any symmetry reduction); campaigns with
    /// threaded records gain
    /// `wall-ms`/`steps/s` columns
    /// (total wall clock, millisecond display of the microsecond totals, and
    /// aggregate throughput per cell); campaigns with adversary-search
    /// records gain `goals`/`target`/`w-regs`/`covered`/`w-depth` columns
    /// (witnesses found per goal searched, the register target, and the best
    /// witness's registers, covering width and depth per cell), with
    /// `MISSED` in the coverage column flagging rediscovery misses.
    pub fn render(&self) -> String {
        let show_explore = self.explored > 0;
        let show_parallel = self.parallel_explored > 0;
        let show_symmetry = self.symmetry_reduced + self.symmetry_fallbacks > 0;
        let show_reduction =
            self.sleep_reduced + self.persistent_reduced + self.sleep_fallbacks > 0;
        let show_threaded = self.threaded_runs > 0;
        let show_serve = self.serve_runs > 0;
        let show_searched = self.searched > 0;
        let mut out = String::new();
        let mut header = format!(
            "{:>3} {:>2} {:>2} {:<24} {:>5} {:>7} {:>7} {:>6} {:>9} {:>9} {:>7} {:>6} {:>6} {:<10}",
            "n",
            "m",
            "k",
            "algorithm",
            "runs",
            "unsafe",
            "starved",
            "crash",
            "max-used",
            "declared",
            "bound",
            "reg",
            "steps",
            "coverage"
        );
        if show_explore {
            let _ = write!(header, " {:>9} {:>6}", "states", "depth");
        }
        if show_parallel {
            let _ = write!(header, " {:>9} {:>8}", "frontier", "mem-MB");
        }
        if show_symmetry {
            let _ = write!(
                header,
                " {:>9} {:>11} {:>6}",
                "orbits", "full-states", "red"
            );
        }
        if show_reduction {
            let _ = write!(header, " {:>10} {:>10} {:>6}", "expanded", "pruned", "por");
        }
        if show_threaded {
            let _ = write!(header, " {:>8} {:>9}", "wall-ms", "steps/s");
        }
        if show_serve {
            let _ = write!(header, " {:>8} {:>8} {:>9}", "p50-us", "p99-us", "ops/s");
        }
        if show_searched {
            let _ = write!(
                header,
                " {:>7} {:>6} {:>6} {:>7} {:>7}",
                "goals", "target", "w-regs", "covered", "w-depth"
            );
        }
        let _ = writeln!(out, "{header}");
        for (key, cell) in &self.cells {
            let algorithm = if key.instances > 1 {
                format!("{} x{}", key.algorithm, key.instances)
            } else {
                key.algorithm.clone()
            };
            let coverage = if cell.explored == 0 && cell.searched > 0 {
                // A search cell: "searched" means every goal found its
                // target (or chased none); MISSED is the loud rediscovery
                // failure.
                if cell.search_misses > 0 {
                    "MISSED"
                } else {
                    "searched"
                }
            } else if cell.explored == 0 {
                "sampled"
            } else if cell.explored_violations > 0 {
                // The exploration found a real counterexample — loud and
                // distinct from a budget truncation (and from a sampled
                // violation in a merged file, which the unsafe column shows).
                "REFUTED"
            } else if cell.verified < cell.explored {
                "TRUNCATED"
            } else if cell.explored == cell.runs {
                "exhaustive"
            } else {
                "mixed"
            };
            let mut row = format!(
                "{:>3} {:>2} {:>2} {:<24} {:>5} {:>7} {:>7} {:>6} {:>9} {:>9} {:>7} {:>6} {:>6} {:<10}",
                key.n,
                key.m,
                key.k,
                algorithm,
                cell.runs,
                cell.safety_violations,
                format!("{}/{}", cell.progress_failures, cell.progress_required),
                cell.total_crashes,
                cell.max_locations_written,
                cell.component_bound,
                if cell.bound_violations == 0 {
                    "ok"
                } else {
                    "VIOL"
                },
                cell.register_bound,
                cell.max_steps_seen,
                coverage,
            );
            if show_explore {
                if cell.explored > 0 {
                    let _ = write!(
                        row,
                        " {:>9} {:>6}",
                        cell.max_explored_states, cell.max_explored_depth
                    );
                } else {
                    let _ = write!(row, " {:>9} {:>6}", "-", "-");
                }
            }
            if show_parallel {
                if cell.parallel_explored > 0 {
                    let _ = write!(
                        row,
                        " {:>9} {:>8.1}",
                        cell.max_frontier_peak,
                        cell.max_approx_bytes as f64 / (1024.0 * 1024.0)
                    );
                } else {
                    let _ = write!(row, " {:>9} {:>8}", "-", "-");
                }
            }
            if show_symmetry {
                if cell.symmetry_reduced > 0 {
                    let _ = write!(
                        row,
                        " {:>9} {:>11} {:>6}",
                        cell.max_orbit_states,
                        format!("\u{2265}{}", cell.max_full_states_lower_bound),
                        reduction_factor(cell.max_full_states_lower_bound, cell.max_orbit_states)
                            .map_or_else(|| "-".into(), |r| format!("{r:.1}x"))
                    );
                } else if cell.symmetry_fallbacks > 0 {
                    let _ = write!(row, " {:>9} {:>11} {:>6}", "-", "fallback", "-");
                } else {
                    let _ = write!(row, " {:>9} {:>11} {:>6}", "-", "-", "-");
                }
            }
            if show_reduction {
                if cell.sleep_reduced + cell.persistent_reduced > 0 {
                    let _ = write!(
                        row,
                        " {:>10} {:>10} {:>6}",
                        cell.total_expansions,
                        cell.total_sleep_pruned,
                        por_factor(cell.total_expansions, cell.total_sleep_pruned)
                            .map_or_else(|| "-".into(), |r| format!("{r:.1}x"))
                    );
                } else if cell.sleep_fallbacks > 0 {
                    let _ = write!(row, " {:>10} {:>10} {:>6}", "-", "fallback", "-");
                } else {
                    let _ = write!(row, " {:>10} {:>10} {:>6}", "-", "-", "-");
                }
            }
            if show_threaded {
                if cell.threaded_runs > 0 {
                    let _ = write!(
                        row,
                        " {:>8.3} {:>9}",
                        cell.total_wall_us as f64 / 1000.0,
                        steps_per_sec(cell.threaded_steps, cell.total_wall_us)
                            .map_or_else(|| "-".into(), |r| r.to_string())
                    );
                } else {
                    let _ = write!(row, " {:>8} {:>9}", "-", "-");
                }
            }
            if show_serve {
                if cell.serve_runs > 0 {
                    let _ = write!(
                        row,
                        " {:>8} {:>8} {:>9}",
                        cell.max_p50_us, cell.max_p99_us, cell.max_ops_per_sec
                    );
                } else {
                    let _ = write!(row, " {:>8} {:>8} {:>9}", "-", "-", "-");
                }
            }
            if show_searched {
                if cell.searched > 0 {
                    let _ = write!(
                        row,
                        " {:>7} {:>6} {:>6} {:>7} {:>7}",
                        format!("{}/{}", cell.witnesses_found, cell.searched),
                        cell.search_target,
                        cell.max_witness_registers,
                        cell.max_registers_covered,
                        cell.max_witness_depth
                    );
                } else {
                    let _ = write!(
                        row,
                        " {:>7} {:>6} {:>6} {:>7} {:>7}",
                        "-", "-", "-", "-", "-"
                    );
                }
            }
            let _ = writeln!(out, "{row}");
        }
        let _ = writeln!(
            out,
            "total: {} records, {} safety violations, {} bound violations, {} progress failures, \
             {} crashes injected",
            self.records,
            self.safety_violations,
            self.bound_violations,
            self.progress_failures,
            self.total_crashes
        );
        if self.explored > 0 {
            let _ = writeln!(
                out,
                "exploration: {} cells explored, {} exhaustively verified, {} truncated",
                self.explored,
                self.verified,
                self.exhaustiveness_gaps()
            );
        }
        if self.parallel_explored > 0 {
            let _ = writeln!(
                out,
                "parallel explore: {} cells on the work-stealing explorer, \
                 peak BFS level width {} states, ~{:.1} MB peak explorer memory",
                self.parallel_explored,
                self.max_frontier_peak,
                self.max_approx_bytes as f64 / (1024.0 * 1024.0)
            );
        }
        if self.symmetry_reduced + self.symmetry_fallbacks > 0 {
            let rate = if self.total_orbit_states == 0 {
                "- reduction".into()
            } else {
                reduction_factor(self.total_full_states_lower_bound, self.total_orbit_states)
                    .map_or_else(
                        || "bound uninformative".into(),
                        |r| format!("{r:.1}x reduction"),
                    )
            };
            let _ = writeln!(
                out,
                "symmetry: {} orbit-reduced explorations ({} fell back), \
                 {} orbit states standing for \u{2265}{} full states ({rate})",
                self.symmetry_reduced,
                self.symmetry_fallbacks,
                self.total_orbit_states,
                self.total_full_states_lower_bound
            );
        }
        if self.sleep_reduced + self.persistent_reduced + self.sleep_fallbacks > 0 {
            let rate = por_factor(self.total_expansions, self.total_sleep_pruned)
                .map_or_else(|| "-".into(), |r| format!("{r:.1}x"));
            let _ = writeln!(
                out,
                "sleep sets: {} reduced runs ({} fell back), {} expansions with \
                 {} commuting siblings pruned ({rate} reduction)",
                self.sleep_reduced + self.persistent_reduced,
                self.sleep_fallbacks,
                self.total_expansions,
                self.total_sleep_pruned
            );
        }
        if self.persistent_reduced > 0 {
            let _ = writeln!(
                out,
                "persistent sets: {} reduced runs, {} expansions drawn from \
                 persistent/backtrack sets, {} enabled transitions cut \
                 (whole subtrees, not just commuting siblings)",
                self.persistent_reduced, self.total_persistent_expanded, self.total_states_cut
            );
        }
        if self.threaded_runs > 0 {
            let rate = steps_per_sec(self.threaded_steps, self.total_wall_us)
                .map_or_else(|| "-".into(), |r| format!("~{r}"));
            let _ = writeln!(
                out,
                "threaded: {} runs on real threads, {} total steps in {:.3} ms wall clock \
                 ({rate} steps/s)",
                self.threaded_runs,
                self.threaded_steps,
                self.total_wall_us as f64 / 1000.0
            );
        }
        if self.serve_runs > 0 {
            let _ = writeln!(
                out,
                "serve: {} service runs, {} proposals in {} batches, \
                 worst p50 {} us, worst p99 {} us, peak {} ops/s",
                self.serve_runs,
                self.serve_proposals,
                self.serve_batches,
                self.max_p50_us,
                self.max_p99_us,
                self.max_ops_per_sec
            );
        }
        if self.searched > 0 {
            let _ = writeln!(
                out,
                "adversary search: {} searches, {} witnesses found ({} replay-verified), \
                 {} rediscovery misses",
                self.searched, self.witnesses_found, self.witnesses_verified, self.search_misses
            );
        }
        out
    }
}

/// The reduction factor `full_states / orbit_states`; `None` when no orbit
/// was counted, or when the lower bound merely equals the orbit count. The
/// orbit bound degenerates to one full state per orbit when all inputs are
/// distinct, so equality carries no information about the real reduction
/// (the distinct 3/1/2 anonymous cell reads 1.0x that way, but measures
/// 137,318 full states against 21,137 orbits).
fn reduction_factor(full_states: u64, orbit_states: u64) -> Option<f64> {
    if orbit_states == 0 || full_states == orbit_states {
        return None;
    }
    Some(full_states as f64 / orbit_states as f64)
}

/// The sleep-set reduction factor `(expansions + pruned) / expansions` —
/// how much larger the expansion count would have been without pruning;
/// `None` when no expansion was counted.
fn por_factor(expansions: u64, pruned: u64) -> Option<f64> {
    if expansions == 0 {
        return None;
    }
    Some((expansions + pruned) as f64 / expansions as f64)
}

/// Aggregate steps-per-second over `wall_us` microseconds; `None` when the
/// wall clock never resolved (throughput would be meaningless, not huge).
fn steps_per_sec(steps: u64, wall_us: u64) -> Option<u64> {
    if wall_us == 0 {
        return None;
    }
    Some(steps.saturating_mul(1_000_000) / wall_us)
}

/// One scenario whose measurements changed between two result files.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Scenario identity ([`SweepRecord::key`]).
    pub key: String,
    /// Human-readable description of what changed.
    pub change: String,
    /// `true` if the change is a regression (newly unsafe, newly over
    /// bound, or newly starving), not just a measurement drift.
    pub regression: bool,
}

/// The comparison of two result files.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Scenario keys present only in the old file.
    pub removed: Vec<String>,
    /// Scenario keys present only in the new file.
    pub added: Vec<String>,
    /// Scenarios present in both with differing results.
    pub changed: Vec<DiffEntry>,
    /// Scenarios identical in both files.
    pub unchanged: u64,
}

impl DiffReport {
    /// `true` if any changed scenario is a regression.
    pub fn has_regressions(&self) -> bool {
        self.changed.iter().any(|entry| entry.regression)
    }

    /// Renders the report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for key in &self.removed {
            let _ = writeln!(out, "- only in old: {key}");
        }
        for key in &self.added {
            let _ = writeln!(out, "+ only in new: {key}");
        }
        for entry in &self.changed {
            let marker = if entry.regression { "!" } else { "~" };
            let _ = writeln!(out, "{marker} {}: {}", entry.key, entry.change);
        }
        let regressions = self.changed.iter().filter(|e| e.regression).count();
        let _ = writeln!(
            out,
            "diff: {} unchanged, {} changed ({} regressions), {} added, {} removed",
            self.unchanged,
            self.changed.len(),
            regressions,
            self.added.len(),
            self.removed.len()
        );
        out
    }
}

fn describe_changes(old: &SweepRecord, new: &SweepRecord) -> (String, bool) {
    let mut changes = Vec::new();
    let mut regression = false;
    if old.safe() != new.safe() {
        changes.push(format!("safe {} -> {}", old.safe(), new.safe()));
        regression |= !new.safe();
    }
    if old.bound_ok != new.bound_ok {
        changes.push(format!("bound_ok {} -> {}", old.bound_ok, new.bound_ok));
        regression |= !new.bound_ok;
    }
    if old.progress_ok() != new.progress_ok() {
        changes.push(format!(
            "progress_ok {} -> {}",
            old.progress_ok(),
            new.progress_ok()
        ));
        regression |= !new.progress_ok();
    }
    if old.locations_written != new.locations_written {
        changes.push(format!(
            "locations {} -> {}",
            old.locations_written, new.locations_written
        ));
    }
    if old.steps != new.steps {
        changes.push(format!("steps {} -> {}", old.steps, new.steps));
    }
    if old.decisions != new.decisions {
        changes.push(format!("decisions {} -> {}", old.decisions, new.decisions));
    }
    if old.decided_fingerprint != new.decided_fingerprint {
        changes.push(format!(
            "decided_fingerprint {:#x} -> {:#x}",
            old.decided_fingerprint, new.decided_fingerprint
        ));
    }
    if old.witness_registers != new.witness_registers {
        changes.push(format!(
            "witness_registers {} -> {}",
            old.witness_registers, new.witness_registers
        ));
        // Finding a smaller witness than before means the search lost
        // ground on the bound — gate on it like a safety change.
        regression |= new.witness_registers < old.witness_registers;
    }
    if old.witness_fingerprint != new.witness_fingerprint {
        changes.push(format!(
            "witness_fingerprint {:#x} -> {:#x}",
            old.witness_fingerprint, new.witness_fingerprint
        ));
    }
    (changes.join(", "), regression)
}

/// Compares two result files scenario-by-scenario (keyed by
/// [`SweepRecord::key`]; duplicate keys within one file keep the last
/// occurrence).
pub fn diff(old: &[SweepRecord], new: &[SweepRecord]) -> DiffReport {
    let old_by_key: BTreeMap<String, &SweepRecord> = old.iter().map(|r| (r.key(), r)).collect();
    let new_by_key: BTreeMap<String, &SweepRecord> = new.iter().map(|r| (r.key(), r)).collect();
    let mut report = DiffReport::default();
    for (key, old_record) in &old_by_key {
        match new_by_key.get(key) {
            None => report.removed.push(key.clone()),
            Some(new_record) => {
                let (change, regression) = describe_changes(old_record, new_record);
                if change.is_empty() {
                    report.unchanged += 1;
                } else {
                    report.changed.push(DiffEntry {
                        key: key.clone(),
                        change,
                        regression,
                    });
                }
            }
        }
    }
    for key in new_by_key.keys() {
        if !old_by_key.contains_key(key) {
            report.added.push(key.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seed: u64) -> SweepRecord {
        SweepRecord {
            campaign: "t".into(),
            scenario: seed,
            n: 6,
            m: 2,
            k: 3,
            algorithm: "figure3-oneshot".into(),
            instances: 1,
            adversary: "obstruction:50".into(),
            mode: "sample".into(),
            backend: "scheduled".into(),
            contention_steps: 300,
            survivors: 2,
            crashes: 0,
            seed,
            workload: "distinct".into(),
            max_steps: 100,
            steps: 80,
            stop: "scheduler-exhausted".into(),
            validity_ok: true,
            agreement_ok: true,
            progress_required: true,
            survivors_decided: true,
            decisions: 6,
            distinct_outputs_max: 3,
            total_ops: 160,
            locations_written: 7,
            registers_written: 0,
            components_written: 7,
            register_bound: 6,
            component_bound: 7,
            bound_ok: true,
            explored_states: 0,
            explored_depth: 0,
            verified: false,
            frontier_peak: 0,
            seen_entries: 0,
            approx_bytes: 0,
            symmetry: "off".into(),
            orbit_states: 0,
            full_states_lower_bound: 0,
            reduction: "off".into(),
            expansions: 0,
            sleep_pruned: 0,
            persistent_expanded: 0,
            states_cut: 0,
            wall_us: 0,
            steps_per_sec: 0,
            proposals: 0,
            batches: 0,
            p50_us: 0,
            p90_us: 0,
            p99_us: 0,
            p999_us: 0,
            ops_per_sec: 0,
            decided_fingerprint: 0,
            goal: String::new(),
            target_registers: 0,
            witness_found: false,
            witness_depth: 0,
            registers_covered: 0,
            witness_registers: 0,
            witness_schedule: String::new(),
            witness_fingerprint: 0,
        }
    }

    fn search_record(seed: u64, goal: &str) -> SweepRecord {
        let mut searched = record(seed);
        searched.adversary = format!("adversary-search:{goal}");
        searched.mode = "adversary-search".into();
        searched.backend = "adversary-search".into();
        searched.stop = "target-reached".into();
        searched.seed = 0;
        searched.explored_states = 300;
        searched.explored_depth = 7;
        searched.verified = true;
        searched.goal = goal.into();
        searched.target_registers = 7;
        searched.witness_found = true;
        searched.witness_depth = 7;
        searched.registers_covered = 4;
        searched.witness_registers = 7;
        searched.witness_schedule = "0.1.2.0.1.2.3".into();
        searched.witness_fingerprint = 0xBEEF;
        searched
    }

    #[test]
    fn parallel_frontier_stats_are_labelled_as_bfs_level_width() {
        // Regression: `frontier_peak` used to be rendered with wording that
        // conflated the serial explorer's DFS stack depth with the parallel
        // explorer's widest BFS level. Only parallel records carry the
        // statistic, and the summary must name the quantity it aggregates.
        let mut parallel = record(0);
        parallel.adversary = "exhaustive".into();
        parallel.mode = "explore".into();
        parallel.backend = "parallel-explore".into();
        parallel.explored_states = 200;
        parallel.frontier_peak = 44;
        parallel.seen_entries = 200;
        parallel.approx_bytes = 3 * 1024 * 1024;
        parallel.verified = true;
        let summary = Summary::of(&[parallel]);
        assert_eq!(summary.max_frontier_peak, 44);
        let rendered = summary.render();
        assert!(
            rendered.contains("peak BFS level width 44 states"),
            "{rendered}"
        );
        assert!(!rendered.contains("peak frontier"), "{rendered}");

        // Serial explore records carry no frontier statistic at all, so the
        // aggregate stays zero instead of absorbing a DFS stack depth.
        let mut serial = record(1);
        serial.adversary = "exhaustive".into();
        serial.mode = "explore".into();
        serial.backend = "explore".into();
        serial.explored_states = 200;
        serial.verified = true;
        let summary = Summary::of(&[serial]);
        assert_eq!(summary.max_frontier_peak, 0);
        assert!(!summary.render().contains("BFS level width"));
    }

    #[test]
    fn symmetry_reduced_cells_report_orbits_and_reduction() {
        let mut reduced = record(0);
        reduced.adversary = "exhaustive".into();
        reduced.mode = "explore".into();
        reduced.backend = "explore".into();
        reduced.symmetry = "process-ids".into();
        reduced.explored_states = 100;
        reduced.orbit_states = 100;
        reduced.full_states_lower_bound = 400;
        reduced.verified = true;
        let mut fallback = record(1);
        fallback.n = 8; // a different cell
        fallback.adversary = "exhaustive".into();
        fallback.mode = "explore".into();
        fallback.symmetry = "fallback-off".into();
        fallback.explored_states = 50;
        fallback.verified = true;
        let summary = Summary::of(&[reduced, fallback]);
        assert_eq!(summary.symmetry_reduced, 1);
        assert_eq!(summary.symmetry_fallbacks, 1);
        assert_eq!(summary.total_orbit_states, 100);
        assert_eq!(summary.total_full_states_lower_bound, 400);
        let rendered = summary.render();
        assert!(rendered.contains("orbits"), "{rendered}");
        assert!(rendered.contains("4.0x"), "{rendered}");
        assert!(rendered.contains("fallback"), "{rendered}");
        assert!(
            rendered.contains("symmetry: 1 orbit-reduced explorations (1 fell back)"),
            "{rendered}"
        );
        // Symmetry-free campaigns do not grow the columns.
        let plain = Summary::of(&[record(0)]).render();
        assert!(!plain.contains("orbits"), "{plain}");
    }

    #[test]
    fn uninformative_orbit_bounds_print_no_reduction_factor() {
        // The distinct 3/1/2 anonymous cell: every orbit's lower bound is
        // one full state, so the bound equals the orbit count although the
        // measured full space is 6.5x larger. The summary must not print
        // that as a 1.0x reduction.
        let mut distinct = record(0);
        distinct.adversary = "exhaustive".into();
        distinct.mode = "explore".into();
        distinct.backend = "explore".into();
        distinct.symmetry = "process-ids".into();
        distinct.explored_states = 21_137;
        distinct.orbit_states = 21_137;
        distinct.full_states_lower_bound = 21_137;
        distinct.verified = true;
        let rendered = Summary::of(&[distinct]).render();
        assert!(!rendered.contains("1.0x"), "{rendered}");
        assert!(
            rendered.contains(
                "21137 orbit states standing for \u{2265}21137 full states (bound uninformative)"
            ),
            "{rendered}"
        );
        let row = rendered
            .lines()
            .find(|line| line.contains("figure3-oneshot"))
            .expect("the cell has a row");
        assert!(
            row.ends_with(&format!(
                " {:>9} {:>11} {:>6}",
                21_137, "\u{2265}21137", "-"
            )),
            "{row}"
        );
    }

    #[test]
    fn old_sleep_set_records_still_parse_summarize_and_diff() {
        // A line written while `reduction = sleep-set` existed: the anonymous
        // Figure 5 algorithm on 2/1/1 under process-id symmetry. The mode is
        // gone, but its result files must stay readable.
        let line = "{\"campaign\":\"exhaustive-por\",\"scenario\":0,\"n\":2,\"m\":1,\"k\":1,\
            \"algorithm\":\"figure5-anon-oneshot\",\"instances\":1,\"adversary\":\"exhaustive\",\
            \"mode\":\"explore\",\"contention_steps\":0,\"survivors\":0,\"crashes\":0,\"seed\":0,\
            \"workload\":\"distinct\",\"max_steps\":100000,\"steps\":0,\
            \"stop\":\"state-space-exhausted\",\"validity_ok\":true,\"agreement_ok\":true,\
            \"progress_required\":false,\"survivors_decided\":true,\"decisions\":0,\
            \"distinct_outputs_max\":0,\"total_ops\":0,\"locations_written\":3,\
            \"registers_written\":0,\"components_written\":3,\"register_bound\":3,\
            \"component_bound\":3,\"bound_ok\":true,\"explored_states\":454,\
            \"explored_depth\":37,\"symmetry\":\"process-ids\",\"orbit_states\":454,\
            \"full_states_lower_bound\":454,\"reduction\":\"sleep-set\",\"expansions\":725,\
            \"sleep_pruned\":165,\"verified\":true}";
        let old = SweepRecord::parse(line).expect("old sleep-set records parse");
        assert_eq!(old.reduction, "sleep-set");
        assert_eq!((old.expansions, old.sleep_pruned), (725, 165));
        assert_eq!(old.to_json(), line, "re-encoding keeps the old bytes");
        let summary = Summary::of(std::slice::from_ref(&old));
        assert!(summary.clean() && summary.exhaustiveness_gaps() == 0);
        assert_eq!(summary.sleep_reduced, 1);
        assert_eq!(summary.total_sleep_pruned, 165);
        let rendered = summary.render();
        assert!(
            rendered.contains("sleep sets: 1 reduced runs (0 fell back)"),
            "{rendered}"
        );
        // Against a reduction-off run of the same cell, diff sees the same
        // scenario and no regression.
        let mut unreduced = old.clone();
        unreduced.reduction = "off".into();
        unreduced.expansions = 0;
        unreduced.sleep_pruned = 0;
        let report = diff(&[old], &[unreduced]);
        assert!(report.removed.is_empty() && report.added.is_empty());
        assert!(!report.has_regressions(), "{}", report.render());
    }

    #[test]
    fn sleep_set_reduced_cells_report_expansions_and_pruning() {
        let mut reduced = record(0);
        reduced.adversary = "exhaustive".into();
        reduced.mode = "explore".into();
        reduced.backend = "explore".into();
        reduced.reduction = "sleep-set".into();
        reduced.explored_states = 100;
        reduced.expansions = 200;
        reduced.sleep_pruned = 400;
        reduced.verified = true;
        let mut fallback = record(1);
        fallback.n = 8; // a different cell
        fallback.adversary = "exhaustive".into();
        fallback.mode = "explore".into();
        fallback.reduction = "fallback-off".into();
        fallback.explored_states = 50;
        fallback.verified = true;
        let summary = Summary::of(&[reduced, fallback]);
        assert_eq!(summary.sleep_reduced, 1);
        assert_eq!(summary.sleep_fallbacks, 1);
        assert_eq!(summary.total_expansions, 200);
        assert_eq!(summary.total_sleep_pruned, 400);
        let rendered = summary.render();
        assert!(rendered.contains("expanded"), "{rendered}");
        assert!(rendered.contains("pruned"), "{rendered}");
        // (200 + 400) / 200 = 3.0x.
        assert!(rendered.contains("3.0x"), "{rendered}");
        assert!(rendered.contains("fallback"), "{rendered}");
        assert!(
            rendered.contains("sleep sets: 1 reduced runs (1 fell back)"),
            "{rendered}"
        );
        // Search records carry the statistic too.
        let mut searched = search_record(2, "covering");
        searched.reduction = "sleep-set".into();
        searched.expansions = 50;
        searched.sleep_pruned = 150;
        let summary = Summary::of(&[searched]);
        assert_eq!(summary.sleep_reduced, 1);
        assert_eq!(summary.total_expansions, 50);
        assert!(summary.render().contains("4.0x"), "{}", summary.render());
        // Reduction-free campaigns do not grow the columns.
        let plain = Summary::of(&[record(0)]).render();
        assert!(!plain.contains("expanded"), "{plain}");
        assert!(!plain.contains("sleep sets:"), "{plain}");
    }

    #[test]
    fn summary_aggregates_per_cell() {
        let mut bad = record(2);
        bad.agreement_ok = false;
        bad.locations_written = 9;
        bad.bound_ok = false;
        let records = vec![record(0), record(1), bad];
        let summary = Summary::of(&records);
        assert_eq!(summary.records, 3);
        assert_eq!(summary.safety_violations, 1);
        assert_eq!(summary.bound_violations, 1);
        assert!(!summary.clean());
        assert_eq!(summary.cells.len(), 1);
        let cell = summary.cells.values().next().unwrap();
        assert_eq!(cell.runs, 3);
        assert_eq!(cell.max_locations_written, 9);
        assert_eq!(cell.progress_required, 3);
        assert_eq!(cell.progress_failures, 0);
        let rendered = summary.render();
        assert!(rendered.contains("figure3-oneshot"));
        assert!(rendered.contains("VIOL"));
    }

    #[test]
    fn repeated_variants_with_different_instances_stay_distinct_cells() {
        let mut two = record(0);
        two.algorithm = "figure4-repeated".into();
        two.instances = 2;
        let mut three = record(1);
        three.algorithm = "figure4-repeated".into();
        three.instances = 3;
        three.component_bound = 9;
        let summary = Summary::of(&[two, three]);
        assert_eq!(summary.cells.len(), 2, "instance counts were merged");
        let bounds: Vec<usize> = summary.cells.values().map(|c| c.component_bound).collect();
        assert_eq!(bounds, vec![7, 9]);
        assert!(summary.render().contains("figure4-repeated x2"));
        assert!(summary.render().contains("figure4-repeated x3"));
    }

    #[test]
    fn clean_summary_renders_ok() {
        let summary = Summary::of(&[record(0)]);
        assert!(summary.clean());
        assert!(summary.render().contains("0 safety violations"));
        // Pure sampling: no exploration line, cells read "sampled".
        assert!(summary.render().contains("sampled"));
        assert!(!summary.render().contains("exploration:"));
    }

    #[test]
    fn crash_accounting_aggregates_per_cell() {
        let mut crashed = record(1);
        crashed.adversary = "crash:obstruction:50:2".into();
        crashed.crashes = 2;
        let mut crashed_more = record(2);
        crashed_more.adversary = "crash:obstruction:50:2".into();
        crashed_more.crashes = 1;
        let summary = Summary::of(&[record(0), crashed, crashed_more]);
        assert_eq!(summary.total_crashes, 3);
        let cell = summary.cells.values().next().unwrap();
        assert_eq!(cell.crashed_runs, 2);
        assert_eq!(cell.total_crashes, 3);
        assert!(summary.render().contains("3 crashes injected"));
    }

    #[test]
    fn exhaustively_verified_cells_are_distinguished_from_sampled() {
        let mut explored = record(0);
        explored.adversary = "exhaustive".into();
        explored.mode = "explore".into();
        explored.backend = "explore".into();
        explored.explored_states = 999;
        explored.explored_depth = 55;
        explored.verified = true;
        let mut sampled = record(0);
        sampled.n = 8; // a different cell
        let summary = Summary::of(&[explored, sampled]);
        assert_eq!(summary.explored, 1);
        assert_eq!(summary.verified, 1);
        assert_eq!(summary.exhaustiveness_gaps(), 0);
        let cell = summary.cells.values().next().unwrap();
        assert_eq!(cell.max_explored_states, 999);
        assert_eq!(cell.max_explored_depth, 55);
        let rendered = summary.render();
        assert!(rendered.contains("exhaustive"), "{rendered}");
        assert!(rendered.contains("sampled"), "{rendered}");
        assert!(rendered.contains("exploration: 1 cells explored, 1 exhaustively verified"));
        // The explore columns show states and depth for the explored cell
        // and dashes for the sampled one.
        assert!(rendered.contains("states"), "{rendered}");
        assert!(rendered.contains("depth"), "{rendered}");
        assert!(rendered.contains("999"), "{rendered}");
        assert!(rendered.contains("55"), "{rendered}");
        assert!(rendered.contains('-'), "{rendered}");
    }

    #[test]
    fn threaded_cells_report_wall_clock_and_throughput() {
        let mut threaded = record(0);
        threaded.adversary = "hardware".into();
        threaded.backend = "threaded".into();
        threaded.steps = 5000;
        threaded.wall_us = 10_000;
        threaded.steps_per_sec = 500_000;
        let mut more = record(1);
        more.adversary = "hardware".into();
        more.backend = "threaded".into();
        more.steps = 3000;
        more.wall_us = 10_000;
        let mut sampled = record(2);
        sampled.n = 8; // a different cell
        let summary = Summary::of(&[threaded, more, sampled]);
        assert_eq!(summary.threaded_runs, 2);
        assert_eq!(summary.total_wall_us, 20_000);
        assert_eq!(summary.threaded_steps, 8000);
        let cell = summary.cells.values().next().unwrap();
        assert_eq!(cell.threaded_runs, 2);
        assert_eq!(cell.total_wall_us, 20_000);
        let rendered = summary.render();
        assert!(rendered.contains("wall-ms"), "{rendered}");
        assert!(rendered.contains("steps/s"), "{rendered}");
        // 8000 steps over 20 ms = 400000 steps/s.
        assert!(rendered.contains("400000"), "{rendered}");
        assert!(
            rendered.contains("threaded: 2 runs on real threads"),
            "{rendered}"
        );
        // Campaigns without threaded records do not grow the columns.
        let plain = Summary::of(&[record(0)]).render();
        assert!(!plain.contains("wall-ms"), "{plain}");
    }

    #[test]
    fn serve_cells_report_latency_percentiles_and_throughput() {
        let mut served = record(0);
        served.algorithm = "figure4-repeated".into();
        served.adversary = "open-loop".into();
        served.mode = "serve".into();
        served.backend = "serve".into();
        served.proposals = 4000;
        served.batches = 500;
        served.p50_us = 1_050;
        served.p99_us = 1_180;
        served.ops_per_sec = 40_000;
        let mut slower = record(1);
        slower.algorithm = "figure4-repeated".into();
        slower.adversary = "open-loop".into();
        slower.mode = "serve".into();
        slower.backend = "serve".into();
        slower.proposals = 4000;
        slower.batches = 600;
        slower.p50_us = 1_100;
        slower.p99_us = 1_300;
        slower.ops_per_sec = 38_000;
        let mut sampled = record(2);
        sampled.n = 8; // a different cell
        let summary = Summary::of(&[served, slower, sampled]);
        assert_eq!(summary.serve_runs, 2);
        assert_eq!(summary.serve_proposals, 8000);
        assert_eq!(summary.serve_batches, 1100);
        assert_eq!(summary.max_p50_us, 1_100);
        assert_eq!(summary.max_p99_us, 1_300);
        assert_eq!(summary.max_ops_per_sec, 40_000);
        let cell = summary.cells.values().next().unwrap();
        assert_eq!(cell.serve_runs, 2);
        assert_eq!(cell.max_p99_us, 1_300);
        let rendered = summary.render();
        assert!(rendered.contains("p50-us"), "{rendered}");
        assert!(rendered.contains("p99-us"), "{rendered}");
        assert!(rendered.contains("ops/s"), "{rendered}");
        assert!(rendered.contains("1300"), "{rendered}");
        assert!(
            rendered.contains("serve: 2 service runs, 8000 proposals in 1100 batches"),
            "{rendered}"
        );
        // The sampled cell fills the serve columns with dashes.
        assert!(rendered.contains('-'), "{rendered}");
        // Campaigns without serve records do not grow the columns.
        let plain = Summary::of(&[record(0)]).render();
        assert!(!plain.contains("p50-us"), "{plain}");
        assert!(!plain.contains("serve:"), "{plain}");
    }

    #[test]
    fn adversary_search_cells_report_witnesses_and_rediscovery() {
        let covering = search_record(0, "covering");
        let block_write = search_record(1, "block-write");
        let mut sampled = record(2);
        sampled.n = 8; // a different cell
        let summary = Summary::of(&[covering, block_write, sampled]);
        assert_eq!(summary.searched, 2);
        assert_eq!(summary.witnesses_found, 2);
        assert_eq!(summary.witnesses_verified, 2);
        assert_eq!(summary.rediscovery_misses(), 0);
        let cell = summary.cells.values().next().unwrap();
        assert_eq!(cell.searched, 2);
        assert_eq!(cell.witnesses_found, 2);
        assert_eq!(cell.search_target, 7);
        assert_eq!(cell.max_witness_registers, 7);
        assert_eq!(cell.max_registers_covered, 4);
        assert_eq!(cell.max_witness_depth, 7);
        let rendered = summary.render();
        for column in ["goals", "target", "w-regs", "covered", "w-depth"] {
            assert!(rendered.contains(column), "{column} missing: {rendered}");
        }
        assert!(rendered.contains("2/2"), "{rendered}");
        assert!(rendered.contains("searched"), "{rendered}");
        assert!(
            rendered.contains(
                "adversary search: 2 searches, 2 witnesses found (2 replay-verified), \
                 0 rediscovery misses"
            ),
            "{rendered}"
        );
        // The sampled cell fills the search columns with dashes.
        assert!(rendered.contains('-'), "{rendered}");
        // Search-free campaigns do not grow the columns.
        let plain = Summary::of(&[record(0)]).render();
        assert!(!plain.contains("w-regs"), "{plain}");
        assert!(!plain.contains("adversary search:"), "{plain}");
    }

    #[test]
    fn rediscovery_misses_are_loud_but_distinct_from_safety() {
        // Best witness fell short of the target: a rediscovery miss. The
        // campaign is still "clean" (no safety/bound violation) — the gate
        // on misses is separate, like exhaustiveness gaps.
        let mut short = search_record(0, "covering");
        short.stop = "state-space-exhausted".into();
        short.witness_registers = 5;
        let summary = Summary::of(&[short]);
        assert!(summary.clean());
        assert_eq!(summary.rediscovery_misses(), 1);
        let rendered = summary.render();
        assert!(rendered.contains("MISSED"), "{rendered}");
        assert!(rendered.contains("1 rediscovery misses"), "{rendered}");
        // An untargeted probe search cannot miss.
        let mut probe = search_record(0, "covering");
        probe.target_registers = 0;
        probe.witness_registers = 5;
        assert_eq!(Summary::of(&[probe]).rediscovery_misses(), 0);
    }

    #[test]
    fn search_diffs_flag_witness_regressions() {
        let old = search_record(0, "covering");
        let mut smaller = old.clone();
        smaller.witness_registers = 5;
        smaller.witness_fingerprint = 0x1234;
        let report = diff(std::slice::from_ref(&old), &[smaller]);
        assert_eq!(report.changed.len(), 1);
        assert!(report.has_regressions(), "{report:?}");
        assert!(
            report.changed[0]
                .change
                .contains("witness_registers 7 -> 5"),
            "{report:?}"
        );
        // A different but equally large witness is drift, not a regression.
        let mut moved = old.clone();
        moved.witness_fingerprint = 0x9999;
        let report = diff(&[old], &[moved]);
        assert_eq!(report.changed.len(), 1);
        assert!(!report.has_regressions(), "{report:?}");
    }

    #[test]
    fn serve_diffs_flag_decided_log_changes() {
        let mut old = record(0);
        old.mode = "serve".into();
        old.backend = "serve".into();
        old.decided_fingerprint = 0x1111;
        let mut new = old.clone();
        new.decided_fingerprint = 0x2222;
        let report = diff(&[old.clone()], &[new]);
        assert_eq!(report.changed.len(), 1);
        assert!(
            report.changed[0].change.contains("decided_fingerprint"),
            "{report:?}"
        );
        // Identical logs diff clean.
        let same = diff(&[old.clone()], &[old]);
        assert_eq!(same.unchanged, 1);
    }

    #[test]
    fn unresolved_wall_clocks_render_as_dashes_not_infinity() {
        let mut fast = record(0);
        fast.adversary = "hardware".into();
        fast.backend = "threaded".into();
        fast.steps = 5000;
        fast.wall_us = 0;
        let summary = Summary::of(&[fast]);
        assert_eq!(steps_per_sec(5000, 0), None);
        assert!(
            summary.render().contains("- steps/s"),
            "{}",
            summary.render()
        );
    }

    #[test]
    fn violation_finding_explorations_are_refuted_not_truncated() {
        let mut refuted = record(0);
        refuted.adversary = "exhaustive".into();
        refuted.mode = "explore".into();
        refuted.stop = "violation-found".into();
        refuted.agreement_ok = false;
        refuted.explored_states = 500;
        refuted.verified = false;
        let summary = Summary::of(&[refuted]);
        // A found counterexample is a safety violation, not a budget gap.
        assert_eq!(summary.safety_violations, 1);
        assert_eq!(summary.exhaustiveness_gaps(), 0);
        assert!(!summary.clean());
        let rendered = summary.render();
        assert!(rendered.contains("REFUTED"), "{rendered}");
        assert!(!rendered.contains("TRUNCATED"), "{rendered}");
    }

    #[test]
    fn sampled_violations_in_merged_cells_do_not_read_as_refuted() {
        // Merge workflow: a sampled unsafe record and a verified exploration
        // of the same cell in one file. The violation must show in the
        // unsafe column, not be attributed to the explorer.
        let mut unsafe_sampled = record(0);
        unsafe_sampled.agreement_ok = false;
        let mut explored = record(1);
        explored.adversary = "exhaustive".into();
        explored.mode = "explore".into();
        explored.explored_states = 100;
        explored.verified = true;
        let summary = Summary::of(&[unsafe_sampled, explored]);
        assert_eq!(summary.safety_violations, 1);
        assert_eq!(summary.exhaustiveness_gaps(), 0);
        let rendered = summary.render();
        assert!(!rendered.contains("REFUTED"), "{rendered}");
        assert!(rendered.contains("mixed"), "{rendered}");
    }

    #[test]
    fn truncated_explorations_show_as_gaps() {
        let mut truncated = record(0);
        truncated.adversary = "exhaustive".into();
        truncated.mode = "explore".into();
        truncated.explored_states = 10;
        truncated.verified = false;
        let summary = Summary::of(&[truncated]);
        assert_eq!(summary.exhaustiveness_gaps(), 1);
        assert!(summary.render().contains("TRUNCATED"));
        // A truncated exploration without a violation is still "clean" —
        // the gap is reported separately so callers can gate on it.
        assert!(summary.clean());
    }

    #[test]
    fn diff_classifies_regressions_and_drift() {
        let old = vec![record(0), record(1), record(2)];
        let mut drifted = record(1);
        drifted.steps = 90;
        let mut regressed = record(2);
        regressed.agreement_ok = false;
        let mut added = record(9);
        added.seed = 9;
        let new = vec![record(0), drifted, regressed, added];

        let report = diff(&old, &new);
        assert_eq!(report.unchanged, 1);
        assert_eq!(report.added.len(), 1);
        assert!(report.removed.is_empty());
        assert_eq!(report.changed.len(), 2);
        assert!(report.has_regressions());
        let regressions: Vec<_> = report.changed.iter().filter(|e| e.regression).collect();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].change.contains("safe true -> false"));
        assert!(report.render().contains("1 regressions"));
    }

    #[test]
    fn identical_files_diff_clean() {
        let records = vec![record(0), record(1)];
        let report = diff(&records, &records);
        assert_eq!(report.unchanged, 2);
        assert!(report.changed.is_empty());
        assert!(!report.has_regressions());
    }
}
