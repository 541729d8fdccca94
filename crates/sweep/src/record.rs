//! The per-scenario result record and its JSONL encoding.
//!
//! No JSON library is available offline, so this module hand-rolls exactly
//! what the sweep needs: a writer emitting one flat, field-ordered JSON
//! object per line (field order is fixed, which is what makes campaign
//! output byte-comparable), and a parser for those same flat objects used by
//! `sweep summarize` and `sweep diff`. Both are derived from one declared
//! field walk (`field_walk!` below), so a new field is one row there.

use crate::grid::ScenarioSpec;
use set_agreement::runtime::{ReductionMode, StopReason, SymmetryMode};
use set_agreement::{ExploreReport, ScenarioReport, ThreadedRunReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The result of one scenario, flattened for JSONL.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepRecord {
    /// Campaign name.
    pub campaign: String,
    /// Scenario index within the campaign's deterministic order.
    pub scenario: u64,
    /// `n` of the cell.
    pub n: usize,
    /// `m` of the cell.
    pub m: usize,
    /// `k` of the cell.
    pub k: usize,
    /// Algorithm label.
    pub algorithm: String,
    /// Instances of repeated agreement run (1 for one-shot).
    pub instances: usize,
    /// Adversary template label (includes its parameters), `hardware` for
    /// threaded scenarios, or `exhaustive` for explore-mode scenarios.
    pub adversary: String,
    /// Execution mode: `sample` or `explore`.
    pub mode: String,
    /// Execution backend: `scheduled`, `threaded`, `explore` or
    /// `parallel-explore`. Encoded only for `threaded` and
    /// `parallel-explore` (the other two are implied by `mode`, and
    /// omitting them keeps pre-backend result files byte-identical).
    pub backend: String,
    /// Obstruction contention steps (0 for non-obstruction adversaries).
    pub contention_steps: u64,
    /// Survivor count the adversary restricts to (0 = never restricts;
    /// crashed survivors are not counted).
    pub survivors: usize,
    /// Processes given seed-derived crash points (0 = crash-free).
    pub crashes: usize,
    /// Campaign-level seed of this scenario.
    pub seed: u64,
    /// Workload label.
    pub workload: String,
    /// Step budget.
    pub max_steps: u64,
    /// Steps actually executed.
    pub steps: u64,
    /// Why the run stopped: `all-halted`, `step-limit` or
    /// `scheduler-exhausted`.
    pub stop: String,
    /// `true` if validity held.
    pub validity_ok: bool,
    /// `true` if k-agreement held.
    pub agreement_ok: bool,
    /// `true` if the adversary obliged the survivors to decide
    /// (`0 < survivors ≤ m`).
    pub progress_required: bool,
    /// `true` if every obligated survivor decided everything it ran.
    pub survivors_decided: bool,
    /// Total decisions recorded.
    pub decisions: u64,
    /// Max distinct outputs over all instances (the quantity k bounds).
    pub distinct_outputs_max: usize,
    /// Total shared-memory operations.
    pub total_ops: u64,
    /// Distinct base objects written.
    pub locations_written: usize,
    /// Distinct plain registers written.
    pub registers_written: usize,
    /// Distinct snapshot components written.
    pub components_written: usize,
    /// The paper's register bound for this algorithm and cell (Figure 1
    /// accounting).
    pub register_bound: usize,
    /// Base objects the implementation declares; `locations_written` may
    /// never exceed this.
    pub component_bound: usize,
    /// `locations_written ≤ component_bound`.
    pub bound_ok: bool,
    /// States visited by the exhaustive explorer (0 for sampled records).
    pub explored_states: u64,
    /// Deepest schedule prefix the explorer examined (0 for sampled
    /// records; encoded only for explore-mode records).
    pub explored_depth: u64,
    /// `true` only for explore-mode records whose state space was exhausted
    /// without finding a violation — "exhaustively verified", strictly
    /// stronger than "sampled, 0 violations".
    pub verified: bool,
    /// Peak frontier size of an exploration (widest BFS level for the
    /// parallel explorer; encoded only for parallel-explore records, whose
    /// memory statistics are deterministic at any worker count).
    pub frontier_peak: u64,
    /// Dedup seen-set entries when an exploration stopped (0 for sampled
    /// records; encoded only for parallel-explore records).
    pub seen_entries: u64,
    /// Deterministic rough estimate of the explorer's peak memory in bytes
    /// (0 for sampled records; encoded only for parallel-explore records).
    pub approx_bytes: u64,
    /// Symmetry status of an exploration: `off` (not requested),
    /// `process-ids` (requested and applied: `explored_states` counts orbit
    /// representatives) or `fallback-off` (requested, but the cell's
    /// automata could not establish the symmetry, so plain exploration ran
    /// instead). Encoded, together with the two orbit statistics below,
    /// only when the campaign requested symmetry — records of
    /// symmetry-off campaigns stay byte-identical to pre-symmetry releases.
    pub symmetry: String,
    /// Orbit representatives visited (= `explored_states`; 0 for sampled
    /// records). Encoded only when symmetry was requested.
    pub orbit_states: u64,
    /// Lower bound on the distinct reachable configurations the visited
    /// representatives stand for; `full_states_lower_bound / orbit_states`
    /// is the achieved reduction factor. Encoded only when symmetry was
    /// requested.
    pub full_states_lower_bound: u64,
    /// Partial-order-reduction status of an exploration: `off` (not
    /// requested), `persistent-set` (requested and applied by the serial
    /// DPOR explorer) or `fallback-off` (requested, but the explorer could
    /// not honor it — the parallel explorer or more than 64 processes — so
    /// full expansion ran instead). Records written while
    /// `sleep-set` reduction existed carry that label; they still parse,
    /// summarize and diff. Encoded, together with the two expansion
    /// statistics below, only when the campaign requested reduction —
    /// records of reduction-off campaigns stay byte-identical to
    /// pre-reduction releases.
    pub reduction: String,
    /// Successor expansions the exploration performed (0 for sampled
    /// records). Encoded only when reduction was requested.
    pub expansions: u64,
    /// Expansions skipped because a sleeping sibling order was provably
    /// commuting. Encoded only when reduction was requested.
    pub sleep_pruned: u64,
    /// Expansions the DPOR explorer drew from persistent/backtrack sets.
    /// Encoded only when `persistent-set` reduction was applied, so records
    /// of other campaigns stay byte-identical to earlier releases.
    pub persistent_expanded: u64,
    /// Enabled transitions left permanently unexpanded by persistent-set
    /// selection — the roots of subtrees the reduction proved redundant.
    /// Encoded only when `persistent-set` reduction was requested.
    pub states_cut: u64,
    /// Wall-clock microseconds of a threaded run (0 otherwise; encoded only
    /// for threaded records, whose output makes no byte-determinism claim).
    pub wall_us: u64,
    /// Aggregate throughput of a threaded run in shared-memory steps per
    /// second (0 otherwise; encoded only for serve and threaded records).
    pub steps_per_sec: u64,
    /// Proposals the service accepted (0 for non-serve records; this and
    /// the seven fields below are encoded only for serve records).
    pub proposals: u64,
    /// Batches the service cut (= agreement instances executed).
    pub batches: u64,
    /// Median proposal latency in microseconds.
    pub p50_us: u64,
    /// 90th-percentile proposal latency in microseconds.
    pub p90_us: u64,
    /// 99th-percentile proposal latency in microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile proposal latency in microseconds.
    pub p999_us: u64,
    /// Decided proposals per second (virtual-clock runs: deterministic).
    pub ops_per_sec: u64,
    /// FNV-1a fingerprint of the full decided-value log, in instance
    /// order. Byte-comparing this field across runs at different shard
    /// counts is the cheap form of comparing the logs themselves.
    pub decided_fingerprint: u64,
    /// Witness goal of an adversary-search record (`covering` or
    /// `block-write`; empty for other modes — this and the seven fields
    /// below are encoded only for adversary-search records, so every other
    /// mode's output stays byte-identical to pre-search releases).
    pub goal: String,
    /// Register target the search stops early at (0 = no target, search
    /// the whole budgeted space).
    pub target_registers: usize,
    /// `true` if the search found any witness at all.
    pub witness_found: bool,
    /// Schedule length of the best witness (0 when none was found).
    pub witness_depth: u64,
    /// Distinct locations covered by pending writes in the best witness.
    pub registers_covered: usize,
    /// `|written ∪ covered|` of the best witness — the count compared
    /// against the paper's `n + 2m − k`.
    pub witness_registers: usize,
    /// The best witness's schedule as a dotted label (`0.1.0`; `-` when no
    /// witness was found) — enough to replay and re-verify it from the
    /// JSONL alone.
    pub witness_schedule: String,
    /// FNV-1a fingerprint of the best witness's certificate.
    pub witness_fingerprint: u64,
}

impl SweepRecord {
    /// The record every constructor starts from: the scenario's identity and
    /// the algorithm's bounds, taken from the spec, with every measured
    /// field zero, `false`, `"off"` or empty. Each `from_*` constructor
    /// overrides only what its mode measures.
    fn base(campaign: &str, spec: &ScenarioSpec) -> Self {
        SweepRecord {
            campaign: campaign.to_string(),
            scenario: spec.index,
            n: spec.params.n(),
            m: spec.params.m(),
            k: spec.params.k(),
            algorithm: spec.algorithm.label().to_string(),
            instances: spec.algorithm.instances(),
            adversary: spec.adversary_label.clone(),
            mode: spec.mode.label().to_string(),
            backend: spec.backend_label().to_string(),
            seed: spec.seed,
            workload: spec.workload_label.clone(),
            max_steps: spec.max_steps,
            register_bound: spec.algorithm.register_bound(spec.params),
            component_bound: spec.algorithm.component_bound(spec.params),
            symmetry: "off".into(),
            reduction: "off".into(),
            ..SweepRecord::default()
        }
    }

    /// Builds the record for one completed scenario.
    pub fn from_report(campaign: &str, spec: &ScenarioSpec, report: &ScenarioReport) -> Self {
        let distinct_outputs_max = report
            .decisions
            .instances()
            .map(|t| report.decisions.distinct_outputs(t))
            .max()
            .unwrap_or(0);
        let registers_written = report.metrics.registers_written();
        let base = Self::base(campaign, spec);
        SweepRecord {
            contention_steps: spec.contention_steps,
            survivors: spec.survivors,
            crashes: spec.crashes,
            steps: report.steps,
            stop: match report.stop {
                StopReason::AllHalted => "all-halted",
                StopReason::StepLimit => "step-limit",
                StopReason::SchedulerExhausted => "scheduler-exhausted",
            }
            .to_string(),
            validity_ok: report.safety.validity.is_none(),
            agreement_ok: report.safety.agreement.is_none(),
            progress_required: spec.progress_required(),
            survivors_decided: report.survivors_decided,
            decisions: report.decisions.len() as u64,
            distinct_outputs_max,
            total_ops: report.metrics.total_ops(),
            locations_written: report.locations_written,
            registers_written,
            components_written: report.locations_written - registers_written,
            bound_ok: report.locations_written <= base.component_bound,
            ..base
        }
    }

    /// Builds the record for one scenario executed on the threaded backend.
    /// Steps, decisions and throughput are whatever the hardware's
    /// interleaving produced — only the safety verdicts and the space
    /// accounting are meaningful to compare across runs.
    pub fn from_threaded(campaign: &str, spec: &ScenarioSpec, report: &ThreadedRunReport) -> Self {
        let distinct_outputs_max = report
            .decisions
            .instances()
            .map(|t| report.decisions.distinct_outputs(t))
            .max()
            .unwrap_or(0);
        let registers_written = report.metrics.registers_written();
        let base = Self::base(campaign, spec);
        SweepRecord {
            steps: report.steps,
            stop: if report.all_halted() {
                "all-halted"
            } else {
                "step-limit"
            }
            .to_string(),
            validity_ok: report.safety.validity.is_none(),
            agreement_ok: report.safety.agreement.is_none(),
            // Nobody is obligated: all n threads may contend forever, which
            // the m-obstruction progress condition permits.
            survivors_decided: true,
            decisions: report.decisions.len() as u64,
            distinct_outputs_max,
            total_ops: report.metrics.total_ops(),
            locations_written: report.locations_written,
            registers_written,
            components_written: report.locations_written - registers_written,
            bound_ok: report.locations_written <= base.component_bound,
            wall_us: report.wall.as_micros() as u64,
            steps_per_sec: report.steps_per_sec() as u64,
            ..base
        }
    }

    /// Builds the record for one exhaustively explored scenario. Space
    /// fields report the **maximum over all reachable states**, so
    /// `bound_ok` means no interleaving whatsoever exceeds the declared
    /// footprint.
    pub fn from_exploration(campaign: &str, spec: &ScenarioSpec, report: &ExploreReport) -> Self {
        let symmetry_on = spec.symmetry != SymmetryMode::Off;
        let reduction_on = spec.reduction != ReductionMode::Off;
        let base = Self::base(campaign, spec);
        SweepRecord {
            stop: if report.violation.is_some() {
                "violation-found"
            } else if report.truncated {
                "truncated"
            } else {
                "state-space-exhausted"
            }
            .to_string(),
            validity_ok: report.validity_ok,
            agreement_ok: report.agreement_ok,
            survivors_decided: true,
            locations_written: report.max_locations_written,
            registers_written: report.max_registers_written,
            components_written: report.max_components_written,
            bound_ok: report.max_locations_written <= base.component_bound,
            explored_states: report.states_visited,
            explored_depth: report.max_depth_reached,
            verified: report.verified(),
            frontier_peak: report.frontier_peak,
            seen_entries: report.seen_entries,
            approx_bytes: report.approx_bytes,
            symmetry: status_label(symmetry_on, report.symmetry_applied, spec.symmetry.label()),
            orbit_states: if symmetry_on { report.orbit_states } else { 0 },
            full_states_lower_bound: if symmetry_on {
                report.full_states_lower_bound
            } else {
                0
            },
            reduction: status_label(
                reduction_on,
                report.reduction_applied,
                spec.reduction.label(),
            ),
            expansions: if reduction_on { report.expansions } else { 0 },
            sleep_pruned: if reduction_on { report.sleep_pruned } else { 0 },
            persistent_expanded: if reduction_on {
                report.persistent_expanded
            } else {
                0
            },
            states_cut: if reduction_on { report.states_cut } else { 0 },
            ..base
        }
    }

    /// Builds the record for one serve-mode scenario. Safety verdicts come
    /// from the per-batch checks (validity against the batch's own inputs,
    /// at most `k` distinct outputs per batch); the progress obligation is
    /// the service-level one — every accepted proposal must be answered by
    /// the drain. Latency percentiles come from the merged shard
    /// histograms, and `decided_fingerprint` hashes the full decided-value
    /// log so cross-shard-count equality is checkable from the JSONL alone.
    ///
    /// Footprint accounting is per-instance and the service discards each
    /// batch's memory, so the space fields stay zero: the space story
    /// belongs to the sample and explore modes.
    pub fn from_serve(
        campaign: &str,
        spec: &ScenarioSpec,
        report: &set_agreement::serve::ServeReport,
    ) -> Self {
        let (p50, p90, p99, p999) = report.histogram.summary();
        SweepRecord {
            instances: 1,
            steps: report.steps,
            stop: if report.drained {
                "drained"
            } else {
                "step-limit"
            }
            .to_string(),
            validity_ok: report.validity_violations == 0,
            agreement_ok: report.agreement_violations == 0,
            progress_required: true,
            survivors_decided: report.drained && report.unfinished == 0,
            decisions: report.decided.len() as u64,
            distinct_outputs_max: report.distinct_outputs_max,
            // Every algorithm step in a batch is one shared-memory
            // operation on that batch's private instance.
            total_ops: report.steps,
            bound_ok: true,
            wall_us: report.duration_us,
            steps_per_sec: report.steps_per_sec(),
            proposals: report.proposals,
            batches: report.batches,
            p50_us: p50,
            p90_us: p90,
            p99_us: p99,
            p999_us: p999,
            ops_per_sec: report.ops_per_sec(),
            decided_fingerprint: report.decided_fingerprint(),
            ..Self::base(campaign, spec)
        }
    }

    /// Builds the record for one adversary-search scenario. Safety fields
    /// are vacuously true (the search hunts witness structure, not
    /// violations); `verified` means the best witness — if any — replayed
    /// successfully through the shared verifier, and the witness fields
    /// carry enough of the artifact (schedule, certificate measures,
    /// fingerprint) to re-verify it from the JSONL alone.
    pub fn from_search(
        campaign: &str,
        spec: &ScenarioSpec,
        report: &set_agreement::search::SearchReport,
    ) -> Self {
        let witness = report.witness.as_ref();
        let certificate = witness.map(|w| &w.certificate);
        let witness_registers = certificate.map_or(0, |c| c.registers);
        let symmetry_on = spec.symmetry != SymmetryMode::Off;
        SweepRecord {
            stop: report.stop.label().to_string(),
            validity_ok: true,
            agreement_ok: true,
            survivors_decided: true,
            // For a search, the space story *is* the witness: `written ∪
            // covered` of the best configuration found.
            locations_written: witness_registers,
            registers_written: certificate.map_or(0, |c| c.registers_written),
            bound_ok: true,
            explored_states: report.states_visited,
            explored_depth: report.max_depth_reached,
            verified: report.verified,
            symmetry: status_label(symmetry_on, report.symmetry_applied, spec.symmetry.label()),
            orbit_states: if symmetry_on {
                report.states_visited
            } else {
                0
            },
            goal: report.goal.label().to_string(),
            target_registers: report.target_registers,
            witness_found: witness.is_some(),
            witness_depth: certificate.map_or(0, |c| c.depth),
            registers_covered: certificate.map_or(0, |c| c.registers_covered),
            witness_registers,
            witness_schedule: witness.map_or_else(|| "-".to_string(), |w| w.schedule_label()),
            witness_fingerprint: certificate.map_or(0, |c| c.fingerprint),
            ..Self::base(campaign, spec)
        }
    }

    /// `true` if both safety properties held.
    pub fn safe(&self) -> bool {
        self.validity_ok && self.agreement_ok
    }

    /// `true` if the progress obligation (if any) was met.
    pub fn progress_ok(&self) -> bool {
        !self.progress_required || self.survivors_decided
    }

    /// The identity of this record for cross-file comparison: everything
    /// that names the scenario, nothing that measures it.
    pub fn key(&self) -> String {
        scenario_identity(
            [self.n, self.m, self.k],
            &self.algorithm,
            self.instances,
            &self.adversary,
            self.seed,
            &self.workload,
        )
    }
}

/// The identity text of a scenario: its cell, algorithm, schedule source,
/// seed and workload. [`SweepRecord::key`] matches records across files by
/// it, and [`expand`](crate::expand) derives each scenario's seed from it.
pub(crate) fn scenario_identity(
    [n, m, k]: [usize; 3],
    algorithm: &str,
    instances: usize,
    adversary: &str,
    seed: u64,
    workload: &str,
) -> String {
    format!("n{n} m{m} k{k} {algorithm} x{instances} {adversary} seed{seed} {workload}")
}

/// Declares the record's one ordered field walk and derives from it
/// [`SweepRecord::to_json`] (the encoder) and [`SweepRecord::parse`] (the
/// decoder). Each row names a field, the condition under which the
/// encoder writes it, and what the decoder assumes when a line omits it.
macro_rules! field_walk {
    ($($field:ident if $shown:ident else $absent:tt;)*) => {
        impl SweepRecord {
            /// Encodes the record as one JSON line (no trailing newline).
            /// Field order is fixed, so equal records encode to equal bytes.
            /// Mode- and backend-specific fields are written only on the
            /// records that measure them, which keeps the output of older
            /// modes byte-identical to the releases before each addition.
            pub fn to_json(&self) -> String {
                let mut out = String::with_capacity(512);
                $(if $shown(self) {
                    out.push(if out.is_empty() { '{' } else { ',' });
                    out.push_str(concat!("\"", stringify!($field), "\":"));
                    self.$field.write(&mut out);
                })*
                out.push('}');
                out
            }

            /// Decodes one JSON line produced by [`SweepRecord::to_json`].
            /// Every field that is present is read, whatever its encode
            /// condition. The fields of the first release are required; a
            /// later field that is absent takes its crash-free, scheduled
            /// default, so result files written by older versions remain
            /// summarizable and diffable.
            pub fn parse(line: &str) -> Result<Self, ParseError> {
                let fields = parse_flat_object(line)?;
                let mut record = SweepRecord::default();
                $(record.$field = match fields.get(stringify!($field)) {
                    Some(value) => FlatValue::read(stringify!($field), value)?,
                    None => absent!(record, $field, $absent),
                };)*
                Ok(record)
            }
        }
    };
}

/// The decoder's value for one absent field: `required` rejects the line,
/// `zero` is 0, `false` or empty, `implied` is the backend the record's
/// mode implies, and a literal is the default string.
macro_rules! absent {
    ($record:ident, $field:ident, required) => {
        return Err(ParseError(format!(
            "missing field {:?}",
            stringify!($field)
        )))
    };
    ($record:ident, $field:ident, zero) => {
        Default::default()
    };
    ($record:ident, $field:ident, implied) => {
        // Explore, serve and search records name their backend by their
        // mode; everything else ran on the simulator.
        match $record.mode.as_str() {
            mode @ ("explore" | "serve" | "adversary-search") => mode,
            _ => "scheduled",
        }
        .to_string()
    };
    ($record:ident, $field:ident, $default:literal) => {
        $default.to_string()
    };
}

field_walk! {
    campaign if always else required;
    scenario if always else required;
    n if always else required;
    m if always else required;
    k if always else required;
    algorithm if always else required;
    instances if always else required;
    adversary if always else required;
    mode if always else "sample";
    backend if names_backend else implied;
    contention_steps if always else required;
    survivors if always else required;
    crashes if always else zero;
    seed if always else required;
    workload if always else required;
    max_steps if always else required;
    steps if always else required;
    stop if always else required;
    validity_ok if always else required;
    agreement_ok if always else required;
    progress_required if always else required;
    survivors_decided if always else required;
    decisions if always else required;
    distinct_outputs_max if always else required;
    total_ops if always else required;
    locations_written if always else required;
    registers_written if always else required;
    components_written if always else required;
    register_bound if always else required;
    component_bound if always else required;
    bound_ok if always else required;
    explored_states if always else zero;
    explored_depth if explores else zero;
    frontier_peak if parallel else zero;
    seen_entries if parallel else zero;
    approx_bytes if parallel else zero;
    symmetry if symmetry_requested else "off";
    orbit_states if symmetry_requested else zero;
    full_states_lower_bound if symmetry_requested else zero;
    reduction if reduction_requested else "off";
    expansions if reduction_requested else zero;
    sleep_pruned if reduction_requested else zero;
    persistent_expanded if persistent else zero;
    states_cut if persistent else zero;
    verified if always else zero;
    goal if searches else zero;
    target_registers if searches else zero;
    witness_found if searches else zero;
    witness_depth if searches else zero;
    registers_covered if searches else zero;
    witness_registers if searches else zero;
    witness_schedule if searches else zero;
    witness_fingerprint if searches else zero;
    wall_us if timed else zero;
    steps_per_sec if timed else zero;
    proposals if serves else zero;
    batches if serves else zero;
    p50_us if serves else zero;
    p90_us if serves else zero;
    p99_us if serves else zero;
    p999_us if serves else zero;
    ops_per_sec if serves else zero;
    decided_fingerprint if serves else zero;
}

// The encode conditions of the walk.

fn always(_: &SweepRecord) -> bool {
    true
}

/// The backend is written where the mode does not imply it.
fn names_backend(r: &SweepRecord) -> bool {
    matches!(
        r.backend.as_str(),
        "threaded" | "parallel-explore" | "serve"
    )
}

fn explores(r: &SweepRecord) -> bool {
    matches!(r.mode.as_str(), "explore" | "adversary-search")
}

/// Memory statistics are deterministic at any worker count only on the
/// parallel explorer.
fn parallel(r: &SweepRecord) -> bool {
    r.backend == "parallel-explore"
}

fn symmetry_requested(r: &SweepRecord) -> bool {
    r.symmetry != "off"
}

fn reduction_requested(r: &SweepRecord) -> bool {
    r.reduction != "off"
}

/// Only an applied persistent-set search writes its two counters, so
/// fallback records (and old sleep-set ones) keep their earlier bytes.
fn persistent(r: &SweepRecord) -> bool {
    r.reduction == "persistent-set"
}

fn searches(r: &SweepRecord) -> bool {
    r.mode == "adversary-search"
}

/// Wall-clock fields make no byte-determinism claim, so only threaded and
/// serve records carry them.
fn timed(r: &SweepRecord) -> bool {
    r.backend == "threaded" || r.backend == "serve"
}

fn serves(r: &SweepRecord) -> bool {
    r.backend == "serve"
}

/// The record label of a requested reduction: `off` when not requested,
/// `label` when the engine applied it, and `fallback-off` when the engine
/// could not honor the request and ran unreduced instead rather than prune
/// unsoundly (automata that cannot establish the symmetry; for
/// partial-order reduction, the parallel explorer or more than 64
/// processes).
fn status_label(requested: bool, applied: bool, label: &str) -> String {
    match (requested, applied) {
        (false, _) => "off",
        (true, true) => label,
        (true, false) => "fallback-off",
    }
    .to_string()
}

/// A field type of the flat JSON object: how the encoder writes it and
/// how the decoder reads it back.
trait FlatValue: Sized {
    fn write(&self, out: &mut String);
    fn read(key: &str, value: &JsonValue) -> Result<Self, ParseError>;
}

fn mistyped(key: &str, kind: &str, value: &JsonValue) -> ParseError {
    ParseError(format!("field {key:?} is not a {kind}: {value:?}"))
}

impl FlatValue for String {
    fn write(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn read(key: &str, value: &JsonValue) -> Result<Self, ParseError> {
        match value {
            JsonValue::String(s) => Ok(s.clone()),
            other => Err(mistyped(key, "string", other)),
        }
    }
}

impl FlatValue for u64 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read(key: &str, value: &JsonValue) -> Result<Self, ParseError> {
        match value {
            JsonValue::Number(n) => Ok(*n),
            other => Err(mistyped(key, "number", other)),
        }
    }
}

impl FlatValue for usize {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read(key: &str, value: &JsonValue) -> Result<Self, ParseError> {
        u64::read(key, value).map(|n| n as usize)
    }
}

impl FlatValue for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read(key: &str, value: &JsonValue) -> Result<Self, ParseError> {
        match value {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(mistyped(key, "bool", other)),
        }
    }
}

/// Error from [`SweepRecord::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad record: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    String(String),
    Number(u64),
    Bool(bool),
}

/// Parses a single-line flat JSON object with string, non-negative-integer
/// and boolean values — exactly the shape [`SweepRecord::to_json`] emits.
/// A key given twice is an error: keeping either value would silently
/// summarize a measurement the line does not unambiguously state.
fn parse_flat_object(line: &str) -> Result<BTreeMap<String, JsonValue>, ParseError> {
    let mut chars = line.trim().chars().peekable();
    let mut fields = BTreeMap::new();
    if chars.next() != Some('{') {
        return Err(ParseError("expected '{'".into()));
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            other => return Err(ParseError(format!("expected key, found {other:?}"))),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(ParseError(format!("expected ':' after key {key:?}")));
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => JsonValue::String(parse_string(&mut chars)?),
            Some('t') | Some('f') => {
                let word: String =
                    std::iter::from_fn(|| chars.next_if(|c| c.is_ascii_alphabetic())).collect();
                match word.as_str() {
                    "true" => JsonValue::Bool(true),
                    "false" => JsonValue::Bool(false),
                    other => return Err(ParseError(format!("bad literal {other:?}"))),
                }
            }
            Some(c) if c.is_ascii_digit() => {
                let digits: String =
                    std::iter::from_fn(|| chars.next_if(|c| c.is_ascii_digit())).collect();
                JsonValue::Number(
                    digits
                        .parse()
                        .map_err(|_| ParseError(format!("bad number {digits:?}")))?,
                )
            }
            other => return Err(ParseError(format!("unexpected value start {other:?}"))),
        };
        if fields.contains_key(&key) {
            return Err(ParseError(format!("duplicate field {key:?}")));
        }
        fields.insert(key, value);
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            other => return Err(ParseError(format!("expected ',' or '}}', found {other:?}"))),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err(ParseError("trailing content after object".into()));
    }
    Ok(fields)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.next_if(|c| c.is_whitespace()).is_some() {}
}

fn parse_string(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
) -> Result<String, ParseError> {
    if chars.next() != Some('"') {
        return Err(ParseError("expected '\"'".into()));
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| ParseError(format!("bad \\u escape {hex:?}")))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| ParseError(format!("bad codepoint {code:#x}")))?,
                    );
                }
                other => return Err(ParseError(format!("bad escape {other:?}"))),
            },
            Some(c) => out.push(c),
            None => return Err(ParseError("unterminated string".into())),
        }
    }
}

/// Merges sharded campaign result files into the single stream
/// `sweep run` (unsharded) would have produced: records are reordered by
/// scenario index, which is a pure function of the spec and therefore
/// globally unique and gap-free across a complete shard set.
///
/// # Errors
///
/// Rejects duplicate scenario indices (overlapping shards — merging them
/// would silently drop measurements), index gaps (an incomplete shard
/// set — a summary of it would claim campaign coverage it does not have),
/// and shards that disagree on the campaign name or step budget (shards of
/// *different* runs — their measurements are not comparable, e.g. one
/// shard re-run after changing `--max-steps` or `--name`).
pub fn merge_shards(shards: &[Vec<SweepRecord>]) -> Result<Vec<SweepRecord>, ParseError> {
    let mut by_index: BTreeMap<u64, SweepRecord> = BTreeMap::new();
    let mut run_identity: Option<(String, u64)> = None;
    for shard in shards {
        for record in shard {
            let identity = (record.campaign.clone(), record.max_steps);
            match &run_identity {
                None => run_identity = Some(identity),
                Some(expected) if *expected != identity => {
                    return Err(ParseError(format!(
                        "shards come from different campaign runs: \
                         campaign {:?} with max_steps {} vs campaign {:?} with max_steps {}",
                        expected.0, expected.1, identity.0, identity.1
                    )));
                }
                Some(_) => {}
            }
            if by_index.insert(record.scenario, record.clone()).is_some() {
                return Err(ParseError(format!(
                    "scenario index {} appears in more than one shard",
                    record.scenario
                )));
            }
        }
    }
    for (expected, actual) in by_index.keys().enumerate() {
        if expected as u64 != *actual {
            return Err(ParseError(format!(
                "scenario index {expected} is missing (shard set is incomplete)"
            )));
        }
    }
    Ok(by_index.into_values().collect())
}

/// Parses every non-empty line of a JSONL document.
pub fn parse_jsonl(text: &str) -> Result<Vec<SweepRecord>, ParseError> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(lineno, line)| {
            SweepRecord::parse(line)
                .map_err(|e| ParseError(format!("line {}: {}", lineno + 1, e.0)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepRecord {
        SweepRecord {
            campaign: "smoke \"quoted\"".into(),
            scenario: 17,
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
            seed: 3,
            workload: "distinct".into(),
            max_steps: 1_000_000,
            steps: 812,
            stop: "scheduler-exhausted".into(),
            validity_ok: true,
            agreement_ok: true,
            progress_required: true,
            survivors_decided: true,
            decisions: 6,
            distinct_outputs_max: 3,
            total_ops: 1624,
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

    #[test]
    fn symmetry_records_round_trip_and_off_stays_byte_compatible() {
        // Off: none of the three fields may leak into the line.
        let line = sample().to_json();
        for absent in ["symmetry", "orbit_states", "full_states_lower_bound"] {
            assert!(!line.contains(absent), "{absent} leaked into {line}");
        }
        // Requested + applied: all three round-trip.
        let mut reduced = sample();
        reduced.adversary = "exhaustive".into();
        reduced.mode = "explore".into();
        reduced.backend = "explore".into();
        reduced.symmetry = "process-ids".into();
        reduced.explored_states = 111;
        reduced.orbit_states = 111;
        reduced.full_states_lower_bound = 555;
        reduced.verified = true;
        let line = reduced.to_json();
        assert!(line.contains("\"symmetry\":\"process-ids\""), "{line}");
        assert!(line.contains("\"full_states_lower_bound\":555"), "{line}");
        assert_eq!(SweepRecord::parse(&line).unwrap(), reduced);
        // Requested + fell back: visible as fallback-off.
        let mut fallback = reduced;
        fallback.symmetry = "fallback-off".into();
        fallback.full_states_lower_bound = 111;
        let line = fallback.to_json();
        assert!(line.contains("\"symmetry\":\"fallback-off\""), "{line}");
        assert_eq!(SweepRecord::parse(&line).unwrap(), fallback);
    }

    #[test]
    fn reduction_records_round_trip_and_off_stays_byte_compatible() {
        // Off: none of the three fields may leak into the line.
        let line = sample().to_json();
        for absent in ["reduction", "expansions", "sleep_pruned"] {
            assert!(!line.contains(absent), "{absent} leaked into {line}");
        }
        // Requested + applied: all three round-trip, composed with symmetry.
        let mut reduced = sample();
        reduced.adversary = "exhaustive".into();
        reduced.mode = "explore".into();
        reduced.backend = "explore".into();
        reduced.symmetry = "process-ids".into();
        reduced.explored_states = 111;
        reduced.orbit_states = 111;
        reduced.full_states_lower_bound = 555;
        reduced.reduction = "sleep-set".into();
        reduced.expansions = 200;
        reduced.sleep_pruned = 400;
        reduced.verified = true;
        let line = reduced.to_json();
        assert!(line.contains("\"reduction\":\"sleep-set\""), "{line}");
        assert!(line.contains("\"expansions\":200"), "{line}");
        assert!(line.contains("\"sleep_pruned\":400"), "{line}");
        assert_eq!(SweepRecord::parse(&line).unwrap(), reduced);
        // Sleep-set records stay byte-identical to before the persistent-set
        // tier existed: the DPOR-only fields must not leak into them.
        for absent in ["persistent_expanded", "states_cut"] {
            assert!(!line.contains(absent), "{absent} leaked into {line}");
        }
        // Requested + fell back: visible as fallback-off, zero pruned.
        let mut fallback = reduced.clone();
        fallback.reduction = "fallback-off".into();
        fallback.sleep_pruned = 0;
        let line = fallback.to_json();
        assert!(line.contains("\"reduction\":\"fallback-off\""), "{line}");
        assert_eq!(SweepRecord::parse(&line).unwrap(), fallback);
        // Persistent sets: the two DPOR fields are emitted and round-trip.
        let mut dpor = reduced;
        dpor.reduction = "persistent-set".into();
        dpor.persistent_expanded = 150;
        dpor.states_cut = 37;
        let line = dpor.to_json();
        assert!(line.contains("\"reduction\":\"persistent-set\""), "{line}");
        assert!(line.contains("\"persistent_expanded\":150"), "{line}");
        assert!(line.contains("\"states_cut\":37"), "{line}");
        assert_eq!(SweepRecord::parse(&line).unwrap(), dpor);
    }

    #[test]
    fn explore_records_round_trip_and_carry_verification() {
        let mut record = sample();
        record.adversary = "exhaustive".into();
        record.mode = "explore".into();
        record.backend = "explore".into();
        record.stop = "state-space-exhausted".into();
        record.explored_states = 12345;
        record.explored_depth = 77;
        record.verified = true;
        let line = record.to_json();
        assert!(line.contains("\"explored_depth\":77"), "{line}");
        let parsed = SweepRecord::parse(&line).unwrap();
        assert_eq!(parsed, record);
        assert!(parsed.verified);
        assert_eq!(parsed.explored_states, 12345);
        assert_eq!(parsed.explored_depth, 77);
    }

    #[test]
    fn threaded_records_round_trip_with_wall_clock_fields() {
        let mut record = sample();
        record.adversary = "hardware".into();
        record.backend = "threaded".into();
        record.wall_us = 42_000;
        record.steps_per_sec = 1_000_000;
        let line = record.to_json();
        assert!(line.contains("\"backend\":\"threaded\""), "{line}");
        assert!(line.contains("\"wall_us\":42000"), "{line}");
        assert!(line.contains("\"steps_per_sec\":1000000"), "{line}");
        let parsed = SweepRecord::parse(&line).unwrap();
        assert_eq!(parsed, record);
    }

    #[test]
    fn serve_records_round_trip_with_latency_and_throughput_fields() {
        let mut record = sample();
        record.algorithm = "figure4-repeated".into();
        record.adversary = "open-loop".into();
        record.mode = "serve".into();
        record.backend = "serve".into();
        record.stop = "drained".into();
        record.wall_us = 1_000_000;
        record.steps_per_sec = 2_500_000;
        record.proposals = 100_000;
        record.batches = 12_500;
        record.p50_us = 1_050;
        record.p90_us = 1_110;
        record.p99_us = 1_160;
        record.p999_us = 1_200;
        record.ops_per_sec = 100_000;
        record.decided_fingerprint = 0xDEAD_BEEF;
        let line = record.to_json();
        assert!(line.contains("\"backend\":\"serve\""), "{line}");
        assert!(line.contains("\"p50_us\":1050"), "{line}");
        assert!(line.contains("\"ops_per_sec\":100000"), "{line}");
        assert!(
            line.contains("\"decided_fingerprint\":3735928559"),
            "{line}"
        );
        let parsed = SweepRecord::parse(&line).unwrap();
        assert_eq!(parsed, record);
        // A serve-mode line without an explicit backend implies the service.
        let stripped = line.replace(",\"backend\":\"serve\"", "");
        assert_eq!(SweepRecord::parse(&stripped).unwrap().backend, "serve");
    }

    #[test]
    fn adversary_search_records_round_trip_with_witness_fields() {
        let mut record = sample();
        record.adversary = "adversary-search:covering".into();
        record.mode = "adversary-search".into();
        record.backend = "adversary-search".into();
        record.stop = "target-reached".into();
        record.seed = 0;
        record.explored_states = 321;
        record.explored_depth = 6;
        record.verified = true;
        record.symmetry = "process-ids".into();
        record.orbit_states = 321;
        record.goal = "covering".into();
        record.target_registers = 3;
        record.witness_found = true;
        record.witness_depth = 6;
        record.registers_covered = 2;
        record.witness_registers = 3;
        record.witness_schedule = "0.1.0.1.2.2".into();
        record.witness_fingerprint = 0xFEED;
        let line = record.to_json();
        assert!(line.contains("\"goal\":\"covering\""), "{line}");
        assert!(line.contains("\"target_registers\":3"), "{line}");
        assert!(
            line.contains("\"witness_schedule\":\"0.1.0.1.2.2\""),
            "{line}"
        );
        assert!(line.contains("\"witness_fingerprint\":65261"), "{line}");
        let parsed = SweepRecord::parse(&line).unwrap();
        assert_eq!(parsed, record);
        // A search line without an explicit backend implies the search.
        let stripped = line.replace(",\"backend\":\"adversary-search\"", "");
        assert_eq!(stripped, line, "backend must be implied by the mode");
        assert_eq!(parsed.backend, "adversary-search");
    }

    #[test]
    fn non_search_records_omit_witness_fields_for_byte_compatibility() {
        for line in [sample().to_json(), {
            let mut explored = sample();
            explored.mode = "explore".into();
            explored.backend = "explore".into();
            explored.to_json()
        }] {
            for absent in [
                "\"goal\"",
                "target_registers",
                "witness_found",
                "witness_depth",
                "registers_covered",
                "witness_registers",
                "witness_schedule",
                "witness_fingerprint",
            ] {
                assert!(!line.contains(absent), "{absent} leaked into {line}");
            }
        }
    }

    #[test]
    fn scheduled_records_omit_backend_fields_for_byte_compatibility() {
        // A scheduled sampled record must encode exactly as before the
        // backend axis existed — no backend, wall-clock or depth fields.
        let line = sample().to_json();
        for absent in [
            "backend",
            "wall_us",
            "steps_per_sec",
            "explored_depth",
            "proposals",
            "batches",
            "p50_us",
            "ops_per_sec",
            "decided_fingerprint",
        ] {
            assert!(!line.contains(absent), "{absent} leaked into {line}");
        }
        let parsed = SweepRecord::parse(&line).unwrap();
        assert_eq!(parsed.backend, "scheduled");
        // Explore-mode lines without an explicit backend imply the explorer.
        let mut explored = sample();
        explored.mode = "explore".into();
        explored.backend = "explore".into();
        let reparsed = SweepRecord::parse(&explored.to_json()).unwrap();
        assert_eq!(reparsed.backend, "explore");
    }

    #[test]
    fn merge_shards_reassembles_the_unsharded_stream() {
        let records: Vec<SweepRecord> = (0..6)
            .map(|i| {
                let mut r = sample();
                r.scenario = i;
                r
            })
            .collect();
        let even: Vec<SweepRecord> = records.iter().step_by(2).cloned().collect();
        let odd: Vec<SweepRecord> = records.iter().skip(1).step_by(2).cloned().collect();
        // Shard order must not matter.
        let merged = merge_shards(&[odd.clone(), even.clone()]).unwrap();
        assert_eq!(merged, records);

        let overlapping = merge_shards(&[even.clone(), records.clone()]);
        assert!(overlapping.unwrap_err().0.contains("more than one shard"));
        let incomplete = merge_shards(std::slice::from_ref(&odd));
        assert!(incomplete.unwrap_err().0.contains("incomplete"));
        assert_eq!(merge_shards(&[]).unwrap(), Vec::<SweepRecord>::new());

        // Shards of different runs (here: a re-run with another step
        // budget) must be rejected — their measurements are incomparable.
        let mut rerun = odd;
        for record in &mut rerun {
            record.max_steps = 999;
        }
        let mixed = merge_shards(&[even, rerun]);
        assert!(mixed.unwrap_err().0.contains("different campaign runs"));
    }

    #[test]
    fn records_without_the_new_fields_parse_with_defaults() {
        // A line as written before mode/crashes/explored_states/verified
        // existed: strip those fields from a current encoding.
        let line = sample()
            .to_json()
            .replace(",\"mode\":\"sample\"", "")
            .replace(",\"crashes\":0", "")
            .replace(",\"explored_states\":0", "")
            .replace(",\"verified\":false", "");
        assert!(!line.contains("\"mode\""), "field stripping failed: {line}");
        let parsed = SweepRecord::parse(&line).expect("old-format lines must parse");
        assert_eq!(parsed, sample());
        // Mistyped (rather than absent) new fields are still rejected.
        let bad = sample()
            .to_json()
            .replace("\"crashes\":0", "\"crashes\":\"no\"");
        assert!(SweepRecord::parse(&bad).is_err());
    }

    #[test]
    fn json_round_trips() {
        let record = sample();
        let line = record.to_json();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        let parsed = SweepRecord::parse(&line).unwrap();
        assert_eq!(parsed, record);
    }

    #[test]
    fn encoding_is_stable() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn safe_and_progress_reflect_flags() {
        let mut record = sample();
        assert!(record.safe() && record.progress_ok());
        record.agreement_ok = false;
        assert!(!record.safe());
        record.agreement_ok = true;
        record.survivors_decided = false;
        assert!(!record.progress_ok());
        record.progress_required = false;
        assert!(record.progress_ok());
    }

    #[test]
    fn jsonl_parsing_reports_line_numbers() {
        let good = sample().to_json();
        let text = format!("{good}\n\n{good}\n");
        assert_eq!(parse_jsonl(&text).unwrap().len(), 2);
        let bad = format!("{good}\nnot json\n");
        let error = parse_jsonl(&bad).unwrap_err();
        assert!(error.0.contains("line 2"), "{error}");
    }

    #[test]
    fn malformed_objects_are_rejected() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1",
            "{\"a\":1}{",
            "{\"a\":-1}",
            "{\"a\":nope}",
        ] {
            assert!(SweepRecord::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn duplicate_fields_are_rejected_by_name() {
        // Keeping either value would summarize a step count the line does
        // not unambiguously state.
        let line = sample()
            .to_json()
            .replace("\"steps\":812", "\"steps\":0,\"steps\":7");
        let error = SweepRecord::parse(&line).expect_err("a field given twice is ambiguous");
        assert!(error.0.contains("duplicate field \"steps\""), "{error}");
        // `sweep summarize` and checkpoint replay read through parse_jsonl.
        let error = parse_jsonl(&format!("{}\n{line}\n", sample().to_json())).unwrap_err();
        assert!(error.0.contains("line 2: duplicate field"), "{error}");
    }

    #[test]
    fn keys_identify_scenarios_not_measurements() {
        let mut a = sample();
        let mut b = sample();
        b.steps = 99999;
        b.scenario = 4;
        assert_eq!(a.key(), b.key());
        a.seed = 5;
        assert_ne!(a.key(), b.key());
    }
}
