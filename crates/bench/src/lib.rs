//! Shared measurement helpers for the `sa-bench` harness.
//!
//! The paper's evaluation artifact is **Figure 1**, a table of register
//! bounds; the rest of its claims are qualitative comparisons (the new
//! algorithm improves the `2(n−k)` registers of prior work, anonymity costs a
//! quadratic rather than linear number of registers, termination holds
//! whenever at most `m` processes keep running). This crate turns each of
//! those claims into a measured table or series:
//!
//! * [`figure1_report`] — the four cells of Figure 1 next to the space the
//!   implementations *actually* use (distinct locations written).
//! * [`space_rows`] — per-algorithm space measurements across a parameter
//!   sweep (bench `space_usage`, binary `figure1`).
//! * [`baseline_rows`] — Figure 3 vs the `2(n−k)` baseline vs the trivial
//!   `n`-register baseline (bench `baseline_comparison`).
//! * [`obstruction_series`] — steps to decision as a function of how many
//!   processes keep running (bench `obstruction`, binary `contention_sweep`).
//! * [`lower_bound_report`] — the covering and cloning attacks across widths
//!   (binary `lower_bound_witness`).
//!
//! Every helper returns plain data structures so the Criterion benches, the
//! report binaries and the integration tests all consume the same code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sa_lowerbound::bounds::{Figure1, Naming, Setting};
use sa_lowerbound::cloning::clone_attack_sweep;
use sa_lowerbound::covering::{width_sweep_one_shot, AttackOutcome};
use sa_model::Params;
use set_agreement::{Adversary, Algorithm, Backend, ExecutionPlan, ScenarioReport};
use std::fmt::Write as _;

/// The default obstruction adversary used for space and termination
/// measurements: heavy contention followed by `m` survivors.
pub fn obstruction_adversary(params: Params, seed: u64) -> Adversary {
    Adversary::Obstruction {
        contention_steps: 50 * params.n() as u64,
        survivors: params.m(),
        seed,
    }
}

/// Runs one scenario of `algorithm` for `params` under the standard
/// obstruction adversary.
pub fn run_measured(params: Params, algorithm: Algorithm, seed: u64) -> ScenarioReport {
    ExecutionPlan::new(params)
        .algorithm(algorithm)
        .adversary(obstruction_adversary(params, seed))
        .max_steps(5_000_000)
        .execute(Backend::Scheduled)
        .expect_scheduled()
}

/// One row of a space-usage table: an algorithm, its paper bound and the
/// space it actually used in a measured run.
#[derive(Debug, Clone)]
pub struct SpaceRow {
    /// The parameters of the run.
    pub params: Params,
    /// The algorithm measured.
    pub algorithm: Algorithm,
    /// The paper's register bound for this algorithm.
    pub bound: usize,
    /// The number of base objects the implementation declares (snapshot
    /// components plus registers); the measured space can never exceed this.
    pub component_bound: usize,
    /// Distinct base objects written during the run.
    pub measured: usize,
    /// The measured footprint converted to the paper's register accounting
    /// ([`Algorithm::register_equivalent`]): snapshot components beyond `n`
    /// are charged `n` single-writer registers for the non-anonymous
    /// algorithms. This is the column comparable against `bound`.
    pub measured_registers: usize,
    /// Steps executed.
    pub steps: u64,
    /// Whether the run satisfied validity and k-agreement.
    pub safe: bool,
    /// Whether every obligated survivor decided.
    pub survivors_decided: bool,
}

/// Measures the space actually used by each of the paper's algorithms (and
/// both baselines where applicable) for one parameter triple.
pub fn space_rows(params: Params, seed: u64) -> Vec<SpaceRow> {
    let mut algorithms = vec![
        Algorithm::OneShot,
        Algorithm::Repeated(2),
        Algorithm::AnonymousOneShot,
        Algorithm::AnonymousRepeated(2),
        Algorithm::FullInformation,
    ];
    // The wide baseline only exists where 2(n − k) meets the Figure 3 minimum.
    if 2 * (params.n() - params.k()) >= params.snapshot_components() {
        algorithms.push(Algorithm::WideBaseline);
    }
    algorithms
        .into_iter()
        .map(|algorithm| {
            let report = run_measured(params, algorithm, seed);
            SpaceRow {
                params,
                algorithm,
                bound: algorithm.register_bound(params),
                component_bound: algorithm.component_bound(params),
                measured: report.locations_written,
                measured_registers: register_equivalent_of(&report),
                steps: report.steps,
                safe: report.safety.is_safe(),
                survivors_decided: report.survivors_decided,
            }
        })
        .collect()
}

/// The register-accounted footprint of a completed run: distinct registers
/// written plus snapshot components charged per
/// [`Algorithm::register_equivalent`].
pub fn register_equivalent_of(report: &ScenarioReport) -> usize {
    let registers = report.metrics.registers_written();
    let components = report.locations_written - registers;
    report
        .algorithm
        .register_equivalent(report.params, registers, components)
}

/// Renders Figure 1 for `params` with a "measured" column next to each upper
/// bound: the **register-accounted** footprint of the corresponding
/// algorithm in a run under the obstruction adversary.
///
/// The snapshot-backed implementations legitimately write up to `n + 2m − k`
/// snapshot components, which exceeds the register upper bound
/// `min(n + 2m − k, n)` whenever `n + 2m − k > n`. The paper closes that gap
/// by implementing the snapshot from `n` single-writer registers, so the
/// measured column applies the same accounting
/// ([`Algorithm::register_equivalent`]); entries where the conversion fired
/// are marked `*` and footnoted with the raw component count.
pub fn figure1_report(params: Params, seed: u64) -> String {
    let table = Figure1::for_params(params);
    let oneshot = run_measured(params, Algorithm::OneShot, seed);
    let repeated = run_measured(params, Algorithm::Repeated(2), seed);
    let anon_oneshot = run_measured(params, Algorithm::AnonymousOneShot, seed);
    let anon_repeated = run_measured(params, Algorithm::AnonymousRepeated(2), seed);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 1 — {} (n={}, m={}, k={})",
        params,
        params.n(),
        params.m(),
        params.k()
    );
    let _ = writeln!(out, "{:<16} {:<34} {:<34}", "", "Repeated", "One-shot");
    let mut footnotes: Vec<String> = Vec::new();
    let mut render = |cell_lower: usize, cell_upper: usize, report: &ScenarioReport| {
        let raw = report.locations_written;
        let registers = register_equivalent_of(report);
        let marker = if registers != raw {
            footnotes.push(format!(
                "* {}: wrote {raw} snapshot components; charged min({raw}, n={}) = \
                 {registers} single-writer registers (Theorem 7 accounting)",
                report.algorithm.label(),
                report.params.n()
            ));
            "*"
        } else {
            " "
        };
        format!("lower {cell_lower:>3}  upper {cell_upper:>3}  measured {registers:>3}{marker}")
    };
    let na_rep = table.cell(Setting::Repeated, Naming::NonAnonymous);
    let na_one = table.cell(Setting::OneShot, Naming::NonAnonymous);
    let an_rep = table.cell(Setting::Repeated, Naming::Anonymous);
    let an_one = table.cell(Setting::OneShot, Naming::Anonymous);
    let repeated_cell = render(na_rep.lower.registers, na_rep.upper.registers, &repeated);
    let oneshot_cell = render(na_one.lower.registers, na_one.upper.registers, &oneshot);
    let anon_repeated_cell = render(
        an_rep.lower.registers,
        an_rep.upper.registers,
        &anon_repeated,
    );
    let anon_oneshot_cell = render(
        an_one.lower.registers,
        an_one.upper.registers,
        &anon_oneshot,
    );
    let _ = writeln!(
        out,
        "{:<16} {:<34} {:<34}",
        "non-anonymous", repeated_cell, oneshot_cell,
    );
    let _ = writeln!(
        out,
        "{:<16} {:<34} {:<34}",
        "anonymous", anon_repeated_cell, anon_oneshot_cell,
    );
    for footnote in footnotes {
        let _ = writeln!(out, "{footnote}");
    }
    out
}

/// One row of the baseline comparison of Section 4: the paper's algorithm
/// against the `2(n−k)` prior work and the trivial `n`-register baseline.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// The parameters of the comparison.
    pub params: Params,
    /// The algorithm measured.
    pub algorithm: Algorithm,
    /// The paper's register bound for this algorithm.
    pub registers: usize,
    /// Steps executed until every survivor decided.
    pub steps: u64,
    /// Whether the run satisfied both safety properties.
    pub safe: bool,
}

/// Compares the Figure 3 algorithm against both baselines for an `m = 1`
/// parameter triple (the regime of the comparison with \[4\]).
pub fn baseline_rows(params: Params, seed: u64) -> Vec<BaselineRow> {
    assert_eq!(params.m(), 1, "the [4] baseline is defined for m = 1");
    let mut algorithms = vec![Algorithm::OneShot, Algorithm::FullInformation];
    if 2 * (params.n() - params.k()) >= params.snapshot_components() {
        algorithms.insert(1, Algorithm::WideBaseline);
    }
    algorithms
        .into_iter()
        .map(|algorithm| {
            let report = run_measured(params, algorithm, seed);
            BaselineRow {
                params,
                algorithm,
                registers: algorithm.register_bound(params),
                steps: report.steps,
                safe: report.safety.is_safe(),
            }
        })
        .collect()
}

/// One point of the obstruction characterization: how long the survivors
/// needed to decide when `survivors` processes keep running.
#[derive(Debug, Clone)]
pub struct ObstructionPoint {
    /// How many processes keep running after the contention phase.
    pub survivors: usize,
    /// Steps executed when the run stopped.
    pub steps: u64,
    /// Whether every survivor decided within the step budget.
    pub decided: bool,
}

/// Measures, for each survivor-set size `1..=max_survivors`, whether the
/// survivors decide and how many steps the run took. The paper's progress
/// condition guarantees `decided == true` exactly when `survivors ≤ m`.
pub fn obstruction_series(
    params: Params,
    algorithm: Algorithm,
    max_survivors: usize,
    budget: u64,
    seed: u64,
) -> Vec<ObstructionPoint> {
    (1..=max_survivors)
        .map(|survivors| {
            let report = ExecutionPlan::new(params)
                .algorithm(algorithm)
                .adversary(Adversary::Obstruction {
                    contention_steps: 20 * params.n() as u64,
                    survivors,
                    seed,
                })
                .max_steps(budget)
                .execute(Backend::Scheduled)
                .expect_scheduled();
            ObstructionPoint {
                survivors,
                steps: report.steps,
                decided: report.survivors_decided,
            }
        })
        .collect()
}

/// The lower-bound witness report: covering-attack outcomes per width for the
/// non-anonymous one-shot algorithm, and cloning-attack outcomes per width
/// for the anonymous algorithm.
#[derive(Debug, Clone)]
pub struct LowerBoundReport {
    /// The parameters attacked.
    pub params: Params,
    /// Covering attack outcomes for widths `1..=n+2m−k`.
    pub covering: Vec<AttackOutcome>,
    /// Cloning attack outcomes for widths `1..=(m+1)(n−k)+m²`.
    pub cloning: Vec<AttackOutcome>,
}

impl LowerBoundReport {
    /// The smallest width at which the covering attack stops violating
    /// k-agreement.
    pub fn covering_resilient_width(&self) -> usize {
        self.covering
            .iter()
            .find(|o| !o.violates_agreement())
            .map(|o| o.width)
            .unwrap_or(self.params.snapshot_components())
    }

    /// The smallest width at which the cloning attack stops violating
    /// k-agreement.
    pub fn cloning_resilient_width(&self) -> usize {
        self.cloning
            .iter()
            .find(|o| !o.violates_agreement())
            .map(|o| o.width)
            .unwrap_or(self.params.anonymous_snapshot_components())
    }

    /// Renders the report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let p = self.params;
        let _ = writeln!(
            out,
            "Lower-bound witnesses for {} (n={}, m={}, k={})",
            p,
            p.n(),
            p.m(),
            p.k()
        );
        let _ = writeln!(
            out,
            "covering attack (Figure 3 widths; paper width {}, repeated lower bound {}):",
            p.snapshot_components(),
            p.repeated_lower_bound()
        );
        for outcome in &self.covering {
            let _ = writeln!(out, "  {outcome}");
        }
        let _ = writeln!(
            out,
            "cloning attack (Figure 5 widths; paper width {}, one-shot anon lower bound {}):",
            p.anonymous_snapshot_components(),
            p.anonymous_oneshot_lower_bound()
        );
        for outcome in &self.cloning {
            let _ = writeln!(out, "  {outcome}");
        }
        let _ = writeln!(
            out,
            "smallest resilient widths: covering {}, cloning {}",
            self.covering_resilient_width(),
            self.cloning_resilient_width()
        );
        out
    }
}

/// Runs both lower-bound attacks across all widths for one parameter triple.
pub fn lower_bound_report(params: Params, max_steps: u64) -> LowerBoundReport {
    LowerBoundReport {
        params,
        covering: width_sweep_one_shot(params, max_steps),
        cloning: clone_attack_sweep(params, params.anonymous_snapshot_components(), max_steps),
    }
}

/// The parameter triples used by the report binaries and EXPERIMENTS.md.
pub fn default_sweep() -> Vec<Params> {
    [
        (3, 1, 1),
        (4, 1, 2),
        (5, 2, 3),
        (6, 1, 3),
        (6, 2, 2),
        (8, 2, 3),
        (8, 1, 4),
        (10, 2, 4),
        (12, 3, 5),
        (16, 2, 6),
    ]
    .into_iter()
    .map(|(n, m, k)| Params::new(n, m, k).expect("sweep triples are valid"))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_rows_stay_within_paper_bounds() {
        let params = Params::new(6, 2, 3).unwrap();
        for row in space_rows(params, 1) {
            assert!(row.safe, "{:?} violated safety", row.algorithm);
            assert!(row.survivors_decided, "{:?} starved", row.algorithm);
            assert!(
                row.measured <= row.component_bound,
                "{:?} wrote {} locations, component bound {}",
                row.algorithm,
                row.measured,
                row.component_bound
            );
            assert!(
                row.measured_registers <= row.bound,
                "{:?} charged {} registers, register bound {}",
                row.algorithm,
                row.measured_registers,
                row.bound
            );
        }
    }

    #[test]
    fn register_accounting_caps_snapshot_components_at_n() {
        // The boundary cell: n + 2m − k = 5 > n = 4, so the snapshot-backed
        // implementation may write up to 5 components while the register
        // bound is min(5, 4) = 4. The accounting must charge the components
        // as n single-writer registers, never more.
        let params = Params::new(4, 2, 3).unwrap();
        assert!(params.snapshot_components() > params.n());
        assert_eq!(Algorithm::OneShot.register_equivalent(params, 0, 5), 4);
        assert_eq!(Algorithm::OneShot.register_equivalent(params, 0, 3), 3);
        assert_eq!(Algorithm::Repeated(2).register_equivalent(params, 0, 5), 4);
        // Anonymous processes cannot own single-writer registers: no cap.
        assert_eq!(
            Algorithm::AnonymousOneShot.register_equivalent(params, 1, 5),
            6
        );

        let report = run_measured(params, Algorithm::OneShot, 7);
        assert!(report.safety.is_safe());
        assert!(report.locations_written <= params.snapshot_components());
        assert!(
            register_equivalent_of(&report) <= Algorithm::OneShot.register_bound(params),
            "measured {} locations but register accounting {} exceeds the bound {}",
            report.locations_written,
            register_equivalent_of(&report),
            Algorithm::OneShot.register_bound(params)
        );
    }

    #[test]
    fn boundary_cell_rows_never_read_above_the_register_bound() {
        // Regression for the ROADMAP item: at n + 2m − k > n the "measured"
        // column used to report raw components and could exceed the bound.
        let params = Params::new(4, 2, 3).unwrap();
        for seed in 0..8 {
            for row in space_rows(params, seed) {
                assert!(
                    row.measured_registers <= row.bound,
                    "{:?} seed {seed}: measured_registers {} > bound {}",
                    row.algorithm,
                    row.measured_registers,
                    row.bound
                );
            }
        }
    }

    #[test]
    fn figure1_report_mentions_all_bounds() {
        let params = Params::new(6, 2, 3).unwrap();
        let report = figure1_report(params, 1);
        assert!(report.contains("non-anonymous"));
        assert!(report.contains("anonymous"));
        assert!(report.contains("measured"));
    }

    #[test]
    fn baseline_rows_show_paper_using_fewer_registers() {
        let params = Params::new(10, 1, 3).unwrap();
        let rows = baseline_rows(params, 1);
        assert_eq!(rows.len(), 3);
        let ours = rows
            .iter()
            .find(|r| r.algorithm == Algorithm::OneShot)
            .unwrap();
        let wide = rows
            .iter()
            .find(|r| r.algorithm == Algorithm::WideBaseline)
            .unwrap();
        let trivial = rows
            .iter()
            .find(|r| r.algorithm == Algorithm::FullInformation)
            .unwrap();
        assert!(ours.registers < wide.registers);
        assert!(ours.registers < trivial.registers);
        assert!(rows.iter().all(|r| r.safe));
    }

    #[test]
    fn obstruction_series_decides_up_to_m() {
        let params = Params::new(5, 2, 3).unwrap();
        let series = obstruction_series(params, Algorithm::OneShot, params.m(), 2_000_000, 3);
        assert_eq!(series.len(), 2);
        for point in &series {
            assert!(
                point.decided,
                "survivors={} did not decide",
                point.survivors
            );
        }
    }

    #[test]
    fn lower_bound_report_is_consistent() {
        let params = Params::new(4, 1, 2).unwrap();
        let report = lower_bound_report(params, 200_000);
        assert_eq!(report.covering.len(), params.snapshot_components());
        assert_eq!(report.cloning.len(), params.anonymous_snapshot_components());
        assert!(report.covering_resilient_width() <= params.snapshot_components());
        assert!(report.cloning_resilient_width() <= params.anonymous_snapshot_components());
        assert!(report.render().contains("covering attack"));
    }

    #[test]
    fn default_sweep_is_valid_and_varied() {
        let sweep = default_sweep();
        assert!(sweep.len() >= 8);
        assert!(sweep.iter().any(|p| p.m() > 1));
        assert!(sweep.iter().any(|p| p.is_consensus()));
    }
}
