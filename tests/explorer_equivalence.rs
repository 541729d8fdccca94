//! Serial-vs-parallel explorer equivalence suite.
//!
//! For every (cell, algorithm) of `campaigns/exhaustive.spec`, the serial
//! depth-first explorer and the parallel breadth-first explorer must agree
//! on everything a verification claim rests on: `states_visited` (the two
//! seen-sets share the same 128-bit state keys, so an exhausted search
//! counts the identical state set), `verified`, and the violating schedule
//! (`None` for these verified cells). The parallel explorer must addition-
//! ally be self-consistent at 1, 2 and 8 worker threads — its results are
//! byte-identical at any thread count.
//!
//! The 3/1/2 cells have a few hundred thousand states each, which is minutes
//! of work without optimization, so debug builds cover the n = 2 cells only;
//! `cargo test --release --test explorer_equivalence` (run in CI) covers
//! every cell of the spec.

use sa_sweep::{expand, CampaignMode, CampaignSpec, ScenarioSpec};
use set_agreement::runtime::{ExploreConfig, ParallelExploreConfig};
use set_agreement::{Backend, ExecutionPlan, ExploreReport};

fn spec_scenarios() -> Vec<ScenarioSpec> {
    let text = std::fs::read_to_string("campaigns/exhaustive.spec")
        .expect("campaigns/exhaustive.spec is checked in");
    let spec = CampaignSpec::parse(&text).expect("the checked-in spec parses");
    assert_eq!(spec.mode, CampaignMode::Explore);
    let (scenarios, _) = expand(&spec);
    assert!(!scenarios.is_empty());
    scenarios
}

fn explore_with(scenario: &ScenarioSpec, backend: Backend) -> ExploreReport {
    let plan = ExecutionPlan::new(scenario.params)
        .algorithm(scenario.algorithm)
        .workload(scenario.workload.clone());
    plan.execute(backend).expect_explored()
}

#[test]
fn serial_and_parallel_explorers_agree_on_every_spec_cell() {
    // Debug builds are ~20x slower than release; keep tier-1 fast by
    // restricting them to the n = 2 cells. Release runs (CI) cover all.
    let full = !cfg!(debug_assertions);
    let mut covered = 0;
    for scenario in spec_scenarios() {
        if !full && scenario.params.n() > 2 {
            continue;
        }
        covered += 1;
        let cell = format!(
            "{}/{}/{} {}",
            scenario.params.n(),
            scenario.params.m(),
            scenario.params.k(),
            scenario.algorithm.label()
        );
        let serial = explore_with(
            &scenario,
            Backend::Explore(ExploreConfig {
                max_depth: scenario.max_steps,
                max_states: scenario.max_states,
                ..ExploreConfig::default()
            }),
        );
        assert!(serial.verified(), "{cell}: serial exploration not verified");
        let mut previous: Option<ExploreReport> = None;
        for threads in [1, 2, 8] {
            let parallel = explore_with(
                &scenario,
                Backend::ParallelExplore(ParallelExploreConfig {
                    threads,
                    max_depth: scenario.max_steps,
                    max_states: scenario.max_states,
                    ..ParallelExploreConfig::default()
                }),
            );
            assert_eq!(
                parallel.exploration.states_visited, serial.exploration.states_visited,
                "{cell} at {threads} threads: states_visited diverged"
            );
            assert_eq!(
                parallel.verified(),
                serial.verified(),
                "{cell} at {threads} threads: verified diverged"
            );
            assert_eq!(
                parallel.exploration.violation, serial.exploration.violation,
                "{cell} at {threads} threads: violating schedule diverged"
            );
            assert_eq!(parallel.validity_ok, serial.validity_ok, "{cell}");
            assert_eq!(parallel.agreement_ok, serial.agreement_ok, "{cell}");
            assert_eq!(
                parallel.max_locations_written, serial.max_locations_written,
                "{cell}: space maxima range over the same state set"
            );
            if let Some(previous) = &previous {
                // Parallel-vs-parallel: every field is thread-count
                // invariant, including the ones serial DFS measures
                // differently (depth, frontier, memory estimate).
                assert_eq!(
                    parallel.exploration.paths, previous.exploration.paths,
                    "{cell}"
                );
                assert_eq!(
                    parallel.exploration.max_depth_reached, previous.exploration.max_depth_reached,
                    "{cell}"
                );
                assert_eq!(
                    parallel.exploration.frontier_peak, previous.exploration.frontier_peak,
                    "{cell}"
                );
                assert_eq!(
                    parallel.exploration.seen_entries, previous.exploration.seen_entries,
                    "{cell}"
                );
                assert_eq!(
                    parallel.exploration.approx_bytes, previous.exploration.approx_bytes,
                    "{cell}"
                );
            }
            previous = Some(parallel);
        }
    }
    assert!(covered > 0, "the spec filter left nothing to check");
}

/// The symmetry-equivalence matrix: for every (cell, algorithm) of
/// `campaigns/exhaustive.spec`, symmetry-on and symmetry-off exploration
/// (serial and parallel at 1, 2 and 8 threads) must report identical
/// `verified`/`violation` verdicts — the quotient may only shrink the
/// search, never change its answer. The reduction itself is pinned exactly:
/// the quotient visits at most as many states (one per orbit) as the full
/// search, with equality exactly when all inputs are distinct and the
/// algorithm is non-anonymous (a non-anonymous process
/// is identified with its input, so distinct-input slots never merge, while
/// anonymous processes that converge become interchangeable).
#[test]
fn symmetry_quotient_preserves_verdicts_on_every_spec_cell() {
    use set_agreement::runtime::SymmetryMode;
    use set_agreement::Algorithm;
    let full = !cfg!(debug_assertions);
    let mut covered = 0;
    let mut reduced_cells = 0;
    for scenario in spec_scenarios() {
        if !full && scenario.params.n() > 2 {
            continue;
        }
        covered += 1;
        let cell = format!(
            "{}/{}/{} {}",
            scenario.params.n(),
            scenario.params.m(),
            scenario.params.k(),
            scenario.algorithm.label()
        );
        let serial = |symmetry| {
            Backend::Explore(ExploreConfig {
                max_depth: scenario.max_steps,
                max_states: scenario.max_states,
                symmetry,
                ..ExploreConfig::default()
            })
        };
        let off = explore_with(&scenario, serial(SymmetryMode::Off));
        let sym = explore_with(&scenario, serial(SymmetryMode::ProcessIds));
        assert!(
            sym.exploration.symmetry_applied,
            "{cell}: the paper's algorithms opt in"
        );
        assert!(!off.exploration.symmetry_applied, "{cell}");
        assert_eq!(sym.verified(), off.verified(), "{cell}: verdict changed");
        assert_eq!(
            sym.exploration.violation, off.exploration.violation,
            "{cell}: violation changed"
        );
        assert_eq!(sym.validity_ok, off.validity_ok, "{cell}");
        assert_eq!(sym.agreement_ok, off.agreement_ok, "{cell}");
        assert_eq!(
            sym.max_locations_written, off.max_locations_written,
            "{cell}: space maxima are orbit-invariant"
        );
        assert!(
            sym.exploration.states_visited <= off.exploration.states_visited,
            "{cell}: a quotient cannot be larger than the full space"
        );
        assert!(
            sym.exploration.full_states_lower_bound <= off.exploration.states_visited,
            "{cell}: the lower bound must not exceed the true count"
        );
        assert!(
            sym.exploration.full_states_lower_bound >= sym.exploration.states_visited,
            "{cell}"
        );
        // exhaustive.spec uses the all-distinct workload, so equality holds
        // exactly for the non-anonymous algorithm.
        let anonymous = matches!(
            scenario.algorithm,
            Algorithm::AnonymousOneShot | Algorithm::AnonymousRepeated(_)
        );
        if anonymous {
            assert!(
                sym.exploration.states_visited < off.exploration.states_visited,
                "{cell}: anonymous cells must genuinely reduce \
                 ({} !< {})",
                sym.exploration.states_visited,
                off.exploration.states_visited
            );
            reduced_cells += 1;
        } else {
            assert_eq!(
                sym.exploration.states_visited, off.exploration.states_visited,
                "{cell}: distinct-input non-anonymous slots must never merge"
            );
        }
        // The parallel explorer computes the identical quotient at any
        // worker count.
        for threads in [1, 2, 8] {
            let parallel = explore_with(
                &scenario,
                Backend::ParallelExplore(ParallelExploreConfig {
                    threads,
                    max_depth: scenario.max_steps,
                    max_states: scenario.max_states,
                    symmetry: SymmetryMode::ProcessIds,
                    ..ParallelExploreConfig::default()
                }),
            );
            assert!(parallel.exploration.symmetry_applied, "{cell} x{threads}");
            assert_eq!(
                parallel.exploration.states_visited, sym.exploration.states_visited,
                "{cell} x{threads}: quotient size diverged"
            );
            assert_eq!(parallel.verified(), sym.verified(), "{cell} x{threads}");
            assert_eq!(
                parallel.exploration.violation, sym.exploration.violation,
                "{cell} x{threads}"
            );
            assert_eq!(
                parallel.exploration.full_states_lower_bound,
                sym.exploration.full_states_lower_bound,
                "{cell} x{threads}: orbit statistics diverged"
            );
        }
    }
    assert!(covered > 0, "the spec filter left nothing to check");
    assert!(
        reduced_cells > 0,
        "no anonymous cell exercised the reduction"
    );
}

/// Uniform workloads make the non-anonymous orbit groups non-trivial: all
/// processes propose the same value, so every slot is interchangeable under
/// consistent id relabeling and Figure 3 must reduce too — with identical
/// verdicts, mirroring the distinct-workload matrix above.
#[test]
fn uniform_workloads_reduce_id_carrying_cells_too() {
    use set_agreement::model::Params;
    use set_agreement::runtime::{SymmetryMode, Workload};
    use set_agreement::Algorithm;
    let cells: &[(usize, usize, usize)] = if cfg!(debug_assertions) {
        &[(2, 1, 1)]
    } else {
        &[(2, 1, 1), (3, 1, 2)]
    };
    for &(n, m, k) in cells {
        let params = Params::new(n, m, k).unwrap();
        let plan = ExecutionPlan::new(params)
            .algorithm(Algorithm::OneShot)
            .workload(Workload::uniform(n, 1, 7));
        let explore = |symmetry| {
            plan.execute(Backend::Explore(ExploreConfig {
                max_depth: 100_000,
                max_states: 1_000_000,
                symmetry,
                ..ExploreConfig::default()
            }))
            .expect_explored()
        };
        let off = explore(SymmetryMode::Off);
        let sym = explore(SymmetryMode::ProcessIds);
        let cell = format!("{n}/{m}/{k} uniform");
        assert!(off.verified() && sym.verified(), "{cell}");
        assert!(sym.exploration.symmetry_applied, "{cell}");
        assert!(
            sym.exploration.states_visited < off.exploration.states_visited,
            "{cell}: equal-input id-carrying slots must merge ({} !< {})",
            sym.exploration.states_visited,
            off.exploration.states_visited
        );
        // Equal-input orbits are fully reachable, so the lower bound
        // recovers the full count exactly here.
        assert_eq!(
            sym.exploration.full_states_lower_bound, off.exploration.states_visited,
            "{cell}"
        );
    }
}

#[test]
fn parallel_explorer_finds_violations_deterministically() {
    // A deliberately under-provisioned cell (snapshot stripped to one
    // component) has reachable k-agreement violations; the parallel
    // explorer must report the same breadth-first-minimal witness at any
    // thread count.
    use set_agreement::algorithms::OneShotSetAgreement;
    use set_agreement::model::{Params, ProcessId};
    use set_agreement::runtime::{agreement_predicate, parallel_explore, Executor};

    let params = Params::new(2, 1, 1).unwrap();
    let automata: Vec<_> = (0..2)
        .map(|p| OneShotSetAgreement::deficient(params, ProcessId(p), 10 + p as u64, 1).unwrap())
        .collect();
    let executor = Executor::new(automata);
    let reference = parallel_explore(
        &executor,
        ParallelExploreConfig::with_threads(1),
        agreement_predicate(1),
    );
    let witness = reference
        .violation
        .as_ref()
        .expect("a violation must be reachable at width 1");
    assert!(!witness.schedule.is_empty());
    for threads in [2, 8] {
        let other = parallel_explore(
            &executor,
            ParallelExploreConfig::with_threads(threads),
            agreement_predicate(1),
        );
        assert_eq!(other.violation, reference.violation);
        assert_eq!(other.states_visited, reference.states_visited);
    }
}
