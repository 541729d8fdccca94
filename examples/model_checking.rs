//! Exhaustively model-check a tiny configuration and demonstrate the
//! covering mechanism of the lower bound.
//!
//! Four things happen here:
//!
//! 1. every interleaving (up to a depth bound) of two processes running the
//!    Figure 3 algorithm is checked for k-agreement — first at the paper's
//!    width, where no violation exists, then at a deliberately reduced width,
//!    where the explorer produces a concrete violating schedule;
//! 2. the same exhaustive check runs on the parallel breadth-first explorer,
//!    whose report (state count, verification verdict, memory statistics) is
//!    byte-identical at any worker count;
//! 3. the anonymous algorithm is explored up to process-id orbits
//!    (`SymmetryMode::ProcessIds`): one representative per orbit, identical
//!    verdicts, a fraction of the states;
//! 4. the block-write/obliteration mechanics of Theorem 2 are shown on a real
//!    executor: a covered fragment is erased, an uncovered one is not.
//!
//! ```text
//! cargo run --example model_checking
//! ```

use set_agreement::algorithms::OneShotSetAgreement;
use set_agreement::model::{Params, ProcessId};
use set_agreement::runtime::{
    agreement_predicate, explore, parallel_explore, Executor, ExploreConfig, ParallelExploreConfig,
};
use set_agreement::search::{covered_locations, obliterates};

fn executor(params: Params, width: usize) -> Executor<OneShotSetAgreement> {
    let automata: Vec<_> = (0..params.n())
        .map(|p| {
            OneShotSetAgreement::deficient(params, ProcessId(p), 10 + p as u64, width).unwrap()
        })
        .collect();
    Executor::new(automata)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::new(2, 1, 1)?;

    // 1a. The paper's width: every interleaving keeps agreement.
    let exec = executor(params, params.snapshot_components());
    let result = explore(&exec, ExploreConfig::with_depth(28), agreement_predicate(1));
    println!(
        "paper width {}: explored {} states over {} schedules — violation: {}",
        params.snapshot_components(),
        result.states_visited,
        result.paths,
        result.violation.is_some()
    );
    assert!(result.violation.is_none());

    // 1b. One register: the explorer finds a schedule with two outputs.
    let exec = executor(params, 1);
    let result = explore(&exec, ExploreConfig::with_depth(40), agreement_predicate(1));
    let violation = result.violation.expect("a violation must exist at width 1");
    println!(
        "width 1: violation after {} steps — {}",
        violation.schedule.len(),
        violation.description
    );
    println!(
        "violating schedule: {:?}",
        violation
            .schedule
            .iter()
            .map(|p| p.index())
            .collect::<Vec<_>>()
    );

    // 2. The parallel explorer checks the same property level by level
    //    and agrees with the serial search state for state; its memory
    //    statistics show what a bigger cell would cost before you run it.
    let exec = executor(params, params.snapshot_components());
    for threads in [1, 4] {
        let result = parallel_explore(
            &exec,
            ParallelExploreConfig {
                threads,
                max_depth: 100_000,
                max_states: 1_000_000,
                ..ParallelExploreConfig::default()
            },
            agreement_predicate(1),
        );
        println!(
            "\nparallel explore ({threads} workers): {} states, verified: {}, \
             peak frontier {} states, seen-set {} keys, ~{} KB estimated",
            result.states_visited,
            result.verified(),
            result.frontier_peak,
            result.seen_entries,
            result.approx_bytes / 1024
        );
        assert!(result.verified());
    }

    // 3. Symmetry reduction: the anonymous algorithm cannot tell its
    //    processes apart, so the explorer can deduplicate configurations up
    //    to process-id orbits — one representative per orbit, identical
    //    verdicts, far fewer states.
    {
        use set_agreement::algorithms::AnonymousSetAgreement;
        use set_agreement::runtime::SymmetryMode;
        let cell = Params::new(3, 1, 2)?;
        let anonymous = Executor::new(
            (0..cell.n())
                .map(|p| AnonymousSetAgreement::one_shot(cell, 10 + p as u64))
                .collect::<Vec<_>>(),
        );
        let config = |symmetry| ExploreConfig {
            max_depth: 100_000,
            max_states: 1_000_000,
            symmetry,
            ..ExploreConfig::default()
        };
        let full = explore(
            &anonymous,
            config(SymmetryMode::Off),
            agreement_predicate(2),
        );
        let reduced = explore(
            &anonymous,
            config(SymmetryMode::ProcessIds),
            agreement_predicate(2),
        );
        println!(
            "\nsymmetry reduction (anonymous 3/1/2, distinct inputs): \
             {} full states vs {} orbit states ({:.1}x), both verified: {}",
            full.states_visited,
            reduced.states_visited,
            full.states_visited as f64 / reduced.states_visited as f64,
            full.verified() && reduced.verified()
        );
        assert!(reduced.symmetry_applied);
        assert_eq!(full.verified(), reduced.verified());
    }

    // 4. Obliteration: with a width-1 object, p0 covers the only location, so
    //    a block write erases anything p1 did; at full width it does not.
    let params3 = Params::new(3, 1, 1)?;
    let covered = executor(params3, 1);
    println!(
        "\ncovered locations by p0 (width 1): {:?}",
        covered_locations(&covered, &[ProcessId(0)])
    );
    let fragment: Vec<ProcessId> = std::iter::repeat_n(ProcessId(1), 12).collect();
    println!(
        "block write obliterates p1's fragment at width 1:   {}",
        obliterates(&covered, &[ProcessId(0)], &fragment)
    );
    let full = executor(params3, params3.snapshot_components());
    println!(
        "block write obliterates p1's fragment at full width: {}",
        obliterates(&full, &[ProcessId(0)], &fragment)
    );
    Ok(())
}
