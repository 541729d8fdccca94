//! One plan, three execution backends.
//!
//! The unified API separates **what** runs (an [`ExecutionPlan`]: cell,
//! algorithm, adversary, workload, budget) from **how** it runs (a
//! [`Backend`] behind an [`Executor`]): the deterministic simulator, one OS
//! thread per process on real shared memory, or the bounded exhaustive
//! explorer. This example executes the same Figure 3 one-shot plan on all
//! three and prints what kind of evidence each produces.
//!
//! ```text
//! cargo run --release --example execution_backends
//! ```

use set_agreement::model::Params;
use set_agreement::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tiny cell so the explorer can exhaust the state space.
    let params = Params::new(3, 1, 2)?;
    let plan = ExecutionPlan::new(params)
        .algorithm(Algorithm::OneShot)
        .adversary(Adversary::Obstruction {
            contention_steps: 60,
            survivors: 1,
            seed: 11,
        });

    // 1. The deterministic simulator: one sampled schedule, reproducible
    //    bit for bit. The adversary is the schedule.
    let scheduled = Executor::scheduled().execute(&plan).expect_scheduled();
    println!(
        "scheduled: {:>6} steps, safe = {}, survivor decided = {}",
        scheduled.steps,
        scheduled.safety.is_safe(),
        scheduled.survivors_decided
    );

    // 2. Real OS threads: the hardware linearizes, so we measure actual
    //    contention and assert safety counters, never step traces.
    let threaded = Executor::threaded(ThreadedConfig::with_step_budget(100_000).seeded(7))
        .execute(&plan)
        .expect_threaded();
    println!(
        "threaded:  {:>6} steps, safe = {}, {:.0} steps/s over {:?} wall",
        threaded.steps,
        threaded.safety.is_safe(),
        threaded.steps_per_sec(),
        threaded.wall
    );

    // 3. The exhaustive explorer: EVERY interleaving of the cell, which
    //    subsumes any single adversary. "verified" is strictly stronger
    //    than any number of clean sampled runs.
    let explored = Executor::exploring(ExploreConfig {
        max_depth: 100_000,
        max_states: 2_000_000,
        ..ExploreConfig::default()
    })
    .execute(&plan)
    .expect_explored();
    println!(
        "explore:   {:>6} states (max depth {}), verified = {}",
        explored.states_visited,
        explored.max_depth_reached,
        explored.verified()
    );

    assert!(scheduled.safety.is_safe());
    assert!(threaded.safety.is_safe());
    assert!(explored.verified());

    Ok(())
}
