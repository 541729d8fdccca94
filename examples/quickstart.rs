//! Quickstart: solve one instance of m-obstruction-free k-set agreement and
//! inspect the outcome.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use set_agreement::model::Params;
use set_agreement::{Adversary, Algorithm, Backend, ExecutionPlan};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 2-obstruction-free 3-set agreement among 8 processes: at most 3 distinct
    // values may be decided, and termination is guaranteed whenever at most 2
    // processes keep taking steps.
    let params = Params::new(8, 2, 3)?;
    println!("problem: {params}");
    println!(
        "paper bounds: >= {} and <= {} registers (Figure 1)",
        params.repeated_lower_bound(),
        params.register_upper_bound()
    );

    // Run the Figure 3 algorithm: every process proposes a distinct value,
    // the schedule is chaotic for 400 steps, then only two processes survive.
    let report = ExecutionPlan::new(params)
        .algorithm(Algorithm::OneShot)
        .adversary(Adversary::Obstruction {
            contention_steps: 400,
            survivors: 2,
            seed: 2015,
        })
        .execute(Backend::Scheduled)
        .expect_scheduled();

    println!("steps executed: {}", report.steps);
    println!(
        "distinct values decided: {} (k = {})",
        report.distinct_outputs(1),
        params.k()
    );
    println!("decided values: {:?}", report.decisions.outputs(1));
    println!(
        "locations written: {} (snapshot has {} components)",
        report.locations_written,
        params.snapshot_components()
    );
    println!("validity and k-agreement: {}", report.safety);
    assert!(report.safety.is_safe());
    assert!(report.survivors_decided);
    Ok(())
}
