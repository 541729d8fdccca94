//! Print Figure 1 of the paper for chosen parameters, together with the
//! space the implementations actually use and the widths at which the
//! lower-bound attacks stop finding violations.
//!
//! ```text
//! cargo run --example bounds_table -- [n] [m] [k]
//! ```

use set_agreement::lowerbound::bounds::Figure1;
use set_agreement::lowerbound::covering::minimal_resilient_width;
use set_agreement::model::Params;
use set_agreement::{Adversary, Algorithm, Backend, ExecutionPlan};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let m: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);
    let k: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);
    let params = Params::new(n, m, k)?;

    // The bounds table of Figure 1.
    let table = Figure1::for_params(params);
    println!("{}", table.render());
    assert_eq!(table.consistency_violation(), None);

    // Measured space of the two headline algorithms.
    for (label, algorithm) in [
        ("Figure 3 (one-shot)", Algorithm::OneShot),
        ("Figure 4 (repeated, 2 instances)", Algorithm::Repeated(2)),
        ("Figure 5 (anonymous one-shot)", Algorithm::AnonymousOneShot),
    ] {
        let report = ExecutionPlan::new(params)
            .algorithm(algorithm)
            .adversary(Adversary::Obstruction {
                contention_steps: 50 * n as u64,
                survivors: m,
                seed: 1,
            })
            .max_steps(5_000_000)
            .execute(Backend::Scheduled)
            .expect_scheduled();
        println!(
            "{label:<34} wrote {:>3} locations (declares {:>3})",
            report.locations_written,
            algorithm.component_bound(params)
        );
    }

    // An executable glimpse of the lower bound: the smallest width at which
    // the covering attack stops producing k-agreement violations.
    let resilient = minimal_resilient_width(params, 1_000_000);
    println!(
        "\ncovering attack stops violating k-agreement at width {resilient} \
         (paper: {} needed, {} sufficient)",
        params.repeated_lower_bound(),
        params.snapshot_components()
    );
    Ok(())
}
