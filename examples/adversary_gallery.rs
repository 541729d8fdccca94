//! A gallery of adversarial schedules.
//!
//! The correctness statement of the paper has two halves: safety (validity
//! and k-agreement) must hold under *every* schedule, while termination is
//! only required when at most `m` processes keep taking steps. This example
//! runs the same algorithm and workload under five different adversaries and
//! prints what each one obtains, illustrating the asymmetry.
//!
//! ```text
//! cargo run --example adversary_gallery
//! ```

use set_agreement::model::Params;
use set_agreement::{Adversary, Algorithm, Backend, ExecutionPlan};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::new(6, 2, 3)?;
    let adversaries = [
        (
            "solo run (one process, must decide)",
            Adversary::Solo { process: 4 },
        ),
        (
            "m survivors after contention (must decide)",
            Adversary::Obstruction {
                contention_steps: 300,
                survivors: 2,
                seed: 5,
            },
        ),
        (
            "round-robin contention (safety only)",
            Adversary::RoundRobin,
        ),
        (
            "random contention (safety only)",
            Adversary::Random { seed: 5 },
        ),
        (
            "bursty schedule (safety only)",
            Adversary::Bursts {
                burst_len: 12,
                seed: 5,
            },
        ),
    ];

    println!("algorithm: Figure 3 one-shot, {params}\n");
    println!(
        "{:<44} {:>8} {:>9} {:>9} {:>6}",
        "adversary", "steps", "deciders", "distinct", "safe"
    );
    // One backend, many plans: the adversary is the only thing that varies.
    for (label, adversary) in adversaries {
        let plan = ExecutionPlan::new(params)
            .algorithm(Algorithm::OneShot)
            .adversary(adversary)
            .max_steps(60_000);
        let report = plan.execute(Backend::Scheduled).expect_scheduled();
        println!(
            "{:<44} {:>8} {:>9} {:>9} {:>6}",
            label,
            report.steps,
            report.decisions.deciders(1),
            report.distinct_outputs(1),
            report.safety.is_safe()
        );
        assert!(
            report.safety.is_safe(),
            "safety must hold under every adversary"
        );
    }

    println!(
        "\nNote: under full contention the step budget may run out before anyone\n\
         decides — that is allowed. What is never allowed is more than k = {}\n\
         distinct outputs or a decision on a non-proposed value.",
        params.k()
    );
    Ok(())
}
