//! Anonymous set agreement for an identical fleet of sensors.
//!
//! Section 6 of the paper gives an algorithm that works when processes have
//! no identifiers and run identical code — exactly the situation of a swarm
//! of mass-produced sensors that must converge on a small set of reference
//! readings without any naming infrastructure. The price of anonymity is
//! space: `(m+1)(n−k) + m² + 1` registers instead of `min(n+2m−k, n)`.
//!
//! ```text
//! cargo run --example anonymous_sensors
//! ```

use set_agreement::model::Params;
use set_agreement::runtime::Workload;
use set_agreement::{Adversary, Algorithm, Backend, ExecutionPlan};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 9 sensors, at most 3 reference readings, progress whenever at most 2
    // sensors keep transmitting.
    let params = Params::new(9, 2, 3)?;

    // Raw readings in tenths of a degree; clustered around 21.4 °C with a few
    // outliers, so the agreed set shows which readings survived.
    let readings: Vec<u64> = vec![214, 213, 215, 214, 198, 214, 213, 240, 215];
    let workload = Workload::from_matrix(readings.iter().map(|&r| vec![r]).collect());

    let report = ExecutionPlan::new(params)
        .algorithm(Algorithm::AnonymousOneShot)
        .workload(workload.clone())
        .adversary(Adversary::Obstruction {
            contention_steps: 500,
            survivors: 2,
            seed: 99,
        })
        .max_steps(5_000_000)
        .execute(Backend::Scheduled)
        .expect_scheduled();

    println!("anonymous sensor agreement over {params}");
    println!("raw readings:   {readings:?}");
    println!(
        "agreed readings: {:?} (at most k = {})",
        report.decisions.outputs(1),
        params.k()
    );
    println!(
        "registers: anonymous algorithm uses up to {} components, the named one only {}",
        params.anonymous_snapshot_components(),
        params.register_upper_bound()
    );
    println!(
        "the anonymous lower bound (Theorem 10) says more than {:.2} registers are unavoidable",
        params.anonymous_oneshot_lower_bound_raw()
    );
    println!("safety: {}", report.safety);
    assert!(report.safety.is_safe());

    // Every agreed value is one of the raw readings (validity).
    for value in report.decisions.outputs(1) {
        assert!(readings.contains(&value), "non-input value decided");
    }
    Ok(())
}
