//! Bench for the Figure 1 upper bounds: runs each algorithm under the
//! obstruction adversary across a small parameter sweep and (a) times the
//! run, (b) asserts the measured space never exceeds the paper's bound.
//!
//! Regenerates the upper-bound cells of Figure 1; the tabular form is
//! produced by `cargo run -p sa-bench --bin figure1`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sa_bench::{obstruction_adversary, space_rows};
use sa_model::Params;
use set_agreement::{Algorithm, Backend, ExecutionPlan};
use std::hint::black_box;

fn bench_space_usage(c: &mut Criterion) {
    let mut group = c.benchmark_group("space_usage");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));

    let triples = [(6, 1, 3), (6, 2, 3), (8, 2, 3), (10, 2, 4)];
    let algorithms = [
        Algorithm::OneShot,
        Algorithm::Repeated(2),
        Algorithm::AnonymousOneShot,
    ];

    for (n, m, k) in triples {
        let params = Params::new(n, m, k).expect("valid triple");
        for algorithm in algorithms {
            let id = BenchmarkId::new(algorithm.label(), format!("n{n}_m{m}_k{k}"));
            group.bench_function(id, |b| {
                b.iter(|| {
                    let report = ExecutionPlan::new(params)
                        .algorithm(algorithm)
                        .adversary(obstruction_adversary(params, 7))
                        .max_steps(2_000_000)
                        .execute(Backend::Scheduled)
                        .expect_scheduled();
                    assert!(report.safety.is_safe());
                    assert!(
                        report.locations_written <= algorithm.component_bound(params),
                        "space exceeded the declared component bound"
                    );
                    black_box(report.steps)
                });
            });
        }
    }
    group.finish();

    // Emit the measured-space table once so bench logs double as a report.
    for (n, m, k) in triples {
        let params = Params::new(n, m, k).expect("valid triple");
        for row in space_rows(params, 7) {
            eprintln!(
                "space_usage: {:<24} n={n} m={m} k={k} bound={} measured={}",
                row.algorithm.label(),
                row.bound,
                row.measured
            );
        }
    }
}

criterion_group!(benches, bench_space_usage);
criterion_main!(benches);
