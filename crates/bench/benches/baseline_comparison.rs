//! Bench for the Section 4 comparison: the paper's algorithm (n − k + 2
//! components for m = 1) against the `2(n − k)`-component prior work \[4\]
//! and the trivial `n`-single-writer-register baseline.
//!
//! The paper's claim is about space, which `sa_bench::baseline_rows`
//! tabulates; this bench additionally compares the time to decision of the
//! three implementations under identical obstruction schedules.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sa_bench::{baseline_rows, obstruction_adversary};
use sa_model::Params;
use set_agreement::{Algorithm, Backend, ExecutionPlan};
use std::hint::black_box;

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline_comparison");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));

    let triples = [(8, 1, 3), (10, 1, 3), (12, 1, 4)];
    for (n, m, k) in triples {
        let params = Params::new(n, m, k).expect("valid triple");
        for algorithm in [
            Algorithm::OneShot,
            Algorithm::WideBaseline,
            Algorithm::FullInformation,
        ] {
            let id = BenchmarkId::new(algorithm.label(), format!("n{n}_k{k}"));
            group.bench_function(id, |b| {
                b.iter(|| {
                    let report = ExecutionPlan::new(params)
                        .algorithm(algorithm)
                        .adversary(obstruction_adversary(params, 11))
                        .max_steps(4_000_000)
                        .execute(Backend::Scheduled)
                        .expect_scheduled();
                    assert!(report.safety.is_safe());
                    black_box(report.steps)
                });
            });
        }
    }
    group.finish();

    for (n, m, k) in triples {
        let params = Params::new(n, m, k).expect("valid triple");
        for row in baseline_rows(params, 11) {
            eprintln!(
                "baseline_comparison: {:<24} n={n} m={m} k={k} registers={} steps={}",
                row.algorithm.label(),
                row.registers,
                row.steps
            );
        }
    }
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
