//! Bench for the m-obstruction-freedom characterization (Section 2.1): time
//! to decision as a function of how many processes keep running after the
//! contention phase. Termination is guaranteed exactly for survivor counts
//! up to `m`; the series produced by `contention_sweep` shows the crossover.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sa_model::Params;
use set_agreement::{Adversary, Algorithm, Backend, ExecutionPlan};
use std::hint::black_box;

fn bench_obstruction(c: &mut Criterion) {
    let mut group = c.benchmark_group("obstruction");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));

    let params = Params::new(6, 3, 3).expect("valid triple");
    for survivors in 1..=3usize {
        let id = BenchmarkId::new("figure3-oneshot", format!("survivors{survivors}"));
        group.bench_function(id, |b| {
            b.iter(|| {
                let report = ExecutionPlan::new(params)
                    .algorithm(Algorithm::OneShot)
                    .adversary(Adversary::Obstruction {
                        contention_steps: 120,
                        survivors,
                        seed: 13,
                    })
                    .max_steps(2_000_000)
                    .execute(Backend::Scheduled)
                    .expect_scheduled();
                assert!(report.safety.is_safe());
                assert!(report.survivors_decided);
                black_box(report.steps)
            });
        });
    }

    // Contrast with full contention (round-robin), where termination is not
    // guaranteed but safety must still hold.
    group.bench_function("figure3-oneshot/round-robin", |b| {
        b.iter(|| {
            let report = ExecutionPlan::new(params)
                .algorithm(Algorithm::OneShot)
                .adversary(Adversary::RoundRobin)
                .max_steps(50_000)
                .execute(Backend::Scheduled)
                .expect_scheduled();
            assert!(report.safety.is_safe());
            black_box(report.steps)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_obstruction);
criterion_main!(benches);
