//! Bench for repeated set agreement (Figure 4): instances decided per unit of
//! simulated work, the quantity that matters for the universal-construction
//! motivation the paper opens with. Sweeps the number of instances and the
//! obstruction degree m.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sa_bench::obstruction_adversary;
use sa_model::Params;
use set_agreement::{Algorithm, Backend, ExecutionPlan};
use std::hint::black_box;

fn bench_repeated_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("repeated_throughput");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));

    for instances in [1usize, 4, 16] {
        for (n, m, k) in [(6, 1, 3), (6, 2, 3)] {
            let params = Params::new(n, m, k).expect("valid triple");
            group.throughput(Throughput::Elements(instances as u64));
            let id = BenchmarkId::new(
                format!("figure4_n{n}_m{m}_k{k}"),
                format!("instances{instances}"),
            );
            group.bench_function(id, |b| {
                b.iter(|| {
                    let report = ExecutionPlan::new(params)
                        .algorithm(Algorithm::Repeated(instances))
                        .adversary(obstruction_adversary(params, 17))
                        .max_steps(10_000_000)
                        .execute(Backend::Scheduled)
                        .expect_scheduled();
                    assert!(report.safety.is_safe());
                    assert!(report.survivors_decided);
                    black_box(report.steps)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_repeated_throughput);
criterion_main!(benches);
