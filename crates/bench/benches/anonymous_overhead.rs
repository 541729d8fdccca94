//! Bench for the cost of anonymity (Theorem 11 vs Theorem 8): the anonymous
//! algorithm uses quadratically many registers — `(m+1)(n−k) + m² + 1` —
//! where the non-anonymous one uses `min(n + 2m − k, n)`, and it pays extra
//! scan work per decision. This bench runs both on identical workloads and
//! schedules so the register and time overheads can be read side by side.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sa_bench::obstruction_adversary;
use sa_model::Params;
use set_agreement::{Algorithm, Backend, ExecutionPlan};
use std::hint::black_box;

fn bench_anonymous_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("anonymous_overhead");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));

    let triples = [(6, 1, 3), (8, 2, 3), (10, 2, 4)];
    for (n, m, k) in triples {
        let params = Params::new(n, m, k).expect("valid triple");
        for (label, algorithm) in [
            ("named-oneshot", Algorithm::OneShot),
            ("anonymous-oneshot", Algorithm::AnonymousOneShot),
            ("named-repeated", Algorithm::Repeated(2)),
            ("anonymous-repeated", Algorithm::AnonymousRepeated(2)),
        ] {
            let id = BenchmarkId::new(label, format!("n{n}_m{m}_k{k}"));
            group.bench_function(id, |b| {
                b.iter(|| {
                    let report = ExecutionPlan::new(params)
                        .algorithm(algorithm)
                        .adversary(obstruction_adversary(params, 23))
                        .max_steps(5_000_000)
                        .execute(Backend::Scheduled)
                        .expect_scheduled();
                    assert!(report.safety.is_safe());
                    black_box(report.steps)
                });
            });
        }
        // Report the register-count ratio once per triple.
        let named = Algorithm::Repeated(2).register_bound(params);
        let anonymous = Algorithm::AnonymousRepeated(2).register_bound(params);
        eprintln!(
            "anonymous_overhead: n={n} m={m} k={k} named_registers={named} anonymous_registers={anonymous} ratio={:.2}",
            anonymous as f64 / named as f64
        );
    }
    group.finish();
}

criterion_group!(benches, bench_anonymous_overhead);
criterion_main!(benches);
