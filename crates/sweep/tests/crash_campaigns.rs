//! End-to-end crash-failure campaigns: wrapping any scheduler template in
//! seed-derived crash points must never compromise safety, must record at
//! most the configured number of crashes, and must keep the engine's
//! byte-determinism guarantee intact.

use sa_sweep::parse_jsonl;
use sa_sweep::prelude::*;
use set_agreement::Algorithm;

fn crash_campaign() -> CampaignSpec {
    CampaignSpec {
        name: "crash-it".into(),
        params: ParamsSpec::Grid {
            n: vec![4, 5],
            m: vec![1, 2],
            k: vec![2],
        },
        algorithms: vec![Algorithm::OneShot, Algorithm::FullInformation],
        adversaries: vec![
            AdversarySpec::Crash {
                inner: Box::new(AdversarySpec::Obstruction {
                    contention_factor: 20,
                    survivors: Survivors::M,
                }),
                crashes: 2,
            },
            AdversarySpec::Crash {
                inner: Box::new(AdversarySpec::RoundRobin),
                crashes: 1,
            },
            // More crashes requested than n − 1 allows: must be capped.
            AdversarySpec::Crash {
                inner: Box::new(AdversarySpec::Random),
                crashes: 100,
            },
        ],
        seeds: vec![0, 1, 2],
        workload: WorkloadSpec::Distinct,
        max_steps: 400_000,
        campaign_seed: 23,
        ..CampaignSpec::default()
    }
}

fn run_bytes(threads: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    run_campaign(
        &crash_campaign(),
        EngineConfig {
            threads,
            ..EngineConfig::default()
        },
        &mut bytes,
    )
    .expect("in-memory sink cannot fail");
    bytes
}

#[test]
fn crash_campaign_is_safe_with_bounded_crash_counts() {
    let (records, outcome) = run_campaign_collect(&crash_campaign(), EngineConfig::default());
    assert!(outcome.records > 0);
    assert_eq!(outcome.safety_violations, 0, "{outcome:?}");
    assert_eq!(outcome.bound_violations, 0, "{outcome:?}");
    assert_eq!(
        outcome.progress_failures, 0,
        "a never-crashed survivor failed to decide"
    );
    for record in &records {
        assert!(record.safe(), "unsafe under crashes: {record:?}");
        assert!(record.bound_ok, "over bound under crashes: {record:?}");
        assert!(
            record.adversary.starts_with("crash:"),
            "unexpected adversary {}",
            record.adversary
        );
        // Crash counts stay within the template's f, capped at n − 1.
        let f: usize = record
            .adversary
            .rsplit(':')
            .next()
            .unwrap()
            .parse()
            .expect("crash templates end in their crash count");
        assert!(record.crashes >= 1, "crash template injected no crashes");
        assert!(
            record.crashes <= f.min(record.n - 1),
            "record crashes {} exceed f = {f} (n = {})",
            record.crashes,
            record.n
        );
        // Survivors never counts crashed processes, so the obligation is
        // always satisfiable within the step budget.
        assert!(record.survivors <= record.m);
    }
    // The cap actually fired for the crashes = 100 template.
    assert!(records
        .iter()
        .any(|r| r.adversary == "crash:random:100" && r.crashes == r.n - 1));
    // The summary aggregates the crash accounting.
    let summary = Summary::of(&records);
    assert!(summary.clean());
    assert_eq!(
        summary.totals.total_crashes,
        records.iter().map(|r| r.crashes as u64).sum::<u64>()
    );
    assert!(summary.render().contains("crashes injected"));
}

#[test]
fn one_thread_and_eight_threads_emit_identical_crash_jsonl() {
    let single = run_bytes(1);
    let parallel = run_bytes(8);
    assert!(!single.is_empty(), "campaign produced no records");
    let single_lines = single.split(|b| *b == b'\n').count();
    let parallel_lines = parallel.split(|b| *b == b'\n').count();
    assert_eq!(single_lines, parallel_lines, "different record counts");
    assert_eq!(
        single, parallel,
        "thread count changed crash-campaign bytes"
    );
}

#[test]
fn crash_records_round_trip_through_jsonl() {
    let text = String::from_utf8(run_bytes(4)).unwrap();
    let records = parse_jsonl(&text).unwrap();
    for record in &records {
        assert_eq!(
            SweepRecord::parse(&record.to_json()).unwrap(),
            *record,
            "crash record does not round-trip"
        );
    }
}
