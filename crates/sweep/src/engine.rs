//! The parallel campaign executor.
//!
//! [`run_campaign`] expands a spec into its deterministic work list and
//! executes it on a pool of worker threads. Workers pull scenario indices
//! from a shared atomic cursor, run each scenario on the deterministic
//! simulator, and send `(index, record)` pairs back over a channel. The
//! consumer holds a reorder buffer and writes records strictly in index
//! order, so the JSONL stream is **byte-identical for any thread count** —
//! parallelism changes only the wall-clock time, never the output. That
//! invariant is what lets `sweep diff` gate regressions and is asserted by
//! the crate's determinism integration test.

use crate::grid::{derive_seed, expand, ExpansionStats, ScenarioSpec};
use crate::record::SweepRecord;
use crate::spec::{BackendSpec, CampaignMode, CampaignSpec};
use crate::summary::CellSummary;
use set_agreement::runtime::store::{fnv1a64, Journal, SegmentKind};
use set_agreement::runtime::{
    ExploreConfig, ParallelExploreConfig, SearchConfig, ServeClock, ThreadedConfig,
};
use set_agreement::{Backend, ExecutionPlan, ExecutionReport};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// How the engine executes a campaign.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Worker threads; 0 means one per available CPU.
    pub threads: usize,
    /// Print a progress line to stderr every `progress_every` scenarios
    /// (0 disables progress output).
    pub progress_every: u64,
    /// Run only the `(index, count)` shard of the campaign: scenarios whose
    /// campaign index is `index` modulo `count`. Records keep their
    /// campaign-global indices, so a complete shard set reassembles into
    /// the unsharded stream with [`merge_shards`](crate::merge_shards).
    pub shard: Option<(u64, u64)>,
    /// Crash-safe checkpoint directory. When set, every completed scenario's
    /// record is appended (and synced) to `<dir>/campaign.journal` before it
    /// reaches the sink, and a rerun with the same spec, shard and directory
    /// replays journaled records verbatim instead of recomputing them — so a
    /// killed campaign resumes from its last completed scenario and still
    /// produces a byte-identical JSONL stream. The journal is tagged with a
    /// hash of the spec text and shard selection; reusing a directory for a
    /// different campaign is an error, not silent corruption.
    pub checkpoint: Option<PathBuf>,
}

impl EngineConfig {
    /// Resolves `threads = 0` to the machine's parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Aggregate outcome of a campaign run: the campaign totals of
/// [`Summary`](crate::Summary), folded while the records stream out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignOutcome {
    /// How the spec expanded.
    pub expansion: ExpansionStats,
    /// Records emitted (= `expansion.scenarios`, or the shard's share of
    /// them when [`EngineConfig::shard`] is set).
    pub records: u64,
    /// Records violating validity or k-agreement.
    pub safety_violations: u64,
    /// Records exceeding the declared base-object bound.
    pub bound_violations: u64,
    /// Records where obligated survivors failed to decide.
    pub progress_failures: u64,
    /// Explore-mode records (exhaustive exploration instead of sampling).
    pub explored: u64,
    /// Explore-mode records whose state space was exhausted violation-free.
    pub exhaustively_verified: u64,
    /// Explore-mode records whose state space could **not** be exhausted
    /// within the budgets and that found no violation (truncated, hence
    /// not exhaustively verified; violation-finding explorations count as
    /// safety violations instead).
    pub unverified_explorations: u64,
    /// Records executed on the threaded backend (real OS threads).
    pub threaded: u64,
    /// Explore-mode records executed by the parallel breadth-first
    /// explorer (a subset of [`CampaignOutcome::explored`]).
    pub parallel_explored: u64,
    /// Serve-mode records (batched service runs under the open-loop load
    /// generator).
    pub served: u64,
    /// Adversary-search records (goal-directed witness searches).
    pub searched: u64,
    /// Adversary-search records whose search found a replay-verified
    /// witness.
    pub witnesses_found: u64,
}

impl CampaignOutcome {
    /// `true` if the campaign saw no safety or bound violation (progress
    /// failures are reported separately: they are expected when a campaign
    /// deliberately over-subscribes survivors).
    pub fn clean(&self) -> bool {
        self.safety_violations == 0 && self.bound_violations == 0
    }
}

/// Runs one scenario to a record through the facade's one entry point,
/// [`ExecutionPlan::execute`]. Deterministic for the scheduled, explore,
/// serve and search backends (depends only on the spec); threaded records
/// are reproducible up to interleaving.
pub fn run_scenario(campaign: &str, spec: &ScenarioSpec) -> SweepRecord {
    let mut plan = ExecutionPlan::new(spec.params)
        .algorithm(spec.algorithm)
        .workload(spec.workload.clone())
        .max_steps(spec.max_steps);
    // A cap past 2^64 bytes saturates, and is then no cap at all.
    let max_resident_bytes = spec.max_resident_mb.saturating_mul(1 << 20);
    let backend = match (spec.mode, spec.backend) {
        (CampaignMode::Sample, BackendSpec::Scheduled) => {
            let adversary = spec
                .adversary
                .clone()
                .expect("scheduled scenarios carry a concrete adversary");
            plan = plan.adversary(adversary);
            Backend::Scheduled
        }
        (CampaignMode::Sample, BackendSpec::Threaded) => Backend::Threaded(ThreadedConfig {
            // The campaign budget is a total like the scheduled backend's,
            // so each of the n threads gets its share.
            max_steps_per_process: (spec.max_steps / spec.params.n() as u64).max(1),
            seed: derive_seed(spec.derived_seed, "threaded-start"),
        }),
        (CampaignMode::Explore, _) if spec.explore_threads > 0 => {
            Backend::ParallelExplore(ParallelExploreConfig {
                threads: spec.explore_threads,
                max_depth: spec.max_steps,
                max_states: spec.max_states,
                symmetry: spec.symmetry,
                reduction: spec.reduction,
                spill: spec.spill,
                max_resident_bytes,
            })
        }
        (CampaignMode::Explore, _) => Backend::Explore(ExploreConfig {
            max_depth: spec.max_steps,
            max_states: spec.max_states,
            symmetry: spec.symmetry,
            spill: spec.spill,
            max_resident_bytes,
        }),
        (CampaignMode::AdversarySearch, _) => Backend::AdversarySearch(SearchConfig {
            goal: spec.goal,
            target_registers: spec.target_registers,
            max_depth: spec.search_depth,
            max_states: spec.max_states,
            threads: spec.explore_threads,
            symmetry: spec.symmetry,
        }),
        // The campaign always serves under the virtual clock: that is what
        // makes the record — latencies and throughput included — a pure
        // function of the spec.
        (CampaignMode::Serve, _) => Backend::Serve(spec.serve_options(
            ServeClock::Virtual,
            derive_seed(spec.derived_seed, "serve-load"),
        )),
    };
    match plan.execute(backend) {
        ExecutionReport::Scheduled(report) => SweepRecord::from_report(campaign, spec, &report),
        ExecutionReport::Threaded(report) => SweepRecord::from_threaded(campaign, spec, &report),
        ExecutionReport::Explored(report) => SweepRecord::from_exploration(campaign, spec, &report),
        ExecutionReport::Served(report) => SweepRecord::from_serve(campaign, spec, &report),
        ExecutionReport::Searched(report) => SweepRecord::from_search(campaign, spec, &report),
    }
}

/// Expands and executes `spec` on `config.threads` workers, streaming one
/// JSON line per scenario to `sink` in deterministic scenario order.
///
/// With [`EngineConfig::shard`] set, only that shard's scenarios run;
/// records keep their campaign-global indices so shards merge back into
/// the unsharded stream.
///
/// # Errors
///
/// Returns any I/O error raised by `sink`; scenario execution itself cannot
/// fail.
pub fn run_campaign(
    spec: &CampaignSpec,
    config: EngineConfig,
    sink: &mut dyn Write,
) -> std::io::Result<CampaignOutcome> {
    let (mut scenarios, expansion) = expand(spec);
    if let Some((index, count)) = config.shard {
        assert!(count > 0 && index < count, "shard index out of range");
        scenarios.retain(|s| s.index % count == index);
    }
    let mut totals = CellSummary::default();

    // Checkpoint resume: load the journal's completed records, keyed by
    // campaign index. Workers skip completed scenarios entirely; the
    // consumer replays the journaled line bytes verbatim, so the resumed
    // stream is byte-identical to an uninterrupted run. The journal tag
    // binds the directory to this exact campaign (spec text + shard).
    let mut journal = None;
    let mut completed: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    if let Some(dir) = &config.checkpoint {
        std::fs::create_dir_all(dir)?;
        let tag = checkpoint_tag(spec, config.shard);
        let (entries, handle) = Journal::open(
            &dir.join("campaign.journal"),
            SegmentKind::CampaignJournal,
            tag,
        )?;
        for entry in entries {
            if entry.len() < 8 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "journal record shorter than its index prefix",
                ));
            }
            let index = u64::from_le_bytes(entry[..8].try_into().unwrap());
            completed.insert(index, entry[8..].to_vec());
        }
        journal = Some(handle);
    }
    let work: Vec<&ScenarioSpec> = scenarios
        .iter()
        .filter(|s| !completed.contains_key(&s.index))
        .collect();

    let threads = config.effective_threads().min(work.len().max(1));
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(u64, SweepRecord)>();

    std::thread::scope(|scope| -> std::io::Result<()> {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let work = &work;
            let name = &spec.name;
            scope.spawn(move || loop {
                let next = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(scenario) = work.get(next) else {
                    break;
                };
                let record = run_scenario(name, scenario);
                if tx.send((scenario.index, record)).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        // Reorder buffer: records arrive in completion order but leave in
        // scenario order, keeping the stream deterministic. Under sharding
        // the expected indices are the (sorted) filtered ones, not 0..len.
        // Journaled records (resume) enter the buffer with their original
        // line bytes; freshly computed ones are journaled — synced to disk
        // — before the line reaches the sink, so a kill between the two
        // never loses a completed scenario.
        let mut pending: BTreeMap<u64, (SweepRecord, Option<Vec<u8>>)> = BTreeMap::new();
        for (&index, line) in &completed {
            let text = std::str::from_utf8(line).map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "journaled record is not UTF-8",
                )
            })?;
            let mut records = crate::record::parse_jsonl(text).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("journaled record does not parse: {e}"),
                )
            })?;
            if records.len() != 1 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "journal entry holds more than one record",
                ));
            }
            pending.insert(index, (records.remove(0), Some(line.clone())));
        }
        let mut expected = scenarios.iter().map(|s| s.index);
        let mut next_index = expected.next();
        let mut written = 0u64;
        loop {
            while let Some(index) = next_index {
                let Some((record, journaled_line)) = pending.remove(&index) else {
                    break;
                };
                totals.add(&record);
                match journaled_line {
                    Some(line) => {
                        sink.write_all(&line)?;
                        sink.write_all(b"\n")?;
                    }
                    None => {
                        let line = record.to_json();
                        if let Some(journal) = journal.as_mut() {
                            let mut body = Vec::with_capacity(8 + line.len());
                            body.extend_from_slice(&index.to_le_bytes());
                            body.extend_from_slice(line.as_bytes());
                            journal.append(&body)?;
                        }
                        writeln!(sink, "{line}")?;
                    }
                }
                next_index = expected.next();
                written += 1;
                if config.progress_every > 0 && written.is_multiple_of(config.progress_every) {
                    eprintln!("sweep: {written}/{} scenarios done", scenarios.len());
                }
            }
            match rx.recv() {
                Ok((index, record)) => {
                    pending.insert(index, (record, None));
                }
                Err(_) => break,
            }
        }
        debug_assert!(pending.is_empty(), "reorder buffer drained");
        Ok(())
    })?;

    sink.flush()?;
    Ok(CampaignOutcome {
        expansion,
        records: totals.runs,
        safety_violations: totals.safety_violations,
        bound_violations: totals.bound_violations,
        progress_failures: totals.progress_failures,
        explored: totals.explored,
        exhaustively_verified: totals.verified,
        unverified_explorations: totals.truncated_explorations,
        threaded: totals.threaded_runs,
        parallel_explored: totals.parallel_explored,
        served: totals.serve_runs,
        searched: totals.searched,
        witnesses_found: totals.witnesses_found,
    })
}

/// The journal tag binding a checkpoint directory to one campaign: a hash
/// of the spec's canonical text plus the shard selection. Opening the same
/// directory with a different spec or shard fails loudly instead of
/// splicing foreign records into the stream.
fn checkpoint_tag(spec: &CampaignSpec, shard: Option<(u64, u64)>) -> u64 {
    let mut text = spec.to_string();
    if let Some((index, count)) = shard {
        text.push_str(&format!("\nshard = {index}/{count}\n"));
    }
    fnv1a64(text.as_bytes())
}

/// Like [`run_campaign`] but collects the records instead of streaming
/// JSONL; used by the bench binaries and in-process callers.
pub fn run_campaign_collect(
    spec: &CampaignSpec,
    config: EngineConfig,
) -> (Vec<SweepRecord>, CampaignOutcome) {
    let mut bytes = Vec::new();
    let outcome = run_campaign(spec, config, &mut bytes).expect("writing to a Vec cannot fail");
    let text = String::from_utf8(bytes).expect("records are valid UTF-8");
    let records = crate::record::parse_jsonl(&text).expect("engine emits parseable records");
    (records, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AdversarySpec, ParamsSpec, Survivors, WorkloadSpec};
    use set_agreement::Algorithm;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "tiny".into(),
            params: ParamsSpec::Grid {
                n: vec![4, 5],
                m: vec![1, 2],
                k: vec![2],
            },
            algorithms: vec![Algorithm::OneShot, Algorithm::FullInformation],
            adversaries: vec![AdversarySpec::Obstruction {
                contention_factor: 20,
                survivors: Survivors::M,
            }],
            seeds: vec![0, 1],
            workload: WorkloadSpec::Distinct,
            max_steps: 500_000,
            campaign_seed: 11,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn campaign_runs_clean_and_in_order() {
        let (records, outcome) = run_campaign_collect(
            &tiny_spec(),
            EngineConfig {
                threads: 4,
                ..EngineConfig::default()
            },
        );
        assert_eq!(outcome.records, records.len() as u64);
        assert!(outcome.clean(), "{outcome:?}");
        assert_eq!(outcome.progress_failures, 0);
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record.scenario, i as u64, "stream out of order");
            assert!(record.safe());
            assert!(record.bound_ok);
            assert!(record.survivors_decided);
        }
    }

    #[test]
    fn thread_count_does_not_change_the_bytes() {
        let spec = tiny_spec();
        let run = |threads| {
            let mut bytes = Vec::new();
            run_campaign(
                &spec,
                EngineConfig {
                    threads,
                    ..EngineConfig::default()
                },
                &mut bytes,
            )
            .unwrap();
            bytes
        };
        let single = run(1);
        assert!(!single.is_empty());
        assert_eq!(single, run(3));
    }

    #[test]
    fn crash_campaigns_stay_safe_and_count_crashes() {
        let mut spec = tiny_spec();
        spec.adversaries = vec![
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
        ];
        let (records, outcome) = run_campaign_collect(&spec, EngineConfig::default());
        assert!(outcome.clean(), "{outcome:?}");
        assert_eq!(
            outcome.progress_failures, 0,
            "a non-crashed survivor starved"
        );
        assert!(records.iter().all(|r| r.safe()));
        assert!(records.iter().all(|r| r.crashes >= 1 && r.crashes <= 2));
        assert!(records.iter().all(|r| r.mode == "sample"));
        assert!(records.iter().any(|r| r.adversary.starts_with("crash:")));
    }

    #[test]
    fn explore_mode_exhaustively_verifies_tiny_cells() {
        let spec = CampaignSpec {
            name: "explore".into(),
            params: ParamsSpec::Explicit(vec![sa_model::Params::new(2, 1, 1).unwrap()]),
            algorithms: vec![Algorithm::OneShot, Algorithm::AnonymousOneShot],
            mode: crate::spec::CampaignMode::Explore,
            max_steps: 100_000,
            max_states: 500_000,
            ..CampaignSpec::default()
        };
        let (records, outcome) = run_campaign_collect(&spec, EngineConfig::default());
        assert_eq!(outcome.records, 2, "adversary and seed axes must collapse");
        assert_eq!(outcome.explored, 2);
        assert_eq!(outcome.exhaustively_verified, 2);
        assert_eq!(outcome.unverified_explorations, 0);
        assert!(outcome.clean(), "{outcome:?}");
        for record in &records {
            assert_eq!(record.mode, "explore");
            assert_eq!(record.adversary, "exhaustive");
            assert_eq!(record.stop, "state-space-exhausted");
            assert!(record.verified, "cell was not exhaustively verified");
            assert!(record.explored_states > 0);
            assert!(record.bound_ok, "some interleaving exceeded the bound");
        }
    }

    #[test]
    fn parallel_explore_output_is_byte_identical_at_any_worker_count() {
        let spec = CampaignSpec {
            name: "parallel-explore".into(),
            params: ParamsSpec::Explicit(vec![sa_model::Params::new(2, 1, 1).unwrap()]),
            algorithms: vec![Algorithm::OneShot, Algorithm::AnonymousOneShot],
            mode: crate::spec::CampaignMode::Explore,
            max_steps: 100_000,
            max_states: 500_000,
            explore_threads: 1,
            ..CampaignSpec::default()
        };
        let run = |explore_threads, engine_threads| {
            let mut bytes = Vec::new();
            let spec = CampaignSpec {
                explore_threads,
                ..spec.clone()
            };
            let outcome = run_campaign(
                &spec,
                EngineConfig {
                    threads: engine_threads,
                    ..EngineConfig::default()
                },
                &mut bytes,
            )
            .unwrap();
            (bytes, outcome)
        };
        let (reference, outcome) = run(1, 1);
        assert_eq!(outcome.parallel_explored, 2);
        assert_eq!(outcome.exhaustively_verified, 2);
        // Neither the explorer's worker count nor the engine's thread count
        // may change a single byte of the stream.
        for (explore_threads, engine_threads) in [(2, 1), (8, 2), (8, 4)] {
            let (bytes, outcome) = run(explore_threads, engine_threads);
            assert_eq!(
                bytes, reference,
                "output drifted at explore_threads={explore_threads}, \
                 engine threads={engine_threads}"
            );
            assert_eq!(outcome.parallel_explored, 2);
        }
        let records = crate::record::parse_jsonl(std::str::from_utf8(&reference).unwrap()).unwrap();
        for record in &records {
            assert_eq!(record.backend, "parallel-explore");
            assert_eq!(record.mode, "explore");
            assert!(record.verified);
            assert!(record.frontier_peak > 0, "memory stats must be recorded");
            assert_eq!(record.seen_entries, record.explored_states);
            assert!(record.approx_bytes > 0);
            let line = record.to_json();
            assert!(line.contains("\"backend\":\"parallel-explore\""));
            assert!(line.contains("\"frontier_peak\":"));
        }

        // The serial explorer agrees on every verification-bearing field —
        // only the backend label and the (serial-absent) memory statistics
        // differ.
        let (serial_bytes, serial_outcome) = run(0, 1);
        assert_eq!(serial_outcome.parallel_explored, 0);
        assert_eq!(serial_outcome.exhaustively_verified, 2);
        let serial =
            crate::record::parse_jsonl(std::str::from_utf8(&serial_bytes).unwrap()).unwrap();
        for (s, p) in serial.iter().zip(&records) {
            assert_eq!(s.backend, "explore");
            assert_eq!(s.explored_states, p.explored_states);
            assert_eq!(s.verified, p.verified);
            assert_eq!(s.stop, p.stop);
            assert_eq!(s.key(), p.key(), "worker count must not change identity");
            for absent in ["frontier_peak", "seen_entries", "approx_bytes", "backend"] {
                assert!(
                    !s.to_json().contains(absent),
                    "{absent} leaked into serial explore output"
                );
            }
        }
    }

    #[test]
    fn truncated_explorations_are_counted_as_unverified() {
        let spec = CampaignSpec {
            name: "truncated".into(),
            params: ParamsSpec::Explicit(vec![sa_model::Params::new(4, 1, 2).unwrap()]),
            algorithms: vec![Algorithm::OneShot],
            mode: crate::spec::CampaignMode::Explore,
            max_steps: 100_000,
            max_states: 50, // far too small to exhaust the cell
            ..CampaignSpec::default()
        };
        let (records, outcome) = run_campaign_collect(&spec, EngineConfig::default());
        assert_eq!(outcome.explored, 1);
        assert_eq!(outcome.unverified_explorations, 1);
        // Truncation is not a safety violation — it is an exhaustiveness gap.
        assert!(outcome.clean(), "{outcome:?}");
        assert!(!records[0].verified);
        assert_eq!(records[0].stop, "truncated");
    }

    #[test]
    fn a_resident_cap_past_u64_bytes_is_no_cap() {
        // (2^44 + 1) MiB is 2^64 + 2^20 bytes: wrapped, it would be a
        // 1 MiB cap, which truncates this cell after 1,898 states.
        let spec = |max_resident_mb| CampaignSpec {
            name: "resident-cap".into(),
            params: ParamsSpec::Explicit(vec![sa_model::Params::new(3, 1, 2).unwrap()]),
            algorithms: vec![Algorithm::AnonymousOneShot],
            mode: crate::spec::CampaignMode::Explore,
            max_steps: 100_000,
            max_states: 5_000,
            explore_threads: 1,
            max_resident_mb,
            ..CampaignSpec::default()
        };
        let (uncapped, _) = run_campaign_collect(&spec(0), EngineConfig::default());
        let (huge, _) = run_campaign_collect(&spec((1 << 44) + 1), EngineConfig::default());
        assert!(uncapped[0].explored_states >= 5_000);
        assert_eq!(huge[0].to_json(), uncapped[0].to_json());
    }

    #[test]
    fn threaded_campaigns_run_clean_with_throughput_records() {
        let mut spec = tiny_spec();
        spec.backends = vec![crate::spec::BackendSpec::Threaded];
        spec.max_steps = 200_000;
        let (records, outcome) = run_campaign_collect(&spec, EngineConfig::default());
        assert!(outcome.clean(), "{outcome:?}");
        assert_eq!(outcome.threaded, records.len() as u64);
        // Adversary axis collapsed: cells x algorithms x seeds.
        assert_eq!(records.len(), 4 * 2 * 2);
        for record in &records {
            assert_eq!(record.backend, "threaded");
            assert_eq!(record.adversary, "hardware");
            assert_eq!(record.mode, "sample");
            assert!(record.safe(), "threaded run violated safety");
            assert!(record.bound_ok, "threaded run exceeded its bound");
            assert!(record.steps > 0, "threaded run took no steps");
            assert!(!record.progress_required);
            let line = record.to_json();
            assert!(line.contains("\"backend\":\"threaded\""));
            assert!(line.contains("\"wall_us\":"));
        }
    }

    #[test]
    fn mixed_backend_campaigns_keep_scheduled_output_deterministic() {
        let mut spec = tiny_spec();
        spec.backends = vec![
            crate::spec::BackendSpec::Scheduled,
            crate::spec::BackendSpec::Threaded,
        ];
        spec.max_steps = 200_000;
        let (a, outcome) = run_campaign_collect(&spec, EngineConfig::default());
        let (b, _) = run_campaign_collect(&spec, EngineConfig::default());
        assert!(outcome.clean(), "{outcome:?}");
        assert!(outcome.threaded > 0);
        assert!(a.iter().any(|r| r.backend == "scheduled"));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.scenario, y.scenario);
            if x.backend == "scheduled" {
                // Scheduled records are bit-for-bit reproducible even in a
                // mixed campaign.
                assert_eq!(x.to_json(), y.to_json());
            } else {
                // Threaded records are reproducible up to interleaving:
                // identity and safety agree, steps/wall-clock may not.
                assert_eq!(x.key(), y.key());
                assert_eq!(x.safe(), y.safe());
            }
        }
    }

    #[test]
    fn serve_campaigns_run_clean_with_latency_records() {
        let spec = CampaignSpec {
            name: "serve".into(),
            params: ParamsSpec::Explicit(vec![sa_model::Params::new(4, 1, 2).unwrap()]),
            mode: crate::spec::CampaignMode::Serve,
            seeds: vec![0, 1],
            clients: 8,
            rate: 3,
            duration: 40,
            batch_max: 4,
            shards: 2,
            ..CampaignSpec::default()
        };
        let (records, outcome) = run_campaign_collect(&spec, EngineConfig::default());
        assert!(outcome.clean(), "{outcome:?}");
        assert_eq!(outcome.served, 2, "one record per seed");
        assert_eq!(outcome.progress_failures, 0);
        for record in &records {
            assert_eq!(record.mode, "serve");
            assert_eq!(record.backend, "serve");
            assert_eq!(record.adversary, "open-loop");
            assert_eq!(record.stop, "drained");
            assert_eq!(record.proposals, 3 * 40);
            assert!(record.batches > 0);
            assert!(record.decisions == record.proposals);
            assert!(record.distinct_outputs_max <= record.k);
            assert!(record.ops_per_sec > 0);
            assert!(record.p50_us > 0 && record.p50_us <= record.p999_us);
            assert!(record.decided_fingerprint != 0);
            let line = record.to_json();
            assert!(line.contains("\"backend\":\"serve\""));
            assert!(line.contains("\"p99_us\":"));
        }
    }

    #[test]
    fn serve_output_is_byte_identical_at_any_shard_and_thread_count() {
        let spec = CampaignSpec {
            name: "serve-determinism".into(),
            params: ParamsSpec::Explicit(vec![sa_model::Params::new(4, 1, 2).unwrap()]),
            mode: crate::spec::CampaignMode::Serve,
            seeds: vec![0, 1],
            clients: 8,
            rate: 3,
            duration: 40,
            batch_max: 4,
            shards: 1,
            ..CampaignSpec::default()
        };
        let run = |shards, threads| {
            let mut bytes = Vec::new();
            let spec = CampaignSpec {
                shards,
                ..spec.clone()
            };
            run_campaign(
                &spec,
                EngineConfig {
                    threads,
                    ..EngineConfig::default()
                },
                &mut bytes,
            )
            .unwrap();
            bytes
        };
        let reference = run(1, 1);
        assert!(!reference.is_empty());
        // Neither the service's shard count nor the engine's worker count
        // may change a single byte — latency and throughput included,
        // because the virtual clock makes both pure functions of the spec.
        for (shards, threads) in [(2, 1), (4, 2), (3, 4)] {
            assert_eq!(
                run(shards, threads),
                reference,
                "serve output drifted at shards={shards}, threads={threads}"
            );
        }
    }

    #[test]
    fn adversary_search_campaigns_rediscover_the_bound() {
        // n + 2m − k = 3 on the 2/1/1 cell: every goal on every algorithm
        // must find a replay-verified witness touching exactly 3 registers.
        let spec = CampaignSpec {
            name: "search".into(),
            params: ParamsSpec::Explicit(vec![sa_model::Params::new(2, 1, 1).unwrap()]),
            algorithms: vec![Algorithm::OneShot, Algorithm::AnonymousOneShot],
            mode: crate::spec::CampaignMode::AdversarySearch,
            goals: set_agreement::runtime::SearchGoal::all().to_vec(),
            search_depth: 40,
            max_states: 500_000,
            symmetry: set_agreement::runtime::SymmetryMode::ProcessIds,
            ..CampaignSpec::default()
        };
        let (records, outcome) = run_campaign_collect(&spec, EngineConfig::default());
        assert!(outcome.clean(), "{outcome:?}");
        assert_eq!(outcome.searched, 4, "2 algorithms x 2 goals");
        assert_eq!(outcome.witnesses_found, 4);
        for record in &records {
            assert_eq!(record.mode, "adversary-search");
            assert_eq!(record.backend, "adversary-search");
            assert_eq!(record.stop, "target-reached");
            assert_eq!(record.target_registers, 3);
            assert_eq!(record.witness_registers, 3, "{record:?}");
            assert!(record.witness_found);
            assert!(record.verified, "witness failed replay verification");
            assert!(record.witness_depth > 0);
            assert_ne!(record.witness_schedule, "-");
            assert_ne!(record.witness_fingerprint, 0);
            assert!(record.adversary.starts_with("adversary-search:"));
        }
    }

    #[test]
    fn adversary_search_output_is_byte_identical_at_any_thread_count() {
        let spec = CampaignSpec {
            name: "search-determinism".into(),
            params: ParamsSpec::Explicit(vec![sa_model::Params::new(2, 1, 1).unwrap()]),
            algorithms: vec![Algorithm::OneShot],
            mode: crate::spec::CampaignMode::AdversarySearch,
            goals: set_agreement::runtime::SearchGoal::all().to_vec(),
            search_depth: 40,
            max_states: 500_000,
            explore_threads: 1,
            ..CampaignSpec::default()
        };
        let run = |search_threads, engine_threads| {
            let mut bytes = Vec::new();
            let spec = CampaignSpec {
                explore_threads: search_threads,
                ..spec.clone()
            };
            run_campaign(
                &spec,
                EngineConfig {
                    threads: engine_threads,
                    ..EngineConfig::default()
                },
                &mut bytes,
            )
            .unwrap();
            bytes
        };
        let reference = run(1, 1);
        assert!(!reference.is_empty());
        // Neither the search's worker count nor the engine's thread count
        // may change a single byte of the stream — same invariant the
        // parallel explorer upholds.
        for (search_threads, engine_threads) in [(2, 1), (8, 2), (8, 4)] {
            assert_eq!(
                run(search_threads, engine_threads),
                reference,
                "search output drifted at search_threads={search_threads}, \
                 engine threads={engine_threads}"
            );
        }
    }

    #[test]
    fn sharded_runs_merge_back_into_the_unsharded_stream() {
        let spec = tiny_spec();
        let full = {
            let mut bytes = Vec::new();
            run_campaign(&spec, EngineConfig::default(), &mut bytes).unwrap();
            bytes
        };
        let mut shards = Vec::new();
        let count = 3;
        for index in 0..count {
            let config = EngineConfig {
                shard: Some((index, count)),
                ..EngineConfig::default()
            };
            let mut bytes = Vec::new();
            let outcome = run_campaign(&spec, config, &mut bytes).unwrap();
            assert!(outcome.records > 0 && outcome.records < outcome.expansion.scenarios);
            shards.push(crate::record::parse_jsonl(std::str::from_utf8(&bytes).unwrap()).unwrap());
        }
        let merged = crate::merge_shards(&shards).unwrap();
        let merged_bytes: Vec<u8> = merged
            .iter()
            .flat_map(|r| format!("{}\n", r.to_json()).into_bytes())
            .collect();
        assert_eq!(merged_bytes, full, "merged shards differ from full run");
    }

    #[test]
    fn outcome_counts_progress_failures_without_flagging_them_unsafe() {
        // 3 survivors > m: termination is not guaranteed, so some scenarios
        // hit the step limit without every survivor deciding. Safety must
        // still hold throughout.
        let mut spec = tiny_spec();
        spec.adversaries = vec![AdversarySpec::Obstruction {
            contention_factor: 5,
            survivors: Survivors::Count(3),
        }];
        spec.max_steps = 20_000;
        let (records, outcome) = run_campaign_collect(&spec, EngineConfig::default());
        assert!(outcome.clean(), "{outcome:?}");
        assert!(records.iter().all(|r| !r.progress_required));
    }
}
