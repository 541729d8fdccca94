//! The service proper: a global deterministic sequencer feeding a sharded
//! execution pool, with a graceful-drain shutdown path.
//!
//! # Architecture
//!
//! ```text
//!  load generator ──► batcher/sequencer ──► per-shard MPSC queues
//!  (open loop,        (cuts batches,        │        │        │
//!   rate/tick)         numbers instances)   ▼        ▼        ▼
//!                                        shard 0  shard 1  shard S-1
//!                                        (one Figure 4 instance
//!                                         per batch, stepped by
//!                                         sa_runtime::Executor with
//!                                         no scheduler)
//!                                           │        │        │
//!                                           └────────┴────────┘
//!                                        joined at drain: each shard
//!                                        returns its results once
//!                                        (sorted by instance id,
//!                                         per-shard histograms merged)
//! ```
//!
//! # Determinism
//!
//! Under [`ServeClock::Virtual`] the entire report is a pure function of
//! the configuration: arrivals are tick-driven, batch composition depends
//! only on arrival order and `batch_max`, instance ids are assigned by the
//! global sequencer *before* sharding, each batch executes under a fixed
//! deterministic schedule (bounded round-robin contention, then solo
//! completion — guaranteed to terminate by m-obstruction-freedom), and
//! the results the shards return at drain are sorted by instance id. The
//! shard count decides only *where* a batch executes, never what it
//! contains or decides, so reports are bit-for-bit identical at any shard
//! count. Under [`ServeClock::Wall`], latencies come from
//! `std::time::Instant` and no reproducibility is claimed — but decided
//! values are still shard-independent.

use crate::batcher::{Batch, Batcher, Proposal};
use crate::histogram::LatencyHistogram;
use crate::loadgen::LoadGenerator;
use sa_core::RepeatedSetAgreement;
use sa_model::{Params, ProcessId};
use sa_runtime::{Executor, ServeClock, ServeOptions};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Round-robin contention steps per participant before the solo
/// completion phase of a batch (see [`execute_batch`]).
const CONTENTION_FACTOR: u64 = 8;

/// What to run: the agreement cell plus the service knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Obstruction degree `m` of each batch's agreement instance.
    pub m: usize,
    /// Agreement degree `k`: at most `k` distinct values per batch.
    pub k: usize,
    /// Service and load-generator knobs.
    pub options: ServeOptions,
    /// Step budget per batch (contention plus every solo completion).
    pub max_steps_per_batch: u64,
}

impl ServeConfig {
    /// A config for `m`-obstruction-free `k`-set agreement batches with
    /// default [`ServeOptions`] and a generous per-batch step budget.
    pub fn new(m: usize, k: usize) -> Self {
        ServeConfig {
            m,
            k,
            options: ServeOptions::default(),
            max_steps_per_batch: 1_000_000,
        }
    }
}

/// One line of the decided-value log: `client`'s proposal in `instance`
/// was answered with `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecidedEntry {
    /// The agreement instance (batch) the proposal participated in.
    pub instance: u64,
    /// The client that proposed.
    pub client: u64,
    /// The value the service decided for this client.
    pub value: u64,
}

/// Everything a service run produced: counters, safety accounting, the
/// merged latency histogram and the full decided-value log.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Proposals issued by the load generator.
    pub proposals: u64,
    /// Batches cut (= agreement instances executed).
    pub batches: u64,
    /// Algorithm steps executed across all batches.
    pub steps: u64,
    /// Proposals whose decided value was outside the batch's inputs.
    pub validity_violations: u64,
    /// Batches deciding more than `k` distinct values.
    pub agreement_violations: u64,
    /// Proposals whose process failed to decide within the step budget.
    pub unfinished: u64,
    /// The largest number of distinct outputs any batch decided.
    pub distinct_outputs_max: usize,
    /// Per-proposal latency, merged across the shard histograms.
    pub histogram: LatencyHistogram,
    /// Run duration in microseconds (virtual: `duration_ticks * 1000`).
    pub duration_us: u64,
    /// The shard count the service ran with.
    pub shards: usize,
    /// The clock that drove the run.
    pub clock: ServeClock,
    /// The decided-value log, sorted by instance id then arrival order.
    pub decided: Vec<DecidedEntry>,
    /// `true` if the drain lost nothing: every accepted proposal was
    /// batched, executed and answered (or counted as unfinished).
    pub drained: bool,
}

impl ServeReport {
    /// Safety violations: validity plus agreement.
    pub fn safety_violations(&self) -> u64 {
        self.validity_violations + self.agreement_violations
    }

    /// Sustained throughput in proposals per second.
    pub fn ops_per_sec(&self) -> u64 {
        self.proposals
            .saturating_mul(1_000_000)
            .checked_div(self.duration_us)
            .unwrap_or(0)
    }

    /// Algorithm steps per second.
    pub fn steps_per_sec(&self) -> u64 {
        self.steps
            .saturating_mul(1_000_000)
            .checked_div(self.duration_us)
            .unwrap_or(0)
    }

    /// An FNV-1a fingerprint of the decided-value log, for cheap
    /// equality assertions across runs (e.g. CI's shard-count compare).
    pub fn decided_fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for entry in &self.decided {
            eat(entry.instance);
            eat(entry.client);
            eat(entry.value);
        }
        hash
    }
}

/// What a worker hands back per batch.
struct BatchResult {
    instance: u64,
    steps: u64,
    distinct: usize,
    validity_violations: u64,
    unfinished: u64,
    /// `(client, decided value)` in the batch's arrival order.
    decided: Vec<(u64, u64)>,
}

/// The current stamp in the unit of the active clock: the tick counter
/// under the virtual clock, elapsed microseconds under the wall clock.
fn stamp(clock: ServeClock, tick: u64, epoch: Instant) -> u64 {
    match clock {
        ServeClock::Virtual => tick,
        ServeClock::Wall => epoch.elapsed().as_micros() as u64,
    }
}

/// Executes one batch as one Figure 4 instance per participating process,
/// recording per-proposal latencies into the shard's histogram.
///
/// Batches of `b ≤ k` proposals take the trivial path — each client is
/// answered with its own value, which satisfies k-set agreement (at most
/// `b ≤ k` distinct outputs) and validity at zero shared-memory cost.
/// Larger batches run `Params::new(b, m, k)` (valid since `b > k ≥ m`)
/// under bounded round-robin contention followed by solo completion, a
/// deterministic schedule that m-obstruction-freedom guarantees to
/// terminate.
fn execute_batch(
    batch: &Batch,
    m: usize,
    k: usize,
    max_steps: u64,
    clock: ServeClock,
    epoch: Instant,
    histogram: &mut LatencyHistogram,
) -> BatchResult {
    let b = batch.proposals.len();
    let mut decided: Vec<(u64, Option<u64>)> = Vec::with_capacity(b);
    let mut steps = 0;
    if b <= k {
        for proposal in &batch.proposals {
            decided.push((proposal.client, Some(proposal.value)));
        }
    } else {
        let params = Params::new(b, m.min(k), k).expect("b > k >= m ensures a valid cell");
        let automata: Vec<RepeatedSetAgreement> = batch
            .proposals
            .iter()
            .enumerate()
            .map(|(i, proposal)| {
                RepeatedSetAgreement::new(params, ProcessId(i), vec![proposal.value])
                    .expect("participant ids are in range and inputs non-empty")
            })
            .collect();
        let mut instance = Executor::new(automata);
        instance.run_round_robin(b as u64 * CONTENTION_FACTOR);
        for (i, proposal) in batch.proposals.iter().enumerate() {
            let halted =
                instance.run_solo(ProcessId(i), max_steps.saturating_sub(instance.steps()));
            let value = if halted {
                instance.decisions().decision_of(ProcessId(i), 1)
            } else {
                None
            };
            decided.push((proposal.client, value));
        }
        steps = instance.steps();
    }

    let inputs: Vec<u64> = batch.proposals.iter().map(|p| p.value).collect();
    let mut outputs: Vec<u64> = Vec::with_capacity(b);
    let mut validity_violations = 0;
    let mut unfinished = 0;
    let mut answered = Vec::with_capacity(b);
    for ((client, value), proposal) in decided.into_iter().zip(&batch.proposals) {
        let Some(value) = value else {
            unfinished += 1;
            continue;
        };
        if !inputs.contains(&value) {
            validity_violations += 1;
        }
        if !outputs.contains(&value) {
            outputs.push(value);
        }
        let latency = match clock {
            // One tick models a millisecond; one algorithm step a
            // microsecond of execution time.
            ServeClock::Virtual => (batch.flushed_at - proposal.arrival) * 1000 + steps,
            ServeClock::Wall => stamp(clock, 0, epoch).saturating_sub(proposal.arrival),
        };
        histogram.record(latency);
        answered.push((client, value));
    }
    BatchResult {
        instance: batch.instance,
        steps,
        distinct: outputs.len(),
        validity_violations,
        unfinished,
        decided: answered,
    }
}

/// One shard: runs its batches in dispatch (so instance) order until the
/// sequencer hangs up, then hands back their results and its latency
/// histogram once, when it is joined.
fn worker(
    batches: mpsc::Receiver<Batch>,
    m: usize,
    k: usize,
    max_steps: u64,
    clock: ServeClock,
    epoch: Instant,
) -> (Vec<BatchResult>, LatencyHistogram) {
    let mut histogram = LatencyHistogram::new();
    let results = batches
        .iter()
        .map(|batch| execute_batch(&batch, m, k, max_steps, clock, epoch, &mut histogram))
        .collect();
    (results, histogram)
}

/// Runs the service to completion: `duration_ticks` of open-loop load,
/// then a graceful drain (flush the open batch, close the shard queues,
/// join every worker once it has finished its backlog, merge the shard
/// results and histograms).
///
/// # Panics
///
/// Panics if the config is degenerate: `m` of 0, `m > k`, or any of
/// `shards`, `batch_max`, `clients`, `rate`, `duration_ticks` being 0.
pub fn serve(config: &ServeConfig) -> ServeReport {
    let options = config.options;
    assert!(config.m >= 1 && config.m <= config.k, "need 1 <= m <= k");
    assert!(options.shards >= 1, "shards must be at least 1");
    assert!(
        options.duration_ticks >= 1,
        "duration must be at least 1 tick"
    );
    let clock = options.clock;
    let epoch = Instant::now();
    let mut generator =
        LoadGenerator::new(options.clients, options.rate, options.load, options.seed);
    let mut batcher = Batcher::new(options.batch_max);

    let mut results: Vec<BatchResult> = Vec::new();
    let mut histogram = LatencyHistogram::new();
    thread::scope(|s| {
        let mut queues = Vec::with_capacity(options.shards);
        let mut handles = Vec::with_capacity(options.shards);
        for _ in 0..options.shards {
            let (tx, rx) = mpsc::channel::<Batch>();
            queues.push(tx);
            let (m, k, max_steps) = (config.m, config.k, config.max_steps_per_batch);
            handles.push(s.spawn(move || worker(rx, m, k, max_steps, clock, epoch)));
        }

        let dispatch = |batch: Batch| {
            let shard = (batch.instance % queues.len() as u64) as usize;
            queues[shard]
                .send(batch)
                .expect("workers outlive the dispatch loop");
        };
        for tick in 0..options.duration_ticks {
            let arrival = stamp(clock, tick, epoch);
            for (client, value) in generator.tick() {
                let proposal = Proposal {
                    client,
                    value,
                    arrival,
                };
                if let Some(batch) = batcher.push(proposal, arrival) {
                    dispatch(batch);
                }
            }
            // Linger: the open batch is flushed at every tick boundary, so
            // no proposal waits longer than one tick to be sequenced.
            if let Some(batch) = batcher.flush(stamp(clock, tick, epoch)) {
                dispatch(batch);
            }
            if clock == ServeClock::Wall {
                let next = Duration::from_millis(tick + 1);
                thread::sleep(next.saturating_sub(epoch.elapsed()));
            }
        }
        // Graceful drain: flush whatever is still pending, hang up the
        // shard queues, and let every worker finish its backlog.
        if let Some(batch) = batcher.flush(stamp(clock, options.duration_ticks, epoch)) {
            dispatch(batch);
        }
        drop(queues);
        for handle in handles {
            let (shard_results, shard_histogram) = handle.join().expect("a shard worker panicked");
            results.extend(shard_results);
            histogram.merge(&shard_histogram);
        }
    });
    // Ids are unique, so an unstable sort restores global instance order.
    results.sort_unstable_by_key(|result| result.instance);

    let duration_us = match clock {
        ServeClock::Virtual => options.duration_ticks * 1000,
        ServeClock::Wall => epoch.elapsed().as_micros() as u64,
    };
    let mut report = ServeReport {
        proposals: generator.issued(),
        batches: batcher.batches(),
        steps: 0,
        validity_violations: 0,
        agreement_violations: 0,
        unfinished: 0,
        distinct_outputs_max: 0,
        histogram,
        duration_us,
        shards: options.shards,
        clock,
        decided: Vec::new(),
        drained: false,
    };
    let mut answered = 0u64;
    for result in &results {
        report.steps += result.steps;
        report.validity_violations += result.validity_violations;
        if result.distinct > config.k {
            report.agreement_violations += 1;
        }
        report.unfinished += result.unfinished;
        report.distinct_outputs_max = report.distinct_outputs_max.max(result.distinct);
        answered += result.decided.len() as u64;
        for &(client, value) in &result.decided {
            report.decided.push(DecidedEntry {
                instance: result.instance,
                client,
                value,
            });
        }
    }
    report.drained = batcher.pending() == 0
        && batcher.accepted() == batcher.batched()
        && answered + report.unfinished == report.proposals
        && results.len() as u64 == report.batches;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_runtime::ServeLoad;

    fn config(m: usize, k: usize, options: ServeOptions) -> ServeConfig {
        ServeConfig {
            m,
            k,
            options,
            max_steps_per_batch: 1_000_000,
        }
    }

    #[test]
    fn a_virtual_time_run_is_safe_drained_and_deterministic() {
        let options = ServeOptions {
            shards: 2,
            batch_max: 5,
            clients: 16,
            rate: 7,
            duration_ticks: 40,
            clock: ServeClock::Virtual,
            load: ServeLoad::Distinct,
            seed: 3,
        };
        let report = serve(&config(2, 2, options));
        assert_eq!(report.proposals, 280);
        assert_eq!(report.batches, 80, "7/tick = one 5-cut plus one 2-flush");
        assert!(report.drained);
        assert_eq!(report.safety_violations(), 0);
        assert_eq!(report.unfinished, 0);
        assert!(report.distinct_outputs_max <= 2);
        assert_eq!(report.histogram.count(), 280);
        assert_eq!(report.decided.len(), 280);
        assert_eq!(report.duration_us, 40_000);
        assert!(report.ops_per_sec() > 0);
        let again = serve(&config(2, 2, options));
        assert_eq!(report.decided, again.decided);
        assert_eq!(report.decided_fingerprint(), again.decided_fingerprint());
        assert_eq!(report.histogram.summary(), again.histogram.summary());
    }

    #[test]
    fn decided_values_are_identical_at_any_shard_count() {
        let run = |shards| {
            serve(&config(
                1,
                2,
                ServeOptions {
                    shards,
                    batch_max: 6,
                    clients: 10,
                    rate: 9,
                    duration_ticks: 25,
                    clock: ServeClock::Virtual,
                    load: ServeLoad::Random { universe: 40 },
                    seed: 11,
                },
            ))
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.decided, four.decided);
        assert_eq!(one.steps, four.steps);
        assert_eq!(one.batches, four.batches);
        assert_eq!(one.histogram.summary(), four.histogram.summary());
        assert_eq!(one.decided_fingerprint(), four.decided_fingerprint());
        assert_eq!(one.safety_violations(), 0);
        assert_ne!(one.shards, four.shards, "only the shard count differs");
    }

    #[test]
    fn the_wall_clock_decides_what_the_virtual_clock_decides_at_another_shard_count() {
        let run = |clock, shards| {
            serve(&config(
                2,
                3,
                ServeOptions {
                    shards,
                    batch_max: 6,
                    clients: 12,
                    rate: 8,
                    duration_ticks: 6,
                    clock,
                    load: ServeLoad::Random { universe: 30 },
                    seed: 5,
                },
            ))
        };
        let virtual_run = run(ServeClock::Virtual, 1);
        let wall_run = run(ServeClock::Wall, 3);
        assert_eq!(wall_run.decided, virtual_run.decided);
        assert_eq!(wall_run.steps, virtual_run.steps);
        assert_eq!(wall_run.batches, virtual_run.batches);
        assert!(virtual_run.drained && wall_run.drained);
        assert!(wall_run.steps > 0, "batches of 6 > k run the algorithm");
        let mut ids: Vec<u64> = wall_run.decided.iter().map(|e| e.instance).collect();
        assert!(ids.windows(2).all(|w| w[0] <= w[1]), "ids never decrease");
        ids.dedup();
        assert_eq!(ids, (0..wall_run.batches).collect::<Vec<_>>());
    }

    #[test]
    fn tiny_batches_take_the_trivial_path_and_keep_validity() {
        // rate 1 with batch_max 4: every tick flushes a singleton batch,
        // b = 1 <= k, so each client is answered its own value in 0 steps.
        let report = serve(&config(
            1,
            2,
            ServeOptions {
                shards: 1,
                batch_max: 4,
                clients: 3,
                rate: 1,
                duration_ticks: 12,
                clock: ServeClock::Virtual,
                load: ServeLoad::Distinct,
                seed: 0,
            },
        ));
        assert_eq!(report.batches, 12);
        assert_eq!(report.steps, 0);
        assert_eq!(report.safety_violations(), 0);
        assert_eq!(report.distinct_outputs_max, 1);
        for (i, entry) in report.decided.iter().enumerate() {
            assert_eq!(entry.value, i as u64, "distinct load answers itself");
        }
    }

    #[test]
    fn uniform_load_decides_one_value_per_batch() {
        let report = serve(&config(
            2,
            3,
            ServeOptions {
                shards: 3,
                batch_max: 8,
                clients: 8,
                rate: 8,
                duration_ticks: 10,
                clock: ServeClock::Virtual,
                load: ServeLoad::Uniform(77),
                seed: 0,
            },
        ));
        assert_eq!(report.distinct_outputs_max, 1);
        assert!(report.decided.iter().all(|e| e.value == 77));
        assert_eq!(report.safety_violations(), 0);
        assert!(report.drained);
    }

    #[test]
    fn wall_clock_runs_complete_and_drain() {
        let report = serve(&config(
            1,
            1,
            ServeOptions {
                shards: 2,
                batch_max: 3,
                clients: 4,
                rate: 4,
                duration_ticks: 5,
                clock: ServeClock::Wall,
                load: ServeLoad::Distinct,
                seed: 0,
            },
        ));
        assert_eq!(report.proposals, 20);
        assert!(report.drained);
        assert_eq!(report.safety_violations(), 0);
        assert!(report.duration_us >= 5_000, "five 1ms ticks elapsed");
        assert_eq!(report.clock, ServeClock::Wall);
    }
}
