//! Per-layer microbenchmarks: each layer's public functions timed over a
//! seeded corpus of reachable states of the workload's own cell, plus a
//! timed single-threaded replay of the service.

use crate::stats::{Metrics, Samples, SplitMix};
use sa_core::{AgreementInstance, RepeatedSetAgreement};
use sa_model::{independent, Automaton, Params, ProcessId};
use sa_runtime::store::{
    decode_frontier_record, encode_frontier_record, read_segment, FrontierRecord, KeyTable,
    SegmentKind, SegmentWriter,
};
use sa_runtime::{
    agreement_predicate, canonical_state_key, mask_of, orders_commute, persistent_set, state_key,
    successor_sleep, Executor, StateKey, SymmetryPlan,
};
use sa_serve::{Batch, Batcher, LatencyHistogram, LoadGenerator, Proposal, ServeConfig};
use std::fmt::Debug;
use std::hash::Hash;
use std::time::Instant;

/// States in the corpus.
const CORPUS: usize = 2_000;
/// Calls per span for the layers cheaper than the clock's resolution.
const FAST_BATCH: usize = 64;
/// Calls per span for the microsecond-scale layers.
const BATCH: usize = 8;
/// Keys inserted into each fresh seen-set, and how many sets are filled.
const TABLE_KEYS: usize = 1 << 18;
const TABLES: usize = 4;
const INSERT_BATCH: usize = 1024;
/// Segments written and read back, and the size of each.
const SEGMENTS: usize = 8;
const SEGMENT_BYTES: usize = 4 << 20;

/// One corpus entry: a reachable configuration and the schedule reaching it.
struct Entry<A: Automaton> {
    state: Executor<A>,
    schedule: Vec<ProcessId>,
    runnable: Vec<ProcessId>,
}

/// Seeded random walks of up to `walk` steps from `initial`; the end of each
/// walk is one corpus state.
fn corpus<A>(initial: &Executor<A>, seed: u64, walk: usize) -> Vec<Entry<A>>
where
    A: Automaton + Clone,
    A::Value: Clone + Eq + Debug,
{
    let mut rng = SplitMix(seed);
    (0..CORPUS)
        .map(|_| {
            let mut state = initial.clone();
            let mut schedule = Vec::new();
            for _ in 0..rng.below(walk + 1) {
                let runnable = state.runnable();
                if runnable.is_empty() {
                    break;
                }
                let process = runnable[rng.below(runnable.len())];
                state.step(process);
                schedule.push(process);
            }
            let runnable = state.runnable();
            Entry {
                state,
                schedule,
                runnable,
            }
        })
        .collect()
}

/// Times the executor, key, interference, gate, property and store layers
/// over a corpus of `initial`'s reachable states.
pub fn explore_layers<A>(
    initial: &Executor<A>,
    plan: &SymmetryPlan,
    k: usize,
    seed: u64,
    walk: usize,
    out: &mut Metrics,
) where
    A: Automaton + Clone + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    let corpus = corpus(initial, seed, walk);
    let mut clone = Samples::default();
    let mut step = Samples::default();
    let mut canonical = Samples::default();
    let mut plain = Samples::default();
    let mut pair = Samples::default();
    let mut invisible = Samples::default();
    let mut commute = Samples::default();
    let mut sleep = Samples::default();
    let mut persistent = Samples::default();
    let mut predicate_time = Samples::default();
    let predicate = agreement_predicate::<A>(k);

    for entry in &corpus {
        let state = &entry.state;
        clone.batch(BATCH, || state.clone());
        canonical.batch(BATCH, || canonical_state_key(state, plan));
        plain.batch(BATCH, || state_key(state));
        predicate_time.batch(FAST_BATCH, || predicate(state));
        let Some(&first) = entry.runnable.first() else {
            continue;
        };
        let mut copies: Vec<Executor<A>> = (0..BATCH).map(|_| state.clone()).collect();
        step.span(BATCH, || {
            for copy in &mut copies {
                std::hint::black_box(copy.step(first));
            }
        });
        drop(copies);
        persistent.batch(BATCH, || persistent_set(state, &entry.runnable));
        let everyone = mask_of(&entry.runnable);
        sleep.span(entry.runnable.len(), || {
            for &p in &entry.runnable {
                std::hint::black_box(successor_sleep(state, p, everyone & !mask_of(&[p])));
            }
        });

        let pairs: Vec<(ProcessId, ProcessId)> = entry
            .runnable
            .iter()
            .enumerate()
            .flat_map(|(i, &p)| entry.runnable[i + 1..].iter().map(move |&q| (p, q)))
            .collect();
        if pairs.is_empty() {
            continue;
        }
        let ops: Vec<_> = pairs
            .iter()
            .filter_map(|&(p, q)| Some((state.poised(p)?, state.poised(q)?)))
            .collect();
        pair.span(ops.len() * FAST_BATCH, || {
            for _ in 0..FAST_BATCH {
                for (a, b) in &ops {
                    std::hint::black_box(independent(a, b));
                }
            }
        });
        invisible.span(ops.len() * FAST_BATCH, || {
            for _ in 0..FAST_BATCH {
                for (a, b) in &ops {
                    std::hint::black_box(state.memory().invisibly_independent(a, b));
                }
            }
        });
        commute.span(pairs.len(), || {
            for &(p, q) in &pairs {
                std::hint::black_box(orders_commute(state, p, q));
            }
        });
    }
    out.timing("executor.clone_ns", clone.summary(), "ns");
    out.timing("executor.step_ns", step.summary(), "ns");
    out.timing("keys.canonical_key_ns", canonical.summary(), "ns");
    out.timing("keys.state_key_ns", plain.summary(), "ns");
    out.timing("independence.pair_ns", pair.summary(), "ns");
    out.timing("memory.invisible_pair_ns", invisible.summary(), "ns");
    out.timing("commutation.orders_commute_ns", commute.summary(), "ns");
    out.timing("gate.successor_sleep_ns", sleep.summary(), "ns");
    out.timing("gate.persistent_set_ns", persistent.summary(), "ns");
    out.timing("properties.predicate_ns", predicate_time.summary(), "ns");
    store_layers(&corpus, seed, initial.process_count(), out);
}

/// Seen-set inserts, frontier record codec and segment I/O, fed by the
/// corpus' keys and schedules.
fn store_layers<A>(corpus: &[Entry<A>], seed: u64, processes: usize, out: &mut Metrics)
where
    A: Automaton + Clone + Hash,
    A::Value: Hash + Clone + Eq + Debug,
{
    let mut rng = SplitMix(!seed);
    let mut insert = Samples::default();
    for _ in 0..TABLES {
        // The corpus' own keys first, then seeded keys standing in for the
        // rest of a large state space (keys are uniform hashes either way).
        let keys: Vec<StateKey> = corpus
            .iter()
            .map(|entry| state_key(&entry.state))
            .chain(
                (corpus.len()..TABLE_KEYS).map(|_| StateKey::from_parts([rng.next(), rng.next()])),
            )
            .collect();
        let mut table = KeyTable::new();
        for chunk in keys.chunks(INSERT_BATCH) {
            insert.span(chunk.len(), || {
                for key in chunk {
                    std::hint::black_box(table.insert(*key));
                }
            });
        }
    }
    out.timing("store.keytable_insert_ns", insert.summary(), "ns");

    let records: Vec<FrontierRecord> = corpus
        .iter()
        .map(|entry| FrontierRecord {
            schedule: entry.schedule.clone(),
            orbit_lower: 1 + rng.next() % 6,
            sleep: rng.next() & mask_of(&entry.runnable),
            expand: rng
                .next()
                .is_multiple_of(4)
                .then(|| rng.next() & mask_of(&entry.runnable)),
            backtrack: rng.next() & mask_of(&entry.runnable),
            done: rng.next() & mask_of(&entry.runnable),
        })
        .collect();
    let mut encode = Samples::default();
    let mut decode = Samples::default();
    let mut encoded = Vec::with_capacity(records.len());
    for record in &records {
        encode.batch(BATCH, || encode_frontier_record(record));
        let bytes = encode_frontier_record(record);
        decode.batch(BATCH, || {
            decode_frontier_record(&bytes, processes).expect("a record this run encoded decodes")
        });
        encoded.push(bytes);
    }
    out.timing("store.frontier_encode_ns", encode.summary(), "ns");
    out.timing("store.frontier_decode_ns", decode.summary(), "ns");

    let dir = std::env::temp_dir().join(format!("perfbench-segments-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating the segment directory");
    let mut write = Samples::default();
    let mut read = Samples::default();
    for segment in 0..SEGMENTS {
        let path = dir.join(format!("level-{segment}.seg"));
        let start = Instant::now();
        let mut writer = SegmentWriter::create(&path, SegmentKind::FrontierLevel, seed)
            .expect("creating a segment");
        let mut written = 0;
        for bytes in encoded.iter().cycle() {
            if written >= SEGMENT_BYTES {
                break;
            }
            writer.append(bytes).expect("appending to a segment");
            written += bytes.len();
        }
        writer.finish().expect("sealing a segment");
        write.record_value(written as f64 / 1e6 / start.elapsed().as_secs_f64());
        let start = Instant::now();
        let (_, back) = read_segment(&path, SegmentKind::FrontierLevel).expect("reading a segment");
        let read_bytes: usize = back.iter().map(Vec::len).sum();
        read.record_value(read_bytes as f64 / 1e6 / start.elapsed().as_secs_f64());
        assert_eq!(read_bytes, written, "a segment reads back what was written");
    }
    std::fs::remove_dir_all(&dir).expect("removing the segment directory");
    out.timing("store.segment_write_mb_s", write.summary(), "MB/s");
    out.timing("store.segment_read_mb_s", read.summary(), "MB/s");
}

/// Round-robin contention steps per participant before each participant
/// runs solo — the schedule the service gives every batch.
const CONTENTION_FACTOR: u64 = 8;

/// Spans of the service replay.
#[derive(Debug, Default)]
pub struct ServeSpans {
    pub batch: Samples,
    pub push: Samples,
    pub tick: Samples,
    pub record: Samples,
}

impl ServeSpans {
    /// Spans that time nothing: the untraced reference for the replay.
    pub fn off() -> Self {
        ServeSpans {
            batch: Samples::off(),
            push: Samples::off(),
            tick: Samples::off(),
            record: Samples::off(),
        }
    }

    pub fn report(&self, out: &mut Metrics) {
        let mut batch = self.batch.summary();
        batch.p50 /= 1e3;
        batch.p99 /= 1e3;
        out.timing("serve.batch_us", batch, "us");
        out.timing("serve.batcher_push_ns", self.push.summary(), "ns");
        out.timing("serve.loadgen_tick_ns", self.tick.summary(), "ns");
        out.timing("serve.histogram_record_ns", self.record.summary(), "ns");
    }
}

/// What a replay decided: the service's checks and its decided-log
/// fingerprint.
#[derive(Debug, Default)]
pub struct Replay {
    pub proposals: u64,
    pub batches: u64,
    pub steps: u64,
    pub validity_violations: u64,
    pub agreement_violations: u64,
    pub unfinished: u64,
    pub fingerprint: u64,
}

/// A single-threaded replay of the service under the virtual clock, built
/// from its public parts: the load generator, the batcher, one Figure 4
/// instance per batch and the latency histogram. It re-derives the decided
/// log the threaded service reports, so the two fingerprints must agree.
pub fn replay(config: &ServeConfig, ticks: u64, spans: &mut ServeSpans) -> Replay {
    let options = config.options;
    let mut generator =
        LoadGenerator::new(options.clients, options.rate, options.load, options.seed);
    let mut batcher = Batcher::new(options.batch_max);
    let mut histogram = LatencyHistogram::new();
    let mut out = Replay {
        fingerprint: 0xCBF2_9CE4_8422_2325,
        ..Replay::default()
    };
    let mut run = |batch: Batch, spans: &mut ServeSpans, out: &mut Replay| {
        let decided = spans.batch.span(1, || execute_batch(&batch, config, out));
        spans.record.span(decided.len(), || {
            for &(arrival, latency) in &decided {
                std::hint::black_box(arrival);
                histogram.record(latency);
            }
        });
    };
    for tick in 0..ticks {
        let arrivals = spans.tick.span(1, || generator.tick());
        out.proposals += arrivals.len() as u64;
        let mut full = Vec::new();
        spans.push.span(arrivals.len(), || {
            for (client, value) in arrivals {
                let proposal = Proposal {
                    client,
                    value,
                    arrival: tick,
                };
                full.extend(batcher.push(proposal, tick));
            }
        });
        full.extend(batcher.flush(tick));
        for batch in full {
            run(batch, spans, &mut out);
        }
    }
    if let Some(batch) = batcher.flush(ticks) {
        run(batch, spans, &mut out);
    }
    out.batches = batcher.batches();
    out
}

/// Runs one batch the way the service does and folds its decided entries
/// into `out`'s fingerprint; returns `(arrival, latency)` per answer.
fn execute_batch(batch: &Batch, config: &ServeConfig, out: &mut Replay) -> Vec<(u64, u64)> {
    let (m, k) = (config.m, config.k);
    let b = batch.proposals.len();
    let mut steps = 0;
    let decided: Vec<Option<u64>> = if b <= k {
        batch.proposals.iter().map(|p| Some(p.value)).collect()
    } else {
        let mut instance = batch_instance(batch, m, k);
        instance.run_round_robin(b as u64 * CONTENTION_FACTOR);
        let decided = (0..b)
            .map(|i| {
                let budget = config.max_steps_per_batch.saturating_sub(instance.steps());
                instance
                    .run_solo(ProcessId(i), budget)
                    .then(|| instance.decisions().decision_of(ProcessId(i), 1))
                    .flatten()
            })
            .collect();
        steps = instance.steps();
        decided
    };
    out.steps += steps;
    let mut outputs = Vec::new();
    let mut answers = Vec::with_capacity(b);
    for (proposal, value) in batch.proposals.iter().zip(decided) {
        let Some(value) = value else {
            out.unfinished += 1;
            continue;
        };
        if !batch.proposals.iter().any(|p| p.value == value) {
            out.validity_violations += 1;
        }
        if !outputs.contains(&value) {
            outputs.push(value);
        }
        for word in [batch.instance, proposal.client, value] {
            for byte in word.to_le_bytes() {
                out.fingerprint ^= u64::from(byte);
                out.fingerprint = out.fingerprint.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        // One tick models a millisecond, one algorithm step a microsecond.
        let latency = (batch.flushed_at - proposal.arrival) * 1000 + steps;
        answers.push((proposal.arrival, latency));
    }
    if outputs.len() > k {
        out.agreement_violations += 1;
    }
    answers
}

/// The Figure 4 instance a batch of more than `k` proposals runs.
fn batch_instance(batch: &Batch, m: usize, k: usize) -> AgreementInstance<RepeatedSetAgreement> {
    AgreementInstance::new(batch_automata(&batch.proposals, m, k))
}

/// One Figure 4 automaton per proposal of a batch.
pub fn batch_automata(proposals: &[Proposal], m: usize, k: usize) -> Vec<RepeatedSetAgreement> {
    let params =
        Params::new(proposals.len(), m.min(k), k).expect("a batch wider than k is a valid cell");
    proposals
        .iter()
        .enumerate()
        .map(|(i, proposal)| {
            RepeatedSetAgreement::new(params, ProcessId(i), vec![proposal.value])
                .expect("participant ids are in range and inputs non-empty")
        })
        .collect()
}

/// The service's batches replayed for `ticks` with every span on, plus
/// `AgreementInstance::step` timed on the same batches.
pub fn serve_layers(config: &ServeConfig, ticks: u64, out: &mut Metrics) {
    let mut spans = ServeSpans::default();
    replay(config, ticks, &mut spans);
    spans.report(out);

    let options = config.options;
    let mut generator =
        LoadGenerator::new(options.clients, options.rate, options.load, options.seed);
    let mut step = Samples::default();
    for _ in 0..ticks.min(500) {
        let proposals: Vec<Proposal> = generator
            .tick()
            .into_iter()
            .map(|(client, value)| Proposal {
                client,
                value,
                arrival: 0,
            })
            .collect();
        if proposals.len() <= config.k {
            continue;
        }
        let b = proposals.len();
        let mut instance = AgreementInstance::new(batch_automata(&proposals, config.m, config.k));
        // The service's schedule: contention rounds, then each solo.
        // Spans cover the calls that stepped; a halted process's call is
        // not a step.
        for _ in 0..CONTENTION_FACTOR {
            let start = Instant::now();
            let stepped = (0..b)
                .filter(|&i| instance.step(ProcessId(i)).is_some())
                .count();
            step.record(start.elapsed(), stepped);
            if stepped == 0 {
                break;
            }
        }
        for i in 0..b {
            loop {
                let start = Instant::now();
                let stepped = (0..BATCH)
                    .take_while(|_| instance.step(ProcessId(i)).is_some())
                    .count();
                step.record(start.elapsed(), stepped);
                if stepped < BATCH {
                    break;
                }
            }
        }
    }
    out.timing("instance.step_ns", step.summary(), "ns");
}
