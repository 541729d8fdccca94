//! Expansion of a [`CampaignSpec`] into a concrete, deterministically seeded
//! work list.
//!
//! Expansion is the single place where scenario *identity* is fixed: the
//! order of the returned list, every scenario's index and every derived seed
//! are pure functions of the spec, never of thread count or timing. The
//! engine exploits this to produce byte-identical JSONL output at any level
//! of parallelism.

use crate::record::scenario_identity;
use crate::spec::{
    AdversarySpec, BackendSpec, CampaignMode, CampaignSpec, Survivors, WorkloadSpec,
};
use sa_model::{Params, SplitMix64};
use set_agreement::runtime::{
    ReductionMode, SearchGoal, ServeClock, ServeLoad, ServeOptions, SymmetryMode, Workload,
};
use set_agreement::{Adversary, Algorithm};

/// Mixes a campaign seed and a scenario's *identity* (its
/// [`SweepRecord::key`](crate::SweepRecord::key) text; serve scenarios
/// keep an older text of their own) into an
/// independent per-scenario seed: FNV-1a over the identity, scaled by an
/// odd constant and added to the campaign seed, seeds a [`SplitMix64`]
/// whose first output is the scenario's seed.
///
/// Deriving from identity rather than list position means growing a
/// campaign (more seeds, cells, algorithms or adversaries) leaves every
/// pre-existing scenario's stream untouched, so `sweep diff` against an
/// older result file reports only genuine changes.
pub fn derive_seed(campaign_seed: u64, identity: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in identity.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    SplitMix64::new(campaign_seed.wrapping_add(hash.wrapping_mul(0xA24B_AED4_963E_E407))).next_u64()
}

/// One fully concrete scenario of an expanded campaign.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Position in the campaign's deterministic order.
    pub index: u64,
    /// Parameter triple.
    pub params: Params,
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// How this scenario executes: one sampled schedule, or exhaustive
    /// exploration of every interleaving.
    pub mode: CampaignMode,
    /// Which backend runs a sampled scenario (the explorer always runs
    /// explore-mode scenarios; this field is [`BackendSpec::Scheduled`]
    /// there).
    pub backend: BackendSpec,
    /// The adversary template this scenario was expanded from (`None` for
    /// exhaustive and threaded scenarios: exploration quantifies over all
    /// schedules, and on real threads the hardware schedules).
    pub adversary_spec: Option<AdversarySpec>,
    /// The concrete, seeded adversary (`None` for exhaustive and threaded
    /// scenarios).
    pub adversary: Option<Adversary>,
    /// A stable label for the schedule source: the adversary template's
    /// label, `hardware` for threaded scenarios, or `exhaustive`.
    pub adversary_label: String,
    /// Contention steps of the obstruction phase (0 for other adversaries).
    pub contention_steps: u64,
    /// Survivor count the adversary restricts to (0 when it never
    /// restricts). For crash adversaries, survivors that crash are not
    /// counted.
    pub survivors: usize,
    /// Processes with a seed-derived crash point (0 for crash-free
    /// scenarios).
    pub crashes: usize,
    /// The campaign-level seed index this scenario belongs to.
    pub seed: u64,
    /// The seed actually driving the scenario's RNGs (derived).
    pub derived_seed: u64,
    /// The workload the processes propose.
    pub workload: Workload,
    /// A stable label for the workload.
    pub workload_label: String,
    /// Step budget (path depth bound for exhaustive scenarios).
    pub max_steps: u64,
    /// State budget for exhaustive scenarios (unused when sampling).
    pub max_states: u64,
    /// Worker threads for exhaustive scenarios: 0 = serial explorer, any
    /// other value = the parallel breadth-first explorer (unused when
    /// sampling). Not part of the scenario's identity — exploration output
    /// is byte-identical at any worker count.
    pub explore_threads: usize,
    /// Symmetry reduction for exhaustive scenarios (always
    /// [`SymmetryMode::Off`] when sampling). Like `explore_threads`, not
    /// part of the scenario's identity.
    pub symmetry: SymmetryMode,
    /// Partial-order reduction for exhaustive scenarios;
    /// [`ReductionMode::Off`] is its only value. Not part of the scenario's
    /// identity.
    pub reduction: ReductionMode,
    /// Spill frozen frontier levels and seen-set shards to disk when the
    /// explorer exceeds its resident budget (exhaustive scenarios only).
    /// Like `explore_threads`, not part of the scenario's identity —
    /// exploration output is byte-identical with spill on or off.
    pub spill: bool,
    /// Resident-memory budget in MiB for the explorer's spill decisions
    /// (0 = unlimited; unused when sampling). Not part of the scenario's
    /// identity.
    pub max_resident_mb: u64,
    /// Service worker threads for serve scenarios (0 in other modes).
    /// Like `explore_threads`, not part of the scenario's identity: serve
    /// records are byte-identical at any shard count.
    pub shards: usize,
    /// Batch cutoff for serve scenarios (0 in other modes).
    pub batch_max: usize,
    /// Simulated clients for serve scenarios (0 in other modes).
    pub clients: usize,
    /// Proposals per virtual tick for serve scenarios (0 in other modes).
    pub rate: u64,
    /// Virtual ticks before the drain for serve scenarios (0 in other
    /// modes).
    pub duration: u64,
    /// The campaign workload translated for the service's load generator
    /// ([`ServeLoad::Distinct`] in other modes, where [`Self::workload`]
    /// carries the inputs instead).
    pub serve_load: ServeLoad,
    /// The witness goal an adversary-search scenario hunts for
    /// ([`SearchGoal::Covering`] in other modes, where it is unused).
    pub goal: SearchGoal,
    /// The register count at which an adversary-search scenario stops early
    /// (0 = no target, and always 0 in other modes). Resolved from the
    /// spec's [`SearchTarget`](crate::spec::SearchTarget) per cell, so
    /// `auto` has already become this cell's `n + 2m − k` here.
    pub target_registers: usize,
    /// Maximum schedule depth for adversary-search scenarios (0 in other
    /// modes).
    pub search_depth: u64,
}

impl ScenarioSpec {
    /// `true` if the adversary eventually restricts to at most `m`
    /// processes, i.e. the paper's progress condition obliges the survivors
    /// to decide.
    pub fn progress_required(&self) -> bool {
        self.survivors > 0 && self.survivors <= self.params.m()
    }

    /// The execution-backend label recorded for this scenario: `scheduled`
    /// or `threaded` for sampled scenarios, `explore` or `parallel-explore`
    /// for exhaustive ones, `adversary-search` for goal-directed searches.
    pub fn backend_label(&self) -> &'static str {
        match self.mode {
            CampaignMode::Explore if self.explore_threads > 0 => "parallel-explore",
            CampaignMode::Explore => "explore",
            CampaignMode::Sample => self.backend.label(),
            CampaignMode::Serve => "serve",
            CampaignMode::AdversarySearch => "adversary-search",
        }
    }

    /// The service options of a serve scenario, on `clock` with the load
    /// generator seeded by `seed`.
    pub fn serve_options(&self, clock: ServeClock, seed: u64) -> ServeOptions {
        ServeOptions {
            shards: self.shards,
            batch_max: self.batch_max,
            clients: self.clients,
            rate: self.rate,
            duration_ticks: self.duration,
            clock,
            load: self.serve_load,
            seed,
        }
    }
}

/// Statistics of an expansion: how many combinations were generated and how
/// many were skipped as inapplicable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpansionStats {
    /// Scenarios in the work list.
    pub scenarios: u64,
    /// Combinations skipped because the algorithm is undefined for the cell
    /// (e.g. the wide baseline with `n < k + 2m`).
    pub skipped_inapplicable: u64,
}

/// The result of instantiating an adversary template for one cell:
/// the concrete adversary, its contention steps, the survivor count it
/// eventually restricts to, and how many processes it crashes.
struct InstantiatedAdversary {
    adversary: Adversary,
    contention_steps: u64,
    survivors: usize,
    crashes: usize,
}

fn instantiate_adversary(
    spec: &AdversarySpec,
    params: Params,
    derived_seed: u64,
) -> InstantiatedAdversary {
    let plain = |adversary, contention_steps, survivors| InstantiatedAdversary {
        adversary,
        contention_steps,
        survivors,
        crashes: 0,
    };
    match spec {
        AdversarySpec::RoundRobin => plain(Adversary::RoundRobin, 0, 0),
        AdversarySpec::Random => plain(Adversary::Random { seed: derived_seed }, 0, 0),
        AdversarySpec::Solo => plain(
            Adversary::Solo {
                process: (derived_seed % params.n() as u64) as usize,
            },
            0,
            1,
        ),
        AdversarySpec::Bursts { burst_len } => plain(
            Adversary::Bursts {
                burst_len: *burst_len,
                seed: derived_seed,
            },
            0,
            0,
        ),
        AdversarySpec::Obstruction {
            contention_factor,
            survivors,
        } => {
            let contention_steps = contention_factor * params.n() as u64;
            let count = match survivors {
                Survivors::M => params.m(),
                Survivors::Count(c) => (*c).min(params.n()).max(1),
            };
            plain(
                Adversary::Obstruction {
                    contention_steps,
                    survivors: count,
                    seed: derived_seed,
                },
                contention_steps,
                count,
            )
        }
        AdversarySpec::Crash { inner, crashes } => {
            // Decorrelate the inner scheduler's stream from the crash
            // pattern: both derive from the adversary sub-seed, but via
            // distinct purposes.
            let base =
                instantiate_adversary(inner, params, derive_seed(derived_seed, "crash-inner"));
            // Always leave at least one process alive: crashing all n says
            // nothing about the algorithm.
            let count = (*crashes).min(params.n().saturating_sub(1));
            // Crash points are spread over a horizon of a few round-robin
            // rounds, so early, mid-run and never-reached crashes all occur
            // across a campaign's seeds. A point of 0 crashes the process
            // before its first step.
            let horizon = 8 * params.n() as u64 + 8;
            let mut pool: Vec<usize> = (0..params.n()).collect();
            let mut crash_after: Vec<(usize, u64)> = Vec::with_capacity(count);
            for i in 0..count {
                let pick = derive_seed(derived_seed, &format!("crash-pick-{i}")) as usize
                    % (pool.len() - i);
                pool.swap(i, i + pick);
                let step = derive_seed(derived_seed, &format!("crash-step-{i}")) % horizon;
                crash_after.push((pool[i], step));
            }
            crash_after.sort_unstable();
            let adversary = Adversary::Crash {
                inner: Box::new(base.adversary),
                crash_after,
            };
            // A crashed survivor is off the hook, so the progress obligation
            // covers exactly the adversary's obligated set.
            let survivors = adversary.obligated(params.n()).len();
            InstantiatedAdversary {
                adversary,
                contention_steps: base.contention_steps,
                survivors,
                crashes: count,
            }
        }
    }
}

fn instantiate_workload(
    spec: WorkloadSpec,
    params: Params,
    instances: usize,
    derived_seed: u64,
) -> Workload {
    match spec {
        WorkloadSpec::Distinct => Workload::all_distinct(params.n(), instances),
        WorkloadSpec::Uniform(value) => Workload::uniform(params.n(), instances, value),
        WorkloadSpec::Random { universe } => {
            Workload::random(params.n(), instances, universe, derived_seed)
        }
    }
}

/// Expands a campaign into its deterministic work list.
///
/// In [`CampaignMode::Sample`], iteration order is cells → algorithms →
/// backends → adversaries → seeds. Indices number that order, but
/// per-scenario seeds derive from scenario *identity*, so growing any axis
/// leaves pre-existing scenarios' streams unchanged (only their stream
/// position moves). Inapplicable (cell, algorithm) combinations are skipped
/// and counted.
///
/// The threaded backend collapses the adversary axis (the hardware
/// schedules, so adversary templates do not apply): one scenario per seed,
/// labelled `hardware`. Seeds still matter — they pin the workload and the
/// thread spawn order.
///
/// In [`CampaignMode::Explore`], the backend, adversary and seed axes all
/// collapse: exhaustive exploration quantifies over **all** schedules, so
/// one scenario per applicable (cell, algorithm) pair is produced, labelled
/// `exhaustive`.
///
/// In [`CampaignMode::Serve`], the algorithm, adversary and backend axes
/// all collapse too: a service run always executes batches of the Figure 4
/// repeated algorithm under the open-loop load generator. One scenario per
/// cell × seed is produced (the seed pins the generator's value stream),
/// labelled `open-loop`.
///
/// In [`CampaignMode::AdversarySearch`], the backend, adversary and seed
/// axes collapse exactly as in explore mode (the search quantifies over
/// all schedules), but the goal list becomes an axis: one scenario per
/// applicable (cell, algorithm, goal) triple, labelled
/// `adversary-search:<goal>`.
pub fn expand(spec: &CampaignSpec) -> (Vec<ScenarioSpec>, ExpansionStats) {
    let mut scenarios = Vec::new();
    let mut stats = ExpansionStats::default();
    let combinations_per_backend = |backend: &BackendSpec| match backend {
        BackendSpec::Scheduled => (spec.adversaries.len() * spec.seeds.len()) as u64,
        BackendSpec::Threaded => spec.seeds.len() as u64,
    };
    for params in spec.params.cells() {
        if spec.mode == CampaignMode::Serve {
            for &seed in &spec.seeds {
                scenarios.push(serve_scenario(spec, scenarios.len() as u64, params, seed));
            }
            continue;
        }
        for &algorithm in &spec.algorithms {
            if !algorithm.applicable(params) {
                stats.skipped_inapplicable += match spec.mode {
                    CampaignMode::Sample => {
                        spec.backends.iter().map(combinations_per_backend).sum()
                    }
                    CampaignMode::Explore => 1,
                    CampaignMode::AdversarySearch => spec.goals.len() as u64,
                    // Serve never reaches the algorithm loop.
                    CampaignMode::Serve => 0,
                };
                continue;
            }
            match spec.mode {
                CampaignMode::Sample => {
                    for backend in &spec.backends {
                        match backend {
                            BackendSpec::Scheduled => {
                                for adversary_spec in &spec.adversaries {
                                    for &seed in &spec.seeds {
                                        scenarios.push(sampled_scenario(
                                            spec,
                                            scenarios.len() as u64,
                                            params,
                                            algorithm,
                                            adversary_spec,
                                            seed,
                                        ));
                                    }
                                }
                            }
                            BackendSpec::Threaded => {
                                for &seed in &spec.seeds {
                                    scenarios.push(threaded_scenario(
                                        spec,
                                        scenarios.len() as u64,
                                        params,
                                        algorithm,
                                        seed,
                                    ));
                                }
                            }
                        }
                    }
                }
                CampaignMode::Explore => {
                    scenarios.push(explore_scenario(
                        spec,
                        scenarios.len() as u64,
                        params,
                        algorithm,
                    ));
                }
                CampaignMode::AdversarySearch => {
                    for &goal in &spec.goals {
                        scenarios.push(search_scenario(
                            spec,
                            scenarios.len() as u64,
                            params,
                            algorithm,
                            goal,
                        ));
                    }
                }
                CampaignMode::Serve => unreachable!("serve collapses the algorithm axis"),
            }
        }
    }
    stats.scenarios = scenarios.len() as u64;
    (scenarios, stats)
}

/// The scenario every builder starts from: the identity fields, the seed
/// derived from the scenario's identity text and the workload drawn from
/// that seed, with every mode-specific knob off or zero. Each builder
/// overrides only what its mode uses.
fn base_scenario(
    spec: &CampaignSpec,
    index: u64,
    params: Params,
    algorithm: Algorithm,
    mode: CampaignMode,
    adversary_label: String,
    seed: u64,
) -> ScenarioSpec {
    let workload_label = spec.workload.label();
    // Seed from the scenario's identity, never its index: extending the
    // campaign must not reseed existing scenarios (see `derive_seed`).
    let identity = if mode == CampaignMode::Serve {
        // Service scenarios keep the identity text their seeds were first
        // derived from.
        format!(
            "n{} m{} k{} repeated serve seed{seed} {workload_label}",
            params.n(),
            params.m(),
            params.k()
        )
    } else {
        scenario_identity(
            [params.n(), params.m(), params.k()],
            algorithm.label(),
            algorithm.instances(),
            &adversary_label,
            seed,
            &workload_label,
        )
    };
    let derived_seed = derive_seed(spec.campaign_seed, &identity);
    // Distinct sub-seeds per purpose: a random workload and a random
    // scheduler must not consume the same stream, or inputs would
    // correlate with the schedule.
    let workload = instantiate_workload(
        spec.workload,
        params,
        algorithm.instances(),
        derive_seed(derived_seed, "workload"),
    );
    ScenarioSpec {
        index,
        params,
        algorithm,
        mode,
        backend: BackendSpec::Scheduled,
        adversary_spec: None,
        adversary: None,
        adversary_label,
        contention_steps: 0,
        survivors: 0,
        crashes: 0,
        seed,
        derived_seed,
        workload,
        workload_label,
        max_steps: spec.max_steps,
        max_states: spec.max_states,
        explore_threads: 0,
        symmetry: SymmetryMode::Off,
        reduction: ReductionMode::Off,
        spill: false,
        max_resident_mb: 0,
        shards: 0,
        batch_max: 0,
        clients: 0,
        rate: 0,
        duration: 0,
        serve_load: ServeLoad::Distinct,
        goal: SearchGoal::Covering,
        target_registers: 0,
        search_depth: 0,
    }
}

fn sampled_scenario(
    spec: &CampaignSpec,
    index: u64,
    params: Params,
    algorithm: Algorithm,
    adversary_spec: &AdversarySpec,
    seed: u64,
) -> ScenarioSpec {
    let base = base_scenario(
        spec,
        index,
        params,
        algorithm,
        CampaignMode::Sample,
        adversary_spec.label(),
        seed,
    );
    let instantiated = instantiate_adversary(
        adversary_spec,
        params,
        derive_seed(base.derived_seed, "adversary"),
    );
    ScenarioSpec {
        adversary_spec: Some(adversary_spec.clone()),
        adversary: Some(instantiated.adversary),
        contention_steps: instantiated.contention_steps,
        survivors: instantiated.survivors,
        crashes: instantiated.crashes,
        ..base
    }
}

/// A sampled scenario on the threaded backend. The adversary axis does not
/// apply (the hardware schedules — labelled `hardware`), no process is
/// obligated to decide (all `n` threads may contend forever, which the
/// paper's progress condition permits), and the derived seed pins the
/// workload and spawn order so the run is reproducible up to interleaving.
fn threaded_scenario(
    spec: &CampaignSpec,
    index: u64,
    params: Params,
    algorithm: Algorithm,
    seed: u64,
) -> ScenarioSpec {
    ScenarioSpec {
        backend: BackendSpec::Threaded,
        ..base_scenario(
            spec,
            index,
            params,
            algorithm,
            CampaignMode::Sample,
            "hardware".into(),
            seed,
        )
    }
}

fn explore_scenario(
    spec: &CampaignSpec,
    index: u64,
    params: Params,
    algorithm: Algorithm,
) -> ScenarioSpec {
    ScenarioSpec {
        explore_threads: spec.explore_threads,
        symmetry: spec.symmetry,
        reduction: spec.reduction,
        spill: spec.spill,
        max_resident_mb: spec.max_resident_mb,
        ..base_scenario(
            spec,
            index,
            params,
            algorithm,
            CampaignMode::Explore,
            "exhaustive".into(),
            0,
        )
    }
}

/// A serve-mode scenario. The cell's `m` and `k` parameterise every batch's
/// Figure 4 instance (`n` names the cell; batch width is dynamic, capped by
/// `batch-max`). The algorithm, adversary and backend axes collapse — a
/// service run is always repeated set agreement under the open-loop load
/// generator — while seeds remain an axis pinning the generator's value
/// stream. The shard count is deliberately *not* part of the identity:
/// under the virtual clock the record is byte-identical at any shard count.
fn serve_scenario(spec: &CampaignSpec, index: u64, params: Params, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        shards: spec.shards,
        batch_max: spec.batch_max,
        clients: spec.clients,
        rate: spec.rate,
        duration: spec.duration,
        serve_load: match spec.workload {
            WorkloadSpec::Distinct => ServeLoad::Distinct,
            WorkloadSpec::Uniform(value) => ServeLoad::Uniform(value),
            WorkloadSpec::Random { universe } => ServeLoad::Random { universe },
        },
        ..base_scenario(
            spec,
            index,
            params,
            Algorithm::Repeated(1),
            CampaignMode::Serve,
            "open-loop".into(),
            seed,
        )
    }
}

/// An adversary-search scenario. Like explore mode, the backend, adversary
/// and seed axes collapse (the search quantifies over all schedules); the
/// goal joins the identity instead, labelled `adversary-search:<goal>`.
/// The spec's target is resolved to this cell's concrete register count
/// here, so `auto` pins `n + 2m − k` into the scenario. `explore-threads`
/// and `symmetry` carry over as the search's "how" knobs — results are
/// byte-identical at any worker count, and symmetry canonicalization prunes
/// orbits without changing the best witness.
fn search_scenario(
    spec: &CampaignSpec,
    index: u64,
    params: Params,
    algorithm: Algorithm,
    goal: SearchGoal,
) -> ScenarioSpec {
    ScenarioSpec {
        explore_threads: spec.explore_threads,
        symmetry: spec.symmetry,
        goal,
        target_registers: spec.target.for_params(&params),
        search_depth: spec.search_depth,
        ..base_scenario(
            spec,
            index,
            params,
            algorithm,
            CampaignMode::AdversarySearch,
            format!("adversary-search:{}", goal.label()),
            0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ParamsSpec;

    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            name: "test".into(),
            params: ParamsSpec::Grid {
                n: vec![4, 5],
                m: vec![1],
                k: vec![2],
            },
            algorithms: vec![Algorithm::OneShot, Algorithm::WideBaseline],
            adversaries: vec![AdversarySpec::RoundRobin, AdversarySpec::Random],
            seeds: vec![0, 1, 2],
            workload: WorkloadSpec::Distinct,
            max_steps: 1000,
            campaign_seed: 7,
            ..CampaignSpec::default()
        }
    }

    #[test]
    fn expansion_is_deterministic_and_indexed() {
        let (a, stats_a) = expand(&small_spec());
        let (b, stats_b) = expand(&small_spec());
        assert_eq!(stats_a, stats_b);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.derived_seed, y.derived_seed);
            assert_eq!(x.adversary, y.adversary);
        }
        for (i, s) in a.iter().enumerate() {
            assert_eq!(s.index, i as u64);
        }
    }

    #[test]
    fn inapplicable_combinations_are_skipped_and_counted() {
        // WideBaseline needs n >= k + 2m = 4: applicable for both n = 4, 5,
        // so nothing is skipped here...
        let (scenarios, stats) = expand(&small_spec());
        assert_eq!(stats.skipped_inapplicable, 0);
        assert_eq!(scenarios.len(), 2 * 2 * 2 * 3);

        // ...but shrinking to n = 4, m = 2, k = 2 (k + 2m = 6 > 4) skips it.
        let mut spec = small_spec();
        spec.params = ParamsSpec::Grid {
            n: vec![4],
            m: vec![2],
            k: vec![2],
        };
        let (scenarios, stats) = expand(&spec);
        assert_eq!(stats.skipped_inapplicable, 2 * 3);
        assert!(scenarios.iter().all(|s| s.algorithm == Algorithm::OneShot));
    }

    #[test]
    fn derived_seeds_differ_across_scenarios_and_campaign_seeds() {
        let (scenarios, _) = expand(&small_spec());
        let mut seeds: Vec<u64> = scenarios.iter().map(|s| s.derived_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), scenarios.len(), "derived seeds collide");

        let mut other = small_spec();
        other.campaign_seed = 8;
        let (reseeded, _) = expand(&other);
        assert!(scenarios
            .iter()
            .zip(&reseeded)
            .all(|(a, b)| a.derived_seed != b.derived_seed));
    }

    #[test]
    fn adversary_and_workload_streams_are_decorrelated() {
        let mut spec = small_spec();
        spec.workload = WorkloadSpec::Random { universe: 100 };
        let (scenarios, _) = expand(&spec);
        for s in &scenarios {
            if let Some(Adversary::Random { seed }) = s.adversary {
                // The scheduler's seed must be neither the base derived seed
                // nor the workload's sub-seed.
                assert_ne!(seed, s.derived_seed);
                assert_ne!(seed, derive_seed(s.derived_seed, "workload"));
            }
        }
    }

    #[test]
    fn growing_the_campaign_does_not_reseed_existing_scenarios() {
        let (before, _) = expand(&small_spec());
        let mut grown = small_spec();
        grown.seeds.push(9);
        grown.adversaries.push(AdversarySpec::Solo);
        grown.params = ParamsSpec::Grid {
            n: vec![4, 5, 6],
            m: vec![1],
            k: vec![2],
        };
        let (after, _) = expand(&grown);
        let after_seeds: std::collections::BTreeMap<String, u64> = after
            .iter()
            .map(|s| {
                (
                    format!(
                        "{:?} {:?} {:?} {}",
                        s.params, s.algorithm, s.adversary_spec, s.seed
                    ),
                    s.derived_seed,
                )
            })
            .collect();
        for s in &before {
            let key = format!(
                "{:?} {:?} {:?} {}",
                s.params, s.algorithm, s.adversary_spec, s.seed
            );
            assert_eq!(
                after_seeds.get(&key),
                Some(&s.derived_seed),
                "scenario {key} was reseeded by growing the campaign"
            );
        }
    }

    #[test]
    fn progress_obligation_tracks_survivor_counts() {
        let mut spec = small_spec();
        spec.adversaries = vec![
            AdversarySpec::Obstruction {
                contention_factor: 10,
                survivors: Survivors::M,
            },
            AdversarySpec::Obstruction {
                contention_factor: 10,
                survivors: Survivors::Count(3),
            },
            AdversarySpec::RoundRobin,
        ];
        let (scenarios, _) = expand(&spec);
        for s in &scenarios {
            match s.adversary_spec.as_ref().unwrap() {
                AdversarySpec::Obstruction {
                    survivors: Survivors::M,
                    ..
                } => {
                    assert!(s.progress_required());
                    assert_eq!(s.survivors, s.params.m());
                    assert_eq!(s.contention_steps, 10 * s.params.n() as u64);
                }
                AdversarySpec::Obstruction {
                    survivors: Survivors::Count(3),
                    ..
                } => {
                    // 3 survivors > m = 1: termination not guaranteed.
                    assert!(!s.progress_required());
                }
                _ => assert!(!s.progress_required()),
            }
        }
    }

    #[test]
    fn crash_templates_derive_deterministic_bounded_crash_points() {
        let mut spec = small_spec();
        spec.adversaries = vec![AdversarySpec::Crash {
            inner: Box::new(AdversarySpec::RoundRobin),
            crashes: 3,
        }];
        let (scenarios, _) = expand(&spec);
        let (again, _) = expand(&spec);
        assert!(!scenarios.is_empty());
        for (s, t) in scenarios.iter().zip(&again) {
            assert_eq!(s.adversary, t.adversary, "crash pattern not deterministic");
            assert_eq!(s.crashes, 3.min(s.params.n() - 1));
            let Some(Adversary::Crash { crash_after, .. }) = &s.adversary else {
                panic!("expected crash adversary");
            };
            assert_eq!(crash_after.len(), s.crashes);
            let mut processes: Vec<usize> = crash_after.iter().map(|(p, _)| *p).collect();
            processes.dedup();
            assert_eq!(processes.len(), s.crashes, "crash picks collide");
            assert!(processes.iter().all(|p| *p < s.params.n()));
            // Round-robin never restricts, so no process is obligated.
            assert_eq!(s.survivors, 0);
            assert!(!s.progress_required());
        }
        // Distinct seeds produce distinct crash patterns somewhere.
        assert!(
            scenarios
                .iter()
                .zip(scenarios.iter().skip(1))
                .any(|(a, b)| a.adversary != b.adversary),
            "all crash patterns identical"
        );
    }

    #[test]
    fn crashing_every_obstruction_survivor_lifts_the_obligation() {
        // n = 4, survivors = m = 1, crash up to 3 processes: across seeds
        // some scenarios crash the lone survivor (obligation lifted), and
        // any scenario that keeps it obligated has survivors <= m.
        let mut spec = small_spec();
        spec.seeds = (0..16).collect();
        spec.adversaries = vec![AdversarySpec::Crash {
            inner: Box::new(AdversarySpec::Obstruction {
                contention_factor: 10,
                survivors: Survivors::M,
            }),
            crashes: 3,
        }];
        let (scenarios, _) = expand(&spec);
        assert!(scenarios.iter().any(|s| s.survivors == 0));
        assert!(scenarios.iter().any(|s| s.survivors == 1));
        for s in &scenarios {
            assert!(s.survivors <= s.params.m());
            assert_eq!(s.contention_steps, 10 * s.params.n() as u64);
        }
    }

    #[test]
    fn threaded_backend_collapses_the_adversary_axis() {
        let mut spec = small_spec();
        spec.backends = vec![BackendSpec::Scheduled, BackendSpec::Threaded];
        let (scenarios, stats) = expand(&spec);
        // 2 cells x 2 algorithms x (2 adversaries x 3 seeds scheduled
        // + 3 seeds threaded).
        assert_eq!(scenarios.len(), 2 * 2 * (2 * 3 + 3));
        assert_eq!(stats.scenarios, scenarios.len() as u64);
        let threaded: Vec<_> = scenarios
            .iter()
            .filter(|s| s.backend == BackendSpec::Threaded)
            .collect();
        assert_eq!(threaded.len(), 2 * 2 * 3);
        for s in &threaded {
            assert_eq!(s.backend_label(), "threaded");
            assert_eq!(s.adversary_label, "hardware");
            assert!(s.adversary.is_none() && s.adversary_spec.is_none());
            assert_eq!((s.survivors, s.crashes, s.contention_steps), (0, 0, 0));
            assert!(!s.progress_required());
        }
        for s in &scenarios {
            if s.backend == BackendSpec::Scheduled {
                assert_eq!(s.backend_label(), "scheduled");
                assert!(s.adversary.is_some());
            }
        }
        // Indices still number the deterministic order.
        for (i, s) in scenarios.iter().enumerate() {
            assert_eq!(s.index, i as u64);
        }
    }

    #[test]
    fn adding_the_threaded_backend_does_not_reseed_scheduled_scenarios() {
        let (before, _) = expand(&small_spec());
        let mut grown = small_spec();
        grown.backends = vec![BackendSpec::Scheduled, BackendSpec::Threaded];
        let (after, _) = expand(&grown);
        let scheduled_after: Vec<_> = after
            .iter()
            .filter(|s| s.backend == BackendSpec::Scheduled)
            .collect();
        assert_eq!(before.len(), scheduled_after.len());
        for (b, a) in before.iter().zip(&scheduled_after) {
            assert_eq!(b.derived_seed, a.derived_seed, "scheduled run reseeded");
            assert_eq!(b.adversary, a.adversary);
        }
    }

    #[test]
    fn threaded_scenarios_have_deterministic_distinct_seeds() {
        let mut spec = small_spec();
        spec.backends = vec![BackendSpec::Threaded];
        let (scenarios, stats) = expand(&spec);
        // Adversary axis collapsed: 2 cells x 2 algorithms x 3 seeds.
        assert_eq!(scenarios.len(), 12);
        assert_eq!(stats.skipped_inapplicable, 0);
        let (again, _) = expand(&spec);
        let mut seeds = Vec::new();
        for (s, t) in scenarios.iter().zip(&again) {
            assert_eq!(s.derived_seed, t.derived_seed, "not deterministic");
            seeds.push(s.derived_seed);
        }
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), scenarios.len(), "derived seeds collide");
    }

    #[test]
    fn explore_mode_collapses_adversary_and_seed_axes() {
        let mut spec = small_spec();
        spec.mode = CampaignMode::Explore;
        spec.max_states = 1234;
        let (scenarios, stats) = expand(&spec);
        // 2 cells x 2 algorithms, adversaries and seeds ignored.
        assert_eq!(scenarios.len(), 4);
        assert_eq!(stats.scenarios, 4);
        for s in &scenarios {
            assert_eq!(s.mode, CampaignMode::Explore);
            assert_eq!(s.adversary_label, "exhaustive");
            assert!(s.adversary.is_none() && s.adversary_spec.is_none());
            assert_eq!(s.seed, 0);
            assert_eq!(s.max_states, 1234);
            assert!(!s.progress_required());
        }
    }

    #[test]
    fn adversary_search_mode_collapses_axes_and_sweeps_goals() {
        let mut spec = small_spec();
        spec.mode = CampaignMode::AdversarySearch;
        spec.goals = SearchGoal::all().to_vec();
        spec.search_depth = 40;
        let (scenarios, stats) = expand(&spec);
        // 2 cells x 2 algorithms x 2 goals; adversaries, backends and
        // seeds all collapse.
        assert_eq!(scenarios.len(), 2 * 2 * 2);
        assert_eq!(stats.scenarios, 8);
        for s in &scenarios {
            assert_eq!(s.mode, CampaignMode::AdversarySearch);
            assert_eq!(s.backend_label(), "adversary-search");
            assert_eq!(
                s.adversary_label,
                format!("adversary-search:{}", s.goal.label())
            );
            assert!(s.adversary.is_none() && s.adversary_spec.is_none());
            assert_eq!(s.seed, 0);
            assert_eq!(s.search_depth, 40);
            // target = auto resolves the cell's n + 2m - k.
            assert_eq!(s.target_registers, s.params.snapshot_components());
            assert!(!s.progress_required());
        }
        // Both goals appear for every (cell, algorithm) pair, covering
        // first (spec order).
        assert_eq!(scenarios[0].goal, SearchGoal::Covering);
        assert_eq!(scenarios[1].goal, SearchGoal::BlockWrite);
        // Distinct goals get distinct identities, hence distinct seeds.
        assert_ne!(scenarios[0].derived_seed, scenarios[1].derived_seed);
    }

    #[test]
    fn search_targets_resolve_against_the_spec() {
        use crate::spec::SearchTarget;
        let mut spec = small_spec();
        spec.mode = CampaignMode::AdversarySearch;
        spec.target = SearchTarget::None;
        let (scenarios, _) = expand(&spec);
        assert!(scenarios.iter().all(|s| s.target_registers == 0));
        spec.target = SearchTarget::Registers(5);
        let (scenarios, _) = expand(&spec);
        assert!(scenarios.iter().all(|s| s.target_registers == 5));
    }

    #[test]
    fn serve_mode_collapses_algorithm_adversary_and_backend_axes() {
        let mut spec = small_spec();
        spec.mode = CampaignMode::Serve;
        let (scenarios, stats) = expand(&spec);
        // 2 cells x 3 seeds; the algorithm, adversary and backend axes
        // (2 x 2 x 1 in `small_spec`) all collapse.
        assert_eq!(scenarios.len(), 2 * 3);
        assert_eq!(stats.skipped_inapplicable, 0);
        for s in &scenarios {
            assert_eq!(s.mode, CampaignMode::Serve);
            assert_eq!(s.backend_label(), "serve");
            assert_eq!(s.adversary_label, "open-loop");
            assert_eq!(s.algorithm, Algorithm::Repeated(1));
            assert_eq!(s.batch_max, spec.batch_max);
            assert_eq!(s.clients, spec.clients);
            assert_eq!(s.rate, spec.rate);
            assert_eq!(s.duration, spec.duration);
            assert!(!s.progress_required());
        }
    }

    #[test]
    fn serve_identities_ignore_the_shard_count() {
        let mut narrow = small_spec();
        narrow.mode = CampaignMode::Serve;
        let mut wide = narrow.clone();
        wide.shards = 7;
        let (a, _) = expand(&narrow);
        let (b, _) = expand(&wide);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.derived_seed, y.derived_seed);
            assert_eq!(y.shards, 7);
        }
    }

    #[test]
    fn solo_adversary_picks_a_process_in_range() {
        let mut spec = small_spec();
        spec.adversaries = vec![AdversarySpec::Solo];
        let (scenarios, _) = expand(&spec);
        for s in &scenarios {
            let Some(Adversary::Solo { process }) = s.adversary else {
                panic!("expected solo adversary");
            };
            assert!(process < s.params.n());
            assert_eq!(s.survivors, 1);
            assert!(s.progress_required());
        }
    }
}
