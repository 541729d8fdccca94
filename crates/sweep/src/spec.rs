//! Declarative campaign specifications.
//!
//! A [`CampaignSpec`] names a *family* of scenarios: a parameter space
//! (cartesian grid over `n`, `m`, `k`, or an explicit list of triples), a set
//! of algorithms, a set of adversary templates and a set of seeds. The
//! [`expand`](crate::grid::expand) pass turns the spec into a concrete,
//! deterministically ordered and seeded work list.
//!
//! Specs can be built in code or parsed from a simple `key = value` text
//! format (see [`CampaignSpec::parse`]), which is also the format the `sweep`
//! CLI accepts via `--spec`.

use sa_model::Params;
use set_agreement::runtime::{ReductionMode, SearchGoal, SymmetryMode};
use set_agreement::Algorithm;

/// Errors produced while building or parsing a campaign spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid campaign spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(message: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(message.into()))
}

/// The parameter space of a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamsSpec {
    /// The cartesian product of the three axes, silently skipping invalid
    /// triples (those violating `1 ≤ m ≤ k < n`).
    Grid {
        /// Values of `n` to sweep.
        n: Vec<usize>,
        /// Values of `m` to sweep.
        m: Vec<usize>,
        /// Values of `k` to sweep.
        k: Vec<usize>,
    },
    /// An explicit list of parameter triples.
    Explicit(Vec<Params>),
}

impl ParamsSpec {
    /// Parses an explicit cell list `n/m/k;n/m/k;...` — the syntax of both
    /// the CLI's `--params` flag and the spec file's `params =` key.
    pub fn parse_explicit(text: &str) -> Result<Self, SpecError> {
        let mut cells = Vec::new();
        for triple in text.split(';') {
            let parts: Vec<&str> = triple.split('/').map(str::trim).collect();
            let [n, m, k] = parts.as_slice() else {
                return err(format!("bad params triple {triple:?} (want n/m/k)"));
            };
            let parse = |s: &str| {
                s.parse::<usize>()
                    .map_err(|_| SpecError(format!("bad number in {triple:?}")))
            };
            let params = Params::new(parse(n)?, parse(m)?, parse(k)?)
                .map_err(|e| SpecError(format!("invalid triple {triple:?}: {e:?}")))?;
            cells.push(params);
        }
        Ok(ParamsSpec::Explicit(cells))
    }

    /// All valid parameter triples of this space, in deterministic order.
    pub fn cells(&self) -> Vec<Params> {
        match self {
            ParamsSpec::Grid { n, m, k } => {
                let mut cells = Vec::new();
                for &n in n {
                    for &m in m {
                        for &k in k {
                            if let Ok(params) = Params::new(n, m, k) {
                                cells.push(params);
                            }
                        }
                    }
                }
                cells
            }
            ParamsSpec::Explicit(cells) => cells.clone(),
        }
    }
}

/// How many processes survive the contention phase of an obstruction
/// adversary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Survivors {
    /// The cell's `m` — the canonical schedule under which the paper
    /// guarantees termination.
    M,
    /// A fixed count (capped at `n` when instantiated).
    Count(usize),
}

/// An adversary *template*: instantiated per cell and per seed, so one spec
/// entry produces a concrete [`Adversary`](set_agreement::Adversary) for
/// every scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdversarySpec {
    /// Maximally fair round-robin contention.
    RoundRobin,
    /// Uniformly random scheduling (seeded per scenario).
    Random,
    /// Only one process runs, chosen by the scenario seed.
    Solo,
    /// Geometric-ish bursts of the given length (seeded per scenario).
    Bursts {
        /// Burst length.
        burst_len: u64,
    },
    /// Heavy contention for `contention_factor × n` steps, then only the
    /// survivors keep running.
    Obstruction {
        /// Contention steps per process (`× n` total).
        contention_factor: u64,
        /// Who survives.
        survivors: Survivors,
    },
    /// A crash adversary layered over another template: up to `crashes`
    /// processes (capped at `n − 1` per cell) receive deterministically
    /// seed-derived crash points and stop being scheduled once they reach
    /// them. Spec syntax: `crash:<inner>:<crashes>`.
    Crash {
        /// The template the crash pattern wraps (any non-crash template).
        inner: Box<AdversarySpec>,
        /// Maximum number of processes to crash.
        crashes: usize,
    },
}

impl AdversarySpec {
    /// A stable label for records and summaries.
    pub fn label(&self) -> String {
        match self {
            AdversarySpec::RoundRobin => "round-robin".into(),
            AdversarySpec::Random => "random".into(),
            AdversarySpec::Solo => "solo".into(),
            AdversarySpec::Bursts { burst_len } => format!("bursts:{burst_len}"),
            AdversarySpec::Obstruction {
                contention_factor,
                survivors: Survivors::M,
            } => format!("obstruction:{contention_factor}"),
            AdversarySpec::Obstruction {
                contention_factor,
                survivors: Survivors::Count(c),
            } => format!("obstruction:{contention_factor}:{c}"),
            AdversarySpec::Crash { inner, crashes } => {
                format!("crash:{}:{crashes}", inner.label())
            }
        }
    }

    /// Parses one adversary template. Accepted forms: `round-robin`,
    /// `random`, `solo`, `bursts:LEN`, `obstruction` (factor 50, survivors
    /// `m`), `obstruction:FACTOR`, `obstruction:FACTOR:SURVIVORS`, and
    /// `crash:<inner>:<crashes>` wrapping any of the former (the *last*
    /// `:`-field is always the crash count, so e.g.
    /// `crash:obstruction:50:2` crashes up to 2 processes under
    /// `obstruction:50`).
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        if let Some(rest) = text.strip_prefix("crash:") {
            let Some((inner_text, count)) = rest.rsplit_once(':') else {
                return err(format!(
                    "crash template {text:?} needs a crash count (crash:<inner>:<crashes>)"
                ));
            };
            let crashes: usize = count
                .parse()
                .map_err(|_| SpecError(format!("bad crash count in {text:?}")))?;
            if crashes == 0 {
                return err(format!("crash count must be positive in {text:?}"));
            }
            let inner = AdversarySpec::parse(inner_text)?;
            if matches!(inner, AdversarySpec::Crash { .. }) {
                return err(format!("nested crash templates are not allowed: {text:?}"));
            }
            return Ok(AdversarySpec::Crash {
                inner: Box::new(inner),
                crashes,
            });
        }
        let mut parts = text.split(':');
        let head = parts.next().unwrap_or_default();
        let rest: Vec<&str> = parts.collect();
        match (head, rest.as_slice()) {
            ("round-robin", []) => Ok(AdversarySpec::RoundRobin),
            ("random", []) => Ok(AdversarySpec::Random),
            ("solo", []) => Ok(AdversarySpec::Solo),
            ("bursts", [len]) => match len.parse() {
                Ok(burst_len) if burst_len > 0 => Ok(AdversarySpec::Bursts { burst_len }),
                _ => err(format!("bad burst length in {text:?}")),
            },
            ("obstruction", tail) => {
                let contention_factor = match tail.first() {
                    None => 50,
                    Some(f) => f
                        .parse()
                        .map_err(|_| SpecError(format!("bad contention factor in {text:?}")))?,
                };
                let survivors = match tail.get(1).map(|s| s.parse()) {
                    None => Survivors::M,
                    Some(Ok(0)) => {
                        return err(format!("survivor count must be positive in {text:?}"))
                    }
                    Some(Ok(count)) => Survivors::Count(count),
                    Some(Err(_)) => return err(format!("bad survivor count in {text:?}")),
                };
                if tail.len() > 2 {
                    return err(format!("too many fields in {text:?}"));
                }
                Ok(AdversarySpec::Obstruction {
                    contention_factor,
                    survivors,
                })
            }
            _ => err(format!("unknown adversary {text:?}")),
        }
    }
}

/// The workload proposed by the processes of each scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// Every process proposes a distinct value (the hardest workload).
    Distinct,
    /// Every process proposes the same value.
    Uniform(u64),
    /// Seeded-random values from `0..universe`.
    Random {
        /// Size of the value universe.
        universe: u64,
    },
}

impl WorkloadSpec {
    /// A stable label for records and summaries.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Distinct => "distinct".into(),
            WorkloadSpec::Uniform(v) => format!("uniform:{v}"),
            WorkloadSpec::Random { universe } => format!("random:{universe}"),
        }
    }

    /// Parses `distinct`, `uniform:VALUE` or `random:UNIVERSE`.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut parts = text.splitn(2, ':');
        match (parts.next().unwrap_or_default(), parts.next()) {
            ("distinct", None) => Ok(WorkloadSpec::Distinct),
            ("uniform", Some(v)) => v
                .parse()
                .map(WorkloadSpec::Uniform)
                .map_err(|_| SpecError(format!("bad uniform value in {text:?}"))),
            ("random", Some(u)) => match u.parse() {
                Ok(universe) if universe > 0 => Ok(WorkloadSpec::Random { universe }),
                _ => err(format!("bad random universe in {text:?}")),
            },
            _ => err(format!("unknown workload {text:?}")),
        }
    }
}

/// Which execution backend runs a campaign's sampled scenarios — the
/// campaign-level face of the facade's
/// [`Backend`](set_agreement::Backend) axis.
///
/// Listing several backends makes the backend a grid axis: each
/// (cell, algorithm) pair is run on every listed backend. The threaded
/// backend collapses the adversary axis (the hardware schedules, so
/// adversary templates do not apply; its scenarios are labelled
/// `hardware`), while seeds still vary the workload and the thread spawn
/// order. Ignored entirely in [`CampaignMode::Explore`], which always uses
/// the explorer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackendSpec {
    /// The deterministic simulator under the campaign's adversaries.
    #[default]
    Scheduled,
    /// One OS thread per process against real shared memory. Records carry
    /// wall-clock time and throughput; output is **not** byte-deterministic
    /// (steps and decisions depend on the hardware's interleaving), so
    /// determinism gates only apply to scheduled/explore campaigns.
    Threaded,
}

impl BackendSpec {
    /// A stable label for records and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            BackendSpec::Scheduled => "scheduled",
            BackendSpec::Threaded => "threaded",
        }
    }

    /// Parses `scheduled` or `threaded`.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        match text {
            "scheduled" => Ok(BackendSpec::Scheduled),
            "threaded" => Ok(BackendSpec::Threaded),
            _ => err(format!(
                "unknown backend {text:?} (want scheduled or threaded)"
            )),
        }
    }
}

/// How a campaign executes its cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CampaignMode {
    /// Sample one schedule per (cell, algorithm, adversary, seed)
    /// combination — the default, feasible at any scale.
    #[default]
    Sample,
    /// Exhaustively explore **every** interleaving of each
    /// (cell, algorithm) combination with the bounded model checker,
    /// ignoring the adversary and seed axes (exploration quantifies over
    /// all schedules). Feasible only for tiny cells.
    Explore,
    /// Run each cell as a long-running batched agreement service under an
    /// open-loop load generator (the `sa-serve` crate) on the
    /// deterministic virtual clock, ignoring the algorithm, adversary and
    /// backend axes: a service run is always batches of the Figure 4
    /// repeated algorithm, and the serve keys (`shards`, `batch-max`,
    /// `clients`, `rate`, `duration`) replace them.
    Serve,
    /// Run a goal-directed adversary search per (cell, algorithm, goal)
    /// combination, hunting for lower-bound witness structures — covering
    /// configurations and block-write extensions — instead of safety
    /// violations (the `sa-search` crate). Like [`CampaignMode::Explore`]
    /// it quantifies over all schedules, so the backend, adversary and
    /// seed axes are ignored; the search keys (`goals`, `target-registers`,
    /// `search-depth`) replace them.
    AdversarySearch,
}

impl CampaignMode {
    /// A stable label for records and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            CampaignMode::Sample => "sample",
            CampaignMode::Explore => "explore",
            CampaignMode::Serve => "serve",
            CampaignMode::AdversarySearch => "adversary-search",
        }
    }

    /// Parses `sample`, `explore`, `serve` or `adversary-search`.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        match text {
            "sample" => Ok(CampaignMode::Sample),
            "explore" => Ok(CampaignMode::Explore),
            "serve" => Ok(CampaignMode::Serve),
            "adversary-search" => Ok(CampaignMode::AdversarySearch),
            _ => err(format!(
                "unknown mode {text:?} (want sample, explore, serve or adversary-search)"
            )),
        }
    }
}

/// The per-cell register target of a `mode = adversary-search` campaign:
/// how many distinct registers (written or covered) a witness must touch
/// for the search to stop early with `target-reached`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SearchTarget {
    /// The paper's `n + 2m − k` lower bound, computed per cell — the
    /// default, which makes every search a *rediscovery* of Theorem 2's
    /// hand-built construction for its cell.
    #[default]
    Auto,
    /// No target: search the whole budgeted space for the best witness.
    None,
    /// A fixed register count, identical for every cell.
    Registers(usize),
}

impl SearchTarget {
    /// A stable label for spec files (`auto`, `none`, or the count).
    pub fn label(&self) -> String {
        match self {
            SearchTarget::Auto => "auto".into(),
            SearchTarget::None => "none".into(),
            SearchTarget::Registers(count) => count.to_string(),
        }
    }

    /// Parses `auto`, `none`, or a strictly positive register count
    /// (`none` already means "no target", so an explicit 0 is rejected as
    /// ambiguous rather than silently aliased).
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        match text.trim() {
            "auto" => Ok(SearchTarget::Auto),
            "none" => Ok(SearchTarget::None),
            count => match count.parse::<usize>() {
                Ok(parsed) if parsed >= 1 => Ok(SearchTarget::Registers(parsed)),
                _ => err(format!(
                    "bad target-registers {text:?} (want auto, none, or a count >= 1)"
                )),
            },
        }
    }

    /// The concrete register target for one cell: `n + 2m − k` under
    /// [`SearchTarget::Auto`], 0 (no target) under [`SearchTarget::None`].
    pub fn for_params(&self, params: &Params) -> usize {
        match self {
            SearchTarget::Auto => params.snapshot_components(),
            SearchTarget::None => 0,
            SearchTarget::Registers(count) => *count,
        }
    }
}

/// A declarative description of a whole family of scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name, embedded in every record.
    pub name: String,
    /// The parameter space.
    pub params: ParamsSpec,
    /// Algorithms to run in every cell (inapplicable combinations are
    /// skipped during expansion).
    pub algorithms: Vec<Algorithm>,
    /// Adversary templates, instantiated per cell and seed (scheduled
    /// backend only; the threaded backend lets the hardware schedule).
    pub adversaries: Vec<AdversarySpec>,
    /// Execution backends for sampled scenarios; listing several makes the
    /// backend a grid axis. Ignored in [`CampaignMode::Explore`].
    pub backends: Vec<BackendSpec>,
    /// Seeds; each seed produces an independent scenario per cell.
    pub seeds: Vec<u64>,
    /// The workload proposed in every scenario.
    pub workload: WorkloadSpec,
    /// Step budget per scenario. In [`CampaignMode::Explore`] this bounds
    /// the depth of any single explored path.
    pub max_steps: u64,
    /// Root seed mixed into every scenario's derived seed.
    pub campaign_seed: u64,
    /// How cells are executed: schedule sampling or exhaustive exploration.
    pub mode: CampaignMode,
    /// State budget per exploration (ignored in [`CampaignMode::Sample`]).
    pub max_states: u64,
    /// Worker threads per exploration (ignored in [`CampaignMode::Sample`]):
    /// 0 runs the serial explorer, any other value the parallel
    /// breadth-first explorer with that many workers. Parallel results are
    /// byte-identical across all worker counts ≥ 1, so this is a "how"
    /// knob like the engine's thread count, not part of a scenario's
    /// identity. (Serial records use the plain `explore` shape without the
    /// memory-stat fields, so 0 vs ≥ 1 differ in record shape — though
    /// never in any verification-bearing field.)
    pub explore_threads: usize,
    /// Symmetry reduction per exploration (ignored in
    /// [`CampaignMode::Sample`]): `process-ids` deduplicates reachable
    /// configurations up to process-id orbits, which shrinks
    /// `explored_states` without changing any verdict. Like
    /// `explore-threads` this is a "how" knob, not part of a scenario's
    /// identity; cells whose automata cannot establish the symmetry fall
    /// back to plain exploration (recorded as `fallback-off`) rather than
    /// prune unsoundly. Off by default, which keeps record bytes identical
    /// to pre-symmetry releases.
    pub symmetry: SymmetryMode,
    /// Partial-order reduction per exploration. `off` is its only value;
    /// the key stays because a campaign's `Display` text names it, and that
    /// text tags checkpoint journals.
    pub reduction: ReductionMode,
    /// Whether explorations may spill frozen frontier chunks and seen-set
    /// shards to disk when they exceed the resident-byte budget (ignored
    /// in [`CampaignMode::Sample`]). A "how" knob like `explore-threads`:
    /// records are byte-identical with spill on or off, so it is not part
    /// of a scenario's identity.
    pub spill: bool,
    /// Resident-memory budget per exploration in MiB (ignored in
    /// [`CampaignMode::Sample`]); 0 means unlimited. Over budget, a
    /// spilling exploration moves cold state to disk and continues, a
    /// non-spilling one deterministically truncates. Also a "how" knob —
    /// except that a budget small enough to truncate a non-spilling cell
    /// changes that cell's verdict, exactly like `max-states` does.
    pub max_resident_mb: u64,
    /// The witness goals a [`CampaignMode::AdversarySearch`] campaign hunts
    /// for (ignored in the other modes). Like the adversary axis of a
    /// sampled campaign, each listed goal produces one scenario per
    /// (cell, algorithm) pair.
    pub goals: Vec<SearchGoal>,
    /// The per-cell register target of a [`CampaignMode::AdversarySearch`]
    /// campaign (ignored in the other modes): `auto` (the default)
    /// rediscovers the paper's `n + 2m − k` bound per cell, `none` searches
    /// the whole budgeted space, a count fixes the target for every cell.
    pub target: SearchTarget,
    /// Maximum schedule depth (BFS radius) per
    /// [`CampaignMode::AdversarySearch`] scenario (ignored in the other
    /// modes). A "what" knob: a depth too small to reach the target
    /// changes the verdict, exactly like `max-states` does.
    pub search_depth: u64,
    /// Service worker threads per [`CampaignMode::Serve`] scenario
    /// (ignored in the other modes). Like `explore-threads`, a "how" knob:
    /// under the virtual clock records are byte-identical at any shard
    /// count, so shards are not part of a scenario's identity.
    pub shards: usize,
    /// Batch cutoff per [`CampaignMode::Serve`] scenario: a batch is cut
    /// as soon as it holds this many proposals.
    pub batch_max: usize,
    /// Simulated clients per [`CampaignMode::Serve`] scenario.
    pub clients: usize,
    /// Open-loop proposals per virtual-clock tick per
    /// [`CampaignMode::Serve`] scenario.
    pub rate: u64,
    /// Virtual-clock ticks (milliseconds of modelled time) each
    /// [`CampaignMode::Serve`] scenario runs before its graceful drain.
    pub duration: u64,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            name: "campaign".into(),
            params: ParamsSpec::Grid {
                n: (4..=8).collect(),
                m: vec![1, 2],
                k: vec![2, 3],
            },
            algorithms: Algorithm::catalog(2),
            adversaries: vec![AdversarySpec::Obstruction {
                contention_factor: 50,
                survivors: Survivors::M,
            }],
            backends: vec![BackendSpec::Scheduled],
            seeds: (0..4).collect(),
            workload: WorkloadSpec::Distinct,
            max_steps: 2_000_000,
            campaign_seed: 0,
            mode: CampaignMode::Sample,
            max_states: 2_000_000,
            explore_threads: 0,
            symmetry: SymmetryMode::Off,
            reduction: ReductionMode::Off,
            spill: false,
            max_resident_mb: 0,
            goals: vec![SearchGoal::Covering],
            target: SearchTarget::Auto,
            search_depth: 60,
            shards: 2,
            batch_max: 8,
            clients: 64,
            rate: 8,
            duration: 1000,
        }
    }
}

/// Parses `4`, `4,6,8`, `4..8` (inclusive) or `4..=8` into a value list.
pub fn parse_values(text: &str) -> Result<Vec<u64>, SpecError> {
    let text = text.trim();
    if let Some((lo, hi)) = text.split_once("..") {
        let hi = hi.strip_prefix('=').unwrap_or(hi);
        let lo: u64 = lo
            .trim()
            .parse()
            .map_err(|_| SpecError(format!("bad range start in {text:?}")))?;
        let hi: u64 = hi
            .trim()
            .parse()
            .map_err(|_| SpecError(format!("bad range end in {text:?}")))?;
        if lo > hi {
            return err(format!("descending range {text:?}"));
        }
        return Ok((lo..=hi).collect());
    }
    text.split(',')
        .map(|part| {
            part.trim()
                .parse()
                .map_err(|_| SpecError(format!("bad value {part:?} in {text:?}")))
        })
        .collect()
}

fn parse_usizes(text: &str) -> Result<Vec<usize>, SpecError> {
    Ok(parse_values(text)?
        .into_iter()
        .map(|v| v as usize)
        .collect())
}

/// Parses the `seeds` field: a plain integer `N` means the `N` seeds
/// `0..N`; ranges and comma lists are explicit seed values.
pub fn parse_seeds(text: &str) -> Result<Vec<u64>, SpecError> {
    let text = text.trim();
    if !text.contains("..") && !text.contains(',') {
        let count: u64 = text
            .parse()
            .map_err(|_| SpecError(format!("bad seed count {text:?}")))?;
        if count == 0 {
            return err("seed count must be positive");
        }
        return Ok((0..count).collect());
    }
    parse_values(text)
}

/// Parses the `algorithms` field: `all` (catalog with 2 instances),
/// `all:INSTANCES`, or a comma list of labels (see
/// [`Algorithm::from_label`]), each optionally suffixed `:INSTANCES`.
pub fn parse_algorithms(text: &str) -> Result<Vec<Algorithm>, SpecError> {
    let text = text.trim();
    if text == "all" {
        return Ok(Algorithm::catalog(2));
    }
    if let Some(instances) = text.strip_prefix("all:") {
        let instances: usize = instances
            .parse()
            .map_err(|_| SpecError(format!("bad instance count in {text:?}")))?;
        return Ok(Algorithm::catalog(instances.max(1)));
    }
    text.split(',')
        .map(|part| {
            let part = part.trim();
            let (label, instances) = match part.rsplit_once(':') {
                Some((label, instances)) => (
                    label,
                    instances
                        .parse()
                        .map_err(|_| SpecError(format!("bad instance count in {part:?}")))?,
                ),
                None => (part, 2usize),
            };
            Algorithm::from_label(label, instances.max(1))
                .ok_or_else(|| SpecError(format!("unknown algorithm {label:?}")))
        })
        .collect()
}

impl CampaignSpec {
    /// Parses a campaign from `key = value` lines. Unknown keys are
    /// rejected; `#` starts a comment. Recognized keys: `name`, `n`, `m`,
    /// `k`, `params` (explicit `n/m/k` triples, `;`-separated), `algorithms`,
    /// `adversaries`, `backend` (`scheduled`, `threaded`, or a comma list to
    /// make the backend a grid axis), `seeds`, `workload`, `max-steps`,
    /// `campaign-seed`, `mode` (`sample`, `explore`, `serve` or
    /// `adversary-search`), `max-states`
    /// (exploration state budget), `explore-threads` (exploration worker
    /// threads; 0 = serial explorer), `symmetry` (`off` or
    /// `process-ids`: deduplicate explored states up to process-id
    /// orbits), `reduction` (`off`, the only value),
    /// `spill` (`on` or `off`: let explorations move cold
    /// frontier and seen-set state to disk under memory pressure),
    /// `max-resident-mb` (resident-memory budget per exploration in MiB;
    /// 0 = unlimited), the `mode = adversary-search` keys `goals` (comma
    /// list of `covering` / `block-write`), `target-registers` (`auto`,
    /// `none`, or a count ≥ 1) and `search-depth` (≥ 1), and the
    /// `mode = serve` service keys `shards`, `batch-max`, `clients`,
    /// `rate` and `duration` (all at least 1).
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        CampaignSpec::default().layer(text.lines().enumerate().filter_map(|(lineno, raw)| {
            let line = raw.split('#').next().unwrap_or_default().trim();
            if line.is_empty() {
                return None;
            }
            Some(match line.split_once('=') {
                Some((key, value)) => Ok((key.trim(), value.trim())),
                None => err(format!("line {}: expected `key = value`", lineno + 1)),
            })
        }))
    }

    /// Applies one layer of `key = value` settings over this spec, in
    /// order, and checks the result. A spec file is one layer over the
    /// defaults ([`parse`](Self::parse)); `sweep run`'s `--KEY VALUE` flags
    /// are a second layer over the file, so flags and spec keys share one
    /// parser and its messages. A key set twice keeps its last value. Within
    /// one layer `params` and `n`/`m`/`k` exclude each other; axes the layer
    /// does not set keep this spec's grid, and replacing an explicit cell
    /// list takes all three.
    pub fn apply(self, settings: &[(&str, &str)]) -> Result<Self, SpecError> {
        self.layer(settings.iter().map(|&setting| Ok(setting)))
    }

    /// [`apply`](Self::apply) over settings that may themselves be
    /// malformed: the first error, of a setting or of its value, wins.
    fn layer<'a>(
        self,
        settings: impl Iterator<Item = Result<(&'a str, &'a str), SpecError>>,
    ) -> Result<Self, SpecError> {
        let mut spec = self;
        let mut axes: [Option<Vec<usize>>; 3] = [None, None, None];
        let mut explicit = None;
        for setting in settings {
            let (key, value) = setting?;
            match key {
                "name" => spec.name = value.to_string(),
                "n" => axes[0] = Some(parse_usizes(value)?),
                "m" => axes[1] = Some(parse_usizes(value)?),
                "k" => axes[2] = Some(parse_usizes(value)?),
                "params" => explicit = Some(ParamsSpec::parse_explicit(value)?),
                "algorithms" => spec.algorithms = parse_algorithms(value)?,
                "adversaries" => spec.adversaries = parse_list(value, AdversarySpec::parse)?,
                "backend" => spec.backends = parse_list(value, BackendSpec::parse)?,
                "seeds" => spec.seeds = parse_seeds(value)?,
                "workload" => spec.workload = WorkloadSpec::parse(value)?,
                "max-steps" => spec.max_steps = parse_number(key, value)?,
                "campaign-seed" => spec.campaign_seed = parse_number(key, value)?,
                "mode" => spec.mode = CampaignMode::parse(value)?,
                "max-states" => spec.max_states = parse_number(key, value)?,
                "explore-threads" => spec.explore_threads = parse_number(key, value)?,
                "symmetry" => {
                    spec.symmetry = SymmetryMode::parse(value).ok_or_else(|| {
                        SpecError(format!(
                            "unknown symmetry {value:?} (want off or process-ids)"
                        ))
                    })?;
                }
                "reduction" => {
                    spec.reduction = ReductionMode::parse(value).ok_or_else(|| {
                        SpecError(format!("unknown reduction {value:?} (want off)"))
                    })?;
                }
                "spill" => {
                    spec.spill = match value {
                        "on" => true,
                        "off" => false,
                        _ => return err(format!("unknown spill {value:?} (want on or off)")),
                    };
                }
                "max-resident-mb" => spec.max_resident_mb = parse_number(key, value)?,
                "goals" => {
                    spec.goals = parse_list(value, |part| {
                        SearchGoal::parse(part).ok_or_else(|| {
                            SpecError(format!(
                                "unknown goal {part:?} (want covering or block-write)"
                            ))
                        })
                    })?;
                }
                "target-registers" => spec.target = SearchTarget::parse(value)?,
                "search-depth" => spec.search_depth = parse_positive(key, value)? as u64,
                "shards" => spec.shards = parse_positive(key, value)?,
                "batch-max" => spec.batch_max = parse_positive(key, value)?,
                "clients" => spec.clients = parse_positive(key, value)?,
                "rate" => spec.rate = parse_positive(key, value)? as u64,
                "duration" => spec.duration = parse_positive(key, value)? as u64,
                _ => return err(format!("unknown key {key:?}")),
            }
        }
        if let Some(cells) = explicit {
            if axes.iter().any(Option::is_some) {
                return err("`params` and `n`/`m`/`k` are mutually exclusive");
            }
            spec.params = cells;
        } else if axes.iter().any(Option::is_some) {
            let [n, m, k] = axes;
            spec.params = match &spec.params {
                ParamsSpec::Grid {
                    n: base_n,
                    m: base_m,
                    k: base_k,
                } => ParamsSpec::Grid {
                    n: n.unwrap_or_else(|| base_n.clone()),
                    m: m.unwrap_or_else(|| base_m.clone()),
                    k: k.unwrap_or_else(|| base_k.clone()),
                },
                ParamsSpec::Explicit(_) => match (n, m, k) {
                    (Some(n), Some(m), Some(k)) => ParamsSpec::Grid { n, m, k },
                    _ => return err("`n`, `m` and `k` must all be set to replace `params`"),
                },
            };
        }
        if spec.algorithms.is_empty() {
            return err("no algorithms");
        }
        if spec.adversaries.is_empty() {
            return err("no adversaries");
        }
        if spec.backends.is_empty() {
            return err("no backends");
        }
        if spec.seeds.is_empty() {
            return err("no seeds");
        }
        if spec.goals.is_empty() {
            return err("no goals");
        }
        Ok(spec)
    }
}

/// Parses a comma list, trimming each entry.
fn parse_list<T>(
    value: &str,
    parse: impl Fn(&str) -> Result<T, SpecError>,
) -> Result<Vec<T>, SpecError> {
    value.split(',').map(|part| parse(part.trim())).collect()
}

/// Parses a non-negative integer setting.
fn parse_number<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, SpecError> {
    value
        .parse()
        .map_err(|_| SpecError(format!("bad {key} {value:?}")))
}

/// Parses a strictly positive integer (the serve keys reject 0: a service
/// with no shards, empty batches, no clients, no load or no runtime is
/// degenerate, and catching it at parse time beats a runtime panic).
fn parse_positive(key: &str, value: &str) -> Result<usize, SpecError> {
    match value.parse::<usize>() {
        Ok(parsed) if parsed >= 1 => Ok(parsed),
        Ok(_) => err(format!("{key} must be at least 1, got {value:?}")),
        Err(_) => err(format!("bad {key} {value:?}")),
    }
}

fn join<T: std::fmt::Display>(values: &[T]) -> String {
    values
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Renders the seed list in a form [`parse_seeds`] maps back to the same
/// list: a count for `0..n` prefixes, an `a..a` range for singletons (a
/// plain integer would be read as a count), a comma list otherwise.
fn display_seeds(seeds: &[u64]) -> String {
    if seeds.len() > 1 && seeds.iter().enumerate().all(|(i, s)| *s == i as u64) {
        return seeds.len().to_string();
    }
    if let [only] = seeds {
        return format!("{only}..{only}");
    }
    join(seeds)
}

impl std::fmt::Display for CampaignSpec {
    /// Renders the spec in the `key = value` file format such that
    /// `CampaignSpec::parse(&spec.to_string()) == spec` for any spec the
    /// parser itself could have produced: the name must contain no `#`, `=`
    /// or newline (and survive trimming), and the algorithm, adversary and
    /// seed lists must be non-empty — the parser rejects empty lists, so a
    /// struct-literal spec violating that renders to unparseable text.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "name = {}", self.name)?;
        match &self.params {
            ParamsSpec::Grid { n, m, k } => {
                writeln!(f, "n = {}", join(n))?;
                writeln!(f, "m = {}", join(m))?;
                writeln!(f, "k = {}", join(k))?;
            }
            ParamsSpec::Explicit(cells) => {
                let cells: Vec<String> = cells
                    .iter()
                    .map(|p| format!("{}/{}/{}", p.n(), p.m(), p.k()))
                    .collect();
                writeln!(f, "params = {}", cells.join(";"))?;
            }
        }
        let algorithms: Vec<String> = self
            .algorithms
            .iter()
            .map(|a| format!("{}:{}", a.label(), a.instances()))
            .collect();
        writeln!(f, "algorithms = {}", algorithms.join(","))?;
        let adversaries: Vec<String> = self.adversaries.iter().map(|a| a.label()).collect();
        writeln!(f, "adversaries = {}", adversaries.join(","))?;
        let backends: Vec<&str> = self.backends.iter().map(|b| b.label()).collect();
        writeln!(f, "backend = {}", backends.join(","))?;
        writeln!(f, "seeds = {}", display_seeds(&self.seeds))?;
        writeln!(f, "workload = {}", self.workload.label())?;
        writeln!(f, "max-steps = {}", self.max_steps)?;
        writeln!(f, "campaign-seed = {}", self.campaign_seed)?;
        writeln!(f, "mode = {}", self.mode.label())?;
        writeln!(f, "max-states = {}", self.max_states)?;
        writeln!(f, "explore-threads = {}", self.explore_threads)?;
        writeln!(f, "symmetry = {}", self.symmetry.label())?;
        writeln!(f, "reduction = {}", self.reduction.label())?;
        writeln!(f, "spill = {}", if self.spill { "on" } else { "off" })?;
        writeln!(f, "max-resident-mb = {}", self.max_resident_mb)?;
        let goals: Vec<&str> = self.goals.iter().map(|g| g.label()).collect();
        writeln!(f, "goals = {}", goals.join(","))?;
        writeln!(f, "target-registers = {}", self.target.label())?;
        writeln!(f, "search-depth = {}", self.search_depth)?;
        writeln!(f, "shards = {}", self.shards)?;
        writeln!(f, "batch-max = {}", self.batch_max)?;
        writeln!(f, "clients = {}", self.clients)?;
        writeln!(f, "rate = {}", self.rate)?;
        writeln!(f, "duration = {}", self.duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_lists_parse_all_forms() {
        assert_eq!(parse_values("4").unwrap(), vec![4]);
        assert_eq!(parse_values("4,6, 8").unwrap(), vec![4, 6, 8]);
        assert_eq!(parse_values("4..6").unwrap(), vec![4, 5, 6]);
        assert_eq!(parse_values("4..=6").unwrap(), vec![4, 5, 6]);
        assert!(parse_values("6..4").is_err());
        assert!(parse_values("x").is_err());
    }

    #[test]
    fn seed_counts_expand_and_lists_pass_through() {
        assert_eq!(parse_seeds("4").unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(parse_seeds("7,9").unwrap(), vec![7, 9]);
        assert_eq!(parse_seeds("2..4").unwrap(), vec![2, 3, 4]);
        assert!(parse_seeds("0").is_err());
    }

    #[test]
    fn algorithm_lists_parse_labels_and_instances() {
        assert_eq!(parse_algorithms("all").unwrap().len(), 6);
        let algorithms = parse_algorithms("oneshot, repeated:3").unwrap();
        assert_eq!(algorithms, vec![Algorithm::OneShot, Algorithm::Repeated(3)]);
        assert!(parse_algorithms("bogus").is_err());
    }

    #[test]
    fn adversary_labels_round_trip() {
        for text in [
            "round-robin",
            "random",
            "solo",
            "bursts:8",
            "obstruction:50",
            "obstruction:20:2",
            "crash:round-robin:1",
            "crash:random:3",
            "crash:bursts:8:2",
            "crash:obstruction:50:2",
            "crash:obstruction:20:2:1",
        ] {
            let spec = AdversarySpec::parse(text).unwrap();
            assert_eq!(
                AdversarySpec::parse(&spec.label()).unwrap(),
                spec,
                "{text} does not round-trip"
            );
        }
        assert_eq!(
            AdversarySpec::parse("obstruction").unwrap(),
            AdversarySpec::Obstruction {
                contention_factor: 50,
                survivors: Survivors::M
            }
        );
        assert!(AdversarySpec::parse("bursts:0").is_err());
        assert!(AdversarySpec::parse("obstruction:1:2:3").is_err());
    }

    #[test]
    fn a_zero_survivor_count_is_rejected() {
        for bad in ["obstruction:50:0", "crash:obstruction:50:0:1"] {
            let message = AdversarySpec::parse(bad).unwrap_err().to_string();
            assert!(
                message.contains("survivor count must be positive"),
                "{bad}: {message}"
            );
        }
        assert_eq!(
            AdversarySpec::parse("obstruction:50:1").unwrap(),
            AdversarySpec::Obstruction {
                contention_factor: 50,
                survivors: Survivors::Count(1),
            }
        );
    }

    #[test]
    fn crash_templates_parse_with_the_last_field_as_count() {
        assert_eq!(
            AdversarySpec::parse("crash:obstruction:50:2").unwrap(),
            AdversarySpec::Crash {
                inner: Box::new(AdversarySpec::Obstruction {
                    contention_factor: 50,
                    survivors: Survivors::M,
                }),
                crashes: 2,
            }
        );
        assert_eq!(
            AdversarySpec::parse("crash:obstruction:50:3:1").unwrap(),
            AdversarySpec::Crash {
                inner: Box::new(AdversarySpec::Obstruction {
                    contention_factor: 50,
                    survivors: Survivors::Count(3),
                }),
                crashes: 1,
            }
        );
    }

    #[test]
    fn malformed_crash_templates_are_rejected() {
        for bad in [
            "crash",                       // bare, no inner or count
            "crash:",                      // empty tail
            "crash:2",                     // no inner template
            "crash:round-robin",           // missing count
            "crash:round-robin:0",         // zero crashes
            "crash:round-robin:x",         // non-numeric count
            "crash:bogus:2",               // unknown inner
            "crash:crash:round-robin:1:1", // nested crash
            "crash:bursts:0:1",            // invalid inner parameters
        ] {
            assert!(AdversarySpec::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn backend_lists_parse_display_and_default() {
        assert_eq!(
            CampaignSpec::parse("").unwrap().backends,
            vec![BackendSpec::Scheduled]
        );
        let spec = CampaignSpec::parse("backend = threaded").unwrap();
        assert_eq!(spec.backends, vec![BackendSpec::Threaded]);
        let both = CampaignSpec::parse("backend = scheduled, threaded").unwrap();
        assert_eq!(
            both.backends,
            vec![BackendSpec::Scheduled, BackendSpec::Threaded]
        );
        assert_eq!(CampaignSpec::parse(&both.to_string()).unwrap(), both);
        assert!(CampaignSpec::parse("backend = gpu").is_err());
        assert!(CampaignSpec::parse("backend = ").is_err());
        for backend in [BackendSpec::Scheduled, BackendSpec::Threaded] {
            assert_eq!(BackendSpec::parse(backend.label()).unwrap(), backend);
        }
    }

    #[test]
    fn mode_and_max_states_parse_and_default() {
        let spec = CampaignSpec::parse("mode = explore\nmax-states = 5000").unwrap();
        assert_eq!(spec.mode, CampaignMode::Explore);
        assert_eq!(spec.max_states, 5000);
        assert_eq!(CampaignSpec::parse("").unwrap().mode, CampaignMode::Sample);
        assert!(CampaignSpec::parse("mode = fuzz").is_err());
        assert!(CampaignSpec::parse("max-states = lots").is_err());
    }

    #[test]
    fn explore_threads_parse_round_trip_and_default() {
        assert_eq!(CampaignSpec::parse("").unwrap().explore_threads, 0);
        let spec = CampaignSpec::parse("mode = explore\nexplore-threads = 8").unwrap();
        assert_eq!(spec.explore_threads, 8);
        assert_eq!(CampaignSpec::parse(&spec.to_string()).unwrap(), spec);
        assert!(CampaignSpec::parse("explore-threads = many").is_err());
    }

    #[test]
    fn serve_keys_parse_round_trip_and_default() {
        let spec = CampaignSpec::parse(
            "mode = serve
shards = 4
batch-max = 6
clients = 100
rate = 12
duration = 500",
        )
        .unwrap();
        assert_eq!(spec.mode, CampaignMode::Serve);
        assert_eq!((spec.shards, spec.batch_max, spec.clients), (4, 6, 100));
        assert_eq!((spec.rate, spec.duration), (12, 500));
        assert_eq!(CampaignSpec::parse(&spec.to_string()).unwrap(), spec);
        let defaults = CampaignSpec::parse("").unwrap();
        assert_eq!(
            (defaults.shards, defaults.batch_max, defaults.clients),
            (2, 8, 64)
        );
        assert_eq!((defaults.rate, defaults.duration), (8, 1000));
    }

    #[test]
    fn malformed_serve_values_are_rejected() {
        for bad in [
            "shards = 0",
            "batch-max = 0",
            "clients = 0",
            "rate = 0",
            "duration = 0",
            "shards = -1",
            "shards = two",
            "batch-max = 1.5",
            "rate = fast",
            "duration = forever",
            "clients = ",
        ] {
            assert!(CampaignSpec::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn adversary_search_keys_parse_round_trip_and_default() {
        let defaults = CampaignSpec::parse("").unwrap();
        assert_eq!(defaults.goals, vec![SearchGoal::Covering]);
        assert_eq!(defaults.target, SearchTarget::Auto);
        assert_eq!(defaults.search_depth, 60);
        let spec = CampaignSpec::parse(
            "mode = adversary-search
goals = covering, block-write
target-registers = none
search-depth = 24",
        )
        .unwrap();
        assert_eq!(spec.mode, CampaignMode::AdversarySearch);
        assert_eq!(spec.goals, SearchGoal::all().to_vec());
        assert_eq!(spec.target, SearchTarget::None);
        assert_eq!(spec.search_depth, 24);
        assert_eq!(CampaignSpec::parse(&spec.to_string()).unwrap(), spec);
        let fixed = CampaignSpec::parse("target-registers = 7").unwrap();
        assert_eq!(fixed.target, SearchTarget::Registers(7));
        assert_eq!(CampaignSpec::parse(&fixed.to_string()).unwrap(), fixed);
    }

    #[test]
    fn search_targets_resolve_per_cell() {
        let params = Params::new(3, 1, 2).unwrap();
        assert_eq!(SearchTarget::Auto.for_params(&params), 3); // n + 2m - k
        assert_eq!(SearchTarget::None.for_params(&params), 0);
        assert_eq!(SearchTarget::Registers(9).for_params(&params), 9);
    }

    #[test]
    fn malformed_adversary_search_values_are_rejected() {
        for bad in [
            "goals = nonsense",
            "goals = covering, nonsense",
            "goals = ",
            "target-registers = 0",
            "target-registers = -2",
            "target-registers = bogus",
            "search-depth = 0",
            "search-depth = -3",
            "search-depth = deep",
        ] {
            assert!(CampaignSpec::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn spill_knobs_parse_round_trip_and_default_off() {
        let defaults = CampaignSpec::parse("").unwrap();
        assert!(!defaults.spill);
        assert_eq!(defaults.max_resident_mb, 0);
        let spec = CampaignSpec::parse(
            "mode = explore
spill = on
max-resident-mb = 512",
        )
        .unwrap();
        assert!(spec.spill);
        assert_eq!(spec.max_resident_mb, 512);
        let reparsed = CampaignSpec::parse(&spec.to_string()).unwrap();
        assert!(reparsed.spill);
        assert_eq!(reparsed.max_resident_mb, 512);
        assert!(CampaignSpec::parse("spill = maybe").is_err());
        assert!(CampaignSpec::parse("max-resident-mb = lots").is_err());
    }

    #[test]
    fn symmetry_parses_round_trips_and_defaults_off() {
        assert_eq!(CampaignSpec::parse("").unwrap().symmetry, SymmetryMode::Off);
        let spec = CampaignSpec::parse(
            "mode = explore
symmetry = process-ids",
        )
        .unwrap();
        assert_eq!(spec.symmetry, SymmetryMode::ProcessIds);
        assert_eq!(CampaignSpec::parse(&spec.to_string()).unwrap(), spec);
        assert!(CampaignSpec::parse("symmetry = mirror").is_err());
    }

    #[test]
    fn reduction_defaults_off_and_retired_modes_are_unknown() {
        let spec = CampaignSpec::parse("").unwrap();
        assert_eq!(spec.reduction, ReductionMode::Off);
        // The key stays in the display text, which tags checkpoint journals.
        assert!(spec.to_string().contains("\nreduction = off\n"));
        let explicit = CampaignSpec::parse("mode = explore\nreduction = off").unwrap();
        assert_eq!(explicit.reduction, ReductionMode::Off);
        assert_eq!(
            CampaignSpec::parse(&explicit.to_string()).unwrap(),
            explicit
        );
        for retired in ["sleep-set", "persistent-set", "ample-set"] {
            for mode in ["explore", "adversary-search", "sample", "serve"] {
                let text = format!("mode = {mode}\nreduction = {retired}");
                let error = CampaignSpec::parse(&text).expect_err("off is the only reduction");
                assert!(
                    error
                        .0
                        .contains(&format!("unknown reduction \"{retired}\"")),
                    "{text:?}: {error}"
                );
            }
        }
    }

    #[test]
    fn display_round_trips_default_and_explicit_specs() {
        let spec = CampaignSpec::default();
        assert_eq!(CampaignSpec::parse(&spec.to_string()).unwrap(), spec);

        let explicit = CampaignSpec {
            name: "explicit".into(),
            params: ParamsSpec::parse_explicit("6/2/3;8/1/4").unwrap(),
            adversaries: vec![
                AdversarySpec::Crash {
                    inner: Box::new(AdversarySpec::RoundRobin),
                    crashes: 2,
                },
                AdversarySpec::Solo,
            ],
            seeds: vec![7],
            mode: CampaignMode::Explore,
            max_states: 10_000,
            ..CampaignSpec::default()
        };
        assert_eq!(
            CampaignSpec::parse(&explicit.to_string()).unwrap(),
            explicit
        );
    }

    #[test]
    fn grid_cells_skip_invalid_triples() {
        let spec = ParamsSpec::Grid {
            n: vec![3, 4],
            m: vec![1, 3],
            k: vec![2],
        };
        // (3,1,2) and (4,1,2) are valid; m = 3 > k = 2 never is.
        let cells = spec.cells();
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|p| p.m() == 1 && p.k() == 2));
    }

    #[test]
    fn spec_files_parse_and_reject_unknown_keys() {
        let spec = CampaignSpec::parse(
            "# smoke campaign\n\
             name = smoke\n\
             n = 4..6\n\
             m = 1,2\n\
             k = 2\n\
             algorithms = oneshot,fullinfo\n\
             adversaries = obstruction:40, round-robin\n\
             seeds = 3\n\
             workload = random:5\n\
             max-steps = 100000\n\
             campaign-seed = 9\n",
        )
        .unwrap();
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.params.cells().len(), 6);
        assert_eq!(spec.algorithms.len(), 2);
        assert_eq!(spec.adversaries.len(), 2);
        assert_eq!(spec.seeds, vec![0, 1, 2]);
        assert_eq!(spec.workload, WorkloadSpec::Random { universe: 5 });
        assert_eq!(spec.max_steps, 100_000);
        assert_eq!(spec.campaign_seed, 9);

        assert!(CampaignSpec::parse("bogus = 1").is_err());
        assert!(CampaignSpec::parse("name").is_err());
    }

    #[test]
    fn layers_replace_params_and_keep_unset_axes() {
        let file = CampaignSpec::parse("params = 3/1/2\nmode = explore").unwrap();
        // A later layer's axes replace the file's explicit cells wholesale...
        let grid = file
            .clone()
            .apply(&[("n", "4"), ("m", "1"), ("k", "2")])
            .unwrap();
        assert_eq!(grid.params.cells(), vec![Params::new(4, 1, 2).unwrap()]);
        assert_eq!(
            grid.mode,
            CampaignMode::Explore,
            "the file's other keys stay"
        );
        // ...but only all three at once.
        let partial = file.apply(&[("n", "4")]).unwrap_err();
        assert!(partial.0.contains("must all be set"), "{partial}");
        // Over a grid, unset axes keep the lower layer's values.
        let grid = CampaignSpec::parse("n = 4..5\nm = 1\nk = 2").unwrap();
        let widened = grid.apply(&[("k", "2,3")]).unwrap();
        assert_eq!(
            widened.params,
            ParamsSpec::Grid {
                n: vec![4, 5],
                m: vec![1],
                k: vec![2, 3]
            }
        );
        // Within one layer, cells and axes conflict exactly as in a file.
        let both = CampaignSpec::default()
            .apply(&[("params", "3/1/2"), ("n", "2"), ("m", "1"), ("k", "1")])
            .unwrap_err();
        assert!(both.0.contains("mutually exclusive"), "{both}");
    }

    #[test]
    fn explicit_params_conflict_with_grid_axes() {
        let spec = CampaignSpec::parse("params = 6/2/3; 8/1/4").unwrap();
        assert_eq!(spec.params.cells().len(), 2);
        assert!(CampaignSpec::parse("params = 6/2/3\nn = 4").is_err());
        assert!(CampaignSpec::parse("params = 6/9/3").is_err());
    }
}
