//! Input workload generators for tests, experiments and benchmarks.
//!
//! A workload assigns to every process the sequence of values it will propose
//! in successive instances of repeated set agreement. All generators are
//! deterministic given their seed, so experiments are reproducible.

use sa_model::{InputValue, InstanceId, SplitMix64};

/// A workload: `inputs[p][t - 1]` is the value process `p` proposes in its
/// `t`-th instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    inputs: Vec<Vec<InputValue>>,
}

impl Workload {
    /// Builds a workload from an explicit matrix.
    pub fn from_matrix(inputs: Vec<Vec<InputValue>>) -> Self {
        Workload { inputs }
    }

    /// Every process proposes a distinct value in every instance — the
    /// hardest workload for agreement, since the full input diversity is
    /// available.
    ///
    /// Process `p` proposes `instance * 1000 + p` in instance `instance`.
    pub fn all_distinct(processes: usize, instances: usize) -> Self {
        let inputs = (0..processes)
            .map(|p| {
                (1..=instances)
                    .map(|t| (t as InputValue) * 1000 + p as InputValue)
                    .collect()
            })
            .collect();
        Workload { inputs }
    }

    /// Every process proposes the same value in every instance — the easiest
    /// workload; useful as a sanity check (the only valid output is that
    /// value).
    pub fn uniform(processes: usize, instances: usize, value: InputValue) -> Self {
        Workload {
            inputs: vec![vec![value; instances]; processes],
        }
    }

    /// Random values drawn from `0..universe`, reproducibly from `seed`.
    pub fn random(processes: usize, instances: usize, universe: u64, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let inputs = (0..processes)
            .map(|_| (0..instances).map(|_| rng.below(universe)).collect())
            .collect();
        Workload { inputs }
    }

    /// The number of processes.
    pub fn processes(&self) -> usize {
        self.inputs.len()
    }

    /// The number of instances each process proposes in.
    pub fn instances(&self) -> usize {
        self.inputs.first().map_or(0, |v| v.len())
    }

    /// The input of process `p` in instance `t` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if the process or instance is out of range.
    pub fn input(&self, process: usize, instance: InstanceId) -> InputValue {
        self.inputs[process][(instance - 1) as usize]
    }

    /// The full input sequence of process `p`.
    pub fn sequence(&self, process: usize) -> &[InputValue] {
        &self.inputs[process]
    }

    /// The underlying matrix, indexable as `matrix[p][t - 1]`.
    pub fn matrix(&self) -> &[Vec<InputValue>] {
        &self.inputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_distinct_has_no_collisions_within_an_instance() {
        let w = Workload::all_distinct(8, 5);
        assert_eq!(w.processes(), 8);
        assert_eq!(w.instances(), 5);
        for t in 1..=5u64 {
            let mut values: Vec<_> = (0..8).map(|p| w.input(p, t)).collect();
            values.sort_unstable();
            values.dedup();
            assert_eq!(values.len(), 8, "instance {t} has duplicate inputs");
        }
    }

    #[test]
    fn uniform_always_returns_the_same_value() {
        let w = Workload::uniform(4, 3, 7);
        for p in 0..4 {
            for t in 1..=3u64 {
                assert_eq!(w.input(p, t), 7);
            }
        }
    }

    #[test]
    fn random_is_reproducible_and_bounded() {
        let a = Workload::random(5, 4, 100, 42);
        let b = Workload::random(5, 4, 100, 42);
        let c = Workload::random(5, 4, 100, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        for p in 0..5 {
            for v in a.sequence(p) {
                assert!(*v < 100);
            }
        }
    }

    #[test]
    fn from_matrix_round_trips() {
        let w = Workload::from_matrix(vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(w.input(1, 2), 4);
        assert_eq!(w.matrix()[0], vec![1, 2]);
    }
}
