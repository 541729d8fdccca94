//! The open-loop load generator: `rate` proposals per tick from a pool of
//! simulated clients, regardless of how fast the service keeps up.
//!
//! "Open-loop" is the property that makes the latency numbers honest: a
//! closed-loop generator (issue the next request only after the previous
//! answer) throttles itself when the service slows down, hiding queueing
//! delay. Here arrivals are a pure function of the tick counter, the
//! configured rate, and the seed — which also makes the whole arrival
//! schedule deterministic and independent of shard count.

use sa_model::SplitMix64;
use sa_runtime::ServeLoad;

/// Deterministic open-loop proposal source.
#[derive(Debug, Clone)]
pub struct LoadGenerator {
    clients: u64,
    rate: u64,
    load: ServeLoad,
    seed: u64,
    issued: u64,
}

impl LoadGenerator {
    /// A generator for `clients` simulated clients issuing `rate` proposals
    /// per tick, with values drawn according to `load`.
    ///
    /// # Panics
    ///
    /// Panics if `clients` or `rate` is 0.
    pub fn new(clients: usize, rate: u64, load: ServeLoad, seed: u64) -> Self {
        assert!(clients >= 1, "clients must be at least 1");
        assert!(rate >= 1, "rate must be at least 1");
        LoadGenerator {
            clients: clients as u64,
            rate,
            load,
            seed,
            issued: 0,
        }
    }

    /// The `(client, value)` pairs arriving during one tick. Clients take
    /// turns round-robin; values follow the configured [`ServeLoad`].
    pub fn tick(&mut self) -> Vec<(u64, u64)> {
        let mut arrivals = Vec::with_capacity(self.rate as usize);
        for _ in 0..self.rate {
            let client = self.issued % self.clients;
            let value = match self.load {
                ServeLoad::Distinct => self.issued,
                ServeLoad::Uniform(value) => value,
                ServeLoad::Random { universe } => {
                    SplitMix64::new(self.seed ^ self.issued).below(universe.max(1))
                }
            };
            arrivals.push((client, value));
            self.issued += 1;
        }
        arrivals
    }

    /// Proposals issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_issues_rate_proposals_per_tick_round_robin() {
        let mut generator = LoadGenerator::new(3, 5, ServeLoad::Distinct, 0);
        let first = generator.tick();
        assert_eq!(first.len(), 5);
        assert_eq!(
            first.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
            vec![0, 1, 2, 0, 1]
        );
        let second = generator.tick();
        assert_eq!(second[0].0, 2, "round-robin continues across ticks");
        assert_eq!(generator.issued(), 10);
        // Distinct values are globally unique.
        let values: Vec<u64> = first.iter().chain(&second).map(|(_, v)| *v).collect();
        assert_eq!(values, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn value_streams_are_deterministic_in_the_seed() {
        let run = |seed| {
            let mut g = LoadGenerator::new(4, 8, ServeLoad::Random { universe: 50 }, seed);
            (0..3).flat_map(|_| g.tick()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        assert!(run(7).iter().all(|(_, v)| *v < 50));
        let mut uniform = LoadGenerator::new(2, 4, ServeLoad::Uniform(9), 0);
        assert!(uniform.tick().iter().all(|(_, v)| *v == 9));
    }
}
