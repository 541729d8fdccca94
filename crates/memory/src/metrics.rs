//! Accounting of shared-memory usage: how many operations ran and which
//! locations were written.
//!
//! The central measurement of the paper is *space*: how many registers (or
//! snapshot components) an algorithm uses. [`MemoryMetrics`] holds, for a
//! run, the set of locations that were ever written and the total operation
//! count, so experiments can report measured space alongside the paper's
//! formulas.
//!
//! The two memories fill it differently. [`SimMemory`](crate::SimMemory)
//! counts operations and derives the written set from its contents when
//! asked: no operation writes `⊥`, so a cell was written exactly when it is
//! occupied, and a cloned configuration carries no set of its own.
//! [`SharedMemory`](crate::SharedMemory) records each written location as
//! its operation runs.

use sa_model::SnapshotId;
use std::collections::BTreeSet;

// The location vocabulary lives in `sa-model` (it is shared with the
// interference analysis and the covering adversary); re-exported here so the
// memory crate's historical `sa_memory::Location` path keeps working.
pub use sa_model::Location;

/// Usage statistics of a shared memory over one execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryMetrics {
    total_ops: u64,
    written: BTreeSet<Location>,
}

impl MemoryMetrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        MemoryMetrics::default()
    }

    /// Metrics of `total_ops` operations that wrote exactly `written`.
    pub(crate) fn derived(total_ops: u64, written: BTreeSet<Location>) -> Self {
        MemoryMetrics { total_ops, written }
    }

    /// Records one operation; `written` is the location modified by a
    /// write-like operation.
    pub fn record(&mut self, written: Option<Location>) {
        self.total_ops += 1;
        if let Some(location) = written {
            self.written.insert(location);
        }
    }

    /// Total number of shared-memory operations recorded (including `Nop`s).
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// The set of locations that were written at least once.
    pub fn written_locations(&self) -> impl Iterator<Item = Location> + '_ {
        self.written.iter().copied()
    }

    /// The number of distinct locations ever written — the "space actually
    /// used" measurement.
    pub fn distinct_locations_written(&self) -> usize {
        self.written.len()
    }

    /// The number of distinct components of snapshot object `snapshot` ever
    /// written.
    pub fn components_written(&self, snapshot: SnapshotId) -> usize {
        self.written
            .iter()
            .filter(|loc| matches!(loc, Location::Component { snapshot: s, .. } if *s == snapshot))
            .count()
    }

    /// The number of distinct plain registers ever written.
    pub fn registers_written(&self) -> usize {
        self.written
            .iter()
            .filter(|loc| matches!(loc, Location::Register(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_ops_and_writes() {
        let component = Location::Component {
            snapshot: 0,
            component: 3,
        };
        let mut m = MemoryMetrics::new();
        m.record(Some(component));
        m.record(None);
        m.record(Some(Location::Register(2)));
        m.record(Some(component));

        assert_eq!(m.total_ops(), 4);
        assert_eq!(m.distinct_locations_written(), 2);
        assert_eq!(m.components_written(0), 1);
        assert_eq!(m.registers_written(), 1);
        assert_eq!(
            m.written_locations().collect::<Vec<_>>(),
            [Location::Register(2), component]
        );
    }

    #[test]
    fn unknown_queries_return_zero() {
        let m = MemoryMetrics::new();
        assert_eq!(m.components_written(4), 0);
        assert_eq!(m.registers_written(), 0);
    }
}
