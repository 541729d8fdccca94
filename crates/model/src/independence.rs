//! Static interference analysis over [`Op`] footprints.
//!
//! The paper's lower-bound argument (Theorem 2) hinges on which operations
//! can be reordered invisibly. This module makes that structure
//! first-class:
//!
//! * [`Location`] — a single writable cell of the shared memory (a plain
//!   register or one snapshot component), the vocabulary shared by the
//!   metrics, the covering adversary and the interference analysis.
//! * [`Access`] — one entry of an op's footprint: a single cell, or a whole
//!   snapshot object (a scan observes every component at once).
//! * [`Footprint`] — the read and write access sets of one operation, via
//!   [`Op::footprint`].
//! * [`independent`] — the sound commutation relation: two operations are
//!   independent iff executing them in either order from any configuration
//!   yields the same memory contents **and** the same responses.
//!
//! The relation is *state-independent* (it looks only at the ops, never at
//! the memory contents) and conservative: declaring a commuting pair
//! dependent costs reduction, never soundness. The soundness battery
//! (`tests/independence_soundness.rs`) executes both orders of random
//! independent pairs and checks that memory and responses agree.

use crate::layout::{RegisterId, SnapshotId};
use crate::op::Op;

/// A single cell of the shared memory: either a plain register or one
/// component of a snapshot object.
///
/// Registers and snapshot components are disjoint address spaces — a
/// register write can never touch a snapshot component, whatever the
/// indices. This is the location vocabulary used by the usage metrics
/// (`sa_memory::MemoryMetrics`), the Theorem 2 covering adversary
/// (`sa_search::goal`) and the interference analysis below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Location {
    /// A plain MWMR register.
    Register(RegisterId),
    /// One component of a snapshot object.
    Component {
        /// The snapshot object.
        snapshot: SnapshotId,
        /// The component within the object.
        component: usize,
    },
}

/// One entry of an operation's footprint: the region of shared memory an
/// access touches.
///
/// A scan observes *every* component of its snapshot object atomically —
/// including components the layout may declare but no one has written — so
/// its read footprint is the whole object, not a cell set. Keeping the
/// whole-object case explicit (instead of expanding it against a layout)
/// keeps footprints a pure function of the op, which is what makes the
/// independence relation state-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Access {
    /// A single cell.
    Cell(Location),
    /// Every component of one snapshot object at once (a scan).
    WholeSnapshot(SnapshotId),
}

impl Access {
    /// `true` if the two accesses can touch a common cell.
    pub fn overlaps(self, other: Access) -> bool {
        match (self, other) {
            (Access::Cell(a), Access::Cell(b)) => a == b,
            (Access::WholeSnapshot(s), Access::Cell(cell))
            | (Access::Cell(cell), Access::WholeSnapshot(s)) => {
                matches!(cell, Location::Component { snapshot, .. } if snapshot == s)
            }
            (Access::WholeSnapshot(a), Access::WholeSnapshot(b)) => a == b,
        }
    }
}

/// The read and write access sets of one operation — see [`Op::footprint`].
///
/// Every operation in the current vocabulary touches at most one region per
/// side, so each set is an `Option`; a future read-modify-write primitive
/// (swap, test-and-set, CAS) declares both sides on the same cell and the
/// analysis extends without change. `Nop` has the empty footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Footprint {
    /// The region this operation reads, if any.
    pub read: Option<Access>,
    /// The region this operation writes, if any.
    pub write: Option<Access>,
}

impl Footprint {
    /// `true` if the two footprints interfere: some write of one overlaps a
    /// read or write of the other. Read/read overlap is *not* a conflict —
    /// observations commute.
    pub fn conflicts_with(&self, other: &Footprint) -> bool {
        let against = |w: Option<Access>, o: &Footprint| {
            w.is_some_and(|w| {
                o.write.is_some_and(|x| w.overlaps(x)) || o.read.is_some_and(|x| w.overlaps(x))
            })
        };
        against(self.write, other) || against(other.write, self)
    }

    /// The single cell this footprint writes, if the write is cell-granular:
    /// the location a write-like op is poised to modify, in [`Location`]
    /// vocabulary.
    pub fn write_cell(&self) -> Option<Location> {
        match self.write {
            Some(Access::Cell(cell)) => Some(cell),
            _ => None,
        }
    }
}

/// The sound independence relation over operations: `true` iff executing
/// `a` and `b` in either order from **any** configuration produces the same
/// memory contents and the same two responses.
///
/// The rules (equivalently: `!a.footprint().conflicts_with(&b.footprint())`,
/// pinned by a test):
///
/// * `Nop` is independent of everything — it touches nothing.
/// * Read-like pairs (read/read, read/scan, scan/scan) are always
///   independent, even on the same cell — observations commute.
/// * Pairs touching disjoint locations are independent; registers and
///   snapshot components are disjoint address spaces, so a register op and
///   a snapshot op never interfere.
/// * `Write`/`Write` and `Write`/`Read` on the same register conflict.
/// * `Update`/`Update` on the same `(snapshot, component)` conflicts.
/// * `Scan` conservatively conflicts with every `Update` on the same
///   snapshot object, whatever the component — the scan observes all of it.
///
/// Same-register writes of *equal* values do commute on memory, but this
/// relation deliberately ignores payloads: state-independence is what lets
/// it hold in **every** configuration, and conservatism never costs
/// soundness. The payload- and state-sensitive cases (same-value writes to
/// one cell; a write of the value a cell already holds against a concurrent
/// reader) are recovered by `sa-memory`'s `SimMemory::invisibly_independent`
/// refinement, which is judged per configuration.
pub fn independent<V, W>(a: &Op<V>, b: &Op<W>) -> bool {
    match (a, b) {
        (Op::Nop, _) | (_, Op::Nop) => true,
        // Read-like pairs always commute.
        (Op::Read { .. } | Op::Scan { .. }, Op::Read { .. } | Op::Scan { .. }) => true,
        // Register ops against snapshot ops: disjoint address spaces.
        (Op::Read { .. } | Op::Write { .. }, Op::Update { .. } | Op::Scan { .. })
        | (Op::Update { .. } | Op::Scan { .. }, Op::Read { .. } | Op::Write { .. }) => true,
        (Op::Write { register: a, .. }, Op::Write { register: b, .. })
        | (Op::Write { register: a, .. }, Op::Read { register: b })
        | (Op::Read { register: a }, Op::Write { register: b, .. }) => a != b,
        (
            Op::Update {
                snapshot: sa,
                component: ca,
                ..
            },
            Op::Update {
                snapshot: sb,
                component: cb,
                ..
            },
        ) => sa != sb || ca != cb,
        (Op::Update { snapshot: a, .. }, Op::Scan { snapshot: b })
        | (Op::Scan { snapshot: a }, Op::Update { snapshot: b, .. }) => a != b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small catalog covering every op shape and the colliding/disjoint
    /// index combinations.
    fn catalog() -> Vec<Op<u64>> {
        vec![
            Op::Nop,
            Op::Read { register: 0 },
            Op::Read { register: 1 },
            Op::Write {
                register: 0,
                value: 7,
            },
            Op::Write {
                register: 1,
                value: 7,
            },
            Op::Update {
                snapshot: 0,
                component: 0,
                value: 7,
            },
            Op::Update {
                snapshot: 0,
                component: 1,
                value: 7,
            },
            Op::Update {
                snapshot: 1,
                component: 0,
                value: 7,
            },
            Op::Scan { snapshot: 0 },
            Op::Scan { snapshot: 1 },
        ]
    }

    #[test]
    fn independence_agrees_with_footprint_overlap() {
        for a in &catalog() {
            for b in &catalog() {
                assert_eq!(
                    independent(a, b),
                    !a.footprint().conflicts_with(&b.footprint()),
                    "relation and footprints disagree on {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn independence_is_symmetric() {
        for a in &catalog() {
            for b in &catalog() {
                assert_eq!(independent(a, b), independent(b, a), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn dependent_pairs_per_conflict_rule() {
        // Write/Write, same register.
        let w0 = Op::Write {
            register: 0,
            value: 1u64,
        };
        assert!(!independent(
            &w0,
            &Op::Write {
                register: 0,
                value: 2
            }
        ));
        // Write/Read, same register.
        assert!(!independent(&w0, &Op::<u64>::Read { register: 0 }));
        // Update/Update, same component.
        let u00 = Op::Update {
            snapshot: 0,
            component: 0,
            value: 1u64,
        };
        assert!(!independent(
            &u00,
            &Op::Update {
                snapshot: 0,
                component: 0,
                value: 2
            }
        ));
        // Update/Scan, same snapshot — any component.
        assert!(!independent(&u00, &Op::<u64>::Scan { snapshot: 0 }));
        assert!(!independent(
            &Op::Update {
                snapshot: 0,
                component: 5,
                value: 1u64
            },
            &Op::<u64>::Scan { snapshot: 0 }
        ));
    }

    #[test]
    fn independent_pairs_per_commutation_rule() {
        let w0 = Op::Write {
            register: 0,
            value: 1u64,
        };
        // Disjoint registers.
        assert!(independent(
            &w0,
            &Op::Write {
                register: 1,
                value: 2
            }
        ));
        assert!(independent(&w0, &Op::<u64>::Read { register: 1 }));
        // Read/read, same register.
        assert!(independent(
            &Op::<u64>::Read { register: 0 },
            &Op::<u64>::Read { register: 0 }
        ));
        // Scan/scan, same snapshot.
        assert!(independent(
            &Op::<u64>::Scan { snapshot: 0 },
            &Op::<u64>::Scan { snapshot: 0 }
        ));
        // Register space vs snapshot space, colliding indices.
        assert!(independent(
            &w0,
            &Op::Update {
                snapshot: 0,
                component: 0,
                value: 2
            }
        ));
        assert!(independent(&w0, &Op::<u64>::Scan { snapshot: 0 }));
        // Disjoint components, disjoint snapshots.
        let u00 = Op::Update {
            snapshot: 0,
            component: 0,
            value: 1u64,
        };
        assert!(independent(
            &u00,
            &Op::Update {
                snapshot: 0,
                component: 1,
                value: 2
            }
        ));
        assert!(independent(&u00, &Op::<u64>::Scan { snapshot: 1 }));
        // Nop against a write.
        assert!(independent(&Op::<u64>::Nop, &w0));
    }

    #[test]
    fn whole_snapshot_access_overlaps_only_its_object() {
        let scan0 = Access::WholeSnapshot(0);
        assert!(scan0.overlaps(Access::Cell(Location::Component {
            snapshot: 0,
            component: 3
        })));
        assert!(!scan0.overlaps(Access::Cell(Location::Component {
            snapshot: 1,
            component: 0
        })));
        assert!(!scan0.overlaps(Access::Cell(Location::Register(0))));
        assert!(scan0.overlaps(Access::WholeSnapshot(0)));
        assert!(!scan0.overlaps(Access::WholeSnapshot(1)));
    }

    #[test]
    fn write_cell_recovers_the_poised_location() {
        let write = Op::Write {
            register: 3,
            value: 1u64,
        };
        assert_eq!(write.footprint().write_cell(), Some(Location::Register(3)));
        let update = Op::Update {
            snapshot: 1,
            component: 4,
            value: 1u64,
        };
        assert_eq!(
            update.footprint().write_cell(),
            Some(Location::Component {
                snapshot: 1,
                component: 4
            })
        );
        assert_eq!(
            Op::<u64>::Scan { snapshot: 0 }.footprint().write_cell(),
            None
        );
        assert_eq!(Op::<u64>::Nop.footprint().write_cell(), None);
    }

    #[test]
    fn location_ordering_groups_registers_before_components() {
        let a = Location::Register(5);
        let b = Location::Component {
            snapshot: 0,
            component: 0,
        };
        assert!(a < b);
    }
}
