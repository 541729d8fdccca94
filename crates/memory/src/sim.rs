//! The deterministic, single-threaded shared memory used by the simulator.
//!
//! [`SimMemory`] is a literal transcription of the paper's model: a set of
//! atomic MWMR registers plus atomic multi-writer snapshot objects. Each call
//! to [`SimMemory::apply`] performs exactly one atomic operation, so the
//! interleaving chosen by a scheduler *is* the linearization order.

use crate::metrics::{Location, MemoryMetrics};
use sa_model::{LayoutError, MemoryLayout, Op, Response};
use std::borrow::Cow;
use std::fmt::Debug;
use std::ops::Range;
use std::sync::Arc;

/// A deterministic in-memory implementation of the shared objects declared by
/// a [`MemoryLayout`].
///
/// `V` is the value type stored by the algorithm; every register and snapshot
/// component holds `Option<V>`, with `None` playing the role of the initial
/// value `⊥`.
///
/// ```
/// use sa_memory::SimMemory;
/// use sa_model::{MemoryLayout, Op, Response};
///
/// let layout = MemoryLayout::with_snapshot_and_registers(3, 1);
/// let mut mem: SimMemory<u64> = SimMemory::for_layout(&layout);
/// mem.apply(Op::Update { snapshot: 0, component: 1, value: 42 })?;
/// let resp = mem.apply(Op::Scan { snapshot: 0 })?;
/// assert_eq!(resp, Response::Snapshot(vec![None, Some(42), None].into()));
/// # Ok::<(), sa_model::LayoutError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimMemory<V> {
    /// Shared by every clone: a layout never changes after creation.
    layout: Arc<MemoryLayout>,
    /// Every register, then each snapshot object's components in object
    /// order: one allocation per configuration.
    cells: Vec<Option<V>>,
    /// Operations applied so far, `Nop`s included.
    ops: u64,
}

impl<V: Clone + Eq + Debug> SimMemory<V> {
    /// Creates a memory with every register and component initialized to `⊥`.
    pub fn for_layout(layout: &MemoryLayout) -> Self {
        SimMemory {
            layout: Arc::new(layout.clone()),
            cells: vec![None; layout.total_components()],
            ops: 0,
        }
    }

    /// The layout this memory was created for.
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// The cells of snapshot object `snapshot`, which must exist.
    fn snapshot_cells(&self, snapshot: usize) -> Range<usize> {
        let widths = self.layout.snapshot_widths();
        let start = self.layout.register_count() + widths[..snapshot].iter().sum::<usize>();
        start..start + widths[snapshot]
    }

    /// Every snapshot object's cells, in object order.
    fn snapshots(&self) -> impl Iterator<Item = &[Option<V>]> + '_ {
        (0..self.layout.snapshot_count()).map(|s| &self.cells[self.snapshot_cells(s)])
    }

    /// Applies one atomic operation and returns its response.
    ///
    /// A scan lends the object's cells ([`Cow::Borrowed`]) instead of
    /// copying them, so the memory stays borrowed while its response lives.
    ///
    /// # Errors
    ///
    /// Returns a [`LayoutError`] if the operation refers to a register or
    /// component outside the layout. This indicates a protocol bug; the
    /// runtime treats it as fatal.
    pub fn apply(&mut self, op: Op<V>) -> Result<Response<'_, V>, LayoutError> {
        let response = match op {
            Op::Read { register } => {
                self.layout.check_register(register)?;
                Response::Read(self.cells[register].clone())
            }
            Op::Write { register, value } => {
                self.layout.check_register(register)?;
                self.cells[register] = Some(value);
                Response::Written
            }
            Op::Update {
                snapshot,
                component,
                value,
            } => {
                self.layout.check_component(snapshot, component)?;
                let cell = self.snapshot_cells(snapshot).start + component;
                self.cells[cell] = Some(value);
                Response::Updated
            }
            Op::Scan { snapshot } => {
                self.layout.check_snapshot(snapshot)?;
                let cells = self.snapshot_cells(snapshot);
                Response::Snapshot(Cow::Borrowed(&self.cells[cells]))
            }
            Op::Nop => Response::Nop,
        };
        self.ops += 1;
        Ok(response)
    }

    /// The locations written so far, in [`Location`] order. No operation
    /// writes `⊥`, so a cell has been written exactly when it is occupied.
    pub fn written_locations(&self) -> impl Iterator<Item = Location> + '_ {
        let registers = (0..self.layout.register_count())
            .filter(|&register| self.cells[register].is_some())
            .map(Location::Register);
        let components = self.snapshots().enumerate().flat_map(|(snapshot, cells)| {
            cells
                .iter()
                .enumerate()
                .filter(|(_, cell)| cell.is_some())
                .map(move |(component, _)| Location::Component {
                    snapshot,
                    component,
                })
        });
        registers.chain(components)
    }

    /// The usage metrics accumulated so far: the operation count, and the
    /// written set derived from the occupied cells.
    pub fn metrics(&self) -> MemoryMetrics {
        MemoryMetrics::derived(self.ops, self.written_locations().collect())
    }

    /// Reads register `register` without recording a metric (used by
    /// inspection and assertions in tests and adversaries).
    pub fn peek_register(&self, register: usize) -> Option<&V> {
        if register < self.layout.register_count() {
            self.cells[register].as_ref()
        } else {
            None
        }
    }

    /// Returns the current contents of snapshot object `snapshot` without
    /// recording a metric.
    pub fn peek_snapshot(&self, snapshot: usize) -> &[Option<V>] {
        &self.cells[self.snapshot_cells(snapshot)]
    }

    /// State-conditional refinement of the static independence relation:
    /// `true` if `a` and `b` commute *from this memory's current contents*
    /// even though their footprints overlap.
    ///
    /// The static relation (`sa_model::independence::independent`) must hold
    /// in every state, so it deliberately ignores payloads — a `Scan`
    /// conflicts with every update of the same snapshot. But the paper's
    /// Theorem 2 reasons about writes that are reordered *invisibly*, and
    /// that is a property of the current contents:
    ///
    /// * two writes (or two updates) of the **same value** to the **same
    ///   cell** commute — both orders leave the cell identical and both
    ///   responses are acknowledgements;
    /// * a write/update whose value **equals what the cell already holds**
    ///   is invisible to a concurrent read/scan of that location — the
    ///   observer sees the same contents in either order.
    ///
    /// The result is a pure function of `(self, a, b)` and is symmetric in
    /// `a`/`b`, so reduced explorations using it stay deterministic at any
    /// worker count. Ops referring to locations outside the layout (or an
    /// overwriting write to a still-`⊥` cell) conservatively return `false`.
    /// Soundness is machine-checked: the soundness battery
    /// (`tests/independence_soundness.rs`) executes both orders of random
    /// pairs this refinement keeps and checks that they commute.
    pub fn invisibly_independent(&self, a: &Op<V>, b: &Op<V>) -> bool {
        // `true` if the op writes a value identical to what its target cell
        // currently holds, making it invisible to any observer.
        let invisible_write = |op: &Op<V>| match op {
            Op::Write { register, value } => self.peek_register(*register) == Some(value),
            Op::Update {
                snapshot,
                component,
                value,
            } => {
                self.layout.check_component(*snapshot, *component).is_ok()
                    && self.peek_snapshot(*snapshot)[*component].as_ref() == Some(value)
            }
            _ => false,
        };
        match (a, b) {
            (
                Op::Write {
                    register: ra,
                    value: va,
                },
                Op::Write {
                    register: rb,
                    value: vb,
                },
            ) => ra == rb && va == vb,
            (
                Op::Update {
                    snapshot: sa,
                    component: ca,
                    value: va,
                },
                Op::Update {
                    snapshot: sb,
                    component: cb,
                    value: vb,
                },
            ) => sa == sb && ca == cb && va == vb,
            (w @ Op::Write { register: rw, .. }, Op::Read { register: rr })
            | (Op::Read { register: rr }, w @ Op::Write { register: rw, .. }) => {
                rw == rr && invisible_write(w)
            }
            (u @ Op::Update { snapshot: su, .. }, Op::Scan { snapshot: ss })
            | (Op::Scan { snapshot: ss }, u @ Op::Update { snapshot: su, .. }) => {
                su == ss && invisible_write(u)
            }
            _ => false,
        }
    }

    /// `true` if `other` holds exactly the same register and snapshot
    /// contents. The operation counts are ignored: they record how the
    /// contents were reached, not what they are.
    pub fn same_contents(&self, other: &SimMemory<V>) -> bool {
        self.layout == other.layout && self.cells == other.cells
    }

    /// Hashes the full register/snapshot contents (not the operation
    /// count) into `hasher`, as the word stream of the pair
    /// `(Vec<Option<V>>, Vec<Vec<Option<V>>>)` of registers and snapshot
    /// objects.
    pub fn hash_contents<H: std::hash::Hasher>(&self, hasher: &mut H)
    where
        V: std::hash::Hash,
    {
        use std::hash::Hash;
        self.cells[..self.layout.register_count()].hash(hasher);
        hasher.write_usize(self.layout.snapshot_count());
        for snapshot in self.snapshots() {
            snapshot.hash(hasher);
        }
    }

    /// Hashes the register/snapshot contents with every stored value first
    /// passed through `map`, without materializing the mapped memory.
    ///
    /// This is how the symmetry-reduced explorers hash memory under a
    /// process-id relabeling: `map` rewrites the ids a value embeds, while
    /// the *locations* (register indices, snapshot components) keep their
    /// positions — the paper's algorithms never address shared objects by
    /// process id (the one that does, the single-writer emulation, is
    /// excluded from symmetry reduction for exactly that reason).
    pub fn hash_contents_mapped<H, F>(&self, hasher: &mut H, mut map: F)
    where
        V: std::hash::Hash,
        H: std::hash::Hasher,
        F: FnMut(&V) -> V,
    {
        let mut hash_slot = |hasher: &mut H, slot: &Option<V>| match slot {
            None => hasher.write_u8(0),
            Some(value) => {
                hasher.write_u8(1);
                map(value).hash(hasher);
            }
        };
        let registers = &self.cells[..self.layout.register_count()];
        hasher.write_usize(registers.len());
        for slot in registers {
            hash_slot(hasher, slot);
        }
        hasher.write_usize(self.layout.snapshot_count());
        for snapshot in self.snapshots() {
            hasher.write_usize(snapshot.len());
            for slot in snapshot {
                hash_slot(hasher, slot);
            }
        }
    }

    /// A length-based estimate of the heap bytes this memory owns: its one
    /// cell vector, charged per register and component, plus, for every
    /// **occupied** cell, the value's own heap footprint as reported by
    /// `value_heap` (the `Automaton::value_heap_bytes` hook). The layout is
    /// charged nothing: every clone shares it behind one `Arc`.
    ///
    /// Computed from lengths, never capacities, so the result is a pure
    /// function of the contents: that determinism is what lets the
    /// explorers report identical byte estimates at any worker count.
    pub fn approx_heap_bytes<F>(&self, mut value_heap: F) -> usize
    where
        F: FnMut(&V) -> usize,
    {
        let mut bytes = self.cells.len() * std::mem::size_of::<Option<V>>();
        for value in self.cells.iter().flatten() {
            bytes += value_heap(value);
        }
        bytes
    }

    /// A copy of this memory with every stored value passed through `map`
    /// (locations keep their positions, the operation count is unchanged) — the
    /// materialized counterpart of [`SimMemory::hash_contents_mapped`],
    /// used when a whole configuration is canonicalized (e.g. by the
    /// orbit-soundness tests).
    pub fn canonicalized<F>(&self, mut map: F) -> SimMemory<V>
    where
        F: FnMut(&V) -> V,
    {
        SimMemory {
            layout: Arc::clone(&self.layout),
            cells: self
                .cells
                .iter()
                .map(|slot| slot.as_ref().map(&mut map))
                .collect(),
            ops: self.ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> MemoryLayout {
        MemoryLayout::new(2, vec![3, 2])
    }

    #[test]
    fn invisible_independence_follows_contents() {
        let mut mem: SimMemory<u64> = SimMemory::for_layout(&layout());
        let upd = |value| Op::Update {
            snapshot: 0,
            component: 1,
            value,
        };
        let scan = Op::Scan { snapshot: 0 };
        // Against ⊥ contents, an update is visible to a scan.
        assert!(!mem.invisibly_independent(&upd(7), &scan));
        mem.apply(upd(7)).unwrap();
        // Re-writing the value the cell already holds is invisible; the
        // relation is symmetric and flips off once the condition breaks.
        assert!(mem.invisibly_independent(&upd(7), &scan));
        assert!(mem.invisibly_independent(&scan, &upd(7)));
        assert!(!mem.invisibly_independent(&upd(8), &scan));
        // Same-cell same-value updates commute regardless of contents;
        // differing values or differing cells do not qualify.
        assert!(mem.invisibly_independent(&upd(9), &upd(9)));
        assert!(!mem.invisibly_independent(&upd(9), &upd(10)));
        let other_cell = Op::Update {
            snapshot: 0,
            component: 0,
            value: 9,
        };
        assert!(!mem.invisibly_independent(&upd(9), &other_cell));

        let write = |value| Op::Write { register: 0, value };
        let read = Op::Read { register: 0 };
        assert!(!mem.invisibly_independent(&write(3), &read));
        mem.apply(write(3)).unwrap();
        assert!(mem.invisibly_independent(&write(3), &read));
        assert!(mem.invisibly_independent(&read, &write(3)));
        assert!(!mem.invisibly_independent(&write(4), &read));
        assert!(mem.invisibly_independent(&write(5), &write(5)));
        assert!(!mem.invisibly_independent(&write(5), &write(6)));
        // Out-of-layout targets and non-matching shapes are conservative.
        let stray = Op::Write {
            register: 99,
            value: 3,
        };
        assert!(!mem.invisibly_independent(&stray, &Op::Read { register: 99 }));
        assert!(!mem.invisibly_independent(&Op::Nop, &scan));
    }

    #[test]
    fn seeded_op_sequences_match_the_shared_memory_and_nested_contents() {
        use crate::SharedMemory;
        use sa_model::{Fingerprinter, SplitMix64};
        use std::hash::Hash;
        let layout = layout();
        for seed in 0..100 {
            let mut rng = SplitMix64::new(seed);
            let mut sim: SimMemory<u64> = SimMemory::for_layout(&layout);
            let shared: SharedMemory<u64> = SharedMemory::for_layout(&layout);
            for _ in 0..rng.below(30) {
                let snapshot = rng.below(2) as usize;
                let component = rng.below(layout.snapshot_width(snapshot).unwrap() as u64) as usize;
                let register = rng.below(2) as usize;
                let value = rng.below(4);
                let op = match rng.below(5) {
                    0 => Op::Read { register },
                    1 => Op::Write { register, value },
                    2 => Op::Update {
                        snapshot,
                        component,
                        value,
                    },
                    3 => Op::Scan { snapshot },
                    _ => Op::Nop,
                };
                assert_eq!(sim.apply(op.clone()), shared.apply(op), "seed {seed}");
            }
            assert_eq!(sim.metrics(), shared.metrics(), "seed {seed}");

            let registers: Vec<Option<u64>> =
                (0..2).map(|r| sim.peek_register(r).copied()).collect();
            let snapshots: Vec<Vec<Option<u64>>> =
                (0..2).map(|s| sim.peek_snapshot(s).to_vec()).collect();
            let mut nested = Fingerprinter::new();
            (registers, snapshots).hash(&mut nested);
            let mut flat = Fingerprinter::new();
            sim.hash_contents(&mut flat);
            assert_eq!(flat.finish128(), nested.finish128(), "seed {seed}");
        }
    }

    #[test]
    fn registers_start_at_bottom() {
        let mem: SimMemory<u64> = SimMemory::for_layout(&layout());
        assert_eq!(mem.peek_register(0), None);
        assert_eq!(mem.peek_snapshot(0), &[None, None, None]);
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut mem: SimMemory<u64> = SimMemory::for_layout(&layout());
        mem.apply(Op::Write {
            register: 1,
            value: 5,
        })
        .unwrap();
        let r = mem.apply(Op::Read { register: 1 }).unwrap();
        assert_eq!(r, Response::Read(Some(5)));
        let r = mem.apply(Op::Read { register: 0 }).unwrap();
        assert_eq!(r, Response::Read(None));
    }

    #[test]
    fn update_then_scan_sees_value() {
        let mut mem: SimMemory<u64> = SimMemory::for_layout(&layout());
        mem.apply(Op::Update {
            snapshot: 1,
            component: 1,
            value: 9,
        })
        .unwrap();
        let r = mem.apply(Op::Scan { snapshot: 1 }).unwrap();
        assert_eq!(r, Response::Snapshot(vec![None, Some(9)].into()));
        // The scan lends the cells instead of copying them.
        assert!(matches!(r, Response::Snapshot(Cow::Borrowed(_))));
        // Other snapshot object unaffected.
        let r = mem.apply(Op::Scan { snapshot: 0 }).unwrap();
        assert_eq!(r, Response::Snapshot(vec![None, None, None].into()));
    }

    #[test]
    fn overwrites_keep_latest_value() {
        let mut mem: SimMemory<u64> = SimMemory::for_layout(&layout());
        for v in 0..10u64 {
            mem.apply(Op::Update {
                snapshot: 0,
                component: 0,
                value: v,
            })
            .unwrap();
        }
        assert_eq!(mem.peek_snapshot(0)[0], Some(9));
    }

    #[test]
    fn out_of_range_operations_error() {
        let mut mem: SimMemory<u64> = SimMemory::for_layout(&layout());
        assert!(mem.apply(Op::Read { register: 2 }).is_err());
        assert!(mem
            .apply(Op::Update {
                snapshot: 0,
                component: 3,
                value: 1
            })
            .is_err());
        assert!(mem.apply(Op::Scan { snapshot: 2 }).is_err());
        assert!(mem
            .apply(Op::Write {
                register: 5,
                value: 0
            })
            .is_err());
    }

    #[test]
    fn metrics_track_ops_and_space() {
        let mut mem: SimMemory<u64> = SimMemory::for_layout(&layout());
        mem.apply(Op::Update {
            snapshot: 0,
            component: 0,
            value: 1,
        })
        .unwrap();
        mem.apply(Op::Update {
            snapshot: 0,
            component: 1,
            value: 2,
        })
        .unwrap();
        mem.apply(Op::Scan { snapshot: 0 }).unwrap();
        mem.apply(Op::Nop).unwrap();
        let metrics = mem.metrics();
        assert_eq!(metrics.total_ops(), 4);
        assert_eq!(metrics.components_written(0), 2);
        assert_eq!(metrics.distinct_locations_written(), 2);
    }

    #[test]
    fn nop_touches_nothing() {
        let mut mem: SimMemory<u64> = SimMemory::for_layout(&layout());
        let before = mem.clone();
        mem.apply(Op::Nop).unwrap();
        assert_eq!(mem.peek_snapshot(0), before.peek_snapshot(0));
        assert_eq!(mem.metrics().distinct_locations_written(), 0);
    }

    #[test]
    fn same_contents_compares_contents_not_metrics() {
        let mut a: SimMemory<u64> = SimMemory::for_layout(&layout());
        let empty = a.clone();
        assert!(a.same_contents(&empty));
        a.apply(Op::Write {
            register: 0,
            value: 1,
        })
        .unwrap();
        assert!(!a.same_contents(&empty));
        let written = a.clone();
        // Metrics do not influence the comparison.
        a.apply(Op::Read { register: 0 }).unwrap();
        assert!(a.same_contents(&written));
        // A snapshot component differs as much as a register does.
        let mut b = written.clone();
        b.apply(Op::Update {
            snapshot: 0,
            component: 1,
            value: 1,
        })
        .unwrap();
        assert!(!b.same_contents(&written));
    }

    #[test]
    fn mapped_hash_matches_materialized_canonicalization() {
        use sa_model::Fingerprinter;
        let mut mem: SimMemory<u64> = SimMemory::for_layout(&layout());
        mem.apply(Op::Write {
            register: 1,
            value: 10,
        })
        .unwrap();
        mem.apply(Op::Update {
            snapshot: 0,
            component: 2,
            value: 20,
        })
        .unwrap();
        let hash_mapped = |mem: &SimMemory<u64>, map: fn(&u64) -> u64| {
            let mut hasher = Fingerprinter::new();
            mem.hash_contents_mapped(&mut hasher, map);
            hasher.finish128()
        };
        // Mapping then hashing raw equals hashing with the map inline.
        let doubled = mem.canonicalized(|v| v * 2);
        assert_eq!(doubled.peek_register(1), Some(&20));
        assert_eq!(doubled.peek_snapshot(0)[2], Some(40));
        assert_eq!(hash_mapped(&mem, |v| v * 2), hash_mapped(&doubled, |v| *v));
        // The identity map distinguishes contents like the raw hash does.
        assert_ne!(hash_mapped(&mem, |v| *v), hash_mapped(&doubled, |v| *v));
        // Locations stay put: canonicalization never moves a value.
        assert_eq!(doubled.peek_register(0), None);
        // Metrics ride along unchanged.
        assert_eq!(doubled.metrics().total_ops(), mem.metrics().total_ops());
    }
}
