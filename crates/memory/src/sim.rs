//! The deterministic, single-threaded shared memory used by the simulator.
//!
//! [`SimMemory`] is a literal transcription of the paper's model: a set of
//! atomic MWMR registers plus atomic multi-writer snapshot objects. Each call
//! to [`SimMemory::apply`] performs exactly one atomic operation, so the
//! interleaving chosen by a scheduler *is* the linearization order.

use crate::metrics::{Location, MemoryMetrics};
use sa_model::{LayoutError, MemoryLayout, Op, ProcessId, Response};
use std::fmt::Debug;

/// A deterministic in-memory implementation of the shared objects declared by
/// a [`MemoryLayout`].
///
/// `V` is the value type stored by the algorithm; every register and snapshot
/// component holds `Option<V>`, with `None` playing the role of the initial
/// value `⊥`.
///
/// ```
/// use sa_memory::SimMemory;
/// use sa_model::{MemoryLayout, Op, ProcessId, Response};
///
/// let layout = MemoryLayout::with_snapshot_and_registers(3, 1);
/// let mut mem: SimMemory<u64> = SimMemory::for_layout(&layout);
/// mem.apply(ProcessId(0), Op::Update { snapshot: 0, component: 1, value: 42 })?;
/// let resp = mem.apply(ProcessId(1), Op::Scan { snapshot: 0 })?;
/// assert_eq!(resp, Response::Snapshot(vec![None, Some(42), None]));
/// # Ok::<(), sa_model::LayoutError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimMemory<V> {
    layout: MemoryLayout,
    registers: Vec<Option<V>>,
    snapshots: Vec<Vec<Option<V>>>,
    metrics: MemoryMetrics,
}

impl<V: Clone + Eq + Debug> SimMemory<V> {
    /// Creates a memory with every register and component initialized to `⊥`.
    pub fn for_layout(layout: &MemoryLayout) -> Self {
        SimMemory {
            layout: layout.clone(),
            registers: vec![None; layout.register_count()],
            snapshots: layout
                .snapshot_widths()
                .iter()
                .map(|w| vec![None; *w])
                .collect(),
            metrics: MemoryMetrics::new(),
        }
    }

    /// The layout this memory was created for.
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// Applies one atomic operation on behalf of `process` and returns its
    /// response.
    ///
    /// # Errors
    ///
    /// Returns a [`LayoutError`] if the operation refers to a register or
    /// component outside the layout. This indicates a protocol bug; the
    /// runtime treats it as fatal.
    pub fn apply(&mut self, process: ProcessId, op: Op<V>) -> Result<Response<V>, LayoutError> {
        let kind = op.kind();
        let (response, written) = match op {
            Op::Read { register } => {
                self.layout.check_register(register)?;
                (Response::Read(self.registers[register].clone()), None)
            }
            Op::Write { register, value } => {
                self.layout.check_register(register)?;
                self.registers[register] = Some(value);
                (Response::Written, Some(Location::Register(register)))
            }
            Op::Update {
                snapshot,
                component,
                value,
            } => {
                self.layout.check_component(snapshot, component)?;
                self.snapshots[snapshot][component] = Some(value);
                (
                    Response::Updated,
                    Some(Location::Component {
                        snapshot,
                        component,
                    }),
                )
            }
            Op::Scan { snapshot } => {
                self.layout.check_snapshot(snapshot)?;
                (Response::Snapshot(self.snapshots[snapshot].clone()), None)
            }
            Op::Nop => (Response::Nop, None),
        };
        self.metrics.record(process, kind, written);
        Ok(response)
    }

    /// The usage metrics accumulated so far.
    pub fn metrics(&self) -> &MemoryMetrics {
        &self.metrics
    }

    /// Clears the usage metrics without touching register contents.
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    /// Reads register `register` without recording a metric (used by
    /// inspection and assertions in tests and adversaries).
    pub fn peek_register(&self, register: usize) -> Option<&V> {
        self.registers.get(register).and_then(|v| v.as_ref())
    }

    /// Returns the current contents of snapshot object `snapshot` without
    /// recording a metric.
    pub fn peek_snapshot(&self, snapshot: usize) -> &[Option<V>] {
        &self.snapshots[snapshot]
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
    /// Soundness is machine-checked: the DPOR explorer asserts (in
    /// debug builds) that every pair kept by this refinement actually
    /// commutes, and `sa-runtime`'s commutation checker audits it alongside
    /// the static relation.
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
                self.snapshots
                    .get(*snapshot)
                    .and_then(|cells| cells.get(*component))
                    .and_then(|cell| cell.as_ref())
                    == Some(value)
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

    /// Overwrites the full contents of the memory with another memory's
    /// contents. Both must share the same layout. Used by the covering
    /// adversary when splicing execution fragments.
    ///
    /// # Panics
    ///
    /// Panics if the layouts differ.
    pub fn restore_from(&mut self, other: &SimMemory<V>) {
        assert_eq!(
            self.layout, other.layout,
            "cannot restore memory contents across different layouts"
        );
        self.registers = other.registers.clone();
        self.snapshots = other.snapshots.clone();
    }

    /// A compact fingerprint of the register/snapshot contents (not the
    /// metrics), used by the covering adversary to compare configurations.
    ///
    /// This is a single 64-bit hash, so distinct contents *can* collide;
    /// consumers that need collision resistance (the explorers' dedup keys)
    /// should feed [`SimMemory::hash_contents`] into their own wide hash
    /// instead of hashing this fingerprint.
    pub fn content_fingerprint(&self) -> u64
    where
        V: std::hash::Hash,
    {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher;
        let mut hasher = DefaultHasher::new();
        self.hash_contents(&mut hasher);
        hasher.finish()
    }

    /// Hashes the full register/snapshot contents (not the metrics) into
    /// `hasher`. Unlike [`SimMemory::content_fingerprint`] this exposes the
    /// raw content stream, so a caller hashing into a wide (or salted) state
    /// key is not bottlenecked by a 64-bit intermediate.
    pub fn hash_contents<H: std::hash::Hasher>(&self, hasher: &mut H)
    where
        V: std::hash::Hash,
    {
        use std::hash::Hash;
        self.registers.hash(hasher);
        self.snapshots.hash(hasher);
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
        hasher.write_usize(self.registers.len());
        for slot in &self.registers {
            hash_slot(hasher, slot);
        }
        hasher.write_usize(self.snapshots.len());
        for snapshot in &self.snapshots {
            hasher.write_usize(snapshot.len());
            for slot in snapshot {
                hash_slot(hasher, slot);
            }
        }
    }

    /// A length-based estimate of the heap bytes this memory owns: the
    /// register and snapshot slot vectors plus, for every **occupied** slot,
    /// the value's own heap footprint as reported by `value_heap` (the
    /// `Automaton::value_heap_bytes` hook). Metrics and layout bookkeeping
    /// are deliberately excluded — they are shared, not per-configuration.
    ///
    /// Computed from lengths, never capacities, so the result is a pure
    /// function of the contents: that determinism is what lets the
    /// explorers report identical byte estimates at any worker count.
    pub fn approx_heap_bytes<F>(&self, mut value_heap: F) -> usize
    where
        F: FnMut(&V) -> usize,
    {
        let slot = std::mem::size_of::<Option<V>>();
        let mut bytes = self.registers.len() * slot;
        for snapshot in &self.snapshots {
            bytes += std::mem::size_of::<Vec<Option<V>>>() + snapshot.len() * slot;
        }
        for value in self
            .registers
            .iter()
            .chain(self.snapshots.iter().flatten())
            .flatten()
        {
            bytes += value_heap(value);
        }
        bytes
    }

    /// A copy of this memory with every stored value passed through `map`
    /// (locations keep their positions, metrics are cloned unchanged) — the
    /// materialized counterpart of [`SimMemory::hash_contents_mapped`],
    /// used when a whole configuration is canonicalized (e.g. by the
    /// orbit-soundness tests).
    pub fn canonicalized<F>(&self, mut map: F) -> SimMemory<V>
    where
        F: FnMut(&V) -> V,
    {
        SimMemory {
            layout: self.layout.clone(),
            registers: self
                .registers
                .iter()
                .map(|slot| slot.as_ref().map(&mut map))
                .collect(),
            snapshots: self
                .snapshots
                .iter()
                .map(|snapshot| {
                    snapshot
                        .iter()
                        .map(|slot| slot.as_ref().map(&mut map))
                        .collect()
                })
                .collect(),
            metrics: self.metrics.clone(),
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
        mem.apply(ProcessId(0), upd(7)).unwrap();
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
        mem.apply(ProcessId(1), write(3)).unwrap();
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
    fn registers_start_at_bottom() {
        let mem: SimMemory<u64> = SimMemory::for_layout(&layout());
        assert_eq!(mem.peek_register(0), None);
        assert_eq!(mem.peek_snapshot(0), &[None, None, None]);
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut mem: SimMemory<u64> = SimMemory::for_layout(&layout());
        mem.apply(
            ProcessId(0),
            Op::Write {
                register: 1,
                value: 5,
            },
        )
        .unwrap();
        let r = mem.apply(ProcessId(1), Op::Read { register: 1 }).unwrap();
        assert_eq!(r, Response::Read(Some(5)));
        let r = mem.apply(ProcessId(1), Op::Read { register: 0 }).unwrap();
        assert_eq!(r, Response::Read(None));
    }

    #[test]
    fn update_then_scan_sees_value() {
        let mut mem: SimMemory<u64> = SimMemory::for_layout(&layout());
        mem.apply(
            ProcessId(0),
            Op::Update {
                snapshot: 1,
                component: 1,
                value: 9,
            },
        )
        .unwrap();
        let r = mem.apply(ProcessId(2), Op::Scan { snapshot: 1 }).unwrap();
        assert_eq!(r, Response::Snapshot(vec![None, Some(9)]));
        // Other snapshot object unaffected.
        let r = mem.apply(ProcessId(2), Op::Scan { snapshot: 0 }).unwrap();
        assert_eq!(r, Response::Snapshot(vec![None, None, None]));
    }

    #[test]
    fn overwrites_keep_latest_value() {
        let mut mem: SimMemory<u64> = SimMemory::for_layout(&layout());
        for v in 0..10u64 {
            mem.apply(
                ProcessId(0),
                Op::Update {
                    snapshot: 0,
                    component: 0,
                    value: v,
                },
            )
            .unwrap();
        }
        assert_eq!(mem.peek_snapshot(0)[0], Some(9));
    }

    #[test]
    fn out_of_range_operations_error() {
        let mut mem: SimMemory<u64> = SimMemory::for_layout(&layout());
        assert!(mem.apply(ProcessId(0), Op::Read { register: 2 }).is_err());
        assert!(mem
            .apply(
                ProcessId(0),
                Op::Update {
                    snapshot: 0,
                    component: 3,
                    value: 1
                }
            )
            .is_err());
        assert!(mem.apply(ProcessId(0), Op::Scan { snapshot: 2 }).is_err());
        assert!(mem
            .apply(
                ProcessId(0),
                Op::Write {
                    register: 5,
                    value: 0
                }
            )
            .is_err());
    }

    #[test]
    fn metrics_track_ops_and_space() {
        let mut mem: SimMemory<u64> = SimMemory::for_layout(&layout());
        mem.apply(
            ProcessId(0),
            Op::Update {
                snapshot: 0,
                component: 0,
                value: 1,
            },
        )
        .unwrap();
        mem.apply(
            ProcessId(0),
            Op::Update {
                snapshot: 0,
                component: 1,
                value: 2,
            },
        )
        .unwrap();
        mem.apply(ProcessId(1), Op::Scan { snapshot: 0 }).unwrap();
        mem.apply(ProcessId(1), Op::Nop).unwrap();
        let metrics = mem.metrics();
        assert_eq!(metrics.total_ops(), 4);
        assert_eq!(metrics.components_written(0), 2);
        assert_eq!(metrics.distinct_locations_written(), 2);
    }

    #[test]
    fn nop_touches_nothing() {
        let mut mem: SimMemory<u64> = SimMemory::for_layout(&layout());
        let before = mem.clone();
        mem.apply(ProcessId(0), Op::Nop).unwrap();
        assert_eq!(mem.peek_snapshot(0), before.peek_snapshot(0));
        assert_eq!(mem.metrics().distinct_locations_written(), 0);
    }

    #[test]
    fn restore_from_copies_contents_only() {
        let mut a: SimMemory<u64> = SimMemory::for_layout(&layout());
        let mut b: SimMemory<u64> = SimMemory::for_layout(&layout());
        b.apply(
            ProcessId(0),
            Op::Write {
                register: 0,
                value: 3,
            },
        )
        .unwrap();
        a.restore_from(&b);
        assert_eq!(a.peek_register(0), Some(&3));
        // Metrics of `a` are untouched by restore.
        assert_eq!(a.metrics().total_ops(), 0);
    }

    #[test]
    fn fingerprint_changes_with_contents() {
        let mut a: SimMemory<u64> = SimMemory::for_layout(&layout());
        let f0 = a.content_fingerprint();
        a.apply(
            ProcessId(0),
            Op::Write {
                register: 0,
                value: 1,
            },
        )
        .unwrap();
        let f1 = a.content_fingerprint();
        assert_ne!(f0, f1);
        // Metrics do not influence the fingerprint.
        a.apply(ProcessId(0), Op::Read { register: 0 }).unwrap();
        assert_eq!(a.content_fingerprint(), f1);
    }

    #[test]
    fn mapped_hash_matches_materialized_canonicalization() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher;
        let mut mem: SimMemory<u64> = SimMemory::for_layout(&layout());
        mem.apply(
            ProcessId(0),
            Op::Write {
                register: 1,
                value: 10,
            },
        )
        .unwrap();
        mem.apply(
            ProcessId(1),
            Op::Update {
                snapshot: 0,
                component: 2,
                value: 20,
            },
        )
        .unwrap();
        let hash_mapped = |mem: &SimMemory<u64>, map: fn(&u64) -> u64| {
            let mut hasher = DefaultHasher::new();
            mem.hash_contents_mapped(&mut hasher, map);
            hasher.finish()
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

    #[test]
    #[should_panic(expected = "different layouts")]
    fn restore_from_rejects_layout_mismatch() {
        let mut a: SimMemory<u64> = SimMemory::for_layout(&MemoryLayout::registers_only(1));
        let b: SimMemory<u64> = SimMemory::for_layout(&MemoryLayout::registers_only(2));
        a.restore_from(&b);
    }
}
