//! The thread-safe shared memory used when running algorithms on real OS
//! threads.
//!
//! [`SharedMemory`] provides the same `apply` interface as
//! [`SimMemory`](crate::SimMemory) but takes `&self`, so many threads can
//! drive their automata against it concurrently. Every operation is atomic
//! (registers and snapshot objects are individually locked), which matches
//! the atomic-object semantics assumed by the paper; the snapshot object is
//! an atomic object here, exactly as in the pseudocode of Figures 3–5.

use crate::metrics::{Location, MemoryMetrics};
use sa_model::{LayoutError, MemoryLayout, Op, Response};
use std::fmt::Debug;
use std::sync::{Mutex, MutexGuard};

/// A thread-safe implementation of the shared objects declared by a
/// [`MemoryLayout`].
///
/// ```
/// use sa_memory::SharedMemory;
/// use sa_model::{MemoryLayout, Op, Response};
/// use std::sync::Arc;
///
/// let mem = Arc::new(SharedMemory::<u64>::for_layout(&MemoryLayout::with_snapshot(2)));
/// let m = Arc::clone(&mem);
/// let handle = std::thread::spawn(move || {
///     m.apply(Op::Update { snapshot: 0, component: 0, value: 1 }).unwrap();
/// });
/// handle.join().unwrap();
/// let resp = mem.apply(Op::Scan { snapshot: 0 })?;
/// assert_eq!(resp, Response::Snapshot(vec![Some(1), None].into()));
/// # Ok::<(), sa_model::LayoutError>(())
/// ```
#[derive(Debug)]
pub struct SharedMemory<V> {
    layout: MemoryLayout,
    registers: Vec<Mutex<Option<V>>>,
    snapshots: Vec<Mutex<Vec<Option<V>>>>,
    metrics: Mutex<MemoryMetrics>,
}

impl<V: Clone + Eq + Debug> SharedMemory<V> {
    /// Creates a memory with every register and component initialized to `⊥`.
    pub fn for_layout(layout: &MemoryLayout) -> Self {
        SharedMemory {
            layout: layout.clone(),
            registers: (0..layout.register_count())
                .map(|_| Mutex::new(None))
                .collect(),
            snapshots: layout
                .snapshot_widths()
                .iter()
                .map(|w| Mutex::new(vec![None; *w]))
                .collect(),
            metrics: Mutex::new(MemoryMetrics::new()),
        }
    }

    /// The layout this memory was created for.
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// Applies one atomic operation and returns its response.
    ///
    /// A scan copies the object while it holds the object's lock and hands
    /// over that copy ([`Cow::Owned`](std::borrow::Cow::Owned)): the cells
    /// cannot be lent past the lock.
    ///
    /// # Errors
    ///
    /// Returns a [`LayoutError`] if the operation refers to a register or
    /// component outside the layout.
    pub fn apply(&self, op: Op<V>) -> Result<Response<'_, V>, LayoutError> {
        let (response, written) = match op {
            Op::Read { register } => {
                self.layout.check_register(register)?;
                let value = lock(&self.registers[register]).clone();
                (Response::Read(value), None)
            }
            Op::Write { register, value } => {
                self.layout.check_register(register)?;
                *lock(&self.registers[register]) = Some(value);
                (Response::Written, Some(Location::Register(register)))
            }
            Op::Update {
                snapshot,
                component,
                value,
            } => {
                self.layout.check_component(snapshot, component)?;
                lock(&self.snapshots[snapshot])[component] = Some(value);
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
                let view = lock(&self.snapshots[snapshot]).clone();
                (Response::Snapshot(view.into()), None)
            }
            Op::Nop => (Response::Nop, None),
        };
        lock(&self.metrics).record(written);
        Ok(response)
    }

    /// A copy of the usage metrics accumulated so far.
    pub fn metrics(&self) -> MemoryMetrics {
        lock(&self.metrics).clone()
    }

    /// Reads register `register` without recording a metric.
    pub fn peek_register(&self, register: usize) -> Option<V> {
        self.registers.get(register).and_then(|r| lock(r).clone())
    }

    /// Reads the current contents of snapshot object `snapshot` without
    /// recording a metric.
    pub fn peek_snapshot(&self, snapshot: usize) -> Vec<Option<V>> {
        lock(&self.snapshots[snapshot]).clone()
    }
}

/// Locks one shared object. A lock is poisoned only when a thread panicked
/// while holding it, and a threaded run re-raises that panic at join.
fn lock<T>(object: &Mutex<T>) -> MutexGuard<'_, T> {
    object.lock().expect("shared object poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;
    use std::sync::Arc;

    #[test]
    fn concurrent_updates_are_all_visible() {
        let layout = MemoryLayout::with_snapshot(8);
        let mem = Arc::new(SharedMemory::<u64>::for_layout(&layout));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let mem = Arc::clone(&mem);
                std::thread::spawn(move || {
                    mem.apply(Op::Update {
                        snapshot: 0,
                        component: i,
                        value: i as u64,
                    })
                    .unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let view = mem.peek_snapshot(0);
        for (i, v) in view.iter().enumerate() {
            assert_eq!(*v, Some(i as u64));
        }
        assert_eq!(mem.metrics().distinct_locations_written(), 8);
        // A scan hands over the copy it took under the object's lock.
        assert!(matches!(
            mem.apply(Op::Scan { snapshot: 0 }).unwrap(),
            Response::Snapshot(Cow::Owned(_))
        ));
    }

    #[test]
    fn register_read_write_roundtrip() {
        let mem = SharedMemory::<u64>::for_layout(&MemoryLayout::registers_only(2));
        assert_eq!(
            mem.apply(Op::Read { register: 0 }).unwrap(),
            Response::Read(None)
        );
        mem.apply(Op::Write {
            register: 0,
            value: 11,
        })
        .unwrap();
        assert_eq!(
            mem.apply(Op::Read { register: 0 }).unwrap(),
            Response::Read(Some(11))
        );
        assert_eq!(mem.peek_register(1), None);
    }

    #[test]
    fn layout_violations_are_reported() {
        let mem = SharedMemory::<u64>::for_layout(&MemoryLayout::with_snapshot(2));
        assert!(mem.apply(Op::Read { register: 0 }).is_err());
        assert!(mem
            .apply(Op::Update {
                snapshot: 0,
                component: 2,
                value: 0
            })
            .is_err());
    }

    #[test]
    fn scans_are_atomic_under_concurrent_updates() {
        // A scan must never observe a "torn" state where a later write is
        // visible but an earlier write by the same process (to a different
        // component) is not. With one writer alternating two components in
        // lockstep (always writing c0 then c1 with the same sequence number),
        // every scan must see c0 >= c1.
        let layout = MemoryLayout::with_snapshot(2);
        let mem = Arc::new(SharedMemory::<u64>::for_layout(&layout));
        let writer = {
            let mem = Arc::clone(&mem);
            std::thread::spawn(move || {
                for seq in 1..500u64 {
                    mem.apply(Op::Update {
                        snapshot: 0,
                        component: 0,
                        value: seq,
                    })
                    .unwrap();
                    mem.apply(Op::Update {
                        snapshot: 0,
                        component: 1,
                        value: seq,
                    })
                    .unwrap();
                }
            })
        };
        let reader = {
            let mem = Arc::clone(&mem);
            std::thread::spawn(move || {
                for _ in 0..500 {
                    if let Response::Snapshot(view) = mem.apply(Op::Scan { snapshot: 0 }).unwrap() {
                        let c0 = view[0].unwrap_or(0);
                        let c1 = view[1].unwrap_or(0);
                        assert!(c0 >= c1, "scan observed torn state: {c0} < {c1}");
                    }
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
    }

    #[test]
    fn metrics_accumulate_across_threads() {
        let mem = Arc::new(SharedMemory::<u64>::for_layout(
            &MemoryLayout::registers_only(1),
        ));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let mem = Arc::clone(&mem);
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        mem.apply(Op::Write {
                            register: 0,
                            value: 1,
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let metrics = mem.metrics();
        assert_eq!(metrics.total_ops(), 40);
        assert_eq!(
            metrics.written_locations().collect::<Vec<_>>(),
            [Location::Register(0)]
        );
    }
}
