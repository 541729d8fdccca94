//! Non-blocking multi-writer snapshot from `r` registers (double collect with
//! unique write tags).

use crate::shared::SharedMemory;
use crate::DEFAULT_SCAN_ATTEMPTS;
use sa_model::{MemoryLayout, Op, ProcessId, Response};
use std::fmt::Debug;
use std::sync::Arc;

/// A register cell written by the construction: the client value plus a tag
/// that is unique across all writes to the object.
///
/// Tag uniqueness is what makes the double collect sound: a register can
/// never return to an earlier tag, so two identical consecutive collects
/// certify that no write was linearized between them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tagged<V> {
    /// The client value stored by the most recent `update`.
    pub value: V,
    /// The identity part of the tag (a process id or a nonce).
    pub origin: u64,
    /// The per-origin sequence number of the write.
    pub seq: u64,
}

/// A source of unique write tags. Implementations differ only in whether the
/// identity part of the tag reveals the writer's identifier.
pub trait TagSource: Debug + Send {
    /// The identity component of tags produced by this source.
    fn origin(&self) -> u64;
    /// Returns the next sequence number (strictly increasing per source).
    fn next_seq(&mut self) -> u64;
}

/// Tags that embed the writer's process identifier — the standard
/// non-anonymous construction.
#[derive(Debug, Clone)]
pub struct IdTags {
    id: ProcessId,
    seq: u64,
}

impl IdTags {
    /// Creates a tag source for the given process.
    pub fn new(id: ProcessId) -> Self {
        IdTags { id, seq: 0 }
    }
}

impl TagSource for IdTags {
    fn origin(&self) -> u64 {
        self.id.index() as u64
    }
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }
}

/// Tags that embed a caller-supplied nonce instead of a process identifier,
/// keeping the construction anonymous (the handle never learns or uses an
/// id). This substitutes for the weak-counter construction of
/// Guerraoui–Ruppert \[7\]; see the module documentation.
#[derive(Debug, Clone)]
pub struct NonceTags {
    nonce: u64,
    seq: u64,
}

impl NonceTags {
    /// Creates a tag source from a nonce. Callers should derive the nonce
    /// from a seeded random source so that distinct handles get distinct
    /// nonces.
    pub fn new(nonce: u64) -> Self {
        NonceTags { nonce, seq: 0 }
    }
}

impl TagSource for NonceTags {
    fn origin(&self) -> u64 {
        self.nonce
    }
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }
}

/// A non-blocking multi-writer snapshot object with `width` components built
/// from exactly `width` MWMR registers.
///
/// * `update(c, v)` is a single register write (wait-free).
/// * `scan()` repeatedly collects all registers until two consecutive
///   collects are identical (non-blocking: it can be starved only if updates
///   keep interfering, in which case some other process is making progress).
///
/// ```
/// use sa_memory::{RegisterSnapshot, IdTags};
/// use sa_model::ProcessId;
///
/// let object = RegisterSnapshot::<u64>::new(4);
/// let mut writer = object.handle(IdTags::new(ProcessId(0)));
/// let mut reader = object.handle(IdTags::new(ProcessId(1)));
/// writer.update(2, 99);
/// assert_eq!(reader.scan(), vec![None, None, Some(99), None]);
/// ```
#[derive(Debug)]
pub struct RegisterSnapshot<V> {
    memory: Arc<SharedMemory<Tagged<V>>>,
    width: usize,
}

impl<V: Clone + Eq + Debug> RegisterSnapshot<V> {
    /// Creates a snapshot object with `width` components (and `width`
    /// underlying registers).
    pub fn new(width: usize) -> Self {
        RegisterSnapshot {
            memory: Arc::new(SharedMemory::for_layout(&MemoryLayout::registers_only(
                width,
            ))),
            width,
        }
    }

    /// The number of components.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The number of underlying registers — always equal to the width, which
    /// is the space accounting the paper relies on.
    pub fn register_count(&self) -> usize {
        self.memory.layout().register_count()
    }

    /// The underlying register memory (for metrics inspection in tests and
    /// experiments).
    pub fn memory(&self) -> &SharedMemory<Tagged<V>> {
        &self.memory
    }

    /// Creates a per-process handle; anonymous callers pass a [`NonceTags`]
    /// source.
    pub fn handle<T: TagSource>(&self, tags: T) -> SnapshotHandle<V, T> {
        SnapshotHandle {
            memory: Arc::clone(&self.memory),
            width: self.width,
            tags,
        }
    }
}

/// A per-process handle to a [`RegisterSnapshot`].
#[derive(Debug)]
pub struct SnapshotHandle<V, T: TagSource> {
    memory: Arc<SharedMemory<Tagged<V>>>,
    width: usize,
    tags: T,
}

impl<V: Clone + Eq + Debug, T: TagSource> SnapshotHandle<V, T> {
    /// Writes `value` to component `component` (one register write).
    ///
    /// # Panics
    ///
    /// Panics if `component` is out of range.
    pub fn update(&mut self, component: usize, value: V) {
        assert!(
            component < self.width,
            "component {component} out of range for snapshot of width {}",
            self.width
        );
        let cell = Tagged {
            value,
            origin: self.tags.origin(),
            seq: self.tags.next_seq(),
        };
        self.memory
            .apply(Op::Write {
                register: component,
                value: cell,
            })
            .expect("component index validated above");
    }

    fn collect(&self) -> Vec<Option<Tagged<V>>> {
        (0..self.width)
            .map(|i| {
                match self
                    .memory
                    .apply(Op::Read { register: i })
                    .expect("register index in range")
                {
                    Response::Read(v) => v,
                    _ => unreachable!("read returns a read response"),
                }
            })
            .collect()
    }

    /// Attempts a scan with at most `attempts` collect rounds.
    ///
    /// Returns `None` if every pair of consecutive collects differed, i.e.
    /// the scanner was interfered with `attempts` times — in that case some
    /// other process completed an update each round, so the system as a whole
    /// made progress (this is the non-blocking guarantee).
    pub fn try_scan(&self, attempts: usize) -> Option<Vec<Option<V>>> {
        let mut previous = self.collect();
        for _ in 0..attempts {
            let current = self.collect();
            if current == previous {
                return Some(
                    current
                        .into_iter()
                        .map(|cell| cell.map(|c| c.value))
                        .collect(),
                );
            }
            previous = current;
        }
        None
    }

    /// Scans until successful. May spin for as long as concurrent updates
    /// keep interfering (non-blocking, not wait-free).
    pub fn scan(&self) -> Vec<Option<V>> {
        loop {
            if let Some(view) = self.try_scan(DEFAULT_SCAN_ATTEMPTS) {
                return view;
            }
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    #[test]
    fn empty_object_scans_to_bottoms() {
        let object = RegisterSnapshot::<u64>::new(3);
        let reader = object.handle(IdTags::new(ProcessId(0)));
        assert_eq!(reader.scan(), vec![None, None, None]);
    }

    #[test]
    fn update_is_visible_to_scan() {
        let object = RegisterSnapshot::<u64>::new(3);
        let mut writer = object.handle(IdTags::new(ProcessId(0)));
        writer.update(0, 7);
        writer.update(2, 8);
        assert_eq!(writer.scan(), vec![Some(7), None, Some(8)]);
    }

    #[test]
    fn space_accounting_equals_width() {
        let object = RegisterSnapshot::<u64>::new(5);
        assert_eq!(object.register_count(), 5);
        let mut writer = object.handle(IdTags::new(ProcessId(0)));
        for c in 0..5 {
            writer.update(c, c as u64);
        }
        assert_eq!(object.memory().metrics().registers_written(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_out_of_range_panics() {
        let object = RegisterSnapshot::<u64>::new(2);
        let mut writer = object.handle(IdTags::new(ProcessId(0)));
        writer.update(2, 1);
    }

    #[test]
    fn nonce_tags_do_not_expose_ids() {
        let object = RegisterSnapshot::<u64>::new(2);
        let mut writer = object.handle(NonceTags::new(0xDEAD_BEEF));
        writer.update(0, 1);
        // The stored tag origin is the nonce, not the process id.
        let raw = object.memory().peek_register(0).unwrap();
        assert_eq!(raw.origin, 0xDEAD_BEEF);
        assert_eq!(raw.value, 1);
    }

    #[test]
    fn try_scan_reports_interference() {
        // With zero attempts allowed the scan cannot certify anything.
        let object = RegisterSnapshot::<u64>::new(1);
        let reader = object.handle(IdTags::new(ProcessId(0)));
        assert_eq!(reader.try_scan(0), None);
        assert!(reader.try_scan(1).is_some());
    }

    #[test]
    fn concurrent_scans_never_observe_torn_state() {
        // Writer alternates components 0 and 1, writing the same sequence
        // number to both (0 first). Scans must never see component 1 ahead of
        // component 0.
        let object = StdArc::new(RegisterSnapshot::<u64>::new(2));
        let writer_obj = StdArc::clone(&object);
        let writer = std::thread::spawn(move || {
            let mut h = writer_obj.handle(IdTags::new(ProcessId(0)));
            for seq in 1..400u64 {
                h.update(0, seq);
                h.update(1, seq);
            }
        });
        let reader_obj = StdArc::clone(&object);
        let reader = std::thread::spawn(move || {
            let h = reader_obj.handle(IdTags::new(ProcessId(1)));
            for _ in 0..200 {
                let view = h.scan();
                let c0 = view[0].unwrap_or(0);
                let c1 = view[1].unwrap_or(0);
                assert!(c0 >= c1, "snapshot tore: c0={c0} c1={c1}");
            }
        });
        writer.join().unwrap();
        reader.join().unwrap();
    }

    #[test]
    fn distinct_handles_produce_distinct_tags() {
        let mut a = IdTags::new(ProcessId(0));
        let mut b = IdTags::new(ProcessId(1));
        assert_ne!(
            (a.origin(), a.next_seq()),
            (b.origin(), b.next_seq()),
            "tags from different processes must differ"
        );
        let mut n = NonceTags::new(42);
        assert_eq!(n.origin(), 42);
        assert_eq!(n.next_seq(), 1);
        assert_eq!(n.next_seq(), 2);
    }
}
