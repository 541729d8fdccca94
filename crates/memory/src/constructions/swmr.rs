//! Wait-free single-writer snapshot from `n` registers (Afek et al. style).

use crate::shared::SharedMemory;
use sa_model::{MemoryLayout, Op, ProcessId, Response};
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::sync::Arc;

/// The contents of one single-writer register of the construction: the
/// writer's latest value, a sequence number, and the *embedded scan* the
/// writer took just before writing (used to help starving scanners).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwmrCell<V> {
    value: V,
    seq: u64,
    embedded: Vec<Option<V>>,
}

/// A wait-free snapshot object with one component per process, built from
/// `n` single-writer registers in the style of Afek, Attiya, Dolev, Gafni,
/// Merritt and Shavit ("Atomic snapshots of shared memory", JACM 1993).
///
/// * `update(v)` by process `i` writes only register `i` (single-writer),
///   embedding a scan taken immediately before the write.
/// * `scan()` double-collects; if a process is seen to move twice, the
///   scanner borrows that process's embedded scan. Every scan therefore
///   terminates within `O(n)` collects: wait-free.
///
/// This is the substrate behind the paper's trivial `n`-register upper bound
/// (`n` single-writer registers can implement any number of MWMR registers
/// \[13\], and in particular a snapshot object).
///
/// ```
/// use sa_memory::SwmrSnapshot;
/// use sa_model::ProcessId;
///
/// let object = SwmrSnapshot::<u64>::new(3);
/// let mut p0 = object.handle(ProcessId(0));
/// let p1 = object.handle(ProcessId(1));
/// p0.update(10);
/// assert_eq!(p1.scan(), vec![Some(10), None, None]);
/// ```
#[derive(Debug)]
pub struct SwmrSnapshot<V> {
    memory: Arc<SharedMemory<SwmrCell<V>>>,
    processes: usize,
}

impl<V: Clone + Eq + Debug> SwmrSnapshot<V> {
    /// Creates a snapshot object for `processes` processes (`processes`
    /// single-writer registers).
    pub fn new(processes: usize) -> Self {
        SwmrSnapshot {
            memory: Arc::new(SharedMemory::for_layout(&MemoryLayout::registers_only(
                processes,
            ))),
            processes,
        }
    }

    /// The number of components (= processes = registers).
    pub fn width(&self) -> usize {
        self.processes
    }

    /// The number of underlying registers.
    pub fn register_count(&self) -> usize {
        self.processes
    }

    /// The underlying register memory, for metrics inspection.
    pub fn memory(&self) -> &SharedMemory<SwmrCell<V>> {
        &self.memory
    }

    /// Creates the handle of process `process`.
    ///
    /// # Panics
    ///
    /// Panics if the process index is out of range.
    pub fn handle(&self, process: ProcessId) -> SwmrHandle<V> {
        assert!(
            process.index() < self.processes,
            "process {process} out of range for {} processes",
            self.processes
        );
        SwmrHandle {
            memory: Arc::clone(&self.memory),
            processes: self.processes,
            process,
            seq: 0,
        }
    }
}

/// The per-process handle of a [`SwmrSnapshot`].
#[derive(Debug)]
pub struct SwmrHandle<V> {
    memory: Arc<SharedMemory<SwmrCell<V>>>,
    processes: usize,
    process: ProcessId,
    seq: u64,
}

impl<V: Clone + Eq + Debug> SwmrHandle<V> {
    fn collect(&self) -> Vec<Option<SwmrCell<V>>> {
        (0..self.processes)
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

    fn values_of(collect: &[Option<SwmrCell<V>>]) -> Vec<Option<V>> {
        collect
            .iter()
            .map(|cell| cell.as_ref().map(|c| c.value.clone()))
            .collect()
    }

    fn seqs_of(collect: &[Option<SwmrCell<V>>]) -> Vec<u64> {
        collect
            .iter()
            .map(|cell| cell.as_ref().map_or(0, |c| c.seq))
            .collect()
    }

    /// Returns a linearizable snapshot of all components. Wait-free: after a
    /// process has been observed to move twice its embedded scan is returned.
    pub fn scan(&self) -> Vec<Option<V>> {
        let mut moved: BTreeSet<usize> = BTreeSet::new();
        let mut previous = self.collect();
        loop {
            let current = self.collect();
            if Self::seqs_of(&previous) == Self::seqs_of(&current) {
                return Self::values_of(&current);
            }
            let prev_seqs = Self::seqs_of(&previous);
            let curr_seqs = Self::seqs_of(&current);
            for j in 0..self.processes {
                if prev_seqs[j] != curr_seqs[j] {
                    if moved.contains(&j) {
                        // Process j completed an update that started after our
                        // scan began; its embedded scan is a valid snapshot
                        // within our interval.
                        let cell = current[j]
                            .as_ref()
                            .expect("a moved process has written its register");
                        return cell.embedded.clone();
                    }
                    moved.insert(j);
                }
            }
            previous = current;
        }
    }

    /// Writes `value` to this process's component. Wait-free; embeds a scan
    /// so that concurrent scanners can borrow it.
    pub fn update(&mut self, value: V) {
        let embedded = self.scan();
        self.seq += 1;
        let cell = SwmrCell {
            value,
            seq: self.seq,
            embedded,
        };
        self.memory
            .apply(Op::Write {
                register: self.process.index(),
                value: cell,
            })
            .expect("own register index in range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    #[test]
    fn empty_scan_is_all_bottom() {
        let object = SwmrSnapshot::<u64>::new(4);
        let handle = object.handle(ProcessId(2));
        assert_eq!(handle.scan(), vec![None; 4]);
    }

    #[test]
    fn updates_appear_in_own_component() {
        let object = SwmrSnapshot::<u64>::new(3);
        let mut p0 = object.handle(ProcessId(0));
        let mut p2 = object.handle(ProcessId(2));
        p0.update(5);
        p2.update(6);
        p2.update(7);
        assert_eq!(p0.scan(), vec![Some(5), None, Some(7)]);
    }

    #[test]
    fn register_accounting_is_n() {
        let object = SwmrSnapshot::<u64>::new(6);
        assert_eq!(object.register_count(), 6);
        assert_eq!(object.width(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn handle_for_unknown_process_panics() {
        let object = SwmrSnapshot::<u64>::new(2);
        let _ = object.handle(ProcessId(2));
    }

    #[test]
    fn scans_are_monotone_under_concurrent_updates() {
        // The writer increments its value; every scan by the reader must
        // observe a non-decreasing sequence of values (a torn or stale-helped
        // scan would break monotonicity).
        let object = StdArc::new(SwmrSnapshot::<u64>::new(2));
        let writer_obj = StdArc::clone(&object);
        let writer = std::thread::spawn(move || {
            let mut h = writer_obj.handle(ProcessId(0));
            for v in 1..300u64 {
                h.update(v);
            }
        });
        let reader_obj = StdArc::clone(&object);
        let reader = std::thread::spawn(move || {
            let h = reader_obj.handle(ProcessId(1));
            let mut last = 0u64;
            for _ in 0..300 {
                let view = h.scan();
                let v = view[0].unwrap_or(0);
                assert!(v >= last, "scan went backwards: {v} < {last}");
                last = v;
            }
        });
        writer.join().unwrap();
        reader.join().unwrap();
    }

    #[test]
    fn helping_terminates_scans_under_heavy_updates() {
        // Even with two writers updating continuously, scans terminate
        // (wait-freedom) and return plausible values.
        let object = StdArc::new(SwmrSnapshot::<u64>::new(3));
        let mut writers = Vec::new();
        for p in 0..2usize {
            let obj = StdArc::clone(&object);
            writers.push(std::thread::spawn(move || {
                let mut h = obj.handle(ProcessId(p));
                for v in 0..200u64 {
                    h.update(v);
                }
            }));
        }
        let reader_obj = StdArc::clone(&object);
        let reader = std::thread::spawn(move || {
            let h = reader_obj.handle(ProcessId(2));
            for _ in 0..200 {
                let view = h.scan();
                assert_eq!(view.len(), 3);
                for v in view.iter().flatten() {
                    assert!(*v < 200);
                }
            }
        });
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
    }
}
