//! Offline shim for the subset of `crossbeam` this workspace uses: an
//! unbounded MPSC channel (delegating to `std::sync::mpsc`) and the
//! `deque` work-stealing primitives (`Worker`/`Stealer`/`Injector`).

#![forbid(unsafe_code)]

/// Channel constructors and types, mirroring `crossbeam::channel`.
pub mod channel {
    pub use std::sync::mpsc::{Receiver, SendError, Sender, TryRecvError};

    /// Creates an unbounded channel. `Sender` is cloneable, so many producer
    /// threads can feed one consumer.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}

/// Work-stealing deques, mirroring `crossbeam::deque`.
///
/// The upstream crate implements lock-free Chase–Lev deques; this shim uses
/// a `Mutex<VecDeque>` per queue, which preserves the API and the scheduling
/// structure (owner pops from one end, thieves steal from the other,
/// contended steals report [`Steal::Retry`](deque::Steal::Retry)) at the
/// cost of raw throughput.
/// Callers written against this module port to the real crate unchanged.
pub mod deque {
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex, TryLockError};

    /// How many tasks [`Injector::steal_batch_and_pop`] and
    /// [`Stealer::steal_batch_and_pop`] move to the destination worker at
    /// most (the stolen-and-returned task is additional).
    const BATCH: usize = 32;

    /// The result of a steal attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The queue was empty.
        Empty,
        /// One task was stolen.
        Success(T),
        /// The operation lost a race and should be retried.
        Retry,
    }

    impl<T> Steal<T> {
        /// `true` if this is [`Steal::Success`].
        pub fn is_success(&self) -> bool {
            matches!(self, Steal::Success(_))
        }

        /// Returns the stolen task, if any.
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(task) => Some(task),
                _ => None,
            }
        }
    }

    #[derive(Debug)]
    struct Queue<T> {
        tasks: Mutex<VecDeque<T>>,
        /// `true` for LIFO workers: the owner pops from the back (where it
        /// pushes), thieves always steal from the front.
        lifo: bool,
    }

    /// A deque owned by a single worker thread. The owner pushes and pops
    /// locally; other threads steal through [`Stealer`] handles.
    #[derive(Debug)]
    pub struct Worker<T> {
        queue: Arc<Queue<T>>,
    }

    impl<T> Worker<T> {
        /// Creates a FIFO worker queue (owner pops the oldest task).
        pub fn new_fifo() -> Self {
            Worker {
                queue: Arc::new(Queue {
                    tasks: Mutex::new(VecDeque::new()),
                    lifo: false,
                }),
            }
        }

        /// Creates a LIFO worker queue (owner pops the newest task).
        pub fn new_lifo() -> Self {
            Worker {
                queue: Arc::new(Queue {
                    tasks: Mutex::new(VecDeque::new()),
                    lifo: true,
                }),
            }
        }

        /// Pushes a task onto the owner's end of the queue.
        pub fn push(&self, task: T) {
            self.queue.tasks.lock().unwrap().push_back(task);
        }

        /// Pops a task from the owner's end of the queue.
        pub fn pop(&self) -> Option<T> {
            let mut tasks = self.queue.tasks.lock().unwrap();
            if self.queue.lifo {
                tasks.pop_back()
            } else {
                tasks.pop_front()
            }
        }

        /// `true` if the queue has no tasks.
        pub fn is_empty(&self) -> bool {
            self.queue.tasks.lock().unwrap().is_empty()
        }

        /// The number of tasks in the queue.
        pub fn len(&self) -> usize {
            self.queue.tasks.lock().unwrap().len()
        }

        /// Creates a stealer handle for other threads.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }
    }

    /// A handle for stealing tasks from another thread's [`Worker`].
    #[derive(Debug)]
    pub struct Stealer<T> {
        queue: Arc<Queue<T>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }
    }

    impl<T> Stealer<T> {
        /// Steals one task from the thief's end of the queue. A contended
        /// queue reports [`Steal::Retry`] instead of blocking.
        pub fn steal(&self) -> Steal<T> {
            match self.queue.tasks.try_lock() {
                Ok(mut tasks) => match tasks.pop_front() {
                    Some(task) => Steal::Success(task),
                    None => Steal::Empty,
                },
                Err(TryLockError::WouldBlock) => Steal::Retry,
                Err(TryLockError::Poisoned(p)) => match p.into_inner().pop_front() {
                    Some(task) => Steal::Success(task),
                    None => Steal::Empty,
                },
            }
        }

        /// Steals a batch of tasks into `dest` and pops one of them.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            steal_batch(&self.queue.tasks, dest)
        }
    }

    /// A FIFO queue shared by all workers — the global frontier tasks are
    /// injected into before the workers split them up.
    #[derive(Debug)]
    pub struct Injector<T> {
        tasks: Mutex<VecDeque<T>>,
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Injector::new()
        }
    }

    impl<T> Injector<T> {
        /// Creates an empty injector.
        pub fn new() -> Self {
            Injector {
                tasks: Mutex::new(VecDeque::new()),
            }
        }

        /// Pushes a task onto the global queue.
        pub fn push(&self, task: T) {
            self.tasks.lock().unwrap().push_back(task);
        }

        /// `true` if the queue has no tasks.
        pub fn is_empty(&self) -> bool {
            self.tasks.lock().unwrap().is_empty()
        }

        /// Steals one task from the global queue.
        pub fn steal(&self) -> Steal<T> {
            match self.tasks.try_lock() {
                Ok(mut tasks) => match tasks.pop_front() {
                    Some(task) => Steal::Success(task),
                    None => Steal::Empty,
                },
                Err(TryLockError::WouldBlock) => Steal::Retry,
                Err(TryLockError::Poisoned(p)) => match p.into_inner().pop_front() {
                    Some(task) => Steal::Success(task),
                    None => Steal::Empty,
                },
            }
        }

        /// Steals a batch of tasks into `dest` and pops one of them — the
        /// canonical way for a worker to refill its local queue.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            steal_batch(&self.tasks, dest)
        }
    }

    fn steal_batch<T>(source: &Mutex<VecDeque<T>>, dest: &Worker<T>) -> Steal<T> {
        let mut tasks = match source.try_lock() {
            Ok(tasks) => tasks,
            Err(TryLockError::WouldBlock) => return Steal::Retry,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
        };
        let Some(first) = tasks.pop_front() else {
            return Steal::Empty;
        };
        let batch = tasks.len().min(BATCH);
        if batch > 0 {
            let mut dest_tasks = dest.queue.tasks.lock().unwrap();
            dest_tasks.extend(tasks.drain(..batch));
        }
        Steal::Success(first)
    }
}

#[cfg(test)]
mod deque_tests {
    use super::deque::{Injector, Steal, Worker};

    #[test]
    fn worker_push_pop_orders() {
        let fifo = Worker::new_fifo();
        fifo.push(1);
        fifo.push(2);
        assert_eq!(fifo.pop(), Some(1));
        let lifo = Worker::new_lifo();
        lifo.push(1);
        lifo.push(2);
        assert_eq!(lifo.pop(), Some(2));
        assert_eq!(lifo.len(), 1);
        assert!(!lifo.is_empty());
    }

    #[test]
    fn stealers_take_from_the_opposite_end() {
        let worker = Worker::new_lifo();
        worker.push(1);
        worker.push(2);
        let stealer = worker.stealer();
        // The thief takes the oldest task, the owner keeps the newest.
        assert_eq!(stealer.steal(), Steal::Success(1));
        assert_eq!(worker.pop(), Some(2));
        assert_eq!(stealer.steal(), Steal::<i32>::Empty);
        assert!(stealer.clone().steal().success().is_none());
    }

    #[test]
    fn injector_batches_into_local_queues() {
        let injector = Injector::new();
        for i in 0..10 {
            injector.push(i);
        }
        let local = Worker::new_fifo();
        let got = injector.steal_batch_and_pop(&local);
        assert_eq!(got, Steal::Success(0));
        assert!(!local.is_empty(), "a batch must land in the local queue");
        let mut rest: Vec<i32> = std::iter::from_fn(|| local.pop()).collect();
        while let Steal::Success(task) = injector.steal() {
            rest.push(task);
        }
        rest.sort_unstable();
        assert_eq!(rest, (1..10).collect::<Vec<_>>());
        assert!(injector.is_empty());
    }

    #[test]
    fn concurrent_stealing_drains_everything_exactly_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let injector = Injector::new();
        let total = 1000u64;
        for i in 0..total {
            injector.push(i);
        }
        let sum = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let local = Worker::new_fifo();
                    loop {
                        let task = local.pop().or_else(|| loop {
                            match injector.steal_batch_and_pop(&local) {
                                Steal::Success(task) => break Some(task),
                                Steal::Empty => break None,
                                Steal::Retry => continue,
                            }
                        });
                        match task {
                            Some(task) => {
                                sum.fetch_add(task, Ordering::Relaxed);
                            }
                            None => break,
                        }
                    }
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), total * (total - 1) / 2);
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn fan_in_from_many_senders() {
        let (tx, rx) = channel::unbounded::<u64>();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(i).unwrap())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(tx);
        let mut got: Vec<u64> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn try_recv_reports_empty() {
        let (tx, rx) = channel::unbounded::<u8>();
        assert!(rx.try_recv().is_err());
        tx.send(9).unwrap();
        assert_eq!(rx.try_recv(), Ok(9));
    }
}
