//! A persistent fork-join thread pool with a scoped task API.
//!
//! Workers are spawned once and fed from a shared MPMC channel. Borrowed
//! (non-`'static`) closures are supported through [`ThreadPool::scope`],
//! which guarantees — even on panic — that every spawned task has finished
//! before the scope returns, making the internal lifetime erasure sound.

use crate::sync::WaitGroup;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The process-wide pool (see [`ThreadPool::global`] /
/// [`ThreadPool::init_global`]).
static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// A fixed-size pool of worker threads.
///
/// The pool is cheap to share (`&ThreadPool`); a process-wide instance
/// sized to the machine is available through [`ThreadPool::global`].
///
/// # Nesting
///
/// Tasks running *on* the pool must not open a nested [`ThreadPool::scope`]
/// on the same pool: if every worker blocks waiting for a nested scope,
/// the pool deadlocks. The bulk primitives in this crate never nest.
pub struct ThreadPool {
    sender: Sender<Job>,
    workers: Vec<JoinHandle<()>>,
    num_threads: usize,
}

impl ThreadPool {
    /// Create a pool with `num_threads` workers (at least 1). Returns
    /// once every worker has started, so no worker's thread start-up
    /// (which allocates) runs later, inside the caller's work.
    pub fn new(num_threads: usize) -> Self {
        let num_threads = num_threads.max(1);
        let (sender, receiver): (Sender<Job>, Receiver<Job>) = unbounded();
        let started = Arc::new(Barrier::new(num_threads + 1));
        let workers = (0..num_threads)
            .map(|i| {
                let (receiver, started) = (receiver.clone(), started.clone());
                std::thread::Builder::new()
                    .name(format!("hpc-par-worker-{i}"))
                    .spawn(move || {
                        started.wait();
                        drop(started);
                        // The channel disconnecting is the shutdown signal.
                        while let Ok(job) = receiver.recv() {
                            job();
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        started.wait();
        Self {
            sender,
            workers,
            num_threads,
        }
    }

    /// The process-wide pool, sized to `available_parallelism` unless
    /// [`ThreadPool::init_global`] fixed a width first.
    pub fn global() -> &'static ThreadPool {
        GLOBAL.get_or_init(|| {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4);
            ThreadPool::new(n)
        })
    }

    /// Size the process-wide pool to `num_threads` workers, before its
    /// first use. Returns `false` (leaving the existing pool untouched)
    /// when the global pool was already initialized — worker threads
    /// cannot be re-spawned once handed out. Binaries call this from
    /// their `--threads` flag handling ahead of any pool use.
    pub fn init_global(num_threads: usize) -> bool {
        let mut installed = false;
        GLOBAL.get_or_init(|| {
            installed = true;
            ThreadPool::new(num_threads)
        });
        installed
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Run a set of borrowed tasks on the pool and wait for all of them.
    ///
    /// The closure receives a [`PoolScope`] on which tasks can be spawned;
    /// when `scope` returns, every spawned task has completed. If any task
    /// panicked, the first panic is re-raised on the caller after all
    /// tasks have finished (so no borrow outlives the call).
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&PoolScope<'env, '_>) -> R,
    {
        let wg = WaitGroup::new();
        let panic_slot: Arc<Mutex<Option<Box<dyn Any + Send>>>> = Arc::new(Mutex::new(None));
        let scope = PoolScope {
            pool: self,
            wg: wg.clone(),
            panic_slot: Arc::clone(&panic_slot),
            _marker: std::marker::PhantomData,
        };
        // Run the scope body. Even if it panics we must wait for already
        // spawned tasks before unwinding, otherwise their borrows dangle.
        let body_result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        wg.wait();
        // Task panics take precedence only if the body succeeded; a body
        // panic is re-raised as-is.
        match body_result {
            Ok(value) => {
                if let Some(payload) = panic_slot.lock().take() {
                    resume_unwind(payload);
                }
                value
            }
            Err(payload) => resume_unwind(payload),
        }
    }

    fn submit(&self, job: Job) {
        self.sender.send(job).expect("thread pool has shut down");
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Dropping the sender disconnects the channel; workers drain
        // remaining jobs and exit.
        let (dead_sender, _) = unbounded();
        drop(std::mem::replace(&mut self.sender, dead_sender));
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Handle for spawning borrowed tasks inside [`ThreadPool::scope`].
pub struct PoolScope<'env, 'pool> {
    pool: &'pool ThreadPool,
    wg: WaitGroup,
    panic_slot: Arc<Mutex<Option<Box<dyn Any + Send>>>>,
    _marker: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> PoolScope<'env, '_> {
    /// Spawn a task that may borrow from the enclosing scope.
    ///
    /// Panics inside the task are captured and re-raised when the scope
    /// closes.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.wg.add(1);
        let wg = self.wg.clone();
        let panic_slot = Arc::clone(&self.panic_slot);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            if let Err(payload) = result {
                let mut slot = panic_slot.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            wg.done();
        });
        // SAFETY: `ThreadPool::scope` does not return before `wg.wait()`
        // observes this task's completion (including on panic paths), so
        // the closure and everything it borrows outlive its execution.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.submit(job);
    }

    /// Number of workers in the underlying pool.
    pub fn num_threads(&self) -> usize {
        self.pool.num_threads()
    }
}

/// A `Send`able raw pointer wrapper for distributing disjoint writes
/// across pool tasks.
///
/// Used by the bulk primitives to let each task write to a distinct
/// region of one output buffer. All uses in this crate guarantee
/// disjointness structurally (each index is written by exactly one task).
pub(crate) struct SendPtr<T>(*mut T);

// Manual impls: the derives would add an unwanted `T: Copy/Clone` bound,
// but the wrapper only holds a pointer.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    pub(crate) fn new(ptr: *mut T) -> Self {
        Self(ptr)
    }

    /// Access the raw pointer. Going through a method (rather than a
    /// public field) makes closures capture the whole `SendPtr` — with
    /// edition-2021 disjoint field capture, a direct `.0` access would
    /// capture the bare `*mut T`, which is not `Send`.
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}

// SAFETY: the wrapper is only used for structurally disjoint writes; see
// each use site.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_spawned_tasks() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn scope_returns_body_value() {
        let pool = ThreadPool::new(2);
        let v = pool.scope(|_| 42);
        assert_eq!(v, 42);
    }

    #[test]
    fn tasks_can_borrow_stack_data() {
        let pool = ThreadPool::new(4);
        let data: Vec<usize> = (0..1000).collect();
        let sum = AtomicUsize::new(0);
        pool.scope(|s| {
            for chunk in data.chunks(100) {
                s.spawn(|| {
                    sum.fetch_add(chunk.iter().sum::<usize>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 1000 * 999 / 2);
    }

    #[test]
    fn task_panic_propagates_after_completion() {
        let pool = ThreadPool::new(2);
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
                for _ in 0..10 {
                    s.spawn(|| {
                        completed.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err());
        // All non-panicking tasks still ran to completion.
        assert_eq!(completed.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::new(1);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..10 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.num_threads(), 1);
    }

    #[test]
    fn global_pool_is_singleton() {
        let a = ThreadPool::global() as *const _;
        let b = ThreadPool::global() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = ThreadPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        pool.scope(|s| {
            for _ in 0..5 {
                let c = Arc::clone(&counter);
                s.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 5);
    }
}
