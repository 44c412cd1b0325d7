//! # sag-pool — a persistent scoped worker pool
//!
//! The SAG engine fans per-day replay shards out over threads, and the
//! service fans tenants out the same way. `std::thread::scope` is correct
//! for both but spawns and joins an OS thread per call, which costs tens of
//! microseconds — more than a whole day of sweep solves on a small game.
//! This crate provides the missing piece: a [`WorkerPool`] whose threads
//! are spawned **once** (per engine or service) and reused for every
//! subsequent fan-out.
//!
//! ## Scoped semantics without scoped spawns
//!
//! [`WorkerPool::run`] accepts closures that borrow from the caller's stack
//! (the same contract as `std::thread::scope`) and does not return until
//! every submitted task has finished, which is what makes those borrows
//! sound. Internally the non-`'static` tasks are lifetime-erased before
//! being handed to the long-lived workers — the single `unsafe` block in
//! this crate, justified in detail at the call site.
//!
//! ## The caller helps, so nesting cannot deadlock
//!
//! While its batch is outstanding, the submitting thread executes its own
//! batch's still-queued tasks itself instead of sleeping (and only those —
//! it never picks up another batch's work, whose wall time would otherwise
//! be billed to the caller). A task that itself calls [`WorkerPool::run`]
//! on the same pool therefore always makes progress even when every worker
//! is busy: the nested caller executes its own sub-tasks.
//!
//! ## Determinism
//!
//! The pool schedules *where* tasks run, never what they compute: callers
//! pass disjoint output slots and reduce in task order, so results are
//! bitwise independent of thread interleaving. Panics in tasks are caught,
//! counted against the batch, and re-raised on the submitting thread after
//! the batch completes (so borrowed data is never freed under a live task).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work submitted to the pool. Tasks may borrow from the caller's
/// stack; [`WorkerPool::run`] keeps the caller blocked (and helping) until
/// every task of the batch has finished, which is what keeps those borrows
/// alive.
pub type Task<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// Completion state of one `run` call's batch of tasks.
struct Batch {
    state: Mutex<BatchState>,
    done: Condvar,
}

struct BatchState {
    /// Tasks of this batch not yet finished (executed or panicked).
    remaining: usize,
    /// Payload of the first task panic, re-raised on the submitting thread
    /// (same contract as `std::thread::scope`: the original message and any
    /// carried value survive).
    panic: Option<Box<dyn std::any::Any + Send + 'static>>,
}

impl Batch {
    fn new(tasks: usize) -> Self {
        Batch {
            state: Mutex::new(BatchState {
                remaining: tasks,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }
}

/// A queued task plus the batch it belongs to.
struct Job {
    task: Box<dyn FnOnce() + Send + 'static>,
    batch: Arc<Batch>,
}

impl Job {
    /// Execute the task, absorbing a panic into the batch state so the
    /// executing thread (a pool worker or a helping caller) survives and the
    /// panic is re-raised on the submitting thread instead.
    fn execute(self) {
        let result = catch_unwind(AssertUnwindSafe(self.task));
        let mut state = self.batch.state.lock().expect("batch lock");
        state.remaining -= 1;
        if let Err(payload) = result {
            state.panic.get_or_insert(payload);
        }
        if state.remaining == 0 {
            self.batch.done.notify_all();
        }
    }
}

/// Queue shared between the workers and submitting threads.
struct Shared {
    queue: Mutex<QueueState>,
    /// Signalled when jobs are pushed or shutdown begins.
    work_ready: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

impl Shared {
    /// Pop a queued job belonging to `batch`, if any remains. Helping
    /// callers use this so they only ever execute their *own* work — never
    /// an unboundedly large foreign job whose wall time would then be
    /// billed to whatever the caller is timing. Scanned from the back,
    /// where the batch's jobs were pushed most recently; workers pop from
    /// the front, preserving overall FIFO fairness.
    fn try_pop_batch(&self, batch: &Arc<Batch>) -> Option<Job> {
        let mut queue = self.queue.lock().expect("pool queue lock");
        let idx = queue
            .jobs
            .iter()
            .rposition(|job| Arc::ptr_eq(&job.batch, batch))?;
        queue.jobs.remove(idx)
    }
}

/// A fixed set of worker threads, spawned once and reused for every
/// [`run`](WorkerPool::run) call until the pool is dropped.
///
/// Create one per engine (or per process) and share it behind an [`Arc`];
/// `run` may be called concurrently from any number of threads, including
/// from within a running task (see the crate docs on nesting).
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn a pool of `threads` workers (at least one).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sag-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads (excluding helping callers).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Execute every task of `tasks`, blocking until all have finished.
    ///
    /// Tasks may borrow from the caller's stack: this call does not return
    /// (or unwind) before the last task of the batch has completed, so every
    /// borrow outlives its use. The submitting thread participates in
    /// execution — it executes its own batch's still-queued tasks while the
    /// batch is outstanding — so a task may itself call `run` on the same
    /// pool without risking deadlock.
    ///
    /// # Panics
    ///
    /// If any task panicked, the first panic's payload is resumed on this
    /// thread (after the whole batch has completed), exactly as
    /// `std::thread::scope` would — the original message survives.
    pub fn run(&self, tasks: Vec<Task<'_>>) {
        if tasks.is_empty() {
            return;
        }
        let batch = Arc::new(Batch::new(tasks.len()));
        {
            let mut queue = self.shared.queue.lock().expect("pool queue lock");
            for task in tasks {
                // SAFETY: `run` only returns (or panics) after this batch's
                // `remaining` count reaches zero, and the count is only
                // decremented *after* a task has finished executing (or
                // panicked, which [`Job::execute`] catches). Every borrow
                // captured by the closure therefore strictly outlives every
                // use of it on a worker thread; erasing the lifetime merely
                // lets the closure sit in the long-lived queue meanwhile.
                // This is the same argument `std::thread::scope` relies on,
                // with the scope's join replaced by the batch countdown.
                let task: Box<dyn FnOnce() + Send + 'static> =
                    unsafe { std::mem::transmute::<Task<'_>, Task<'static>>(task) };
                queue.jobs.push_back(Job {
                    task,
                    batch: Arc::clone(&batch),
                });
            }
            self.shared.work_ready.notify_all();
        }

        // Help execute this batch's own queued tasks instead of sleeping.
        // Helping is strictly own-batch: a foreign job (possibly an
        // unboundedly long replay shard submitted concurrently) must never
        // run on this thread, where its wall time would be billed to
        // whatever this caller is timing. Own-batch helping is also all
        // that nested-`run` deadlock freedom needs: every blocked `run`
        // caller can personally finish each of its own still-queued tasks,
        // so no batch ever waits on a thread that cannot make progress.
        while let Some(job) = self.shared.try_pop_batch(&batch) {
            job.execute();
        }

        // Wait for tasks of this batch still executing on worker threads.
        let mut state = batch.state.lock().expect("batch lock");
        while state.remaining > 0 {
            state = batch.done.wait(state).expect("batch wait");
        }
        let panic = state.panic.take();
        drop(state);
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            // Set the shutdown flag even through a poisoned lock — skipping
            // it would leave the workers parked forever and hang the joins
            // below.
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            queue.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for worker in self.workers.drain(..) {
            // A worker that panicked outside a task is a pool bug; surface
            // it — unless this drop is itself running during a panic unwind,
            // where a second panic would abort the process and mask the
            // original diagnostic.
            if worker.join().is_err() && !std::thread::panicking() {
                panic!("pool worker exited uncleanly");
            }
        }
    }
}

/// Worker main loop: execute queued jobs until shutdown drains the queue.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue lock");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break Some(job);
                }
                if queue.shutdown {
                    break None;
                }
                queue = shared.work_ready.wait(queue).expect("pool queue wait");
            }
        };
        match job {
            Some(job) => job.execute(),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn runs_borrowed_tasks_to_completion() {
        let pool = WorkerPool::new(4);
        let mut outputs = vec![0usize; 64];
        let tasks: Vec<Task<'_>> = outputs
            .iter_mut()
            .enumerate()
            .map(|(i, out)| Box::new(move || *out = i * i) as Task<'_>)
            .collect();
        pool.run(tasks);
        for (i, out) in outputs.iter().enumerate() {
            assert_eq!(*out, i * i);
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.run(Vec::new());
    }

    #[test]
    fn single_thread_pool_still_completes_everything() {
        // On a single-core host the pool degrades to (at worst) the caller
        // executing every task itself; the contract is unchanged.
        let pool = WorkerPool::new(1);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Task<'_>> = (0..100)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn pool_is_reusable_across_many_batches() {
        let pool = WorkerPool::new(3);
        for round in 0..50 {
            let mut outputs = [0usize; 8];
            let tasks: Vec<Task<'_>> = outputs
                .iter_mut()
                .map(|out| Box::new(move || *out = round) as Task<'_>)
                .collect();
            pool.run(tasks);
            assert!(outputs.iter().all(|&v| v == round));
        }
    }

    #[test]
    fn nested_run_calls_do_not_deadlock() {
        // More outer tasks than workers, each fanning out inner tasks on the
        // same pool: only caller-helping keeps this from deadlocking.
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Task<'_>> = (0..8)
            .map(|_| {
                let pool = &pool;
                let counter = &counter;
                Box::new(move || {
                    let inner: Vec<Task<'_>> = (0..4)
                        .map(|_| {
                            Box::new(|| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            }) as Task<'_>
                        })
                        .collect();
                    pool.run(inner);
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let tasks: Vec<Task<'_>> = (0..25)
                        .map(|_| {
                            Box::new(|| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            }) as Task<'_>
                        })
                        .collect();
                    pool.run(tasks);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn helping_caller_never_executes_foreign_work() {
        use std::sync::Barrier;

        let pool = WorkerPool::new(1);
        // 3 blocker tasks + the main thread.
        let gate = Barrier::new(4);
        let started = AtomicUsize::new(0);
        let foreign_ran = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // Occupy the single worker and this helping submitter with a
            // two-task batch that blocks until main releases the gate.
            scope.spawn(|| {
                let tasks: Vec<Task<'_>> = (0..2)
                    .map(|_| {
                        Box::new(|| {
                            started.fetch_add(1, Ordering::SeqCst);
                            gate.wait();
                        }) as Task<'_>
                    })
                    .collect();
                pool.run(tasks);
            });
            while started.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            // Both the worker and the first submitter are now blocked.
            // This submitter pushes [marker, blocker]; helping pops from
            // the back, so it blocks in the blocker while the marker stays
            // queued with no free thread to take it.
            scope.spawn(|| {
                let tasks: Vec<Task<'_>> = vec![
                    Box::new(|| {
                        foreign_ran.store(true, Ordering::SeqCst);
                    }) as Task<'_>,
                    Box::new(|| {
                        started.fetch_add(1, Ordering::SeqCst);
                        gate.wait();
                    }) as Task<'_>,
                ];
                pool.run(tasks);
            });
            while started.load(Ordering::SeqCst) < 3 {
                std::thread::yield_now();
            }

            // Every other thread is blocked, so main's `run` must execute
            // its own task itself — and must return without touching the
            // queued foreign marker.
            let own_ran = AtomicBool::new(false);
            pool.run(vec![Box::new(|| {
                own_ran.store(true, Ordering::SeqCst);
            }) as Task<'_>]);
            assert!(own_ran.load(Ordering::SeqCst));
            assert!(
                !foreign_ran.load(Ordering::SeqCst),
                "a helping caller executed another batch's job"
            );

            gate.wait();
        });
        // Once its submitter (or the freed worker) resumes, the marker runs.
        assert!(foreign_ran.load(Ordering::SeqCst));
    }

    #[test]
    fn task_panic_is_reported_after_the_batch_completes() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Task<'_>> = (0..6)
                .map(|i| {
                    let counter = &counter;
                    Box::new(move || {
                        if i == 3 {
                            panic!("task failure");
                        }
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Task<'_>
                })
                .collect();
            pool.run(tasks);
        }));
        // The original payload is resumed, not replaced by a generic one.
        let payload = result.expect_err("the task panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task failure"));
        // Every non-panicking task still ran: `run` never abandons a batch.
        assert_eq!(counter.load(Ordering::Relaxed), 5);
        // And the pool survives for subsequent batches.
        pool.run(vec![Box::new(|| {
            counter.fetch_add(10, Ordering::Relaxed);
        }) as Task<'_>]);
        assert_eq!(counter.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn debug_and_threads_report_the_worker_count() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        assert!(format!("{pool:?}").contains('3'));
        // Zero is clamped to one worker.
        assert_eq!(WorkerPool::new(0).threads(), 1);
    }
}
