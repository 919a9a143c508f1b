//! Per-worker state kept for a run: one `S` per pool thread.
//!
//! A kernel step that finds things in parallel (a next frontier, a changed
//! list, a row block's activations) and counts as it goes hands them out of
//! the region through a [`PerWorker`]: every range gets its own worker's
//! state by thread id, the states outlive the region, and the dispatcher
//! then drains them in worker order ([`PerWorker::iter_mut`]), the order
//! the pool's reductions combine their slots in. It is GAP's `QueueBuffer`
//! flushed into the shared `SlidingQueue`: once the states' buffers have
//! grown, a step allocates nothing.

use crate::{Schedule, ThreadPool};
use parking_lot::{Mutex, MutexGuard};

/// One `S` per pool thread, created once and reused across regions.
pub struct PerWorker<S> {
    states: Vec<Padded<Mutex<S>>>,
}

/// A worker's state on cache lines of its own: ranges push and count into
/// it, and a neighbour's pushes must not evict it.
#[repr(align(128))]
struct Padded<T>(T);

impl<S: Send> PerWorker<S> {
    /// `make()`'s state for each of up to `workers` pool threads.
    pub fn new(workers: usize, mut make: impl FnMut() -> S) -> PerWorker<S> {
        PerWorker { states: (0..workers).map(|_| Padded(Mutex::new(make()))).collect() }
    }

    /// [`ThreadPool::parallel_for_ranges`] whose body receives the executing
    /// worker's state: one region, the same ranges and the same chunk count.
    pub fn for_ranges<B>(&mut self, pool: &ThreadPool, n: usize, sched: Schedule, body: B)
    where
        B: Fn(&mut S, usize, usize) + Sync,
    {
        let mine = self.hand_out(pool);
        pool.parallel_for_ranges(n, sched, |tid, lo, hi| body(&mut mine(tid), lo, hi));
    }

    /// Every worker's state, in worker order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut S> {
        self.states.iter_mut().map(|s| s.0.get_mut())
    }

    /// Worker `tid`'s state, by thread id, for the bodies of a region on
    /// `pool`. A region runs each thread id on one thread, so the lock is
    /// never contended: it only makes the per-worker cell `Sync`.
    pub(crate) fn hand_out<'s>(
        &'s mut self,
        pool: &ThreadPool,
    ) -> impl Fn(usize) -> MutexGuard<'s, S> + Sync + 's {
        let threads = pool.num_threads();
        assert!(
            threads <= self.states.len(),
            "per-worker state for fewer than the pool's {threads} threads"
        );
        let states = &self.states;
        move |tid| states[tid].0.lock()
    }
}
