//! Per-worker state kept for a run: one `S` per pool thread.
//!
//! A kernel step that finds things or counts in parallel (a next frontier,
//! a changed list, a row block's activations, a convergence sum) hands them
//! out of the region through a [`PerWorker`]: every range gets its own
//! worker's state by thread id, the states outlive the region, and the
//! dispatcher then drains them in worker order ([`PerWorker::iter_mut`]).
//! It is GAP's `QueueBuffer` flushed into the shared `SlidingQueue`: once
//! the states' buffers have grown, a step allocates nothing.
//!
//! A reduction's partials are such a state too: [`PerWorker::reduce_ranges`]
//! keeps one `Option<T>` per worker, so a step that reduces every round
//! allocates nothing, and [`ThreadPool::parallel_reduce_ranges`] is the
//! same reduction on a fresh state.

use crate::{Schedule, ThreadPool};
use parking_lot::Mutex;

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
    /// A region runs each thread id on one thread, so a state's lock is
    /// never contended: it only makes the per-worker cell `Sync`.
    pub fn for_ranges<B>(&mut self, pool: &ThreadPool, n: usize, sched: Schedule, body: B)
    where
        B: Fn(&mut S, usize, usize) + Sync,
    {
        let threads = pool.num_threads();
        assert!(
            threads <= self.states.len(),
            "per-worker state for fewer than the pool's {threads} threads"
        );
        let states = &self.states;
        pool.parallel_for_ranges(n, sched, |tid, lo, hi| body(&mut states[tid].0.lock(), lo, hi));
    }

    /// Every worker's state, in worker order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut S> {
        self.states.iter_mut().map(|s| s.0.get_mut())
    }
}

impl<T: Send> PerWorker<Option<T>> {
    /// A reduction over index ranges on the run's partials: `map(lo, hi)`
    /// turns each range the schedule hands out into a partial, a worker
    /// combines its partials with `combine` in the order it ran them, and
    /// the dispatcher then combines the workers' results in worker order,
    /// leaving every state `None` for the next step. `identity` is the
    /// result when no range ran (`n == 0`, or a tripped cancel token
    /// abandoned them all). The combine order depends on nothing else, so
    /// the same ranges on the same workers give the same result, bit for
    /// bit, whether the state is the run's or fresh.
    pub fn reduce_ranges<I, M, C>(
        &mut self,
        pool: &ThreadPool,
        n: usize,
        sched: Schedule,
        identity: I,
        map: M,
        combine: C,
    ) -> T
    where
        I: FnOnce() -> T,
        M: Fn(usize, usize) -> T + Sync,
        C: Fn(T, T) -> T + Sync,
    {
        self.for_ranges(pool, n, sched, |acc, lo, hi| {
            let part = map(lo, hi);
            *acc = Some(match acc.take() {
                Some(acc) => combine(acc, part),
                None => part,
            });
        });
        self.iter_mut().filter_map(Option::take).reduce(combine).unwrap_or_else(identity)
    }
}
