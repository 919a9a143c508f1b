//! The persistent fork-join thread pool.
//!
//! A parallel region publishes one job — a `Fn(usize)` invoked once per
//! thread with that thread's id — to `nthreads - 1` waiting workers; the
//! calling thread participates as thread 0. The caller does not return
//! until every worker finishes, which is what makes handing workers a
//! borrowed closure sound (see safety note on [`ThreadPool::region`]).
//!
//! Waiting is spin-then-park in both directions, as in the OpenMP
//! runtimes the modeled systems ran on: a worker between regions spins on
//! a mirror of the generation counter for [`SPIN_BUDGET`] before it parks
//! on `work_cv`, and the dispatcher spins on a mirror of the finished
//! generation before it parks on `done_cv`, so back-to-back regions (one
//! per BFS level) cost no syscall. The state mutex stays the single source
//! of truth; a publisher notifies a condvar only when the waiter has
//! registered itself as parked under that mutex.

use crate::cancel::CancelToken;
use crate::check;
use epg_trace::{Recorder, TraceEvent};
use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a waiter spins before it parks: about two futex round trips
/// on the build host, so a wait that would have been shorter than the
/// park/wake it replaces never reaches the kernel. A time, not an
/// iteration count — `PAUSE` latency varies tenfold across CPUs.
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// Raw pointer to the caller's region closure. Valid for the duration of
/// one generation: the dispatching thread keeps the closure alive until all
/// workers have reported completion.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared invocation from many threads is
// fine) and the dispatch protocol guarantees it outlives every dereference.
unsafe impl Send for JobPtr {}

struct State {
    /// Generation counter; bumping it is the "go" signal.
    gen: u64,
    /// Generation whose workers have all finished.
    done_gen: u64,
    /// Workers still running the current generation.
    remaining: usize,
    /// The job for the current generation.
    job: Option<JobPtr>,
    /// Region id of the current generation (see [`crate::check`]).
    region_id: u32,
    /// First panic payload caught from a worker this generation; re-raised
    /// on the dispatching thread after the join barrier.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
    /// Workers parked on `work_cv`; the dispatcher notifies only if > 0.
    sleepers: usize,
    /// The dispatcher is parked on `done_cv`; the last worker out
    /// notifies only if set.
    caller_parked: bool,
    /// The dispatcher found a recorder for the current generation, so
    /// workers time their call and store it in `Inner::busy_ns`. Workers
    /// read it with the job, which makes a region traced by every worker
    /// or by none however `set_recorder` races with it.
    traced: bool,
}

struct Inner {
    nthreads: usize,
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Mirror of `State::gen` for spinning workers: stored (`Release`)
    /// under the state mutex, read (`Acquire`) without it.
    gen_word: AtomicU64,
    /// Mirror of `State::done_gen` for the spinning dispatcher. Observing
    /// a generation here is the join barrier: every worker's writes
    /// precede the last worker's `Release` store through the state mutex.
    done_word: AtomicU64,
    /// [`SPIN_BUDGET`], or zero when the pool has more threads than the
    /// host has CPUs: a spinning waiter would then hold the CPU the
    /// thread it waits for needs.
    spin_budget: Duration,
    regions: AtomicU64,
    chunks: AtomicU64,
    data_rmw: AtomicU64,
    parks: AtomicU64,
    /// Dispatch gate for concurrent clients of a pool with workers: see
    /// [`ThreadPool::exclusive`].
    dispatch_gate: Mutex<()>,
    /// Cooperative-cancellation token for the trial currently using this
    /// pool; worksharing loops poll it at chunk boundaries.
    cancel: Mutex<Option<CancelToken>>,
    /// Fast-path gate: `false` means no token is attached and the poll
    /// in the hot chunk loops is a single relaxed load.
    cancel_active: AtomicBool,
    /// Telemetry sink for per-worker busy/idle spans.
    recorder: Mutex<Option<Arc<dyn Recorder>>>,
    /// Fast-path gate, as `cancel_active` (stored `Release` under the
    /// slot's mutex, read `Acquire` without it): `false` means no
    /// recorder is attached, and a region pays one atomic load for the
    /// telemetry layer — no lock, no `Arc` clone, no clock read. It only
    /// says whether looking in `recorder` is worthwhile; the slot decides.
    recorder_active: AtomicBool,
    /// Per-worker busy nanoseconds of the current generation, written
    /// only in a traced one; read by the dispatcher after the join
    /// barrier (the `Release`/`Acquire` pair on `done_word`, or the state
    /// mutex when the dispatcher parked, orders the stores before the
    /// read).
    busy_ns: Vec<AtomicU64>,
}

/// Cumulative dispatch statistics, consumed by the machine model to cost
/// scheduling overhead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallel regions executed (each costs a fork + join barrier).
    pub regions: u64,
    /// Loop chunks handed out across all worksharing loops.
    pub chunks: u64,
    /// Per-element atomic read-modify-write operations on *shared data*
    /// reported by kernels via [`ThreadPool::record_data_rmw`]. The
    /// substrate cannot observe user atomics, so reporting is part of a
    /// kernel's contract: contended-scatter kernels report one count per
    /// RMW, and contention-free kernels (the two-pass CSR builds) report
    /// none — tests pin that claim by snapshotting [`ThreadPool::stats`]
    /// around a call and asserting a zero delta.
    pub data_rmw: u64,
    /// Waits, by a worker for the next region or by the dispatcher for the
    /// join, that outlasted the spin budget and parked on a condvar. A
    /// level-synchronous kernel in steady state adds none; a region that
    /// follows an idle gap, or any region of an oversubscribed pool, pays
    /// a wake-up for each.
    pub parks: u64,
}

/// An OpenMP-like thread pool. See the crate docs for an example.
pub struct ThreadPool {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool that runs regions on `nthreads` threads (the caller
    /// counts as one). `nthreads` must be at least 1.
    pub fn new(nthreads: usize) -> ThreadPool {
        assert!(nthreads >= 1, "a pool needs at least one thread");
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        ThreadPool::with_spin_budget(
            nthreads,
            if nthreads <= cpus { SPIN_BUDGET } else { Duration::ZERO },
        )
    }

    fn with_spin_budget(nthreads: usize, spin_budget: Duration) -> ThreadPool {
        let inner = Arc::new(Inner {
            nthreads,
            state: Mutex::new(State {
                gen: 0,
                done_gen: 0,
                remaining: 0,
                job: None,
                region_id: 0,
                panic: None,
                shutdown: false,
                sleepers: 0,
                caller_parked: false,
                traced: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            gen_word: AtomicU64::new(0),
            done_word: AtomicU64::new(0),
            spin_budget,
            regions: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            data_rmw: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            dispatch_gate: Mutex::new(()),
            cancel: Mutex::new(None),
            cancel_active: AtomicBool::new(false),
            recorder: Mutex::new(None),
            recorder_active: AtomicBool::new(false),
            busy_ns: (0..nthreads).map(|_| AtomicU64::new(0)).collect(),
        });
        let handles = (1..nthreads)
            .map(|tid| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("epg-worker-{tid}"))
                    .spawn(move || worker_loop(&inner, tid))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool { inner, handles }
    }

    /// Number of threads (including the caller).
    pub fn num_threads(&self) -> usize {
        self.inner.nthreads
    }

    /// Attaches (`Some`) or detaches (`None`) a telemetry sink. While
    /// attached, every region emits one `WorkerSpan` event per worker
    /// with its busy time and the idle remainder of the region's wall
    /// clock. Safe to call while another thread dispatches regions: a
    /// region records all of its workers or none.
    pub fn set_recorder(&self, rec: Option<Arc<dyn Recorder>>) {
        let mut slot = self.inner.recorder.lock();
        self.inner.recorder_active.store(rec.is_some(), Ordering::Release);
        *slot = rec;
    }

    /// The attached recorder, if any; one atomic load when none is.
    #[inline]
    fn recorder(&self) -> Option<Arc<dyn Recorder>> {
        if !self.inner.recorder_active.load(Ordering::Acquire) {
            return None;
        }
        self.inner.recorder.lock().clone()
    }

    /// Attaches (`Some`) or detaches (`None`) a cooperative-cancellation
    /// token. While attached, every worksharing loop polls it before
    /// claiming each chunk and abandons the remainder of the iteration
    /// space once it trips; already-claimed chunks always run to
    /// completion, so each index is covered at most once and never
    /// twice. The supervisor in `epg-harness` attaches a fresh token per
    /// trial and detaches it afterwards.
    pub fn set_cancel_token(&self, token: Option<CancelToken>) {
        let mut slot = self.inner.cancel.lock();
        self.inner.cancel_active.store(token.is_some(), Ordering::Release);
        *slot = token;
    }

    /// The currently attached token, if any.
    pub fn cancel_token(&self) -> Option<CancelToken> {
        if !self.inner.cancel_active.load(Ordering::Acquire) {
            return None;
        }
        self.inner.cancel.lock().clone()
    }

    /// Whether the attached token (if any) has tripped. Engines poll
    /// this at the top of their iteration loops; with no token attached
    /// it is a single atomic load.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.cancel_token().is_some_and(|t| t.is_cancelled())
    }

    /// Dispatch entry for concurrent clients: runs `f` with a pool the
    /// caller may dispatch on and attach a cancel token to.
    ///
    /// [`ThreadPool::region`] (and the worksharing loops built on it) is a
    /// single-dispatcher protocol on a pool with workers: exactly one
    /// thread may publish a generation at a time (the `remaining == 0`
    /// debug assertion in `region` enforces it). Batch trials satisfy that
    /// by construction — the harness owns the pool for the duration of a
    /// trial. A resident query service does not: many serving threads
    /// share one `&ThreadPool`, and each request wants to dispatch a
    /// traversal. How `exclusive` admits them depends on the width:
    ///
    /// - **More than one thread:** a gate admits one caller at a time and
    ///   hands it this pool; `f` runs with the gate held, released on
    ///   return or unwind.
    /// - **One thread:** a region runs inline on its caller and publishes
    ///   nothing, so there is nothing to serialize. Each caller gets its
    ///   own *lane*, a fresh 1-thread pool with no workers, and concurrent
    ///   callers run at once. A lane starts with this pool's recorder and
    ///   cancel token as they are at entry; a token `f` attaches stays on
    ///   the lane, so it never cancels another caller. When `f` returns
    ///   or unwinds, the lane's counters are added to this pool's, so
    ///   [`ThreadPool::stats`] counts every lane's regions and chunks.
    ///
    /// `f` must dispatch on the pool it is handed, not on `self`. The
    /// gate is **not reentrant** — calling `exclusive` from inside `f`
    /// deadlocks on a wider pool. Keep exactly one `exclusive` frame per
    /// request (the reentrant query adapters over the engines take it;
    /// layers above them must not).
    pub fn exclusive<R>(&self, f: impl FnOnce(&ThreadPool) -> R) -> R {
        if self.inner.nthreads == 1 {
            let lane = Lane::of(self);
            return f(&lane.pool);
        }
        let _gate = self.inner.dispatch_gate.lock();
        f(self)
    }

    /// Runs `f(tid)` once on every thread (tids `0..nthreads`), returning
    /// when all invocations complete. This is `#pragma omp parallel`.
    ///
    /// A panic inside `f` on any worker thread is caught at the join
    /// barrier and re-raised on the calling thread (first payload wins); a
    /// panic on the calling thread itself propagates directly, but only
    /// after every worker has finished the region.
    pub fn region<F: Fn(usize) + Sync>(&self, f: F) {
        self.inner.regions.fetch_add(1, Ordering::Relaxed);
        let region_id = check::next_region_id();
        let rec = self.recorder().map(|rec| (rec, Instant::now()));
        if self.inner.nthreads == 1 {
            {
                let _scope = check::enter_region(region_id, 0);
                f(0);
            }
            if let Some((rec, wall_start)) = &rec {
                rec.record(TraceEvent::WorkerSpan {
                    region: region_id as u64,
                    worker: 0,
                    busy_ns: wall_start.elapsed().as_nanos() as u64,
                    idle_ns: 0,
                });
            }
            return;
        }
        let wide: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: we erase the lifetime to park the pointer in shared state.
        // The pointee `f` lives on this stack frame, and this function does
        // not return — by unwind or normal exit, `JoinGuard` enforces both —
        // until `done_gen == gen`, i.e. until every worker has finished
        // calling through the pointer. Workers never retain it across
        // generations (they re-read `job` each wakeup).
        let ptr = JobPtr(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                wide as *const _,
            )
        });
        let (gen, wake) = {
            let mut st = self.inner.state.lock();
            debug_assert_eq!(st.remaining, 0, "region dispatched while busy");
            st.gen += 1;
            st.remaining = self.inner.nthreads - 1;
            st.job = Some(ptr);
            st.region_id = region_id;
            st.traced = rec.is_some();
            // A payload from a generation whose dispatcher unwound before
            // collecting it must not leak into this one.
            st.panic = None;
            self.inner.gen_word.store(st.gen, Ordering::Release);
            (st.gen, st.sleepers > 0)
        };
        // Notify after unlocking, and only when a worker is parked: a
        // worker registers in `sleepers` and re-checks `st.gen` under the
        // lock this thread just held, so it either saw the new generation
        // or is counted here — the wakeup cannot be lost — and woken
        // threads do not stall on the state mutex this thread would still
        // hold.
        if wake {
            self.inner.work_cv.notify_all();
        }
        {
            // Waits for the join barrier even if `f(0)` unwinds: dropping
            // `f` while a worker still holds `ptr` would be use-after-free.
            let _join = JoinGuard { inner: &self.inner, gen };
            let _scope = check::enter_region(region_id, 0);
            self.inner.timed(rec.is_some(), 0, || f(0));
        }
        if let Some((rec, wall_start)) = &rec {
            // The join barrier has passed: every worker stored its busy
            // time before decrementing `remaining` under the state lock.
            let wall = wall_start.elapsed().as_nanos() as u64;
            for (tid, slot) in self.inner.busy_ns.iter().enumerate() {
                let busy = slot.load(Ordering::Relaxed).min(wall);
                rec.record(TraceEvent::WorkerSpan {
                    region: region_id as u64,
                    worker: tid as u32,
                    busy_ns: busy,
                    idle_ns: wall - busy,
                });
            }
        }
        let payload = self.inner.state.lock().panic.take();
        if let Some(p) = payload {
            resume_unwind(p);
        }
    }

    /// Worksharing loop over `0..n` (`#pragma omp parallel for`).
    ///
    /// The body is `Fn + Sync`, shared by every worker, so it cannot assign
    /// to captured state; shared writes go through [`crate::DisjointWriter`],
    /// atomics, or per-worker buffers:
    ///
    /// ```compile_fail,E0594
    /// use epg_parallel::{Schedule, ThreadPool};
    ///
    /// let pool = ThreadPool::new(2);
    /// let mut buf = vec![0usize; 8];
    /// let out: &mut [usize] = &mut buf;
    /// let mut total = 0usize;
    /// pool.parallel_for(8, Schedule::Static { chunk: None }, |v| {
    ///     out[v] = v;
    ///     total += v;
    /// });
    /// ```
    pub fn parallel_for<F: Fn(usize) + Sync>(&self, n: usize, sched: super::Schedule, f: F) {
        self.parallel_for_ranges(n, sched, |_tid, lo, hi| {
            for i in lo..hi {
                f(i);
            }
        });
    }

    /// Worksharing loop handing out whole index ranges `[lo, hi)`; the body
    /// also receives the executing thread id. Engines use this to keep
    /// per-thread scratch (frontier buffers, bins) without false sharing.
    pub fn parallel_for_ranges<F: Fn(usize, usize, usize) + Sync>(
        &self,
        n: usize,
        sched: super::Schedule,
        f: F,
    ) {
        if n == 0 {
            return;
        }
        let nthreads = self.inner.nthreads;
        let chunks_counter = &self.inner.chunks;
        // Fetched once per loop, not per chunk: the poll inside the hot
        // claim loops is then lock-free (an atomic flag read, plus a
        // clock read while a deadline is armed).
        let token = self.cancel_token();
        let cancelled = move || token.as_ref().is_some_and(|t| t.is_cancelled());
        match sched {
            super::Schedule::Static { chunk } => {
                // OpenMP static: without a chunk, one contiguous block per
                // thread; with one, round-robin blocks of that size.
                let chunk = chunk.unwrap_or(n.div_ceil(nthreads).max(1));
                let nchunks = n.div_ceil(chunk);
                chunks_counter.fetch_add(nchunks as u64, Ordering::Relaxed);
                self.region(|tid| {
                    let mut c = tid;
                    while c < nchunks {
                        if cancelled() {
                            break;
                        }
                        let lo = c * chunk;
                        let hi = (lo + chunk).min(n);
                        f(tid, lo, hi);
                        c += nthreads;
                    }
                });
            }
            super::Schedule::Dynamic { chunk } => {
                let chunk = chunk.max(1);
                let next = AtomicU64::new(0);
                self.region(|tid| loop {
                    if cancelled() {
                        break;
                    }
                    let lo = next.fetch_add(chunk as u64, Ordering::Relaxed) as usize;
                    if lo >= n {
                        break;
                    }
                    chunks_counter.fetch_add(1, Ordering::Relaxed);
                    f(tid, lo, (lo + chunk).min(n));
                });
            }
            super::Schedule::Guided { min_chunk } => {
                let min_chunk = min_chunk.max(1);
                let next = AtomicU64::new(0);
                self.region(|tid| loop {
                    if cancelled() {
                        break;
                    }
                    // Claim ~(remaining / nthreads), shrinking over time.
                    let mut cur = next.load(Ordering::Relaxed);
                    let (lo, hi) = loop {
                        let lo = cur as usize;
                        if lo >= n {
                            return;
                        }
                        let size = ((n - lo) / nthreads).max(min_chunk);
                        let hi = (lo + size).min(n);
                        match next.compare_exchange_weak(
                            cur,
                            hi as u64,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => break (lo, hi),
                            Err(actual) => cur = actual,
                        }
                    };
                    chunks_counter.fetch_add(1, Ordering::Relaxed);
                    f(tid, lo, hi);
                });
            }
        }
    }

    /// Snapshot of cumulative dispatch statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            regions: self.inner.regions.load(Ordering::Relaxed),
            chunks: self.inner.chunks.load(Ordering::Relaxed),
            data_rmw: self.inner.data_rmw.load(Ordering::Relaxed),
            parks: self.inner.parks.load(Ordering::Relaxed),
        }
    }

    /// Reports `n` atomic read-modify-write operations a kernel performed on
    /// shared data inside its regions (e.g. one per `fetch_add` of a
    /// contended scatter cursor). The pool cannot observe user atomics, so
    /// honesty here is part of the kernel contract; it buys the kernel a
    /// pinned, testable claim — see [`PoolStats::data_rmw`].
    pub fn record_data_rmw(&self, n: u64) {
        self.inner.data_rmw.fetch_add(n, Ordering::Relaxed);
    }
}

/// One caller's private inline lane on a 1-thread pool; see
/// [`ThreadPool::exclusive`].
struct Lane<'p> {
    parent: &'p Inner,
    pool: ThreadPool,
}

impl<'p> Lane<'p> {
    fn of(parent: &'p ThreadPool) -> Lane<'p> {
        // A 1-thread pool never waits, so its spin budget is moot; building
        // it directly keeps `available_parallelism` (cgroup file reads on
        // Linux) off the per-request path.
        let pool = ThreadPool::with_spin_budget(1, Duration::ZERO);
        pool.set_recorder(parent.recorder());
        pool.set_cancel_token(parent.cancel_token());
        Lane { parent: &parent.inner, pool }
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        let (lane, parent) = (&self.pool.inner, self.parent);
        for (from, to) in [
            (&lane.regions, &parent.regions),
            (&lane.chunks, &parent.chunks),
            (&lane.data_rmw, &parent.data_rmw),
            (&lane.parks, &parent.parks),
        ] {
            to.fetch_add(from.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

/// Blocks until the given generation's workers have all checked out. Run
/// from `Drop` so the wait happens on both the normal and unwinding exits
/// of `region`.
struct JoinGuard<'p> {
    inner: &'p Inner,
    gen: u64,
}

impl Drop for JoinGuard<'_> {
    fn drop(&mut self) {
        let inner = self.inner;
        if inner.spin_until(|| inner.done_word.load(Ordering::Acquire) == self.gen) {
            return;
        }
        let mut st = inner.state.lock();
        if st.done_gen != self.gen {
            inner.parks.fetch_add(1, Ordering::Relaxed);
            // Set under the lock the last worker takes to check out: it
            // either finds the flag or has already advanced `done_gen`.
            st.caller_parked = true;
            while st.done_gen != self.gen {
                inner.done_cv.wait(&mut st);
            }
            st.caller_parked = false;
        }
    }
}

impl Inner {
    /// Runs thread `tid`'s share of a region; in a traced region, also
    /// stores how long it took in `busy_ns[tid]`.
    #[inline]
    fn timed<R>(&self, traced: bool, tid: usize, call: impl FnOnce() -> R) -> R {
        if !traced {
            return call();
        }
        let t0 = Instant::now();
        let out = call();
        self.busy_ns[tid].store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Polls `ready` for up to the spin budget; `false` means the caller
    /// must take the state mutex and park. The clock read bounds the
    /// wait, it measures nothing.
    fn spin_until(&self, ready: impl Fn() -> bool) -> bool {
        if ready() {
            return true;
        }
        if self.spin_budget.is_zero() {
            return false;
        }
        let start = Instant::now();
        while start.elapsed() < self.spin_budget {
            std::hint::spin_loop();
            if ready() {
                return true;
            }
        }
        false
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock();
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner, tid: usize) {
    let mut seen = 0u64;
    loop {
        inner.spin_until(|| inner.gen_word.load(Ordering::Acquire) != seen);
        let (job, gen, region_id, traced) = {
            let mut st = inner.state.lock();
            if !st.shutdown && st.gen == seen {
                inner.parks.fetch_add(1, Ordering::Relaxed);
                // Counted under the lock the dispatcher takes to publish:
                // it either sees this sleeper or has already bumped `gen`.
                st.sleepers += 1;
                while !st.shutdown && st.gen == seen {
                    inner.work_cv.wait(&mut st);
                }
                st.sleepers -= 1;
            }
            if st.shutdown {
                return;
            }
            seen = st.gen;
            (st.job.expect("generation bumped without a job"), st.gen, st.region_id, st.traced)
        };
        let caught = {
            let _scope = check::enter_region(region_id, tid);
            inner.timed(traced, tid, || {
                // SAFETY: see `region` — the dispatcher keeps the closure
                // alive until we decrement `remaining` below.
                catch_unwind(AssertUnwindSafe(|| (unsafe { &*job.0 })(tid)))
            })
        };
        let mut st = inner.state.lock();
        if let Err(payload) = caught {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.remaining -= 1;
        let last_out = st.remaining == 0;
        if last_out {
            st.done_gen = gen;
            st.job = None;
            inner.done_word.store(gen, Ordering::Release);
        }
        let wake = last_out && st.caller_parked;
        drop(st);
        if wake {
            inner.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::Schedule;
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn region_runs_every_thread_exactly_once() {
        for nthreads in [1, 2, 4, 7] {
            let pool = ThreadPool::new(nthreads);
            let seen: Vec<AtomicUsize> = (0..nthreads).map(|_| AtomicUsize::new(0)).collect();
            pool.region(|tid| {
                seen[tid].fetch_add(1, Ordering::Relaxed);
            });
            for (tid, s) in seen.iter().enumerate() {
                assert_eq!(s.load(Ordering::Relaxed), 1, "tid {tid} of {nthreads}");
            }
        }
    }

    #[test]
    fn regions_are_reusable() {
        let pool = ThreadPool::new(3);
        let count = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.region(|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::Relaxed), 300);
    }

    fn check_cover(n: usize, sched: Schedule, nthreads: usize) {
        let pool = ThreadPool::new(nthreads);
        let marks: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(n, sched, |i| {
            marks[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, m) in marks.iter().enumerate() {
            assert_eq!(m.load(Ordering::Relaxed), 1, "index {i} under {sched:?}");
        }
    }

    #[test]
    fn schedules_cover_every_index_exactly_once() {
        for nthreads in [1, 2, 4] {
            for n in [0, 1, 5, 64, 1000, 1001] {
                check_cover(n, Schedule::Static { chunk: None }, nthreads);
                check_cover(n, Schedule::Static { chunk: Some(7) }, nthreads);
                check_cover(n, Schedule::Dynamic { chunk: 16 }, nthreads);
                check_cover(n, Schedule::Guided { min_chunk: 4 }, nthreads);
            }
        }
    }

    #[test]
    fn ranges_partition_the_domain() {
        let pool = ThreadPool::new(4);
        let total = AtomicUsize::new(0);
        pool.parallel_for_ranges(12345, Schedule::Guided { min_chunk: 8 }, |_tid, lo, hi| {
            assert!(lo < hi && hi <= 12345);
            total.fetch_add(hi - lo, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 12345);
    }

    #[test]
    fn borrowed_state_is_visible_and_mutations_join() {
        // The region's join must publish worker writes (happens-before).
        let pool = ThreadPool::new(4);
        let data: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(64, Schedule::Static { chunk: None }, |i| {
            data[i].store(i * 2, Ordering::Relaxed);
        });
        for (i, d) in data.iter().enumerate() {
            assert_eq!(d.load(Ordering::Relaxed), i * 2);
        }
    }

    #[test]
    fn stats_count_regions_and_chunks() {
        let pool = ThreadPool::new(2);
        pool.parallel_for(100, Schedule::Dynamic { chunk: 10 }, |_| {});
        let s = pool.stats();
        assert_eq!(s.regions, 1);
        assert_eq!(s.chunks, 10);
        assert_eq!(s.data_rmw, 0);
    }

    #[test]
    fn data_rmw_reports_accumulate() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.stats().data_rmw, 0);
        pool.record_data_rmw(7);
        pool.record_data_rmw(3);
        assert_eq!(pool.stats().data_rmw, 10);
    }

    #[test]
    fn empty_loop_dispatches_nothing() {
        let pool = ThreadPool::new(2);
        pool.parallel_for(0, Schedule::Dynamic { chunk: 1 }, |_| panic!("no work"));
        assert_eq!(pool.stats().regions, 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn worker_ids_are_exposed_inside_regions() {
        let pool = ThreadPool::new(4);
        assert_eq!(crate::current_worker_id(), None);
        let ids: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(usize::MAX)).collect();
        pool.region(|tid| {
            ids[tid].store(crate::current_worker_id().expect("inside a region"), Ordering::Relaxed);
        });
        for (tid, id) in ids.iter().enumerate() {
            assert_eq!(id.load(Ordering::Relaxed), tid, "worker id != region tid");
        }
        assert_eq!(crate::current_worker_id(), None, "worker id leaked past the region");
    }

    #[test]
    fn worker_spans_cover_every_worker_once_per_region() {
        for nthreads in [1, 3] {
            let pool = ThreadPool::new(nthreads);
            let rec = Arc::new(epg_trace::RunRecorder::new());
            pool.set_recorder(Some(rec.clone()));
            pool.parallel_for(64, Schedule::Static { chunk: None }, |_| {});
            pool.set_recorder(None);
            // Spans after detach must not be recorded.
            pool.parallel_for(64, Schedule::Static { chunk: None }, |_| {});
            let spans: Vec<_> = rec
                .events()
                .into_iter()
                .filter_map(|ev| match ev {
                    TraceEvent::WorkerSpan { region, worker, busy_ns, idle_ns } => {
                        Some((region, worker, busy_ns, idle_ns))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(spans.len(), nthreads, "one span per worker ({nthreads} threads)");
            let mut workers: Vec<u32> = spans.iter().map(|s| s.1).collect();
            workers.sort_unstable();
            assert_eq!(workers, (0..nthreads as u32).collect::<Vec<_>>());
            assert!(spans.iter().all(|s| s.0 == spans[0].0), "same region id");
        }
    }

    #[test]
    fn recorder_toggled_mid_run_records_whole_regions_or_nothing() {
        // A second thread attaches and detaches the recorder as fast as it
        // can while the dispatcher runs back-to-back regions: the gate is
        // read outside every mutex, so a region may start on either side
        // of a toggle, but it must still run every tid once (a lost
        // wake-up hangs here) and record all of its workers or none.
        let regions = if cfg!(miri) { 200 } else { 10_000 };
        for nthreads in [1, 2, 3] {
            let pool = ThreadPool::new(nthreads);
            let rec = Arc::new(epg_trace::RunRecorder::new());
            let done = AtomicBool::new(false);
            // One region recorded for certain, whatever the scheduler does
            // with the toggling thread afterwards.
            pool.set_recorder(Some(rec.clone()));
            run_counted_regions(&pool, 1, || {});
            std::thread::scope(|s| {
                s.spawn(|| {
                    while !done.load(Ordering::Relaxed) {
                        pool.set_recorder(None);
                        pool.set_recorder(Some(rec.clone()));
                    }
                });
                run_counted_regions(&pool, regions, || {});
                done.store(true, Ordering::Relaxed);
            });
            assert_eq!(rec.dropped(), 0, "the ring must hold every span of the run");
            let mut workers_of: std::collections::BTreeMap<u64, Vec<u32>> = Default::default();
            for ev in rec.events() {
                if let TraceEvent::WorkerSpan { region, worker, .. } = ev {
                    workers_of.entry(region).or_default().push(worker);
                }
            }
            assert!(!workers_of.is_empty(), "nothing recorded at {nthreads} threads");
            for (region, mut workers) in workers_of {
                workers.sort_unstable();
                assert_eq!(
                    workers,
                    (0..nthreads as u32).collect::<Vec<_>>(),
                    "region {region} recorded a partial set at {nthreads} threads"
                );
            }
        }
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.region(|tid| {
                if tid == 2 {
                    panic!("boom from worker {tid}");
                }
            });
        }));
        let payload = result.expect_err("worker panic must reach the caller");
        let msg = payload.downcast::<String>().expect("panic! with args carries a String");
        assert!(msg.contains("boom from worker 2"), "unexpected payload: {msg}");
        // The pool must stay usable after a propagated panic.
        let count = AtomicUsize::new(0);
        pool.region(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    fn cancel_schedules() -> [Schedule; 4] {
        [
            Schedule::Static { chunk: None },
            Schedule::Static { chunk: Some(7) },
            Schedule::Dynamic { chunk: 16 },
            Schedule::Guided { min_chunk: 4 },
        ]
    }

    #[test]
    fn cancelled_loop_covers_or_abandons_each_index_exactly_once() {
        // Satellite requirement: under every schedule, a loop whose token
        // trips midway must never run an index twice — each index is
        // covered once or abandoned, and the loop still returns cleanly.
        const N: usize = 10_000;
        for sched in cancel_schedules() {
            for nthreads in [1, 4] {
                let pool = ThreadPool::new(nthreads);
                let token = crate::CancelToken::new();
                pool.set_cancel_token(Some(token.clone()));
                let marks: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
                let done = AtomicUsize::new(0);
                pool.parallel_for(N, sched, |i| {
                    marks[i].fetch_add(1, Ordering::Relaxed);
                    // Trip the token from inside the loop body once a few
                    // hundred indices have run — deterministic enough to
                    // leave work abandoned on every schedule.
                    if done.fetch_add(1, Ordering::Relaxed) == 300 {
                        token.cancel();
                    }
                });
                pool.set_cancel_token(None);
                let covered: usize = marks.iter().map(|m| m.load(Ordering::Relaxed)).sum();
                for (i, m) in marks.iter().enumerate() {
                    assert!(
                        m.load(Ordering::Relaxed) <= 1,
                        "index {i} ran twice under {sched:?} ({nthreads} threads)"
                    );
                }
                // Whether abandonment is *guaranteed* depends on chunk
                // granularity: Static{None} hands every chunk out up
                // front, and Guided on one thread claims the whole range
                // in its first chunk — claimed chunks always finish.
                let expect_abandon = match sched {
                    Schedule::Static { chunk: Some(_) } | Schedule::Dynamic { .. } => true,
                    Schedule::Guided { .. } => nthreads > 1,
                    Schedule::Static { chunk: None } => false,
                };
                if expect_abandon {
                    assert!(
                        covered < N,
                        "cancellation abandoned nothing under {sched:?} ({nthreads} threads)"
                    );
                }
                // Detached token: the pool must run full loops again.
                check_cover(257, sched, nthreads);
            }
        }
    }

    #[test]
    fn cancelled_loop_after_unwind_never_doubles_execution() {
        // A body that panics while the token is tripped: the unwind is
        // caught at the join barrier, and no index may have run twice.
        const N: usize = 4_096;
        for sched in cancel_schedules() {
            let pool = ThreadPool::new(4);
            let token = crate::CancelToken::new();
            pool.set_cancel_token(Some(token.clone()));
            let marks: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.parallel_for(N, sched, |i| {
                    marks[i].fetch_add(1, Ordering::Relaxed);
                    if i == 100 {
                        token.cancel();
                        panic!("injected unwind at {i}");
                    }
                });
            }));
            pool.set_cancel_token(None);
            assert!(result.is_err(), "panic must propagate under {sched:?}");
            for (i, m) in marks.iter().enumerate() {
                assert!(
                    m.load(Ordering::Relaxed) <= 1,
                    "index {i} ran twice after unwind under {sched:?}"
                );
            }
            // The pool stays usable for the next trial.
            check_cover(100, sched, 4);
        }
    }

    #[test]
    fn deadline_reaps_a_hot_loop() {
        // A long loop under a short deadline is abandoned well before it
        // would complete, and the pool reports the cancellation.
        let pool = ThreadPool::new(2);
        let token = crate::CancelToken::with_deadline(std::time::Duration::from_millis(5));
        pool.set_cancel_token(Some(token));
        let ran = AtomicUsize::new(0);
        pool.parallel_for(1_000_000, Schedule::Dynamic { chunk: 8 }, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_micros(50));
        });
        assert!(pool.is_cancelled(), "deadline should have tripped");
        assert!(ran.load(Ordering::Relaxed) < 1_000_000, "deadline abandoned nothing");
        pool.set_cancel_token(None);
        assert!(!pool.is_cancelled(), "detaching the token clears the pool's view");
    }

    #[test]
    fn exclusive_serializes_concurrent_dispatchers() {
        // Four client threads hammer the same pool through `exclusive`;
        // the gate admits one dispatcher at a time, so every loop runs to
        // completion and the total is exact.
        let pool = ThreadPool::new(2);
        let sum = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        pool.exclusive(|p| {
                            p.parallel_for(100, Schedule::Static { chunk: None }, |_| {
                                sum.fetch_add(1, Ordering::Relaxed);
                            });
                        });
                    }
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4 * 50 * 100);
    }

    #[test]
    fn exclusive_gate_survives_a_panicking_client() {
        let pool = ThreadPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.exclusive(|_| panic!("client bail"));
        }));
        assert!(r.is_err());
        // The gate must be free again for the next caller.
        pool.exclusive(|p| p.parallel_for(10, Schedule::Static { chunk: None }, |_| {}));
    }

    /// A reusable rendezvous for `parties` threads whose wait gives up
    /// after ten seconds: where `exclusive` admits one caller at a time,
    /// the caller inside `f` times out and fails instead of hanging.
    /// (`std`'s condvar: the wait needs a timeout.)
    struct Meeting {
        arrived: std::sync::Mutex<usize>,
        cv: std::sync::Condvar,
        parties: usize,
    }

    impl Meeting {
        fn new(parties: usize) -> Meeting {
            Meeting { arrived: Default::default(), cv: Default::default(), parties }
        }

        fn wait(&self) {
            let mut arrived = self.arrived.lock().expect("no party panics holding the count");
            *arrived += 1;
            let all_here = arrived.div_ceil(self.parties) * self.parties;
            self.cv.notify_all();
            let (arrived, wait) = self
                .cv
                .wait_timeout_while(arrived, Duration::from_secs(10), |n| *n < all_here)
                .expect("no party panics holding the count");
            assert!(!wait.timed_out(), "{} of {all_here} arrivals: lanes never met", *arrived);
        }
    }

    #[test]
    fn concurrent_callers_of_a_one_thread_pool_run_on_their_own_lanes() {
        let pool = ThreadPool::new(1);
        let meeting = Meeting::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    pool.exclusive(|lane| {
                        assert!(!std::ptr::eq(lane, &pool), "a caller got the shared pool");
                        meeting.wait();
                    });
                });
            }
        });
    }

    #[test]
    fn lane_counters_add_up_exactly_in_the_parent() {
        const LANES: usize = 4;
        const LOOPS: u64 = 25;
        let pool = ThreadPool::new(1);
        pool.parallel_for(10, Schedule::Static { chunk: None }, |_| {});
        let before = pool.stats();
        let meeting = Meeting::new(LANES);
        std::thread::scope(|s| {
            for _ in 0..LANES {
                s.spawn(|| {
                    pool.exclusive(|lane| {
                        meeting.wait();
                        for _ in 0..LOOPS {
                            lane.parallel_for(100, Schedule::Dynamic { chunk: 10 }, |_| {});
                            lane.record_data_rmw(3);
                        }
                        // A lane counts its own work only.
                        let own = lane.stats();
                        assert_eq!((own.regions, own.chunks), (LOOPS, 10 * LOOPS));
                    });
                });
            }
        });
        let after = pool.stats();
        let lanes = LANES as u64;
        assert_eq!(after.regions - before.regions, lanes * LOOPS);
        assert_eq!(after.chunks - before.chunks, lanes * LOOPS * 10);
        assert_eq!(after.data_rmw - before.data_rmw, lanes * LOOPS * 3);
        assert_eq!(after.parks, before.parks, "an inline lane never parks");
    }

    #[test]
    fn a_token_set_on_one_lane_stays_on_that_lane() {
        let pool = ThreadPool::new(1);
        let shared = crate::CancelToken::new();
        pool.set_cancel_token(Some(shared.clone()));
        let meeting = Meeting::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                pool.exclusive(|lane| {
                    assert!(lane.cancel_token().is_some(), "a lane starts with the parent's token");
                    let own = crate::CancelToken::new();
                    own.cancel();
                    lane.set_cancel_token(Some(own));
                    assert!(lane.is_cancelled());
                    meeting.wait(); // the token is set
                    meeting.wait(); // the other lane has looked
                });
            });
            s.spawn(|| {
                pool.exclusive(|lane| {
                    meeting.wait();
                    assert!(!lane.is_cancelled(), "a concurrent lane saw another's token");
                    assert!(!pool.is_cancelled(), "the parent saw a lane's token");
                    meeting.wait();
                });
            });
        });
        assert!(!pool.is_cancelled());
        // Tripping the parent's token reaches the next lane.
        shared.cancel();
        assert!(pool.exclusive(|lane| lane.is_cancelled()));
    }

    #[test]
    fn lanes_record_their_worker_spans_on_the_parents_recorder() {
        let pool = ThreadPool::new(1);
        let rec = Arc::new(epg_trace::RunRecorder::new());
        pool.set_recorder(Some(rec.clone()));
        let meeting = Meeting::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    pool.exclusive(|lane| {
                        meeting.wait();
                        run_counted_regions(lane, 3, || {});
                    });
                });
            }
        });
        pool.set_recorder(None);
        pool.exclusive(|lane| run_counted_regions(lane, 1, || {}));
        let mut regions: Vec<u64> = rec
            .events()
            .into_iter()
            .filter_map(|ev| match ev {
                TraceEvent::WorkerSpan { region, .. } => Some(region),
                _ => None,
            })
            .collect();
        assert_eq!(regions.len(), 6, "one span per lane region, none after detach");
        regions.sort_unstable();
        regions.dedup();
        assert_eq!(regions.len(), 6, "each lane region has its own id");
    }

    /// Runs `regions` empty-bodied regions, asserting after each that every
    /// tid ran it exactly once, with `between` called after every region.
    fn run_counted_regions(pool: &ThreadPool, regions: usize, mut between: impl FnMut()) {
        let ran: Vec<AtomicUsize> = (0..pool.num_threads()).map(|_| AtomicUsize::new(0)).collect();
        for k in 1..=regions {
            pool.region(|tid| {
                ran[tid].fetch_add(1, Ordering::Relaxed);
            });
            for (tid, r) in ran.iter().enumerate() {
                assert_eq!(r.load(Ordering::Relaxed), k, "tid {tid} in region {k}");
            }
            between();
        }
    }

    #[test]
    fn no_wakeup_is_lost_between_spinning_and_parking() {
        // The dispatcher pauses 0–250 µs between regions, straddling the
        // spin budget: the next generation meets workers mid-spin, about
        // to register as sleepers, and parked. A lost wake-up hangs here.
        let regions = if cfg!(miri) { 200 } else { 20_000 };
        for nthreads in [2, 3] {
            let pool = ThreadPool::new(nthreads);
            let mut rng = 0x9E37_79B9_7F4A_7C15_u64 + nthreads as u64;
            run_counted_regions(&pool, regions, || {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let pause = Duration::from_nanos((rng >> 33) % 250_000);
                let start = Instant::now();
                while start.elapsed() < pause {
                    std::hint::spin_loop();
                }
            });
        }
    }

    #[test]
    fn idle_workers_park_and_the_next_region_wakes_them() {
        let pool = ThreadPool::new(3);
        for round in 1..=3 {
            // Left alone, every worker runs out of budget and registers as
            // a sleeper; the region must then notify, or it never returns.
            let start = Instant::now();
            while pool.inner.state.lock().sleepers != 2 {
                assert!(start.elapsed() < Duration::from_secs(60), "workers never parked");
                std::thread::yield_now();
            }
            assert!(pool.stats().parks >= 2 * round);
            run_counted_regions(&pool, 1, || {});
        }
    }

    #[test]
    fn oversubscribed_pool_parks_instead_of_spinning() {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(ThreadPool::new(cpus).inner.spin_budget, SPIN_BUDGET);
        assert_eq!(ThreadPool::new(cpus + 1).inner.spin_budget, Duration::ZERO);
        let pool = ThreadPool::new(4 * cpus);
        assert_eq!(pool.inner.spin_budget, Duration::ZERO);
        const REGIONS: usize = 2_000;
        let parks_before = pool.stats().parks;
        let start = Instant::now();
        run_counted_regions(&pool, REGIONS, || {});
        assert!(start.elapsed() < Duration::from_secs(120), "took {:?}", start.elapsed());
        // With no budget a wait that finds nothing to do parks at once:
        // the dispatcher outruns 4 threads per CPU to the join, and each
        // worker gets back to the mutex before the next generation.
        let parks = pool.stats().parks - parks_before;
        assert!(parks >= REGIONS as u64, "{parks} parks in {REGIONS} regions");
    }

    #[test]
    fn dropping_a_pool_joins_spinning_workers() {
        let start = Instant::now();
        for _ in 0..100 {
            let pool = ThreadPool::new(2);
            pool.region(|_| {});
            // The worker is inside its spin budget (or parked, when this
            // host oversubscribes two threads); shutdown must reach it.
            drop(pool);
        }
        assert!(start.elapsed() < Duration::from_secs(30), "took {:?}", start.elapsed());
    }

    #[test]
    fn caller_panic_still_joins_workers() {
        // Thread 0 unwinding out of `f` must not free the closure while
        // workers are still calling through the job pointer; the join
        // guard holds the frame until they check out.
        let pool = ThreadPool::new(4);
        let entered = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.region(|tid| {
                entered.fetch_add(1, Ordering::Relaxed);
                if tid == 0 {
                    panic!("caller bail");
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            });
        }));
        assert!(result.is_err());
        // All four entered and, because region joined before unwinding,
        // their count is already visible here.
        assert_eq!(entered.load(Ordering::Relaxed), 4);
        pool.region(|_| {});
    }
}
