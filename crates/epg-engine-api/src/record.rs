//! The recording capability and the run record.
//!
//! Engines never talk to a recorder directly — they carry a
//! [`RecorderCtx`], a `Copy` capability over an optional [`Recorder`].
//! Every emission goes through [`RecorderCtx::emit`], which builds the
//! event only when a recorder is attached: an untraced run pays one
//! branch per emission site (per kernel step, never per edge) and
//! allocates nothing.

use crate::counters::{Counters, Trace};
use crate::result::{AlgorithmResult, RunOutput};
use epg_parallel::{PerWorker, ThreadPool};
use epg_trace::{Dir, Recorder, TraceEvent};
use std::ops::ControlFlow;

/// Borrowed recording capability handed to engines via
/// [`crate::RunParams::recorder`].
///
/// It holds `&dyn Recorder`, not `&mut`: pool workers record
/// [`TraceEvent::WorkerSpan`]s from their own threads while the engine
/// records from the dispatcher, so the sink is shared (`Recorder: Send +
/// Sync` provides the interior mutability).
#[derive(Clone, Copy)]
pub struct RecorderCtx<'a>(Option<&'a dyn Recorder>);

impl<'a> RecorderCtx<'a> {
    /// The inert context: every emission is a no-op.
    pub fn none() -> RecorderCtx<'a> {
        RecorderCtx(None)
    }

    /// Context recording into `rec`.
    pub fn new(rec: &'a dyn Recorder) -> RecorderCtx<'a> {
        RecorderCtx(Some(rec))
    }

    /// Whether events reach a recorder.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records the event `make` builds. `make` runs only when a
    /// recorder is attached.
    #[inline(always)]
    pub fn emit<F: FnOnce() -> TraceEvent>(&self, make: F) {
        if let Some(rec) = self.0 {
            rec.record(make());
        }
    }

    /// Emits an allocation high-water mark.
    #[inline(always)]
    pub fn alloc_hwm(&self, label: &str, bytes: u64) {
        self.emit(|| TraceEvent::AllocHwm { label: label.to_string(), bytes });
    }
}

impl std::fmt::Debug for RecorderCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RecorderCtx(enabled: {})", self.is_enabled())
    }
}

/// One worker's share of a kernel step, kept for the run in a
/// [`PerWorker`]: what its ranges found, in the order they ran, the edges
/// they examined and their largest indivisible task (the span bound).
#[derive(Debug, Default)]
pub struct Found<T> {
    /// What the ranges discovered (next-frontier vertices, per-partition
    /// gather lists, ...).
    pub list: Vec<T>,
    /// Edges the ranges examined.
    pub edges: u64,
    /// Largest single indivisible task in the ranges.
    pub max_degree: u64,
}

impl<T: Send> Found<T> {
    /// Appends every worker's list to `out` in worker order and returns the
    /// step's edges and largest task, leaving every state empty for the
    /// next step; the lists keep their capacity.
    pub fn drain(workers: &mut PerWorker<Found<T>>, out: &mut Vec<T>) -> (u64, u64) {
        workers.iter_mut().fold((0, 0), |(edges, max_degree), w| {
            out.append(&mut w.list);
            let (e, m) = (std::mem::take(&mut w.edges), std::mem::take(&mut w.max_degree));
            (edges + e, max_degree.max(m))
        })
    }
}

/// The run record of one kernel invocation: the work [`Counters`], the
/// region [`Trace`], the counter-delta stream and the cancelled flag, kept
/// in one place so that every kernel reports the same way. A kernel step
/// bumps [`RunLog::counters`], records its regions on the [`Trace`] with
/// [`RunLog::parallel`] / [`RunLog::serial`] and closes with
/// [`RunLog::iteration`]; the run closes with [`RunLog::finish`].
///
/// The recorder therefore sees, per step, one `CountersDelta` (region
/// `"iteration"`), then the `Iteration` event, and at the end one
/// `"finalize"` delta — which makes *sum of deltas == final counters* hold
/// by construction for every kernel. With no recorder attached the delta
/// arithmetic is skipped.
pub struct RunLog<'a> {
    /// Aggregate work counters; kernels add to them directly.
    pub counters: Counters,
    trace: Trace,
    rec: RecorderCtx<'a>,
    /// `counters` as of the last flushed delta.
    flushed: Counters,
    cancelled: bool,
}

impl<'a> RunLog<'a> {
    /// Empty record emitting through `rec`.
    pub fn new(rec: RecorderCtx<'a>) -> RunLog<'a> {
        RunLog {
            counters: Counters::default(),
            trace: Trace::default(),
            rec,
            flushed: Counters::default(),
            cancelled: false,
        }
    }

    /// Records a parallel region (span clamped to work, as
    /// [`Trace::parallel`] does).
    #[inline]
    pub fn parallel(&mut self, work: u64, span: u64, bytes: u64) {
        self.trace.parallel(work, span, bytes);
    }

    /// Records a serial section.
    #[inline]
    pub fn serial(&mut self, work: u64, bytes: u64) {
        self.trace.serial(work, bytes);
    }

    /// Closes one kernel step: flushes the counter delta, emits the
    /// per-iteration event and polls the pool's cancel token. `Break`
    /// means the token tripped — the step's loops may have abandoned
    /// chunks, so the kernel must stop and [`RunLog::finish`] will mark
    /// the output cancelled. Reporting and polling are one call so that no
    /// loop can report progress without being reapable.
    ///
    /// What counts as an iteration (and `counters.iterations`) stays the
    /// kernel's business; `iter` and `frontier` only label the event.
    #[inline]
    pub fn iteration(
        &mut self,
        pool: &ThreadPool,
        iter: u32,
        frontier: u64,
        dir: Dir,
    ) -> ControlFlow<()> {
        self.flush("iteration");
        self.rec.emit(|| TraceEvent::Iteration { iter, frontier, dir });
        self.cancelled = self.cancelled || pool.is_cancelled();
        if self.cancelled {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Flushes the kernel's end-of-run counter adjustments as the
    /// `"finalize"` delta and builds the [`RunOutput`].
    pub fn finish(mut self, result: AlgorithmResult) -> RunOutput {
        self.flush("finalize");
        RunOutput::new(result, self.counters, self.trace).cancelled(self.cancelled)
    }

    /// Emits `counters - <last flush>` attributed to `region`, then
    /// advances the baseline. Zero deltas are suppressed.
    #[inline(always)]
    fn flush(&mut self, region: &str) {
        if !self.rec.is_enabled() {
            return;
        }
        let d = self.counters.delta_since(&self.flushed);
        if d != Counters::default() {
            self.rec.emit(|| TraceEvent::CountersDelta {
                region: region.to_string(),
                edges: d.edges_traversed,
                vertices: d.vertices_touched,
                bytes_read: d.bytes_read,
                bytes_written: d.bytes_written,
                iterations: d.iterations,
            });
        }
        self.flushed = self.counters;
    }
}

/// Sums every [`TraceEvent::CountersDelta`] in `events` back into a
/// [`Counters`] — the inverse the trace-equivalence test checks against
/// each engine's reported aggregate.
pub fn sum_counter_deltas(events: &[TraceEvent]) -> Counters {
    let mut total = Counters::default();
    for ev in events {
        if let TraceEvent::CountersDelta {
            edges,
            vertices,
            bytes_read,
            bytes_written,
            iterations,
            ..
        } = ev
        {
            total.edges_traversed += edges;
            total.vertices_touched += vertices;
            total.bytes_read += bytes_read;
            total.bytes_written += bytes_written;
            total.iterations += iterations;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_parallel::CancelToken;

    #[test]
    fn none_ctx_is_inert_and_copy() {
        let ctx = RecorderCtx::none();
        let ctx2 = ctx; // Copy
        assert!(!ctx.is_enabled(), "none() must never be enabled");
        // The closure must not run when no recorder is attached.
        ctx2.emit(|| panic!("emit ran its closure with no recorder"));
        ctx2.alloc_hwm("x", 1);
    }

    #[test]
    fn tracer_builds_the_same_trace_as_before() {
        let mut log = RunLog::new(RecorderCtx::none());
        log.parallel(1000, 50, 8000);
        log.serial(100, 800);
        let trace = log.finish(AlgorithmResult::Triangles(0)).trace;
        assert_eq!(trace.total_work(), 1100);
        assert_eq!(trace.sync_points(), 1);
        assert_eq!(trace.records[0].span, 50);
    }

    #[test]
    fn delta_tracker_is_silent_without_recorder() {
        let pool = ThreadPool::new(1);
        let mut log = RunLog::new(RecorderCtx::none());
        log.counters.edges_traversed = 5;
        assert!(log.iteration(&pool, 1, 1, Dir::Push).is_continue());
        let out = log.finish(AlgorithmResult::Triangles(0));
        assert_eq!(out.counters.edges_traversed, 5);
        assert!(!out.cancelled);
    }

    #[test]
    fn tripped_token_stops_the_run_with_partial_counters() {
        let pool = ThreadPool::new(2);
        let token = CancelToken::new();
        pool.set_cancel_token(Some(token.clone()));
        let mut log = RunLog::new(RecorderCtx::none());
        log.counters.edges_traversed += 10;
        assert!(log.iteration(&pool, 1, 4, Dir::Push).is_continue());
        token.cancel();
        log.counters.edges_traversed += 3;
        assert!(log.iteration(&pool, 2, 4, Dir::Push).is_break(), "tripped token must stop");
        pool.set_cancel_token(None);
        let out = log.finish(AlgorithmResult::Triangles(0));
        assert!(out.cancelled);
        assert_eq!(out.counters.edges_traversed, 13, "partial work stays reported");
    }

    mod live {
        use super::*;
        use epg_trace::{RunRecorder, TraceEvent};

        fn delta(region: &str, edges: u64, bytes_read: u64, iterations: u32) -> TraceEvent {
            TraceEvent::CountersDelta {
                region: region.into(),
                edges,
                vertices: 0,
                bytes_read,
                bytes_written: 0,
                iterations,
            }
        }

        #[test]
        fn events_reach_the_recorder() {
            // One step: the "iteration" delta, then the Iteration event
            // (the region goes on the Trace only); `finish` flushes what
            // came after as "finalize".
            let pool = ThreadPool::new(1);
            let rec = RunRecorder::new();
            let ctx = RecorderCtx::new(&rec);
            assert!(ctx.is_enabled());
            let mut log = RunLog::new(ctx);
            log.counters.edges_traversed += 10;
            log.counters.iterations += 1;
            log.parallel(10, 20, 80);
            assert!(log.iteration(&pool, 2, 7, Dir::Pull).is_continue());
            log.counters.bytes_read = 80;
            let out = log.finish(AlgorithmResult::Triangles(0));
            assert_eq!(
                rec.events(),
                vec![
                    delta("iteration", 10, 0, 1),
                    TraceEvent::Iteration { iter: 2, frontier: 7, dir: Dir::Pull },
                    delta("finalize", 0, 80, 0),
                ]
            );
            assert_eq!(sum_counter_deltas(&rec.events()), out.counters);
            assert_eq!(out.trace.records.len(), 1);
        }

        #[test]
        fn delta_flushes_sum_to_the_final_counters() {
            let pool = ThreadPool::new(1);
            let rec = RunRecorder::new();
            let mut log = RunLog::new(RecorderCtx::new(&rec));
            log.counters.edges_traversed += 10;
            log.counters.bytes_read += 80;
            let _ = log.iteration(&pool, 1, 1, Dir::Push);
            log.counters.edges_traversed += 5;
            log.counters.iterations = 2;
            let _ = log.iteration(&pool, 2, 1, Dir::Push);
            // Nothing moved since the last step: the finalize delta is
            // zero and suppressed.
            let out = log.finish(AlgorithmResult::Triangles(0));
            assert_eq!(sum_counter_deltas(&rec.events()), out.counters);
            let deltas = rec
                .events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::CountersDelta { .. }))
                .count();
            assert_eq!(deltas, 2);
        }
    }
}
