//! The zero-cost recording shim.
//!
//! Engines never talk to a recorder directly — they carry a
//! [`RecorderCtx`], a `Copy` capability that is a reference to a
//! [`Recorder`] when the `trace` cargo feature is on and a zero-sized
//! phantom when it is off. Every emission goes through
//! [`RecorderCtx::emit`], whose body is empty in the off configuration,
//! so the event-construction closures (and everything only they read)
//! are dead-code-eliminated: the instrumented kernels compile to the
//! same machine code as before the telemetry layer existed. That is the
//! acceptance bar — with the feature off, the untraced `bench/`
//! workloads must not move.
//!
//! The feature is resolved *here*, in `epg-engine-api`, so the five
//! engine crates need no features of their own.

use crate::counters::{Counters, Trace};
use epg_trace::{Dir, TraceEvent};

/// Borrowed recording capability handed to engines via
/// [`crate::RunParams::recorder`].
///
/// The ISSUE sketched `&mut dyn Recorder`; the shim deliberately uses
/// `&dyn Recorder` (with `Recorder: Send + Sync` providing interior
/// mutability) because pool workers record [`TraceEvent::WorkerSpan`]s
/// from their own threads while the engine records from the dispatcher
/// — a `&mut` borrow could not be shared with the pool.
#[derive(Clone, Copy)]
pub struct RecorderCtx<'a> {
    #[cfg(feature = "trace")]
    inner: Option<&'a dyn epg_trace::Recorder>,
    #[cfg(not(feature = "trace"))]
    _ghost: core::marker::PhantomData<&'a ()>,
}

impl<'a> RecorderCtx<'a> {
    /// The inert context: every emission is a no-op.
    pub fn none() -> RecorderCtx<'a> {
        RecorderCtx {
            #[cfg(feature = "trace")]
            inner: None,
            #[cfg(not(feature = "trace"))]
            _ghost: core::marker::PhantomData,
        }
    }

    /// Context recording into `rec` (only constructible with the
    /// `trace` feature on — without it there is nothing to hold).
    #[cfg(feature = "trace")]
    pub fn new(rec: &'a dyn epg_trace::Recorder) -> RecorderCtx<'a> {
        RecorderCtx { inner: Some(rec) }
    }

    /// Whether events reach a recorder. Always `false` with the
    /// feature off.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        #[cfg(feature = "trace")]
        {
            self.inner.is_some()
        }
        #[cfg(not(feature = "trace"))]
        {
            false
        }
    }

    /// Records the event `make` builds. `make` runs only when a
    /// recorder is attached; with the feature off the whole call —
    /// closure included — compiles away.
    #[inline(always)]
    pub fn emit<F: FnOnce() -> TraceEvent>(&self, make: F) {
        #[cfg(feature = "trace")]
        if let Some(rec) = self.inner {
            rec.record(make());
        }
        #[cfg(not(feature = "trace"))]
        {
            let _ = make;
        }
    }

    /// Emits a per-iteration event (frontier size + direction).
    #[inline(always)]
    pub fn iteration(&self, iter: u32, frontier: u64, dir: Dir) {
        self.emit(|| TraceEvent::Iteration { iter, frontier, dir });
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

/// A [`Trace`] builder that mirrors every region it records as a
/// [`TraceEvent::Region`]. Engines that previously pushed onto a bare
/// `Trace` switch to a `Tracer` and their region stream shows up in the
/// telemetry for free, in the same order the machine model consumes it.
pub struct Tracer<'a> {
    trace: Trace,
    rec: RecorderCtx<'a>,
}

impl<'a> Tracer<'a> {
    /// Empty tracer emitting through `rec`.
    pub fn new(rec: RecorderCtx<'a>) -> Tracer<'a> {
        Tracer { trace: Trace::default(), rec }
    }

    /// Records a parallel region (span clamped to work, as
    /// [`Trace::parallel`] does).
    #[inline]
    pub fn parallel(&mut self, work: u64, span: u64, bytes: u64) {
        self.trace.parallel(work, span, bytes);
        let span = span.min(work);
        self.rec.emit(|| TraceEvent::Region { work, span, bytes, parallel: true });
    }

    /// Records a serial section.
    #[inline]
    pub fn serial(&mut self, work: u64, bytes: u64) {
        self.trace.serial(work, bytes);
        self.rec.emit(|| TraceEvent::Region { work, span: work, bytes, parallel: false });
    }

    /// The recording capability, for emitting non-region events.
    pub fn recorder(&self) -> RecorderCtx<'a> {
        self.rec
    }

    /// Finishes, yielding the accumulated [`Trace`] for `RunOutput`.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

/// Tracks the last-flushed [`Counters`] snapshot and emits the
/// difference as a [`TraceEvent::CountersDelta`]. Engines flush once
/// per iteration (region `"iteration"`) and once after their end-of-run
/// adjustments (region `"finalize"`), which makes the invariant *sum of
/// deltas == final counters* hold by construction — and any future
/// counter bump outside a flushed region break the trace-equivalence
/// test instead of silently skewing `epg-machine` projections.
///
/// Zero-sized (and `flush` empty) with the `trace` feature off.
#[derive(Debug, Default)]
pub struct DeltaTracker {
    #[cfg(feature = "trace")]
    last: Counters,
}

impl DeltaTracker {
    /// Tracker with an all-zero baseline.
    pub fn new() -> DeltaTracker {
        DeltaTracker::default()
    }

    /// Emits `counters - <last flush>` attributed to `region`, then
    /// advances the baseline. Zero deltas are suppressed.
    #[inline(always)]
    pub fn flush(&mut self, region: &str, counters: &Counters, rec: RecorderCtx<'_>) {
        #[cfg(feature = "trace")]
        {
            let d = counters.delta_since(&self.last);
            if d != Counters::default() {
                rec.emit(|| TraceEvent::CountersDelta {
                    region: region.to_string(),
                    edges: d.edges_traversed,
                    vertices: d.vertices_touched,
                    bytes_read: d.bytes_read,
                    bytes_written: d.bytes_written,
                    iterations: d.iterations,
                });
            }
            self.last = *counters;
        }
        #[cfg(not(feature = "trace"))]
        {
            let _ = (region, counters, rec);
        }
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

    #[test]
    fn none_ctx_is_inert_and_copy() {
        let ctx = RecorderCtx::none();
        let ctx2 = ctx; // Copy
        assert!(!ctx.is_enabled(), "none() must never be enabled");
        // The closure must not run when no recorder is attached.
        ctx2.emit(|| panic!("emit ran its closure with no recorder"));
        ctx2.iteration(1, 10, Dir::Push);
        ctx2.alloc_hwm("x", 1);
    }

    #[test]
    fn tracer_builds_the_same_trace_as_before() {
        let mut t = Tracer::new(RecorderCtx::none());
        t.parallel(1000, 50, 8000);
        t.serial(100, 800);
        let trace = t.into_trace();
        assert_eq!(trace.total_work(), 1100);
        assert_eq!(trace.sync_points(), 1);
        assert_eq!(trace.records[0].span, 50);
    }

    #[test]
    fn delta_tracker_is_silent_without_recorder() {
        let mut dt = DeltaTracker::new();
        let c = Counters { edges_traversed: 5, ..Default::default() };
        dt.flush("iteration", &c, RecorderCtx::none());
    }

    #[cfg(feature = "trace")]
    mod live {
        use super::*;
        use epg_trace::{RunRecorder, TraceEvent};

        #[test]
        fn events_reach_the_recorder() {
            let rec = RunRecorder::new();
            let ctx = RecorderCtx::new(&rec);
            assert!(ctx.is_enabled());
            ctx.iteration(2, 7, Dir::Pull);
            let mut t = Tracer::new(ctx);
            t.parallel(10, 2, 80);
            assert_eq!(
                rec.events(),
                vec![
                    TraceEvent::Iteration { iter: 2, frontier: 7, dir: Dir::Pull },
                    TraceEvent::Region { work: 10, span: 2, bytes: 80, parallel: true },
                ]
            );
        }

        #[test]
        fn delta_flushes_sum_to_the_final_counters() {
            let rec = RunRecorder::new();
            let ctx = RecorderCtx::new(&rec);
            let mut dt = DeltaTracker::new();
            let mut c = Counters::default();
            c.edges_traversed += 10;
            c.bytes_read += 80;
            dt.flush("iteration", &c, ctx);
            c.edges_traversed += 5;
            c.iterations = 2;
            dt.flush("iteration", &c, ctx);
            dt.flush("finalize", &c, ctx); // zero delta: suppressed
            assert_eq!(sum_counter_deltas(&rec.events()), c);
            assert_eq!(rec.len(), 2);
        }
    }
}
