//! Structured run telemetry.
//!
//! The paper's methodology (§III-B) separates *phases* so that one
//! confounded wall-clock number never stands in for an engine's kernel
//! time. This crate extends that discipline inside the run phase: typed
//! [`TraceEvent`]s — phase spans, per-iteration frontier sizes and
//! push/pull direction, per-worker busy/idle time, allocation high-water
//! marks, and per-region [`Counters`-style] deltas — collected by a
//! [`Recorder`] into an in-memory ring buffer ([`RunRecorder`]) and
//! flushed as JSONL next to the harness's dialect logs.
//!
//! The crate is dependency-free; engines and the thread pool emit events
//! whenever a recorder is attached to the run, and skip the work when
//! none is.
//!
//! [`Counters`-style]: TraceEvent::CountersDelta

#![warn(missing_docs)]

pub mod jsonl;

use std::collections::VecDeque;
use std::sync::Mutex;

/// Traversal direction of one iteration (Beamer's direction-optimizing
/// BFS vocabulary, §III-D): `Push` walks out-edges of the frontier,
/// `Pull` scans in-edges of unvisited vertices, `Hybrid` marks the
/// iteration where a direction-optimizing engine switched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Top-down: frontier pushes to neighbors.
    Push,
    /// Bottom-up: undiscovered vertices pull from parents.
    Pull,
    /// The switch iteration of a direction-optimizing run.
    Hybrid,
}

impl Dir {
    /// Wire label used in the JSONL encoding.
    pub fn label(self) -> &'static str {
        match self {
            Dir::Push => "push",
            Dir::Pull => "pull",
            Dir::Hybrid => "hybrid",
        }
    }

    /// Inverse of [`Dir::label`].
    pub fn from_label(s: &str) -> Option<Dir> {
        match s {
            "push" => Some(Dir::Push),
            "pull" => Some(Dir::Pull),
            "hybrid" => Some(Dir::Hybrid),
            _ => None,
        }
    }
}

/// One telemetry event. All numeric payloads are unsigned integers
/// (nanoseconds, element counts, bytes) so the JSONL encoding
/// round-trips exactly — no float formatting ambiguity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A pipeline phase (read_file / construct / run / output) opened at
    /// `at_ns` relative to the recorder's epoch.
    PhaseStart {
        /// Phase label, e.g. `"run"` (see `epg_engine_api::Phase::label`).
        phase: String,
        /// Start time in nanoseconds since the recorder's epoch.
        at_ns: u64,
    },
    /// The matching close of a [`TraceEvent::PhaseStart`].
    PhaseEnd {
        /// Phase label; pairs with the most recent open of the same label.
        phase: String,
        /// End time in nanoseconds since the recorder's epoch.
        at_ns: u64,
    },
    /// One kernel iteration completed. Emitted *after* the iteration's
    /// [`TraceEvent::Region`] and [`TraceEvent::CountersDelta`] events,
    /// closing the iteration group (the grouping rule `epg trace
    /// summarize` and `epg-machine`'s replay rely on).
    Iteration {
        /// 1-based iteration (BFS depth, PR round, SSSP relaxation wave).
        iter: u32,
        /// Frontier / active-set size entering the iteration.
        frontier: u64,
        /// Traversal direction of this iteration.
        dir: Dir,
    },
    /// One parallel or serial region, mirroring an
    /// `epg_engine_api::RegionRecord` the engine pushed onto its `Trace`.
    Region {
        /// Total work (operations) in the region.
        work: u64,
        /// Critical-path length of the region.
        span: u64,
        /// Bytes moved by the region.
        bytes: u64,
        /// Whether the region ran on the pool.
        parallel: bool,
    },
    /// Delta of the engine's aggregate `Counters` attributed to one
    /// region. Summing every delta of a run reproduces the final
    /// `Counters` — asserted per engine by the trace-equivalence test.
    CountersDelta {
        /// Region label: `"iteration"` for per-iteration flushes,
        /// `"finalize"` for end-of-run adjustments.
        region: String,
        /// Edges traversed in the region.
        edges: u64,
        /// Vertices touched in the region.
        vertices: u64,
        /// Bytes read in the region.
        bytes_read: u64,
        /// Bytes written in the region.
        bytes_written: u64,
        /// Iterations accounted to the region.
        iterations: u32,
    },
    /// Busy/idle split of one worker over one pool region
    /// (`epg-parallel` emits these while a recorder is attached to the pool).
    WorkerSpan {
        /// Pool region id (monotonic per pool).
        region: u64,
        /// Stable worker id within the pool.
        worker: u32,
        /// Nanoseconds the worker spent executing chunks.
        busy_ns: u64,
        /// Nanoseconds the worker waited inside the region.
        idle_ns: u64,
    },
    /// High-water mark of a named allocation (frontier queues, bitmaps,
    /// per-vertex arrays).
    AllocHwm {
        /// What was allocated, e.g. `"bfs.parent"`.
        label: String,
        /// Peak size in bytes.
        bytes: u64,
    },
    /// The supervisor's verdict on one trial, emitted after the run
    /// phase closes: completed trials say `"ok"`, DNFs carry the label
    /// of their `TrialOutcome` (`"timeout"`, `"panicked"`,
    /// `"quarantined"`) so the trace stream shows the paper's Table
    /// II/III holes explicitly.
    TrialOutcome {
        /// Outcome label (`epg_harness::TrialOutcome::label`).
        outcome: String,
        /// Attempts the supervisor spent on the trial (≥ 1; retries
        /// after transient panics increment this).
        attempts: u32,
    },
    /// One point query answered (or rejected) by the serving layer —
    /// the per-request analogue of `TrialOutcome`, stamped by
    /// `epg-serve` with the answer path taken through its pipeline.
    Query {
        /// Algorithm abbreviation (`"BFS"`, `"SSSP"`, `"PR"`).
        algo: String,
        /// The answer path (`"exact"`, `"cached"`, `"landmark"`) or the
        /// rejection label (`"overloaded"`, `"dnf"`, `"failed"`, ...).
        path: String,
        /// Wall-clock latency of the request, admission to answer.
        latency_ns: u64,
        /// Whether the request produced an answer (false for
        /// rejections, deadline trips, and failures).
        ok: bool,
    },
    /// The stream is truncated: the recorder's ring overflowed and evicted
    /// its `events` oldest events before the stream was written. Never
    /// recorded by an engine — [`RunRecorder::to_jsonl`] leads the file
    /// with it, so whoever reads the file knows its totals cover the
    /// surviving tail only.
    Dropped {
        /// Events evicted ([`RunRecorder::dropped`]).
        events: u64,
    },
}

/// Sink for [`TraceEvent`]s. `&self` receivers plus `Send + Sync` let
/// pool workers record from their own threads while the engine records
/// from the dispatcher; implementations provide interior mutability.
pub trait Recorder: Send + Sync {
    /// Accepts one event.
    fn record(&self, ev: TraceEvent);
}

/// Default [`RunRecorder`] capacity: enough for hundreds of iterations
/// of every event kind without unbounded growth on pathological runs.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

/// In-memory ring buffer of trace events. When the buffer is full the
/// oldest event is dropped (and counted), keeping the most recent
/// window — a run that explodes never exhausts memory, and the tail of
/// the trace (where convergence behavior lives) survives.
pub struct RunRecorder {
    ring: Mutex<Ring>,
}

impl RunRecorder {
    /// Recorder with [`DEFAULT_CAPACITY`].
    pub fn new() -> RunRecorder {
        RunRecorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// Recorder holding at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> RunRecorder {
        let capacity = capacity.max(1);
        RunRecorder {
            ring: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity.min(1024)),
                capacity,
                dropped: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        // A panicking recorder thread must not silence the rest of the
        // trace; the ring holds plain data, so poisoning is ignorable.
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.lock().events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().events.iter().cloned().collect()
    }

    /// Clears the buffer and the dropped count.
    pub fn clear(&self) {
        let mut r = self.lock();
        r.events.clear();
        r.dropped = 0;
    }

    /// Renders the buffered events as JSONL, one event per line, behind
    /// a [`TraceEvent::Dropped`] line when the ring has evicted any.
    pub fn to_jsonl(&self) -> String {
        let r = self.lock();
        let marker = (r.dropped > 0).then_some(TraceEvent::Dropped { events: r.dropped });
        jsonl::render_jsonl(marker.iter().chain(&r.events))
    }

    /// Writes the JSONL rendering to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

impl Default for RunRecorder {
    fn default() -> RunRecorder {
        RunRecorder::new()
    }
}

impl Recorder for RunRecorder {
    fn record(&self, ev: TraceEvent) {
        let mut r = self.lock();
        if r.events.len() >= r.capacity {
            r.events.pop_front();
            r.dropped += 1;
        }
        r.events.push_back(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PhaseStart { phase: "run".into(), at_ns: 10 },
            TraceEvent::Region { work: 100, span: 25, bytes: 800, parallel: true },
            TraceEvent::CountersDelta {
                region: "iteration".into(),
                edges: 100,
                vertices: 40,
                bytes_read: 800,
                bytes_written: 320,
                iterations: 0,
            },
            TraceEvent::Iteration { iter: 1, frontier: 1, dir: Dir::Push },
            TraceEvent::WorkerSpan { region: 7, worker: 2, busy_ns: 1000, idle_ns: 50 },
            TraceEvent::AllocHwm { label: "bfs.parent".into(), bytes: 4096 },
            TraceEvent::PhaseEnd { phase: "run".into(), at_ns: 999 },
        ]
    }

    #[test]
    fn recorder_keeps_order() {
        let rec = RunRecorder::new();
        for ev in sample_events() {
            rec.record(ev);
        }
        assert_eq!(rec.events(), sample_events());
        assert_eq!(rec.dropped(), 0);
        assert!(!rec.is_empty());
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let rec = RunRecorder::with_capacity(3);
        for i in 0..5u32 {
            rec.record(TraceEvent::Iteration { iter: i, frontier: i as u64, dir: Dir::Push });
        }
        let evs = rec.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(rec.dropped(), 2);
        let TraceEvent::Iteration { iter, .. } = evs[0] else { panic!() };
        assert_eq!(iter, 2, "oldest two were evicted");
        // The file says so, and parses back to the marker plus the tail.
        let parsed = jsonl::parse_jsonl(&rec.to_jsonl());
        assert_eq!(parsed.events[0], TraceEvent::Dropped { events: 2 });
        assert_eq!(parsed.events[1..], evs[..]);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = std::sync::Arc::new(RunRecorder::new());
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let rec = std::sync::Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        rec.record(TraceEvent::WorkerSpan {
                            region: 0,
                            worker: t,
                            busy_ns: i,
                            idle_ns: 0,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.len(), 400);
    }

    #[test]
    fn clear_resets_everything() {
        let rec = RunRecorder::with_capacity(2);
        for ev in sample_events() {
            rec.record(ev);
        }
        assert!(rec.dropped() > 0);
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn dir_labels_roundtrip() {
        for d in [Dir::Push, Dir::Pull, Dir::Hybrid] {
            assert_eq!(Dir::from_label(d.label()), Some(d));
        }
        assert_eq!(Dir::from_label("sideways"), None);
    }
}
