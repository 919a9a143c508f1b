//! Replays structured run telemetry onto the simulated machine.
//!
//! The engines emit a flat [`TraceEvent`] stream (see `epg-trace`): within
//! one kernel iteration the convention is *Region events first, then a
//! `CountersDelta` with region `"iteration"`, then the `Iteration` event
//! that closes the group*. A trailing `CountersDelta` with region
//! `"finalize"` carries end-of-run byte totals. This module regroups that
//! stream into per-iteration slices and projects each slice onto the
//! paper's 72-thread Haswell ([`crate::MachineSpec::haswell_e5_2699_v3`]),
//! turning a single measured run into the per-iteration scaling story the
//! paper tells per whole kernel (Figs. 5-7).

use crate::{MachineModel, Projection};
use epg_engine_api::{Counters, Dir, Trace, TraceEvent};

/// One kernel iteration reassembled from the event stream.
#[derive(Clone, Debug)]
pub struct IterationTrace {
    /// 1-based iteration number as reported by the engine.
    pub iter: u32,
    /// Active vertices at the start of the iteration.
    pub frontier: u64,
    /// Push / pull / hybrid-switch direction of the step.
    pub dir: Dir,
    /// Cost-model regions recorded during the iteration.
    pub trace: Trace,
    /// Counter movement attributed to the iteration (zero if the engine
    /// emitted no delta).
    pub delta: Counters,
}

/// A full run regrouped into iterations.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// The per-iteration groups in stream order.
    pub iterations: Vec<IterationTrace>,
    /// Counter movement outside any iteration (the `"finalize"` delta
    /// plus anything emitted after the last `Iteration` event).
    pub finalize: Counters,
    /// Regions recorded outside any iteration (e.g. preprocessing).
    pub leftover: Trace,
    /// Events the recorder's ring evicted before the stream was written
    /// (its `Dropped` marker). Non-zero means the oldest iterations are
    /// missing, so a projection summed over `iterations` is a lower bound.
    pub dropped: u64,
}

fn add_delta(into: &mut Counters, ev: &TraceEvent) {
    if let TraceEvent::CountersDelta {
        edges,
        vertices,
        bytes_read,
        bytes_written,
        iterations,
        ..
    } = ev
    {
        into.edges_traversed += edges;
        into.vertices_touched += vertices;
        into.bytes_read += bytes_read;
        into.bytes_written += bytes_written;
        into.iterations += iterations;
    }
}

/// Regroups a flat event stream into per-iteration traces.
///
/// Phase, worker, and allocation events are not part of the iteration
/// structure and are skipped here; unparseable JSONL chatter is already
/// dropped by `epg-trace`'s parser and never reaches this function.
pub fn group_iterations(events: &[TraceEvent]) -> Replay {
    let mut replay = Replay::default();
    let mut trace = Trace::default();
    let mut delta = Counters::default();
    for ev in events {
        match ev {
            TraceEvent::Region { work, span, bytes, parallel } => {
                if *parallel {
                    trace.parallel(*work, *span, *bytes);
                } else {
                    trace.serial(*work, *bytes);
                }
            }
            TraceEvent::CountersDelta { .. } => add_delta(&mut delta, ev),
            TraceEvent::Iteration { iter, frontier, dir } => {
                replay.iterations.push(IterationTrace {
                    iter: *iter,
                    frontier: *frontier,
                    dir: *dir,
                    trace: std::mem::take(&mut trace),
                    delta: std::mem::take(&mut delta),
                });
            }
            TraceEvent::Dropped { events } => replay.dropped += events,
            // Structural / diagnostic events: not part of any iteration.
            TraceEvent::PhaseStart { .. }
            | TraceEvent::PhaseEnd { .. }
            | TraceEvent::WorkerSpan { .. }
            | TraceEvent::AllocHwm { .. }
            | TraceEvent::TrialOutcome { .. }
            | TraceEvent::Query { .. } => {}
        }
    }
    replay.finalize = delta;
    replay.leftover = trace;
    replay
}

/// Projects each iteration of a replayed run onto `n` threads of the
/// model's machine at the calibrated `rate` (work units/second).
///
/// Because [`MachineModel::project`] is additive over regions, the
/// per-iteration totals sum to the whole-run projection (leftover regions
/// excluded), so this is a lossless decomposition of the paper-style
/// whole-kernel number.
pub fn project_iterations(
    model: &MachineModel,
    replay: &Replay,
    rate: f64,
    n: usize,
) -> Vec<(u32, Projection)> {
    replay.iterations.iter().map(|it| (it.iter, model.project(&it.trace, rate, n))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PhaseStart { phase: "run".into(), at_ns: 0 },
            TraceEvent::AllocHwm { label: "parent".into(), bytes: 800 },
            TraceEvent::Region { work: 1000, span: 10, bytes: 8000, parallel: true },
            TraceEvent::CountersDelta {
                region: "iteration".into(),
                edges: 1000,
                vertices: 90,
                bytes_read: 0,
                bytes_written: 0,
                iterations: 1,
            },
            TraceEvent::Iteration { iter: 1, frontier: 1, dir: Dir::Push },
            TraceEvent::Region { work: 4000, span: 40, bytes: 32000, parallel: true },
            TraceEvent::Region { work: 90, span: 90, bytes: 720, parallel: false },
            TraceEvent::CountersDelta {
                region: "iteration".into(),
                edges: 4000,
                vertices: 10,
                bytes_read: 0,
                bytes_written: 0,
                iterations: 1,
            },
            TraceEvent::Iteration { iter: 2, frontier: 90, dir: Dir::Pull },
            TraceEvent::CountersDelta {
                region: "finalize".into(),
                edges: 0,
                vertices: 0,
                bytes_read: 40_000,
                bytes_written: 800,
                iterations: 0,
            },
            TraceEvent::PhaseEnd { phase: "run".into(), at_ns: 99 },
        ]
    }

    #[test]
    fn groups_follow_the_iteration_closing_convention() {
        let r = group_iterations(&stream());
        assert_eq!(r.iterations.len(), 2);
        assert_eq!(r.iterations[0].iter, 1);
        assert_eq!(r.iterations[0].frontier, 1);
        assert_eq!(r.iterations[0].dir, Dir::Push);
        assert_eq!(r.iterations[0].trace.records.len(), 1);
        assert_eq!(r.iterations[0].delta.edges_traversed, 1000);
        assert_eq!(r.iterations[1].trace.records.len(), 2);
        assert!(!r.iterations[1].trace.records[1].parallel);
        assert_eq!(r.finalize.bytes_read, 40_000);
        assert!(r.leftover.records.is_empty());
    }

    #[test]
    fn a_truncated_stream_says_how_much_is_missing() {
        assert_eq!(group_iterations(&stream()).dropped, 0);
        // The ring evicted the first iteration's five events.
        let mut tail = vec![TraceEvent::Dropped { events: 5 }];
        tail.extend_from_slice(&stream()[5..]);
        let r = group_iterations(&tail);
        assert_eq!(r.dropped, 5);
        assert_eq!(r.iterations.len(), 1, "only the surviving tail is replayed");
    }

    #[test]
    fn per_iteration_projections_sum_to_the_whole_run() {
        let r = group_iterations(&stream());
        let model = MachineModel::paper_machine();
        let rate = 1e6;
        for n in [1usize, 8, 72] {
            let per_iter: f64 =
                project_iterations(&model, &r, rate, n).iter().map(|(_, p)| p.total_s).sum();
            let mut whole = Trace::default();
            for it in &r.iterations {
                for rec in &it.trace.records {
                    if rec.parallel {
                        whole.parallel(rec.work, rec.span, rec.bytes);
                    } else {
                        whole.serial(rec.work, rec.bytes);
                    }
                }
            }
            let total = model.project(&whole, rate, n).total_s;
            assert!((per_iter - total).abs() < 1e-12, "n={n}: {per_iter} vs {total}");
        }
    }

    #[test]
    fn deltas_sum_like_counters() {
        let r = group_iterations(&stream());
        let total: u64 = r.iterations.iter().map(|i| i.delta.edges_traversed).sum();
        assert_eq!(total, 5000);
        // Finalize-only fields stay out of the iteration groups.
        assert!(r.iterations.iter().all(|i| i.delta.bytes_read == 0));
    }
}
