//! In-memory spans recorded around the benchmark's calls into each layer,
//! and the self-time arithmetic of the per-layer table.
//!
//! A span is `{id, parent, run, layer, name, start_ns, end_ns}`; `parent`
//! is 0 for the workload span and `run` is the index that the spans of one
//! engine run or one request share. Spans are buffered per thread and
//! written to `bench/out/<workload>.spans.jsonl` when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub run: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An opened span; closing it pushes the finished [`Span`] into a buffer.
pub struct Open {
    pub id: u64,
    parent: u64,
    run: u64,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
}

/// Hands out span ids and timestamps. Disabled, `open` and `close` cost a
/// branch each, so the untraced run times the same code.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next: AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled: AtomicBool::new(enabled), epoch: Instant::now(), next: AtomicU64::new(1) }
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switched only between rounds, while no span is open on any thread.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn open(&self, parent: u64, run: u64, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled() {
            return Open { id: 0, parent, run, layer, name, start_ns: 0 };
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        Open { id, parent, run, layer, name, start_ns: self.epoch.elapsed().as_nanos() as u64 }
    }

    pub fn close(&self, buf: &mut Vec<Span>, open: Open) {
        if open.id != 0 {
            buf.push(Span {
                id: open.id,
                parent: open.parent,
                run: open.run,
                layer: open.layer,
                name: open.name,
                start_ns: open.start_ns,
                end_ns: self.epoch.elapsed().as_nanos() as u64,
            });
        }
    }
}

/// Length of the union of `[start, end)` intervals.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Per-layer self times of a span tree.
#[derive(Debug, PartialEq, Eq)]
pub struct SelfTimes {
    /// Layer → Σ over its spans of (duration − the part children cover).
    pub by_layer: BTreeMap<&'static str, u64>,
    /// Duration of the root spans (parent 0).
    pub root_ns: u64,
    /// Time that sibling spans on concurrent threads cover more than once:
    /// Σ over parents of (Σ child durations − union of children).
    pub overlap_ns: u64,
}

impl SelfTimes {
    /// A span's self time is its duration minus the part of that interval
    /// its children cover, so `Σ self = root + overlap` for any tree whose
    /// children lie inside their parents; with sequential siblings the
    /// overlap is zero and the layers sum to the workload span exactly.
    pub fn of(spans: &[Span]) -> SelfTimes {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut overlap_ns = 0;
        let mut root_ns = 0;
        for s in spans {
            let dur = s.end_ns - s.start_ns;
            if s.parent == 0 {
                root_ns += dur;
            }
            let clipped: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.clamp(s.start_ns, s.end_ns), b.clamp(s.start_ns, s.end_ns)))
                .collect();
            let summed: u64 = clipped.iter().map(|(a, b)| b - a).sum();
            let covered = union_ns(clipped);
            overlap_ns += summed - covered;
            *by_layer.entry(s.layer).or_default() += dur - covered;
        }
        SelfTimes { by_layer, root_ns, overlap_ns }
    }

    pub fn total_self_ns(&self) -> u64 {
        self.by_layer.values().sum()
    }

    /// `|Σ self − overlap − root| / root`: zero for a well-formed tree.
    pub fn closure_error(&self) -> f64 {
        let lhs = self.total_self_ns() as f64 - self.overlap_ns as f64;
        (lhs - self.root_ns as f64).abs() / self.root_ns.max(1) as f64
    }
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"run\": {}, \"layer\": \"{}\", \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.run, s.layer, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, run: 0, layer, name: "t", start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // workload 0..100 → setup 0..30 → {generate 0..10, homogenize 10..25}
        //                 → run 40..90
        let spans = vec![
            span(1, 0, "bench", 0, 100),
            span(2, 1, "bench", 0, 30),
            span(3, 2, "epg-generator", 0, 10),
            span(4, 2, "epg-harness", 10, 25),
            span(5, 1, "epg-engine-gap", 40, 90),
        ];
        let st = SelfTimes::of(&spans);
        assert_eq!(st.by_layer["epg-generator"], 10);
        assert_eq!(st.by_layer["epg-harness"], 15);
        assert_eq!(st.by_layer["epg-engine-gap"], 50);
        // workload self = 100 - (30 + 50); setup self = 30 - 25.
        assert_eq!(st.by_layer["bench"], 20 + 5);
        assert_eq!(st.root_ns, 100);
        assert_eq!(st.overlap_ns, 0);
        assert_eq!(st.total_self_ns(), 100);
        assert_eq!(st.closure_error(), 0.0);
    }

    #[test]
    fn concurrent_siblings_are_reported_as_overlap() {
        // Two client threads answer inside one round at the same time.
        let spans = vec![
            span(1, 0, "bench", 0, 100),
            span(2, 1, "epg-serve", 10, 60),
            span(3, 1, "epg-serve", 30, 90),
        ];
        let st = SelfTimes::of(&spans);
        assert_eq!(st.by_layer["bench"], 100 - 80);
        assert_eq!(st.by_layer["epg-serve"], 50 + 60);
        assert_eq!(st.overlap_ns, 30);
        assert_eq!(st.closure_error(), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut buf = Vec::new();
        let t = Tracer::new(false);
        let open = t.open(0, 0, "bench", "x");
        t.close(&mut buf, open);
        assert!(buf.is_empty());
        let t = Tracer::new(true);
        let root = t.open(0, 0, "bench", "workload");
        let probe = t.open(root.id, 3, "epg-graph", "probe");
        t.close(&mut buf, probe);
        t.close(&mut buf, root);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf[0].parent, buf[1].id);
        assert_eq!(buf[0].run, 3);
        assert!(to_jsonl(&buf).lines().count() == 2);
    }
}
