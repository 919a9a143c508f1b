//! Property tests for the JSONL trace writer/parser: arbitrary event
//! sequences must round-trip exactly, and the parser must survive the
//! corruption real trace files exhibit — interleaved chatter from the
//! engine under test and files truncated mid-line by a killed run —
//! mirroring the dialect-parser hardening in `epg-harness::logs`.

use epg_trace::jsonl::{parse_jsonl, render_event, render_jsonl};
use epg_trace::{Dir, Recorder, RunRecorder, TraceEvent};
use proptest::prelude::*;

/// Printable-ASCII labels, including `"` and `\` so escaping is hit.
fn label() -> impl Strategy<Value = String> {
    "[ -~]{0,16}"
}

fn dir() -> impl Strategy<Value = Dir> {
    prop_oneof![Just(Dir::Push), Just(Dir::Pull), Just(Dir::Hybrid)]
}

fn event() -> BoxedStrategy<TraceEvent> {
    prop_oneof![
        (label(), 0u64..=u64::MAX)
            .prop_map(|(phase, at_ns)| TraceEvent::PhaseStart { phase, at_ns }),
        (label(), 0u64..=u64::MAX).prop_map(|(phase, at_ns)| TraceEvent::PhaseEnd { phase, at_ns }),
        (0u32..=u32::MAX, 0u64..=u64::MAX, dir())
            .prop_map(|(iter, frontier, dir)| TraceEvent::Iteration { iter, frontier, dir }),
        (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, prop_oneof![Just(true), Just(false)])
            .prop_map(|(work, span, bytes, parallel)| TraceEvent::Region {
                work,
                span,
                bytes,
                parallel
            }),
        (
            label(),
            (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
            0u64..=u64::MAX,
            0u32..=u32::MAX
        )
            .prop_map(
                |(region, (edges, vertices, bytes_read), bytes_written, iterations)| {
                    TraceEvent::CountersDelta {
                        region,
                        edges,
                        vertices,
                        bytes_read,
                        bytes_written,
                        iterations,
                    }
                }
            ),
        (0u64..=u64::MAX, 0u32..=u32::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX).prop_map(
            |(region, worker, busy_ns, idle_ns)| TraceEvent::WorkerSpan {
                region,
                worker,
                busy_ns,
                idle_ns
            }
        ),
        (label(), 0u64..=u64::MAX).prop_map(|(label, bytes)| TraceEvent::AllocHwm { label, bytes }),
        (label(), 0u32..=u32::MAX)
            .prop_map(|(outcome, attempts)| TraceEvent::TrialOutcome { outcome, attempts }),
        (label(), label(), 0u64..=u64::MAX, prop_oneof![Just(true), Just(false)]).prop_map(
            |(algo, path, latency_ns, ok)| TraceEvent::Query { algo, path, latency_ns, ok }
        ),
        (0u64..=u64::MAX).prop_map(|events| TraceEvent::Dropped { events }),
    ]
    .boxed()
}

fn events() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec(event(), 0..24)
}

/// Lowercase words: never blank, never starts with `{`, so it can
/// neither vanish (blank lines are ignored silently) nor parse as an
/// event.
fn chatter_line() -> impl Strategy<Value = String> {
    "[a-z]{1,20}"
}

proptest! {
    #[test]
    fn roundtrip_is_identity(evs in events()) {
        let parsed = parse_jsonl(&render_jsonl(&evs));
        prop_assert_eq!(parsed.events, evs);
        prop_assert_eq!(parsed.skipped, 0);
    }

    #[test]
    fn overflowed_ring_writes_a_marker_and_its_tail(evs in events(), capacity in 1usize..32) {
        // Whatever the ring evicted, the file says how much is missing and
        // what follows the marker is exactly the surviving tail.
        let rec = RunRecorder::with_capacity(capacity);
        for ev in &evs {
            rec.record(ev.clone());
        }
        let kept = evs.len().min(capacity);
        let dropped = (evs.len() - kept) as u64;
        let mut want: Vec<TraceEvent> = Vec::new();
        if dropped > 0 {
            want.push(TraceEvent::Dropped { events: dropped });
        }
        want.extend_from_slice(&evs[evs.len() - kept..]);
        let parsed = parse_jsonl(&rec.to_jsonl());
        prop_assert_eq!(parsed.events, want);
        prop_assert_eq!(parsed.skipped, 0);
    }

    #[test]
    fn interleaved_chatter_is_counted_not_parsed(
        evs in events(),
        chatter in proptest::collection::vec(chatter_line(), 1..8),
        seed in 0u64..=u64::MAX,
    ) {
        // Deterministically interleave chatter between event lines.
        let mut lines: Vec<String> = evs.iter().map(render_event).collect();
        let mut s = seed;
        for c in &chatter {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let at = (s >> 33) as usize % (lines.len() + 1);
            lines.insert(at, c.clone());
        }
        let text = lines.join("\n");
        let parsed = parse_jsonl(&text);
        prop_assert_eq!(parsed.events, evs);
        prop_assert_eq!(parsed.skipped, chatter.len());
    }

    #[test]
    fn truncation_yields_a_clean_prefix(
        (text, cut, evs) in events().prop_flat_map(|evs| {
            let text = render_jsonl(&evs);
            let len = text.len();
            (Just(text), 0usize..=len, Just(evs))
        }),
    ) {
        let parsed = parse_jsonl(&text[..cut]);
        // Whatever survives is an exact prefix of what was written …
        prop_assert!(parsed.events.len() <= evs.len());
        prop_assert_eq!(&parsed.events[..], &evs[..parsed.events.len()]);
        // … and at most the one mangled tail line is skipped.
        prop_assert!(parsed.skipped <= 1, "skipped {} lines", parsed.skipped);
        // A cut on a line boundary loses nothing.
        if cut == text.len() {
            prop_assert_eq!(parsed.events.len(), evs.len());
        }
    }
}
