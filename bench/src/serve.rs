//! The serve workloads: closed-loop point queries against one resident
//! GAP `QueryEngine`. `serve_cold` draws sources uniformly from a pool
//! far larger than the source cache, so nearly every answer is an exact
//! traversal; `serve_hot` skews onto a few hub sources with landmarks on,
//! so cache and landmark hits carry throughput.
//!
//! The loop is closed because the shipped client (`epg serve` REPL / TCP
//! line protocol) is blocking request/response: each client sends its
//! next request only after the previous answer, so latency excludes
//! queueing delay and a slow service receives less load.

use crate::check;
use crate::inputs::{self, Skew, Stream};
use crate::probes;
use crate::run::{At, Ctx, PoolCounts};
use crate::span::Span;
use crate::stats;
use epg::engine_api::QueryEngine;
use epg::gap::GapEngine;
use epg::graph::{oracle, Csr};
use epg::prelude::*;
use epg::serve::{AnswerPath, ServeStats};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Percentile of the pooled answer latencies reported as `bench.op_tail_ms`.
const TAIL_PERCENTILE: f64 = 95.0;
/// Every `CHECK_STRIDE`-th request's answer is bit-compared to the oracle.
const CHECK_STRIDE: usize = 50;
/// A single `answer()` at or beyond this is a stall, whatever the percentiles say.
const STALL_MS: f64 = 1000.0;

/// One serve workload's fixed shape.
pub struct Plan {
    scale: u32,
    requests_per_round: usize,
    pool_size: usize,
    skew: Skew,
    sssp_every: usize,
    landmarks: usize,
}

pub fn plan(workload: &str, quick: bool) -> Option<Plan> {
    let scale = if quick { 10 } else { 15 };
    match workload {
        "serve_cold" => Some(Plan {
            scale,
            requests_per_round: 100,
            pool_size: if quick { 256 } else { 4096 },
            skew: Skew::Uniform,
            // 3:1 keeps the median inside the BFS mode and the tail inside
            // the SSSP mode; 1:1 puts the median on the mode boundary.
            sssp_every: 4,
            landmarks: 0,
        }),
        "serve_hot" => Some(Plan {
            scale,
            requests_per_round: if quick { 100 } else { 125 },
            pool_size: if quick { 64 } else { 256 },
            skew: Skew::Cubic,
            sssp_every: 2,
            landmarks: 4,
        }),
        _ => None,
    }
}

/// One answered request, as the client saw it.
struct Sample {
    index: usize,
    /// The epoch the request was answered in.
    epoch: usize,
    latency_ms: f64,
    path: AnswerPath,
    value: f64,
}

struct State {
    ds: Dataset,
    service: ServeService,
    service_pool: Arc<ThreadPool>,
    stream: Stream,
    clients: usize,
}

/// What the timed rounds saw, across all epochs.
#[derive(Default)]
struct Seen {
    samples: Vec<Sample>,
    /// Requests that came back as an error (rejected, DNF or failed).
    refused: u64,
    /// The service's own counters over the timed rounds.
    stats: ServeStats,
    pool: PoolCounts,
}

fn set_up(ctx: &mut Ctx<'_>, parent: u64, plan: &Plan) -> State {
    let build_pool = ThreadPool::new(ctx.host.threads);
    let spec = GraphSpec::Kronecker { scale: plan.scale, edge_factor: 16, weighted: true };
    let ds = inputs::dataset(ctx, parent, &spec, &build_pool);
    let mut engine = GapEngine::new();
    let ((), load_s) = ctx.timed(parent, 0, "epg-engine-gap", "load", || {
        engine.load_edge_list(&ds.symmetric);
    });
    let ((), construct_s) =
        ctx.timed(parent, 0, "epg-engine-gap", "construct", || engine.construct(&build_pool));
    ctx.metrics.set("epg-engine-gap.load_s", load_s, 1);
    ctx.metrics.set("epg-engine-gap.construct_s", construct_s, 1);
    let engine: Arc<dyn QueryEngine> = Arc::new(engine.into_query());
    // Traversals run one at a time on a 1-thread service pool; the
    // concurrency is in the clients.
    let service_pool = Arc::new(ThreadPool::new(1));
    let config = ServeConfig { landmarks: plan.landmarks, ..ServeConfig::default() };
    let (service, build_s) = ctx.timed(parent, 0, "epg-serve", "service_new", || {
        ServeService::new(engine, Arc::clone(&service_pool), config)
    });
    ctx.metrics.set(
        "epg-serve.landmark_build_s",
        if plan.landmarks > 0 { build_s } else { 0.0 },
        1,
    );
    let sources = match plan.skew {
        Skew::Uniform => inputs::sampled_sources(&ds, plan.pool_size, ctx.opts.seed),
        Skew::Cubic => inputs::hub_sources(&ds, plan.pool_size),
    };
    let stream = Stream {
        seed: ctx.opts.seed,
        sources,
        num_vertices: ds.symmetric.num_vertices as u32,
        skew: plan.skew,
        sssp_every: plan.sssp_every,
    };
    State { ds, service, service_pool, stream, clients: ctx.host.threads }
}

/// Adds the growth of the service's counters over one round to `total`.
fn accumulate(total: &mut ServeStats, before: &ServeStats, after: &ServeStats) {
    total.submitted += after.submitted - before.submitted;
    total.answered += after.answered - before.answered;
    total.rejected += after.rejected - before.rejected;
    total.dnf += after.dnf - before.dnf;
    total.failed += after.failed - before.failed;
    total.exact += after.exact - before.exact;
    total.batched += after.batched - before.batched;
    total.cached += after.cached - before.cached;
    total.landmark += after.landmark - before.landmark;
    total.landmark_fallthroughs += after.landmark_fallthroughs - before.landmark_fallthroughs;
    total.cache.evictions += after.cache.evictions - before.cache.evictions;
}

/// Requests `[first, first + count)` of the stream, client `c` of `C`
/// taking every `C`-th one and sending its next only after the answer.
fn round(ctx: &mut Ctx<'_>, st: &State, seen: &mut Seen, first: usize, count: usize, at: At) {
    let parent = at.parent;
    let stats_before = st.service.stats();
    let pool_before = st.service_pool.stats();
    let (service, stream, tracer, clients) = (&st.service, &st.stream, &ctx.tracer, st.clients);
    let per_client: Vec<(Vec<Sample>, Vec<Span>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let (mut samples, mut spans, mut refused) = (Vec::new(), Vec::new(), 0u64);
                    for index in (first + c..first + count).step_by(clients) {
                        let request = tracer.open(parent, index as u64, "bench", "request");
                        let query = stream.request(index);
                        let answer = tracer.open(request.id, index as u64, "epg-serve", "answer");
                        let t = Instant::now();
                        let result = service.answer(&query);
                        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                        tracer.close(&mut spans, answer);
                        match result {
                            Ok(a) => {
                                samples.push(Sample {
                                    index,
                                    epoch: at.epoch,
                                    latency_ms,
                                    path: a.path,
                                    value: a.value,
                                });
                            }
                            Err(_) => refused += 1,
                        }
                        tracer.close(&mut spans, request);
                    }
                    (samples, spans, refused)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    for (samples, spans, refused) in per_client {
        seen.samples.extend(samples);
        ctx.spans.extend(spans);
        seen.refused += refused;
    }
    accumulate(&mut seen.stats, &stats_before, &st.service.stats());
    seen.pool.add(pool_before, st.service_pool.stats());
}

/// Bit-compares every [`CHECK_STRIDE`]-th answer against oracle arrays,
/// one sequential traversal per distinct `(algorithm, source)` sampled.
fn verify(ctx: &mut Ctx<'_>, st: &State, samples: &[Sample]) -> u64 {
    let g = Csr::from_edge_list(&st.ds.symmetric);
    let mut arrays: BTreeMap<(bool, u32), Vec<f64>> = BTreeMap::new();
    let mut wrong = 0;
    for sample in samples.iter().filter(|s| s.index % CHECK_STRIDE == 0) {
        let want = match st.stream.request(sample.index) {
            PointQuery::BfsDist { source, target } => {
                arrays.entry((false, source)).or_insert_with(|| {
                    let level = oracle::bfs(&g, source).level;
                    level
                        .iter()
                        .map(|&l| if l == u32::MAX { f64::INFINITY } else { f64::from(l) })
                        .collect()
                })[target as usize]
            }
            PointQuery::SsspDist { source, target } => {
                arrays.entry((true, source)).or_insert_with(|| {
                    oracle::dijkstra(&g, source).iter().map(|&d| f64::from(d)).collect()
                })[target as usize]
            }
            PointQuery::PrRank { .. } => unreachable!("the streams hold no PageRank queries"),
        };
        if let Err(why) = check::serve_answer(want, sample.value) {
            wrong += 1;
            ctx.notes.push(format!("CHECK FAILED request {}: {why}", sample.index));
        }
    }
    wrong
}

fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// Median latency of the answers that took `path`, in ms (0 when none did).
fn path_p50_ms(samples: &[Sample], path: AnswerPath) -> (f64, usize) {
    let xs: Vec<f64> = samples.iter().filter(|s| s.path == path).map(|s| s.latency_ms).collect();
    (if xs.is_empty() { 0.0 } else { stats::median(&xs) }, xs.len())
}

fn book_service_metrics(ctx: &mut Ctx<'_>, seen: &Seen, wall_s: f64, wrong: u64) {
    let (stats, samples) = (&seen.stats, &seen.samples);
    let answered = stats.answered;
    let m = &mut ctx.metrics;
    m.set("epg-serve.qps", answered as f64 / wall_s, answered as usize);
    for (name, part) in [
        ("exact_share", stats.exact),
        ("cached_share", stats.cached),
        ("landmark_share", stats.landmark),
        ("batched_share", stats.batched),
    ] {
        m.set(&format!("epg-serve.{name}"), share(part, answered), answered as usize);
    }
    let tried = stats.landmark + stats.landmark_fallthroughs;
    m.set(
        "epg-serve.landmark_fallthrough_share",
        share(stats.landmark_fallthroughs, tried),
        tried as usize,
    );
    m.set("epg-serve.cache_evictions", stats.cache.evictions as f64, 1);
    let (exact, n) = path_p50_ms(samples, AnswerPath::Exact);
    m.set("epg-serve.exact_p50_ms", exact, n);
    let (batched, n) = path_p50_ms(samples, AnswerPath::Batched);
    m.set("epg-serve.batched_p50_ms", batched, n);
    let (cached, n) = path_p50_ms(samples, AnswerPath::Cached);
    m.set("epg-serve.cached_p50_us", cached * 1e3, n);
    let (landmark, n) = path_p50_ms(samples, AnswerPath::Landmark);
    m.set("epg-serve.landmark_p50_us", landmark * 1e3, n);
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    m.set("epg-serve.p50_ms", stats::median(&latencies), latencies.len());
    m.set("epg-serve.p99_ms", stats::percentile(&latencies, 99.0), latencies.len());
    m.set("epg-serve.max_ms", latencies.iter().copied().fold(0.0, f64::max), latencies.len());
    let stalls = latencies.iter().filter(|&&l| l >= STALL_MS).count();
    m.set("epg-serve.stalls_1s", stalls as f64, latencies.len());
    m.set("epg-serve.rejected", stats.rejected as f64, 1);
    m.set("epg-serve.dnf", stats.dnf as f64, 1);
    m.set("epg-serve.failed", stats.failed as f64, 1);
    m.set("epg-serve.wrong_answers", wrong as f64, samples.len().div_ceil(CHECK_STRIDE));
}

pub fn run(ctx: &mut Ctx<'_>, plan: &Plan) {
    let per_round = plan.requests_per_round;
    let mut seen = Seen::default();
    let (st, rounds) = ctx.epochs(
        |ctx, parent| set_up(ctx, parent, plan),
        // One discarded warm-up round; the timed rounds continue the stream.
        |ctx, st, parent| {
            let at = At { epoch: 0, round: 0, first_in_epoch: false, parent };
            round(ctx, st, &mut Seen::default(), 0, per_round, at);
        },
        |ctx, st, at| {
            round(ctx, st, &mut seen, (at.round + 1) * per_round, per_round, at);
            ctx.outcome.attempted += per_round as u64;
        },
    );
    let wall_s: f64 = rounds.walls.iter().chain(&rounds.traced_walls).sum();
    ctx.outcome.failed += seen.refused;

    let open = ctx.tracer.open(ctx.root, 0, "epg-engine-api", "verify");
    let t = Instant::now();
    let wrong = verify(ctx, &st, &seen.samples);
    ctx.metrics.set("epg-engine-api.verify_s", t.elapsed().as_secs_f64(), 1);
    ctx.tracer.close(&mut ctx.spans, open);
    ctx.outcome.failed += wrong;

    let stats = &seen.stats;
    if stats.submitted != stats.answered + stats.rejected + stats.dnf + stats.failed {
        ctx.outcome.failed += 1;
        ctx.notes.push("CHECK FAILED: the service's counters do not partition its requests".into());
    }
    book_service_metrics(ctx, &seen, wall_s, wrong);
    ctx.notes.push(format!(
        "closed loop, {} clients, 1-thread service pool: latency excludes queueing delay",
        st.clients
    ));

    // Cells: exact-path answers by query kind, the traversals that set
    // sweep time. Cache and landmark hits are sub-microsecond, below timer
    // noise as a median; they are per-layer metrics.
    let mut cell_ms = Vec::new();
    for (label, want_sssp) in [("BfsDist", false), ("SsspDist", true)] {
        let (measured, nominal): (Vec<f64>, Vec<f64>) = seen
            .samples
            .iter()
            .filter(|s| s.path == AnswerPath::Exact)
            .filter(|s| {
                matches!(st.stream.request(s.index), PointQuery::SsspDist { .. }) == want_sssp
            })
            .map(|s| (s.latency_ms, rounds.at_nominal(s.epoch, s.latency_ms)))
            .unzip();
        if measured.is_empty() {
            continue;
        }
        ctx.notes.push(format!(
            "cell {label}/exact: median {:.4} ms as measured, n {}",
            stats::median(&measured),
            measured.len()
        ));
        cell_ms.push(stats::lower_quartile(&nominal));
    }
    let latencies: Vec<f64> = seen.samples.iter().map(|s| s.latency_ms).collect();
    ctx.end_to_end(&rounds, &cell_ms);
    ctx.op_tail(TAIL_PERCENTILE, &latencies);
    let regions = ctx.pool_counts(&seen.pool);

    if ctx.opts.trace {
        let probe = ctx.tracer.open(ctx.root, 0, "bench", "probes");
        probes::common(ctx, probe.id, &st.ds, &ThreadPool::new(ctx.host.threads));
        ctx.tracer.close(&mut ctx.spans, probe);
        probes::forkjoin_share(ctx, regions);
    }
}
