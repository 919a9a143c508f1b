//! The serving pipeline: admission → landmark → cache → kernel.
//!
//! [`ServeService`] composes the crate's stages over any
//! [`QueryEngine`]. Each request flows through the stages in order and
//! stops at the first one that can answer it; the stage that answered
//! is stamped on the [`Answer`] (and, when a recorder is attached, on a
//! [`TraceEvent::Query`]), so the load generator can attribute
//! throughput to amortization rather than guessing. Every path is
//! answer-preserving: landmarks answer only when provably exact and the
//! cache hands back the very `Arc` a kernel produced, so all three
//! paths are byte-identical to a fresh sequential traversal (pinned by
//! differential tests in `tests/`).

use crate::admission::Admission;
use crate::cache::{CacheStats, SourceArray, SourceCache, SourceKey};
use crate::landmark::LandmarkIndex;
use crate::ServeError;
use epg_engine_api::{Algorithm, AlgorithmResult, QueryEngine, RunParams};
use epg_graph::VertexId;
use epg_parallel::{CancelToken, ThreadPool};
use epg_trace::{Recorder, TraceEvent};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serving knobs. [`ServeConfig::default`] is the full pipeline;
/// [`ServeConfig::naive`] disables every amortization stage and is the
/// reference the differential wall compares against.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeConfig {
    /// Source arrays the LRU cache holds (0 disables caching entirely).
    pub cache_capacity: usize,
    /// Landmarks to precompute (0 disables the oracle stage). Sound
    /// only on symmetrized graphs — see the `landmark` module docs.
    pub landmarks: usize,
    /// Concurrent requests admitted before shedding load.
    pub max_pending: usize,
    /// Per-request SLO: a traversal running past this budget unwinds
    /// cooperatively and the request reports `DeadlineExceeded` (DNF).
    pub request_budget: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { cache_capacity: 32, landmarks: 0, max_pending: 1024, request_budget: None }
    }
}

impl ServeConfig {
    /// The unamortized baseline: every request runs its own traversal.
    pub fn naive() -> ServeConfig {
        ServeConfig { cache_capacity: 0, landmarks: 0, ..ServeConfig::default() }
    }
}

/// One point query, the unit of serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointQuery {
    /// Hop distance from `source` to `target` (BFS).
    BfsDist {
        /// Traversal source.
        source: VertexId,
        /// Vertex whose hop count is wanted.
        target: VertexId,
    },
    /// Weighted shortest-path distance from `source` to `target` (SSSP).
    SsspDist {
        /// Traversal source.
        source: VertexId,
        /// Vertex whose distance is wanted.
        target: VertexId,
    },
    /// PageRank rank of one vertex.
    PrRank {
        /// Vertex whose rank is wanted.
        vertex: VertexId,
    },
}

impl PointQuery {
    /// The algorithm that computes this query's source array.
    pub fn algo(&self) -> Algorithm {
        match self {
            PointQuery::BfsDist { .. } => Algorithm::Bfs,
            PointQuery::SsspDist { .. } => Algorithm::Sssp,
            PointQuery::PrRank { .. } => Algorithm::PageRank,
        }
    }

    /// Cache key: the traversal that answers this query. PageRank
    /// has no source; its one whole-graph result is keyed at source 0.
    pub fn source_key(&self) -> SourceKey {
        let source = match self {
            PointQuery::BfsDist { source, .. } | PointQuery::SsspDist { source, .. } => *source,
            PointQuery::PrRank { .. } => 0,
        };
        SourceKey { algo: self.algo(), source }
    }

    /// `(s, t)` for distance queries (the landmark stage's shape);
    /// `None` for rank lookups.
    pub fn endpoints(&self) -> Option<(VertexId, VertexId)> {
        match self {
            PointQuery::BfsDist { source, target } | PointQuery::SsspDist { source, target } => {
                Some((*source, *target))
            }
            PointQuery::PrRank { .. } => None,
        }
    }

    /// The vertex whose entry in the source array is the answer.
    pub fn lookup_vertex(&self) -> VertexId {
        match self {
            PointQuery::BfsDist { target, .. } | PointQuery::SsspDist { target, .. } => *target,
            PointQuery::PrRank { vertex } => *vertex,
        }
    }

    fn vertices(&self) -> [VertexId; 2] {
        match self {
            PointQuery::BfsDist { source, target } | PointQuery::SsspDist { source, target } => {
                [*source, *target]
            }
            PointQuery::PrRank { vertex } => [*vertex, *vertex],
        }
    }
}

/// Which pipeline stage produced an answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerPath {
    /// A fresh traversal ran for this request.
    Exact,
    /// No path produces this any more. It stays only because `bench/`
    /// names it, and goes once the benchmark stops reporting
    /// `batched_share` and `batched_p50_ms`.
    Batched,
    /// Served from a resident source array.
    Cached,
    /// Pinned exactly by the landmark index's triangle bounds.
    Landmark,
}

impl AnswerPath {
    /// Stable label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            AnswerPath::Exact => "exact",
            AnswerPath::Batched => "batched",
            AnswerPath::Cached => "cached",
            AnswerPath::Landmark => "landmark",
        }
    }
}

/// An answered point query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Answer {
    /// The answer, widened to `f64` (`+∞` means unreachable).
    pub value: f64,
    /// The pipeline stage that produced it.
    pub path: AnswerPath,
}

/// Consistent-at-quiescence snapshot of the service counters. Two exact
/// invariants hold whenever no request is mid-flight:
/// `submitted == answered + rejected + dnf + failed` and
/// `answered == exact + cached + landmark`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Requests received (before admission).
    pub submitted: u64,
    /// Requests that produced an answer.
    pub answered: u64,
    /// Requests shed at admission (`Overloaded`) or refused up front
    /// (`Unsupported`, `BadVertex`).
    pub rejected: u64,
    /// Requests whose budget tripped mid-traversal (serving DNFs).
    pub dnf: u64,
    /// Requests whose traversal failed internally (`ServeError::Internal`).
    pub failed: u64,
    /// Answers from a fresh traversal.
    pub exact: u64,
    /// Always 0: no path produces [`AnswerPath::Batched`] any more. It
    /// stays only because `bench/` names it, and goes with that variant.
    pub batched: u64,
    /// Answers from the source cache.
    pub cached: u64,
    /// Answers pinned by the landmark index.
    pub landmark: u64,
    /// Distance queries the landmark stage saw but could not pin.
    pub landmark_fallthroughs: u64,
    /// Source-cache counters.
    pub cache: CacheStats,
    /// Requests holding an admission permit right now.
    pub pending: usize,
}

#[derive(Default)]
struct PathCounters {
    submitted: AtomicU64,
    answered: AtomicU64,
    rejected: AtomicU64,
    dnf: AtomicU64,
    failed: AtomicU64,
    exact: AtomicU64,
    cached: AtomicU64,
    landmark: AtomicU64,
    landmark_fallthroughs: AtomicU64,
}

/// The resident-graph query service.
pub struct ServeService {
    engine: Arc<dyn QueryEngine>,
    pool: Arc<ThreadPool>,
    request_budget: Option<Duration>,
    admission: Admission,
    cache: SourceCache,
    landmarks: Option<LandmarkIndex>,
    counters: PathCounters,
    recorder: Option<Arc<dyn Recorder>>,
}

/// One full traversal through the engine's query surface, with an
/// optional cancellation budget. A panicking kernel is one
/// `Internal` failure, not an unwind out of the service: the pool's
/// lane drops, or its gate and the engine's token guard release, on the
/// way out, so the next request dispatches normally.
fn run_source(
    engine: &dyn QueryEngine,
    pool: &ThreadPool,
    algo: Algorithm,
    source: VertexId,
    budget: Option<Duration>,
) -> Result<Arc<SourceArray>, ServeError> {
    let mut params = RunParams::new(pool, Some(source));
    params.cancel = budget.map(CancelToken::with_deadline);
    let out = catch_unwind(AssertUnwindSafe(|| engine.query(algo, &params)))
        .map_err(|_| ServeError::Internal)?;
    if out.cancelled {
        return Err(ServeError::DeadlineExceeded);
    }
    match out.result {
        AlgorithmResult::BfsTree { level, .. } => Ok(Arc::new(SourceArray::Levels(level))),
        AlgorithmResult::Distances(d) => Ok(Arc::new(SourceArray::Dists(d))),
        AlgorithmResult::Ranks { ranks, .. } => Ok(Arc::new(SourceArray::Ranks(ranks))),
        _ => Err(ServeError::Internal),
    }
}

impl ServeService {
    /// Builds the service over a constructed engine, precomputing the
    /// landmark index when `config.landmarks > 0` (each landmark row is
    /// one unbudgeted traversal through the same exact pipeline queries
    /// use; SSSP rows are built only when the engine supports SSSP).
    pub fn new(
        engine: Arc<dyn QueryEngine>,
        pool: Arc<ThreadPool>,
        config: ServeConfig,
    ) -> ServeService {
        let landmarks = (config.landmarks > 0).then(|| {
            LandmarkIndex::build(
                config.landmarks,
                engine.num_vertices(),
                |v| engine.out_degree(v),
                |algo, v| run_source(&*engine, &pool, algo, v, None).ok(),
                engine.supports(Algorithm::Sssp),
            )
        });
        ServeService {
            admission: Admission::new(config.max_pending),
            cache: SourceCache::new(config.cache_capacity),
            landmarks,
            counters: PathCounters::default(),
            recorder: None,
            engine,
            pool,
            request_budget: config.request_budget,
        }
    }

    /// Attaches a trace sink; each request emits one
    /// [`TraceEvent::Query`].
    pub fn set_recorder(&mut self, recorder: Option<Arc<dyn Recorder>>) {
        self.recorder = recorder;
    }

    /// Vertices in the resident graph.
    pub fn num_vertices(&self) -> usize {
        self.engine.num_vertices()
    }

    /// Answers one point query through the pipeline.
    pub fn answer(&self, q: &PointQuery) -> Result<Answer, ServeError> {
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let result = self.answer_inner(q);
        let (bucket, label) = match &result {
            Ok(a) => (
                match a.path {
                    AnswerPath::Exact => &self.counters.exact,
                    AnswerPath::Batched => unreachable!("no stage answers Batched"),
                    AnswerPath::Cached => &self.counters.cached,
                    AnswerPath::Landmark => &self.counters.landmark,
                },
                a.path.label(),
            ),
            Err(ServeError::DeadlineExceeded) => (&self.counters.dnf, "dnf"),
            Err(ServeError::Internal) => (&self.counters.failed, "failed"),
            Err(ServeError::Overloaded { .. }) => (&self.counters.rejected, "overloaded"),
            Err(ServeError::Unsupported(_)) => (&self.counters.rejected, "unsupported"),
            Err(ServeError::BadVertex { .. }) => (&self.counters.rejected, "bad_vertex"),
        };
        bucket.fetch_add(1, Ordering::Relaxed);
        if result.is_ok() {
            self.counters.answered.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(rec) = &self.recorder {
            rec.record(TraceEvent::Query {
                algo: q.algo().abbrev().to_string(),
                path: label.to_string(),
                latency_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                ok: result.is_ok(),
            });
        }
        result
    }

    fn answer_inner(&self, q: &PointQuery) -> Result<Answer, ServeError> {
        let algo = q.algo();
        if !self.engine.supports(algo) {
            return Err(ServeError::Unsupported(algo));
        }
        let n = self.engine.num_vertices();
        for v in q.vertices() {
            if (v as usize) >= n {
                return Err(ServeError::BadVertex { vertex: v, num_vertices: n });
            }
        }
        let Some(_permit) = self.admission.try_acquire() else {
            return Err(ServeError::Overloaded {
                pending: self.admission.pending(),
                max_pending: self.admission.max_pending(),
            });
        };

        // Landmark stage: O(landmarks), answers only when provably exact.
        if let (Some(idx), Some((s, t))) = (&self.landmarks, q.endpoints()) {
            if let Some(value) = idx.estimate(algo, s, t) {
                return Ok(Answer { value, path: AnswerPath::Landmark });
            }
            self.counters.landmark_fallthroughs.fetch_add(1, Ordering::Relaxed);
        }

        let key = q.source_key();
        if let Some(arr) = self.cache.lookup(&key) {
            return Ok(Answer { value: arr.value_at(q.lookup_vertex()), path: AnswerPath::Cached });
        }

        let arr = run_source(&*self.engine, &self.pool, algo, key.source, self.request_budget)?;
        self.cache.insert(key, Arc::clone(&arr));
        Ok(Answer { value: arr.value_at(q.lookup_vertex()), path: AnswerPath::Exact })
    }

    /// Counter snapshot (see [`ServeStats`] for its invariants).
    pub fn stats(&self) -> ServeStats {
        let c = &self.counters;
        ServeStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            answered: c.answered.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            dnf: c.dnf.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            exact: c.exact.load(Ordering::Relaxed),
            batched: 0,
            cached: c.cached.load(Ordering::Relaxed),
            landmark: c.landmark.load(Ordering::Relaxed),
            landmark_fallthroughs: c.landmark_fallthroughs.load(Ordering::Relaxed),
            cache: self.cache.stats(),
            pending: self.admission.pending(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epg_engine_api::{EngineInfo, RunOutput};
    use epg_trace::RunRecorder;
    use parking_lot::{Condvar, Mutex};
    use std::sync::atomic::AtomicUsize;

    /// A path graph 0–1–…–(n−1) with closed-form answers, plus a gate
    /// the tests can hold closed to pin traversals in flight. Every
    /// traversal dispatches one pool region, as the real adapters do;
    /// that region panics when the source is `panic_on`.
    struct PathEngine {
        n: usize,
        calls: AtomicUsize,
        gate: Mutex<bool>, // true = closed
        cv: Condvar,
        panic_on: Option<VertexId>,
    }

    impl PathEngine {
        fn new(n: usize) -> PathEngine {
            PathEngine {
                n,
                calls: AtomicUsize::new(0),
                gate: Mutex::new(false),
                cv: Condvar::new(),
                panic_on: None,
            }
        }

        fn close_gate(&self) {
            *self.gate.lock() = true;
        }

        fn open_gate(&self) {
            *self.gate.lock() = false;
            self.cv.notify_all();
        }

        fn calls(&self) -> usize {
            self.calls.load(Ordering::Relaxed)
        }
    }

    impl QueryEngine for PathEngine {
        fn info(&self) -> EngineInfo {
            EngineInfo {
                name: "path-mock",
                representation: "closed form",
                parallelism: "none",
                distributed_capable: false,
                requires_proprietary_compiler: false,
            }
        }

        fn supports(&self, algo: Algorithm) -> bool {
            matches!(algo, Algorithm::Bfs | Algorithm::Sssp | Algorithm::PageRank)
        }

        fn num_vertices(&self) -> usize {
            self.n
        }

        fn out_degree(&self, v: VertexId) -> usize {
            if v as usize == 0 || v as usize == self.n - 1 {
                1
            } else {
                2
            }
        }

        fn query(&self, algo: Algorithm, params: &RunParams<'_>) -> RunOutput {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let mut gate = self.gate.lock();
            while *gate {
                self.cv.wait(&mut gate);
            }
            drop(gate);
            if params.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                return RunOutput::new(
                    AlgorithmResult::Distances(vec![]),
                    Default::default(),
                    Default::default(),
                )
                .cancelled(true);
            }
            let root = params.root.unwrap_or(0);
            params.pool.exclusive(|pool| {
                pool.region(|_| assert_ne!(self.panic_on, Some(root), "injected kernel fault"))
            });
            let result = match algo {
                Algorithm::Bfs => AlgorithmResult::BfsTree {
                    parent: vec![0; self.n],
                    level: (0..self.n as u32).map(|v| v.abs_diff(root)).collect(),
                },
                Algorithm::Sssp => AlgorithmResult::Distances(
                    (0..self.n as u32).map(|v| v.abs_diff(root) as f32).collect(),
                ),
                Algorithm::PageRank => AlgorithmResult::Ranks {
                    ranks: vec![1.0 / self.n as f64; self.n],
                    iterations: 1,
                },
                _ => unreachable!("unsupported algo dispatched"),
            };
            RunOutput::new(result, Default::default(), Default::default())
        }
    }

    fn service(n: usize, config: ServeConfig) -> (Arc<PathEngine>, ServeService) {
        service_over(PathEngine::new(n), 1, config)
    }

    fn service_over(
        engine: PathEngine,
        threads: usize,
        config: ServeConfig,
    ) -> (Arc<PathEngine>, ServeService) {
        let engine = Arc::new(engine);
        let pool = Arc::new(ThreadPool::new(threads));
        let svc = ServeService::new(Arc::clone(&engine) as Arc<dyn QueryEngine>, pool, config);
        (engine, svc)
    }

    #[test]
    fn second_same_source_query_is_served_from_cache() {
        let (engine, svc) = service(8, ServeConfig::default());
        let q1 = PointQuery::BfsDist { source: 2, target: 5 };
        let q2 = PointQuery::BfsDist { source: 2, target: 7 };
        let a1 = svc.answer(&q1).unwrap();
        let a2 = svc.answer(&q2).unwrap();
        assert_eq!((a1.value, a1.path), (3.0, AnswerPath::Exact));
        assert_eq!((a2.value, a2.path), (5.0, AnswerPath::Cached));
        assert_eq!(engine.calls(), 1, "one traversal answers both");
    }

    #[test]
    fn naive_config_recomputes_every_request() {
        let (engine, svc) = service(8, ServeConfig::naive());
        for _ in 0..3 {
            let a = svc.answer(&PointQuery::SsspDist { source: 0, target: 4 }).unwrap();
            assert_eq!((a.value, a.path), (4.0, AnswerPath::Exact));
        }
        assert_eq!(engine.calls(), 3, "no amortization in naive mode");
    }

    #[test]
    fn concurrent_same_source_queries_each_run_a_traversal() {
        let (engine, svc) =
            service(16, ServeConfig { cache_capacity: 0, ..ServeConfig::default() });
        engine.close_gate();
        let mut answers = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let svc = &svc;
                    s.spawn(move || svc.answer(&PointQuery::BfsDist { source: 3, target: 3 + i }))
                })
                .collect();
            // Wait until all three are in the kernel at once, then let
            // their traversals finish.
            while engine.calls() < 3 {
                std::thread::yield_now();
            }
            engine.open_gate();
            answers.extend(handles.into_iter().map(|h| h.join().unwrap().unwrap()));
        });
        assert_eq!(engine.calls(), 3, "three requests, three traversals");
        let mut values: Vec<f64> = answers.iter().map(|a| a.value).collect();
        values.sort_by(f64::total_cmp);
        assert_eq!(values, [0.0, 1.0, 2.0], "hop distances from source 3");
        assert!(answers.iter().all(|a| a.path == AnswerPath::Exact));
        let s = svc.stats();
        assert_eq!((s.exact, s.batched), (3, 0));
    }

    #[test]
    fn a_panicking_kernel_is_one_failed_answer_and_the_pool_stays_usable() {
        for threads in [1, 2] {
            let engine = PathEngine { panic_on: Some(5), ..PathEngine::new(8) };
            let (_engine, svc) = service_over(engine, threads, ServeConfig::default());
            let bad = svc.answer(&PointQuery::BfsDist { source: 5, target: 1 });
            assert_eq!(bad, Err(ServeError::Internal), "{threads} thread(s)");
            let next = svc.answer(&PointQuery::SsspDist { source: 2, target: 7 }).unwrap();
            assert_eq!((next.value, next.path), (5.0, AnswerPath::Exact), "{threads} thread(s)");
            let s = svc.stats();
            assert_eq!((s.failed, s.answered), (1, 1), "{threads} thread(s)");
            assert_eq!(s.submitted, s.answered + s.rejected + s.dnf + s.failed);
            assert_eq!(s.pending, 0, "the failed request released its admission permit");
        }
    }

    #[test]
    fn landmark_stage_answers_exactly_or_falls_through() {
        // One landmark: the highest-degree vertex is an interior one.
        let (engine, svc) = service(8, ServeConfig { landmarks: 1, ..ServeConfig::default() });
        let built = engine.calls();
        assert!(built >= 1, "landmark rows were precomputed");
        // A query whose source is the landmark is answered from the row.
        let landmark = svc.landmarks.as_ref().unwrap().landmarks()[0];
        let a = svc.answer(&PointQuery::BfsDist { source: landmark, target: 0 }).unwrap();
        assert_eq!(a.path, AnswerPath::Landmark);
        assert_eq!(a.value, f64::from(landmark));
        assert_eq!(engine.calls(), built, "no traversal ran");
        // An unpinnable query falls through to the exact path, same answer.
        let far = PointQuery::BfsDist { source: 0, target: 7 };
        let b = svc.answer(&far).unwrap();
        assert_eq!((b.value, b.path), (7.0, AnswerPath::Exact));
        assert!(svc.stats().landmark_fallthroughs >= 1);
    }

    #[test]
    fn admission_bound_rejects_with_context() {
        let (_engine, svc) = service(4, ServeConfig { max_pending: 0, ..ServeConfig::default() });
        let err = svc.answer(&PointQuery::PrRank { vertex: 1 }).unwrap_err();
        assert_eq!(err, ServeError::Overloaded { pending: 0, max_pending: 0 });
        assert_eq!(svc.stats().rejected, 1);
    }

    #[test]
    fn bad_requests_are_refused_before_admission() {
        let (engine, svc) = service(4, ServeConfig::default());
        assert_eq!(
            svc.answer(&PointQuery::BfsDist { source: 0, target: 9 }),
            Err(ServeError::BadVertex { vertex: 9, num_vertices: 4 })
        );
        assert_eq!(engine.calls(), 0);
        assert_eq!(svc.stats().rejected, 1);
    }

    #[test]
    fn expired_budget_reports_a_serving_dnf() {
        let (_engine, svc) = service(
            8,
            ServeConfig { request_budget: Some(Duration::ZERO), ..ServeConfig::default() },
        );
        let err = svc.answer(&PointQuery::BfsDist { source: 1, target: 2 }).unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded);
        assert_eq!(svc.stats().dnf, 1);
    }

    #[test]
    fn stats_buckets_partition_submissions_exactly() {
        let (_engine, svc) = service(8, ServeConfig::default());
        let _ = svc.answer(&PointQuery::BfsDist { source: 0, target: 3 }); // exact
        let _ = svc.answer(&PointQuery::BfsDist { source: 0, target: 5 }); // cached
        let _ = svc.answer(&PointQuery::BfsDist { source: 0, target: 99 }); // rejected
        let _ = svc.answer(&PointQuery::PrRank { vertex: 2 }); // exact
        let s = svc.stats();
        assert_eq!(s.submitted, s.answered + s.rejected + s.dnf + s.failed);
        assert_eq!(s.answered, s.exact + s.cached + s.landmark);
        assert_eq!((s.exact, s.cached, s.rejected), (2, 1, 1));
    }

    #[test]
    fn each_request_emits_one_query_trace_event() {
        let (_engine, mut svc) = service(8, ServeConfig::default());
        let rec = Arc::new(RunRecorder::new());
        svc.set_recorder(Some(Arc::clone(&rec) as Arc<dyn Recorder>));
        let _ = svc.answer(&PointQuery::SsspDist { source: 1, target: 4 });
        let _ = svc.answer(&PointQuery::SsspDist { source: 1, target: 6 });
        let _ = svc.answer(&PointQuery::BfsDist { source: 0, target: 99 });
        let events = rec.events();
        let paths: Vec<(String, String, bool)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Query { algo, path, ok, .. } => Some((algo.clone(), path.clone(), *ok)),
                _ => None,
            })
            .collect();
        assert_eq!(
            paths,
            vec![
                ("SSSP".into(), "exact".into(), true),
                ("SSSP".into(), "cached".into(), true),
                ("BFS".into(), "bad_vertex".into(), false),
            ]
        );
    }
}
