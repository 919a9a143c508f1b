//! The reentrant query protocol.
//!
//! [`crate::Engine`] models the paper's batch experiments: one trial owns
//! the engine (`run(&mut self)`) and the pool for its whole duration.
//! A resident query service inverts that shape — the graph is loaded
//! once and many concurrent clients ask point questions against it — so
//! it needs a second protocol: shared-state queries through `&self`,
//! safe to call from many threads at once.
//!
//! [`QueryEngine`] is that protocol. Adapters (e.g. the GAP engine's
//! `into_query`) freeze a constructed engine's graph structure into an
//! immutable shape and dispatch kernels through the pool's
//! [`epg_parallel::ThreadPool::exclusive`] entry — concurrent inline lanes
//! on a 1-thread pool, one gated dispatcher at a time on a wider one —
//! honoring the per-request [`crate::RunParams::cancel`] budget. The trait is
//! object-safe on purpose: the serving layer stores `Arc<dyn
//! QueryEngine>` and stays engine-agnostic.

use crate::{Algorithm, EngineInfo, RunOutput, RunParams};
use epg_graph::VertexId;

/// A loaded, constructed, immutable graph engine that answers concurrent
/// queries. Implementations must be safe to share across serving threads
/// (`Send + Sync`), and `query` must be reentrant: any number of threads
/// may call it simultaneously. Adapters run each kernel inside the pool's
/// `exclusive` on the pool it hands out: a private lane per caller on a
/// 1-thread pool, so traversals run concurrently, and the pool itself
/// behind a gate on a wider one, so one traversal dispatches at a time.
pub trait QueryEngine: Send + Sync {
    /// Static metadata of the underlying engine.
    fn info(&self) -> EngineInfo;

    /// Whether this engine implements `algo` as a query.
    fn supports(&self, algo: Algorithm) -> bool;

    /// Number of vertices in the resident graph (for request validation).
    fn num_vertices(&self) -> usize;

    /// Out-degree of `v` in the resident graph. Serving layers use this
    /// to pick landmark vertices (highest-degree hubs) without reaching
    /// into engine internals.
    fn out_degree(&self, v: VertexId) -> usize;

    /// Runs one kernel against the resident graph. Unlike
    /// [`crate::Engine::run`] this takes `&self` and may be called from
    /// many threads concurrently. A tripped `params.cancel` budget
    /// surfaces as a cancelled [`RunOutput`] exactly as in batch trials.
    ///
    /// Panics if `supports(algo)` is false.
    fn query(&self, algo: Algorithm, params: &RunParams<'_>) -> RunOutput;
}

#[cfg(test)]
mod tests {
    use super::*;

    // The trait must stay object-safe: the serving layer holds it as
    // `Arc<dyn QueryEngine>`.
    #[test]
    fn query_engine_is_object_safe() {
        fn _takes_dyn(_q: &dyn QueryEngine) {}
    }
}
