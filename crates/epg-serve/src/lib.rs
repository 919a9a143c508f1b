//! `epg-serve` — the resident-graph query service.
//!
//! The paper's harness measures batch trials: one process, one `run()`,
//! one result. The ROADMAP's north star is the opposite shape — a
//! long-lived process that loads the CSR once and answers *point
//! queries* (BFS hop distance, SSSP distance, PageRank rank lookup)
//! from many concurrent clients, where throughput comes from
//! amortization rather than raw kernel speed. This crate is that
//! serving layer, a pipeline of four stages (DESIGN.md §14):
//!
//! ```text
//! request → admission → landmark → cache → batcher → kernel
//!             (bounded   (O(1)     (LRU of  (same-   (QueryEngine
//!              queue,     exact     per-     source    through the
//!              DNF-aware  estimates source    attach)   pool's
//!              rejection) or fall   arrays)             exclusive:
//!                         through)                      a lane per
//!                                                       request at 1
//!                                                       thread, else
//!                                                       one gate)
//! ```
//!
//! * [`admission::Admission`] bounds the number of requests in flight;
//!   excess load is rejected immediately (`Overloaded`), and each
//!   admitted request carries a [`epg_parallel::CancelToken`] deadline
//!   so a query past its SLO unwinds cooperatively and reports DNF
//!   instead of stalling the queue.
//! * [`landmark::LandmarkIndex`] optionally answers distance queries in
//!   O(landmarks) time from precomputed per-landmark arrays — only when
//!   the triangle bounds pin the answer *exactly*; anything else falls
//!   through to the exact path, so landmark mode never changes answers.
//! * [`cache::SourceCache`] is a bounded LRU of whole per-source result
//!   arrays: one cached BFS from source `s` answers every `(s, *)` hop
//!   query for free.
//! * [`batch::Batcher`] implements the GAP same-source trick across
//!   concurrent clients: requests landing on a source while an
//!   expansion for it is in flight attach to that flight, and all of
//!   them resolve from one traversal.
//!
//! [`service::ServeService`] composes the stages over any
//! [`epg_engine_api::QueryEngine`]; [`session`] speaks a line protocol
//! over arbitrary reader/writer pairs (the `epg serve` CLI binds it to
//! stdio or TCP).

#![warn(missing_docs)]
pub mod admission;
pub mod batch;
pub mod cache;
pub mod landmark;
pub mod service;
pub mod session;

pub use cache::{CacheStats, SourceArray, SourceCache, SourceKey};
pub use service::{Answer, AnswerPath, PointQuery, ServeConfig, ServeService, ServeStats};

use epg_engine_api::Algorithm;

/// Why a request was not answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission rejected the request: the pending-queue bound is full.
    Overloaded {
        /// Requests in flight when the request arrived.
        pending: usize,
        /// The configured bound.
        max_pending: usize,
    },
    /// The per-request budget tripped mid-traversal; the expansion was
    /// abandoned cooperatively (the serving analogue of a DNF trial).
    DeadlineExceeded,
    /// The engine behind the service does not implement this algorithm.
    Unsupported(Algorithm),
    /// A vertex id outside `0..num_vertices`.
    BadVertex {
        /// The offending id.
        vertex: u32,
        /// Number of vertices in the resident graph.
        num_vertices: usize,
    },
    /// The traversal computing this answer failed (leader panicked).
    Internal,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { pending, max_pending } => {
                write!(f, "overloaded: {pending} requests in flight (bound {max_pending})")
            }
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded (request budget tripped)"),
            ServeError::Unsupported(algo) => write!(f, "unsupported algorithm {}", algo.abbrev()),
            ServeError::BadVertex { vertex, num_vertices } => {
                write!(f, "vertex {vertex} out of range (graph has {num_vertices} vertices)")
            }
            ServeError::Internal => write!(f, "internal error computing the answer"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let e = ServeError::Overloaded { pending: 7, max_pending: 4 };
        assert!(e.to_string().contains("7 requests in flight (bound 4)"));
        assert!(ServeError::Unsupported(Algorithm::Lcc).to_string().contains("LCC"));
        assert!(ServeError::BadVertex { vertex: 9, num_vertices: 4 }
            .to_string()
            .contains("vertex 9 out of range"));
    }
}
