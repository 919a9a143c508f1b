//! An OpenMP-like shared-memory parallel runtime.
//!
//! Every system the paper compares achieves parallelism through OpenMP
//! (PowerGraph adds user-level fibers on top, §III-C). Re-implementing the
//! engines in Rust therefore needs an equivalent substrate: a persistent
//! thread pool with fork-join *parallel regions*, worksharing loops with
//! OpenMP's three classic schedules (`static`, `dynamic`, `guided`),
//! reductions, and the atomic read-modify-write helpers graph kernels lean
//! on (atomic min over `f32`, etc.).
//!
//! The pool is deliberately small and auditable rather than work-stealing:
//! these engines' OpenMP loops are flat worksharing constructs, and keeping
//! scheduling explicit lets the machine model in `epg-machine` reason about
//! chunk dispatch counts.
//!
//! # Example
//! ```
//! use epg_parallel::{ThreadPool, Schedule};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let pool = ThreadPool::new(4);
//! let hits = AtomicU64::new(0);
//! pool.parallel_for(1000, Schedule::Dynamic { chunk: 64 }, |_i| {
//!     hits.fetch_add(1, Ordering::Relaxed);
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 1000);
//! ```

#![warn(missing_docs)]
mod atomics;
mod bitmaps;
mod cancel;
mod check;
mod per_worker;
mod pool;
mod reduce;
mod scan;
mod schedule;
mod writer;

pub use atomics::{atomic_min_u32, AtomicF32, AtomicF64};
pub use bitmaps::{Marks, WorkerBitmaps};
pub use cancel::CancelToken;
pub use check::current_worker_id;
pub use per_worker::PerWorker;
pub use pool::{PoolStats, ThreadPool};
pub use schedule::Schedule;
pub use writer::DisjointWriter;
