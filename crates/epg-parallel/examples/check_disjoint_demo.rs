//! Demonstrates the `DisjointWriter` race detector end to end:
//!
//! ```text
//! cargo run -p epg-parallel --example check_disjoint_demo
//! ```
//!
//! A disjoint vertex-parallel write runs clean; an intentionally aliased
//! one trips the shadow table, and the pool propagates the panic (naming
//! both conflicting workers) back to the caller, where it is caught and
//! printed here. The shadow table exists only in debug builds; with
//! `--release` the aliased kernel runs unchecked.

use epg_parallel::{DisjointWriter, Schedule, ThreadPool};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn main() {
    let pool = ThreadPool::new(4);

    let mut out = vec![0usize; 16];
    {
        let w = DisjointWriter::new(&mut out);
        // SAFETY: parallel_for hands each index i to exactly one worker.
        pool.parallel_for(16, Schedule::Static { chunk: None }, |i| unsafe {
            w.write(i, i * i);
        });
    }
    println!("disjoint kernel: ok, out[15] = {}", out[15]);

    let mut aliased = vec![0usize; 8];
    let w = DisjointWriter::new(&mut aliased);
    let result = catch_unwind(AssertUnwindSafe(|| {
        // SAFETY: deliberately violates the disjointness contract — every
        // index collapses onto slot 0 so the detector has something to say.
        pool.parallel_for(8, Schedule::Static { chunk: None }, |_i| unsafe {
            w.write(0, 1);
        });
    }));
    match result {
        Ok(()) => println!("aliased kernel: no overlap detected (release build: no shadow table)"),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "<non-string panic>".into());
            println!("aliased kernel: caught -> {msg}");
        }
    }
}
