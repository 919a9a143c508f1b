//! Concurrency-rule seeds: exactly one violation per concurrency rule id,
//! pinned to stable line numbers by the golden test. Never compiled.

/// A deliberately racy kernel the dataflow pass must catch three ways:
/// `SeqCst` inside the iteration loop, a per-round `collect`, and a
/// direct write to captured state from a worker.
pub fn racy_kernel(pool: &ThreadPool, rec: &mut Recorder, flag: &AtomicU32, out: &mut [u32]) {
    let mut rounds = 3usize;
    while rounds > 0 {
        flag.store(1, Ordering::SeqCst);
        let scratch: Vec<u32> = (0..rounds as u32).collect();
        pool.parallel_for(out.len(), Schedule::Static, |v| {
            out[v] = scratch[v % scratch.len()];
        });
        rounds -= 1;
        rec.iteration(rounds as u64);
    }
}
