//! Concurrency-rule seeds: exactly one violation per concurrency rule id,
//! pinned to stable line numbers by the golden test. Never compiled.

/// A deliberately slow kernel the dataflow pass must catch two ways:
/// `SeqCst` inside the iteration loop and a per-round `collect`. (A direct
/// write to captured state from the worker is E0594 under `Fn + Sync`.)
pub fn slow_kernel(pool: &ThreadPool, rec: &mut Recorder, flag: &AtomicU32, out: &[u32]) {
    let mut rounds = 3usize;
    while rounds > 0 {
        flag.store(1, Ordering::SeqCst);
        let scratch: Vec<u32> = (0..rounds as u32).collect();
        pool.parallel_for(out.len(), Schedule::Static, |v| {
            let _ = out[v] + scratch[v % scratch.len()];
        });
        rounds -= 1;
        rec.iteration(rounds as u64);
    }
}
