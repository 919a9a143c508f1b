//! Concurrency-rule seed: exactly one violation of `atomic-ordering`,
//! pinned to a stable line number by the golden test. Never compiled.

/// A deliberately slow kernel the dataflow pass must catch: `SeqCst`
/// inside the iteration loop. (A direct write to captured state from the
/// worker is E0594 under `Fn + Sync`.)
pub fn slow_kernel(pool: &ThreadPool, rec: &mut Recorder, flag: &AtomicU32, out: &[u32]) {
    let mut rounds = 3usize;
    while rounds > 0 {
        flag.store(1, Ordering::SeqCst);
        pool.parallel_for(out.len(), Schedule::Static, |v| {
            let _ = out[v] + rounds as u32;
        });
        rounds -= 1;
        rec.iteration(rounds as u64);
    }
}
