//! Reach seeds: violations visible only through the call graph — each
//! helper's token sits outside its rule's region, so it is reported at
//! the timed call that reaches it, not where it sits (the clock read
//! excepted: it is in its region). Never compiled.

/// Drives every helper from one timed loop; each call line below but
/// `stamp`'s is the anchor of exactly one finding through the graph.
pub fn deep_kernel(pool: &ThreadPool, rec: &mut Recorder, levels: &[Vec<u32>]) {
    let mut rounds = levels.len();
    while rounds > 0 {
        if pool.is_cancelled() {
            break;
        }
        let seed = pick_first(levels);
        let mark = stamp(seed as usize);
        let text = fetch_labels("labels.txt");
        rounds -= 1;
        rec.iteration((mark + text.len()) as u64);
    }
}

/// Panics outside any loop: invisible to the line-local rule, fatal
/// under the timed span above.
fn pick_first(levels: &[Vec<u32>]) -> u32 {
    levels.first().and_then(|l| l.first()).copied().unwrap()
}

/// Reads the clock: reported where it sits, never at the timed call.
fn stamp(seed: usize) -> usize {
    let t0 = std::time::Instant::now();
    seed + t0.elapsed().as_nanos() as usize
}

/// Re-enters the read phase from the timed loop through `load_file`.
fn fetch_labels(path: &str) -> String {
    load_file(path)
}
