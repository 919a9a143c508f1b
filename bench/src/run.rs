//! What every workload shares: the run context, the set-up / warm-up /
//! timed-rounds / check skeleton, and the metric store.

use crate::check::Outcome;
use crate::host::{self, Host, Reference, NOMINAL_REF_S};
use crate::span::{Span, Tracer};
use crate::stats;
use epg::parallel::PoolStats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Epochs (fresh set-ups) per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs that finish in seconds: checks on, bounds meaningless.
    pub quick: bool,
}

/// Metric name → (value, samples behind it).
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, usize)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        self.0.insert(name.to_string(), (value, n));
    }

    pub fn get(&self, name: &str) -> Option<(f64, usize)> {
        self.0.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }
}

pub struct Ctx<'a> {
    pub opts: &'a Opts,
    pub host: &'a Host,
    reference: Reference,
    pub tracer: Tracer,
    pub spans: Vec<Span>,
    /// Id of the workload span (0 when tracing is off).
    pub root: u64,
    pub metrics: Metrics,
    pub outcome: Outcome,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
}

/// What the pool dispatched in each timed round.
#[derive(Default)]
pub struct PoolCounts {
    regions: Vec<f64>,
    chunks: Vec<f64>,
    data_rmw: Vec<f64>,
}

impl PoolCounts {
    /// Adds one round from the pool's statistics before and after it.
    pub fn add(&mut self, before: PoolStats, after: PoolStats) {
        self.regions.push((after.regions - before.regions) as f64);
        self.chunks.push((after.chunks - before.chunks) as f64);
        self.data_rmw.push((after.data_rmw - before.data_rmw) as f64);
    }
}

/// Wall times of the timed rounds of one run, and how fast the host was.
pub struct Rounds {
    /// Rounds the end-to-end numbers come from (tracing off), as measured.
    pub walls: Vec<f64>,
    /// The epoch each of `walls` belongs to.
    pub epoch_of: Vec<usize>,
    /// Rounds rerun with spans on (traced runs only).
    pub traced_walls: Vec<f64>,
    /// Per epoch, the median reference pass over [`NOMINAL_REF_S`]: above 1
    /// while the host is slower than nominal.
    pub host_factor: Vec<f64>,
}

impl Rounds {
    /// Seconds measured in `epoch`, taken at the nominal host speed.
    pub fn at_nominal(&self, epoch: usize, secs: f64) -> f64 {
        secs / self.host_factor[epoch]
    }

    /// The round walls at the nominal host speed.
    pub fn walls_at_nominal(&self) -> Vec<f64> {
        self.walls.iter().zip(&self.epoch_of).map(|(&w, &e)| self.at_nominal(e, w)).collect()
    }
}

/// Where in the run a round is.
#[derive(Clone, Copy, Debug)]
pub struct At {
    /// The epoch (set-up) the round runs in.
    pub epoch: usize,
    /// Index of the round within the run, counting across epochs.
    pub round: usize,
    /// The epoch's first round: its outputs are kept for the output check.
    pub first_in_epoch: bool,
    /// The span to parent the round's spans on.
    pub parent: u64,
}

impl<'a> Ctx<'a> {
    pub fn new(opts: &'a Opts, host: &'a Host) -> Ctx<'a> {
        Ctx {
            opts,
            host,
            reference: Reference::new(),
            tracer: Tracer::new(opts.trace),
            spans: Vec::new(),
            root: 0,
            metrics: Metrics::default(),
            outcome: Outcome::default(),
            notes: Vec::new(),
        }
    }

    /// Runs `f` inside a span under `parent`, returning its result and
    /// wall seconds.
    pub fn timed<R>(
        &mut self,
        parent: u64,
        run: u64,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.tracer.open(parent, run, layer, name);
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        self.tracer.close(&mut self.spans, open);
        (r, secs)
    }

    /// Set-up, warm-up and the timed region, in epochs. An untraced run
    /// has [`SETUP_REPS`] epochs: each sets the workload up afresh (the
    /// previous state dropped first), warms it up, and measures its share
    /// of `--seconds`.
    ///
    /// The timed region is rounds of the workload's fixed operation list,
    /// repeated until the epoch's time is measured (a round is never cut
    /// short, and at least one runs per epoch). One pass of the reference
    /// kernels runs before the first round and after every round; the
    /// epoch's host factor is their median over [`NOMINAL_REF_S`]. The host
    /// changes speed by a quarter to a half for minutes at a time, and by
    /// less within seconds, so a factor per epoch follows it where one per
    /// run would lag. `setup_s` is the median set-up at the nominal speed.
    ///
    /// A traced run has one epoch, half of it with spans off and half with
    /// spans on; the ratio of the two round medians is the tracing overhead.
    /// Returns the last epoch's state, for the output check.
    pub fn epochs<S>(
        &mut self,
        mut setup: impl FnMut(&mut Ctx<'a>, u64) -> S,
        mut warm_up: impl FnMut(&mut Ctx<'a>, &mut S, u64),
        mut round: impl FnMut(&mut Ctx<'a>, &mut S, At),
    ) -> (S, Rounds) {
        let trace = self.opts.trace;
        let epochs = if trace { 1 } else { SETUP_REPS };
        let mut next_round = 0usize;
        // Rounds until `seconds` are measured: their walls, and a reference
        // pass before the first and after each.
        let mut timed =
            |ctx: &mut Ctx<'a>, state: &mut S, epoch: usize, seconds: f64, fresh: bool| {
                let start = Instant::now();
                let mut walls: Vec<f64> = Vec::new();
                let mut refs = vec![ctx.reference.measure()];
                loop {
                    let open = ctx.tracer.open(ctx.root, next_round as u64, "bench", "round");
                    let first_in_epoch = fresh && walls.is_empty();
                    let at = At { epoch, round: next_round, first_in_epoch, parent: open.id };
                    let t = Instant::now();
                    round(ctx, state, at);
                    walls.push(t.elapsed().as_secs_f64());
                    ctx.tracer.close(&mut ctx.spans, open);
                    next_round += 1;
                    refs.push(ctx.reference.measure());
                    if start.elapsed().as_secs_f64() + 0.5 * stats::median(&walls) >= seconds {
                        return (walls, refs);
                    }
                }
            };
        let mut rounds = Rounds {
            walls: Vec::new(),
            epoch_of: Vec::new(),
            traced_walls: Vec::new(),
            host_factor: Vec::with_capacity(epochs),
        };
        let mut setup_walls = Vec::with_capacity(epochs);
        let mut all_refs = Vec::new();
        let mut state = None;
        for epoch in 0..epochs {
            drop(state.take());
            let open = self.tracer.open(self.root, epoch as u64, "bench", "setup");
            let t = Instant::now();
            let mut s = setup(self, open.id);
            setup_walls.push(t.elapsed().as_secs_f64());
            self.tracer.close(&mut self.spans, open);
            let open = self.tracer.open(self.root, epoch as u64, "bench", "warm_up");
            warm_up(self, &mut s, open.id);
            self.tracer.close(&mut self.spans, open);
            let share = self.opts.seconds / if trace { 2.0 } else { epochs as f64 };
            self.tracer.set_enabled(false);
            let (walls, mut refs) = timed(self, &mut s, epoch, share, true);
            rounds.epoch_of.extend(walls.iter().map(|_| epoch));
            rounds.walls.extend(walls);
            self.tracer.set_enabled(trace);
            if trace {
                let (walls, traced_refs) = timed(self, &mut s, epoch, share, false);
                let overhead = stats::median(&walls) / stats::median(&rounds.walls) - 1.0;
                self.metrics.set("bench.trace_overhead_share", overhead, walls.len());
                rounds.traced_walls = walls;
                refs.extend(traced_refs);
            }
            rounds.host_factor.push(stats::median(&refs) / NOMINAL_REF_S);
            all_refs.append(&mut refs);
            state = Some(s);
        }
        let setups: Vec<f64> =
            setup_walls.iter().enumerate().map(|(e, &w)| rounds.at_nominal(e, w)).collect();
        self.metrics.set("setup_s", stats::median(&setups), epochs);
        self.metrics.set("bench.setup_wall_s", stats::median(&setup_walls), epochs);
        self.metrics.set("bench.calib_s", stats::median(&all_refs), all_refs.len());
        self.metrics.set("bench.host_factor", stats::median(&rounds.host_factor), epochs);
        (state.expect("at least one epoch"), rounds)
    }

    /// Books the pool's dispatch counts per round (medians) and returns
    /// the regions per round. The counts repeat (nearly) exactly, so they
    /// are the preferred evidence for a fork/join or scheduling change.
    pub fn pool_counts(&mut self, counts: &PoolCounts) -> f64 {
        let n = counts.regions.len();
        let regions = stats::median(&counts.regions);
        self.metrics.set("epg-parallel.regions", regions, n);
        self.metrics.set("epg-parallel.chunks", stats::median(&counts.chunks), n);
        self.metrics.set("epg-parallel.data_rmw", stats::median(&counts.data_rmw), n);
        regions
    }

    /// The end-to-end metrics every workload reports, all at the nominal
    /// host speed. `cell_ms` holds one lower-quartile latency per cell,
    /// already at the nominal speed. The same round median as measured is a layer
    /// metric, for reading next to the per-layer times, which are all as
    /// measured.
    pub fn end_to_end(&mut self, rounds: &Rounds, cell_ms: &[f64]) {
        let n = rounds.walls.len();
        self.metrics.set("sweep_s", stats::median(&rounds.walls_at_nominal()), n);
        self.metrics.set("bench.sweep_wall_s", stats::median(&rounds.walls), n);
        let walls: Vec<String> = rounds.walls.iter().map(|w| format!("{w:.3}")).collect();
        self.notes.push(format!("round walls as measured, in order, s: {}", walls.join(" ")));
        let factors: Vec<String> = rounds.host_factor.iter().map(|f| format!("{f:.3}")).collect();
        self.notes.push(format!(
            "host factor per epoch (reference pass over {NOMINAL_REF_S} s): {}; end-to-end times are measured times over it",
            factors.join(" ")
        ));
        self.metrics.set("cell_gmean_ms", stats::geometric_mean(cell_ms), cell_ms.len());
        self.metrics.set("peak_rss_mb", host::peak_rss_mb(), 1);
    }

    /// Books `bench.op_tail_ms`: a fixed high percentile of all timed operations
    /// pooled, as measured.
    pub fn op_tail(&mut self, percentile: f64, pooled_ms: &[f64]) {
        self.metrics.set(
            "bench.op_tail_ms",
            stats::percentile(pooled_ms, percentile),
            pooled_ms.len(),
        );
        self.notes.push(format!(
            "bench.op_tail_ms is the p{percentile} of {} pooled operations",
            pooled_ms.len()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_are_taken_at_the_nominal_host_speed_of_their_epoch() {
        let rounds = Rounds {
            walls: vec![1.0, 1.5, 3.0],
            epoch_of: vec![0, 1, 1],
            traced_walls: Vec::new(),
            host_factor: vec![1.0, 1.5],
        };
        assert_eq!(rounds.at_nominal(0, 2.0), 2.0);
        assert_eq!(rounds.at_nominal(1, 3.0), 2.0);
        assert_eq!(rounds.walls_at_nominal(), vec![1.0, 1.0, 2.0]);
    }

    /// A run on a host twice as slow as nominal reports the end-to-end
    /// times a nominal host would, and the layer times as measured.
    #[test]
    fn a_slow_host_cancels_out_of_the_end_to_end_metrics() {
        let opts =
            Opts { workload: "kron_bfs".into(), seed: 1, seconds: 0.0, trace: false, quick: true };
        let host = Host::probe();
        let mut ctx = Ctx::new(&opts, &host);
        let rounds = Rounds {
            walls: vec![0.5, 0.25],
            epoch_of: vec![0, 1],
            traced_walls: Vec::new(),
            host_factor: vec![2.0, 1.0],
        };
        ctx.end_to_end(&rounds, &[4.0, 9.0]);
        assert_eq!(ctx.metrics.get("sweep_s"), Some((0.25, 2)));
        assert_eq!(ctx.metrics.get("bench.sweep_wall_s"), Some((0.375, 2)));
        let (gmean, cells) = ctx.metrics.get("cell_gmean_ms").unwrap();
        assert!((gmean - 6.0).abs() < 1e-12 && cells == 2, "{gmean} {cells}");
    }
}
