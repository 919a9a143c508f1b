//! Work counters and execution traces.
//!
//! Engines do not time themselves — the harness owns wall clocks. What
//! engines *do* record is machine-independent work: edges traversed,
//! vertices touched, estimated memory traffic, iterations, and a per-
//! parallel-region trace. `epg-machine` projects those traces onto the
//! paper's 72-thread Haswell to produce the scalability and power figures
//! (see DESIGN.md's substitution table).

/// Aggregate work counters for one algorithm run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Edges examined (every relaxation/scan counts).
    pub edges_traversed: u64,
    /// Vertex visits (frontier pops, per-vertex updates).
    pub vertices_touched: u64,
    /// Estimated bytes read from memory.
    pub bytes_read: u64,
    /// Estimated bytes written to memory.
    pub bytes_written: u64,
    /// Algorithm iterations / rounds / supersteps.
    pub iterations: u32,
}

impl Counters {
    /// Accumulates another counter set (e.g. per-iteration into per-run).
    pub fn merge(&mut self, other: &Counters) {
        self.edges_traversed += other.edges_traversed;
        self.vertices_touched += other.vertices_touched;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.iterations += other.iterations;
    }

    /// Componentwise `self - earlier` (saturating; counters are
    /// monotonic within a run, so a nonzero saturation indicates a
    /// stale snapshot). Used by the telemetry layer to attribute
    /// counter growth to trace regions.
    pub fn delta_since(&self, earlier: &Counters) -> Counters {
        Counters {
            edges_traversed: self.edges_traversed.saturating_sub(earlier.edges_traversed),
            vertices_touched: self.vertices_touched.saturating_sub(earlier.vertices_touched),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            iterations: self.iterations.saturating_sub(earlier.iterations),
        }
    }
}

/// One recorded execution region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionRecord {
    /// Total work units in the region (roughly: edges examined, or vertices
    /// for vertex-parallel loops).
    pub work: u64,
    /// Critical-path bound inside the region: the largest single
    /// indivisible task (e.g. one hub vertex's full adjacency scan).
    pub span: u64,
    /// Estimated memory traffic of the region in bytes.
    pub bytes: u64,
    /// Whether the region ran under the parallel runtime (false = serial
    /// section, which Amdahl's law charges fully).
    pub parallel: bool,
}

/// A run's sequence of regions, in execution order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Region records in execution order.
    pub records: Vec<RegionRecord>,
}

impl Trace {
    /// Records a parallel region.
    pub fn parallel(&mut self, work: u64, span: u64, bytes: u64) {
        self.records.push(RegionRecord { work, span: span.min(work), bytes, parallel: true });
    }

    /// Records a serial section.
    pub fn serial(&mut self, work: u64, bytes: u64) {
        self.records.push(RegionRecord { work, span: work, bytes, parallel: false });
    }

    /// Total work across regions.
    pub fn total_work(&self) -> u64 {
        self.records.iter().map(|r| r.work).sum()
    }

    /// Number of synchronization points (each parallel region joins once).
    pub fn sync_points(&self) -> u64 {
        self.records.iter().filter(|r| r.parallel).count() as u64
    }

    /// Fraction of work in serial sections — the Amdahl term.
    pub fn serial_fraction(&self) -> f64 {
        let total = self.total_work();
        if total == 0 {
            return 0.0;
        }
        let serial: u64 = self.records.iter().filter(|r| !r.parallel).map(|r| r.work).sum();
        serial as f64 / total as f64
    }

    /// Appends all records of another trace.
    pub fn extend(&mut self, other: &Trace) {
        self.records.extend_from_slice(&other.records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge() {
        let mut a = Counters { edges_traversed: 10, vertices_touched: 5, ..Default::default() };
        let b =
            Counters { edges_traversed: 3, iterations: 2, bytes_read: 100, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.edges_traversed, 13);
        assert_eq!(a.vertices_touched, 5);
        assert_eq!(a.iterations, 2);
    }

    #[test]
    fn trace_accounting() {
        let mut t = Trace::default();
        t.parallel(1000, 50, 8000);
        t.serial(100, 800);
        t.parallel(500, 600, 4000); // span clamped to work
        assert_eq!(t.total_work(), 1600);
        assert_eq!(t.sync_points(), 2);
        assert_eq!(t.records[2].span, 500);
        assert!((t.serial_fraction() - 100.0 / 1600.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_benign() {
        let t = Trace::default();
        assert_eq!(t.total_work(), 0);
        assert_eq!(t.serial_fraction(), 0.0);
        assert_eq!(t.sync_points(), 0);
    }
}
