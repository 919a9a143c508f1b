//! The RAPL simulator.
//!
//! Intel's Running Average Power Limit exposes energy counters for the CPU
//! package and DRAM; the paper reads them through PAPI (§IV-D, Fig. 10).
//! This module integrates a power model over projected execution instead:
//!
//! - CPU power = idle + dynamic × (active cores / cores) × intensity,
//!   where *intensity* is the fraction of region time bound by compute
//!   rather than memory stalls (stalled cores draw less);
//! - DRAM power = idle + dynamic × (achieved bandwidth / peak bandwidth).
//!
//! Because energy = power × time, the paper's own headline observation —
//! "the fastest code is also the most energy efficient" — is preserved by
//! construction, while per-engine power differences emerge from each
//! engine's measured bytes-per-work ratios.

use crate::MachineModel;
use epg_engine_api::Trace;

/// Energy/power summary for one run, the unit of Fig. 9 and Table III.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyReport {
    /// Projected duration, seconds.
    pub duration_s: f64,
    /// CPU package energy, joules.
    pub cpu_energy_j: f64,
    /// DRAM energy, joules.
    pub ram_energy_j: f64,
    /// Average CPU power, watts.
    pub avg_cpu_w: f64,
    /// Average DRAM power, watts.
    pub avg_ram_w: f64,
}

impl EnergyReport {
    /// Total energy, joules.
    pub fn total_j(&self) -> f64 {
        self.cpu_energy_j + self.ram_energy_j
    }
}

impl MachineModel {
    /// Integrates the power model over a projected run of `trace` at the
    /// calibrated `rate` on `n` threads.
    pub fn energy(&self, trace: &Trace, rate: f64, n: usize) -> EnergyReport {
        let spec = &self.spec;
        let n = n.max(1).min(spec.threads);
        let eff = spec.effective_threads(n);
        let bw = spec.bandwidth_at(n);
        let barrier = spec.barrier_s(n);
        let util = (eff / spec.cores as f64).min(1.0);
        let mut rep = EnergyReport::default();
        for r in &trace.records {
            let (compute, span_t, sync, region_util) = if r.parallel {
                (r.work as f64 / (rate * eff), r.span as f64 / rate, barrier, util)
            } else {
                (r.work as f64 / rate, r.work as f64 / rate, 0.0, 1.0 / spec.cores as f64)
            };
            let mem = r.bytes as f64 / if r.parallel { bw } else { spec.bandwidth_at(1) };
            let body = compute.max(span_t).max(mem);
            let t = body + sync;
            if t <= 0.0 {
                continue;
            }
            // Fraction of the region actually bound by compute.
            let intensity = if body > 0.0 { (compute.max(span_t) / body).min(1.0) } else { 0.0 };
            let cpu_w = spec.cpu_idle_w + spec.cpu_dyn_w * region_util * intensity;
            let achieved_bw =
                if body > 0.0 { (r.bytes as f64 / body).min(spec.mem_bandwidth) } else { 0.0 };
            let ram_w = spec.ram_idle_w + spec.ram_dyn_w * achieved_bw / spec.mem_bandwidth;
            rep.duration_s += t;
            rep.cpu_energy_j += cpu_w * t;
            rep.ram_energy_j += ram_w * t;
        }
        if rep.duration_s > 0.0 {
            rep.avg_cpu_w = rep.cpu_energy_j / rep.duration_s;
            rep.avg_ram_w = rep.ram_energy_j / rep.duration_s;
        }
        rep
    }

    /// The paper's baseline: power drawn while the machine executes
    /// `sleep(seconds)` — pure idle draw (§IV-D, Fig. 9 "sleep" line).
    pub fn sleep_baseline(&self, seconds: f64) -> EnergyReport {
        let spec = &self.spec;
        EnergyReport {
            duration_s: seconds,
            cpu_energy_j: spec.cpu_idle_w * seconds,
            ram_energy_j: spec.ram_idle_w * seconds,
            avg_cpu_w: spec.cpu_idle_w,
            avg_ram_w: spec.ram_idle_w,
        }
    }
}

/// A literal mirror of the paper's Fig. 10 `power_rapl_t` C API, for code
/// that wants the PAPI-style start/end/print shape. Regions recorded
/// between `start` and `end` are measured when `end` is called.
pub struct PowerRapl<'m> {
    model: &'m MachineModel,
    rate: f64,
    threads: usize,
    active: Option<Trace>,
    last: Option<EnergyReport>,
}

impl<'m> PowerRapl<'m> {
    /// `power_rapl_init`: bind to a machine model, calibrated rate, and
    /// thread count.
    pub fn init(model: &'m MachineModel, rate: f64, threads: usize) -> PowerRapl<'m> {
        PowerRapl { model, rate, threads, active: None, last: None }
    }

    /// `power_rapl_start`: begin a measurement window.
    pub fn start(&mut self) {
        self.active = Some(Trace::default());
    }

    /// Records execution inside the window (the instrumented "region of
    /// code to profile" from Fig. 10).
    pub fn record(&mut self, trace: &Trace) {
        self.active.as_mut().expect("power_rapl_start not called").extend(trace);
    }

    /// `power_rapl_end`: close the window and compute energy.
    pub fn end(&mut self) -> EnergyReport {
        let trace = self.active.take().expect("power_rapl_start not called");
        let rep = self.model.energy(&trace, self.rate, self.threads);
        self.last = Some(rep);
        rep
    }

    /// `power_rapl_print`: render the last measurement like the PAPI
    /// example utilities do.
    pub fn print(&self) -> String {
        match &self.last {
            Some(r) => format!(
                "PACKAGE_ENERGY: {:.3} J (avg {:.2} W)\nDRAM_ENERGY: {:.3} J (avg {:.2} W)\nTIME: {:.6} s",
                r.cpu_energy_j, r.avg_cpu_w, r.ram_energy_j, r.avg_ram_w, r.duration_s
            ),
            None => "no measurement".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MachineModel {
        MachineModel::paper_machine()
    }

    fn compute_trace() -> Trace {
        let mut t = Trace::default();
        t.parallel(10_000_000, 100, 1_000); // compute-bound
        t
    }

    fn memory_trace() -> Trace {
        let mut t = Trace::default();
        t.parallel(1_000, 10, 10_000_000_000); // memory-bound
        t
    }

    #[test]
    fn energy_equals_power_times_time() {
        let m = model();
        let r = m.energy(&compute_trace(), 1e8, 32);
        assert!(r.duration_s > 0.0);
        assert!((r.cpu_energy_j - r.avg_cpu_w * r.duration_s).abs() < 1e-9);
        assert!((r.ram_energy_j - r.avg_ram_w * r.duration_s).abs() < 1e-9);
    }

    #[test]
    fn compute_bound_draws_more_cpu_power_than_memory_bound() {
        let m = model();
        let rc = m.energy(&compute_trace(), 1e8, 32);
        let rm = m.energy(&memory_trace(), 1e8, 32);
        assert!(rc.avg_cpu_w > rm.avg_cpu_w, "{} vs {}", rc.avg_cpu_w, rm.avg_cpu_w);
        assert!(rm.avg_ram_w > rc.avg_ram_w, "{} vs {}", rm.avg_ram_w, rc.avg_ram_w);
    }

    #[test]
    fn all_power_between_idle_and_max() {
        let m = model();
        let spec = &m.spec;
        for trace in [compute_trace(), memory_trace()] {
            for n in [1, 8, 32, 72] {
                let r = m.energy(&trace, 1e8, n);
                assert!(r.avg_cpu_w >= spec.cpu_idle_w - 1e-9);
                assert!(r.avg_cpu_w <= spec.cpu_idle_w + spec.cpu_dyn_w + 1e-9);
                assert!(r.avg_ram_w >= spec.ram_idle_w - 1e-9);
                assert!(r.avg_ram_w <= spec.ram_idle_w + spec.ram_dyn_w + 1e-9);
            }
        }
    }

    #[test]
    fn more_threads_more_power_less_time() {
        let m = model();
        let r1 = m.energy(&compute_trace(), 1e8, 1);
        let r32 = m.energy(&compute_trace(), 1e8, 32);
        assert!(r32.avg_cpu_w > r1.avg_cpu_w);
        assert!(r32.duration_s < r1.duration_s);
    }

    #[test]
    fn sleep_baseline_is_idle_power() {
        let m = model();
        let s = m.sleep_baseline(10.0);
        assert_eq!(s.avg_cpu_w, m.spec.cpu_idle_w);
        assert!((s.cpu_energy_j - m.spec.cpu_idle_w * 10.0).abs() < 1e-9);
    }

    #[test]
    fn faster_run_uses_less_energy() {
        // Table III's observation: the fastest code is the most energy
        // efficient. Same trace, more threads -> less total energy here
        // because idle power dominates the budget.
        let m = model();
        let e1 = m.energy(&compute_trace(), 1e8, 1).total_j();
        let e32 = m.energy(&compute_trace(), 1e8, 32).total_j();
        assert!(e32 < e1, "{e32} vs {e1}");
    }

    #[test]
    fn fig10_api_shape() {
        let m = model();
        let mut ps = PowerRapl::init(&m, 1e8, 32);
        ps.start();
        ps.record(&compute_trace());
        let rep = ps.end();
        assert!(rep.total_j() > 0.0);
        let printed = ps.print();
        assert!(printed.contains("PACKAGE_ENERGY"));
        assert!(printed.contains("DRAM_ENERGY"));
    }

    #[test]
    #[should_panic(expected = "power_rapl_start not called")]
    fn end_without_start_panics() {
        let m = model();
        let mut ps = PowerRapl::init(&m, 1e8, 32);
        let _ = ps.end();
    }
}
