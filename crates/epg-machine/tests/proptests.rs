//! Property tests of the machine model over arbitrary traces.

use epg_engine_api::Trace;
use epg_machine::MachineModel;
use proptest::prelude::*;

proptest! {
    #[test]
    fn machine_model_invariants(
        regions in proptest::collection::vec((1u64..1_000_000, 1u64..10_000, 0u64..10_000_000), 1..30),
        threads in 1usize..72,
    ) {
        let mut trace = Trace::default();
        for (work, span, bytes) in regions {
            trace.parallel(work, span, bytes);
        }
        let model = MachineModel::paper_machine();
        let rate = 1e8;
        let t1 = model.project(&trace, rate, 1).total_s;
        let tn = model.project(&trace, rate, threads).total_s;
        // Speedup bounded by thread count; time always positive.
        prop_assert!(tn > 0.0);
        prop_assert!(t1 / tn <= threads as f64 + 1e-9);
        // Energy >= idle * duration, <= max power * duration.
        let rep = model.energy(&trace, rate, threads);
        let spec = &model.spec;
        prop_assert!(rep.cpu_energy_j >= spec.cpu_idle_w * rep.duration_s - 1e-9);
        prop_assert!(rep.cpu_energy_j <= (spec.cpu_idle_w + spec.cpu_dyn_w) * rep.duration_s + 1e-9);
    }
}
