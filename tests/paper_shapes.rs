//! The paper's findings must emerge from our engines' *mechanisms*, not
//! from hard-coded constants. Each finding is stated once, as a row of
//! `epg::harness::reproduce::claims::CLAIMS`; the tests here regenerate the
//! artefact a claim rests on at a small scale and assert the claim holds.
//! Only counter- and projection-basis claims are asserted: they are
//! deterministic per seed, where wall time is noise on a shared CI machine.

use epg::harness::reproduce::{self, Facts, Options};
use std::path::Path;

/// Regenerates `artefact` at about 2^`scale` vertices, one root, and
/// asserts that each of `claim_ids` was judged, deterministically, to hold.
fn assert_claims_hold(artefact: &str, scale: u32, seed: u64, claim_ids: &[&str]) -> Facts {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("shapes-{artefact}-{seed}"));
    let opts = Options { full: false, scale: Some(scale), threads: 1, roots: 1, seed, out_dir };
    let artefact = reproduce::select(&[artefact.to_string()]).expect("a known artefact")[0];
    let (facts, ledger) =
        reproduce::reproduce_one(artefact, &opts, &mut std::io::sink()).expect("artefact runs");
    for id in claim_ids {
        let line =
            ledger.iter().find(|l| l.claim.id == *id).expect("the artefact judges the claim");
        assert!(line.claim.basis.is_deterministic(), "{id} rests on wall time");
        assert!(line.verdict.holds, "{id} deviates: {}", line.verdict.margin);
    }
    facts
}

#[test]
fn direction_optimization_cuts_edge_traversals() {
    assert_claims_hold("fig2", 10, 4, &["dobfs_cuts_edges"]);
}

#[test]
fn graphmat_native_pr_iterates_longest() {
    assert_claims_hold("fig4", 9, 5, &["graphmat_pr_iterates_longest"]);
}

#[test]
fn powergraph_replication_grows_with_density() {
    assert_claims_hold("ablation_partitions", 10, 6, &["replication_grows_with_density"]);
}

#[test]
fn graphmat_traces_carry_serial_overhead() {
    assert_claims_hold("fig2", 9, 8, &["graphmat_serial_overhead"]);
}

#[test]
fn projected_scaling_shapes_match_figures_5_and_6() {
    let facts = assert_claims_hold(
        "fig5_6",
        11,
        9,
        &["poor_strong_scaling", "graphmat_rivals_gap_72t", "graphbig_scales_worst"],
    );
    // Not a sentence of the paper but a bound on the model behind these
    // three: mild dips are allowed — once barrier cost outgrows the compute
    // gain, adding threads hurts (the model's analog of the paper's
    // Graph500 2-thread dip) — but a speedup that halves from one thread
    // count to the next is collapse.
    for (engine, worst_step) in facts.ranked("nominal_speedup_floor") {
        assert!(worst_step >= 0.5, "{engine}'s speedup collapsed: x{worst_step} in one step");
    }
}

#[test]
fn energy_tracks_runtime_across_engines() {
    assert_claims_hold(
        "fig9_table3",
        10,
        10,
        &["fastest_uses_least_energy", "graphmat_lowest_power"],
    );
}

#[test]
fn graphmat_overhead_amortizes_on_dense_graphs() {
    assert_claims_hold("fig8", 10, 3, &["graphmat_overhead_amortizes_dense"]);
}
