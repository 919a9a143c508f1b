//! Cases of the `phase-purity` and `timing-discipline` rows of
//! [`crate::callgraph`]: file I/O in engine code stays inside `load_file`,
//! and only the measurement owners read the clock.

#[cfg(test)]
mod tests {
    use crate::callgraph::tests::{check_cases, CLOCK, GAP, SERVE};
    use crate::callgraph::{RULE_PHASE, RULE_TIMING};

    #[test]
    fn io_outside_load_file_is_flagged() {
        check_cases(&[(
            GAP,
            false,
            "pub fn kernel(p: &str) {\n    let _ = std::fs::read_to_string(p);\n}\n",
            &[(2, RULE_PHASE, "`std::fs` in engine code outside `load_file`")],
        )]);
    }

    #[test]
    fn io_inside_load_file_is_the_read_phase() {
        let src = "impl Engine for E {\n    fn load_file(&mut self, p: &Path) -> std::io::Result<()> {\n        let text = std::fs::read_to_string(p)?;\n        Ok(())\n    }\n}\n";
        check_cases(&[(GAP, false, src, &[])]);
    }

    #[test]
    fn bodiless_load_file_declaration_is_exempt() {
        let src = "pub trait Engine {\n    fn load_file(&mut self, p: &Path) -> std::io::Result<()>;\n}\n";
        check_cases(&[("epg-engine-api", false, src, &[])]);
    }

    #[test]
    fn io_in_test_module_is_exempt() {
        let src = "pub fn kernel() {}\n\n#[cfg(test)]\nmod tests {\n    fn fixture() {\n        std::fs::create_dir_all(\"x\").unwrap();\n    }\n}\n";
        check_cases(&[(GAP, false, src, &[])]);
    }

    #[test]
    fn io_in_non_engine_crates_is_out_of_scope() {
        let src = "pub fn write(p: &str) {\n    let _ = std::fs::write(p, \"x\");\n}\n";
        check_cases(&[("epg-graph", false, src, &[])]);
    }

    #[test]
    fn clock_reads_in_engines_and_substrate_are_flagged() {
        check_cases(&[
            (GAP, false, CLOCK, &[(2, RULE_TIMING, "`Instant::now` outside epg-harness")]),
            ("epg-parallel", false, CLOCK, &[(2, RULE_TIMING, "the harness owns the clock")]),
            ("epg-graph", false, CLOCK, &[(2, RULE_TIMING, "the harness owns the clock")]),
            ("epg-machine", false, CLOCK, &[(2, RULE_TIMING, "the harness owns the clock")]),
        ]);
    }

    #[test]
    fn harness_and_trace_own_the_clock() {
        check_cases(&[
            ("epg-harness", false, CLOCK, &[]),
            ("epg-trace", false, CLOCK, &[]),
            (SERVE, false, CLOCK, &[]),
        ]);
    }

    #[test]
    fn test_role_files_and_vendored_crates_are_exempt() {
        check_cases(&[(GAP, true, CLOCK, &[]), ("criterion", false, CLOCK, &[])]);
    }

    #[test]
    fn system_time_is_a_clock_read() {
        let src = "pub fn f() -> std::time::SystemTime {\n    todo()\n}\n";
        check_cases(&[("epg-graph", false, src, &[(1, RULE_TIMING, "`SystemTime`")])]);
    }
}
