//! Cases of the `panic-discipline` row of [`crate::callgraph`]: engine
//! worker closures and iteration loops fail through the supervised
//! `TrialOutcome` path, while precondition checks outside loops and test
//! code stay out of scope.

#[cfg(test)]
mod tests {
    use crate::callgraph::tests::{check_cases, GAP};
    use crate::callgraph::RULE_PANIC;

    #[test]
    fn unwrap_in_iteration_loop_is_flagged() {
        let src = "fn kernel(levels: &mut Vec<Vec<u32>>) {\n    loop {\n        let f = levels.last().unwrap();\n        if f.is_empty() {\n            break;\n        }\n    }\n}\n";
        const MSG: &str = "`.unwrap()` inside an engine worker closure or iteration loop";
        check_cases(&[(GAP, false, src, &[(3, RULE_PANIC, MSG)])]);
    }

    #[test]
    fn expect_in_worker_closure_is_flagged() {
        let src = "fn kernel(pool: &ThreadPool) {\n    pool.parallel_for(n, sched, |v| {\n        let x = slot(v).expect(\"empty\");\n        drop(x);\n    });\n}\n";
        check_cases(&[(GAP, false, src, &[(3, RULE_PANIC, "`.expect(`")])]);
    }

    #[test]
    fn unwrap_in_bitmap_reduce_closure_is_flagged() {
        // `WorkerBitmaps::reduce_ranges` runs its closure on the workers,
        // like `parallel_reduce_ranges`, even outside any loop.
        let src = "fn kernel(pool: &ThreadPool, marks: &WorkerBitmaps) {\n    let n = marks.reduce_ranges(pool, parts, per, || 0, |lo, hi| {\n        slot(lo).unwrap() + hi\n    }, add);\n    drop(n);\n}\n";
        check_cases(&[(GAP, false, src, &[(3, RULE_PANIC, "`.unwrap()`")])]);
    }

    #[test]
    fn precondition_expect_outside_loops_is_in_scope_elsewhere() {
        let src = "fn run(params: &RunParams) {\n    let root = params.root.expect(\"BFS needs a root\");\n    drop(root);\n}\n";
        check_cases(&[(GAP, false, src, &[])]);
    }

    #[test]
    fn panics_in_test_modules_are_exempt() {
        let src = "fn kernel() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        for x in [1] {\n            assert_eq!(x, opt().unwrap());\n        }\n    }\n}\n";
        check_cases(&[(GAP, false, src, &[])]);
    }

    #[test]
    fn panic_macro_in_while_loop_is_flagged() {
        let src = "fn kernel(mut n: u32) {\n    while n > 0 {\n        if n == 7 {\n            panic!(\"boom\");\n        }\n        n -= 1;\n    }\n}\n";
        check_cases(&[(GAP, false, src, &[(4, RULE_PANIC, "`panic!`")])]);
    }
}
