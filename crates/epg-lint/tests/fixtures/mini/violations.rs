// Deliberate violations of every epg-lint line rule. This file is NOT
// compiled, and it sits at the mini workspace's root, outside any member
// crate, so only the line rules read it; the model families' violations
// live in the member crates beside it.
// Line numbers below are load-bearing — tests/fixtures/mini_golden.txt pins them.

use std::sync::atomic::{AtomicU32, Ordering};

static mut GLOBAL: u32 = 0; // line 9: static-mut

struct BadCell {
    ptr: *mut f64, // line 12: raw-ptr-field
}

struct BadTuple(*const u8); // line 15: raw-ptr-field

// Deliberately left without a justification comment.
unsafe impl Sync for BadCell {} // line 18: unsafe-impl (and safety-comment)

fn no_safety_comment(p: *mut u8) {
    unsafe { *p = 1 }; // line 21: safety-comment
}

fn bad_cas(a: &AtomicU32) {
    let _ = a.compare_exchange(0, 1, Ordering::Relaxed, Ordering::SeqCst); // line 25: cas-ordering
}

fn fooled_by_nothing() {
    // These must NOT fire: the keywords live in strings and comments.
    let _s = "unsafe { static mut } compare_exchange";
    let _r = r#"unsafe impl Sync for Nothing"#;
    // unsafe in a comment is fine; so is /* static mut */ here.
}
