//! The file model, pinned: every extracted field of the `FileModel` of
//! `tests/fixtures/model/constructs.rs` (each construct the model reads,
//! in its awkward shapes, ending in an unbalanced tail) and of every file
//! of the mini workspace must equal `tests/fixtures/model/golden.txt`.
//! Every rule family reads these fields, so a builder change that moves
//! one span shows here as a one-line diff before it shows as a finding.

use epg_lint::model::{FileModel, Workspace};
use epg_lint::scan::scan;
use std::fmt::Write;
use std::path::Path;

/// One line per extracted item, in field order; `lines` and the joined
/// code text are the scanner's and are left out.
fn dump(f: &FileModel, out: &mut String) {
    let _ = writeln!(out, "== {} test_role={}", f.path, f.test_role);
    let spans =
        [("test", &f.test_spans), ("loop", &f.loops), ("par", &f.par_calls), ("hot", &f.hot)];
    for s in &f.fns {
        let _ = writeln!(out, "fn {} {}-{}", s.name, s.start, s.end);
    }
    for (what, list) in spans {
        for &(s, e) in list {
            let _ = writeln!(out, "{what} {s}-{e}");
        }
    }
    for r in &f.epg_refs {
        let _ = writeln!(out, "ref {} {}", r.krate, r.line);
    }
    for c in &f.calls {
        let _ = writeln!(out, "call {} {:?} {}", c.name, c.kind, c.line);
    }
    for s in &f.structs {
        let _ = writeln!(out, "struct {s:?}");
    }
    for i in &f.impls {
        let _ = writeln!(out, "impl {} {}-{}", i.name, i.start, i.end);
    }
}

#[test]
fn file_models_match_the_golden_dump() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut got = String::new();
    let src = std::fs::read_to_string(dir.join("model/constructs.rs")).expect("fixture");
    dump(&FileModel::build("constructs.rs".into(), scan(&src), false), &mut got);
    let mini = dir.join("mini");
    let scanned = epg_lint::rust_files(&mini).into_iter().map(|p| {
        let rel = p.strip_prefix(&mini).unwrap().to_string_lossy().replace('\\', "/");
        (rel, scan(&std::fs::read_to_string(&p).unwrap()))
    });
    for f in Workspace::load(&mini, scanned).files() {
        dump(f, &mut got);
    }
    let golden = std::fs::read_to_string(dir.join("model/golden.txt")).expect("golden committed");
    if got != golden {
        let path = std::env::temp_dir().join("epg-lint-model-golden.txt");
        std::fs::write(&path, &got).unwrap();
        let first = got.lines().zip(golden.lines()).position(|(a, b)| a != b);
        panic!("the file model drifted from the golden (first differing line {first:?}); the new dump is at {}", path.display());
    }
}
