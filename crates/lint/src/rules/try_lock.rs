//! `no-try-lock`: a reader never becomes a rebuilder.
//!
//! A synopsis snapshot is a batch function of every ingested row, so it
//! has two operations: the write side rebuilds it (`Synopsis::refresh`,
//! which blocks on the rebuild guard) and readers read it as it stands
//! (`Synopsis::cached`). A `try_lock` lets a reader sneak a rebuild
//! into a query — take the guard if it is free, serve a stale snapshot
//! if not — so query latency and freshness depend on who gets there
//! first. Tests and benches are exempt: they may probe lock state.

use crate::report::Violation;
use crate::scan::SourceFile;

pub fn check(file: &SourceFile) -> Vec<Violation> {
    if file.is_bench_path() || file.is_test_path() {
        return Vec::new();
    }
    let bytes = file.masked.as_bytes();
    let mut violations = Vec::new();
    for offset in file.find_ident("try_lock") {
        let line = file.line_of(offset);
        if bytes.get(offset + "try_lock".len()) != Some(&b'(') || file.is_test_line(line) {
            continue;
        }
        violations.push(Violation {
            rule: "no-try-lock",
            path: file.path.clone(),
            line,
            message: "`try_lock` lets a caller choose between rebuilding and serving a stale \
                      value depending on who holds the lock"
                .to_string(),
            suggestion: "readers read the snapshot as it stands (`cached()`); writers block \
                         on the guard (`refresh()`)"
                .to_string(),
        });
    }
    violations
}
