//! `one-scatter-loop`: the whole-chunk scatter has one caller.
//!
//! Every sketch, of either dimension, ingests through the one level loop
//! of `core::tensor`, which hands each level to
//! `WaveletTable::scatter_rows_phi`/`_psi` with an outer row (the unit
//! row for 1-D, the gathered `x` factors for 2-D). A second caller is a
//! second scatter loop, with its own chunking, scratch and version stamps
//! to drift from the first. The wavelets crate (which defines the
//! driver), tests and benches are exempt.

use crate::report::Violation;
use crate::scan::SourceFile;

/// The one production file allowed to drive the scatter.
const LEVEL_LOOP: &str = "crates/core/src/tensor.rs";

pub fn check(file: &SourceFile) -> Vec<Violation> {
    if file.path == LEVEL_LOOP
        || file.path.starts_with("crates/wavelets/")
        || file.is_bench_path()
        || file.is_test_path()
    {
        return Vec::new();
    }
    let mut violations = Vec::new();
    for ident in ["scatter_rows_phi", "scatter_rows_psi"] {
        for offset in file.find_ident(ident) {
            let line = file.line_of(offset);
            if file.is_test_line(line) {
                continue;
            }
            violations.push(Violation {
                rule: "one-scatter-loop",
                path: file.path.clone(),
                line,
                message: format!("`{ident}` driven outside the level loop of `core::tensor`"),
                suggestion: "ingest through a sketch (`push_batch`, `push_pairs`, \
                             `MergeableSketch::push_rows`); a new layout is a new `OuterRows` \
                             for the level loop in crates/core/src/tensor.rs, not a second loop"
                    .to_string(),
            });
        }
    }
    violations.sort_by_key(|violation| violation.line);
    violations
}
