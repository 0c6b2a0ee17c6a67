//! `basis-interned`: default-depth wavelet tables come from the interner.
//!
//! `WaveletBasis::new` re-runs the cascade tabulation (milliseconds and
//! ≈1.9 MB per call for Symmlet 8). Outside the wavelets crate, the
//! default-depth basis of a family is taken from
//! `WaveletBasis::shared`, which keeps one immutable table per family for
//! the life of the process. Tests and benches are exempt: they may build
//! fresh tables to compare against or to time the build itself.

use crate::report::Violation;
use crate::scan::SourceFile;

pub fn check(file: &SourceFile) -> Vec<Violation> {
    if file.path.starts_with("crates/wavelets/") || file.is_bench_path() || file.is_test_path() {
        return Vec::new();
    }
    let mut violations = Vec::new();
    for offset in file.find_exact("WaveletBasis::new(") {
        let line = file.line_of(offset);
        if file.is_test_line(line) {
            continue;
        }
        violations.push(Violation {
            rule: "basis-interned",
            path: file.path.clone(),
            line,
            message: "`WaveletBasis::new` re-tabulates φ/ψ on every call".to_string(),
            suggestion: "take the default-depth basis from `WaveletBasis::shared(family)?` \
                         (one table per family per process); build a fresh table only with \
                         an explicit depth (`WaveletBasis::with_table_levels`)"
                .to_string(),
        });
    }
    violations
}
