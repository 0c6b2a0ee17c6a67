//! `unsafe-confined`: `unsafe` lives only in
//! `crates/wavelets/src/kernels.rs`, and every use there is
//! SAFETY-commented.
//!
//! The AVX2 kernels are the one place the workspace accepts unsafe —
//! behind runtime feature detection, bitwise-pinned against the scalar
//! reference. Everywhere else the crate roots carry
//! `#![forbid(unsafe_code)]`; this pass is the belt to that compiler
//! braces, and additionally enforces the `// SAFETY:` discipline inside
//! the kernel module itself (the compiler checks nothing about
//! comments).

use crate::report::Violation;
use crate::scan::SourceFile;

/// The one file allowed to contain `unsafe`.
const KERNELS: &str = "crates/wavelets/src/kernels.rs";

/// How many lines above an `unsafe` token a `SAFETY` comment may sit.
const SAFETY_WINDOW: usize = 4;

pub fn check(file: &SourceFile) -> Vec<Violation> {
    let mut violations = Vec::new();
    for offset in file.find_ident("unsafe") {
        let line = file.line_of(offset);
        if file.path != KERNELS {
            violations.push(Violation {
                rule: "unsafe-confined",
                path: file.path.clone(),
                line,
                message: "`unsafe` outside the AVX2 kernel module".to_string(),
                suggestion: format!(
                    "move the unsafe kernel into {KERNELS} behind the Backend dispatch, or \
                     find a safe formulation"
                ),
            });
        } else if !file.comment_near(line, SAFETY_WINDOW, "SAFETY") {
            violations.push(Violation {
                rule: "unsafe-confined",
                path: file.path.clone(),
                line,
                message: "`unsafe` without a `// SAFETY:` comment in the preceding lines"
                    .to_string(),
                suggestion: "state why the invariants hold: `// SAFETY: <which caller \
                             guarantee or runtime check makes this sound>`"
                    .to_string(),
            });
        }
    }
    violations
}
