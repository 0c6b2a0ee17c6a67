//! The rule registry.
//!
//! Each rule is a pure function from a scanned [`SourceFile`] to its
//! violations, plus the metadata the reporter and `--explain` need. The
//! conventions shared by every pass:
//!
//! * match on [`SourceFile::masked`] (never on raw text), so comments
//!   and string payloads can't fire a rule;
//! * code under `#[cfg(test)]`/`#[test]`, files under `tests/`, and —
//!   where the rule says so — bench code are exempt;
//! * a finding on line `L` is suppressed by a
//!   `// lint:allow(rule) justification` waiver on line `L` or `L − 1`
//!   (the waiver-syntax check separately rejects waivers with no
//!   written justification).

use crate::report::Violation;
use crate::scan::SourceFile;

mod basis_interned;
mod bench_honesty;
mod decode_alloc;
mod error_doc;
mod float_cmp;
mod locks;
mod panic_decode;
mod scatter_loop;
mod threads;
mod try_lock;
mod unsafe_confined;
mod wallclock;

/// One registered rule.
pub struct Rule {
    /// Stable kebab-case name (used in reports, waivers and baselines).
    pub name: &'static str,
    /// One-line summary for `--list-rules`.
    pub summary: &'static str,
    /// The full explain string for `--explain`.
    pub rationale: &'static str,
    /// The pass itself.
    pub check: fn(&SourceFile) -> Vec<Violation>,
}

/// Every rule, in documentation order.
pub fn all_rules() -> &'static [Rule] {
    &[
        Rule {
            name: "float-total-cmp",
            summary: "no partial_cmp on float sort/compare keys; use total_cmp",
            rationale: "A `partial_cmp(..).unwrap()` float sort panics on NaN and a \
                        `partial_cmp`-with-fallback sort silently reorders it, corrupting the \
                        CV threshold candidate order the adaptive estimator depends on. \
                        `f64::total_cmp` is a total order (IEEE 754 totalOrder), so the sort is \
                        deterministic for every input. Replace `a.partial_cmp(&b)` with \
                        `a.total_cmp(&b)` (or sort with `f64::total_cmp`).",
            check: float_cmp::check,
        },
        Rule {
            name: "lock-poison-recovery",
            summary: "no .lock()/.read()/.write() + unwrap/expect outside tests",
            rationale: "A panicked writer poisons its Mutex/RwLock; `.lock().unwrap()` then \
                        turns every later access into a cascading panic, taking the read path \
                        down with the writer. Production code recovers instead: \
                        `.lock().unwrap_or_else(|poisoned| poisoned.into_inner())` (the pattern \
                        used across crates/engine/src/sharded.rs), because every critical \
                        section leaves the shared state consistent at unlock.",
            check: locks::check,
        },
        Rule {
            name: "unsafe-confined",
            summary: "unsafe only in wavelets/src/kernels.rs, each use SAFETY-commented",
            rationale: "All unsafe is confined to the AVX2 kernel module \
                        `crates/wavelets/src/kernels.rs` (every other crate forbids \
                        `unsafe_code` at the root), and every `unsafe` block or fn there must \
                        carry a `// SAFETY:` comment within the four preceding lines stating \
                        why the invariants hold. Elsewhere, write safe code or move the kernel \
                        into `wavelets::kernels` behind the same runtime-detection dispatch.",
            check: unsafe_confined::check,
        },
        Rule {
            name: "decode-alloc-cap",
            summary: "decode-path allocations must be capped before trusting wire lengths",
            rationale: "A decoder that passes a wire-read length straight to `with_capacity` / \
                        `vec![` lets a hostile frame allocate gigabytes before the first \
                        payload check — a remote-crash vector once synopsis gossip ships \
                        frames between nodes. Validate the geometry against an explicit cap \
                        (`MAX_SERIALIZED_LEVEL` / `MAX_TENSOR_SLOTS` style) before sizing any \
                        buffer off header fields, as `CoefficientSketch::from_bytes` does.",
            check: decode_alloc::check,
        },
        Rule {
            name: "pool-not-raw-threads",
            summary: "no std::thread::spawn/scope outside vendor/workpool, benches, tests",
            rationale: "All parallelism routes through `vendor/workpool`'s work-stealing scope \
                        so fan-outs share one pool sized to the host, panics join \
                        deterministically, and shard imbalance is handled by stealing. Raw \
                        `std::thread::spawn`/`thread::scope` fan-outs bypass all three. Use \
                        `WorkPool::global().scope(|s| s.spawn(..))`, or waive with a written \
                        justification where scoped-borrow semantics genuinely require \
                        `thread::scope`.",
            check: threads::check,
        },
        Rule {
            name: "no-wallclock-in-core",
            summary: "Instant::now/SystemTime confined to core::autotune and benches",
            rationale: "The estimation pipeline is deterministic: the same rows produce \
                        bitwise the same sketch, which the equivalence tests and the \
                        replication protocol both rely on. Wall-clock reads are confined to \
                        `core::autotune` (which times candidate chunk sizes by design) and \
                        bench code. Anything else must take time as a parameter (logical \
                        ticks, like `WindowedSketch::advance`).",
            check: wallclock::check,
        },
        Rule {
            name: "panic-free-decode",
            summary: "no unwrap/expect/panic!/offset-indexing in decoder functions",
            rationale: "Decoder functions (`from_bytes*`, `decode*`, `read_*`) parse untrusted \
                        bytes: a reachable panic is a remote crash once frames arrive over the \
                        wire. Return `EstimatorError::InvalidSerialization` instead of \
                        unwrap/expect/panic!/unreachable!, and index the buffer through \
                        checked reads (`Reader::take`-style), never by raw offset arithmetic.",
            check: panic_decode::check,
        },
        Rule {
            name: "error-enum-doc",
            summary: "every variant of a pub *Error enum carries a doc comment",
            rationale: "Error enums are the API contract of every fallible path; an \
                        undocumented variant forces callers to read the raising code to learn \
                        what they're matching on. Every variant of a public `*Error` enum \
                        documents when it is raised and what the embedded fields mean.",
            check: error_doc::check,
        },
        Rule {
            name: "bench-honesty",
            summary: "bench JSON writers must record available_parallelism",
            rationale: "Benchmark JSON artifacts (`BENCH_*.json`) are compared across PRs run \
                        on different hosts; a throughput number without the core count that \
                        produced it invites bogus comparisons (this container has 1 core — \
                        shard scaling is meaningless on it). Every bench that writes a \
                        `BENCH_*.json` must record `std::thread::available_parallelism` in it.",
            check: bench_honesty::check,
        },
        Rule {
            name: "basis-interned",
            summary: "no WaveletBasis::new outside crates/wavelets, tests and benches",
            rationale: "Every `WaveletBasis::new` call re-runs the cascade tabulation: a few \
                        milliseconds and ≈1.9 MB of φ/ψ tables for Symmlet 8, paid again by \
                        each synopsis registration, decoded frame or basis-less fit that \
                        calls it. The tables are immutable and depend only on the family, so \
                        `WaveletBasis::shared(family)` keeps one per family for the life of \
                        the process and hands out clones of one `Arc`. Outside the wavelets \
                        crate, take the default-depth basis from `shared`; a table of another \
                        depth comes from `WaveletBasis::with_table_levels`.",
            check: basis_interned::check,
        },
        Rule {
            name: "no-try-lock",
            summary: "no try_lock( outside tests and benches",
            rationale: "A synopsis snapshot is a batch function of every ingested row (its \
                        cross-validated thresholds are chosen on the merged coefficients), so \
                        it has two honest operations: the write side rebuilds it with \
                        `Synopsis::refresh`, which blocks on the rebuild guard, and readers \
                        read it as it stands with `Synopsis::cached`. A `try_lock` lets a \
                        caller become a rebuilder when the lock happens to be free and serve \
                        a stale value when it is not, so query latency and freshness depend \
                        on timing. Block on the lock (`lock()` with poison recovery) on the \
                        write side, and read the published snapshot on the read side.",
            check: try_lock::check,
        },
        Rule {
            name: "one-scatter-loop",
            summary:
                "scatter_rows_phi/psi only from core::tensor, crates/wavelets, tests and benches",
            rationale: "Every sketch of either dimension ingests through one level loop in \
                        `crates/core/src/tensor.rs`: it slices a batch into autotuned chunks, \
                        gathers the 2-D `x` factor rows once per chunk, and hands each level \
                        to `WaveletTable::scatter_rows_phi`/`_psi` with an `OuterRows` (the \
                        unit row for 1-D, the `x` rows for 2-D). Any other caller is a second \
                        scatter loop, a per-dims fork with its own chunking, scratch and \
                        version stamps to drift from the first. Ingest \
                        through a sketch (`push_batch`, `push_pairs`, \
                        `MergeableSketch::push_rows`); a new layout is a new outer row for the \
                        one loop. The wavelets crate, tests and benches are exempt.",
            check: scatter_loop::check,
        },
    ]
}

/// Looks a rule up by name.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    all_rules().iter().find(|rule| rule.name == name)
}

/// Runs every rule over one scanned file and applies its waivers:
/// waived findings are dropped, malformed waivers are reported via the
/// synthetic `waiver-syntax` rule.
pub fn check_file(file: &SourceFile) -> Vec<Violation> {
    let mut violations = Vec::new();
    for rule in all_rules() {
        for violation in (rule.check)(file) {
            let waived = file.waivers.iter().any(|waiver| {
                waiver.rule == violation.rule
                    && !waiver.justification.is_empty()
                    && (waiver.line == violation.line || waiver.line + 1 == violation.line)
            });
            if !waived {
                violations.push(violation);
            }
        }
    }
    for waiver in &file.waivers {
        let known = rule_by_name(&waiver.rule).is_some();
        if !known || waiver.justification.is_empty() {
            let what = if known {
                "waiver carries no justification".to_string()
            } else {
                format!("waiver names unknown rule `{}`", waiver.rule)
            };
            violations.push(Violation {
                rule: "waiver-syntax",
                path: file.path.clone(),
                line: waiver.line,
                message: what,
                suggestion: "write `// lint:allow(<rule>) <why this use is sound>` — the \
                             justification is required"
                    .to_string(),
            });
        }
    }
    violations.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    violations
}
