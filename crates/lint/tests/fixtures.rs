//! Per-rule fixtures: for every rule, one snippet that fires it and one
//! clean counterpart, scanned in memory (no filesystem). These pin the
//! firing conditions — a rule that silently stops matching its own
//! target pattern fails here, not in a production diff six PRs later.

use wavedens_lint::rules::check_file;
use wavedens_lint::{SourceFile, Violation};

fn violations(path: &str, source: &str) -> Vec<Violation> {
    check_file(&SourceFile::scan(path, source))
}

fn fired(path: &str, source: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = violations(path, source)
        .into_iter()
        .map(|violation| violation.rule)
        .collect();
    rules.dedup();
    rules
}

#[test]
fn float_total_cmp_fires_and_total_cmp_is_clean() {
    let firing = "fn rank(a: f64, b: f64) -> std::cmp::Ordering { a.partial_cmp(&b).unwrap() }\n";
    assert_eq!(fired("crates/demo/src/lib.rs", firing), ["float-total-cmp"]);

    let clean = "fn rank(a: f64, b: f64) -> std::cmp::Ordering { a.total_cmp(&b) }\n";
    assert_eq!(fired("crates/demo/src/lib.rs", clean), [""; 0]);
}

#[test]
fn float_total_cmp_ignores_comments_and_strings() {
    let masked = "// partial_cmp is banned\nfn f() { let s = \"partial_cmp\"; }\n";
    assert_eq!(fired("crates/demo/src/lib.rs", masked), [""; 0]);
}

#[test]
fn lock_poison_recovery_fires_on_unwrap_and_expect() {
    let unwrap = "fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }\n";
    assert_eq!(
        fired("crates/demo/src/lib.rs", unwrap),
        ["lock-poison-recovery"]
    );

    let expect = "fn f(m: &std::sync::RwLock<u32>) -> u32 { *m.read().expect(\"lock\") }\n";
    assert_eq!(
        fired("crates/demo/src/lib.rs", expect),
        ["lock-poison-recovery"]
    );

    // The chain may wrap across lines and still fires.
    let wrapped = "fn f(m: &std::sync::Mutex<u32>) -> u32 {\n    *m.lock()\n        .unwrap()\n}\n";
    assert_eq!(
        fired("crates/demo/src/lib.rs", wrapped),
        ["lock-poison-recovery"]
    );
}

#[test]
fn lock_poison_recovery_accepts_recovery_and_test_code() {
    let recovered =
        "fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap_or_else(|p| p.into_inner()) }\n";
    assert_eq!(fired("crates/demo/src/lib.rs", recovered), [""; 0]);

    let in_test = "#[cfg(test)]\nmod tests {\n    fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }\n}\n";
    assert_eq!(fired("crates/demo/src/lib.rs", in_test), [""; 0]);

    let test_path = "fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }\n";
    assert_eq!(fired("tests/demo.rs", test_path), [""; 0]);
}

#[test]
fn unsafe_confined_fires_outside_the_kernel_module() {
    let firing = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    assert_eq!(fired("crates/demo/src/lib.rs", firing), ["unsafe-confined"]);
}

#[test]
fn unsafe_confined_requires_safety_comments_inside_it() {
    let uncommented = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    assert_eq!(
        fired("crates/wavelets/src/kernels.rs", uncommented),
        ["unsafe-confined"]
    );

    let commented = "// SAFETY: caller guarantees p is valid for reads.\n\
                     fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    assert_eq!(fired("crates/wavelets/src/kernels.rs", commented), [""; 0]);

    // A multi-line SAFETY paragraph above attributes still counts even
    // when only its tail is within the window.
    let block = "// SAFETY: a longer justification that\n// wraps over\n// three lines.\n\
                 #[inline]\n#[cold]\nunsafe fn g() {}\n";
    assert_eq!(fired("crates/wavelets/src/kernels.rs", block), [""; 0]);
}

#[test]
fn decode_alloc_cap_fires_on_uncapped_wire_sized_allocations() {
    let firing = "fn from_bytes(bytes: &[u8]) -> Vec<u8> {\n\
                  \x20   let n = bytes.len();\n\
                  \x20   Vec::with_capacity(n)\n}\n";
    assert_eq!(
        fired("crates/demo/src/lib.rs", firing),
        ["decode-alloc-cap"]
    );

    let vec_macro = "fn decode_frame(bytes: &[u8]) -> Vec<u8> {\n\
                     \x20   let n = bytes.len();\n\
                     \x20   vec![0u8; n]\n}\n";
    assert_eq!(
        fired("crates/demo/src/lib.rs", vec_macro),
        ["decode-alloc-cap"]
    );
}

#[test]
fn decode_alloc_cap_accepts_capped_or_constant_sizes() {
    let capped = "fn from_bytes(bytes: &[u8]) -> Vec<u8> {\n\
                  \x20   let n = bytes.len();\n\
                  \x20   if n > MAX_FRAME_BYTES { return Vec::new(); }\n\
                  \x20   Vec::with_capacity(n)\n}\n";
    assert_eq!(fired("crates/demo/src/lib.rs", capped), [""; 0]);

    let constant =
        "fn from_bytes(_bytes: &[u8]) -> Vec<u8> { Vec::with_capacity(HEADER_LEN * 2) }\n";
    assert_eq!(fired("crates/demo/src/lib.rs", constant), [""; 0]);

    // Non-decoder functions may size buffers freely.
    let not_decoder = "fn resample(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n";
    assert_eq!(fired("crates/demo/src/lib.rs", not_decoder), [""; 0]);
}

#[test]
fn pool_not_raw_threads_fires_outside_pool_bench_test() {
    let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
    assert_eq!(
        fired("crates/demo/src/lib.rs", spawn),
        ["pool-not-raw-threads"]
    );

    let scope = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
    assert_eq!(fired("examples/demo.rs", scope), ["pool-not-raw-threads"]);
}

#[test]
fn pool_not_raw_threads_exempts_pool_bench_and_tests() {
    let src = "fn f() { std::thread::spawn(|| {}); }\n";
    assert_eq!(fired("vendor/workpool/src/lib.rs", src), [""; 0]);
    assert_eq!(fired("crates/bench/benches/demo.rs", src), [""; 0]);
    assert_eq!(fired("tests/demo.rs", src), [""; 0]);
}

#[test]
fn no_wallclock_in_core_fires_outside_autotune() {
    let instant = "fn f() -> std::time::Instant { std::time::Instant::now() }\n";
    assert_eq!(
        fired("crates/engine/src/lib.rs", instant),
        ["no-wallclock-in-core"]
    );

    let systemtime = "fn f() -> SystemTime { SystemTime::now() }\n";
    assert_eq!(
        fired("crates/core/src/sketch.rs", systemtime),
        ["no-wallclock-in-core"]
    );
}

#[test]
fn no_wallclock_in_core_allows_autotune_and_benches() {
    let src = "fn f() -> std::time::Instant { std::time::Instant::now() }\n";
    assert_eq!(fired("crates/core/src/autotune.rs", src), [""; 0]);
    assert_eq!(fired("crates/bench/benches/demo.rs", src), [""; 0]);
}

#[test]
fn panic_free_decode_fires_on_panicky_decoders() {
    let unwrap = "fn decode_frame(bytes: &[u8]) -> u8 { bytes.iter().next().unwrap() }\n";
    assert_eq!(
        fired("crates/demo/src/lib.rs", unwrap),
        ["panic-free-decode"]
    );

    let macro_panic = "fn from_bytes(bytes: &[u8]) -> u8 { panic!(\"bad frame\") }\n";
    assert_eq!(
        fired("crates/demo/src/lib.rs", macro_panic),
        ["panic-free-decode"]
    );

    let indexing = "fn read_header(bytes: &[u8], base: usize) -> u8 { bytes[base + 4] }\n";
    assert_eq!(
        fired("crates/demo/src/lib.rs", indexing),
        ["panic-free-decode"]
    );
}

#[test]
fn panic_free_decode_accepts_checked_decoders() {
    let checked = "fn from_bytes(bytes: &[u8]) -> Option<u8> {\n\
                   \x20   let first = bytes.first()?;\n\
                   \x20   Some(*first)\n}\n";
    assert_eq!(fired("crates/demo/src/lib.rs", checked), [""; 0]);

    // Literal and non-additive indexing are not offset arithmetic.
    let plain_index = "fn decode_slot(bytes: &[u8]) -> u8 { bytes[0] / bytes[1] }\n";
    assert_eq!(fired("crates/demo/src/lib.rs", plain_index), [""; 0]);

    // Panics outside decoder fns are someone else's business.
    let not_decoder = "fn merge(values: &[u8]) -> u8 { values.iter().next().unwrap() }\n";
    assert_eq!(fired("crates/demo/src/lib.rs", not_decoder), [""; 0]);
}

#[test]
fn error_enum_doc_fires_on_undocumented_variants() {
    let firing = "/// Parser errors.\npub enum DemoError {\n\
                  \x20   /// The header magic did not match.\n\
                  \x20   BadMagic,\n\
                  \x20   Truncated,\n}\n";
    let found = violations("crates/demo/src/lib.rs", firing);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, "error-enum-doc");
    assert_eq!(found[0].line, 5);
}

#[test]
fn error_enum_doc_accepts_documented_enums_and_non_error_enums() {
    let clean = "/// Parser errors.\npub enum DemoError {\n\
                 \x20   /// The header magic did not match.\n\
                 \x20   BadMagic,\n\
                 \x20   /// The frame ended mid-payload.\n\
                 \x20   #[allow(dead_code)]\n\
                 \x20   Truncated { offset: usize },\n}\n";
    assert_eq!(fired("crates/demo/src/lib.rs", clean), [""; 0]);

    let not_error = "pub enum Mode {\n    Fast,\n    Exact,\n}\n";
    assert_eq!(fired("crates/demo/src/lib.rs", not_error), [""; 0]);
}

#[test]
fn bench_honesty_fires_on_bench_json_without_parallelism() {
    let firing = "fn main() { std::fs::write(\"BENCH_demo.json\", \"{}\").ok(); }\n";
    assert_eq!(
        fired("crates/bench/benches/demo.rs", firing),
        ["bench-honesty"]
    );
}

#[test]
fn bench_honesty_accepts_recorded_parallelism_and_non_bench_files() {
    let clean = "fn main() {\n\
                 \x20   let threads = std::thread::available_parallelism().map_or(0, |n| n.get());\n\
                 \x20   std::fs::write(\"BENCH_demo.json\", format!(\"{{\\\"threads\\\":{threads}}}\")).ok();\n}\n";
    assert_eq!(fired("crates/bench/benches/demo.rs", clean), [""; 0]);

    // The rule only applies to bench code.
    let not_bench = "fn main() { std::fs::write(\"BENCH_demo.json\", \"{}\").ok(); }\n";
    assert_eq!(fired("crates/demo/src/main.rs", not_bench), [""; 0]);
}

#[test]
fn basis_interned_fires_on_fresh_default_tables() {
    let firing = "fn basis() -> Arc<WaveletBasis> {\n\
                  \x20   Arc::new(WaveletBasis::new(WaveletFamily::Symmlet(8)).unwrap())\n}\n";
    assert_eq!(
        fired("crates/core/src/sketch.rs", firing),
        ["basis-interned"]
    );
    let qualified = "fn basis() -> wavedens_core::WaveletBasis {\n\
                     \x20   wavedens_core::WaveletBasis::new(WaveletFamily::Haar).unwrap()\n}\n";
    assert_eq!(fired("examples/demo.rs", qualified), ["basis-interned"]);
}

#[test]
fn basis_interned_accepts_shared_explicit_depths_and_exempt_code() {
    let shared = "fn basis() -> Arc<WaveletBasis> {\n\
                  \x20   WaveletBasis::shared(WaveletFamily::Symmlet(8)).unwrap()\n}\n";
    assert_eq!(fired("crates/core/src/sketch.rs", shared), [""; 0]);
    let depth = "fn basis() -> WaveletBasis {\n\
                 \x20   WaveletBasis::with_table_levels(WaveletFamily::Symmlet(8), 6).unwrap()\n}\n";
    assert_eq!(fired("crates/core/src/sketch.rs", depth), [""; 0]);

    let fresh = "fn basis() -> WaveletBasis { WaveletBasis::new(WaveletFamily::Haar).unwrap() }\n";
    // The wavelets crate owns the constructor; tests and benches may
    // build fresh tables.
    assert_eq!(fired("crates/wavelets/src/tensor.rs", fresh), [""; 0]);
    assert_eq!(fired("tests/demo.rs", fresh), [""; 0]);
    assert_eq!(fired("crates/bench/benches/demo.rs", fresh), [""; 0]);
    let in_test = format!("#[cfg(test)]\nmod tests {{\n    {fresh}}}\n");
    assert_eq!(fired("crates/core/src/sketch.rs", &in_test), [""; 0]);
    // A mention in a comment or string is not a call.
    let mentioned = "// WaveletBasis::new(family) re-tabulates\n\
                     fn f() -> &'static str { \"WaveletBasis::new(\" }\n";
    assert_eq!(fired("crates/core/src/sketch.rs", mentioned), [""; 0]);
}

#[test]
fn one_scatter_loop_fires_outside_the_tensor_level_loop() {
    let call = "fn f(t: &WaveletTable, xs: &[f64], s: &mut Sums) {\n\
                \x20   t.scatter_rows_phi(xs, OuterRows::Unit, 4.0, 2.0, 0, s.r, s.s, s.q);\n}\n";
    assert_eq!(
        fired("crates/core/src/coefficients.rs", call),
        ["one-scatter-loop"]
    );
    // Taking the method as a function value is a use too.
    let pointer = "fn f() { let scatter = WaveletTable::scatter_rows_psi; }\n";
    assert_eq!(
        fired("crates/engine/src/sharded.rs", pointer),
        ["one-scatter-loop"]
    );
}

#[test]
fn one_scatter_loop_accepts_the_level_loop_and_exempt_code() {
    let call = "fn f(t: &WaveletTable, xs: &[f64], s: &mut Sums) {\n\
                \x20   t.scatter_rows_psi(xs, OuterRows::Unit, 4.0, 2.0, 0, s.r, s.s, s.q);\n}\n";
    assert_eq!(fired("crates/core/src/tensor.rs", call), [""; 0]);
    assert_eq!(fired("crates/wavelets/src/cascade.rs", call), [""; 0]);
    assert_eq!(fired("tests/kernel_equivalence.rs", call), [""; 0]);
    assert_eq!(fired("crates/bench/benches/simd.rs", call), [""; 0]);
    let in_test = format!("#[cfg(test)]\nmod tests {{\n    {call}}}\n");
    assert_eq!(fired("crates/core/src/coefficients.rs", &in_test), [""; 0]);
    // A mention in a comment or string is not a use.
    let mentioned = "// the level loop calls scatter_rows_phi per level\n\
                     fn f() -> &'static str { \"scatter_rows_psi(\" }\n";
    assert_eq!(fired("crates/core/src/sketch.rs", mentioned), [""; 0]);
}

#[test]
fn no_try_lock_fires_outside_tests_and_benches() {
    let method = "fn f(m: &std::sync::Mutex<u32>) -> bool { m.try_lock().is_ok() }\n";
    assert_eq!(
        fired("crates/engine/src/synopsis.rs", method),
        ["no-try-lock"]
    );
    let path_call =
        "fn f(m: &std::sync::Mutex<u32>) -> bool { std::sync::Mutex::try_lock(m).is_ok() }\n";
    assert_eq!(fired("examples/demo.rs", path_call), ["no-try-lock"]);
}

#[test]
fn no_try_lock_accepts_blocking_locks_and_exempt_code() {
    let blocking =
        "fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap_or_else(|p| p.into_inner()) }\n";
    assert_eq!(fired("crates/engine/src/synopsis.rs", blocking), [""; 0]);

    let probe = "fn f(m: &std::sync::Mutex<u32>) -> bool { m.try_lock().is_ok() }\n";
    assert_eq!(fired("tests/demo.rs", probe), [""; 0]);
    assert_eq!(fired("crates/bench/benches/demo.rs", probe), [""; 0]);
    let in_test = format!("#[cfg(test)]\nmod tests {{\n    {probe}}}\n");
    assert_eq!(fired("crates/engine/src/synopsis.rs", &in_test), [""; 0]);
    // A mention in a comment or string, or another identifier, is not a call.
    let mentioned = "// readers never try_lock() the guard\n\
                     fn f() -> &'static str { \"try_lock(\" }\n\
                     fn try_locked() {}\n";
    assert_eq!(fired("crates/engine/src/synopsis.rs", mentioned), [""; 0]);
}

#[test]
fn waivers_suppress_with_justification_only() {
    // Justified waiver on the violation's own line: suppressed.
    let same_line = "fn f() { std::thread::spawn(|| {}); } \
                     // lint:allow(pool-not-raw-threads) demo fixture needs a raw thread\n";
    assert_eq!(fired("crates/demo/src/lib.rs", same_line), [""; 0]);

    // Justified waiver on the line above: suppressed.
    let line_above = "// lint:allow(pool-not-raw-threads) demo fixture needs a raw thread\n\
                      fn f() { std::thread::spawn(|| {}); }\n";
    assert_eq!(fired("crates/demo/src/lib.rs", line_above), [""; 0]);

    // A waiver without justification suppresses nothing and is itself
    // reported.
    let bare = "// lint:allow(pool-not-raw-threads)\nfn f() { std::thread::spawn(|| {}); }\n";
    let found = fired("crates/demo/src/lib.rs", bare);
    assert!(found.contains(&"pool-not-raw-threads"), "{found:?}");
    assert!(found.contains(&"waiver-syntax"), "{found:?}");

    // A waiver naming an unknown rule is reported.
    let unknown = "// lint:allow(no-such-rule) because reasons\nfn f() {}\n";
    assert_eq!(fired("crates/demo/src/lib.rs", unknown), ["waiver-syntax"]);

    // A waiver two lines away does not reach the violation.
    let too_far = "// lint:allow(pool-not-raw-threads) too far away\n\n\
                   fn f() { std::thread::spawn(|| {}); }\n";
    assert_eq!(
        fired("crates/demo/src/lib.rs", too_far),
        ["pool-not-raw-threads"]
    );
}

#[test]
fn every_rule_has_a_summary_and_rationale() {
    for rule in wavedens_lint::rules::all_rules() {
        assert!(!rule.summary.is_empty(), "{} lacks a summary", rule.name);
        assert!(
            rule.rationale.len() > rule.summary.len(),
            "{} rationale should expand on its summary",
            rule.name
        );
        assert!(
            wavedens_lint::rules::rule_by_name(rule.name).is_some(),
            "{} must be findable by name",
            rule.name
        );
    }
}
