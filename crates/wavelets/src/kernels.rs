//! Vector kernels for the ingest and query hot loops.
//!
//! # The two-run polyphase invariant
//!
//! The gather fast path of [`crate::cascade::WaveletTable`] relies on one
//! structural fact, established by the phase-major, node-reversed
//! polyphase layout (`poly[p·(support+1) + (support−q)] = values[q·2^J +
//! p]`): reading one observation at a window of **consecutive
//! translations** touches exactly **two contiguous forward runs** of the
//! polyphase table — the run of row `p` (the observation's fractional
//! phase) and the run of row `p + 1` (its interpolation neighbour) — and
//! every slot of the window shares the same pair of interpolation weights
//! `(1 − frac, frac)`. Slot `m` of the window is therefore the pure
//! element-wise expression
//!
//! ```text
//! out[m] = lo[m]·w0 + hi[m]·w1
//! ```
//!
//! with `lo`/`hi` the two runs: no per-slot index arithmetic, no
//! per-slot rounding, no branches. That is exactly the shape SIMD wants,
//! and it is the contract every kernel in this module is written against.
//! The fallback windows (table edge, or a phase-`2^J − 1` base whose
//! interpolation neighbour wraps to the next phase-0 node) never reach
//! these kernels — [`crate::cascade`] routes them through the per-slot
//! walk of the dense table.
//!
//! # The kernels
//!
//! * [`lerp_runs`] — the gather: `out[m] = lo[m]·w0 + hi[m]·w1`.
//! * [`scaled_accumulate`] — moment accumulation of a gather row:
//!   `v = scale·raw[m]; sums[m] += v; squares[m] += v²`.
//! * The fused ingest kernel — both at once, times an outer weight:
//!   `v = weight·(scale·(lo[m]·w0 + hi[m]·w1))`. The weight is what lets
//!   one scatter loop serve both dims: a 1-D level passes 1 (bitwise the
//!   unweighted update), a 2-D level passes each pre-scaled `x` factor
//!   value while the kernel walks the `y` window. It has no public entry
//!   point of its own: [`WaveletTable::scatter_rows_phi`] resolves the
//!   backend once per call (once per level per chunk) and inlines the
//!   scalar or AVX2 body into its row loop.
//! * [`accumulate_lerp`] — the dense-evaluation sweep of one basis
//!   function over a grid.
//!
//! [`WaveletTable::scatter_rows_phi`]: crate::cascade::WaveletTable::scatter_rows_phi
//!
//! # Backends
//!
//! Two implementations are provided per kernel, both computing the same
//! per-slot scalar expression so they agree **bitwise** (each lane
//! performs the identical sequence of f64 multiplies and adds — the
//! intrinsics path deliberately avoids FMA contraction for this reason;
//! the ≤1e-12 proptest pin in `tests/kernel_equivalence.rs` is therefore
//! satisfied with margin):
//!
//! * [`Backend::Scalar`] — the plain `zip` loop: the reference the
//!   equivalence tests compare against, and the fallback on CPUs without
//!   AVX2 and on every other architecture.
//! * [`Backend::Intrinsics`] — explicit AVX2 256-bit vectors, compiled
//!   into every x86-64 build and selected at run time when the CPU
//!   reports AVX2. No cargo feature or build flag is involved.
//!
//! The active backend is process-global: runtime detection picks it, and
//! [`set_backend_override`] lets benchmarks and equivalence tests pin a
//! specific backend (a request for [`Backend::Intrinsics`] on a CPU
//! without AVX2 clamps to [`Backend::Scalar`], so the override can never
//! select dead code).

use std::sync::atomic::{AtomicBool, Ordering};

/// Kernel implementation selector; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Plain per-slot loop (the reference implementation).
    Scalar,
    /// Runtime-detected AVX2 vectors (x86-64 only).
    Intrinsics,
}

impl Backend {
    /// Stable label for logs and bench series.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Intrinsics => "intrinsics",
        }
    }
}

/// Set while an override pins [`Backend::Scalar`]; any other override
/// request is what detection picks anyway.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Whether the CPU runs the AVX2 intrinsics backend, which every x86-64
/// build compiles in: `is_x86_feature_detected!("avx2")` (cached by the
/// standard library after the first probe). Always `false` off x86-64.
pub fn intrinsics_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The backend the kernels currently dispatch to: [`Backend::Intrinsics`]
/// when the CPU supports it and no override pins [`Backend::Scalar`],
/// [`Backend::Scalar`] otherwise.
pub fn active_backend() -> Backend {
    if !FORCE_SCALAR.load(Ordering::Relaxed) && intrinsics_available() {
        Backend::Intrinsics
    } else {
        Backend::Scalar
    }
}

/// Pins the dispatch to a specific backend (`None` restores runtime
/// detection; an [`Backend::Intrinsics`] request the CPU cannot run
/// clamps to [`Backend::Scalar`]). Used by the equivalence tests and the
/// `simd` bench series; process-global, so concurrent tests pinning
/// different backends should serialise themselves.
pub fn set_backend_override(backend: Option<Backend>) {
    FORCE_SCALAR.store(backend == Some(Backend::Scalar), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Kernel 1 — two-run gather lerp: out[m] = lo[m]·w0 + hi[m]·w1.
// ---------------------------------------------------------------------------

/// The gather kernel: interpolates the two contiguous polyphase runs into
/// the output window, `out[m] = lo[m]·w0 + hi[m]·w1`.
///
/// `lo` and `hi` must be at least as long as `out`; the (checked) slicing
/// happens here so the callers stay branch-free.
#[inline]
pub fn lerp_runs(lo: &[f64], hi: &[f64], w0: f64, w1: f64, out: &mut [f64]) {
    let n = out.len();
    let (lo, hi) = (&lo[..n], &hi[..n]);
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Intrinsics => avx::lerp_runs(lo, hi, w0, w1, out),
        _ => lerp_runs_scalar(lo, hi, w0, w1, out),
    }
}

#[inline]
fn lerp_runs_scalar(lo: &[f64], hi: &[f64], w0: f64, w1: f64, out: &mut [f64]) {
    for ((slot, &a), &b) in out.iter_mut().zip(lo).zip(hi) {
        *slot = a * w0 + b * w1;
    }
}

// ---------------------------------------------------------------------------
// Kernel 2 — scatter accumulation: v = scale·raw[m]; sums[m] += v;
// squares[m] += v·v.
// ---------------------------------------------------------------------------

/// The scatter kernel: scales a gather row and accumulates value and
/// value² into the running sums, `v = scale·raw[m]; sums[m] += v;
/// squares[m] += v·v`.
///
/// Accumulates over the shortest of the three slices.
#[inline]
pub fn scaled_accumulate(scale: f64, raw: &[f64], sums: &mut [f64], squares: &mut [f64]) {
    let n = raw.len().min(sums.len()).min(squares.len());
    let (raw, sums, squares) = (&raw[..n], &mut sums[..n], &mut squares[..n]);
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Intrinsics => avx::scaled_accumulate(scale, raw, sums, squares),
        _ => scaled_accumulate_scalar(scale, raw, sums, squares),
    }
}

#[inline]
fn scaled_accumulate_scalar(scale: f64, raw: &[f64], sums: &mut [f64], squares: &mut [f64]) {
    for ((sum, square), &r) in sums.iter_mut().zip(squares.iter_mut()).zip(raw) {
        let value = scale * r;
        *sum += value;
        *square += value * value;
    }
}

// ---------------------------------------------------------------------------
// Kernel 2b — fused gather→scatter with an outer weight:
// v = weight·(scale·(lo[m]·w0 + hi[m]·w1)); sums[m] += v; squares[m] += v·v.
// ---------------------------------------------------------------------------

/// The fused ingest kernel (scalar body): interpolates the two polyphase
/// runs and scatters the `scale`-normalised value, times the outer row's
/// `weight`, and its square straight into the running sums, without
/// materialising the gather row:
///
/// ```text
/// v = weight · (scale · (lo[m]·w0 + hi[m]·w1));   sums[m] += v;   squares[m] += v²
/// ```
///
/// Per slot this is exactly [`lerp_runs`], a multiply by `scale`, and
/// [`scaled_accumulate`] at `weight` — the same f64 expression sequence,
/// so fusing is bitwise neutral — but it saves the round-trip of the
/// gather row through a scratch buffer. At `weight == 1` it is bitwise
/// the unweighted update (`1.0·v == v`). Its one caller is the
/// whole-chunk scatter of [`crate::cascade`], which resolves the backend
/// once per call (`scatter_rows_dispatch`) and inlines this body, or the
/// AVX2 one, into its row loop.
///
/// `lo`, `hi` and `squares` must be at least as long as `sums`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn lerp_scaled_accumulate_scalar(
    lo: &[f64],
    hi: &[f64],
    w0: f64,
    w1: f64,
    scale: f64,
    weight: f64,
    sums: &mut [f64],
    squares: &mut [f64],
) {
    for (((sum, square), &a), &b) in sums.iter_mut().zip(squares.iter_mut()).zip(lo).zip(hi) {
        let value = weight * (scale * (a * w0 + b * w1));
        *sum += value;
        *square += value * value;
    }
}

// ---------------------------------------------------------------------------
// Kernel 3 — dense-eval strided lerp: out[i] += coeff · lerp(values,
// pos0 + dpos·i), with full boundary handling.
// ---------------------------------------------------------------------------

/// The dense-evaluation kernel: strided linear interpolation of the table,
/// `out[i] += coeff · table(pos0 + dpos·i)` in table-index units, with the
/// boundary conventions of pointwise lookup (0 before index 0 and past the
/// last node, the last node itself included).
///
/// The position of slot `i` is recomputed multiplicatively (`pos0 +
/// dpos·i`, never by repeated addition), so there is no cumulative drift
/// over long grids and every backend computes the identical per-slot
/// expression. The AVX2 backend processes blocks of slots whose entire
/// position range is interior to the table (positions are monotonic in
/// `i`, so checking a block's endpoints suffices); boundary blocks take
/// the scalar per-slot path.
#[inline]
pub fn accumulate_lerp(values: &[f64], pos0: f64, dpos: f64, coeff: f64, out: &mut [f64]) {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Intrinsics => avx::accumulate_lerp(values, pos0, dpos, coeff, out),
        _ => accumulate_lerp_scalar(values, pos0, dpos, coeff, out, 0),
    }
}

/// The reference per-slot loop, starting at slot `first` (so the blocked
/// path can delegate remainders without re-deriving positions).
#[inline]
fn accumulate_lerp_scalar(
    values: &[f64],
    pos0: f64,
    dpos: f64,
    coeff: f64,
    out: &mut [f64],
    first: usize,
) {
    for (i, slot) in out.iter_mut().enumerate() {
        let pos = pos0 + dpos * (first + i) as f64;
        if pos < 0.0 {
            continue;
        }
        let idx = pos as usize;
        if idx + 1 >= values.len() {
            if idx + 1 == values.len() {
                *slot += coeff * values[idx];
            }
            continue;
        }
        let frac = pos - idx as f64;
        *slot += coeff * (values[idx] * (1.0 - frac) + values[idx + 1] * frac);
    }
}

// ---------------------------------------------------------------------------
// AVX2 backend (built into every x86-64 build, runtime-detected).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx {
    //! Explicit AVX2 implementations. Every lane computes the same f64
    //! multiply/add sequence as the scalar reference (no FMA contraction),
    //! so the results are bitwise identical; the speedup comes from the
    //! 4-wide registers, not from fused rounding.
    #![allow(unsafe_code)]

    use std::arch::x86_64::{
        __m256i, _mm256_add_pd, _mm256_loadu_pd, _mm256_maskload_pd, _mm256_maskstore_pd,
        _mm256_mul_pd, _mm256_set1_pd, _mm256_setr_epi64x, _mm256_storeu_pd,
    };

    /// Lane mask with the first `rem` (< 4) lanes active. Masked lanes of
    /// `maskload`/`maskstore` neither fault nor write, so a short tail can
    /// run as one masked vector op instead of a per-slot scalar loop —
    /// bitwise identical per active lane.
    // SAFETY: callers must run only after runtime AVX2 detection; the
    // body itself touches no memory.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tail_mask(rem: usize) -> __m256i {
        let lane = |l: usize| if l < rem { -1_i64 } else { 0 };
        _mm256_setr_epi64x(lane(0), lane(1), lane(2), lane(3))
    }

    /// Caller guarantees `lo.len() == hi.len() == out.len()` and that the
    /// CPU supports AVX2 (checked by [`super::active_backend`]).
    #[inline]
    pub(super) fn lerp_runs(lo: &[f64], hi: &[f64], w0: f64, w1: f64, out: &mut [f64]) {
        // SAFETY: dispatch reaches this module only after
        // `is_x86_feature_detected!("avx2")` returned true.
        unsafe { lerp_runs_avx2(lo, hi, w0, w1, out) }
    }

    // SAFETY: callers must run only after runtime AVX2 detection and
    // pass `lo`/`hi`/`out` of equal length (the loads/stores below index
    // all three by `out`'s bounds).
    #[target_feature(enable = "avx2")]
    unsafe fn lerp_runs_avx2(lo: &[f64], hi: &[f64], w0: f64, w1: f64, out: &mut [f64]) {
        let n = out.len();
        let vw0 = _mm256_set1_pd(w0);
        let vw1 = _mm256_set1_pd(w1);
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` and the caller sliced all three
            // buffers to the same length `n`.
            unsafe {
                let a = _mm256_loadu_pd(lo.as_ptr().add(i));
                let b = _mm256_loadu_pd(hi.as_ptr().add(i));
                let acc = _mm256_add_pd(_mm256_mul_pd(a, vw0), _mm256_mul_pd(b, vw1));
                _mm256_storeu_pd(out.as_mut_ptr().add(i), acc);
            }
            i += 4;
        }
        if i < n {
            // SAFETY: the mask keeps every lane ≥ `n − i` inactive, and
            // masked lanes neither fault nor store.
            unsafe {
                let mask = tail_mask(n - i);
                let a = _mm256_maskload_pd(lo.as_ptr().add(i), mask);
                let b = _mm256_maskload_pd(hi.as_ptr().add(i), mask);
                let acc = _mm256_add_pd(_mm256_mul_pd(a, vw0), _mm256_mul_pd(b, vw1));
                _mm256_maskstore_pd(out.as_mut_ptr().add(i), mask, acc);
            }
        }
    }

    /// Caller guarantees equal lengths and AVX2 support.
    #[inline]
    pub(super) fn scaled_accumulate(
        scale: f64,
        raw: &[f64],
        sums: &mut [f64],
        squares: &mut [f64],
    ) {
        // SAFETY: dispatch reaches this module only after
        // `is_x86_feature_detected!("avx2")` returned true.
        unsafe { scaled_accumulate_avx2(scale, raw, sums, squares) }
    }

    // SAFETY: callers must run only after runtime AVX2 detection and
    // pass `raw`/`sums`/`squares` of equal length (the loads/stores
    // below index all three by `raw`'s bounds).
    #[target_feature(enable = "avx2")]
    unsafe fn scaled_accumulate_avx2(
        scale: f64,
        raw: &[f64],
        sums: &mut [f64],
        squares: &mut [f64],
    ) {
        let n = raw.len();
        let vscale = _mm256_set1_pd(scale);
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` and the caller sliced all three
            // buffers to the same length `n`.
            unsafe {
                let r = _mm256_loadu_pd(raw.as_ptr().add(i));
                let value = _mm256_mul_pd(vscale, r);
                let s = _mm256_loadu_pd(sums.as_ptr().add(i));
                let q = _mm256_loadu_pd(squares.as_ptr().add(i));
                _mm256_storeu_pd(sums.as_mut_ptr().add(i), _mm256_add_pd(s, value));
                _mm256_storeu_pd(
                    squares.as_mut_ptr().add(i),
                    _mm256_add_pd(q, _mm256_mul_pd(value, value)),
                );
            }
            i += 4;
        }
        super::scaled_accumulate_scalar(scale, &raw[i..], &mut sums[i..], &mut squares[i..]);
    }

    /// Whole-chunk scatter row loop on the intrinsics backend: enters a
    /// `#[target_feature(enable = "avx2")]` function *once per call* and
    /// runs [`crate::cascade::scatter_rows_impl`] inside it, so the AVX2
    /// fused kernel inlines into the row loop instead of costing an opaque
    /// call per `(observation, row)` pair.
    pub(crate) fn scatter_rows(job: crate::cascade::RowScatter<'_>) {
        // SAFETY: dispatch reaches this module only after
        // `is_x86_feature_detected!("avx2")` returned true.
        unsafe { scatter_rows_avx2(job) }
    }

    // SAFETY: callers must run only after runtime AVX2 detection; the
    // body delegates slice handling to the shared safe row loop.
    #[target_feature(enable = "avx2")]
    unsafe fn scatter_rows_avx2(job: crate::cascade::RowScatter<'_>) {
        crate::cascade::scatter_rows_impl(
            // The closure inherits this function's AVX2 target feature, so
            // the intrinsics body inlines into the row loop.
            &|lo: &[f64], hi, w0, w1, scale, weight, sums: &mut [f64], squares: &mut [f64]| {
                // SAFETY: enclosing function runs only after runtime AVX2
                // detection, and the row loop passes equal-length slices.
                unsafe { lerp_scaled_accumulate_avx2(lo, hi, w0, w1, scale, weight, sums, squares) }
            },
            job,
        );
    }

    // SAFETY: callers must run only after runtime AVX2 detection and
    // pass `lo`/`hi`/`sums`/`squares` of equal length (the loads/stores
    // below index all four by `sums`'s bounds).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn lerp_scaled_accumulate_avx2(
        lo: &[f64],
        hi: &[f64],
        w0: f64,
        w1: f64,
        scale: f64,
        weight: f64,
        sums: &mut [f64],
        squares: &mut [f64],
    ) {
        let n = sums.len();
        let vw0 = _mm256_set1_pd(w0);
        let vw1 = _mm256_set1_pd(w1);
        let vscale = _mm256_set1_pd(scale);
        let vweight = _mm256_set1_pd(weight);
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` and the caller sliced all four
            // buffers to the same length `n`.
            unsafe {
                let a = _mm256_loadu_pd(lo.as_ptr().add(i));
                let b = _mm256_loadu_pd(hi.as_ptr().add(i));
                let raw = _mm256_add_pd(_mm256_mul_pd(a, vw0), _mm256_mul_pd(b, vw1));
                let value = _mm256_mul_pd(vweight, _mm256_mul_pd(vscale, raw));
                let s = _mm256_loadu_pd(sums.as_ptr().add(i));
                let q = _mm256_loadu_pd(squares.as_ptr().add(i));
                _mm256_storeu_pd(sums.as_mut_ptr().add(i), _mm256_add_pd(s, value));
                _mm256_storeu_pd(
                    squares.as_mut_ptr().add(i),
                    _mm256_add_pd(q, _mm256_mul_pd(value, value)),
                );
            }
            i += 4;
        }
        if i < n {
            // SAFETY: the mask keeps every lane ≥ `n − i` inactive, and
            // masked lanes neither fault nor store.
            unsafe {
                let mask = tail_mask(n - i);
                let a = _mm256_maskload_pd(lo.as_ptr().add(i), mask);
                let b = _mm256_maskload_pd(hi.as_ptr().add(i), mask);
                let raw = _mm256_add_pd(_mm256_mul_pd(a, vw0), _mm256_mul_pd(b, vw1));
                let value = _mm256_mul_pd(vweight, _mm256_mul_pd(vscale, raw));
                let s = _mm256_maskload_pd(sums.as_ptr().add(i), mask);
                let q = _mm256_maskload_pd(squares.as_ptr().add(i), mask);
                _mm256_maskstore_pd(sums.as_mut_ptr().add(i), mask, _mm256_add_pd(s, value));
                _mm256_maskstore_pd(
                    squares.as_mut_ptr().add(i),
                    mask,
                    _mm256_add_pd(q, _mm256_mul_pd(value, value)),
                );
            }
        }
    }

    /// Blocked dense-eval sweep of [`super::accumulate_lerp`]: interior
    /// 4-slot blocks run branch-free in AVX2, everything else delegates to
    /// the scalar loop.
    pub(super) fn accumulate_lerp(
        values: &[f64],
        pos0: f64,
        dpos: f64,
        coeff: f64,
        out: &mut [f64],
    ) {
        // Positions must be monotonic for the endpoint check to cover a
        // block; a non-positive stride is not worth blocking anyway.
        if dpos <= 0.0 || !dpos.is_finite() || !pos0.is_finite() || values.len() < 2 {
            return super::accumulate_lerp_scalar(values, pos0, dpos, coeff, out, 0);
        }
        let interior = (values.len() - 1) as f64;
        let n = out.len();
        let mut i = 0;
        while i + 4 <= n {
            let lo_pos = pos0 + dpos * i as f64;
            let hi_pos = pos0 + dpos * (i + 3) as f64;
            let block = &mut out[i..i + 4];
            if lo_pos >= 0.0 && hi_pos < interior {
                // SAFETY: dispatch reaches this module only after
                // `is_x86_feature_detected!("avx2")` returned true, and the
                // endpoint check above puts every position of the block in
                // `[0, values.len()−1)`.
                unsafe { accumulate_lerp_block_avx2(values, pos0, dpos, coeff, block, i) }
            } else {
                // Boundary block: per-slot path, then re-enter blocking (the
                // grid may cross into the support later, or leave it).
                super::accumulate_lerp_scalar(values, pos0, dpos, coeff, block, i);
            }
            i += 4;
        }
        super::accumulate_lerp_scalar(values, pos0, dpos, coeff, &mut out[i..], i);
    }

    /// One interior 4-slot dense-eval block. The per-lane table reads
    /// stay scalar (the indices are not contiguous); the position
    /// arithmetic and the lerp use AVX2.
    // SAFETY: callers must run only after runtime AVX2 detection and
    // uphold the block contract: every interpolation position in
    // `[0, values.len()−1)` and `out.len() == 4`.
    #[target_feature(enable = "avx2")]
    unsafe fn accumulate_lerp_block_avx2(
        values: &[f64],
        pos0: f64,
        dpos: f64,
        coeff: f64,
        out: &mut [f64],
        first: usize,
    ) {
        let mut lo = [0.0_f64; 4];
        let mut hi = [0.0_f64; 4];
        let mut frac = [0.0_f64; 4];
        for l in 0..4 {
            let pos = pos0 + dpos * (first + l) as f64;
            let idx = pos as usize;
            frac[l] = pos - idx as f64;
            lo[l] = values[idx];
            hi[l] = values[idx + 1];
        }
        // SAFETY: the stack arrays are 4 lanes and `out.len() == 4`.
        unsafe {
            let vone = _mm256_set1_pd(1.0);
            let vcoeff = _mm256_set1_pd(coeff);
            let vfrac = _mm256_loadu_pd(frac.as_ptr());
            let vlo = _mm256_loadu_pd(lo.as_ptr());
            let vhi = _mm256_loadu_pd(hi.as_ptr());
            let w0 = _mm256_add_pd(vone, _mm256_mul_pd(_mm256_set1_pd(-1.0), vfrac));
            let lerp = _mm256_add_pd(_mm256_mul_pd(vlo, w0), _mm256_mul_pd(vhi, vfrac));
            let prev = _mm256_loadu_pd(out.as_ptr());
            _mm256_storeu_pd(
                out.as_mut_ptr(),
                _mm256_add_pd(prev, _mm256_mul_pd(vcoeff, lerp)),
            );
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The backend override is process-global; tests that touch it hold
    /// this lock so the parallel test harness cannot interleave them.
    pub(crate) fn override_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    pub(crate) fn backends() -> Vec<Backend> {
        let mut all = vec![Backend::Scalar];
        if intrinsics_available() {
            all.push(Backend::Intrinsics);
        }
        all
    }

    #[test]
    fn lerp_runs_matches_scalar_on_every_backend() {
        let _guard = override_lock();
        let lo: Vec<f64> = (0..23).map(|i| (i as f64 * 0.37).sin()).collect();
        let hi: Vec<f64> = (0..23).map(|i| (i as f64 * 0.91).cos()).collect();
        for n in [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 23] {
            let mut reference = vec![0.0; n];
            lerp_runs_scalar(&lo[..n], &hi[..n], 0.625, 0.375, &mut reference);
            for backend in backends() {
                set_backend_override(Some(backend));
                let mut out = vec![f64::NAN; n];
                lerp_runs(&lo, &hi, 0.625, 0.375, &mut out);
                assert_eq!(out, reference, "{} n={n}", backend.name());
            }
            set_backend_override(None);
        }
    }

    #[test]
    fn scaled_accumulate_matches_scalar_on_every_backend() {
        let _guard = override_lock();
        let raw: Vec<f64> = (0..19).map(|i| (i as f64 * 0.53).sin()).collect();
        for n in [0, 1, 3, 4, 6, 8, 11, 16, 19] {
            let mut sums_ref = vec![0.25; n];
            let mut squares_ref = vec![0.125; n];
            scaled_accumulate_scalar(1.75, &raw[..n], &mut sums_ref, &mut squares_ref);
            for backend in backends() {
                set_backend_override(Some(backend));
                let mut sums = vec![0.25; n];
                let mut squares = vec![0.125; n];
                scaled_accumulate(1.75, &raw, &mut sums, &mut squares);
                assert_eq!(sums, sums_ref, "{} sums n={n}", backend.name());
                assert_eq!(squares, squares_ref, "{} squares n={n}", backend.name());
            }
            set_backend_override(None);
        }
    }

    /// The fused kernel is the unfused chain — gather, scale, accumulate
    /// at the outer weight — slot for slot, and at weight 1 it is the
    /// plain scaled accumulation. (Its AVX2 body is pinned against this
    /// one through the scatter driver, in `cascade` and
    /// `tests/kernel_equivalence.rs`.)
    #[test]
    fn fused_kernel_equals_gather_then_scatter() {
        let lo: Vec<f64> = (0..21).map(|i| (i as f64 * 0.41).sin()).collect();
        let hi: Vec<f64> = (0..21).map(|i| (i as f64 * 0.77).cos()).collect();
        for n in [0, 1, 3, 4, 5, 8, 13, 16, 21] {
            let mut row = vec![0.0; n];
            lerp_runs_scalar(&lo[..n], &hi[..n], 0.375, 0.625, &mut row);
            let mut sums_ref = vec![0.5; n];
            let mut squares_ref = vec![0.25; n];
            scaled_accumulate_scalar(2.5, &row, &mut sums_ref, &mut squares_ref);
            let scaled: Vec<f64> = row.iter().map(|r| 2.5 * r).collect();
            scaled_accumulate_scalar(-0.75, &scaled, &mut sums_ref, &mut squares_ref);
            let mut sums = vec![0.5; n];
            let mut squares = vec![0.25; n];
            for weight in [1.0, -0.75] {
                lerp_scaled_accumulate_scalar(
                    &lo,
                    &hi,
                    0.375,
                    0.625,
                    2.5,
                    weight,
                    &mut sums,
                    &mut squares,
                );
            }
            assert_eq!(sums, sums_ref, "sums n={n}");
            assert_eq!(squares, squares_ref, "squares n={n}");
        }
    }

    #[test]
    fn accumulate_lerp_matches_scalar_incl_boundaries() {
        let _guard = override_lock();
        let values: Vec<f64> = (0..64).map(|i| (i as f64 * 0.11).sin()).collect();
        // Sweeps that start before the table, cross it, and run past the
        // end; plus a non-positive stride (scalar-only path).
        for &(pos0, dpos) in &[
            (-3.7, 0.9),
            (0.0, 0.26),
            (58.3, 1.7),
            (10.0, -0.5),
            (2.5, 0.0),
        ] {
            let mut reference = vec![0.5; 37];
            accumulate_lerp_scalar(&values, pos0, dpos, 2.25, &mut reference, 0);
            for backend in backends() {
                set_backend_override(Some(backend));
                let mut out = vec![0.5; 37];
                accumulate_lerp(&values, pos0, dpos, 2.25, &mut out);
                assert_eq!(out, reference, "{} pos0={pos0} dpos={dpos}", backend.name());
            }
            set_backend_override(None);
        }
    }

    #[test]
    fn override_clamps_to_available_backends() {
        let _guard = override_lock();
        let detected = if intrinsics_available() {
            Backend::Intrinsics
        } else {
            Backend::Scalar
        };
        set_backend_override(Some(Backend::Intrinsics));
        let active = active_backend();
        if intrinsics_available() {
            assert_eq!(active, Backend::Intrinsics);
        } else {
            assert_eq!(
                active,
                Backend::Scalar,
                "Intrinsics without AVX2 clamps to Scalar"
            );
        }
        set_backend_override(Some(Backend::Scalar));
        assert_eq!(active_backend(), Backend::Scalar);
        set_backend_override(None);
        assert_eq!(active_backend(), detected);
    }
}
