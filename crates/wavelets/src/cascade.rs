//! Cascade-algorithm evaluation of the scaling function `φ` and mother
//! wavelet `ψ` on a dyadic grid.
//!
//! The scaling function of a compactly supported orthonormal wavelet has no
//! closed form; its values are determined by the two-scale refinement
//! equation
//!
//! ```text
//! φ(x) = √2 Σ_k h_k φ(2x − k),            ψ(x) = √2 Σ_k g_k φ(2x − k).
//! ```
//!
//! Values at the integers are the (suitably normalised) eigenvector of the
//! refinement matrix for eigenvalue 1; values at dyadic rationals
//! `m / 2^t` then follow exactly by applying the refinement equation level
//! by level. This is the classical cascade construction used by Wavelab's
//! `MakeWavelet`, which the paper relies on to approximate `ψ_{j,k}(X_i)` on
//! an equispaced grid.
//!
//! Besides pointwise lookup ([`WaveletTable::phi`]/[`psi`](WaveletTable::psi))
//! the table exposes two strided primitives that are mirror images of each
//! other:
//!
//! * [`WaveletTable::accumulate_phi`]/[`accumulate_psi`](WaveletTable::accumulate_psi)
//!   — **one basis function, many points**: sweep one `φ_{j,k}` over a
//!   uniform evaluation grid (the query-side dense-evaluation fast path);
//! * [`WaveletTable::gather_phi`]/[`gather_psi`](WaveletTable::gather_psi)
//!   — **one point, many basis functions**: read one observation at all
//!   active translations of a level (the ingest-side fast path). Because
//!   consecutive translations step the table argument by exactly 1, both
//!   directions reduce to a constant-stride walk over the table with
//!   interpolation weights computed once.

use crate::filters::{FilterError, OrthonormalFilter, WaveletFamily};
use crate::numerics::solve_linear_system;

/// Tabulated values of `φ` and `ψ` on the dyadic grid
/// `{ m 2^{-J} : 0 ≤ m ≤ (L-1) 2^J }` where `L` is the filter length and
/// `J = `[`WaveletTable::levels`].
///
/// Evaluation at arbitrary points uses linear interpolation between grid
/// nodes; with the default `J = 12` the interpolation error is far below the
/// statistical error of any density estimate built on top of it (and it can
/// be checked against the exact Daubechies–Lagarias evaluator in
/// [`crate::daubechies_lagarias`]).
#[derive(Debug, Clone)]
pub struct WaveletTable {
    filter: OrthonormalFilter,
    levels: u32,
    step: f64,
    phi: Vec<f64>,
    psi: Vec<f64>,
    /// Polyphase (phase-major) copies of `phi`/`psi` for the gather fast
    /// path, with node order reversed within a row:
    /// `poly[p · poly_row + (support − q)] = values[q · 2^J + p]`.
    /// Consecutive translations share the fractional phase `p` and step
    /// the node index `q` down by one — ascending reversed-row memory —
    /// so a gather reads two **contiguous forward** runs (rows `p` and
    /// `p + 1`) instead of striding `2^J` entries: ~2 cache lines per
    /// observation/level instead of one per translation, in a loop the
    /// compiler can vectorise.
    phi_poly: Vec<f64>,
    psi_poly: Vec<f64>,
    /// Row length of the polyphase layout (`support + 1` nodes).
    poly_row: usize,
}

/// Default dyadic refinement depth for tables (`2^-12 ≈ 2.4e-4` spacing).
pub const DEFAULT_TABLE_LEVELS: u32 = 12;

impl WaveletTable {
    /// Builds the table for `family` at the default resolution.
    pub fn new(family: WaveletFamily) -> Result<Self, FilterError> {
        Self::with_levels(family, DEFAULT_TABLE_LEVELS)
    }

    /// Builds the table for a filter that has already been constructed.
    pub fn from_filter(filter: OrthonormalFilter, levels: u32) -> Self {
        let (phi, psi) = cascade(&filter, levels);
        let step = 0.5_f64.powi(levels as i32);
        let support = filter.support_length();
        let phi_poly = polyphase(&phi, levels, support);
        let psi_poly = polyphase(&psi, levels, support);
        Self {
            filter,
            levels,
            step,
            phi,
            psi,
            phi_poly,
            psi_poly,
            poly_row: support + 1,
        }
    }

    /// Builds the table for `family` with grid spacing `2^-levels`.
    pub fn with_levels(family: WaveletFamily, levels: u32) -> Result<Self, FilterError> {
        let filter = OrthonormalFilter::new(family)?;
        Ok(Self::from_filter(filter, levels))
    }

    /// The underlying quadrature-mirror filter.
    pub fn filter(&self) -> &OrthonormalFilter {
        &self.filter
    }

    /// Dyadic refinement depth `J`; the grid spacing is `2^-J`.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Right endpoint of the common support `[0, 2N - 1]` of `φ` and `ψ`.
    pub fn support_end(&self) -> f64 {
        self.filter.support_length() as f64
    }

    /// The raw `φ` grid values (spacing `2^-J`, starting at 0).
    pub fn phi_values(&self) -> &[f64] {
        &self.phi
    }

    /// The raw `ψ` grid values.
    pub fn psi_values(&self) -> &[f64] {
        &self.psi
    }

    /// Evaluates the scaling function `φ(x)`: 0 outside the support
    /// (`±∞` included), NaN for a NaN `x`.
    pub fn phi(&self, x: f64) -> f64 {
        interpolate(&self.phi, self.step, x)
    }

    /// Evaluates the mother wavelet `ψ(x)`: 0 outside the support (`±∞`
    /// included), NaN for a NaN `x`.
    pub fn psi(&self, x: f64) -> f64 {
        interpolate(&self.psi, self.step, x)
    }

    /// Numerically integrates `φ` over its support with the trapezoidal rule
    /// on the table grid. Should be ≈ 1; exposed as a health check.
    pub fn phi_integral(&self) -> f64 {
        trapezoid(&self.phi, self.step)
    }

    /// Numerically integrates `ψ`; should be ≈ 0.
    pub fn psi_integral(&self) -> f64 {
        trapezoid(&self.psi, self.step)
    }

    /// Numerically integrates `ψ²`; should be ≈ 1.
    pub fn psi_l2_norm_sq(&self) -> f64 {
        let squared: Vec<f64> = self.psi.iter().map(|v| v * v).collect();
        trapezoid(&squared, self.step)
    }

    /// Accumulates `coeff · φ(start + i·stride)` into `out[i]` for every
    /// slot of `out`.
    ///
    /// This is the dense-evaluation fast path: when a density estimate is
    /// evaluated on a uniform grid, the table argument of one basis
    /// function `φ_{j,k}` advances by the constant `2^j · grid_step`
    /// between neighbouring grid points, so the whole support can be
    /// swept with one strided pass instead of re-deriving the active
    /// translation range at every point. Arguments outside the tabulated
    /// support contribute nothing, exactly as [`WaveletTable::phi`].
    pub fn accumulate_phi(&self, start: f64, stride: f64, coeff: f64, out: &mut [f64]) {
        accumulate_strided(&self.phi, self.step, start, stride, coeff, out);
    }

    /// Accumulates `coeff · ψ(start + i·stride)` into `out[i]`; the `ψ`
    /// counterpart of [`WaveletTable::accumulate_phi`].
    pub fn accumulate_psi(&self, start: f64, stride: f64, coeff: f64, out: &mut [f64]) {
        accumulate_strided(&self.psi, self.step, start, stride, coeff, out);
    }

    /// Gathers `φ(position − (k_first + m))` into `out[m]` for every slot
    /// of `out` — the ingestion-side mirror image of
    /// [`accumulate_phi`](Self::accumulate_phi): where dense evaluation
    /// sweeps *one* basis function over many grid points, the gather reads
    /// *one* observation at many neighbouring translations. Neighbouring
    /// translations shift the table argument by exactly 1, so the table
    /// index moves by the constant integer stride `2^J` and the fractional
    /// interpolation weight is shared by every translation — it is derived
    /// once per `(observation, level)` pair instead of once per
    /// translation. `position` is the level-scaled observation `2^j x`;
    /// the caller applies the `2^{j/2}` normalisation. Arguments outside
    /// the tabulated support yield 0, exactly as [`WaveletTable::phi`].
    #[inline]
    pub fn gather_phi(&self, position: f64, k_first: i64, out: &mut [f64]) {
        self.tabulated_phi().gather(position, k_first, out);
    }

    /// Gathers `ψ(position − (k_first + m))` into `out[m]`; the `ψ`
    /// counterpart of [`WaveletTable::gather_phi`].
    #[inline]
    pub fn gather_psi(&self, position: f64, k_first: i64, out: &mut [f64]) {
        self.tabulated_psi().gather(position, k_first, out);
    }

    /// Scatters a whole chunk of observations into one level's running
    /// sums: the one ingest loop of the workspace, for every dimension.
    ///
    /// The target is a slot matrix whose rows hold the level's
    /// translations of the scattered axis, and `outer` says, per
    /// observation, which rows it reaches and with which weights. For each
    /// observation the active translation window is derived
    /// ([`active_translations`]) and every outer row `r` with weight `w`
    /// gains `v = w·(norm_scale·φ(2^j x − k))` and `v²` over the window:
    /// the fused kernel reads the two interior polyphase runs and
    /// accumulates in one sweep (bitwise the
    /// [`gather_phi`](Self::gather_phi)-then-accumulate chain, without
    /// materialising the row), and boundary windows gather into
    /// `fallback_row` first. [`OuterRows::Unit`] (one row, `w = 1`) is the
    /// 1-D scatter, bitwise the unweighted one since `1.0·v == v`. The
    /// backend is resolved once per call and the row loop is compiled per
    /// backend, so on the AVX2 path the vector kernel inlines straight
    /// into the loop. Per-slot accumulation order is observation order.
    ///
    /// `level_scale` is `2^j` (observation → position), `norm_scale` the
    /// `2^{j/2}` normalisation; `fallback_row` must hold at least
    /// `⌈support⌉ + 1` slots.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn scatter_rows_phi(
        &self,
        xs: &[f64],
        outer: OuterRows<'_>,
        level_scale: f64,
        norm_scale: f64,
        k_start: i64,
        fallback_row: &mut [f64],
        sums: &mut [f64],
        squares: &mut [f64],
    ) {
        scatter_rows_dispatch(RowScatter {
            table: self.tabulated_phi(),
            xs,
            outer,
            level_scale,
            norm_scale,
            k_start,
            fallback_row,
            sums,
            squares,
        });
    }

    /// The `ψ` counterpart of [`WaveletTable::scatter_rows_phi`].
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn scatter_rows_psi(
        &self,
        xs: &[f64],
        outer: OuterRows<'_>,
        level_scale: f64,
        norm_scale: f64,
        k_start: i64,
        fallback_row: &mut [f64],
        sums: &mut [f64],
        squares: &mut [f64],
    ) {
        scatter_rows_dispatch(RowScatter {
            table: self.tabulated_psi(),
            xs,
            outer,
            level_scale,
            norm_scale,
            k_start,
            fallback_row,
            sums,
            squares,
        });
    }

    fn tabulated_phi(&self) -> Tabulated<'_> {
        Tabulated {
            values: &self.phi,
            poly: &self.phi_poly,
            poly_row: self.poly_row,
            levels: self.levels,
        }
    }

    fn tabulated_psi(&self) -> Tabulated<'_> {
        Tabulated {
            values: &self.psi,
            poly: &self.psi_poly,
            poly_row: self.poly_row,
            levels: self.levels,
        }
    }
}

/// The outer factor of a whole-chunk scatter
/// ([`WaveletTable::scatter_rows_phi`]): which rows of the level's slot
/// matrix each observation reaches, and with which weights.
#[derive(Debug, Clone, Copy)]
pub enum OuterRows<'a> {
    /// Every observation adds into the one row of the sums with weight 1:
    /// the 1-D scatter.
    Unit,
    /// Observation `i` adds into row `spans[i].0 + m` with weight
    /// `weights[i·width + m]`, for `m < spans[i].1`. For a 2-D tensor
    /// level these are the `x`-axis factor values of the observation,
    /// already scaled by their `2^{j/2}`, while the scatter itself walks
    /// the `y` axis.
    Rows {
        /// Per observation, the first row reached and the number of rows.
        spans: &'a [(u32, u32)],
        /// The weights, `width` slots reserved per observation.
        weights: &'a [f64],
        /// Weight slots per observation.
        width: usize,
        /// Slots per row of the matrix: the translations of the scattered
        /// axis.
        extent: usize,
    },
}

/// The clamped range of translations `k` with `δ_{j,k}(x) ≠ 0`:
/// `δ_{j,k}(x) ≠ 0` requires `0 < position − k < support` (with
/// `position = 2^j x`), i.e. `position − support < k < position`,
/// intersected with the stored window `[k_start, k_start + count)`.
///
/// This derivation is shared by the whole-chunk scatter driver here, the
/// batch coefficient accumulation, the streaming running sums and the
/// pointwise estimate evaluation downstream (re-exported through
/// `wavedens-core`), so the paths cannot drift apart.
///
/// A position the `i64` cast cannot hold — ±∞, NaN, or `|position| ≥
/// 2^63` — gives an empty range: the cast saturates and the `±1` steps
/// saturate with it, so the window lies wholly beyond the stored one.
pub fn active_translations(
    support: f64,
    position: f64,
    k_start: i64,
    count: usize,
) -> std::ops::RangeInclusive<i64> {
    let k_lo = ((position - support).floor() as i64)
        .saturating_add(1)
        .max(k_start);
    let k_hi = (position.ceil() as i64)
        .saturating_sub(1)
        .min(k_start + count as i64 - 1);
    k_lo..=k_hi
}

/// One level's whole-chunk scatter, as [`WaveletTable::scatter_rows_phi`]
/// hands it to the backend-specific row loop.
pub(crate) struct RowScatter<'a> {
    table: Tabulated<'a>,
    xs: &'a [f64],
    outer: OuterRows<'a>,
    level_scale: f64,
    norm_scale: f64,
    k_start: i64,
    fallback_row: &'a mut [f64],
    sums: &'a mut [f64],
    squares: &'a mut [f64],
}

/// Resolves the backend once for a whole chunk and hands the row loop a
/// fused op the compiler can inline into it. The AVX2 arm re-enters
/// through a `#[target_feature(enable = "avx2")]` wrapper in
/// [`crate::kernels`] so the intrinsics body fuses into the loop instead
/// of costing an opaque call per `(observation, row)` pair.
fn scatter_rows_dispatch(job: RowScatter<'_>) {
    use crate::kernels;
    match kernels::active_backend() {
        #[cfg(target_arch = "x86_64")]
        kernels::Backend::Intrinsics => kernels::avx::scatter_rows(job),
        _ => scatter_rows_impl(&kernels::lerp_scaled_accumulate_scalar, job),
    }
}

/// The backend-generic row loop of the whole-chunk scatter driver; see
/// [`WaveletTable::scatter_rows_phi`]. Per-slot accumulation order is
/// observation order, identical to scattering the rows one at a time.
#[inline]
pub(crate) fn scatter_rows_impl(fused: &impl FusedOp, job: RowScatter<'_>) {
    // One copy of the row loop per outer-row kind, so that the unit row
    // of 1-D ingest folds away: its one weight is the constant 1.
    match job.outer {
        OuterRows::Unit => scatter_rows_loop(fused, job, |_| (0, &[1.0])),
        OuterRows::Rows {
            spans,
            weights,
            width,
            ..
        } => scatter_rows_loop(fused, job, |i| {
            let (first, len) = spans[i];
            (
                first as usize,
                &weights[i * width..i * width + len as usize],
            )
        }),
    }
}

/// The row loop of [`scatter_rows_impl`], given the first row and the
/// weights of each observation.
#[inline(always)]
fn scatter_rows_loop<'a>(
    fused: &impl FusedOp,
    job: RowScatter<'a>,
    outer_row: impl Fn(usize) -> (usize, &'a [f64]),
) {
    let RowScatter {
        table,
        xs,
        outer,
        level_scale,
        norm_scale,
        k_start,
        fallback_row,
        sums,
        squares,
    } = job;
    let extent = match outer {
        OuterRows::Unit => sums.len(),
        OuterRows::Rows { extent, .. } => extent,
    };
    let levels = table.levels;
    let stride = 1_i64 << levels;
    let scale = stride as f64;
    // `φ`/`ψ` supports are `[0, L−1]` with integer length, so the window
    // bounds reduce to integer arithmetic on `⌊position·2^J⌋` (see below).
    let support_i = (table.poly_row - 1) as i64;
    let k_last = k_start + extent as i64 - 1;
    for (i, &x) in xs.iter().enumerate() {
        let (first_row, weights) = outer_row(i);
        if weights.is_empty() {
            continue;
        }
        let position = level_scale * x;
        // One floor of the exact power-of-two scaling `position·2^J`
        // replaces the floor/ceil pair of [`active_translations`]:
        // `⌊position⌋ = pbf_i >> J` (arithmetic shift = floor division),
        // `⌈position⌉ − 1` differs from it only when `position` is an
        // integer (no sub-node fraction and a phase-0 node), and
        // `⌊position − support⌋ = ⌊position⌋ − support` because the
        // support length is an integer. Identical to the shared
        // derivation wherever `position − support` is exact (always for
        // |position| < 2^49; beyond that every touched slot value is 0,
        // so the accumulators cannot differ). Non-finite positions fall
        // out through the saturating cast: the clamps empty the window.
        let pb = position * scale;
        if !pb.is_finite() {
            continue;
        }
        let pbf = pb.floor();
        let pbf_i = pbf as i64;
        let fp = pbf_i >> levels;
        let is_integer = pb == pbf && (pbf_i & (stride - 1)) == 0;
        let k_hi = (fp - is_integer as i64).min(k_last);
        let k_lo = (fp - support_i + 1).max(k_start);
        if k_lo > k_hi {
            continue;
        }
        debug_assert!(
            position.abs() >= 2f64.powi(48) || {
                let r = active_translations(support_i as f64, position, k_start, extent);
                (k_lo, k_hi) == (*r.start(), *r.end())
            },
            "integer window derivation drifted from active_translations \
             (position = {position}, got {k_lo}..={k_hi})"
        );
        let count = (k_hi - k_lo + 1) as usize;
        let offset = (k_lo - k_start) as usize;
        let runs = table.interior_runs(position, k_lo, count);
        if runs.is_none() {
            // A window that could leave the table gathers once, scaled as
            // the fused kernel scales its lerp, and every row reuses it.
            let row = &mut fallback_row[..count];
            table.gather(position, k_lo, row);
            for value in row.iter_mut() {
                *value *= norm_scale;
            }
        }
        for (m, &weight) in weights.iter().enumerate() {
            if weight == 0.0 {
                continue;
            }
            let base = (first_row + m) * extent + offset;
            let sums = &mut sums[base..base + count];
            let squares = &mut squares[base..base + count];
            match runs {
                Some((lo, hi, w0, w1)) => fused(lo, hi, w0, w1, norm_scale, weight, sums, squares),
                None => {
                    crate::kernels::scaled_accumulate(weight, &fallback_row[..count], sums, squares)
                }
            }
        }
    }
}

/// Signature of the fused per-window op: `(lo, hi, w0, w1, scale, weight,
/// sums, squares)` with the semantics of
/// `kernels::lerp_scaled_accumulate_scalar`. Passed as a closure so the
/// row loop can take a backend-specific body that inlines into it (the
/// AVX2 driver defines it inside a `#[target_feature]` function, which
/// the closure inherits).
pub(crate) trait FusedOp:
    Fn(&[f64], &[f64], f64, f64, f64, f64, &mut [f64], &mut [f64])
{
}
impl<F: Fn(&[f64], &[f64], f64, f64, f64, f64, &mut [f64], &mut [f64])> FusedOp for F {}

/// Reorders a dyadic table into the phase-major, node-reversed polyphase
/// layout `poly[p · (support + 1) + (support − q)] = values[q · 2^J + p]`
/// (absent combinations — only phase 0 reaches node `support` — are
/// zero-padded). A gather over consecutive (ascending) translations walks
/// a row *forward*, so it reads rows `p` and `p + 1` as two contiguous
/// forward runs; see [`Tabulated::interior_runs`].
fn polyphase(values: &[f64], levels: u32, support: usize) -> Vec<f64> {
    let phases = 1_usize << levels;
    let row = support + 1;
    let mut out = vec![0.0; phases * row];
    for (idx, &v) in values.iter().enumerate() {
        let p = idx & (phases - 1);
        let q = idx >> levels;
        out[p * row + (support - q)] = v;
    }
    out
}

/// One generator (`φ` or `ψ`) of a [`WaveletTable`] in both layouts: the
/// dense values the boundary walk reads and the polyphase copy the
/// interior fast paths read.
#[derive(Clone, Copy)]
pub(crate) struct Tabulated<'a> {
    values: &'a [f64],
    poly: &'a [f64],
    /// Row length of the polyphase layout (`support + 1` nodes).
    poly_row: usize,
    levels: u32,
}

impl<'a> Tabulated<'a> {
    /// The interior fast path of a window of `count` translations from
    /// `k_first`: the two polyphase runs and the shared interpolation
    /// weights `(1 − frac, frac)`, so that slot `m` is
    /// `lo[m]·w0 + hi[m]·w1 = table(position − k_first − m)`.
    ///
    /// The table position of slot `m` is `(position − k_first − m)·2^J =
    /// base − m·2^J` with `base = (position − k_first)·2^J`. The
    /// power-of-two scaling is exact and the per-slot stride is pure
    /// integer work, so every slot shares one fractional weight computed
    /// from `base`; relative to the per-translation [`interpolate`] (which
    /// rounds `position − k` anew for each slot) the table argument
    /// differs by at most one rounding of the initial difference, i.e. the
    /// values agree to ≈ 1e-12 relative. When every slot is interior to
    /// the table — the invariant for active translation windows — the
    /// per-slot stride `2^J` collapses in the polyphase layout to two
    /// contiguous row segments, a branch-free multiply–add sweep over ~2
    /// cache lines. `None` when a slot could leave the table (edge, a
    /// phase-`2^J − 1` base whose interpolation neighbour wraps to the next
    /// phase-0 node, non-finite base).
    #[inline]
    fn interior_runs(
        self,
        position: f64,
        k_first: i64,
        count: usize,
    ) -> Option<(&'a [f64], &'a [f64], f64, f64)> {
        let stride = 1_i64 << self.levels;
        // `position · 2^J` is a power-of-two multiply — exact unless it
        // overflows — so flooring it *before* subtracting the (integer)
        // translation offset yields the identical fractional weight while
        // keeping the floor off the critical path of the window derivation.
        let pb = position * stride as f64;
        if !pb.is_finite() {
            return None;
        }
        let pbf = pb.floor();
        let frac = pb - pbf;
        let idx0 = (pbf as i64).saturating_sub(k_first.saturating_mul(stride));
        let last = idx0.saturating_sub((count as i64 - 1).max(0) * stride);
        let phase = idx0 & (stride - 1);
        // `idx0 < len − 1` rather than `idx0 + 1 < len`: a huge finite
        // position saturates `idx0` at `i64::MAX`.
        if last >= 0 && idx0 < self.values.len() as i64 - 1 && phase + 1 < stride {
            // Slot `m` reads node `q0 − m` of rows `phase` and `phase + 1`,
            // which in the node-reversed layout is the *forward* run
            // starting at `support − q0`.
            let q0 = (idx0 >> self.levels) as usize;
            let start = phase as usize * self.poly_row + (self.poly_row - 1 - q0);
            let lo = &self.poly[start..start + count];
            let hi = &self.poly[start + self.poly_row..start + self.poly_row + count];
            return Some((lo, hi, 1.0 - frac, frac));
        }
        None
    }

    /// Strided gather: `out[m] = table(position − k_first − m)`, through
    /// the [interior runs](Self::interior_runs) when they exist and
    /// otherwise by the per-slot walk of the dense table, which keeps the
    /// boundary conventions of [`interpolate`] (0 outside the support, the
    /// last node at the right edge).
    #[inline]
    fn gather(self, position: f64, k_first: i64, out: &mut [f64]) {
        if let Some((lo, hi, w0, w1)) = self.interior_runs(position, k_first, out.len()) {
            crate::kernels::lerp_runs(lo, hi, w0, w1, out);
            return;
        }
        let stride = 1_i64 << self.levels;
        let pb = position * stride as f64;
        if !pb.is_finite() {
            out.fill(0.0);
            return;
        }
        let pbf = pb.floor();
        let frac = pb - pbf;
        let (w0, w1) = (1.0 - frac, frac);
        let values = self.values;
        let mut idx = (pbf as i64).saturating_sub(k_first.saturating_mul(stride));
        for slot in out.iter_mut() {
            let i = idx as usize;
            *slot = if idx < 0 || idx >= values.len() as i64 {
                0.0
            } else if i + 1 == values.len() {
                values[i]
            } else {
                values[i] * w0 + values[i + 1] * w1
            };
            idx = idx.saturating_sub(stride);
        }
    }
}

/// Strided linear interpolation: `out[i] += coeff · table(start + i·stride)`.
///
/// The table position is recomputed multiplicatively per slot (not by
/// repeated addition), so there is no cumulative drift over long grids.
/// The per-slot sweep is the dense-eval kernel of [`crate::kernels`]:
/// on the AVX2 backend interior blocks run branch-free in vector lanes;
/// boundary slots keep the pointwise conventions of [`interpolate`].
fn accumulate_strided(
    values: &[f64],
    step: f64,
    start: f64,
    stride: f64,
    coeff: f64,
    out: &mut [f64],
) {
    let inv_step = 1.0 / step;
    let pos0 = start * inv_step;
    let dpos = stride * inv_step;
    crate::kernels::accumulate_lerp(values, pos0, dpos, coeff, out);
}

fn trapezoid(values: &[f64], step: f64) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let inner: f64 = values[1..values.len() - 1].iter().sum();
    step * (0.5 * values[0] + inner + 0.5 * values[values.len() - 1])
}

/// Linear interpolation in a table of spacing `step` starting at 0: 0
/// left of the table and for every `x` past its last cell, up to and
/// including `+∞`; NaN for NaN. The cell index is range-checked as an
/// `f64` before it becomes a `usize`, so no `x` can overflow it.
fn interpolate(values: &[f64], step: f64, x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x < 0.0 {
        return 0.0;
    }
    let pos = x / step;
    let cell = pos.floor();
    let last = values.len() - 1;
    if cell >= last as f64 {
        return if cell == last as f64 {
            values[last]
        } else {
            0.0
        };
    }
    let idx = cell as usize;
    let frac = pos - cell;
    values[idx] * (1.0 - frac) + values[idx + 1] * frac
}

/// Runs the cascade algorithm, returning the `φ` and `ψ` tables on the grid
/// of spacing `2^-levels` over `[0, L-1]`.
fn cascade(filter: &OrthonormalFilter, levels: u32) -> (Vec<f64>, Vec<f64>) {
    let h = filter.lowpass();
    let g = filter.highpass();
    let len = h.len();
    let support = len - 1;
    let sqrt2 = std::f64::consts::SQRT_2;

    // Step 1: φ at the integers 0..=support.
    let mut phi_int = vec![0.0_f64; support + 1];
    if len == 2 {
        // Haar: φ = 1 on [0, 1). The convention φ(0)=1, φ(1)=0 keeps the
        // partition of unity exact on the half-open cells.
        phi_int[0] = 1.0;
    } else {
        let dim = support - 1; // interior integers 1..=support-1
        let mut matrix = vec![vec![0.0_f64; dim]; dim];
        for (row, item) in matrix.iter_mut().enumerate() {
            let i = row + 1;
            for (col, cell) in item.iter_mut().enumerate() {
                let j = col + 1;
                let k = 2 * i as i64 - j as i64;
                let entry = if (0..len as i64).contains(&k) {
                    sqrt2 * h[k as usize]
                } else {
                    0.0
                };
                *cell = entry - if row == col { 1.0 } else { 0.0 };
            }
        }
        // Replace one equation by the normalisation Σ φ(i) = 1 (partition of
        // unity at integer shifts). Try each row until the system is
        // non-singular.
        let mut solved = None;
        for replace in (0..dim).rev() {
            let mut a = matrix.clone();
            let mut b = vec![0.0_f64; dim];
            for cell in a[replace].iter_mut() {
                *cell = 1.0;
            }
            b[replace] = 1.0;
            if let Some(sol) = solve_linear_system(&a, &b) {
                solved = Some(sol);
                break;
            }
        }
        let sol = solved.expect("refinement eigenproblem must be solvable for orthonormal filters");
        for (i, v) in sol.into_iter().enumerate() {
            phi_int[i + 1] = v;
        }
    }

    // Step 2: refine to dyadic rationals level by level.
    let mut phi = phi_int;
    for t in 1..=levels {
        let new_len = support * (1 << t) + 1;
        let mut next = vec![0.0_f64; new_len];
        for (m, value) in next.iter_mut().enumerate() {
            if m % 2 == 0 {
                *value = phi[m / 2];
            } else {
                // φ(m/2^t) = √2 Σ_k h_k φ(m/2^{t-1} − k); the argument lies on
                // the coarser grid with index m − k·2^{t-1}.
                let mut acc = 0.0;
                for (k, &hk) in h.iter().enumerate() {
                    let idx = m as i64 - (k as i64) * (1 << (t - 1));
                    if idx >= 0 && (idx as usize) < phi.len() {
                        acc += hk * phi[idx as usize];
                    }
                }
                *value = sqrt2 * acc;
            }
        }
        phi = next;
    }

    // Step 3: ψ(m/2^J) = √2 Σ_k g_k φ(2m/2^J − k·2^J/2^J) — the argument is on
    // the same grid with index 2m − k·2^J.
    let scale = 1_i64 << levels;
    let mut psi = vec![0.0_f64; phi.len()];
    for (m, value) in psi.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (k, &gk) in g.iter().enumerate() {
            let idx = 2 * m as i64 - (k as i64) * scale;
            if idx >= 0 && (idx as usize) < phi.len() {
                acc += gk * phi[idx as usize];
            }
        }
        *value = sqrt2 * acc;
    }

    (phi, psi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(family: WaveletFamily) -> WaveletTable {
        WaveletTable::with_levels(family, 10).unwrap()
    }

    #[test]
    fn haar_table_is_indicator() {
        let t = table(WaveletFamily::Haar);
        assert!((t.phi(0.25) - 1.0).abs() < 1e-12);
        assert!((t.phi(0.75) - 1.0).abs() < 1e-12);
        assert!(t.phi(1.5).abs() < 1e-12);
        assert!((t.psi(0.25) - 1.0).abs() < 1e-9);
        assert!((t.psi(0.75) + 1.0).abs() < 1e-9);
    }

    /// Past the table (up to `+∞` and `f64::MAX`) the interpolation
    /// returns 0 instead of overflowing its cell index; left of it 0 as
    /// well; a NaN argument returns NaN. Checked through the public
    /// table and basis evaluators of every family shape.
    #[test]
    fn evaluation_at_extreme_and_nan_arguments() {
        for fam in [
            WaveletFamily::Haar,
            WaveletFamily::Daubechies(2),
            WaveletFamily::Symmlet(8),
        ] {
            let t = table(fam);
            for x in [f64::INFINITY, f64::MAX, 1e300, t.support_end() + 1.0] {
                assert_eq!(t.phi(x), 0.0, "{fam:?}: φ({x})");
                assert_eq!(t.psi(x), 0.0, "{fam:?}: ψ({x})");
            }
            for x in [f64::NEG_INFINITY, f64::MIN, -1e-300] {
                assert_eq!(t.phi(x), 0.0, "{fam:?}: φ({x})");
                assert_eq!(t.psi(x), 0.0, "{fam:?}: ψ({x})");
            }
            assert!(t.phi(f64::NAN).is_nan(), "{fam:?}: φ(NaN)");
            assert!(t.psi(f64::NAN).is_nan(), "{fam:?}: ψ(NaN)");

            let basis = crate::WaveletBasis::new(fam).unwrap();
            for (j, k) in [(0, 0_i64), (5, 3), (12, -7)] {
                for x in [f64::INFINITY, f64::MAX, f64::NEG_INFINITY, f64::MIN] {
                    assert_eq!(basis.phi_jk(j, k, x), 0.0, "{fam:?}: φ_{j},{k}({x})");
                    assert_eq!(basis.psi_jk(j, k, x), 0.0, "{fam:?}: ψ_{j},{k}({x})");
                }
                assert!(basis.phi_jk(j, k, f64::NAN).is_nan());
                assert!(basis.psi_jk(j, k, f64::NAN).is_nan());
            }
        }
    }

    /// The last table cell keeps its old value: `x` exactly at the
    /// support end reads the final grid value, the next cell reads 0.
    #[test]
    fn interpolation_at_the_table_end() {
        let values = [1.0, 2.0, 3.0];
        assert_eq!(interpolate(&values, 0.5, 0.5), 2.0);
        assert_eq!(interpolate(&values, 0.5, 0.75), 2.5);
        assert_eq!(interpolate(&values, 0.5, 1.0), 3.0);
        assert_eq!(interpolate(&values, 0.5, 1.25), 3.0);
        assert_eq!(interpolate(&values, 0.5, 1.5), 0.0);
        assert_eq!(interpolate(&values, 0.5, f64::INFINITY), 0.0);
        assert_eq!(interpolate(&values, 0.5, f64::MAX), 0.0);
        assert!(interpolate(&values, 0.5, f64::NAN).is_nan());
    }

    #[test]
    fn phi_integrates_to_one() {
        for fam in [
            WaveletFamily::Haar,
            WaveletFamily::Daubechies(2),
            WaveletFamily::Daubechies(4),
            WaveletFamily::Symmlet(8),
        ] {
            let t = table(fam);
            // The trapezoidal rule loses half a grid cell at the Haar jump,
            // hence the 1e-3 tolerance (the grid spacing is 2^-10).
            assert!(
                (t.phi_integral() - 1.0).abs() < 1e-3,
                "{}: ∫φ = {}",
                fam.name(),
                t.phi_integral()
            );
        }
    }

    #[test]
    fn psi_integrates_to_zero_and_has_unit_norm() {
        for fam in [
            WaveletFamily::Daubechies(2),
            WaveletFamily::Daubechies(6),
            WaveletFamily::Symmlet(8),
        ] {
            let t = table(fam);
            assert!(t.psi_integral().abs() < 1e-6, "{}: ∫ψ", fam.name());
            assert!(
                (t.psi_l2_norm_sq() - 1.0).abs() < 1e-3,
                "{}: ∫ψ² = {}",
                fam.name(),
                t.psi_l2_norm_sq()
            );
        }
    }

    #[test]
    fn phi_satisfies_partition_of_unity() {
        let t = table(WaveletFamily::Symmlet(8));
        let support = t.support_end() as i64;
        for &x in &[0.1_f64, 0.37, 0.5, 0.83] {
            let total: f64 = (-support..=support).map(|k| t.phi(x - k as f64)).sum();
            assert!((total - 1.0).abs() < 1e-6, "Σ_k φ(x-k) = {total} at x={x}");
        }
    }

    #[test]
    fn phi_satisfies_refinement_equation() {
        let t = table(WaveletFamily::Daubechies(4));
        let h = t.filter().lowpass().to_vec();
        let sqrt2 = std::f64::consts::SQRT_2;
        for &x in &[0.3_f64, 1.2, 2.7, 4.9, 6.1] {
            let lhs = t.phi(x);
            let rhs: f64 = h
                .iter()
                .enumerate()
                .map(|(k, &hk)| sqrt2 * hk * t.phi(2.0 * x - k as f64))
                .sum();
            assert!(
                (lhs - rhs).abs() < 1e-4,
                "refinement violated at x={x}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn values_outside_support_are_zero() {
        let t = table(WaveletFamily::Symmlet(8));
        assert_eq!(t.phi(-0.5), 0.0);
        assert_eq!(t.psi(-1e-9), 0.0);
        assert_eq!(t.phi(t.support_end() + 0.1), 0.0);
        assert_eq!(t.psi(1e9), 0.0);
    }

    #[test]
    fn strided_accumulation_matches_pointwise_interpolation() {
        let t = table(WaveletFamily::Symmlet(8));
        for &(start, stride, coeff) in &[
            (-1.3_f64, 0.017_f64, 2.5_f64),
            (0.0, 0.29, -0.75),
            (12.9, 0.5, 1.0),
            (3.4, 1.7e-3, 4.0),
        ] {
            let mut phi_out = vec![0.0_f64; 500];
            let mut psi_out = vec![0.0_f64; 500];
            t.accumulate_phi(start, stride, coeff, &mut phi_out);
            t.accumulate_psi(start, stride, coeff, &mut psi_out);
            for i in 0..500 {
                let x = start + stride * i as f64;
                assert!(
                    (phi_out[i] - coeff * t.phi(x)).abs() < 1e-12,
                    "φ strided mismatch at slot {i} (x = {x})"
                );
                assert!(
                    (psi_out[i] - coeff * t.psi(x)).abs() < 1e-12,
                    "ψ strided mismatch at slot {i} (x = {x})"
                );
            }
        }
    }

    #[test]
    fn strided_accumulation_adds_onto_existing_values() {
        let t = table(WaveletFamily::Daubechies(4));
        let mut out = vec![1.0_f64; 64];
        t.accumulate_phi(0.5, 0.05, 2.0, &mut out);
        for (i, v) in out.iter().enumerate() {
            let expected = 1.0 + 2.0 * t.phi(0.5 + 0.05 * i as f64);
            assert!((v - expected).abs() < 1e-12, "slot {i}");
        }
    }

    #[test]
    fn strided_gather_matches_pointwise_interpolation() {
        for fam in [
            WaveletFamily::Haar,
            WaveletFamily::Daubechies(4),
            WaveletFamily::Symmlet(8),
        ] {
            let t = table(fam);
            for &(position, k_first) in &[
                (0.37_f64, -14_i64),
                (5.9, 0),
                (1000.25, 990),
                (3.0, -2), // integer position: frac is exactly 0
                (t.support_end(), 0),
                (-4.2, -20),
            ] {
                let mut phi_out = vec![f64::NAN; 24];
                let mut psi_out = vec![f64::NAN; 24];
                t.gather_phi(position, k_first, &mut phi_out);
                t.gather_psi(position, k_first, &mut psi_out);
                for m in 0..24 {
                    let x = position - (k_first + m as i64) as f64;
                    let tol = |reference: f64| 1e-12 * (1.0 + reference.abs());
                    assert!(
                        (phi_out[m] - t.phi(x)).abs() <= tol(t.phi(x)),
                        "{}: φ gather mismatch at slot {m} (x = {x})",
                        fam.name()
                    );
                    assert!(
                        (psi_out[m] - t.psi(x)).abs() <= tol(t.psi(x)),
                        "{}: ψ gather mismatch at slot {m} (x = {x})",
                        fam.name()
                    );
                }
            }
        }
    }

    /// Exactly-dyadic positions (the table-node hits ingestion sees when
    /// an observation lands on a grid point) keep the shared fractional
    /// weight exactly 0, so the gather reproduces the raw table nodes.
    #[test]
    fn strided_gather_hits_table_nodes_exactly() {
        let t = table(WaveletFamily::Symmlet(8));
        // position 3.5 over window k ∈ {-2,…,3}: arguments 5.5, 4.5, … are
        // all exact table nodes (the grid spacing is 2^-10).
        let mut out = vec![f64::NAN; 6];
        t.gather_phi(3.5, -2, &mut out);
        for (m, v) in out.iter().enumerate() {
            let x = 3.5 - (-2 + m as i64) as f64;
            let node = (x * 1024.0) as usize;
            assert_eq!(*v, t.phi_values()[node], "slot {m} (x = {x})");
        }
    }

    /// The whole-chunk scatter, on every runnable backend and through
    /// outer rows with weights other than 1, is bitwise the
    /// gather-then-accumulate chain `v = w·(s·gather)` in observation
    /// order: on interior windows (the fused kernel) and on the dyadic
    /// and edge windows that take the fallback row alike. The unit outer
    /// row is the same chain at `w = 1`.
    #[test]
    fn fused_scatter_matches_gather_then_accumulate() {
        use crate::kernels::{set_backend_override, tests};
        let _guard = tests::override_lock();
        let xs = [
            0.37,
            0.5,
            0.0,
            1.0,
            0.8125,
            0.999_999,
            -0.1,
            1.2,
            f64::NAN,
            0.25,
            0.61,
            0.123,
        ];
        let (level_scale, norm_scale, rows, width) = (4.0, 2.0, 5, 3);
        let weight = |i: usize, m: usize| [1.0, -0.75, 0.0, 1.3][(i + m) % 4];
        let spans: Vec<(u32, u32)> = (0..xs.len())
            .map(|i| ((i % 2) as u32, (1 + i % 3) as u32))
            .collect();
        let weights: Vec<f64> = (0..xs.len() * width)
            .map(|slot| weight(slot / width, slot % width))
            .collect();
        for fam in [
            WaveletFamily::Haar,
            WaveletFamily::Daubechies(4),
            WaveletFamily::Symmlet(8),
        ] {
            let t = table(fam);
            let support = t.support_end();
            let (k_start, extent) = (-(support as i64), 4 + support as usize);
            for psi in [false, true] {
                for unit in [true, false] {
                    let outer = if unit {
                        OuterRows::Unit
                    } else {
                        OuterRows::Rows {
                            spans: &spans,
                            weights: &weights,
                            width,
                            extent,
                        }
                    };
                    let slots = if unit { extent } else { rows * extent };
                    let mut expected = (vec![0.0; slots], vec![0.0; slots]);
                    for (i, &x) in xs.iter().enumerate() {
                        let position = level_scale * x;
                        let range = active_translations(support, position, k_start, extent);
                        if range.is_empty() {
                            continue;
                        }
                        let mut row = vec![0.0; (range.end() - range.start() + 1) as usize];
                        if psi {
                            t.gather_psi(position, *range.start(), &mut row);
                        } else {
                            t.gather_phi(position, *range.start(), &mut row);
                        }
                        let (first, len) = if unit { (0, 1) } else { spans[i] };
                        for m in 0..len as usize {
                            let w = if unit { 1.0 } else { weight(i, m) };
                            let base = (first as usize + m) * extent;
                            for (k, raw) in range.clone().zip(&row) {
                                let slot = base + (k - k_start) as usize;
                                let v = w * (norm_scale * raw);
                                expected.0[slot] += v;
                                expected.1[slot] += v * v;
                            }
                        }
                    }
                    for backend in tests::backends() {
                        set_backend_override(Some(backend));
                        let (mut sums, mut squares) = (vec![0.0; slots], vec![0.0; slots]);
                        let mut fallback = vec![0.0; extent];
                        let scatter = if psi {
                            WaveletTable::scatter_rows_psi
                        } else {
                            WaveletTable::scatter_rows_phi
                        };
                        scatter(
                            &t,
                            &xs,
                            outer,
                            level_scale,
                            norm_scale,
                            k_start,
                            &mut fallback,
                            &mut sums,
                            &mut squares,
                        );
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let context = format!("{} psi {psi} unit {unit} {backend:?}", fam.name());
                        assert_eq!(bits(&sums), bits(&expected.0), "sums: {context}");
                        assert_eq!(bits(&squares), bits(&expected.1), "squares: {context}");
                    }
                    set_backend_override(None);
                }
            }
        }
    }

    /// A finite position so large that its table index saturates the
    /// `i64` range gathers zeros instead of overflowing the index
    /// arithmetic or reading past the table.
    #[test]
    fn gather_of_huge_finite_positions_is_zero() {
        let t = table(WaveletFamily::Symmlet(8));
        for position in [1e300, -1e300, 2f64.powi(62), f64::MAX] {
            for k_first in [0, -5, 7] {
                let mut out = vec![f64::NAN; 8];
                t.gather_phi(position, k_first, &mut out);
                assert!(out.iter().all(|v| *v == 0.0), "φ at {position}, {k_first}");
                out.fill(f64::NAN);
                t.gather_psi(position, k_first, &mut out);
                assert!(out.iter().all(|v| *v == 0.0), "ψ at {position}, {k_first}");
            }
        }
    }

    #[test]
    fn gather_handles_non_finite_positions() {
        let t = table(WaveletFamily::Symmlet(8));
        for position in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = vec![f64::NAN; 8];
            t.gather_phi(position, 0, &mut out);
            assert!(out.iter().all(|v| *v == 0.0), "position {position}");
        }
    }

    /// Positions the `i64` cast cannot hold give an empty window instead
    /// of overflowing the `±1` steps; a representable position keeps its
    /// window.
    #[test]
    fn active_translations_of_unrepresentable_positions_are_empty() {
        let edge = 2f64.powi(63);
        for position in [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e300,
            -1e300,
            edge,
            -edge,
        ] {
            let window = active_translations(15.0, position, -14, 64);
            assert!(window.is_empty(), "position {position}: {window:?}");
        }
        assert_eq!(active_translations(15.0, 3.5, -14, 64), -11..=3);
    }

    #[test]
    fn deeper_tables_refine_consistently() {
        let coarse = WaveletTable::with_levels(WaveletFamily::Daubechies(3), 8).unwrap();
        let fine = WaveletTable::with_levels(WaveletFamily::Daubechies(3), 12).unwrap();
        for i in 0..40 {
            let x = 0.12 + i as f64 * 0.11;
            assert!(
                (coarse.phi(x) - fine.phi(x)).abs() < 1e-3,
                "tables disagree at {x}"
            );
        }
    }
}
