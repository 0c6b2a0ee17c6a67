//! The one wire format of every coefficient sketch.
//!
//! A frame carries the complete estimator state — per-level sums, sums of
//! squares and the observation count — plus the geometry that fixes which
//! levels exist, for 1-D ([`CoefficientSketch`]) and 2-D
//! ([`TensorSketch`]) sketches alike. A windowed slice adds a window
//! block. All fields are little-endian, in this order:
//!
//! | field | bytes | contents |
//! |---|---|---|
//! | magic | 4 | `WDSK` |
//! | version | 2 | `u16` 5; any other version (the earlier layouts 1–4 included) is rejected |
//! | family | 1 + 2 | `u8` tag (Haar 0, Daubechies 1, Symmlet 2), `u16` order |
//! | dims | 1 | `u8`, 1 or 2 |
//! | window flag | 1 | `u8`: 0, or 1 followed by the window block |
//! | window block | 24 | only when the flag is set: [`WindowSliceMeta`] as `u32` slice age, `u32` ring slices, `u64` advances, `f64` decay factor |
//! | count | 8 | `u64` observations |
//! | levels | 12 | `i32` `j0`, `i32` `j_max`, `i32` hyperbolic budget (0 when `dims = 1`) |
//! | intervals | `dims` × 16 | `f64` lower and upper bound per axis |
//! | presence bitmap | ⌈levels / 8⌉ | bit `i` set when level `i` ships a payload; spare bits clear |
//! | payloads | | per present level: a `u8` tag, then the payload |
//!
//! The level list is a pure function of `(dims, j0, j_max, budget)`
//! (`enumerate_levels` in `crate::tensor`), so no level directory ships;
//! an absent level holds zeros. A dense payload (tag 0) is a `u64` slot
//! count, the sums, then the sums of squares; a sparse payload (tag 1) is
//! a `u64` entry count, then per nonzero slot its `u32` index (strictly
//! increasing), sum and sum of squares. The compact writer elides all-zero
//! levels and picks the cheaper payload per level; the dense writer ships
//! every level dense. The decoder checks the header, the level range (at
//! most level 30), the bitmap, the total slots (at most
//! [`MAX_COEFFICIENT_SLOTS`] or [`MAX_TENSOR_SLOTS`], the caps that
//! construction enforces too) and a lower bound on the payload bytes
//! before it allocates a level.
//!
//! The frame names the wavelet family but not the depth of the `φ`/`ψ`
//! table the sums were accumulated with: a decoded sketch always sits on
//! the process-wide default-depth basis of its family
//! ([`WaveletBasis::shared`]), so every decode of one family shares one
//! table. A sketch accumulated over a table of another depth (built with
//! [`WaveletBasis::with_table_levels`]) encodes, but its decoded copy
//! refuses to merge with the original, because the two tables differ.
//!
//! [`CoefficientSketch`]: crate::CoefficientSketch
//! [`MAX_COEFFICIENT_SLOTS`]: crate::MAX_COEFFICIENT_SLOTS
//! [`MAX_TENSOR_SLOTS`]: crate::MAX_TENSOR_SLOTS

use std::sync::Arc;

use crate::error::EstimatorError;
use crate::tensor::{enumerate_levels, TensorLevel, TensorSketch};
use crate::window::WindowSliceMeta;
use wavedens_wavelets::{WaveletBasis, WaveletFamily};

const MAGIC: &[u8] = b"WDSK";

/// The version every frame carries. Earlier layouts (versions 1–4) are
/// rejected rather than read.
pub(crate) const FORMAT_VERSION: u16 = 5;

/// Hard cap on the detail level a frame may declare. It bounds the level
/// list only: an absent level costs one bitmap bit on the wire but its
/// full slot count in memory, so the allocation is bounded by the slot
/// cap that `TensorSketch::build` applies, as at construction.
const MAX_SERIALIZED_LEVEL: i32 = 30;

/// Payload tag of a dense level payload.
const PAYLOAD_DENSE: u8 = 0;
/// Payload tag of a coefficient-sparse level payload.
const PAYLOAD_SPARSE: u8 = 1;

/// Serializes `sketch`, with the window block when `window` is given.
/// With `dense` every level ships, as a dense payload; otherwise the
/// all-zero levels are elided and each present level ships in the
/// cheaper payload.
pub(crate) fn encode(
    sketch: &TensorSketch,
    window: Option<&WindowSliceMeta>,
    dense: bool,
) -> Vec<u8> {
    let levels = &sketch.levels;
    let payloads = Payload::plan(sketch, dense);
    let mut out = Vec::with_capacity(frame_len(sketch, window.is_some(), &payloads));
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    let (family_tag, order) = encode_family(sketch.basis().family());
    out.push(family_tag);
    out.extend_from_slice(&(order as u16).to_le_bytes());
    out.push(sketch.dims() as u8);
    out.push(u8::from(window.is_some()));
    if let Some(meta) = window {
        out.extend_from_slice(&meta.slice_age.to_le_bytes());
        out.extend_from_slice(&meta.ring_slices.to_le_bytes());
        out.extend_from_slice(&meta.advances.to_le_bytes());
        out.extend_from_slice(&meta.decay_lambda.to_le_bytes());
    }
    out.extend_from_slice(&(sketch.count() as u64).to_le_bytes());
    out.extend_from_slice(&sketch.coarse_level().to_le_bytes());
    out.extend_from_slice(&sketch.max_level().to_le_bytes());
    out.extend_from_slice(&sketch.hyperbolic_budget().to_le_bytes());
    for axis in 0..sketch.dims() {
        let (lo, hi) = sketch.interval(axis);
        out.extend_from_slice(&lo.to_le_bytes());
        out.extend_from_slice(&hi.to_le_bytes());
    }
    let mut bitmap = vec![0_u8; presence_bitmap_len(levels.len())];
    for (i, payload) in payloads.iter().enumerate() {
        bitmap[i / 8] |= u8::from(*payload != Payload::Absent) << (i % 8);
    }
    out.extend_from_slice(&bitmap);
    for (level, payload) in levels.iter().zip(payloads) {
        match payload {
            Payload::Absent => {}
            Payload::Dense => {
                out.push(PAYLOAD_DENSE);
                out.extend_from_slice(&(level.sums.len() as u64).to_le_bytes());
                for v in level.sums.iter().chain(level.sum_squares.iter()) {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Payload::Sparse { entries } => {
                out.push(PAYLOAD_SPARSE);
                out.extend_from_slice(&(entries as u64).to_le_bytes());
                let slots = level.sums.iter().zip(level.sum_squares.iter());
                for (index, (sum, square)) in slots.enumerate() {
                    if *sum != 0.0 || *square != 0.0 {
                        out.extend_from_slice(&(index as u32).to_le_bytes());
                        out.extend_from_slice(&sum.to_le_bytes());
                        out.extend_from_slice(&square.to_le_bytes());
                    }
                }
            }
        }
    }
    out
}

/// Exact length of the compact frame (no window block) that
/// [`encode`] writes for `sketch` — what byte-budget compaction
/// measures against.
pub(crate) fn encoded_len(sketch: &TensorSketch) -> usize {
    frame_len(sketch, false, &Payload::plan(sketch, false))
}

/// How many leading levels of `sketch` byte-budget compaction keeps: the
/// most whose compact frame fits in `max_bytes` once the finer levels
/// are dropped. A 1-D sketch drops levels by truncation, which shrinks
/// the bitmap too, and keeps its scaling and coarsest detail level; a
/// 2-D sketch ships dropped levels absent and keeps its scaling layer.
/// The payloads are planned once, so the search is one pass over the
/// slots.
pub(crate) fn levels_within(sketch: &TensorSketch, max_bytes: usize) -> usize {
    let truncate = sketch.dims() == 1;
    let payloads = Payload::plan(sketch, false);
    let mut len = frame_len(sketch, false, &payloads);
    let mut keep = payloads.len();
    while len > max_bytes && keep > 1 + usize::from(truncate) {
        keep -= 1;
        len -= payloads[keep].len(sketch.levels[keep].sums.len());
        if truncate {
            len -= presence_bitmap_len(keep + 1) - presence_bitmap_len(keep);
        }
    }
    keep
}

fn frame_len(sketch: &TensorSketch, window: bool, payloads: &[Payload]) -> usize {
    let header = MAGIC.len() + 2 + 3 + 2 + 24 * usize::from(window) + 8 + 12 + 16 * sketch.dims();
    let levels = sketch.levels.iter().zip(payloads);
    let body: usize = levels.map(|(level, p)| p.len(level.sums.len())).sum();
    header + presence_bitmap_len(payloads.len()) + body
}

/// How one level ships.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Payload {
    /// All-zero level of a compact frame: a cleared bitmap bit only.
    Absent,
    /// Slot count, then every sum and every sum of squares.
    Dense,
    /// Entry count, then index, sum and sum of squares per nonzero slot.
    Sparse { entries: usize },
}

impl Payload {
    /// The payload of every level: dense when `dense` is forced or when the
    /// sparse payload would not be smaller.
    fn plan(sketch: &TensorSketch, dense: bool) -> Vec<Self> {
        let of = |level: &TensorLevel| match level.nonzero_slots() {
            0 => Self::Absent,
            entries if 20 * entries < 16 * level.sums.len() => Self::Sparse { entries },
            _ => Self::Dense,
        };
        if dense {
            return vec![Self::Dense; sketch.levels.len()];
        }
        sketch.levels.iter().map(of).collect()
    }

    /// Bytes the payload takes on the wire, its tag included, for a
    /// level of `slots` slots.
    fn len(self, slots: usize) -> usize {
        match self {
            Self::Absent => 0,
            Self::Dense => 1 + 8 + 16 * slots,
            Self::Sparse { entries } => 1 + 8 + 20 * entries,
        }
    }
}

/// Deserializes a frame holding a `dims`-dimensional sketch, returning
/// the window block when the frame carries one. Fails with
/// [`EstimatorError::InvalidSerialization`] on any malformed input,
/// including a frame of the other dimension count.
pub(crate) fn decode(
    bytes: &[u8],
    dims: usize,
) -> Result<(TensorSketch, Option<WindowSliceMeta>), EstimatorError> {
    let mut rest = bytes;
    if take(&mut rest, MAGIC.len())? != MAGIC {
        return Err(invalid("bad magic bytes"));
    }
    let version = u16::from_le_bytes(le(&mut rest)?);
    if version != FORMAT_VERSION {
        return Err(invalid(&format!(
            "unsupported format version {version} (expected {FORMAT_VERSION})"
        )));
    }
    let family_tag = u8::from_le_bytes(le(&mut rest)?);
    let family = decode_family(family_tag, u16::from_le_bytes(le(&mut rest)?) as usize)?;
    let frame_dims = u8::from_le_bytes(le(&mut rest)?) as usize;
    if frame_dims != dims {
        return Err(invalid(&format!(
            "frame holds a {frame_dims}-D sketch, expected {dims}-D"
        )));
    }
    let window = match u8::from_le_bytes(le(&mut rest)?) {
        0 => None,
        1 => Some(read_window_meta(&mut rest)?),
        flag => return Err(invalid(&format!("unknown window flag {flag}"))),
    };
    let count = u64::from_le_bytes(le(&mut rest)?) as usize;
    let j0 = i32::from_le_bytes(le(&mut rest)?);
    let j_max = i32::from_le_bytes(le(&mut rest)?);
    let budget = i32::from_le_bytes(le(&mut rest)?);
    if dims == 1 && budget != 0 {
        return Err(invalid(&format!(
            "1-D frame declares hyperbolic budget {budget}"
        )));
    }
    let mut intervals = [(0.0, 1.0); 2];
    for interval in intervals.iter_mut().take(dims) {
        let lo = f64::from_le_bytes(le(&mut rest)?);
        *interval = (lo, f64::from_le_bytes(le(&mut rest)?));
    }
    if j0 < 0 || j_max < j0 {
        return Err(invalid(&format!("invalid level range {j0}..={j_max}")));
    }
    if j_max > MAX_SERIALIZED_LEVEL {
        return Err(invalid(&format!(
            "max level {j_max} exceeds the wire cap {MAX_SERIALIZED_LEVEL}"
        )));
    }
    for &(lo, hi) in intervals.iter().take(dims) {
        if !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Err(invalid(&format!("invalid interval [{lo}, {hi}]")));
        }
    }
    let present = read_presence(&mut rest, enumerate_levels(dims, j0, j_max, budget).len())?;
    // Every present payload holds at least its tag and a `u64` length.
    let minimum = 9 * present.iter().filter(|&&p| p).count();
    if rest.len() < minimum {
        return Err(invalid(&format!(
            "level payloads hold {} bytes, the present levels need at least {minimum}",
            rest.len()
        )));
    }
    // The constructor derives the level set from the header and refuses
    // more slots than construction allows before it allocates any level.
    let basis = WaveletBasis::shared(family)?;
    let mut sketch = TensorSketch::build(basis, dims, intervals, j0, j_max, budget)
        .map_err(|e| invalid(&format!("frame declares an invalid level set: {e}")))?;
    sketch.count = count;
    for (level, &is_present) in sketch.levels.iter_mut().zip(&present) {
        if is_present {
            read_payload(level, &mut rest)?;
        }
        // A decoded sketch is a new lineage: levels that carry mass get
        // stamp 1; all-zero ones keep 0, so merging them stays the no-op
        // the version guard promises.
        level.version = u64::from(!level.is_zero());
    }
    if !rest.is_empty() {
        return Err(invalid(&format!(
            "{} trailing bytes after the last level",
            rest.len()
        )));
    }
    // A corrupted zero count must not smuggle mass past `is_empty()` and
    // the later division by the count.
    if count == 0 && sketch.levels.iter().any(|level| !level.is_zero()) {
        return Err(invalid("count is zero but level sums are nonzero"));
    }
    Ok((sketch, window))
}

/// Reads one tagged level payload into `level`.
fn read_payload(level: &mut TensorLevel, rest: &mut &[u8]) -> Result<(), EstimatorError> {
    let tag = u8::from_le_bytes(le(rest)?);
    if tag != PAYLOAD_DENSE && tag != PAYLOAD_SPARSE {
        return Err(invalid(&format!("unknown level payload tag {tag}")));
    }
    let entries = u64::from_le_bytes(le(rest)?) as usize;
    let slots = level.sums.len();
    let squares = Arc::make_mut(&mut level.sum_squares);
    if tag == PAYLOAD_DENSE {
        if entries != slots {
            return Err(invalid(&format!(
                "level stores {slots} slots, payload has {entries}"
            )));
        }
        for slot in level.sums.iter_mut() {
            *slot = read_sum(rest)?;
        }
        for slot in squares.iter_mut() {
            *slot = read_square(rest)?;
        }
        return Ok(());
    }
    if entries > slots {
        return Err(invalid(&format!(
            "sparse payload declares {entries} entries for {slots} slots"
        )));
    }
    let mut next = 0;
    for _ in 0..entries {
        let index = u32::from_le_bytes(le(rest)?) as usize;
        if index >= slots {
            return Err(invalid(&format!(
                "sparse entry index {index} outside {slots} slots"
            )));
        }
        if index < next {
            return Err(invalid("sparse entry indices must be strictly increasing"));
        }
        next = index + 1;
        level.sums[index] = read_sum(rest)?;
        squares[index] = read_square(rest)?;
    }
    Ok(())
}

fn read_sum(rest: &mut &[u8]) -> Result<f64, EstimatorError> {
    let value = f64::from_le_bytes(le(rest)?);
    if !value.is_finite() {
        return Err(invalid(&format!("non-finite sum {value} in level payload")));
    }
    Ok(value)
}

/// Sums of squares are nonnegative by construction; anything else is
/// corruption and would poison cross-validation.
fn read_square(rest: &mut &[u8]) -> Result<f64, EstimatorError> {
    let value = f64::from_le_bytes(le(rest)?);
    if !value.is_finite() || value < 0.0 {
        return Err(invalid(&format!(
            "invalid sum of squares {value} in level payload"
        )));
    }
    Ok(value)
}

fn read_window_meta(rest: &mut &[u8]) -> Result<WindowSliceMeta, EstimatorError> {
    let slice_age = u32::from_le_bytes(le(rest)?);
    let ring_slices = u32::from_le_bytes(le(rest)?);
    let advances = u64::from_le_bytes(le(rest)?);
    let decay_lambda = f64::from_le_bytes(le(rest)?);
    if ring_slices == 0 {
        return Err(invalid("windowed frame declares a zero-slice ring"));
    }
    if slice_age >= ring_slices {
        return Err(invalid(&format!(
            "slice age {slice_age} outside the {ring_slices}-slice ring"
        )));
    }
    if !decay_lambda.is_finite() || decay_lambda <= 0.0 || decay_lambda > 1.0 {
        return Err(invalid(&format!(
            "decay factor {decay_lambda} outside (0, 1]"
        )));
    }
    Ok(WindowSliceMeta {
        slice_age,
        ring_slices,
        advances,
        decay_lambda,
    })
}

/// Bytes needed for one presence bit per level.
fn presence_bitmap_len(levels: usize) -> usize {
    levels.div_ceil(8)
}

/// Reads the presence bitmap of a frame with `levels` levels. Bits beyond
/// the level count must be clear: set ones would silently change meaning
/// if a later format ever widens the bitmap.
fn read_presence(rest: &mut &[u8], levels: usize) -> Result<Vec<bool>, EstimatorError> {
    let bitmap = take(rest, presence_bitmap_len(levels))?;
    let bit = |i: usize| bitmap[i / 8] & (1 << (i % 8)) != 0;
    if (levels..bitmap.len() * 8).any(bit) {
        return Err(invalid("presence bitmap has bits beyond the level count"));
    }
    Ok((0..levels).map(bit).collect())
}

fn invalid(message: &str) -> EstimatorError {
    EstimatorError::InvalidSerialization {
        message: message.to_string(),
    }
}

fn encode_family(family: WaveletFamily) -> (u8, usize) {
    match family {
        WaveletFamily::Haar => (0, 1),
        WaveletFamily::Daubechies(n) => (1, n),
        WaveletFamily::Symmlet(n) => (2, n),
    }
}

fn decode_family(tag: u8, order: usize) -> Result<WaveletFamily, EstimatorError> {
    match tag {
        0 => Ok(WaveletFamily::Haar),
        1 => Ok(WaveletFamily::Daubechies(order)),
        2 => Ok(WaveletFamily::Symmlet(order)),
        _ => Err(invalid(&format!("unknown wavelet family tag {tag}"))),
    }
}

/// Splits the first `n` bytes off `rest`.
fn take<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], EstimatorError> {
    if rest.len() < n {
        return Err(invalid("payload truncated"));
    }
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    Ok(head)
}

/// Splits the next `N` bytes off `rest`, for a `from_le_bytes`.
fn le<const N: usize>(rest: &mut &[u8]) -> Result<[u8; N], EstimatorError> {
    let mut array = [0; N];
    array.copy_from_slice(take(rest, N)?);
    Ok(array)
}
