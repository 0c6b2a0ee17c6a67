//! In-memory spans recorded from the benchmark's side of each public
//! call, so every layer is timed from the outside.
//!
//! A span has a name (`<layer>.<operation>`), a start and an end, the
//! span that caused it and the request id of the cycle or batch it
//! belongs to. Spans stay in memory until the run ends.
//!
//! Some public calls do the work of several layers at once (the
//! catalog's `refresh`). The traced run *replays* such a call
//! from the public pieces it is made of, right after the real call, and
//! records the pieces as replay children of the real call's span. Replay
//! children lie outside their parent's interval, so they do not reduce
//! its self time; instead they stand in for it when
//! [`Tracer::coverage`] adds up how much of an end-to-end path the named
//! layers explain.

use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    /// A replay piece standing in for (part of) its parent.
    pub replay: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `NONE` when tracing is off.
pub type SpanId = usize;
const NONE: SpanId = usize::MAX;

/// Records spans when enabled; every method is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        let parent = self.open.last().copied();
        self.open_span(name, request, parent, false)
    }

    /// Opens a replay piece of the (closed) span `of`.
    pub fn begin_replay(&mut self, of: SpanId, name: &'static str) -> SpanId {
        if !self.enabled || of == NONE {
            return NONE;
        }
        let request = self.spans[of].request;
        self.open_span(name, request, Some(of), true)
    }

    fn open_span(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        replay: bool,
    ) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            request,
            replay,
        });
        self.open.push(id);
        id
    }

    /// Closes a span (and any still open inside it).
    pub fn end(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Runs `f` as a replay piece of the closed span `of`.
    pub fn replay<T>(&mut self, of: SpanId, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin_replay(of, name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Self time of every span in nanoseconds: its duration minus the
    /// durations of its non-replay children.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let (Some(parent), false) = (span.parent, span.replay) {
                self_ns[parent] = self_ns[parent].saturating_sub(span.duration_ns());
            }
        }
        self_ns
    }

    /// For every span, the `root` span it lies under (itself for a
    /// root), if any.
    fn roots(&self, root: &str) -> Vec<Option<usize>> {
        let mut root_of: Vec<Option<usize>> = vec![None; self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            root_of[i] = if span.name == root && span.parent.is_none() {
                Some(i)
            } else {
                // Parents precede children, so the root is already known.
                span.parent.and_then(|p| root_of[p])
            };
        }
        root_of
    }

    /// Share of the time inside `root` spans that named layers explain:
    /// the self time of every span below a root, except spans that have
    /// replay children — for those the replay pieces count instead —
    /// divided by the roots' total duration. The roots' own self time
    /// (the benchmark's glue) and the unexplained rest of a replayed call
    /// are what it leaves out.
    pub fn coverage(&self, root: &str) -> f64 {
        let self_ns = self.self_times_ns();
        let mut replayed = vec![false; self.spans.len()];
        for span in &self.spans {
            if let (Some(parent), true) = (span.parent, span.replay) {
                replayed[parent] = true;
            }
        }
        let (mut explained, mut total) = (0u64, 0u64);
        for (i, (span, under)) in self.spans.iter().zip(self.roots(root)).enumerate() {
            match under {
                Some(r) if r == i => total += span.duration_ns(),
                Some(_) if !replayed[i] => explained += self_ns[i],
                _ => {}
            }
        }
        if total == 0 {
            return f64::NAN;
        }
        explained as f64 / total as f64
    }

    /// How much tracing lengthens the time inside `root` spans (traced ÷
    /// untraced − 1): the spans recorded inside the roots' intervals
    /// (roots included, replay pieces not: they run afterwards), each at
    /// `span_cost_ns`, against the roots' total duration without them.
    pub fn overhead(&self, root: &str, span_cost_ns: f64) -> f64 {
        let (mut spans, mut total) = (0u64, 0u64);
        for (i, (span, under)) in self.spans.iter().zip(self.roots(root)).enumerate() {
            if under == Some(i) {
                total += span.duration_ns();
            }
            if under.is_some() && !span.replay {
                spans += 1;
            }
        }
        let cost = spans as f64 * span_cost_ns;
        cost / (total as f64 - cost)
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}, \"replay\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.replay
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds one span's `begin` plus `end` costs on an enabled tracer:
/// the median over 16 blocks of 4096 spans, each block on a fresh tracer
/// (so the span vector grows as it does in a run).
pub fn span_cost_ns() -> f64 {
    const SPANS: usize = 4096;
    let blocks: crate::report::Samples = (0..16)
        .map(|_| {
            let mut scratch = Tracer::new(true);
            let root = scratch.begin("cycle", 0);
            let t0 = Instant::now();
            for request in 0..SPANS as u64 {
                let id = scratch.begin("span.cost", request);
                scratch.end(id);
            }
            let ns = t0.elapsed().as_nanos() as f64 / SPANS as f64;
            scratch.end(root);
            std::hint::black_box(scratch.spans().len());
            ns
        })
        .collect();
    blocks.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, replay: bool) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            replay,
        }
    }

    #[test]
    fn coverage_counts_layer_self_time_and_replays() {
        let mut tracer = Tracer::new(true);
        tracer.spans = vec![
            span("cycle", 0, 100, None, false),
            span("sharded.ingest", 0, 30, Some(0), false),
            // An opaque call of 60 ns whose replay pieces explain 45 ns.
            span("synopsis.refresh", 30, 90, Some(0), false),
            span("cv.estimate", 200, 230, Some(2), true),
            span("dense.cdf_build", 230, 245, Some(2), true),
            // Outside any root: not counted.
            span("sketch.push", 300, 400, None, false),
        ];
        let self_ns = tracer.self_times_ns();
        assert_eq!(self_ns[0], 10);
        assert_eq!(self_ns[2], 60);
        assert!((tracer.coverage("cycle") - 0.75).abs() < 1e-12);
    }

    #[test]
    fn overhead_counts_spans_inside_roots() {
        let mut tracer = Tracer::new(true);
        tracer.spans = vec![
            span("cycle", 0, 1_000, None, false),
            span("sharded.ingest", 0, 300, Some(0), false),
            span("synopsis.refresh", 300, 900, Some(0), false),
            // Replayed after the root: not inside its interval.
            span("cv.estimate", 2_000, 2_300, Some(2), true),
            span("sketch.push", 3_000, 4_000, None, false),
        ];
        // Three spans at 10 ns each inside 1000 ns: 30 / 970.
        assert!((tracer.overhead("cycle", 10.0) - 30.0 / 970.0).abs() < 1e-12);
        assert!(span_cost_ns() > 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let value = tracer.span("catalog.ingest", 1, || 7);
        assert_eq!(value, 7);
        assert!(tracer.spans().is_empty());
    }
}
