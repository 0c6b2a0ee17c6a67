//! Sample statistics, operation checks and the result lines the
//! benchmark prints.

use std::fmt::Write as _;

/// Samples a run collected for one quantity (durations, rates, …).
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(values: I) -> Self {
        Self(values.into_iter().collect())
    }
}

/// Work done and the seconds it took, summed over every operation of a
/// run: a rate or mean over all of them, not over a sample. The host
/// runs in fast and slow stretches of seconds, so a per-operation median
/// jumps between the two speeds with the share of the run spent in each;
/// a total moves in proportion to that share.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub count: f64,
    pub seconds: f64,
    /// Operations added.
    pub operations: usize,
}

impl Total {
    pub fn add(&mut self, count: f64, seconds: f64) {
        self.count += count;
        self.seconds += seconds;
        self.operations += 1;
    }

    /// Work per second.
    pub fn rate(&self) -> f64 {
        self.count / self.seconds
    }

    /// Seconds per operation.
    pub fn mean_seconds(&self) -> f64 {
        self.seconds / self.operations as f64
    }
}

/// A tail percentile: the value, which percentile it is, and the sample
/// count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        self.0.extend(values);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// The median (mean of the middle pair for an even count); NaN when
    /// empty.
    pub fn median(&self) -> f64 {
        let sorted = self.sorted();
        let n = sorted.len();
        match n {
            0 => f64::NAN,
            _ if n % 2 == 1 => sorted[n / 2],
            _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
        }
    }

    /// The arithmetic mean; NaN when empty.
    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// The highest nearest-rank percentile that still has at least
    /// [`TAIL_BEYOND`] samples above it. With fewer than `TAIL_BEYOND + 1`
    /// samples no percentile qualifies and the maximum is reported as
    /// percentile 100.
    pub fn tail(&self) -> Tail {
        let sorted = self.sorted();
        let n = sorted.len();
        if n == 0 {
            return Tail {
                value: f64::NAN,
                percentile: 100.0,
                samples: 0,
            };
        }
        let index = n.saturating_sub(TAIL_BEYOND + 1);
        let index = if n > TAIL_BEYOND { index } else { n - 1 };
        Tail {
            value: sorted[index],
            percentile: 100.0 * (index + 1) as f64 / n as f64,
            samples: n,
        }
    }
}

/// Counts every checked operation and every failure: an `Err`, a `None`
/// from a primed snapshot, an answer outside `[0, 1]`, or a replica
/// answer that differs from the primary's.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Replica answers that differ from the primary snapshot's.
    pub mismatches: u64,
    /// The first few failures, for the diagnostic line.
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one operation; `ok == false` counts it failed.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Records a fallible call; returns its value when it succeeded.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        match result {
            Ok(value) => {
                self.record(true, String::new);
                Some(value)
            }
            Err(err) => {
                self.record(false, || format!("{what}: {err}"));
                None
            }
        }
    }

    /// Records an answer: it must exist and lie in `[0, 1]`.
    pub fn answer(&mut self, what: &str, answer: Option<f64>) {
        let ok = matches!(answer, Some(a) if (0.0..=1.0).contains(&a));
        self.record(ok, || format!("{what}: answer {answer:?} outside [0, 1]"));
    }

    /// Records a replica/primary comparison.
    pub fn replica(&mut self, what: &str, replica: f64, primary: f64) {
        let ok = (replica - primary).abs() <= REPLICA_TOLERANCE;
        if !ok {
            self.mismatches += 1;
        }
        self.record(ok, || {
            format!("{what}: replica {replica} != primary {primary}")
        });
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

/// Replica answers must equal the primary snapshot's within this:
/// `InactiveTail` compaction is documented as pointwise-identical.
pub const REPLICA_TOLERANCE: f64 = 1e-12;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub checks: Checks,
    /// Whether every check passed and the oracle's error is plausible.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Run metadata: build, host, seed, sample counts and tail
    /// percentiles, as `(key, JSON value)` pairs.
    pub meta: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn meta(&mut self, key: &str, json_value: String) {
        self.meta.push((key.to_string(), json_value));
    }

    /// Records a median metric and its sample count.
    pub fn median(&mut self, name: &str, samples: &Samples, scale: f64, unit: &'static str) {
        self.metric(name, samples.median() * scale, unit);
        self.meta(&format!("{name}.samples"), samples.len().to_string());
    }

    /// Records a mean metric and its sample count.
    pub fn mean(&mut self, name: &str, samples: &Samples, unit: &'static str) {
        self.metric(name, samples.mean(), unit);
        self.meta(&format!("{name}.samples"), samples.len().to_string());
    }

    /// Records a tail metric, with its percentile and the sample count.
    pub fn tail(&mut self, name: &str, samples: &Samples, scale: f64, unit: &'static str) {
        let tail = samples.tail();
        self.metric(name, tail.value * scale, unit);
        self.meta(&format!("{name}.samples"), tail.samples.to_string());
        self.meta(&format!("{name}.percentile"), json_number(tail.percentile));
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.checks.attempted.max(1),
            self.checks.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&metric.name),
                json_number(metric.value),
                json_string(metric.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// The metadata line printed just before the result line.
    pub fn meta_line(&self) -> String {
        let mut out = String::from("{\"meta\": {");
        for (i, (key, value)) in self.meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}: {value}", json_string(key));
        }
        let _ = write!(
            out,
            "}}, \"mismatches\": {}, \"failures\": [",
            self.checks.mismatches
        );
        for (i, note) in self.checks.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}", json_string(note));
        }
        out.push_str("]}");
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (which JSON cannot hold) become `null`.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set of this process in MiB, from `VmHWM`.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::new();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s = samples((1..=100).map(f64::from));
        let tail = s.tail();
        assert_eq!(tail.value, 90.0);
        assert_eq!(tail.percentile, 90.0);
        assert_eq!(tail.samples, 100);
        let few = samples([3.0, 1.0, 2.0]);
        assert_eq!(few.tail().value, 3.0);
        assert_eq!(few.tail().percentile, 100.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(samples([3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(samples([4.0, 1.0, 2.0, 3.0]).median(), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut report = Report {
            correct: true,
            checks: Checks {
                attempted: 3,
                ..Checks::default()
            },
            ..Report::default()
        };
        report.metric("setup_s", 0.25, "s");
        assert_eq!(
            report.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
