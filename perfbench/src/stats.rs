//! Timing samples, percentiles and the JSON object a worker prints.
//!
//! Spans are kept in memory while the worker runs and written out once, as
//! one JSON line, when it ends.

use std::time::{Duration, Instant};

/// Per-call costs of one timed layer.
#[derive(Debug, Default)]
pub struct Samples {
    per_call: Vec<f64>,
    calls: u64,
    off: bool,
}

impl Samples {
    /// Samples that time nothing: `span` only runs its closure.
    pub fn off() -> Self {
        Samples {
            off: true,
            ..Samples::default()
        }
    }

    /// Times `f`, which performs `calls` calls of the layer, as one span and
    /// records the per-call cost in nanoseconds. Calls shorter than the
    /// clock's resolution are timed this way, in batches.
    pub fn span<R>(&mut self, calls: usize, f: impl FnOnce() -> R) -> R {
        if self.off {
            return std::hint::black_box(f());
        }
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.record(start.elapsed(), calls);
        out
    }

    /// Times `batch` back-to-back calls of `f` as one span.
    pub fn batch<R>(&mut self, batch: usize, mut f: impl FnMut() -> R) {
        self.span(batch, || {
            for _ in 0..batch {
                std::hint::black_box(f());
            }
        });
    }

    /// Records a span that covered `calls` calls.
    pub fn record(&mut self, elapsed: Duration, calls: usize) {
        if calls == 0 {
            return;
        }
        self.per_call.push(elapsed.as_nanos() as f64 / calls as f64);
        self.calls += calls as u64;
    }

    /// Records one sample that is not a duration (a throughput, say).
    pub fn record_value(&mut self, value: f64) {
        self.per_call.push(value);
        self.calls += 1;
    }

    pub fn summary(&self) -> Summary {
        let mut sorted = self.per_call.clone();
        sorted.sort_by(f64::total_cmp);
        let at = |p: f64| match sorted.len() {
            0 => 0.0,
            len => sorted[((len - 1) as f64 * p).round() as usize],
        };
        Summary {
            p50: at(0.5),
            p99: at(0.99),
            n: self.calls,
        }
    }
}

/// The median and 99th percentile of a layer's per-call cost, over `n`
/// calls.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub p50: f64,
    pub p99: f64,
    pub n: u64,
}

/// The flat JSON object one worker invocation prints.
#[derive(Debug, Default)]
pub struct Json {
    fields: Vec<String>,
}

impl Json {
    pub fn raw(&mut self, key: &str, value: String) -> &mut Self {
        self.fields.push(format!("{}:{value}", quote(key)));
        self
    }

    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        assert!(value.is_finite(), "{key} is not a finite number");
        self.raw(key, format!("{value}"))
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, value.to_string())
    }

    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw(key, value.to_string())
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, quote(value))
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

/// Named metrics with units, printed under the `metrics` key.
#[derive(Debug, Default)]
pub struct Metrics {
    json: Json,
}

impl Metrics {
    pub fn value(&mut self, name: &str, value: f64, unit: &str) {
        let mut entry = Json::default();
        entry.num("value", value).str("unit", unit);
        self.json.raw(name, entry.render());
    }

    /// A layer's timing as `<name>.p50`, `<name>.p99` and `<name>.n`.
    pub fn timing(&mut self, name: &str, summary: Summary, unit: &str) {
        self.value(&format!("{name}.p50"), summary.p50, unit);
        self.value(&format!("{name}.p99"), summary.p99, unit);
        self.value(&format!("{name}.n"), summary.n as f64, "count");
    }

    pub fn render(&self) -> String {
        self.json.render()
    }
}

fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// SplitMix64: the seeded generator behind every corpus and key set.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}
