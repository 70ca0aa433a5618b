//! The per-layer ledger: span self times and counter totals.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! library, named `layer.call` after the crate that owns the call. A
//! span's *self* time is its duration minus the time its child spans
//! cover; the only nesting the benchmark records is `core.probe` inside
//! `core.decode`, and the decode span stores its self time directly.
//! Spans are aggregated in memory per span kind (total self time and
//! call count) and written out when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use phantom::report::value::JsonValue;

/// Total self time and call count of one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Summed self time, nanoseconds.
    pub ns: u64,
    /// Number of spans.
    pub calls: u64,
}

/// Span totals, counter totals and the traced thread time they cover.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    spans: BTreeMap<&'static str, SpanTotal>,
    counts: BTreeMap<&'static str, u64>,
    /// Host thread time the traced run spent, nanoseconds. Spans are
    /// measured against it to find the unattributed share.
    pub traced_ns: u64,
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Ledger {
    /// Record one span of `kind` with self time `ns`.
    pub fn span(&mut self, kind: &'static str, ns: u64) {
        self.add(kind, ns, 1);
    }

    /// Record `calls` spans of `kind` with `ns` summed self time.
    pub fn add(&mut self, kind: &'static str, ns: u64, calls: u64) {
        let total = self.spans.entry(kind).or_default();
        total.ns += ns;
        total.calls += calls;
    }

    /// Run `f` inside a span of `kind`.
    pub fn time<T>(&mut self, kind: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.span(kind, nanos(start.elapsed()));
        out
    }

    /// Add `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Fold another ledger into this one.
    pub fn merge(&mut self, other: &Ledger) {
        for (&kind, t) in &other.spans {
            self.add(kind, t.ns, t.calls);
        }
        for (&name, &n) in &other.counts {
            self.count(name, n);
        }
        self.traced_ns += other.traced_ns;
    }

    /// Totals of span `kind` (zero if it never ran).
    pub fn total(&self, kind: &str) -> SpanTotal {
        self.spans.get(kind).copied().unwrap_or_default()
    }

    /// Counter `name` (zero if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Mean self time of one `kind` span, microseconds.
    pub fn mean_us(&self, kind: &str) -> Option<f64> {
        let t = self.total(kind);
        (t.calls > 0).then(|| t.ns as f64 / t.calls as f64 / 1e3)
    }

    /// Summed self time of every span: the traced time some layer covers.
    pub fn covered_ns(&self) -> u64 {
        self.spans.values().map(|t| t.ns).sum()
    }

    /// Share of traced time no span covers.
    pub fn unattributed_frac(&self) -> f64 {
        1.0 - self.covered_ns() as f64 / self.traced_ns.max(1) as f64
    }

    /// Share of traced time spent in spans of `kind`.
    pub fn share(&self, kind: &str) -> f64 {
        self.total(kind).ns as f64 / self.traced_ns.max(1) as f64
    }

    /// Span kinds and counters as JSON, for the ledger file.
    pub fn to_json(&self) -> JsonValue {
        let mut spans = JsonValue::object();
        for (kind, t) in &self.spans {
            let mut s = JsonValue::object();
            s.set("self_ns", JsonValue::Uint(t.ns))
                .set("calls", JsonValue::Uint(t.calls));
            spans.set(kind, s);
        }
        let mut counts = JsonValue::object();
        for (name, n) in &self.counts {
            counts.set(name, JsonValue::Uint(*n));
        }
        let mut out = JsonValue::object();
        out.set("traced_ns", JsonValue::Uint(self.traced_ns))
            .set("spans", spans)
            .set("counters", counts);
        out
    }
}

/// Every span kind the traced runs record, in ledger order. The final
/// per-layer metrics report each one's share of traced time, so the
/// shares plus `bench.unattributed_frac` account for all of it.
pub const SPAN_KINDS: [&str; 16] = [
    "kernel.boot",
    "sidechannel.arena_install",
    "pipeline.checkpoint",
    "pipeline.fork",
    "pipeline.teardown",
    "pipeline.rewind",
    "core.probe",
    "core.decode",
    "core.pht_job",
    "bench.emit",
    "bench.generate",
    "isa.assemble",
    "pipeline.machine_new",
    "pipeline.case",
    "bench.minimize",
    "gf2.oracle",
];

/// One per-layer metric.
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    /// `None` when the layer does not run on this workload.
    pub value: Option<f64>,
    /// Count-type metrics must repeat exactly across traced passes.
    pub count_type: bool,
}

impl Row {
    pub fn time(name: &'static str, value: Option<f64>) -> Row {
        Row {
            name,
            unit: "us",
            value,
            count_type: false,
        }
    }

    pub fn count(name: &'static str, unit: &'static str, value: Option<f64>) -> Row {
        Row {
            name,
            unit,
            value,
            count_type: true,
        }
    }
}

/// `num / den`, or `None` when there is nothing to divide by.
pub fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}
