//! The sharded metrics registry and its snapshot/exposition surface.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use crate::metrics::{
    bucket_upper, Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS,
};

/// Number of independently locked shards. Registration is rare (handles
/// are cached by callers), so the sharding only has to keep concurrent
/// registration and snapshotting from serialising on one mutex.
const SHARDS: usize = 8;

/// Identity of a metric: a name plus its `key="value"` label pairs, in the
/// order they were attached. Registration attaches at most one pair (the
/// `stage="solve"` / `phase="queue"` families this workspace exports);
/// aggregation surfaces stack further pairs onto captured samples — e.g. a
/// cluster scrape stamps `shard="k"` onto every per-shard metric via
/// [`TelemetrySnapshot::with_label`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, e.g. `mgk_stage_duration_seconds`.
    pub name: String,
    /// Label pairs, e.g. `[("stage", "solve")]`; empty for unlabeled
    /// metrics.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, label: Option<(&str, &str)>) -> Self {
        Self {
            name: name.to_string(),
            labels: label.map(|(k, v)| (k.to_string(), v.to_string())).into_iter().collect(),
        }
    }

    /// Render as `name` or `name{key="value",...}`.
    pub(crate) fn render(&self) -> String {
        if self.labels.is_empty() {
            self.name.clone()
        } else {
            let labels: Vec<String> =
                self.labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
            format!("{}{{{}}}", self.name, labels.join(","))
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A sharded, get-or-register metrics registry.
///
/// Handles returned by the accessors are `Arc`-backed: callers cache them
/// once and record lock-free afterwards. Requesting the same name (and
/// label) twice returns handles sharing one cell; requesting a name that
/// is already registered as a *different* metric kind panics — that is a
/// programming error, not a runtime condition.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Vec<Mutex<HashMap<MetricKey, Metric>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self { shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    fn shard(&self, key: &MetricKey) -> &Mutex<HashMap<MetricKey, Metric>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    fn get_or_insert(&self, key: MetricKey, fresh: Metric) -> Metric {
        let mut shard = self.shard(&key).lock().expect("registry shard poisoned");
        let existing = shard.entry(key.clone()).or_insert(fresh.clone());
        assert!(
            std::mem::discriminant(existing) == std::mem::discriminant(&fresh),
            "metric `{}` already registered as a {}, requested as a {}",
            key.render(),
            existing.kind(),
            fresh.kind(),
        );
        existing.clone()
    }

    /// Get or register an unlabeled counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_labeled(name, None)
    }

    /// Get or register a counter with an optional `key="value"` label.
    pub fn counter_labeled(&self, name: &str, label: Option<(&str, &str)>) -> Counter {
        match self.get_or_insert(MetricKey::new(name, label), Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind checked by get_or_insert"),
        }
    }

    /// Get or register an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(MetricKey::new(name, None), Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind checked by get_or_insert"),
        }
    }

    /// Get or register an unlabeled histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_labeled(name, None)
    }

    /// Get or register a histogram with an optional `key="value"` label.
    pub fn histogram_labeled(&self, name: &str, label: Option<(&str, &str)>) -> Histogram {
        match self.get_or_insert(MetricKey::new(name, label), Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind checked by get_or_insert"),
        }
    }

    /// Capture every registered metric at one point in time, sorted by
    /// name (then label) so renderings are deterministic.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut samples = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("registry shard poisoned");
            for (key, metric) in shard.iter() {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.value()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.value()),
                    Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                };
                samples.push(MetricSample { key: key.clone(), value });
            }
        }
        samples.sort_by(|a, b| a.key.cmp(&b.key));
        TelemetrySnapshot { samples }
    }
}

/// One captured metric.
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Name plus optional label.
    pub key: MetricKey,
    /// Captured value.
    pub value: MetricValue,
}

/// Captured value of a single metric.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Monotonic total.
    Counter(u64),
    /// Point-in-time value.
    Gauge(f64),
    /// Full bucket contents (boxed: a snapshot is ~1 KiB of buckets,
    /// dwarfing the scalar variants).
    Histogram(Box<HistogramSnapshot>),
}

/// A point-in-time capture of a whole registry, with lookup helpers for
/// tests and two renderers: Prometheus text exposition and the flat JSON
/// shape the bench harness stamps into its `BENCH_*.json` records.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// All captured metrics, sorted by name then label.
    pub samples: Vec<MetricSample>,
}

impl TelemetrySnapshot {
    fn find(&self, name: &str, label: Option<(&str, &str)>) -> Option<&MetricValue> {
        self.samples
            .iter()
            .find(|s| {
                s.key.name == name
                    && match label {
                        // an unlabeled query addresses the unlabeled sample,
                        // so a merged (shard-stamped) capture never aliases
                        // a single-registry one
                        None => s.key.labels.is_empty(),
                        // a labeled query matches any sample carrying the
                        // pair, so `("stage", "solve")` still resolves after
                        // a `shard="k"` stamp is stacked on
                        Some((lk, lv)) => s.key.labels.iter().any(|(k, v)| k == lk && v == lv),
                    }
            })
            .map(|s| &s.value)
    }

    /// Value of an unlabeled counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counter_labeled(name, None)
    }

    /// Value of a (possibly labeled) counter, if present.
    pub fn counter_labeled(&self, name: &str, label: Option<(&str, &str)>) -> Option<u64> {
        match self.find(name, label)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.find(name, None)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Buckets of a (possibly labeled) histogram, if present.
    pub fn histogram(&self, name: &str, label: Option<(&str, &str)>) -> Option<&HistogramSnapshot> {
        match self.find(name, label)? {
            MetricValue::Histogram(h) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Sum of every counter named `name`, labeled or not — the aggregate
    /// view over a merged multi-registry capture (e.g. total request
    /// solves across every `shard="k"` stamp). `None` if no counter of
    /// that name exists.
    pub fn counter_total(&self, name: &str) -> Option<u64> {
        let mut found = false;
        let mut total = 0u64;
        for sample in &self.samples {
            if sample.key.name == name {
                if let MetricValue::Counter(v) = &sample.value {
                    found = true;
                    total += v;
                }
            }
        }
        found.then_some(total)
    }

    /// Append `key="value"` to every sample's label set, consuming the
    /// capture. The aggregation primitive behind multi-registry scrape
    /// surfaces: stamp each registry's snapshot with its origin (e.g.
    /// `shard="2"`), then [`merge`](Self::merge) the stamped captures.
    pub fn with_label(mut self, key: &str, value: &str) -> Self {
        for sample in &mut self.samples {
            sample.key.labels.push((key.to_string(), value.to_string()));
        }
        self.samples.sort_by(|a, b| a.key.cmp(&b.key));
        self
    }

    /// Merge several captures into one, re-sorted by name then labels so
    /// renderings stay deterministic (and `# TYPE` lines are emitted once
    /// per name). Callers keep samples distinguishable by stamping each
    /// capture via [`with_label`](Self::with_label) first; identical keys
    /// are kept side by side, not summed.
    pub fn merge(snapshots: impl IntoIterator<Item = TelemetrySnapshot>) -> Self {
        let mut samples: Vec<MetricSample> =
            snapshots.into_iter().flat_map(|s| s.samples).collect();
        samples.sort_by(|a, b| a.key.cmp(&b.key));
        TelemetrySnapshot { samples }
    }

    /// Render in the Prometheus text exposition format.
    ///
    /// Histograms record nanoseconds internally but are exposed in seconds
    /// (bucket `le` bounds and `_sum`), per Prometheus convention. Only
    /// populated buckets emit a `_bucket` line (plus the mandatory
    /// `+Inf`); cumulative counts stay monotone either way.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_typed: Option<&str> = None;
        for sample in &self.samples {
            let name = sample.key.name.as_str();
            if last_typed != Some(name) {
                out.push_str(&format!(
                    "# TYPE {name} {}\n",
                    match &sample.value {
                        MetricValue::Counter(_) => "counter",
                        MetricValue::Gauge(_) => "gauge",
                        MetricValue::Histogram(_) => "histogram",
                    }
                ));
                last_typed = Some(name);
            }
            match &sample.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{} {v}\n", sample.key.render()));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{} {v}\n", sample.key.render()));
                }
                MetricValue::Histogram(h) => {
                    // suffix goes on the name, labels after: `name_bucket{...}`
                    let suffixed = |suffix: &str, le: Option<&str>| {
                        let mut labels: Vec<String> =
                            sample.key.labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
                        if let Some(le) = le {
                            labels.push(format!("le=\"{le}\""));
                        }
                        if labels.is_empty() {
                            format!("{name}{suffix}")
                        } else {
                            format!("{name}{suffix}{{{}}}", labels.join(","))
                        }
                    };
                    let mut cumulative = 0u64;
                    for b in 0..HISTOGRAM_BUCKETS {
                        if h.counts[b] == 0 {
                            continue;
                        }
                        cumulative += h.counts[b];
                        // nanoseconds → seconds at fixed 9-decimal precision,
                        // so boundaries render exactly and stay monotone
                        let le = format!("{:.9}", bucket_upper(b) as f64 / 1e9);
                        out.push_str(
                            &format!("{} {cumulative}\n", suffixed("_bucket", Some(&le)),),
                        );
                    }
                    out.push_str(&format!("{} {}\n", suffixed("_bucket", Some("+Inf")), h.count()));
                    out.push_str(&format!(
                        "{} {:.9}\n",
                        suffixed("_sum", None),
                        h.sum() as f64 / 1e9
                    ));
                    out.push_str(&format!("{} {}\n", suffixed("_count", None), h.count()));
                }
            }
        }
        out
    }

    /// Render as flat JSON, mirroring the shape the bench harness stamps:
    /// counters and gauges as scalar fields, histograms as
    /// `{count, sum_ns, p50_ns, p95_ns, p99_ns}` objects. Keys are the
    /// rendered metric names (label included).
    pub fn render_json(&self) -> String {
        fn escape(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for sample in &self.samples {
            let key = escape(&sample.key.render());
            match &sample.value {
                MetricValue::Counter(v) => counters.push(format!("    \"{key}\": {v}")),
                MetricValue::Gauge(v) => gauges.push(format!("    \"{key}\": {v}")),
                MetricValue::Histogram(h) => histograms.push(format!(
                    "    \"{key}\": {{ \"count\": {}, \"sum_ns\": {}, \"p50_ns\": {}, \
                     \"p95_ns\": {}, \"p99_ns\": {} }}",
                    h.count(),
                    h.sum(),
                    h.quantile(0.50).unwrap_or(0),
                    h.quantile(0.95).unwrap_or(0),
                    h.quantile(0.99).unwrap_or(0),
                )),
            }
        }
        format!(
            "{{\n  \"counters\": {{\n{}\n  }},\n  \"gauges\": {{\n{}\n  }},\n  \
             \"histograms\": {{\n{}\n  }}\n}}\n",
            counters.join(",\n"),
            gauges.join(",\n"),
            histograms.join(",\n"),
        )
    }
}
