//! Spans around the harness's own calls into each layer's public functions.
//!
//! Nothing inside `crates/` is instrumented: the harness wraps the calls it
//! makes, keeps the spans in memory, and writes them out when the run ends.
//! A layer's self time is its span minus the part its child spans cover.
//! Only the harness thread records; scheduler and shard threads are seen
//! from outside, as the time a call into them took.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval. `parent` indexes into the same span list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// The lap the span belongs to; spans of one lap share it.
    pub lap: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans beyond this many are counted, not kept, so a long traced run
/// cannot grow without bound.
const MAX_SPANS: usize = 250_000;

pub struct Tracer {
    origin: Instant,
    enabled: Cell<bool>,
    lap: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    dropped: Cell<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: Cell::new(enabled),
            lap: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            dropped: Cell::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Switch recording on or off between laps (never inside a span).
    pub fn set_enabled(&self, enabled: bool) {
        debug_assert!(self.open.borrow().is_empty(), "toggle tracing between spans only");
        self.enabled.set(enabled);
    }

    pub fn set_lap(&self, lap: u32) {
        self.lap.set(lap);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. With tracing off this is one
    /// branch and the call.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        self.span_timed(name, f).0
    }

    /// [`span`](Self::span) that also returns the duration in nanoseconds;
    /// the clock is read whether or not tracing is on.
    pub fn span_timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        if !self.enabled.get() {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed().as_nanos() as u64);
        }
        let start_ns = self.now_ns();
        let slot = {
            let mut spans = self.spans.borrow_mut();
            if spans.len() >= MAX_SPANS {
                self.dropped.set(self.dropped.get() + 1);
                None
            } else {
                let id = spans.len() as u32;
                let parent = self.open.borrow().last().copied();
                spans.push(Span { name, start_ns, end_ns: start_ns, parent, lap: self.lap.get() });
                self.open.borrow_mut().push(id);
                Some(id)
            }
        };
        let out = f();
        let end_ns = self.now_ns();
        if let Some(id) = slot {
            self.spans.borrow_mut()[id as usize].end_ns = end_ns;
            let popped = self.open.borrow_mut().pop();
            debug_assert_eq!(popped, Some(id), "spans close in the order they opened");
        }
        (out, end_ns - start_ns)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// The trace file: a name table, spans as
    /// `[name, start_ns, end_ns, parent or -1, lap]`, and per-name totals.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self.spans.borrow();
        let mut names: Vec<&'static str> = Vec::new();
        let mut name_index: BTreeMap<&'static str, usize> = BTreeMap::new();
        let rows: Vec<Json> = spans
            .iter()
            .map(|s| {
                let idx = *name_index.entry(s.name).or_insert_with(|| {
                    names.push(s.name);
                    names.len() - 1
                });
                Json::Arr(vec![
                    Json::Num(idx as f64),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    Json::Num(s.parent.map_or(-1.0, |p| p as f64)),
                    Json::Num(s.lap as f64),
                ])
            })
            .collect();
        let by_name = aggregate(&spans)
            .into_iter()
            .map(|(name, a)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("count", Json::Num(a.count as f64)),
                        ("total_ns", Json::Num(a.total_ns as f64)),
                        ("self_ns", Json::Num(a.self_ns as f64)),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            (
                "columns",
                Json::Arr(["name", "start_ns", "end_ns", "parent", "lap"].map(Json::str).to_vec()),
            ),
            ("names", Json::Arr(names.iter().map(|n| Json::str(*n)).collect())),
            ("dropped_spans", Json::Num(self.dropped.get() as f64)),
            ("by_name", Json::Obj(by_name)),
            ("spans", Json::Arr(rows)),
        ])
    }
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Aggregate> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        let a = out.entry(span.name).or_default();
        a.count += 1;
        a.total_ns += span.duration_ns();
        a.self_ns += self_ns;
    }
    out
}
