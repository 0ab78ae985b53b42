//! In-memory spans around the benchmark's calls into each layer, written
//! out once at the end as a Chrome trace.
//!
//! Spans nest by a stack: a pass span holds point spans, and a point span
//! holds the leaf spans of the layer calls made for that point. Nothing is
//! written until the run ends, so recording costs one `Instant::now` and a
//! `Vec` push per span.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use vlt_stats::json::Json;

/// One recorded interval.
#[derive(Debug, Clone)]
struct Span {
    /// Layer-call name (`build`, `run`, `lint`, ...) or `pass`/`point`.
    name: &'static str,
    /// The crate the call goes into (the Chrome-trace category).
    cat: &'static str,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Point id shared by every span of one point (0 for pass spans).
    point: usize,
    /// Start, relative to the tracer's origin.
    start: Duration,
    /// Length of the interval.
    dur: Duration,
    /// Exact counts and labels attached to the span.
    args: Vec<(String, Json)>,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// Open a span that later spans nest under; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, cat: &'static str, point: usize) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            cat,
            parent: self.open.last().copied(),
            point,
            start: self.origin.elapsed(),
            dur: Duration::ZERO,
            args: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, attaching `args`.
    pub fn end(&mut self, id: usize, args: Vec<(String, Json)>) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.dur = self.origin.elapsed().saturating_sub(span.start);
        span.args.extend(args);
    }

    /// Record a finished leaf span under the innermost open span.
    pub fn leaf(&mut self, name: &'static str, cat: &'static str, started: Instant, dur: Duration) {
        let parent = self.open.last().copied();
        let point = parent.map_or(0, |p| self.spans[p].point);
        self.spans.push(Span {
            name,
            cat,
            parent,
            point,
            start: started.saturating_duration_since(self.origin),
            dur,
            args: Vec::new(),
        });
    }

    /// Each span's self time: its duration minus the time its child spans
    /// cover (children of one span never overlap).
    fn self_times(&self) -> Vec<Duration> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur;
            }
        }
        self.spans.iter().zip(covered).map(|(s, c)| s.dur.saturating_sub(c)).collect()
    }

    /// Total and self seconds per span name, over every span recorded.
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur.as_secs_f64();
            e.1 += own.as_secs_f64();
        }
        out
    }

    /// The spans as a Chrome-trace document (`X` slices on one track;
    /// passes follow each other), with `metadata` beside `traceEvents`.
    pub fn to_chrome_json(&self, metadata: Json) -> Json {
        let own = self.self_times();
        let us = |d: Duration| Json::Num(d.as_nanos() as f64 / 1000.0);
        let mut events = vec![obj([
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("ts", Json::Num(0.0)),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(0.0)),
            ("args", obj([("name", Json::Str("vlt-perfbench".into()))])),
        ])];
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| self.spans[i].start);
        for i in order {
            let s = &self.spans[i];
            let mut args: BTreeMap<String, Json> = s.args.iter().cloned().collect();
            args.insert("point".into(), Json::Num(s.point as f64));
            args.insert("self_us".into(), us(own[i]));
            events.push(obj([
                ("name", Json::Str(s.name.into())),
                ("cat", Json::Str(s.cat.into())),
                ("ph", Json::Str("X".into())),
                ("ts", us(s.start)),
                ("dur", us(s.dur)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                ("args", Json::Obj(args)),
            ]));
        }
        obj([("traceEvents", Json::Arr(events)), ("metadata", metadata)])
    }
}

/// Build a JSON object from key/value pairs.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}
