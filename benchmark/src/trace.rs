//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span records its layer (the crate or benchmark part it times), the
//! function, start and end, the span that caused it and the unit it
//! belongs to; spans of one unit share that unit's id. Spans are kept
//! in memory and written once, when the run ends, in Chrome-trace
//! format. With tracing off every call is a plain function call.

use crate::json::write_string;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans of the benchmark's own structure: one per set-up, pass and
/// unit. Every other span is a call the benchmark makes.
pub const STRUCTURAL: [&str; 3] = ["setup", "pass", "unit"];

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Identifier, unique in the run (0 is "no span").
    pub id: u32,
    /// The enclosing span, 0 at the root.
    pub parent: u32,
    /// The unit the span belongs to, 0 outside any unit.
    pub unit: u32,
    /// Layer: a crate name, or `bench` for the benchmark itself.
    pub layer: &'static str,
    /// The function or step timed.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Small per-run thread number, for the timeline view.
    pub thread: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans and work counters for one run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<Vec<(u32, &'static str, f64)>>,
}

thread_local! {
    static THREAD: u32 = {
        static NEXT: AtomicU32 = AtomicU32::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Tracer {
    /// A tracer; when `enabled` is false it records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(Vec::new()),
        }
    }

    /// The context at the root of the span tree.
    pub fn root(&self) -> SpanCtx<'_> {
        SpanCtx {
            tracer: self,
            span: 0,
            unit: 0,
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in order of completion.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }

    /// Work counters attached to spans: `(span id, counter, amount)`.
    pub fn counters(&self) -> Vec<(u32, &'static str, f64)> {
        self.counters
            .lock()
            .expect("a span recorder panicked")
            .clone()
    }
}

/// Where new spans attach: the tracer, the enclosing span and the unit.
#[derive(Clone, Copy)]
pub struct SpanCtx<'a> {
    tracer: &'a Tracer,
    span: u32,
    unit: u32,
}

impl<'a> SpanCtx<'a> {
    /// Runs `f` inside a new span of `layer`/`name`; `f` receives the
    /// context of that span for nesting further spans.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(SpanCtx<'a>) -> R,
    ) -> R {
        self.enter(self.unit, layer, name, f)
    }

    /// Runs `f` as unit `unit` (ids start at 1): the new span and all
    /// spans below it carry that id.
    pub fn unit<R>(&self, unit: u32, f: impl FnOnce(SpanCtx<'a>) -> R) -> R {
        self.enter(unit, "bench", "unit", f)
    }

    fn enter<R>(
        &self,
        unit: u32,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(SpanCtx<'a>) -> R,
    ) -> R {
        let tracer = self.tracer;
        if !tracer.enabled {
            return f(*self);
        }
        let id = tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = tracer.now_ns();
        let result = f(SpanCtx {
            tracer,
            span: id,
            unit,
        });
        let end_ns = tracer.now_ns();
        let span = Span {
            id,
            parent: self.span,
            unit,
            layer,
            name,
            start_ns,
            end_ns,
            thread: THREAD.with(|t| *t),
        };
        tracer
            .spans
            .lock()
            .expect("a span recorder panicked")
            .push(span);
        result
    }

    /// Attaches `amount` of work named `counter` (instructions,
    /// simulated cycles, MACs, …) to the current span, so rates are
    /// taken over the time of exactly the spans that did the work.
    pub fn count(&self, counter: &'static str, amount: f64) {
        if self.tracer.enabled {
            self.tracer
                .counters
                .lock()
                .expect("a span recorder panicked")
                .push((self.span, counter, amount));
        }
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cursor) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, seconds, keyed by span id: its duration
/// minus the part of it that its child spans cover (children running
/// in parallel on other threads are counted once).
pub fn self_seconds(spans: &[Span]) -> BTreeMap<u32, f64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, (s.end_ns - s.start_ns - covered) as f64 * 1e-9)
        })
        .collect()
}

/// The spans as a Chrome-trace (Perfetto-readable) document.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("{\"name\":");
        write_string(&mut out, s.name);
        out.push_str(",\"cat\":");
        write_string(&mut out, s.layer);
        write!(
            out,
            ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"unit\":{}}}}}",
            s.thread,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            unit: 1,
            layer: "x",
            name: "x",
            start_ns,
            end_ns,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // 1 [0, 100) has children 2 [10, 40) and 3 [30, 60) overlapping
        // (parallel), so 50 ns are covered; 2 has child 4 [15, 25).
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 2, 15, 25),
        ];
        let own = self_seconds(&spans);
        let ns = |id: u32| (own[&id] * 1e9).round() as u64;
        assert_eq!(ns(1), 50);
        assert_eq!(ns(2), 20);
        assert_eq!(ns(3), 30);
        assert_eq!(ns(4), 10);
        // Self times partition the root's wall time when nothing overlaps.
        let seq = [span(1, 0, 0, 100), span(2, 1, 0, 30), span(3, 1, 30, 90)];
        let total: f64 = self_seconds(&seq).values().sum();
        assert!((total - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [span(1, 0, 50, 100), span(2, 1, 0, 70), span(3, 1, 90, 200)];
        assert_eq!((self_seconds(&spans)[&1] * 1e9).round() as u64, 20);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_work() {
        let t = Tracer::new(false);
        let out = t.root().span("sim", "run", |ctx| {
            ctx.count("cycles", 5.0);
            ctx.span("sim", "inner", |_| 7)
        });
        assert_eq!(out, 7);
        assert!(t.spans().is_empty() && t.counters().is_empty());
    }

    #[test]
    fn nested_spans_link_parents_units_and_counters() {
        let t = Tracer::new(true);
        t.root().span("bench", "pass", |pass| {
            pass.unit(3, |unit| {
                unit.span("net", "round", |ctx| ctx.count("cycles", 2.0))
            });
        });
        let spans = t.spans();
        let by_name = |n: &str| {
            spans
                .iter()
                .find(|s| s.name == n)
                .expect("span recorded")
                .clone()
        };
        let (pass, unit, round) = (by_name("pass"), by_name("unit"), by_name("round"));
        assert_eq!(
            (pass.parent, unit.parent, round.parent),
            (0, pass.id, unit.id)
        );
        assert_eq!((pass.unit, unit.unit, round.unit), (0, 3, 3));
        assert_eq!(t.counters(), vec![(round.id, "cycles", 2.0)]);
        assert!(pass.start_ns <= unit.start_ns && unit.end_ns <= pass.end_ns);
        let chrome = crate::json::parse(&chrome_trace(&spans)).expect("valid JSON");
        assert_eq!(
            chrome
                .get("traceEvents")
                .and_then(|e| e.as_array())
                .map(<[_]>::len),
            Some(3)
        );
    }
}
