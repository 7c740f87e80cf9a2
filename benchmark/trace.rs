//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! They stay in memory until the run ends.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `replay.span`.
    pub name: &'static str,
    /// The session (pipeline seed) the call served.
    pub session: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Small per-process id of the thread that made the call.
    pub thread: u32,
}

impl Span {
    /// Wall time of the call.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

fn thread_tag() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static TAG: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    TAG.with(|t| *t)
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// span's duration in ms. `f` receives the span's index, to pass as the
    /// parent of nested spans.
    pub fn time<T>(
        &self,
        name: &'static str,
        session: u64,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> (T, f64) {
        let start_ns = self.now_ns();
        let index = {
            let mut spans = self.spans.lock().expect("tracer lock");
            spans.push(Span { name, session, start_ns, end_ns: start_ns, parent, thread: thread_tag() });
            spans.len() - 1
        };
        let out = f(index);
        let end_ns = self.now_ns();
        self.spans.lock().expect("tracer lock")[index].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e6)
    }

    /// Every span recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("tracer lock")
    }
}

/// Self time of `spans[index]`: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval. Children
/// that overlap (pool workers) are counted once.
pub fn self_ns(spans: &[Span], index: usize) -> u64 {
    let parent = &spans[index];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = parent.start_ns;
    for (a, b) in children {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    parent.duration_ns() - covered
}

/// The spans as a JSON array, each with its self time.
pub fn spans_json(spans: &[Span]) -> serde_json::Value {
    use serde_json::Value;
    let items = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Value::Object(vec![
                ("name".into(), Value::String(s.name.into())),
                ("session".into(), Value::U64(s.session)),
                ("start_ns".into(), Value::U64(s.start_ns)),
                ("end_ns".into(), Value::U64(s.end_ns)),
                ("self_ns".into(), Value::U64(self_ns(spans, i))),
                ("parent".into(), s.parent.map_or(Value::Null, |p| Value::U64(p as u64))),
                ("thread".into(), Value::U64(u64::from(s.thread))),
            ])
        })
        .collect();
    Value::Array(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "t", session: 0, start_ns, end_ns, parent, thread: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) with children [10,30) and [50,60); the grandchild
        // [12,20) is inside a child and must not be subtracted again.
        let spans =
            vec![span(0, 100, None), span(10, 30, Some(0)), span(50, 60, Some(0)), span(12, 20, Some(1))];
        assert_eq!(self_ns(&spans, 0), 70);
        assert_eq!(self_ns(&spans, 1), 12);
        assert_eq!(self_ns(&spans, 3), 8);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two pool workers [10,60) and [40,90) overlap on [40,60); a child
        // reaching past its parent is clipped to [95,100).
        let spans =
            vec![span(0, 100, None), span(10, 60, Some(0)), span(40, 90, Some(0)), span(95, 120, Some(0))];
        assert_eq!(self_ns(&spans, 0), 100 - 80 - 5);
    }

    #[test]
    fn self_time_with_no_children_is_the_duration() {
        let spans = vec![span(5, 25, None)];
        assert_eq!(self_ns(&spans, 0), 20);
    }

    #[test]
    fn tracer_links_parents_across_threads() {
        let tr = Tracer::new();
        let ((), _) = tr.time("root", 7, None, |root| {
            std::thread::scope(|s| {
                s.spawn(|| tr.time("child", 7, Some(root), |_| ()));
            });
        });
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_ne!(spans[0].thread, spans[1].thread);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
