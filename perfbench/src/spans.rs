//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (the program itself carries no spans). Each
//! span has a name, start and end (nanoseconds from the tracer's
//! origin), its parent, and the id of the iteration it belongs to. The
//! spans stay in memory and are written out once, when the run ends.

use crate::stats;
use smash_support::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `core.dimensions.client.build`.
    pub name: String,
    /// Index of the enclosing span in the tracer, if any.
    pub parent: Option<usize>,
    /// Iteration the span belongs to.
    pub iteration: u64,
    /// Start, in nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds from the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder with an open-span stack.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: stats::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// Tags every span started from now on with `iteration`.
    pub fn set_iteration(&mut self, iteration: u64) {
        self.iteration = iteration;
    }

    fn clock_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span. Returns `f`'s result and the span's index.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, usize) {
        let id = self.spans.len();
        let start_ns = self.clock_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            iteration: self.iteration,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.clock_ns();
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = end_ns;
        }
        (out, id)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` in milliseconds.
    pub fn ms(&self, id: usize) -> f64 {
        self.spans
            .get(id)
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e6)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// The I/O error of the write.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let own = self_times_ns(&self.spans);
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::UInt(p as u64));
            let doc = Json::Obj(vec![
                ("id".to_owned(), Json::UInt(i as u64)),
                ("name".to_owned(), Json::Str(s.name.clone())),
                ("parent".to_owned(), parent),
                ("iteration".to_owned(), Json::UInt(s.iteration)),
                ("start_ns".to_owned(), Json::UInt(s.start_ns)),
                ("end_ns".to_owned(), Json::UInt(s.end_ns)),
                (
                    "self_ns".to_owned(),
                    Json::UInt(own.get(i).copied().unwrap_or(0)),
                ),
            ]);
            out.push_str(&json::to_string(&doc));
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Mean cost of recording one empty span, in nanoseconds: the
/// tracer's own overhead per span.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 10_000;
    let mut tr = Tracer::new();
    let t = stats::now();
    for _ in 0..N {
        tr.span("empty", |_| ());
    }
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Number of spans below `root`.
pub fn descendants(spans: &[Span], root: usize) -> usize {
    spans
        .iter()
        .filter(|s| {
            let mut up = s.parent;
            while let Some(p) = up {
                if p == root {
                    return true;
                }
                up = spans.get(p).and_then(|x| x.parent);
            }
            false
        })
        .count()
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut kids = children.remove(&i).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.clamp(reach, s.end_ns);
                let b = b.clamp(a, s.end_ns);
                covered += b - a;
                reach = reach.max(b);
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Sum of the self times of every span below `root` (its descendants),
/// in nanoseconds.
pub fn descendant_self_ns(spans: &[Span], root: usize) -> u64 {
    let own = self_times_ns(spans);
    let mut total = 0u64;
    for (i, s) in spans.iter().enumerate() {
        let mut up = s.parent;
        while let Some(p) = up {
            if p == root {
                total += own.get(i).copied().unwrap_or(0);
                break;
            }
            up = spans.get(p).and_then(|x| x.parent);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_owned(),
            parent,
            iteration: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("iteration", None, 0, 100),
            span("decode", Some(0), 10, 40),
            span("mine", Some(0), 50, 90),
            span("mine.client", Some(2), 55, 70),
            span("mine.uri", Some(2), 70, 85),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 10, 15, 15]);
        // Sequential layers: descendant self times plus the root's own
        // add up to the root's wall exactly.
        assert_eq!(descendant_self_ns(&spans, 0), 30 + 10 + 15 + 15);
        assert_eq!(descendant_self_ns(&spans, 0) + 30, 100);
        assert_eq!(descendant_self_ns(&spans, 2), 30);
        assert_eq!(descendants(&spans, 0), 4);
        assert_eq!(descendants(&spans, 2), 2);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span("mine", None, 50, 90),
            span("a", Some(0), 72, 85),
            span("b", Some(0), 80, 88),
        ];
        // The union 72..88 covers 16 of the parent's 40.
        assert_eq!(self_times_ns(&spans), vec![24, 13, 8]);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = vec![span("p", None, 10, 20), span("c", Some(0), 5, 15)];
        assert_eq!(self_times_ns(&spans), vec![5, 10]);
    }

    #[test]
    fn tracer_nests_spans_and_tags_iterations() {
        let mut tr = Tracer::new();
        tr.set_iteration(7);
        let ((), root) = tr.span("root", |tr| {
            tr.span("child", |tr| {
                tr.span("grandchild", |_| ());
            });
        });
        let s = tr.spans();
        assert_eq!(root, 0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(1).and_then(|x| x.parent), Some(0));
        assert_eq!(s.get(2).and_then(|x| x.parent), Some(1));
        assert!(s.iter().all(|x| x.iteration == 7));
        let own: u64 = self_times_ns(s).iter().sum();
        assert_eq!(own, s.first().map_or(0, Span::duration_ns));
    }
}
