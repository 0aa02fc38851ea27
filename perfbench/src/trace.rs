//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions, and the self-time arithmetic that turns
//! them into per-layer shares.  Spans are written out once, at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

use crate::health::process_cpu_s;

/// One timed call: `[start, end)` in ns since the tracer's epoch, the
/// span that caused it, and the request (or op) it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Time `f` as a span with no children of its own.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Write every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start,
                s.end,
                s.req
            );
        }
        out.push_str("\n]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Make the subtree rooted at `child` a child of `parent`, shifted so it
/// starts where `parent` starts.  A request replayed at three depths
/// (HTTP, in-process service, private engine) becomes one tree this
/// way; a replay that ran longer than the span it is grafted under
/// overhangs it, and the overhang shows up as shares summing above 1.
pub fn graft(spans: &mut [Span], child: usize, parent: usize) {
    let shift = spans[parent].start as i64 - spans[child].start as i64;
    let mut inside = vec![false; spans.len()];
    inside[child] = true;
    for i in child + 1..spans.len() {
        inside[i] = spans[i].parent.is_some_and(|p| inside[p]);
    }
    for (span, _) in spans.iter_mut().zip(&inside).filter(|(_, &i)| i) {
        span.start = (span.start as i64 + shift) as u64;
        span.end = (span.end as i64 + shift) as u64;
    }
    spans[child].parent = Some(parent);
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut cover: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            cover.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Summed duration of the root spans: the request or op total every
/// layer share is a share of.
pub fn root_total(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur)
        .sum()
}

/// Self time of each span name as a share of the root total.  When every
/// child lies inside its parent the shares sum to exactly 1.
pub fn shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let total = root_total(spans).max(1) as f64;
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += own as f64 / total;
    }
    out
}

/// Where an op's calls record their spans: under `root` of a tracer in
/// the traced run, nowhere in a timed run.
pub struct Scope<'a> {
    tracer: Option<&'a mut Tracer>,
    /// When set, each call's on-CPU milliseconds are appended here.
    call_ms: Option<&'a mut Vec<f64>>,
    root: usize,
    req: u64,
}

impl<'a> Scope<'a> {
    pub fn off() -> Scope<'static> {
        Scope {
            tracer: None,
            call_ms: None,
            root: 0,
            req: 0,
        }
    }

    pub fn under(tracer: &'a mut Tracer, root: usize, req: u64) -> Scope<'a> {
        Scope {
            tracer: Some(tracer),
            call_ms: None,
            root,
            req,
        }
    }

    /// No spans; the process's on-CPU time of every call goes to `call_ms`.
    pub fn timing(call_ms: &'a mut Vec<f64>) -> Scope<'a> {
        Scope {
            tracer: None,
            call_ms: Some(call_ms),
            root: 0,
            req: 0,
        }
    }

    /// Run `f`, as a span named `name` when tracing.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if let Some(call_ms) = self.call_ms.as_deref_mut() {
            let cpu = process_cpu_s();
            let out = f();
            call_ms.push((process_cpu_s() - cpu) * 1e3);
            return out;
        }
        match self.tracer.as_deref_mut() {
            Some(t) => t.leaf(name, Some(self.root), self.req, f),
            None => f(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),  // overlaps a: union is 10..50
            span("c", 90, 120, Some(0)), // overhangs the root: clipped
            span("a.leaf", 15, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 25, 20, 30, 5]);
    }

    #[test]
    fn shares_of_a_nested_tree_sum_to_one() {
        let spans = vec![
            span("req", 0, 1_000, None),
            span("parse", 0, 100, Some(0)),
            span("run", 100, 900, Some(0)),
            span("kernel", 200, 700, Some(2)),
            span("req", 2_000, 2_500, None),
            span("run", 2_100, 2_400, Some(4)),
        ];
        let s = shares(&spans);
        let sum: f64 = s.values().sum();
        assert!((sum - 1.0).abs() < 1e-12, "{s:?}");
        assert!((s["kernel"] - 500.0 / 1_500.0).abs() < 1e-12);
        assert!((s["req"] - 300.0 / 1_500.0).abs() < 1e-12);
    }

    #[test]
    fn graft_nests_a_replay_and_an_overhang_shows_in_the_sum() {
        let mut spans = vec![
            span("http", 0, 100, None),
            span("inproc", 500, 560, None),
            span("wait", 510, 560, Some(1)),
            span("engine", 900, 940, None),
        ];
        graft(&mut spans, 1, 0);
        graft(&mut spans, 3, 2);
        assert_eq!((spans[1].start, spans[1].end), (0, 60));
        assert_eq!((spans[2].start, spans[2].end), (10, 60));
        assert_eq!((spans[3].start, spans[3].end), (10, 50));
        let sum: f64 = shares(&spans).values().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // An engine replay slower than the wait it is grafted under.
        spans[3].end = spans[3].start + 80;
        let sum: f64 = shares(&spans).values().sum();
        assert!(sum > 1.0);
    }
}
