//! In-memory spans around the benchmark's calls into each layer.
//!
//! The crates carry no spans of their own; every span here is recorded from
//! outside, around a public entry point. Spans stay in memory during the run
//! and are written to `benchmark/out/<workload>.trace.json` at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. `name` is `layer.fn`; `parent` 0 means a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub pass: u32,
}

/// Span recorder. Disabled (the untraced run, and the untraced half of the
/// overhead comparison) every call is a load and a branch.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Run `f` inside a span; `f` receives the span's id to parent its own
    /// children on (0 when disabled).
    pub fn span<R>(
        &self,
        parent: u32,
        name: &'static str,
        pass: u32,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        if !self.enabled() {
            return f(0);
        }
        let id = self.open(parent, name, pass);
        let out = f(id);
        self.close(id);
        out
    }

    /// Record an interval whose ends were observed elsewhere (the client-side
    /// timestamps of a streamed reply).
    pub fn record(&self, parent: u32, name: &'static str, pass: u32, start: Instant, end: Instant) {
        if !self.enabled() {
            return;
        }
        let id = self.open(parent, name, pass);
        let mut spans = self.spans.lock().expect("span store poisoned");
        let s = &mut spans[id as usize - 1];
        s.start_ns = self.ns(start);
        s.end_ns = self.ns(end).max(s.start_ns);
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn open(&self, parent: u32, name: &'static str, pass: u32) -> u32 {
        let mut spans = self.spans.lock().expect("span store poisoned");
        let id = spans.len() as u32 + 1;
        let now = self.ns(Instant::now());
        spans.push(Span {
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
            pass,
        });
        id
    }

    fn close(&self, id: u32) {
        let now = self.ns(Instant::now());
        self.spans.lock().expect("span store poisoned")[id as usize - 1].end_ns = now;
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Self time of every span, indexed like `spans`: its duration minus the part
/// of its interval that its children cover (overlapping children — two
/// clients in flight — count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per span name: (count, total ns, self ns), sorted by name so a layer's
/// functions sit together.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    out
}

/// The trace file body: one JSON object per span, fields as the benchmark's
/// README documents them.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"workload\":\"");
    out.push_str(workload);
    out.push_str("\",\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"layer.fn\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"workload\":\"{}\",\"pass\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, workload, s.pass
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
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
            name: "t.f",
            start_ns,
            end_ns,
            pass: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root 0..100; children 10..30 and 20..50 overlap (union 40), a third
        // 60..70 stands alone, a fourth pokes 10 ns past the root's end and is
        // clipped; the grandchild only reduces its own parent.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            span(4, 1, 60, 70),
            span(5, 1, 95, 110),
            span(6, 2, 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![45, 14, 30, 10, 15, 6]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_nests() {
        let t = Tracer::new(false);
        assert_eq!(t.span(0, "a.b", 0, |id| id), 0);
        assert!(t.snapshot().is_empty());
        t.set_enabled(true);
        let inner = t.span(0, "a.b", 3, |outer| {
            t.span(outer, "c.d", 3, |id| (outer, id))
        });
        assert_eq!(inner, (1, 2));
        let spans = t.snapshot();
        assert_eq!(spans[1].parent, 1);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let by_name = totals_by_name(&spans);
        assert_eq!(by_name["a.b"].0, 1);
        assert_eq!(by_name["a.b"].1 - by_name["c.d"].1, by_name["a.b"].2);
        assert!(to_json("w", &spans).contains("\"layer.fn\":\"c.d\""));
    }
}
