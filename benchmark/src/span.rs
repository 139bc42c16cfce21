//! In-memory spans for the traced run, written out as Chrome trace events
//! when the run ends. Spans are recorded by the benchmark around its calls
//! into each layer — nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    /// The span that caused this one; `None` for a run/session root.
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Append-only span store sharing one clock origin.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// An instant on this store's clock (0 for instants before it began).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.push(name, parent, now, now)
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records an already-measured interval.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (`ph: X`, microsecond timestamps); the root
    /// of each span tree becomes the `tid` so runs and sessions get a row
    /// each in the viewer. Self times by name ride along as metadata.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                self.root_of(s.id),
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id,
                parent
            ));
        }
        out.push_str("\n],\n\"otherData\":{\"workload\":\"");
        out.push_str(workload);
        out.push_str("\",\"selfTimeNs\":{");
        for (i, (name, ns)) in self_time_by_name(&self.spans).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{ns}"));
        }
        out.push_str("}}}\n");
        out
    }

    fn root_of(&self, mut id: SpanId) -> SpanId {
        while let Some(p) = self.spans[id as usize].parent {
            id = p;
        }
        id
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (children clipped to the parent, overlaps counted
/// once).
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut cuts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    cuts.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (s, e) in cuts {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.end_ns - span.start_ns).saturating_sub(covered)
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut kids: BTreeMap<SpanId, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            kids.entry(p).or_default().push(s);
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = self_time_ns(s, kids.get(&s.id).map_or(&[][..], Vec::as_slice));
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let root = span(0, None, "run", 0, 100);
        let a = span(1, Some(0), "a", 10, 40);
        let b = span(2, Some(0), "b", 30, 60); // overlaps a by 10
        let c = span(3, Some(0), "c", 90, 130); // sticks out past the parent
        assert_eq!(self_time_ns(&root, &[&a, &b, &c]), 100 - 50 - 10);
        assert_eq!(self_time_ns(&root, &[]), 100);
        // A child covering everything leaves nothing.
        let all = span(4, Some(0), "all", 0, 100);
        assert_eq!(self_time_ns(&root, &[&all, &a]), 0);
    }

    #[test]
    fn self_time_by_name_sums_and_nests() {
        let spans = vec![
            span(0, None, "session", 0, 1000),
            span(1, Some(0), "request", 100, 400),
            span(2, Some(1), "round_trip", 150, 350),
            span(3, Some(0), "request", 500, 900),
            span(4, Some(3), "round_trip", 500, 800),
        ];
        let t = self_time_by_name(&spans);
        assert_eq!(t["session"], 1000 - 300 - 400);
        assert_eq!(t["request"], (300 - 200) + (400 - 300));
        assert_eq!(t["round_trip"], 200 + 300);
    }

    #[test]
    fn chrome_json_carries_ids_parents_and_roots() {
        let mut s = Spans::new();
        let root = s.push("run", None, 0, 5_000);
        s.push("pass", Some(root), 1_000, 2_000);
        let text = s.chrome_json("w");
        assert!(text.contains("\"name\":\"pass\""));
        assert!(text.contains("\"args\":{\"id\":1,\"parent\":0}"));
        assert!(text.contains("\"selfTimeNs\":{\"pass\":1000,\"run\":4000}"));
    }
}
