//! The traced pass's span tree: name, start, end, parent and item count,
//! kept in memory and written out once at exit.

use crate::host;
use crate::json::Value;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the trace began.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// How many items (frames, pairs, events…) the interval processed.
    pub items: u64,
}

/// Span handle returned by [`Trace::enter`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// An in-memory recorder. A span's parent is whichever span was open when
/// it was entered, so the tree follows the call structure.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: host::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn elapsed_ns(&self) -> u64 {
        (host::secs_since(self.origin) * 1e9) as u64
    }

    pub fn enter(&mut self, name: &str) -> SpanId {
        let start_ns = self.elapsed_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            items: 0,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span, and returns its
    /// duration in nanoseconds.
    pub fn exit(&mut self, id: SpanId, items: u64) -> f64 {
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        let end_ns = self.elapsed_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        span.items = items;
        (span.end_ns - span.start_ns) as f64
    }

    /// Runs `f` inside a span named `name`; `f` returns its result and the
    /// item count. Returns the result and the span's nanoseconds.
    pub fn measure<R>(&mut self, name: &str, f: impl FnOnce() -> (R, u64)) -> (R, f64) {
        let id = self.enter(name);
        let (result, items) = f();
        let ns = self.exit(id, items);
        (result, ns)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the part of its interval its
    /// direct children cover. Children are clipped to the parent and
    /// overlapping children are counted once.
    pub fn self_ns(&self, id: usize) -> u64 {
        self_ns(&self.spans, id)
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::obj(vec![
                        ("id", Value::Num(id as f64)),
                        ("name", Value::str(&s.name)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        ("self_ns", Value::Num(self.self_ns(id) as f64)),
                        ("items", Value::Num(s.items as f64)),
                    ])
                })
                .collect(),
        )
    }
}

fn self_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (me.end_ns - me.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s".into(),
            parent,
            start_ns,
            end_ns,
            items: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_intervals() {
        let spans = vec![
            span(None, 0, 100),     // 0: root
            span(Some(0), 10, 30),  // 1: child
            span(Some(0), 20, 50),  // 2: overlaps child 1 by 10
            span(Some(0), 70, 80),  // 3: disjoint
            span(Some(2), 25, 45),  // 4: grandchild — not the root's business
            span(Some(0), 90, 120), // 5: runs past the parent, clipped to 100
            span(Some(0), 40, 40),  // 6: empty
        ];
        // Covered: [10,50) = 40, [70,80) = 10, [90,100) = 10.
        assert_eq!(self_ns(&spans, 0), 100 - 60);
        assert_eq!(self_ns(&spans, 2), 30 - 20);
        assert_eq!(self_ns(&spans, 1), 20, "a leaf's self time is its duration");
        // A child nested inside an earlier sibling adds nothing.
        let nested = vec![span(None, 0, 10), span(Some(0), 1, 9), span(Some(0), 2, 3)];
        assert_eq!(self_ns(&nested, 0), 2);
    }

    #[test]
    fn recorder_links_parents_by_nesting_and_keeps_item_counts() {
        let mut t = Trace::new();
        let root = t.enter("root");
        let ((), inner_ns) = t.measure("inner", || ((), 7));
        let leaf = t.enter("leaf");
        t.exit(leaf, 3);
        let root_ns = t.exit(root, 1);
        assert!(root_ns >= inner_ns);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert_eq!((s[0].items, s[1].items, s[2].items), (1, 7, 3));
        assert!(s[1].start_ns >= s[0].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(t.self_ns(0) <= s[0].end_ns - s[0].start_ns);
        let json = t.to_json();
        assert_eq!(json.as_arr().unwrap().len(), 3);
        assert_eq!(
            json.as_arr().unwrap()[1].get("name").unwrap().as_str(),
            Some("inner")
        );
    }
}
