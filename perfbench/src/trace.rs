//! In-memory spans recorded around the calls the benchmark makes into each
//! layer, and the self-time table derived from them.
//!
//! Spans live in memory while the run measures and are written out once it
//! ends, so recording costs one clock read and one `Vec` push per boundary.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval, in nanoseconds since the trace's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Campaign or request id; every span of one operation shares it.
    pub op: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

/// Total, count and self time of every span with one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span recorder for one thread.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock counts from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = self.now();
        self.record(name, op, parent, now, now)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        let now = self.now();
        self.spans[id].end = now;
    }

    /// Records a span with explicit bounds.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end: end.max(start),
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that the union of its children's intervals covers.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| (s.end - s.start) - covered(s.start, s.end, kids))
            .collect()
    }

    /// Count, total duration and self time per span name.
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end - s.start;
            t.self_ns += self_ns;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: impl Write) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(out);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","op":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.op, s.start, s.end
            )?;
        }
        out.flush()
    }

    /// The self-time table, one line per span name, largest self time first.
    pub fn table(&self) -> String {
        let totals = self.totals_by_name();
        let all_self: u64 = totals.values().map(|t| t.self_ns).sum();
        let mut rows: Vec<_> = totals.into_iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let mut s = format!(
            "{:<24} {:>8} {:>12} {:>12} {:>7}\n",
            "span", "count", "total_ms", "self_ms", "self_%"
        );
        for (name, t) in rows {
            s.push_str(&format!(
                "{:<24} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / all_self.max(1) as f64
            ));
        }
        s
    }
}

/// Length of `[lo, hi)` covered by the union of `intervals` (each clipped to
/// `[lo, hi)`); sorts `intervals` in place.
pub fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        let b = b.min(hi);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        Trace::new(Instant::now())
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = trace();
        let root = t.record("root", 1, None, 0, 100);
        // Overlapping children [10, 40) and [30, 50) cover 40, a disjoint
        // one [60, 70) covers 10, and one sticking out past the parent's
        // end counts only up to it.
        t.record("a", 1, Some(root), 10, 40);
        t.record("b", 1, Some(root), 30, 50);
        t.record("c", 1, Some(root), 60, 70);
        let d = t.record("d", 1, Some(root), 95, 120);
        t.record("e", 1, Some(d), 100, 105);
        let selfs = t.self_times();
        assert_eq!(selfs[root], 100 - 40 - 10 - 5);
        assert_eq!(selfs[d], 25 - 5);
        assert_eq!(selfs[1], 30);
        assert_eq!(selfs[5], 5);
    }

    #[test]
    fn nested_and_contained_children_are_not_double_counted() {
        let mut t = trace();
        let root = t.record("root", 7, None, 0, 50);
        t.record("outer", 7, Some(root), 0, 50);
        t.record("inner", 7, Some(root), 10, 20);
        assert_eq!(t.self_times()[root], 0);
        let by_name = t.totals_by_name();
        assert_eq!(by_name["root"].total_ns, 50);
        assert_eq!(by_name["outer"].self_ns, 50);
    }

    #[test]
    fn open_close_measure_forward() {
        let mut t = trace();
        let id = t.open("s", 0, None);
        t.close(id);
        assert!(t.spans()[id].end >= t.spans()[id].start);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let line = String::from_utf8(buf).unwrap();
        assert!(line.starts_with(r#"{"id":0,"name":"s","op":0,"parent":null,"#));
    }
}
