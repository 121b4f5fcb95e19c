//! Self times from the span trees the tracer keeps in memory.

use mamdr_obs::SpanRecord;
use std::collections::HashMap;

/// Per-name totals of span duration and self time (duration minus the
/// union of the intervals its direct children cover), in seconds.
pub fn self_times(spans: &[SpanRecord]) -> HashMap<&'static str, (f64, f64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent_id != 0 {
            children.entry(s.parent_id).or_default().push((s.start_ns, s.start_ns + s.dur_ns));
        }
    }
    let mut out: HashMap<&'static str, (f64, f64)> = HashMap::new();
    for s in spans {
        let (start, end) = (s.start_ns, s.start_ns + s.dur_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.span_id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(start), b.min(end));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let e = out.entry(s.name).or_insert((0.0, 0.0));
        e.0 += s.dur_ns as f64 / 1e9;
        e.1 += (s.dur_ns - covered.min(s.dur_ns)) as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            name,
            trace_id: 1,
            span_id: id,
            parent_id: parent,
            start_ns: start,
            dur_ns: dur,
            thread: 1,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 1, 0, 0, 100),
            span("a", 2, 1, 10, 30),
            span("b", 3, 1, 20, 30),
            span("c", 4, 1, 90, 50),
        ];
        let t = self_times(&spans);
        // Children cover [10, 50) and [90, 100): 50 ns of 100.
        assert!((t["root"].1 - 50e-9).abs() < 1e-15);
        assert!((t["a"].1 - 30e-9).abs() < 1e-15);
    }
}
