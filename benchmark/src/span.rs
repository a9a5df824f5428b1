//! The harness's own spans. Nothing in the crates under test is
//! instrumented: a span is recorded here, around a call into a public
//! function. Spans stay in memory during the run and are written out as
//! JSON lines at the end.

use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer entry point, e.g. `core.env.step_lazy`.
    pub name: &'static str,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<u32>,
    /// Episode the call belongs to; spans of one episode share it.
    pub episode: u32,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty log with room for `capacity` spans, so that recording does
    /// not reallocate inside a timed call.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, episode: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            episode,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes a span, returning its duration in nanoseconds.
    pub fn end(&mut self, id: u32) -> u64 {
        let now = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children that overlap each other are counted
/// once, and a child is clipped to its parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (start, end) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if start < end {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// All spans of one name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameTotal {
    /// Span name.
    pub name: &'static str,
    /// Spans of that name.
    pub calls: u64,
    /// Their durations, summed.
    pub total_ns: u64,
    /// Their self times, summed.
    pub self_ns: u64,
}

/// Totals per span name, in first-seen order.
pub fn totals_by_name(spans: &[Span]) -> Vec<NameTotal> {
    let selfs = self_times(spans);
    let mut out: Vec<NameTotal> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let dur = s.end_ns - s.start_ns;
        match out.iter_mut().find(|row| row.name == s.name) {
            Some(row) => {
                row.calls += 1;
                row.total_ns += dur;
                row.self_ns += self_ns;
            }
            None => out.push(NameTotal {
                name: s.name,
                calls: 1,
                total_ns: dur,
                self_ns,
            }),
        }
    }
    out
}

/// Writes one JSON object per span.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"episode\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.episode, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            parent,
            episode: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_times(&[span(None, 10, 110)]), vec![100]);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children cover [10,60) and [40,80): the union is 70 long.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(0), 40, 80),
            span(Some(0), 20, 30),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child recorded on another thread may start before or end after
        // its parent; only the part inside the parent counts.
        let spans = [
            span(None, 100, 200),
            span(Some(0), 50, 120),
            span(Some(0), 190, 400),
            span(Some(0), 500, 600),
        ];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 90),
            span(Some(1), 20, 50),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 30]);
    }

    #[test]
    fn recorder_nests_spans_and_totals_them_by_name() {
        let mut r = Recorder::with_capacity(4);
        let root = r.begin("root", None, 1);
        let leaf = r.begin("leaf", Some(root), 1);
        assert!(r.end(leaf) <= r.end(root));
        let again = r.begin("leaf", None, 2);
        r.end(again);
        let spans = r.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let totals = totals_by_name(spans);
        assert_eq!(
            totals.iter().map(|t| (t.name, t.calls)).collect::<Vec<_>>(),
            vec![("root", 1), ("leaf", 2)]
        );
        assert_eq!(
            totals[0].self_ns,
            totals[0].total_ns - (spans[1].end_ns - spans[1].start_ns)
        );
    }
}
