//! In-memory spans for the traced run.
//!
//! A span records a name, start and end (nanoseconds since the tracer
//! was created), its parent span and the op it belongs to. Spans stay in
//! memory and are only summarised when the run ends. A layer's *self
//! time* is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `minic` or `alias.pt.query`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start: u64,
    /// End, in ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

/// Collects spans for one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans begun from now on with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.now();
        self.push(name, now, now)
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already-measured interval as a closed child of `parent`
    /// (used for phases the program times itself).
    pub fn record(&mut self, name: &'static str, start: u64, end: u64, parent: usize) -> usize {
        let id = self.spans.len();
        self.spans.push(Span { name, start, end, parent: Some(parent), op: self.op });
        id
    }

    /// The index the next span will get.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Moves every span from `mark` on to start `delta` ns earlier, and
    /// re-parents the top-level ones among them under `parent`. A replay
    /// timed after its round trip is grafted into the round trip's span
    /// this way, so the round trip's self time is the part no replayed
    /// layer accounts for.
    pub fn graft(&mut self, mark: usize, delta: u64, parent: usize) {
        for s in &mut self.spans[mark..] {
            s.start = s.start.saturating_sub(delta);
            s.end = s.end.saturating_sub(delta);
            if s.parent.is_none_or(|p| p < mark) {
                s.parent = Some(parent);
            }
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| (s.end - s.start) - covered(s.start, s.end, kids))
            .collect()
    }

    /// Total self time per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    fn push(&mut self, name: &'static str, start: u64, end: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start, end, parent, op: self.op });
        self.open.push(id);
        id
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, op: 0 }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer { spans, ..Tracer::default() }
    }

    #[test]
    fn self_time_subtracts_children_at_every_level() {
        // op [0,100): minic [10,30), engine [30,90) with summaries [30,40)
        // and solve [70,90); engine's own time is 60 - 10 - 20 = 30.
        let t = tracer(vec![
            closed("op", 0, 100, None),
            closed("minic", 10, 30, Some(0)),
            closed("engine", 30, 90, Some(0)),
            closed("summaries", 30, 40, Some(2)),
            closed("solve", 70, 90, Some(2)),
        ]);
        assert_eq!(t.self_times(), vec![20, 20, 30, 10, 20]);
        let by_name = t.self_time_by_name();
        assert_eq!(by_name["engine"], 30);
        assert_eq!(by_name.values().sum::<u64>(), 100, "self times partition the root");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let t = tracer(vec![
            closed("op", 0, 50, None),
            closed("a", 0, 30, Some(0)),
            closed("b", 20, 40, Some(0)),
            closed("c", 45, 80, Some(0)), // runs past its parent's end
        ]);
        assert_eq!(t.self_times()[0], 50 - 40 - 5);
    }

    #[test]
    fn graft_moves_a_replay_inside_its_round_trip() {
        let mut t = tracer(vec![closed("serve.upload", 0, 100, None)]);
        let mark = t.mark();
        // A replay measured after the round trip, at [200, 260).
        t.spans.push(closed("replay", 200, 260, None));
        t.spans.push(closed("minic", 200, 220, Some(1)));
        t.graft(mark, 200, 0);
        assert_eq!(t.spans()[1], closed("replay", 0, 60, Some(0)));
        assert_eq!(t.spans()[2], closed("minic", 0, 20, Some(1)));
        assert_eq!(t.self_times(), vec![40, 40, 20]);
    }

    #[test]
    fn begin_end_nest_and_record_phases() {
        let mut t = Tracer::default();
        t.set_op(7);
        let root = t.begin("op");
        let inner = t.span("inner", || 42);
        assert_eq!(inner, 42);
        let engine = t.begin("engine");
        let (s, e) = (t.spans()[engine].start, t.now());
        t.record("phase", s, e, engine);
        t.end(engine);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[3].parent, Some(engine));
        assert!(spans.iter().all(|s| s.op == 7 && s.end >= s.start));
    }
}
