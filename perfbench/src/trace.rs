//! In-memory spans recorded by the benchmark around its own calls into each
//! layer's public API. Nothing is traced inside the program: a span covers
//! exactly one call the benchmark makes, and nesting comes from calls made
//! inside another call's callback (a plan-cache loader, for instance).
//!
//! A span's *self time* is its duration minus the part of its interval that
//! its children cover. Self times of one tree partition its root's
//! duration, so per-layer self totals sum to the traced wall time up to the
//! benchmark's own loop glue between root spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The public function called, e.g. `core.exec.run_2d`.
    pub name: &'static str,
    /// The module that owns it, e.g. `core` or `runtime.cache`.
    pub layer: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this call served.
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Single-threaded span recorder (the traced passes drive every layer call
/// from one thread).
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(1 << 16)),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` owned by `layer`.
    pub fn span<R>(
        &self,
        name: &'static str,
        layer: &'static str,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                layer,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Number of spans recorded so far (a phase marker: spans at or after
    /// a mark belong to the phase that started there).
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Every recorded span, in start order.
    pub fn finish(self) -> Vec<Span> {
        self.spans.into_inner()
    }

    /// The spans recorded at or after `mark`, with parent links re-based
    /// onto the returned vector.
    pub fn finish_since(self, mark: usize) -> Vec<Span> {
        let mut spans = self.finish().split_off(mark);
        for s in &mut spans {
            s.parent = s.parent.and_then(|p| p.checked_sub(mark));
        }
        spans
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per layer, nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0) += t;
    }
    out
}

/// Durations (ns) of the spans named `name`, in record order.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Summed duration of root spans (the traced end-to-end time the layer
/// self times partition).
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: layer,
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_partitions_the_root() {
        // root [0,100) ⊃ cache [10,40) ⊃ compile [15,35); exec [50,90).
        let spans = vec![
            span("runtime", 0, 100, None),
            span("runtime.cache", 10, 40, Some(0)),
            span("core", 15, 35, Some(1)),
            span("core", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 20, 40]);
        let by_layer = layer_self_ns(&spans);
        assert_eq!(by_layer["runtime"], 30);
        assert_eq!(by_layer["runtime.cache"], 10);
        assert_eq!(by_layer["core"], 60);
        assert_eq!(by_layer.values().sum::<u64>(), root_ns(&spans));
    }

    #[test]
    fn overlapping_or_overhanging_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 120, Some(0)),
        ];
        // Children cover [10, 100) of the root: 90 ns.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn tracer_nests_spans_through_callbacks() {
        let t = Tracer::new();
        let v = t.span("outer", "runtime", 7, || {
            t.span("inner", "core", 7, || 41) + 1
        });
        assert_eq!(v, 42);
        let spans = t.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let selfs = self_times(&spans);
        assert_eq!(selfs[0] + selfs[1], root_ns(&spans));
    }

    #[test]
    fn spans_after_a_mark_keep_their_tree() {
        let t = Tracer::new();
        t.span("setup", "runtime", 0, || ());
        let mark = t.mark();
        t.span("outer", "runtime", 1, || t.span("inner", "core", 1, || ()));
        let spans = t.finish_since(mark);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
    }
}
