//! In-memory spans recorded by the benchmark around its calls into the
//! program, and the self times and parallel-layer figures derived from
//! them.
//!
//! The program's own `mmog_obs` span tree sums per-thread time by path
//! and counts training under both `predict/` and `sim/build/`, so its
//! totals do not add up to a wall. These spans are parent-linked
//! intervals instead: [`wall_share_self`] splits every instant of the
//! root span among the innermost spans open at that instant, so the
//! self times of all spans add up to the root's duration exactly.

use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name (`sim.run`, `par.item`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The `par_map` item this span belongs to.
    pub item: Option<u64>,
}

/// Collects spans from any thread. A disabled recorder hands out no
/// ids and records nothing, so the untraced run pays one branch per
/// call site.
#[derive(Debug)]
pub(crate) struct Recorder {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Recorder {
    /// A recorder that records when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; `None` when recording is off.
    pub fn open(
        &self,
        name: &'static str,
        parent: Option<usize>,
        item: Option<u64>,
    ) -> Option<usize> {
        let spans = self.spans.as_ref()?;
        let start_ns = self.now_ns();
        let mut spans = spans.lock().expect("span recorder poisoned by a panic");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            item,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&self, id: Option<usize>) {
        if let (Some(spans), Some(id)) = (self.spans.as_ref(), id) {
            let end = self.now_ns();
            spans.lock().expect("span recorder poisoned by a panic")[id].end_ns = end;
        }
    }

    /// Runs `f` inside a span, passing it the span's id as the parent
    /// for nested spans.
    pub fn within<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        item: Option<u64>,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        let id = self.open(name, parent, item);
        let out = f(id);
        self.close(id);
        out
    }

    /// The recorded spans, in opening order.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.map_or_else(Vec::new, |m| {
            m.into_inner().expect("span recorder poisoned by a panic")
        })
    }
}

/// Self time of every span, in seconds: each instant is shared equally
/// among the spans open at that instant that have no open child. The
/// result sums to the length of the union of all spans, which is the
/// root's duration when one root encloses the rest.
#[must_use]
pub fn wall_share_self(spans: &[Span]) -> Vec<f64> {
    let mut events: Vec<(u64, bool, usize)> = spans
        .iter()
        .enumerate()
        .flat_map(|(i, s)| [(s.start_ns, true, i), (s.end_ns, false, i)])
        .collect();
    events.sort_unstable();
    let mut open = vec![false; spans.len()];
    let mut open_children = vec![0usize; spans.len()];
    let mut self_ns = vec![0.0f64; spans.len()];
    let mut frontier = Vec::new();
    let mut last = events.first().map_or(0, |e| e.0);
    for &(t, is_start, i) in &events {
        if t > last {
            frontier.clear();
            frontier.extend((0..spans.len()).filter(|&j| open[j] && open_children[j] == 0));
            let share = (t - last) as f64 / frontier.len().max(1) as f64;
            for &j in &frontier {
                self_ns[j] += share;
            }
            last = t;
        }
        open[i] = is_start;
        if let Some(p) = spans[i].parent {
            if is_start {
                open_children[p] += 1;
            } else {
                open_children[p] -= 1;
            }
        }
    }
    self_ns.into_iter().map(|ns| ns / 1e9).collect()
}

/// What the parallel layer did, from the `par.map` region spans and
/// their `par.item` children.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct ParStats {
    /// Items run.
    pub items: u64,
    /// Sum of item durations, seconds.
    pub busy_s: f64,
    /// Busy time over region wall × workers.
    pub efficiency: f64,
    /// Per region, the time from the first worker going idle after the
    /// queue drained to the region's end, summed, seconds.
    pub straggler_s: f64,
}

/// Parallel-layer figures for regions run on `jobs` workers.
#[must_use]
pub(crate) fn par_stats(spans: &[Span], jobs: usize) -> ParStats {
    let mut out = ParStats::default();
    let mut capacity_ns = 0.0;
    for (r, region) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "par.map")
    {
        let items: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "par.item" && s.parent == Some(r))
            .collect();
        let Some(last_start) = items.iter().map(|s| s.start_ns).max() else {
            continue;
        };
        out.items += items.len() as u64;
        out.busy_s += items
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum::<f64>();
        capacity_ns += (region.end_ns - region.start_ns) as f64 * jobs as f64;
        // Once the last item has started the queue is empty, so the
        // first item to end after that leaves its worker idle.
        let idle_from = items
            .iter()
            .map(|s| s.end_ns)
            .filter(|&e| e > last_start)
            .min()
            .unwrap_or(region.end_ns);
        if jobs > 1 {
            out.straggler_s += region.end_ns.saturating_sub(idle_from) as f64 / 1e9;
        }
    }
    if capacity_ns > 0.0 {
        out.efficiency = out.busy_s * 1e9 / capacity_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            item: None,
        }
    }

    #[test]
    fn self_times_sum_to_the_root_and_share_overlap() {
        // root [0,100]; region [10,90]; items [10,60] and [10,90]
        let spans = vec![
            span("workload", 0, 100, None),
            span("par.map", 10, 90, Some(0)),
            span("par.item", 10, 60, Some(1)),
            span("par.item", 10, 90, Some(1)),
        ];
        let st = wall_share_self(&spans);
        let total: f64 = st.iter().sum();
        assert!((total - 100e-9).abs() < 1e-15, "{st:?}");
        assert!((st[0] - 20e-9).abs() < 1e-15);
        assert!(st[1].abs() < 1e-15);
        assert!((st[2] - 25e-9).abs() < 1e-15);
        assert!((st[3] - 55e-9).abs() < 1e-15);
    }

    #[test]
    fn par_stats_measure_busy_time_and_the_idle_tail() {
        let spans = vec![
            span("par.map", 0, 100, None),
            span("par.item", 0, 40, Some(0)),
            span("par.item", 0, 50, Some(0)),
            span("par.item", 40, 100, Some(0)),
        ];
        let p = par_stats(&spans, 2);
        assert_eq!(p.items, 3);
        assert!((p.busy_s - 150e-9).abs() < 1e-15);
        assert!((p.efficiency - 0.75).abs() < 1e-12);
        // the last item starts at 40; the worker freed at 50 idles.
        assert!((p.straggler_s - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        let id = rec.within("workload", None, None, |id| id);
        assert_eq!(id, None);
        assert!(rec.into_spans().is_empty());
    }
}
