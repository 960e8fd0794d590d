//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around calls
//! into the library's public functions; nothing inside the library is
//! instrumented. Each span has a name (`layer.what`), a start and end in
//! seconds since the tracer was created, the span that caused it, and the
//! id of the route (or pass, or flush) it belongs to. Spans stay in memory
//! until the run ends and are then written as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
    pub route: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_route: AtomicU64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_route: AtomicU64::new(1),
        }
    }

    /// A fresh route id.
    pub fn route_id(&self) -> u64 {
        self.next_route.fetch_add(1, Ordering::Relaxed)
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, route: u64) -> SpanId {
        let start = self.now();
        let mut spans = self.spans.lock().expect("span list is never poisoned");
        spans.push(Span {
            name,
            start,
            end: f64::NAN,
            parent,
            route,
        });
        spans.len() - 1
    }

    /// Closes a span and returns its duration in seconds.
    pub fn close(&self, id: SpanId) -> f64 {
        let end = self.now();
        let mut spans = self.spans.lock().expect("span list is never poisoned");
        spans[id].end = end;
        end - spans[id].start
    }

    /// Runs `f` inside a span; returns its result and duration.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        route: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, route);
        let out = f(id);
        (out, self.close(id))
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list is never poisoned")
            .clone()
    }
}

/// The span around the benchmark's own verification work (reference
/// reroutes, baselines). It and everything under it count as `bench`
/// self time, so the other layers' shares describe only the measured
/// operations.
pub const CHECK: &str = "bench.check";

/// Self time per layer: each span's duration minus the part of its
/// interval covered by its children (children on other threads may
/// overlap, so the covered part is the union of their intervals).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    // A parent is opened before its children, so it comes first.
    let mut in_check = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        in_check[i] = s.name == CHECK || s.parent.is_some_and(|p| in_check[p]);
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if !s.end.is_finite() {
            continue;
        }
        let mut iv: Vec<(f64, f64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (a, b) in iv {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let layer = if in_check[i] { "bench" } else { s.layer() };
        *out.entry(layer).or_insert(0.0) += (s.seconds() - covered).max(0.0);
    }
    out
}

/// Writes spans as JSON lines (one object per span).
pub fn export(spans: &[Span], path: &Path) -> std::io::Result<()> {
    use astdme_json::{field, number, quote};
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let fields = [
            field("id", i.to_string()),
            field("name", quote(s.name)),
            field("start_s", number(s.start)),
            field("end_s", number(s.end)),
            field("parent", s.parent.map_or("null".into(), |p| p.to_string())),
            field("route", s.route.to_string()),
        ];
        writeln!(w, "{{{}}}", fields.join(", "))?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            route: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("fleet.pass", 0.0, 10.0, None),
            span("pipeline.route", 1.0, 5.0, Some(0)),
            span("pipeline.route", 3.0, 7.0, Some(0)),
            span("engine.merge", 1.0, 2.0, Some(1)),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["fleet"], 4.0);
        assert_eq!(t["pipeline"], 7.0);
        assert_eq!(t["engine"], 1.0);
    }

    #[test]
    fn verification_work_counts_as_bench() {
        let spans = vec![
            span("eco.flush", 0.0, 2.0, None),
            span(CHECK, 2.0, 10.0, None),
            span("pipeline.route", 2.0, 9.0, Some(1)),
            span("engine.merge", 3.0, 8.0, Some(2)),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["eco"], 2.0);
        assert_eq!(t["bench"], 8.0);
        assert!(!t.contains_key("pipeline") && !t.contains_key("engine"));
    }
}
