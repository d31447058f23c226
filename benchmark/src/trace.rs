//! In-memory spans around the calls into each layer.
//!
//! The traced run opens a span at every layer boundary it crosses
//! (`Tracer::span`), keeps the records in memory and writes them out as
//! JSON lines when the run ends. A layer's *self time* is its spans'
//! duration minus the part of each interval its child spans cover, so
//! the self times of all layers add up to the time under the root spans.
//! A disabled tracer reads no clock and records nothing; the difference
//! between an enabled and a disabled pass is the tracing overhead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: u64,
    /// The span that was open on this thread when this one began.
    pub parent: Option<u64>,
    /// `<layer>.<call>`; the layer is the product crate's name.
    pub name: &'static str,
    /// Spans of one job share this identifier.
    pub job: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str, job: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { tracer: self, open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        SpanGuard {
            tracer: self,
            open: Some(SpanRecord { id, parent, name, job, start_ns, end_ns: start_ns }),
        }
    }

    /// Times `work` under a span.
    pub fn time<T>(&self, name: &'static str, job: u64, work: impl FnOnce() -> T) -> T {
        let _span = self.span(name, job);
        work()
    }

    /// Takes every span recorded so far.
    pub fn drain(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    open: Option<SpanRecord>,
}

impl SpanGuard<'_> {
    /// Names the span after what the call turned out to be.
    pub fn rename(&mut self, name: &'static str) {
        if let Some(record) = &mut self.open {
            record.name = name;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(mut record) = self.open.take() else { return };
        record.end_ns = self.tracer.origin.elapsed().as_nanos() as u64;
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            // Guards drop innermost first, so this is the top entry.
            if open.last() == Some(&record.id) {
                open.pop();
            }
        });
        self.tracer.spans.lock().unwrap_or_else(PoisonError::into_inner).push(record);
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span itself. Overlapping
/// children are counted once.
pub fn self_times_ns(spans: &[SpanRecord]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            let mut intervals = children.remove(&span.id).unwrap_or_default();
            intervals.sort_unstable();
            for (start, end) in intervals {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.id, (span.end_ns - span.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Total self time per layer (the span name up to its first `.`), in
/// seconds.
pub fn layer_self_seconds(spans: &[SpanRecord]) -> BTreeMap<&'static str, f64> {
    let self_ns = self_times_ns(spans);
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    for span in spans {
        let layer = span.name.split('.').next().unwrap_or(span.name);
        *layers.entry(layer).or_default() += self_ns[&span.id] as f64 * 1e-9;
    }
    layers
}

/// Durations in seconds of every span called `name`.
pub fn durations(spans: &[SpanRecord], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|span| span.name == name)
        .map(|span| (span.end_ns - span.start_ns) as f64 * 1e-9)
        .collect()
}

/// Writes one JSON object per span (README, "Reading trace files").
pub fn write_jsonl(path: &Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = span.parent.map_or("null".to_string(), |id| id.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"job\":{},\"start_ns\":{},\
             \"end_ns\":{}}}",
            span.id, span.name, span.job, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord { id, parent, name, job: 0, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let spans = [
            span(1, None, "core.job", 0, 100),
            span(2, Some(1), "uvm.run", 10, 60),
            span(3, Some(2), "sim.build", 20, 30),
            span(4, Some(1), "lint.check", 70, 90),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[&1], 100 - 50 - 20);
        assert_eq!(own[&2], 50 - 10, "only the direct child is subtracted");
        assert_eq!(own[&3], 10);
        assert_eq!(own[&4], 20);
        assert_eq!(own.values().sum::<u64>(), 100, "self times partition the root span");
        let layers = layer_self_seconds(&spans);
        assert!((layers["core"] - 30e-9).abs() < 1e-15);
        assert!((layers["uvm"] - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = [
            span(1, None, "serve.pass", 100, 200),
            span(2, Some(1), "serve.status", 110, 150),
            span(3, Some(1), "serve.rows", 140, 170), // overlaps span 2 by 10
            span(4, Some(1), "serve.late", 190, 230), // overhangs the parent by 30
            span(5, Some(1), "serve.inner", 120, 130), // inside span 2
        ];
        let own = self_times_ns(&spans);
        // Covered: [110,170) ∪ [190,200) = 70.
        assert_eq!(own[&1], 100 - 70);
        assert_eq!(own[&4], 40, "a child's own time is not clipped");
    }

    #[test]
    fn guards_record_parents_per_thread_and_a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(true);
        {
            let _job = tracer.span("core.job", 7);
            tracer.time("lint.check", 7, || ());
            std::thread::scope(|scope| {
                scope.spawn(|| tracer.time("sim.build", 8, || ()));
            });
        }
        let spans = tracer.drain();
        let by_name = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
        assert_eq!(by_name("lint.check").parent, Some(by_name("core.job").id));
        assert_eq!(by_name("sim.build").parent, None, "another thread has its own stack");
        assert_eq!(by_name("core.job").job, 7);
        assert!(by_name("core.job").end_ns >= by_name("lint.check").end_ns);
        assert!(tracer.drain().is_empty());

        let off = Tracer::new(false);
        off.time("lint.check", 1, || ());
        assert!(off.drain().is_empty());
    }

    #[test]
    fn span_files_hold_one_object_per_line() {
        let dir = crate::out_dir().join(format!("test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        write_jsonl(&path, &[span(1, None, "core.job", 5, 9), span(2, Some(1), "sim.build", 6, 7)])
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            text,
            "{\"id\":1,\"parent\":null,\"name\":\"core.job\",\"job\":0,\"start_ns\":5,\"end_ns\":9}\n\
             {\"id\":2,\"parent\":1,\"name\":\"sim.build\",\"job\":0,\"start_ns\":6,\"end_ns\":7}\n"
        );
    }
}
