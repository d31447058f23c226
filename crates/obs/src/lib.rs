//! Zero-allocation observability substrate: a process-wide, preregistered
//! metrics registry, a span API for stage timing, and a deterministic
//! JSON snapshot.
//!
//! The design splits metric life into two phases with opposite budgets:
//!
//! * **Registration** (cold, may allocate): [`Registry::counter`] /
//!   [`Registry::gauge`] / [`Registry::histogram`] get-or-register a
//!   metric by name under a mutex and return a `&'static` handle
//!   (leaked once, shared forever). Callers resolve handles at
//!   construction time — a simulator instance, a service thread — never
//!   per event.
//! * **Recording** (hot, never allocates): [`Counter::add`],
//!   [`Gauge::set`] and [`Histogram::record`] are each a single relaxed
//!   atomic read-modify-write on a preallocated cell. No locks, no
//!   branches on shared state, no heap. This is what lets the
//!   simulation kernels stay inside the strict zero-allocations-per-
//!   cycle bound (`tests/alloc_steady_state.rs`) with metrics enabled.
//!   A [`Counter`] is sharded over cache-line-sized cells and a thread
//!   adds into its own, so workers counting the same events share no
//!   cache line; totals are exact at every read, the registry buffers
//!   nothing. (A recorder may: the simulator adds its `sim.event.*`
//!   tallies once, when it drops.)
//!
//! Histograms are fixed-shape: [`HISTOGRAM_BUCKETS`] log2 buckets
//! covering the whole `u64` range (bucket 0 holds exactly the value 0;
//! bucket `k ≥ 1` holds `[2^(k-1), 2^k)`), so recording is one atomic
//! add into `buckets[bucket_index(v)]` and two histograms of the same
//! data are bit-identical regardless of arrival order.
//!
//! [`MetricsSnapshot::to_json`] renders counters, gauges and histogram
//! bucket counts only — no timestamps, sums or rates — with every
//! object key sorted, so two runs that record the same values emit
//! byte-identical JSON (the determinism contract CI checks).
//!
//! [`Span::enter`] is the stage-timing sugar: an RAII guard that
//! records its elapsed microseconds into the `stage_us.<stage>`
//! histogram on drop. It resolves its histogram through the registry
//! per call, so it belongs around coarse pipeline stages (parse,
//! elaborate, simulate, repair), not inner loops.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use uvllm_json::Json;

/// Schema tag stamped into every snapshot (checked by
/// [`validate_snapshot_json`]).
pub const SNAPSHOT_SCHEMA: &str = "uvllm-metrics/v1";

/// Number of histogram buckets: one for the value 0, one per power of
/// two up to and including `2^63..=u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

// ----------------------------------------------------------------------
// Metric cells
// ----------------------------------------------------------------------

/// Cells per [`Counter`]: recording threads beyond this many share
/// cells (still exact, the add is atomic), which costs speed only.
const COUNTER_CELLS: usize = 8;

/// One cache line of a [`Counter`], so that two threads recording into
/// different cells never write the same line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CounterCell {
    value: AtomicU64,
}

/// Hands each recording thread its cell index, round-robin, so threads
/// started one after another (a worker pool) land on different cells.
static NEXT_CELL: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The cell this thread records into, assigned at its first record.
    /// `const`-initialised and without a destructor: reading it never
    /// allocates (the kernels record inside the zero-allocation bound).
    static CELL: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The calling thread's cell index; cell 0 while the thread tears its
/// locals down.
#[inline]
fn cell_index() -> usize {
    CELL.try_with(|cell| {
        cell.get().unwrap_or_else(|| {
            let index = NEXT_CELL.fetch_add(1, Ordering::Relaxed) % COUNTER_CELLS;
            cell.set(Some(index));
            index
        })
    })
    .unwrap_or(0)
}

/// A monotonically increasing event count, sharded over
/// `COUNTER_CELLS` cache lines: `inc`/`add` are one relaxed atomic op
/// on the recording thread's own line (workers recording the same
/// counter do not bounce it between cores), `get` sums the cells.
/// Allocation-free by construction.
#[derive(Debug, Default)]
pub struct Counter {
    cells: [CounterCell; COUNTER_CELLS],
}

impl Counter {
    fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (a batch of locally accumulated events — the idiom the
    /// kernel uses to add a simulator's tallies in O(1) atomics).
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[cell_index()].value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value, summed over the cells: exact for every `add`
    /// that happens-before this call (the caller's own, and those of
    /// threads it has joined), and never decreasing between two calls.
    pub fn get(&self) -> u64 {
        self.cells.iter().fold(0, |sum, cell| sum.wrapping_add(cell.value.load(Ordering::Relaxed)))
    }

    fn reset(&self) {
        for cell in &self.cells {
            cell.value.store(0, Ordering::Relaxed);
        }
    }
}

/// A signed instantaneous level (queue depth, pool occupancy).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge { value: AtomicI64::new(0) }
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Moves the level by `delta` (negative to decrease).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.set(0);
    }
}

/// A fixed-shape log2 histogram over `u64` values: recording is one
/// relaxed atomic add into the value's bucket; counts (not sums) are
/// what snapshots expose, so identical value multisets serialize
/// identically.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// The bucket a value lands in: 0 for the value 0, else
/// `floor(log2(v)) + 1` — bucket `k ≥ 1` covers `[2^(k-1), 2^k)` and
/// bucket 64 covers `[2^63, u64::MAX]`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The smallest value belonging to bucket `index` (its snapshot label).
pub fn bucket_floor(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

impl Histogram {
    fn new() -> Histogram {
        Histogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    /// Records one observation — a single relaxed atomic op.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Observations in bucket `index`.
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index].load(Ordering::Relaxed)
    }

    /// Total observations (sum over buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

// ----------------------------------------------------------------------
// Registry
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The process-wide metric namespace. Names are flat dotted strings
/// (`sim.event.activations`); the map is only touched at
/// registration and snapshot time, never on the recording path.
#[derive(Debug, Default)]
pub struct Registry {
    map: Mutex<BTreeMap<String, Metric>>,
}

/// The global registry every instrumented layer shares.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

impl Registry {
    /// Gets or registers the counter `name`, returning its permanent
    /// handle. Registering may allocate; the handle never does.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind —
    /// a naming collision is a programming error, not a runtime state.
    pub fn counter(&self, name: &str) -> &'static Counter {
        match self.get_or_register(name, || Metric::Counter(Box::leak(Box::new(Counter::new())))) {
            Metric::Counter(c) => c,
            other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
        }
    }

    /// Gets or registers the gauge `name` (same contract as
    /// [`Registry::counter`]).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        match self.get_or_register(name, || Metric::Gauge(Box::leak(Box::new(Gauge::new())))) {
            Metric::Gauge(g) => g,
            other => panic!("metric '{name}' is a {}, not a gauge", other.kind()),
        }
    }

    /// Gets or registers the histogram `name` (same contract as
    /// [`Registry::counter`]).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        match self
            .get_or_register(name, || Metric::Histogram(Box::leak(Box::new(Histogram::new()))))
        {
            Metric::Histogram(h) => h,
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    fn get_or_register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.map.lock().expect("metrics registry poisoned");
        match map.get(name) {
            Some(metric) => *metric,
            None => {
                let metric = make();
                map.insert(name.to_string(), metric);
                metric
            }
        }
    }

    /// A point-in-time copy of every registered metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.map.lock().expect("metrics registry poisoned");
        let mut snapshot = MetricsSnapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => snapshot.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snapshot.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => {
                    let buckets = (0..HISTOGRAM_BUCKETS)
                        .map(|i| (bucket_floor(i), h.bucket(i)))
                        .filter(|(_, count)| *count > 0)
                        .collect();
                    snapshot.histograms.push((name.clone(), HistogramSnapshot { buckets }));
                }
            }
        }
        snapshot
    }

    /// Zeroes every registered metric, keeping the registrations (and
    /// every outstanding `&'static` handle) valid — test isolation and
    /// per-run deltas.
    pub fn reset(&self) {
        let map = self.map.lock().expect("metrics registry poisoned");
        for metric in map.values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }
}

// ----------------------------------------------------------------------
// Spans
// ----------------------------------------------------------------------

/// RAII stage timer: created at stage entry, records elapsed
/// microseconds into the stage's histogram when dropped.
#[derive(Debug)]
pub struct Span {
    hist: &'static Histogram,
    start: Instant,
}

impl Span {
    /// Times a named pipeline stage into the `stage_us.<stage>`
    /// histogram. Resolves through the registry (cheap, but not free):
    /// wrap stages, not inner loops.
    pub fn enter(stage: &str) -> Span {
        Span::into_histogram(registry().histogram(&format!("stage_us.{stage}")))
    }

    /// Times into a pre-resolved histogram (for callers that cache the
    /// handle).
    pub fn into_histogram(hist: &'static Histogram) -> Span {
        Span { hist, start: Instant::now() }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_micros() as u64);
    }
}

// ----------------------------------------------------------------------
// Snapshots
// ----------------------------------------------------------------------

/// Non-empty buckets of one histogram: `(bucket floor, count)` in
/// ascending floor order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(smallest value of the bucket, observations in it)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|(_, c)| c).sum()
    }
}

/// A deterministic point-in-time copy of the registry: every list is
/// sorted by metric name, histograms carry bucket counts only.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, buckets)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Looks a counter value up by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The snapshot as sorted-key JSON: counts and buckets only, no
    /// wall-clock-derived members — two runs recording identical values
    /// render byte-identically.
    pub fn to_json(&self) -> Json {
        let counters =
            self.counters.iter().map(|(n, v)| (n.clone(), Json::Num(*v as f64))).collect();
        let gauges = self.gauges.iter().map(|(n, v)| (n.clone(), Json::Num(*v as f64))).collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(n, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|(floor, count)| (floor.to_string(), Json::Num(*count as f64)))
                    .collect();
                (
                    n.clone(),
                    Json::Obj(vec![
                        ("buckets".into(), Json::Obj(buckets)),
                        ("count".into(), Json::Num(h.count() as f64)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("counters".into(), Json::Obj(counters)),
            ("gauges".into(), Json::Obj(gauges)),
            ("histograms".into(), Json::Obj(histograms)),
            ("schema".into(), Json::Str(SNAPSHOT_SCHEMA.to_string())),
        ])
    }

    /// The snapshot rendered as one JSON document plus trailing newline
    /// — what `--metrics-out` writes.
    pub fn render(&self) -> String {
        format!("{}\n", self.to_json().render())
    }
}

/// Schema-checks a rendered snapshot (the CI gate behind
/// `campaign metrics-check`): parses, verifies the schema tag, the
/// three sections, numeric members, and that histogram bucket labels
/// are valid bucket floors with counts summing to `count`.
///
/// # Errors
///
/// A message naming the first violated constraint.
pub fn validate_snapshot_json(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("snapshot is not valid JSON: {e}"))?;
    let Json::Obj(members) = &doc else {
        return Err("snapshot root must be an object".to_string());
    };
    match doc.get("schema") {
        Some(Json::Str(s)) if s == SNAPSHOT_SCHEMA => {}
        other => return Err(format!("bad schema tag (want \"{SNAPSHOT_SCHEMA}\"): {other:?}")),
    }
    let expected_keys = ["counters", "gauges", "histograms", "schema"];
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    if keys != expected_keys {
        return Err(format!("snapshot members must be exactly {expected_keys:?}, got {keys:?}"));
    }
    for section in ["counters", "gauges"] {
        let Some(Json::Obj(entries)) = doc.get(section) else {
            return Err(format!("'{section}' must be an object"));
        };
        sorted_keys(&entries[..], section)?;
        for (name, value) in entries {
            if !matches!(value, Json::Num(_)) {
                return Err(format!("{section}.{name} must be a number"));
            }
        }
    }
    let Some(Json::Obj(hists)) = doc.get("histograms") else {
        return Err("'histograms' must be an object".to_string());
    };
    sorted_keys(&hists[..], "histograms")?;
    for (name, hist) in hists {
        let Json::Obj(_) = hist else {
            return Err(format!("histograms.{name} must be an object"));
        };
        let Some(Json::Num(count)) = hist.get("count") else {
            return Err(format!("histograms.{name}.count must be a number"));
        };
        let Some(Json::Obj(buckets)) = hist.get("buckets") else {
            return Err(format!("histograms.{name}.buckets must be an object"));
        };
        let mut total = 0.0;
        let mut last_floor: Option<u64> = None;
        for (label, value) in buckets {
            let floor: u64 = label
                .parse()
                .map_err(|_| format!("histograms.{name}: bucket label '{label}' is not a u64"))?;
            if floor != bucket_floor(bucket_index(floor)) {
                return Err(format!(
                    "histograms.{name}: bucket label '{label}' is not a bucket floor"
                ));
            }
            if last_floor.is_some_and(|prev| prev >= floor) {
                return Err(format!("histograms.{name}: bucket labels out of order at '{label}'"));
            }
            last_floor = Some(floor);
            let Json::Num(n) = value else {
                return Err(format!("histograms.{name}: bucket '{label}' must be a number"));
            };
            total += n;
        }
        if total != *count {
            return Err(format!(
                "histograms.{name}: bucket counts sum to {total}, count says {count}"
            ));
        }
    }
    Ok(())
}

fn sorted_keys(entries: &[(String, Json)], section: &str) -> Result<(), String> {
    for pair in entries.windows(2) {
        if pair[0].0 >= pair[1].0 {
            return Err(format!("'{section}' keys are not sorted at '{}'", pair[1].0));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry (and every metric) is process-global; tests that
    /// reset or compare absolute values serialize on this.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let _guard = serial();
        let c = registry().counter("test.obs.counter");
        let base = c.get();
        c.inc();
        c.add(9);
        assert_eq!(c.get() - base, 10);
        // Same name, same cell.
        assert_eq!(registry().counter("test.obs.counter").get(), c.get());

        let g = registry().gauge("test.obs.gauge");
        g.set(5);
        g.inc();
        g.dec();
        g.add(-3);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn concurrent_adds_sum_exactly_and_reads_never_decrease() {
        const THREADS: u64 = 8;
        const ADDS: u64 = 100_000;
        let _guard = serial();
        let counter = Counter::new();
        let start = std::sync::Barrier::new(THREADS as usize + 1);
        let running = AtomicU64::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (counter, start, running) = (&counter, &start, &running);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..ADDS {
                        // Mixed sizes: 1, then a batch that differs per
                        // thread and per step.
                        counter.inc();
                        counter.add((i + t) % 7);
                    }
                    running.fetch_sub(1, Ordering::Release);
                });
            }
            start.wait();
            let mut last = 0;
            while running.load(Ordering::Acquire) > 0 {
                let now = counter.get();
                assert!(now >= last, "get went backwards: {last} -> {now}");
                last = now;
            }
        });
        let expected: u64 =
            (0..THREADS).map(|t| (0..ADDS).map(|i| 1 + (i + t) % 7).sum::<u64>()).sum();
        assert_eq!(counter.get(), expected, "every add of every joined thread is in the total");
        counter.reset();
        assert_eq!(counter.get(), 0);
    }

    #[test]
    fn cells_are_whole_cache_lines_and_new_threads_take_different_ones() {
        assert_eq!(std::mem::align_of::<CounterCell>(), 64);
        assert_eq!(std::mem::size_of::<CounterCell>(), 64);
        assert_eq!(std::mem::size_of::<Counter>(), 64 * COUNTER_CELLS);
        const { assert!(COUNTER_CELLS >= 8) };
        // Cells go out in ticket order, one per thread at its first
        // counter record; every test that records a counter holds
        // `serial`, so no third thread draws between the two spawned
        // here.
        let _guard = serial();
        let cell_of_new_thread = || {
            std::thread::spawn(|| {
                let first = cell_index();
                assert_eq!(cell_index(), first, "a thread keeps its cell");
                first
            })
            .join()
            .expect("probe thread")
        };
        let (a, b) = (cell_of_new_thread(), cell_of_new_thread());
        assert!(a < COUNTER_CELLS && b < COUNTER_CELLS);
        assert_ne!(a, b, "threads started back to back must not share a cell");
    }

    #[test]
    fn snapshot_bytes_do_not_depend_on_which_threads_recorded() {
        // The same totals written by one thread and spread over eight:
        // private registries, so no other test's metrics are in them.
        let _guard = serial();
        let record = |registry: &Registry, share: u64| {
            registry.counter("test.obs.shard.settles").add(40 / share);
            registry.counter("test.obs.shard.events").add(8_000_000 / share);
            let h = registry.histogram("test.obs.shard.wait_us");
            for _ in 0..16 / share {
                h.record(1024);
            }
            registry.gauge("test.obs.shard.depth").set(3);
        };
        let single = Registry::default();
        record(&single, 1);
        let spread = Registry::default();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| record(&spread, 8));
            }
        });
        let (single, spread) = (single.snapshot().render(), spread.snapshot().render());
        assert_eq!(single, spread);
        validate_snapshot_json(&spread).expect("sharded counters render a valid snapshot");
        assert!(spread.contains("\"test.obs.shard.events\":8000000"), "{spread}");
    }

    #[test]
    fn histogram_bucket_boundaries_are_exact() {
        // The satellite's boundary matrix: 0, 1, u64::MAX and exact
        // powers of two each land in their own well-defined bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for k in 0..64u32 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), k as usize + 1, "2^{k} opens its own bucket");
            assert_eq!(bucket_floor(k as usize + 1), v, "floor of bucket {} is 2^{k}", k + 1);
            if v > 1 {
                assert_eq!(bucket_index(v - 1), k as usize, "2^{k}-1 stays one bucket down");
            }
        }
        assert_eq!(bucket_floor(0), 0);

        let _guard = serial();
        let h = registry().histogram("test.obs.boundaries");
        h.reset();
        for v in [0, 1, 2, 3, 4, u64::MAX, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(2), 2, "2 and 3 share [2,4)");
        assert_eq!(h.bucket(3), 1);
        assert_eq!(h.bucket(64), 2);
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn kind_collisions_panic() {
        let _guard = serial();
        registry().counter("test.obs.kind");
        let err = std::panic::catch_unwind(|| registry().gauge("test.obs.kind"));
        assert!(err.is_err(), "re-registering a counter as a gauge must panic");
    }

    #[test]
    fn snapshot_is_deterministic_and_valid() {
        let _guard = serial();
        registry().reset();
        let record = || {
            registry().counter("test.obs.snap.jobs").add(3);
            registry().gauge("test.obs.snap.depth").set(2);
            let h = registry().histogram("test.obs.snap.wait_us");
            for v in [0, 1, 7, 1024, u64::MAX] {
                h.record(v);
            }
            registry().snapshot().render()
        };
        let first = record();
        registry().reset();
        let second = record();
        // Two identical runs → byte-identical metrics JSON.
        assert_eq!(first, second);
        validate_snapshot_json(&first).expect("snapshot must pass its own schema check");
        assert!(first.contains("\"schema\":\"uvllm-metrics/v1\""), "{first}");

        let snap = registry().snapshot();
        assert_eq!(snap.counter("test.obs.snap.jobs"), Some(3));
        let (_, wait) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "test.obs.snap.wait_us")
            .expect("histogram present");
        assert_eq!(wait.count(), 5);
        assert_eq!(wait.buckets, vec![(0, 1), (1, 1), (4, 1), (1024, 1), (1 << 63, 1)]);
    }

    #[test]
    fn validation_rejects_malformed_snapshots() {
        assert!(validate_snapshot_json("not json").is_err());
        assert!(validate_snapshot_json("{}").is_err(), "missing schema tag");
        let wrong_schema = r#"{"counters":{},"gauges":{},"histograms":{},"schema":"nope"}"#;
        assert!(validate_snapshot_json(wrong_schema).is_err());
        let unsorted =
            r#"{"counters":{"b":1,"a":2},"gauges":{},"histograms":{},"schema":"uvllm-metrics/v1"}"#;
        assert!(validate_snapshot_json(unsorted).unwrap_err().contains("not sorted"));
        let bad_label = r#"{"counters":{},"gauges":{},"histograms":{"h":{"buckets":{"3":1},"count":1}},"schema":"uvllm-metrics/v1"}"#;
        assert!(validate_snapshot_json(bad_label).unwrap_err().contains("bucket floor"));
        let bad_count = r#"{"counters":{},"gauges":{},"histograms":{"h":{"buckets":{"4":1},"count":2}},"schema":"uvllm-metrics/v1"}"#;
        assert!(validate_snapshot_json(bad_count).unwrap_err().contains("sum"));
        let ok = r#"{"counters":{"a":1},"gauges":{"g":-2},"histograms":{"h":{"buckets":{"0":2,"4":1},"count":3}},"schema":"uvllm-metrics/v1"}"#;
        validate_snapshot_json(ok).expect("well-formed snapshot validates");
    }

    #[test]
    fn span_records_into_stage_histogram() {
        let _guard = serial();
        let h = registry().histogram("stage_us.test_obs_span");
        let before = h.count();
        {
            let _span = Span::enter("test_obs_span");
        }
        assert_eq!(h.count() - before, 1);
    }
}
