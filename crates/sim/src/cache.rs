//! Content-addressed elaboration cache: [`ElabCache`] is the value, the
//! free functions act on one process-default instance of it.
//!
//! Parsing + elaboration is pure — the resulting [`Design`] depends only
//! on the source text and the top-module name — so identical sources can
//! share one elaboration. Large verification campaigns hit the same
//! texts constantly: every job re-checks its candidate under both
//! metrics (HR and FR), all methods of one benchmark instance share the
//! mutated source, and successful repairs converge on the golden text
//! itself. The campaign engine pre-warms this cache with each design's
//! golden source so per-design elaboration happens exactly once per
//! worker set.
//!
//! Concurrency: the map lock is held only for bookkeeping; elaboration
//! itself runs outside it. A thread that begins elaborating a key
//! leaves an in-flight marker, and other threads wanting the same key
//! block on its condvar instead of elaborating again — "exactly once"
//! without serialising unrelated work across the worker pool.
//!
//! Entries are `Arc`-shared and the map is capacity-capped (wholesale
//! eviction of ready entries at [`ELAB_CACHE_CAPACITY`]) so unbounded
//! candidate streams cannot exhaust memory. Results (including parse/
//! elaboration failures) are cached; since elaboration is deterministic
//! the cache is invisible to callers except in speed.

use crate::compile::CompiledDesign;
use crate::elab::{elaborate, Design};
use crate::kernel::CompiledSim;
use crate::sched::SimError;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Ready-entry cap; reaching it clears the ready entries (simple, and
/// far above the working set of a campaign round).
pub const ELAB_CACHE_CAPACITY: usize = 4096;

/// `(source, top)` — the content address of one design.
type Key = (String, String);
type CachedResult = Result<Arc<Design>, String>;

/// Top → source → value: nested so a lookup borrows `(top, src)` and
/// only a miss allocates the owned key.
type ByText<V> = HashMap<String, HashMap<String, V>>;

fn insert_text<V>(map: &mut ByText<V>, src: &str, top: &str, value: V) {
    match map.get_mut(top) {
        Some(of_top) => of_top.insert(src.to_string(), value),
        None => map.entry(top.to_string()).or_default().insert(src.to_string(), value),
    };
}

fn text_count<V>(map: &ByText<V>) -> usize {
    map.values().map(HashMap::len).sum()
}

/// A slot another thread is currently elaborating; waiters park on the
/// condvar until the result lands.
struct InFlight {
    slot: Mutex<Option<CachedResult>>,
    ready: Condvar,
}

enum Entry {
    Ready(CachedResult),
    Pending(Arc<InFlight>),
}

#[derive(Default)]
struct Inner {
    map: ByText<Entry>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Inner {
    fn retain_pending(&mut self) {
        for of_top in self.map.values_mut() {
            of_top.retain(|_, entry| matches!(entry, Entry::Pending(_)));
        }
    }
}

/// Counters describing cache effectiveness (see [`ElabCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ElabCacheStats {
    /// Lookups served from the cache (including waits on an elaboration
    /// already in flight on another thread).
    pub hits: u64,
    /// Lookups that elaborated fresh (equals the number of distinct
    /// (source, top) pairs seen, absent evictions).
    pub misses: u64,
    /// Wholesale evictions triggered by the capacity cap.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// One elaboration cache. The free functions of this module
/// ([`elaborate_source_cached`], [`stats`], [`reset`]) act on a single
/// process-default instance; a caller that needs its own entries and
/// counters (a test asserting absolute counts, say) owns one of these.
#[derive(Default)]
pub struct ElabCache {
    inner: Mutex<Inner>,
}

impl ElabCache {
    /// An empty cache with zeroed counters.
    pub fn new() -> ElabCache {
        ElabCache::default()
    }

    /// Parses and elaborates `src` with `top` as root, memoised in this
    /// cache.
    ///
    /// # Errors
    ///
    /// Returns the parse or elaboration error message (also memoised).
    pub fn elaborate(&self, src: &str, top: &str) -> CachedResult {
        let flight: Arc<InFlight>;
        {
            let mut cache = self.inner.lock().expect("elab cache poisoned");
            match cache.map.get(top).and_then(|of_top| of_top.get(src)) {
                Some(Entry::Ready(result)) => {
                    let result = result.clone();
                    cache.hits += 1;
                    crate::metrics::cache().elab_hits.inc();
                    return result;
                }
                Some(Entry::Pending(in_flight)) => {
                    // Another thread is elaborating this exact key: wait
                    // for its result instead of duplicating the work.
                    let in_flight = Arc::clone(in_flight);
                    cache.hits += 1;
                    crate::metrics::cache().elab_hits.inc();
                    drop(cache);
                    let mut slot = in_flight.slot.lock().expect("in-flight slot poisoned");
                    while slot.is_none() {
                        slot = in_flight.ready.wait(slot).expect("in-flight slot poisoned");
                    }
                    return slot.clone().expect("checked above");
                }
                None => {
                    flight = Arc::new(InFlight { slot: Mutex::new(None), ready: Condvar::new() });
                    cache.misses += 1;
                    crate::metrics::cache().elab_misses.inc();
                    insert_text(&mut cache.map, src, top, Entry::Pending(Arc::clone(&flight)));
                }
            }
        }

        // Elaborate outside the map lock: unrelated keys proceed in
        // parallel across the worker pool.
        let result: CachedResult = {
            let parsed = {
                let _span = uvllm_obs::Span::enter("parse");
                uvllm_verilog::parse(src).map_err(|e| e.to_string())
            };
            parsed
                .and_then(|file| {
                    let _span = uvllm_obs::Span::enter("elab");
                    elaborate(&file, top).map_err(|e| e.to_string())
                })
                .map(Arc::new)
        };

        {
            let mut cache = self.inner.lock().expect("elab cache poisoned");
            if text_count(&cache.map) >= ELAB_CACHE_CAPACITY {
                // Evict ready entries only; in-flight markers must survive
                // or their waiters would hang.
                cache.retain_pending();
                cache.evictions += 1;
                crate::metrics::cache().elab_evictions.inc();
            }
            insert_text(&mut cache.map, src, top, Entry::Ready(result.clone()));
        }
        let mut slot = flight.slot.lock().expect("in-flight slot poisoned");
        *slot = Some(result.clone());
        flight.ready.notify_all();
        drop(slot);
        result
    }

    /// Current cache counters.
    pub fn stats(&self) -> ElabCacheStats {
        let cache = self.inner.lock().expect("elab cache poisoned");
        ElabCacheStats {
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
            entries: text_count(&cache.map),
        }
    }

    /// Empties the cache and zeroes the counters.
    ///
    /// Concurrent in-flight elaborations are left to finish on their own
    /// condvars; only the map and counters are reset.
    pub fn reset(&self) {
        let mut cache = self.inner.lock().expect("elab cache poisoned");
        // Keep pending markers so their waiters cannot hang.
        cache.retain_pending();
        cache.hits = 0;
        cache.misses = 0;
        cache.evictions = 0;
    }
}

fn default_cache() -> &'static ElabCache {
    static CACHE: OnceLock<ElabCache> = OnceLock::new();
    CACHE.get_or_init(ElabCache::new)
}

/// [`ElabCache::elaborate`] on the process-default cache.
///
/// # Errors
///
/// Returns the parse or elaboration error message (also memoised).
pub fn elaborate_source_cached(src: &str, top: &str) -> CachedResult {
    default_cache().elaborate(src, top)
}

/// [`ElabCache::stats`] of the process-default cache.
pub fn stats() -> ElabCacheStats {
    default_cache().stats()
}

/// [`ElabCache::reset`] on the process-default cache.
pub fn reset() {
    default_cache().reset()
}

type CompiledResult = Result<Arc<CompiledDesign>, String>;

fn compiled_inner() -> &'static Mutex<ByText<CompiledResult>> {
    static CACHE: OnceLock<Mutex<ByText<CompiledResult>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Parses, elaborates **and compiles** `src` for the levelized kernel,
/// memoised process-wide.
///
/// The front half (parse + elaborate) shares [`elaborate_source_cached`]
/// — including its in-flight dedup — so the elaboration is still done
/// exactly once per distinct text; compilation itself is fast and
/// idempotent, so a plain capacity-capped memo map suffices for the
/// back half.
///
/// # Errors
///
/// Returns the parse or elaboration error message (also memoised).
pub fn compile_source_cached(src: &str, top: &str) -> CompiledResult {
    let cached = compiled_inner()
        .lock()
        .expect("compile cache poisoned")
        .get(top)
        .and_then(|of_top| of_top.get(src))
        .cloned();
    if let Some(hit) = cached {
        return hit;
    }
    let result: CompiledResult =
        elaborate_source_cached(src, top).map(|design| Arc::new(CompiledDesign::from_arc(design)));
    let mut cache = compiled_inner().lock().expect("compile cache poisoned");
    if text_count(&cache) >= ELAB_CACHE_CAPACITY {
        cache.clear();
    }
    insert_text(&mut cache, src, top, result.clone());
    result
}

// ----------------------------------------------------------------------
// Resettable compiled-simulation instances
// ----------------------------------------------------------------------

/// Retained instances per distinct (source, top) key. A campaign worker
/// runs one job at a time, so a handful of parked instances per text
/// covers bursts where several workers hit the same candidate.
pub const SIM_POOL_PER_KEY: usize = 8;

/// Why [`checkout_sim`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckoutError {
    /// The source did not parse/elaborate (memoised message).
    Build(String),
    /// The design built but oscillated during time-zero settling.
    Sim(SimError),
}

impl fmt::Display for CheckoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckoutError::Build(m) => write!(f, "{m}"),
            CheckoutError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckoutError {}

/// Counters describing instance-pool effectiveness (see
/// [`sim_pool_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimPoolStats {
    /// Successful checkouts handed to callers.
    pub checkouts: u64,
    /// Checkouts served by rewinding a parked instance instead of
    /// instantiating a fresh one.
    pub reuses: u64,
    /// Instances currently parked across all keys.
    pub parked: usize,
}

struct PoolInner {
    map: HashMap<Key, Vec<CompiledSim>>,
    checkouts: u64,
    reuses: u64,
}

fn pool_inner() -> &'static Mutex<PoolInner> {
    static POOL: OnceLock<Mutex<PoolInner>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(PoolInner { map: HashMap::new(), checkouts: 0, reuses: 0 }))
}

/// A compiled simulation checked out of the process-wide instance pool:
/// derefs to [`CompiledSim`] and parks the instance back in the pool on
/// drop, where the next [`checkout_sim`] of the same text rewinds it
/// ([`CompiledSim::reset_state`]) instead of re-instantiating.
pub struct PooledSim {
    sim: Option<CompiledSim>,
    key: Option<Key>,
}

impl PooledSim {
    /// Wraps an instance that is not pool-managed (dropped normally).
    pub fn detached(sim: CompiledSim) -> PooledSim {
        PooledSim { sim: Some(sim), key: None }
    }
}

impl Deref for PooledSim {
    type Target = CompiledSim;
    fn deref(&self) -> &CompiledSim {
        self.sim.as_ref().expect("present until drop")
    }
}

impl DerefMut for PooledSim {
    fn deref_mut(&mut self) -> &mut CompiledSim {
        self.sim.as_mut().expect("present until drop")
    }
}

impl fmt::Debug for PooledSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PooledSim").field("pooled", &self.key.is_some()).finish()
    }
}

impl Clone for PooledSim {
    /// The clone is an independent instance of the same key; both park
    /// back into the pool on drop (capacity-capped).
    fn clone(&self) -> PooledSim {
        PooledSim { sim: self.sim.clone(), key: self.key.clone() }
    }
}

impl Drop for PooledSim {
    fn drop(&mut self) {
        if let (Some(sim), Some(key)) = (self.sim.take(), self.key.take()) {
            let mut pool = pool_inner().lock().expect("sim pool poisoned");
            if pool.map.len() >= ELAB_CACHE_CAPACITY && !pool.map.contains_key(&key) {
                pool.map.clear();
            }
            let parked = pool.map.entry(key).or_default();
            if parked.len() < SIM_POOL_PER_KEY {
                parked.push(sim);
            }
        }
    }
}

/// Checks a compiled simulation for `src` out of the process-wide pool:
/// compilation is memoised ([`compile_source_cached`]) and instances
/// are reused across checkouts via [`CompiledSim::reset_state`] — the
/// campaign's metric runs over one candidate text cost two `memcpy`s
/// each instead of an arena rebuild plus a time-zero settle.
///
/// # Errors
///
/// [`CheckoutError::Build`] when the source does not parse/elaborate;
/// [`CheckoutError::Sim`] when the design oscillates at time zero
/// (such designs are never pooled — each checkout re-reports).
pub fn checkout_sim(src: &str, top: &str) -> Result<PooledSim, CheckoutError> {
    let compiled = compile_source_cached(src, top).map_err(CheckoutError::Build)?;
    let key = (src.to_string(), top.to_string());
    let parked = {
        let mut pool = pool_inner().lock().expect("sim pool poisoned");
        let parked = pool.map.get_mut(&key).and_then(Vec::pop);
        if parked.is_some() {
            pool.checkouts += 1;
            pool.reuses += 1;
            let metrics = crate::metrics::cache();
            metrics.pool_checkouts.inc();
            metrics.pool_reuses.inc();
        }
        parked
    };
    if let Some(mut sim) = parked {
        sim.reset_state();
        crate::metrics::cache().pool_resets.inc();
        return Ok(PooledSim { sim: Some(sim), key: Some(key) });
    }
    let sim = CompiledSim::from_compiled(compiled).map_err(CheckoutError::Sim)?;
    pool_inner().lock().expect("sim pool poisoned").checkouts += 1;
    crate::metrics::cache().pool_checkouts.inc();
    Ok(PooledSim { sim: Some(sim), key: Some(key) })
}

/// Current instance-pool counters.
pub fn sim_pool_stats() -> SimPoolStats {
    let pool = pool_inner().lock().expect("sim pool poisoned");
    SimPoolStats {
        checkouts: pool.checkouts,
        reuses: pool.reuses,
        parked: pool.map.values().map(Vec::len).sum(),
    }
}

/// Empties the instance pool and zeroes its counters (test isolation).
pub fn sim_pool_reset() {
    let mut pool = pool_inner().lock().expect("sim pool poisoned");
    pool.map.clear();
    pool.checkouts = 0;
    pool.reuses = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    const ADD: &str = "module add(input [7:0] a, input [7:0] b, output [8:0] y);\n\
                       assign y = a + b;\nendmodule\n";

    /// Absolute-counter assertions run on a private cache, so sibling
    /// tests elaborating through the process default cannot move them.
    #[test]
    fn cache_memoises_hits_failures_and_tops() {
        let cache = ElabCache::new();
        let before = cache.stats();
        let a = cache.elaborate(ADD, "add").unwrap();
        let b = cache.elaborate(ADD, "add").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "must share one elaboration");
        let after = cache.stats();
        assert_eq!(after.misses - before.misses, 1);
        assert!(after.hits > before.hits);

        // Failures are memoised too.
        let bad = "module broken(input a output y);\nendmodule\n";
        let e1 = cache.elaborate(bad, "broken").unwrap_err();
        let e2 = cache.elaborate(bad, "broken").unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(cache.stats().misses - after.misses, 1);

        // Distinct top modules over one source are distinct entries.
        let two = "module m1(input a, output y);\nassign y = a;\nendmodule\n\
                   module m2(input a, output y);\nassign y = ~a;\nendmodule\n";
        let d1 = cache.elaborate(two, "m1").unwrap();
        let d2 = cache.elaborate(two, "m2").unwrap();
        assert_eq!(d1.top, "m1");
        assert_eq!(d2.top, "m2");
        assert_eq!(cache.stats().entries, 4);

        // Hammer one key from many threads: still exactly one miss.
        cache.reset();
        let base = cache.stats();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        cache.elaborate(ADD, "add").unwrap();
                    }
                });
            }
        });
        let hammered = cache.stats();
        assert_eq!(hammered.misses - base.misses, 1, "one elaboration across 8 threads");
        assert_eq!(hammered.hits - base.hits, 399);
    }

    #[test]
    fn pool_reuses_instances_across_checkouts() {
        const SRC: &str = "module pooled(input clk, input rst_n, output reg [3:0] q);\n\
                           always @(posedge clk or negedge rst_n) begin\n\
                           if (!rst_n) q <= 4'd0; else q <= q + 4'd1;\nend\nendmodule\n";
        sim_pool_reset();
        let base = sim_pool_stats();
        {
            let mut sim = checkout_sim(SRC, "pooled").unwrap();
            let rst = sim.design().signal_id("rst_n").unwrap();
            let clk = sim.design().signal_id("clk").unwrap();
            sim.poke(rst, crate::Logic::bit(true)).unwrap();
            sim.poke(clk, crate::Logic::bit(true)).unwrap();
        } // parked on drop
        let after_first = sim_pool_stats();
        assert_eq!(after_first.checkouts - base.checkouts, 1);
        assert_eq!(after_first.reuses - base.reuses, 0);
        assert!(after_first.parked >= 1);
        {
            let sim = checkout_sim(SRC, "pooled").unwrap();
            // The reused instance was rewound to its fresh state.
            assert_eq!(sim.time(), 0);
            let q = sim.design().signal_id("q").unwrap();
            assert!(sim.peek(q).to_u128().is_none(), "q is X again after rewind");
        }
        let after_second = sim_pool_stats();
        assert_eq!(after_second.reuses - base.reuses, 1, "second checkout reuses the instance");

        // Build failures surface as CheckoutError::Build and are not pooled.
        let bad = "module broken3(input a output y);\nendmodule\n";
        assert!(matches!(checkout_sim(bad, "broken3"), Err(CheckoutError::Build(_))));

        // Time-zero oscillation surfaces as CheckoutError::Sim.
        let osc = "module osc3(output reg a, output reg b);\n\
                   always @(*) begin\ncase (b)\n1'b0: a = 1'b1;\ndefault: a = 1'b0;\nendcase\nend\n\
                   always @(*) begin\ncase (a)\n1'b0: b = 1'b0;\ndefault: b = 1'b1;\nendcase\nend\n\
                   endmodule\n";
        assert!(matches!(checkout_sim(osc, "osc3"), Err(CheckoutError::Sim(_))));
    }

    #[test]
    fn compiled_cache_shares_one_compilation() {
        let a = compile_source_cached(ADD, "add").unwrap();
        let b = compile_source_cached(ADD, "add").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "must share one compiled design");
        assert_eq!(a.design().top, "add");
        // Failures are memoised too, with the same message as the
        // elaboration cache.
        let bad = "module broken2(input a output y);\nendmodule\n";
        let e1 = compile_source_cached(bad, "broken2").unwrap_err();
        let e2 = elaborate_source_cached(bad, "broken2").unwrap_err();
        assert_eq!(e1, e2);
    }
}
