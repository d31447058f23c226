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

use crate::elab::{elaborate, Design};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Ready-entry cap; reaching it clears the ready entries (simple, and
/// far above the working set of a campaign round).
pub const ELAB_CACHE_CAPACITY: usize = 4096;

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

/// Benchmark compatibility; goes with the next `benchmark` PR. There
/// is no simulator pool left to empty.
#[doc(hidden)]
pub fn sim_pool_reset() {}

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
}
