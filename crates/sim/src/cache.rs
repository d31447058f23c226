//! Benchmark compatibility; goes with the next `benchmark` PR.
//!
//! There is no process-wide elaboration cache: a campaign keeps each
//! text's elaboration in its dataset's stage memo, and
//! [`crate::elaborate_source`] is the one uncached way in. These names
//! stay only because the benchmark harness calls them.

use crate::elab::Design;
use std::sync::Arc;

/// Benchmark compatibility; goes with the next `benchmark` PR. Always
/// zero: nothing is cached.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ElabCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: usize,
}

/// Benchmark compatibility; goes with the next `benchmark` PR.
///
/// # Errors
///
/// As [`crate::elaborate_source`].
#[doc(hidden)]
pub fn elaborate_source_cached(src: &str, top: &str) -> Result<Arc<Design>, String> {
    crate::elaborate_source(src, top)
}

/// Benchmark compatibility; goes with the next `benchmark` PR.
#[doc(hidden)]
pub fn stats() -> ElabCacheStats {
    ElabCacheStats::default()
}

/// Benchmark compatibility; goes with the next `benchmark` PR.
#[doc(hidden)]
pub fn reset() {}

/// Benchmark compatibility; goes with the next `benchmark` PR.
#[doc(hidden)]
pub fn sim_pool_reset() {}
