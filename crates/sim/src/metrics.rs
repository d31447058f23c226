//! Registry handles for the simulation layer, resolved once and shared.
//!
//! Kernel instrumentation follows the `uvllm-obs` contract: each
//! simulator instance captures its kernel's handle struct at
//! construction, tallies its work in plain fields of its own and adds
//! them to the registry once, when it drops — a handful of relaxed
//! atomic adds per simulator, each into the dropping thread's own cell
//! of the counter. So the steady-state cycle loop stays allocation-free
//! and atomic-free, and workers share no cache line. The price: a
//! `sim.event.*` read sees the simulators that have dropped, not the
//! live ones.

use std::sync::OnceLock;
use uvllm_obs::{registry, Counter};

/// Event-kernel counters (`sim.event.*`).
#[derive(Debug)]
pub(crate) struct EventKernelMetrics {
    /// Drives of [`crate::sched::Simulator`]: one per settle and per
    /// poke that changed a value or had staged values to drain, whether
    /// or not any process had to run. A stage counts nothing. Like the
    /// other three, added when the simulator drops.
    pub settles: &'static Counter,
    /// Process activations executed.
    pub activations: &'static Counter,
    /// Events enqueued into the active set (triggered process
    /// scheduling, including sweep seeds).
    pub events: &'static Counter,
    /// Non-blocking assignments committed at delta boundaries.
    pub nba_commits: &'static Counter,
}

pub(crate) fn event_kernel() -> &'static EventKernelMetrics {
    static METRICS: OnceLock<EventKernelMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EventKernelMetrics {
        settles: registry().counter("sim.event.settles"),
        activations: registry().counter("sim.event.activations"),
        events: registry().counter("sim.event.events"),
        nba_commits: registry().counter("sim.event.nba_commits"),
    })
}

/// `sim.elaborations`: calls of [`crate::elaborate`], failed ones
/// included.
pub(crate) fn elaborations() -> &'static Counter {
    static COUNTER: OnceLock<&'static Counter> = OnceLock::new();
    COUNTER.get_or_init(|| registry().counter("sim.elaborations"))
}
