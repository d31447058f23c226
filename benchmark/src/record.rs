//! Recording one timed pass from outside the product: worker threads
//! report each finished op, the recorder cuts the pass into slices of a
//! fixed number of completions and derives every op's latency from the
//! gap to the same thread's previous completion (each worker is a closed
//! loop: it starts its next op the moment one finishes).

use crate::sys::process_cpu_seconds;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

/// What one pass measured.
#[derive(Debug, Clone, Default)]
pub struct PassRecord {
    /// Wall seconds of each slice; slice `k` covers the same work in
    /// every pass.
    pub slice_wall: Vec<f64>,
    /// Process CPU seconds (user + system, all threads) of each slice.
    pub slice_cpu: Vec<f64>,
    /// Latency in milliseconds of each op, indexed by op.
    pub op_ms: Vec<f64>,
    /// Seconds between the workers starting and each worker's last
    /// completion, summed over workers: the time the pool was busy.
    pub busy_s: f64,
    /// Ops whose output was checked, and how many were wrong.
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the pass's canonical output, for diffing simulated
    /// results across commits.
    pub digest: u64,
}

struct Inner {
    completions: usize,
    slice_start: (f64, f64),
    slice_wall: Vec<f64>,
    slice_cpu: Vec<f64>,
    last_on_thread: HashMap<ThreadId, f64>,
    ops_began: f64,
    op_ms: Vec<f64>,
}

pub struct PassRecorder {
    start: Instant,
    slice_ops: usize,
    inner: Mutex<Inner>,
}

impl PassRecorder {
    /// Starts the pass clock. A slice closes every `slice_ops`
    /// completions; the last one closes at [`PassRecorder::finish`] and
    /// so also holds whatever the pass does after its final op.
    pub fn start(ops: usize, slice_ops: usize) -> PassRecorder {
        PassRecorder {
            start: Instant::now(),
            slice_ops,
            inner: Mutex::new(Inner {
                completions: 0,
                slice_start: (0.0, process_cpu_seconds()),
                slice_wall: Vec::new(),
                slice_cpu: Vec::new(),
                last_on_thread: HashMap::new(),
                ops_began: 0.0,
                op_ms: vec![0.0; ops],
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Marks the moment the workers start pulling ops: the first op on
    /// each thread is timed from here, not from the start of the pass.
    pub fn ops_begin(&self) {
        let now = self.start.elapsed().as_secs_f64();
        self.lock().ops_began = now;
    }

    /// Reports op `op` finished on the calling thread.
    pub fn complete(&self, op: usize) {
        let thread = std::thread::current().id();
        let mut inner = self.lock();
        let now = self.start.elapsed().as_secs_f64();
        let began = inner.ops_began;
        let previous = inner.last_on_thread.insert(thread, now).unwrap_or(began);
        if let Some(slot) = inner.op_ms.get_mut(op) {
            *slot = (now - previous) * 1e3;
        }
        inner.completions += 1;
        if inner.completions.is_multiple_of(self.slice_ops) && inner.completions < inner.op_ms.len()
        {
            Self::close_slice(&mut inner, now);
        }
    }

    fn close_slice(inner: &mut Inner, now: f64) {
        let cpu = process_cpu_seconds();
        let (wall0, cpu0) = inner.slice_start;
        inner.slice_wall.push(now - wall0);
        inner.slice_cpu.push(cpu - cpu0);
        inner.slice_start = (now, cpu);
    }

    /// Ends the pass; the caller fills in the correctness fields.
    pub fn finish(self) -> PassRecord {
        let now = self.start.elapsed().as_secs_f64();
        let mut inner = self.inner.into_inner().unwrap_or_else(PoisonError::into_inner);
        Self::close_slice(&mut inner, now);
        PassRecord {
            busy_s: inner.last_on_thread.values().map(|last| last - inner.ops_began).sum(),
            slice_wall: inner.slice_wall,
            slice_cpu: inner.slice_cpu,
            op_ms: inner.op_ms,
            ..PassRecord::default()
        }
    }
}

/// FNV-1a, the digest printed as `rows_digest`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3))
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_close_on_completion_counts_and_the_last_one_at_finish() {
        let recorder = PassRecorder::start(5, 2);
        recorder.ops_begin();
        for op in [3, 0, 4, 1, 2] {
            recorder.complete(op);
        }
        let record = recorder.finish();
        assert_eq!(record.slice_wall.len(), 3, "2 + 2 + the remainder");
        assert_eq!(record.slice_cpu.len(), 3);
        assert!(record.slice_wall.iter().all(|t| *t >= 0.0));
        assert_eq!(record.op_ms.len(), 5);
    }

    #[test]
    fn a_full_last_slice_still_closes_exactly_once() {
        let recorder = PassRecorder::start(4, 2);
        recorder.ops_begin();
        (0..4).for_each(|op| recorder.complete(op));
        assert_eq!(recorder.finish().slice_wall.len(), 2);
    }

    #[test]
    fn op_latency_is_the_gap_to_the_threads_previous_completion() {
        let recorder = PassRecorder::start(3, 8);
        std::thread::sleep(std::time::Duration::from_millis(20));
        recorder.ops_begin();
        std::thread::sleep(std::time::Duration::from_millis(5));
        recorder.complete(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                recorder.complete(1);
            });
        });
        recorder.complete(2);
        let record = recorder.finish();
        assert!(record.op_ms[0] >= 5.0 && record.op_ms[0] < 20.0, "{:?}", record.op_ms);
        assert!(record.op_ms[1] >= 15.0, "first op of a thread counts from ops_begin");
        assert!(record.op_ms[2] >= 10.0, "gap since this thread's op 0");
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_F739_67E8);
    }
}
