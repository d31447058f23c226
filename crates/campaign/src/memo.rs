//! The verdict memo: a candidate text is judged once per dataset.
//!
//! Campaign jobs end on few distinct texts — the golden text after a
//! successful repair, the untouched mutant after a failed one — and a
//! verdict is a pure function of `(design, text)` by the determinism
//! contract, so [`CampaignDataset`](crate::CampaignDataset) owns one
//! memo and every job of that dataset, on any worker and in any shard,
//! asks it before simulating.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use uvllm::Verdict;

/// Registry handles for the memo (`campaign.verdict_memo.*`), resolved
/// once.
#[derive(Debug)]
struct MemoMetrics {
    /// Verdicts answered from the memo (no simulation).
    hits: &'static uvllm_obs::Counter,
    /// Verdicts that ran their judge — the distinct texts judged.
    misses: &'static uvllm_obs::Counter,
}

fn metrics() -> &'static MemoMetrics {
    static METRICS: OnceLock<MemoMetrics> = OnceLock::new();
    METRICS.get_or_init(|| MemoMetrics {
        hits: uvllm_obs::registry().counter("campaign.verdict_memo.hits"),
        misses: uvllm_obs::registry().counter("campaign.verdict_memo.misses"),
    })
}

/// What a candidate text was judged to be: `(hit, fix verdict)`.
pub type Judgement = (bool, Verdict);

/// One memo entry; empty while its first asker is still judging.
type Cell = Arc<OnceLock<Judgement>>;

/// `(design name, final text)` → [`Judgement`], keyed on the full text
/// like the elaboration cache (a hash collision would be a wrong row).
///
/// Unbounded on purpose: it holds at most one entry per job of the
/// dataset that owns it, and is dropped with that dataset.
#[derive(Debug, Default)]
pub struct VerdictMemo {
    /// Design name → text → cell. Nested so a lookup borrows the text
    /// instead of building an owned key.
    cells: Mutex<HashMap<&'static str, HashMap<String, Cell>>>,
}

impl VerdictMemo {
    /// An empty memo.
    pub fn new() -> VerdictMemo {
        VerdictMemo::default()
    }

    /// The judgement of `text` as an implementation of `design`,
    /// running `judge` only if no caller has judged this text before.
    ///
    /// The map lock is held just long enough to find or insert the
    /// text's cell; a caller that finds another thread judging the same
    /// text waits for that result instead of judging it again, so
    /// `campaign.verdict_memo.misses` counts distinct texts at any
    /// worker count. A `judge` that panics leaves the cell empty (the
    /// panic propagates to its caller only): the next asker, or one
    /// that was waiting, judges the text itself.
    pub fn judge(
        &self,
        design: &'static str,
        text: &str,
        judge: impl FnOnce() -> Judgement,
    ) -> Judgement {
        let cell = {
            let mut cells = self.cells.lock().unwrap_or_else(PoisonError::into_inner);
            let of_design = cells.entry(design).or_default();
            match of_design.get(text) {
                Some(cell) => Arc::clone(cell),
                None => {
                    let cell = Cell::default();
                    of_design.insert(text.to_string(), Arc::clone(&cell));
                    cell
                }
            }
        };
        let mut judged_here = false;
        let judgement = *cell.get_or_init(|| {
            let judgement = judge();
            judged_here = true;
            judgement
        });
        if judged_here {
            metrics().misses.inc();
        } else {
            metrics().hits.inc();
        }
        judgement
    }

    /// Every text judged so far as `(design name, text, judgement)`, in
    /// no particular order — what the class-preservation sweep walks.
    pub fn judged(&self) -> Vec<(&'static str, String, Judgement)> {
        let cells = self.cells.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::new();
        for (design, of_design) in cells.iter() {
            for (text, cell) in of_design {
                if let Some(judgement) = cell.get() {
                    out.push((*design, text.clone(), *judgement));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn concurrent_askers_judge_each_key_once_and_agree() {
        const THREADS: usize = 8;
        const KEYS: usize = 16;
        let memo = VerdictMemo::new();
        let judged = AtomicUsize::new(0);
        let start = Barrier::new(THREADS);
        let seen: Vec<Vec<Judgement>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (memo, judged, start) = (&memo, &judged, &start);
                    scope.spawn(move || {
                        // Each thread walks the keys in its own order.
                        let mut order: Vec<usize> = (0..KEYS).collect();
                        order.rotate_left(t * 5 % KEYS);
                        if t % 2 == 1 {
                            order.reverse();
                        }
                        start.wait();
                        let mut seen = vec![(false, Verdict::BuildFailed); KEYS];
                        for key in order {
                            seen[key] = memo.judge("design", &format!("text {key}"), || {
                                judged.fetch_add(1, Ordering::Relaxed);
                                // Widens the window in which the others
                                // find this cell in flight; the counts
                                // asserted below hold at any timing.
                                std::thread::sleep(std::time::Duration::from_millis(2));
                                (key % 2 == 0, Verdict::Unstable { activations: key })
                            });
                        }
                        seen
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(judged.load(Ordering::Relaxed), KEYS, "one judge run per key");
        for per_thread in &seen {
            assert_eq!(per_thread, &seen[0], "every asker sees the one value per key");
        }
        for (key, judgement) in seen[0].iter().enumerate() {
            assert_eq!(*judgement, (key % 2 == 0, Verdict::Unstable { activations: key }));
        }
        assert_eq!(memo.judged().len(), KEYS);
    }

    #[test]
    fn same_text_under_two_designs_is_two_entries() {
        let memo = VerdictMemo::new();
        assert_eq!(memo.judge("a", "text", || (true, Verdict::Pass)), (true, Verdict::Pass));
        assert_eq!(
            memo.judge("b", "text", || (false, Verdict::Mismatch)),
            (false, Verdict::Mismatch)
        );
        assert_eq!(memo.judge("a", "text", || unreachable!("memoised")), (true, Verdict::Pass));
    }

    #[test]
    fn a_panicking_judge_leaves_the_key_judgeable() {
        let memo = VerdictMemo::new();
        // A second asker that arrives while the first one's judge is
        // running must take over when that judge panics (the pool
        // catches the unwind and requeues the job; nobody may wedge).
        // The barrier puts the second asker behind the first; the sleep
        // only makes it likely to be parked on the cell by the time of
        // the panic — arriving later, it judges an empty cell, and the
        // assertions are the same.
        let in_flight = Barrier::new(2);
        std::thread::scope(|scope| {
            let first = scope.spawn(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    memo.judge("design", "text", || {
                        in_flight.wait();
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        panic!("judge panicked")
                    })
                }))
            });
            in_flight.wait();
            let waiter = memo.judge("design", "text", || (true, Verdict::Pass));
            assert_eq!(waiter, (true, Verdict::Pass));
            assert!(first.join().unwrap().is_err(), "the panic reaches the first asker only");
        });
        assert_eq!(
            memo.judge("design", "text", || unreachable!("memoised")),
            (true, Verdict::Pass)
        );

        // With nobody waiting, the next asker judges.
        let alone = catch_unwind(AssertUnwindSafe(|| memo.judge("design", "other", || panic!())));
        assert!(alone.is_err());
        assert!(memo.judged().iter().all(|(_, text, _)| text != "other"));
        assert_eq!(
            memo.judge("design", "other", || (false, Verdict::Mismatch)).1,
            Verdict::Mismatch
        );
    }
}
