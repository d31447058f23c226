//! The stage memo: a candidate text is analysed once per dataset.
//!
//! Everything the methods learn about a candidate text that is a pure
//! function of it — its elaboration, its lint report, what the UVM stage
//! found, whether it passes the public tests, its verdict — is kept in
//! one entry per `(design, text)`, each slot filled by its first asker. The loop of Fig. 2 re-enters every
//! stage with the text it already had whenever a repair does not apply
//! or a rollback restores the best version, UVLLM and UVLLM(comp) start
//! from the same mutant, and methods end on few distinct texts, so
//! within one dataset most stage calls repeat an earlier one. The campaign's dataset owns
//! one memo — the dataset builder's validation runs already elaborate
//! through it — and every job of that dataset, on any worker and in any
//! shard, asks it before analysing; a caller without a dataset passes a
//! fresh one.

use crate::metrics::Verdict;
use crate::stages::{localize, uvm_stage, Localized, UvmOutcome};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;
use uvllm_designs::Design;
use uvllm_lint::LintReport;
use uvllm_llm::ErrorInfo;

/// Registry handles of one slot kind, resolved once.
#[derive(Debug)]
struct SlotMetrics {
    /// Asks answered from the slot (no analysis).
    hits: &'static uvllm_obs::Counter,
    /// Asks that ran the analysis — the distinct texts analysed.
    misses: &'static uvllm_obs::Counter,
}

impl SlotMetrics {
    fn named(prefix: &str) -> SlotMetrics {
        SlotMetrics {
            hits: uvllm_obs::registry().counter(&format!("{prefix}.hits")),
            misses: uvllm_obs::registry().counter(&format!("{prefix}.misses")),
        }
    }
}

/// `campaign.stage_memo.{elab,lint,uvm,hit}.*`, `campaign.verdict_memo.*`
/// and `campaign.stage_memo.wait_us`.
#[derive(Debug)]
struct MemoMetrics {
    elab: SlotMetrics,
    lint: SlotMetrics,
    uvm: SlotMetrics,
    hit: SlotMetrics,
    verdict: SlotMetrics,
    /// Time an asker that found a slot empty spent waiting for another
    /// thread to fill it, any slot kind.
    wait_us: &'static uvllm_obs::Histogram,
}

fn metrics() -> &'static MemoMetrics {
    static METRICS: OnceLock<MemoMetrics> = OnceLock::new();
    METRICS.get_or_init(|| MemoMetrics {
        elab: SlotMetrics::named("campaign.stage_memo.elab"),
        lint: SlotMetrics::named("campaign.stage_memo.lint"),
        uvm: SlotMetrics::named("campaign.stage_memo.uvm"),
        hit: SlotMetrics::named("campaign.stage_memo.hit"),
        verdict: SlotMetrics::named("campaign.verdict_memo"),
        wait_us: uvllm_obs::registry().histogram("campaign.stage_memo.wait_us"),
    })
}

/// Records the wait of an asker that found a slot empty at `asked` and
/// got another thread's value.
fn waited_since(asked: Instant) {
    metrics().wait_us.record(asked.elapsed().as_micros() as u64);
}

/// What a candidate text was judged to be: `(hit, fix verdict)`.
pub type Judgement = (bool, Verdict);

/// A text's elaboration as its design's top module, or why it has none
/// (the parse or elaboration error message).
pub type Elaborated = Result<Arc<uvllm_sim::Design>, String>;

/// What a UVM-stage run was driven with: `(cycles, seed)` of the random
/// sequence.
type Stimulus = (usize, u64);

/// What the UVM stage found about one text under one stimulus — what
/// the loop reads, not the run: a campaign's distinct runs held whole
/// (waveform, log, every mismatch) would outweigh everything else the
/// process keeps.
#[derive(Debug)]
pub struct UvmFacts {
    text: Arc<str>,
    stimulus: Stimulus,
    score: f64,
    result: UvmResult,
    /// The suspicious lines of `text` itself, sliced on the first
    /// SL-mode ask.
    lines: OnceLock<Vec<(u32, String)>>,
}

#[derive(Debug)]
enum UvmResult {
    Passed,
    BuildFailed(String),
    Failed(Localized),
}

impl UvmFacts {
    fn of(text: Arc<str>, stimulus: Stimulus, design: &Design, outcome: UvmOutcome) -> Self {
        let score = outcome.score();
        let result = match outcome {
            UvmOutcome::BuildFailed(msg) => UvmResult::BuildFailed(msg),
            UvmOutcome::Ran(run) if run.all_passed() => UvmResult::Passed,
            UvmOutcome::Ran(run) => UvmResult::Failed(localize(design, &run)),
        };
        UvmFacts { text, stimulus, score, result, lines: OnceLock::new() }
    }

    /// The rollback score ([`UvmOutcome::score`]).
    pub fn score(&self) -> f64 {
        self.score
    }

    /// True when every checked cycle matched ([`UvmOutcome::passed`]).
    pub fn passed(&self) -> bool {
        matches!(self.result, UvmResult::Passed)
    }

    /// The error information of this run for the repair of `code`:
    /// [`crate::stages::postprocess`] of a run that failed, the
    /// diagnostic as a lint log for one that did not build,
    /// [`ErrorInfo::None`] for one that passed. `code` is the text the
    /// run was made on unless a rollback has replaced it since; the
    /// slice of the run's own text is kept.
    pub fn error_info(&self, code: &str, design: &Design, sl_mode: bool) -> ErrorInfo {
        match &self.result {
            UvmResult::Passed => ErrorInfo::None,
            // Unbuildable code: hand the diagnostic text to the repair
            // agent as a lint log.
            UvmResult::BuildFailed(msg) => ErrorInfo::LintLog(format!("%Error: dut.v:1:1: {msg}")),
            UvmResult::Failed(localized) if code == &*self.text => localized
                .error_info_from(sl_mode, || {
                    self.lines.get_or_init(|| localized.slice(code, design)).clone()
                }),
            UvmResult::Failed(localized) => localized.error_info(code, design, sl_mode),
        }
    }
}

/// Text → entry, of one design.
type ByText = HashMap<Arc<str>, Arc<Entry>>;

/// Everything known about one `(design, text)`; a slot is empty until
/// its first asker has filled it.
#[derive(Debug)]
struct Entry {
    text: Arc<str>,
    elab: OnceLock<Elaborated>,
    lint: OnceLock<Arc<LintReport>>,
    uvm: OnceLock<Arc<UvmFacts>>,
    hit: OnceLock<bool>,
    verdict: OnceLock<Judgement>,
}

/// `(design name, text)` → elaboration, lint report, UVM-stage facts,
/// hit and verdict, keyed on the full text (a hash collision would be a
/// wrong row).
///
/// Every slot is filled once, with in-flight dedup: the map lock is held
/// just long enough to find or insert the text's entry, and a caller
/// that finds another thread filling the slot it wants waits for that
/// result instead of analysing again (the wait is timed in
/// `campaign.stage_memo.wait_us`), so each `misses` counter counts
/// distinct texts at any worker count. A filler that panics leaves the
/// slot empty (the panic propagates to its caller only): the next
/// asker, or one that was waiting, fills it.
///
/// Unbounded on purpose: it holds what the jobs of the dataset that
/// owns it asked about, and is dropped with that dataset.
#[derive(Debug, Default)]
pub struct StageMemo {
    /// Design name → text → entry. Nested so a lookup borrows the text
    /// instead of building an owned key.
    entries: Mutex<HashMap<&'static str, ByText>>,
}

/// One text of a [`StageMemo`] and which of its slots are filled.
#[derive(Debug, Clone)]
pub struct Analysed {
    pub design: &'static str,
    pub text: String,
    pub elab: Option<Elaborated>,
    pub lint: Option<Arc<LintReport>>,
    pub uvm: Option<Arc<UvmFacts>>,
    pub hit: Option<bool>,
    pub verdict: Option<Judgement>,
}

impl StageMemo {
    /// An empty memo.
    pub fn new() -> StageMemo {
        StageMemo::default()
    }

    fn entry(&self, design: &'static str, text: &str) -> Arc<Entry> {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let of_design = entries.entry(design).or_default();
        match of_design.get(text) {
            Some(entry) => Arc::clone(entry),
            None => {
                let text: Arc<str> = Arc::from(text);
                let entry = Arc::new(Entry {
                    text: Arc::clone(&text),
                    elab: OnceLock::new(),
                    lint: OnceLock::new(),
                    uvm: OnceLock::new(),
                    hit: OnceLock::new(),
                    verdict: OnceLock::new(),
                });
                of_design.insert(text, Arc::clone(&entry));
                entry
            }
        }
    }

    /// `text` parsed and elaborated with `design` as its top module
    /// ([`uvllm_sim::elaborate_source`]); every simulation of the text
    /// shares the one [`uvllm_sim::Design`].
    ///
    /// # Errors
    ///
    /// The parse or elaboration error message, kept like a success.
    pub fn elaborate(&self, design: &'static str, text: &str) -> Elaborated {
        self.elaborate_with(design, text, || uvllm_sim::elaborate_source(text, design))
    }

    fn elaborate_with(
        &self,
        design: &'static str,
        text: &str,
        elaborate: impl FnOnce() -> Elaborated,
    ) -> Elaborated {
        fill(&self.entry(design, text).elab, &metrics().elab, elaborate)
    }

    /// The lint report of `text`, an implementation of `design`.
    pub fn lint(&self, design: &'static str, text: &str) -> Arc<LintReport> {
        self.lint_with(design, text, || uvllm_lint::lint(text))
    }

    fn lint_with(
        &self,
        design: &'static str,
        text: &str,
        lint: impl FnOnce() -> LintReport,
    ) -> Arc<LintReport> {
        fill(&self.entry(design, text).lint, &metrics().lint, || Arc::new(lint()))
    }

    /// What [`uvm_stage`] finds about `code` as an implementation of
    /// `design`. A slot is served only for the `(cycles, seed)` it was
    /// made with; any other stimulus is run and not kept.
    pub fn uvm_stage(
        &self,
        code: &str,
        design: &Design,
        cycles: usize,
        seed: u64,
    ) -> Arc<UvmFacts> {
        self.uvm_facts_with(code, design, (cycles, seed), || {
            uvm_stage(code, design, cycles, seed, self)
        })
    }

    fn uvm_facts_with(
        &self,
        code: &str,
        design: &Design,
        stimulus: Stimulus,
        run: impl FnOnce() -> UvmOutcome,
    ) -> Arc<UvmFacts> {
        let entry = self.entry(design.name, code);
        let facts =
            |outcome| Arc::new(UvmFacts::of(Arc::clone(&entry.text), stimulus, design, outcome));
        let mut run = Some(run);
        let kept = match entry.uvm.get() {
            Some(kept) => kept,
            None => {
                let asked = Instant::now();
                let kept = entry.uvm.get_or_init(|| {
                    facts(run.take().expect("the slot is initialised at most once")())
                });
                if run.is_some() {
                    waited_since(asked);
                }
                kept
            }
        };
        let counters = &metrics().uvm;
        match run {
            None => {
                counters.misses.inc();
                Arc::clone(kept)
            }
            Some(_) if kept.stimulus == stimulus => {
                counters.hits.inc();
                Arc::clone(kept)
            }
            Some(run) => {
                counters.misses.inc();
                facts(run())
            }
        }
    }

    /// Whether `text`, an implementation of `design`, passes the public
    /// tests, running `confirm` only if no caller has asked before
    /// ([`crate::metrics::hit_confirmed`]): a template candidate, a
    /// sample or a final text is run once whoever asks.
    pub fn hit(&self, design: &'static str, text: &str, confirm: impl FnOnce() -> bool) -> bool {
        fill(&self.entry(design, text).hit, &metrics().hit, confirm)
    }

    /// The judgement of `text` as an implementation of `design`,
    /// running `judge` only if no caller has judged this text before.
    pub fn judge(
        &self,
        design: &'static str,
        text: &str,
        judge: impl FnOnce() -> Judgement,
    ) -> Judgement {
        fill(&self.entry(design, text).verdict, &metrics().verdict, judge)
    }

    /// Every text asked about so far with its filled slots, in no
    /// particular order. Introspection for the tests that compare what
    /// two runs filled; no job reads it.
    pub fn analysed(&self) -> Vec<Analysed> {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::new();
        for (design, of_design) in entries.iter() {
            for (text, entry) in of_design {
                out.push(Analysed {
                    design,
                    text: text.to_string(),
                    elab: entry.elab.get().cloned(),
                    lint: entry.lint.get().cloned(),
                    uvm: entry.uvm.get().cloned(),
                    hit: entry.hit.get().copied(),
                    verdict: entry.verdict.get().copied(),
                });
            }
        }
        out
    }

    /// Every text judged so far as `(design name, text, judgement)`, in
    /// no particular order — what the class-preservation sweep walks.
    pub fn judged(&self) -> Vec<(&'static str, String, Judgement)> {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::new();
        for (design, of_design) in entries.iter() {
            for (text, entry) in of_design {
                if let Some(judgement) = entry.verdict.get() {
                    out.push((*design, text.to_string(), *judgement));
                }
            }
        }
        out
    }
}

/// The value of `slot`, made by `make` if this is its first asker;
/// counted as a miss when `make` ran here and as a hit otherwise
/// (waiting for another thread's `make` included, that wait also
/// timed in `campaign.stage_memo.wait_us`).
fn fill<T: Clone>(slot: &OnceLock<T>, counters: &SlotMetrics, make: impl FnOnce() -> T) -> T {
    if let Some(value) = slot.get() {
        counters.hits.inc();
        return value.clone();
    }
    let asked = Instant::now();
    let mut made_here = false;
    let value = slot
        .get_or_init(|| {
            let value = make();
            made_here = true;
            value
        })
        .clone();
    if made_here {
        counters.misses.inc();
    } else {
        counters.hits.inc();
        waited_since(asked);
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use uvllm_lint::{Diagnostic, LintCode, Severity};

    /// A slot kind under test: asks `memo` about `text` with `make`
    /// standing in for the analysis and a value derived from the `u64`
    /// it returns, and reads that `u64` back out of the slot's value.
    type Ask = fn(&StageMemo, &str, &mut dyn FnMut() -> u64) -> u64;

    fn design() -> &'static Design {
        uvllm_designs::by_name("mux4").unwrap()
    }

    fn ask_elab(memo: &StageMemo, text: &str, make: &mut dyn FnMut() -> u64) -> u64 {
        let elaborated = memo.elaborate_with(design().name, text, || Err(make().to_string()));
        elaborated.expect_err("the failure put in").parse().unwrap()
    }

    fn ask_lint(memo: &StageMemo, text: &str, make: &mut dyn FnMut() -> u64) -> u64 {
        let report = memo.lint_with(design().name, text, || LintReport {
            diagnostics: vec![Diagnostic {
                severity: Severity::Error,
                code: LintCode::Syntax,
                message: make().to_string(),
                span: uvllm_verilog::span::Span::new(0, 0),
                fix: None,
            }],
        });
        report.diagnostics[0].message.parse().unwrap()
    }

    fn ask_uvm(memo: &StageMemo, text: &str, make: &mut dyn FnMut() -> u64) -> u64 {
        let facts = memo.uvm_facts_with(text, design(), (120, 0xBEEF), || {
            UvmOutcome::BuildFailed(make().to_string())
        });
        match &facts.result {
            UvmResult::BuildFailed(msg) => msg.parse().unwrap(),
            other => panic!("expected the build failure put in, got {other:?}"),
        }
    }

    fn ask_verdict(memo: &StageMemo, text: &str, make: &mut dyn FnMut() -> u64) -> u64 {
        match memo.judge(design().name, text, || {
            (true, Verdict::Unstable { activations: make() as usize })
        }) {
            (true, Verdict::Unstable { activations }) => activations as u64,
            other => panic!("expected the judgement put in, got {other:?}"),
        }
    }

    const SLOT_KINDS: [(&str, Ask); 4] =
        [("elab", ask_elab), ("lint", ask_lint), ("uvm", ask_uvm), ("verdict", ask_verdict)];

    #[test]
    fn concurrent_askers_judge_each_key_once_and_agree() {
        const THREADS: usize = 8;
        const KEYS: usize = 16;
        for (kind, ask) in SLOT_KINDS {
            let memo = StageMemo::new();
            let made = AtomicUsize::new(0);
            let start = Barrier::new(THREADS);
            let seen: Vec<Vec<u64>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let (memo, made, start) = (&memo, &made, &start);
                        scope.spawn(move || {
                            // Each thread walks the keys in its own order.
                            let mut order: Vec<usize> = (0..KEYS).collect();
                            order.rotate_left(t * 5 % KEYS);
                            if t % 2 == 1 {
                                order.reverse();
                            }
                            start.wait();
                            let mut seen = vec![u64::MAX; KEYS];
                            for key in order {
                                seen[key] = ask(memo, &format!("text {key}"), &mut || {
                                    made.fetch_add(1, Ordering::Relaxed);
                                    // Widens the window in which the
                                    // others find this slot in flight;
                                    // the counts asserted below hold at
                                    // any timing.
                                    std::thread::sleep(std::time::Duration::from_millis(2));
                                    key as u64 * 3
                                });
                            }
                            seen
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(made.load(Ordering::Relaxed), KEYS, "{kind}: one analysis per key");
            for per_thread in &seen {
                assert_eq!(per_thread, &seen[0], "{kind}: every asker sees the one value per key");
            }
            for (key, value) in seen[0].iter().enumerate() {
                assert_eq!(*value, key as u64 * 3, "{kind}");
            }
            assert_eq!(memo.analysed().len(), KEYS, "{kind}");
        }
    }

    #[test]
    fn same_text_under_two_designs_is_two_entries() {
        let memo = StageMemo::new();
        assert_eq!(memo.judge("a", "text", || (true, Verdict::Pass)), (true, Verdict::Pass));
        assert_eq!(
            memo.judge("b", "text", || (false, Verdict::Mismatch)),
            (false, Verdict::Mismatch)
        );
        assert_eq!(memo.judge("a", "text", || unreachable!("memoised")), (true, Verdict::Pass));
        // The slots of one entry fill independently of each other.
        assert_eq!(ask_lint(&memo, "text", &mut || 7), 7);
        assert_eq!(ask_lint(&memo, "text", &mut || unreachable!("memoised")), 7);
        let of_mux4: Vec<_> =
            memo.analysed().into_iter().filter(|a| a.design == design().name).collect();
        assert_eq!(of_mux4.len(), 1);
        assert!(of_mux4[0].lint.is_some() && of_mux4[0].uvm.is_none());
        assert!(of_mux4[0].hit.is_none() && of_mux4[0].verdict.is_none());
        assert!(memo.hit("a", "text", || true));
        assert!(memo.hit("a", "text", || unreachable!("memoised")));
        assert!(!memo.hit("b", "text", || false));
        assert_eq!(memo.judged().len(), 2);
    }

    #[test]
    fn a_panicking_judge_leaves_the_key_judgeable() {
        for (kind, ask) in SLOT_KINDS {
            let memo = StageMemo::new();
            // A second asker that arrives while the first one's analysis
            // is running must take over when that analysis panics (the
            // pool catches the unwind and requeues the job; nobody may
            // wedge). The barrier puts the second asker behind the
            // first; the sleep only makes it likely to be parked on the
            // slot by the time of the panic — arriving later, it fills
            // an empty slot, and the assertions are the same.
            let in_flight = Barrier::new(2);
            std::thread::scope(|scope| {
                let first = scope.spawn(|| {
                    catch_unwind(AssertUnwindSafe(|| {
                        ask(&memo, "text", &mut || {
                            in_flight.wait();
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            panic!("analysis panicked")
                        })
                    }))
                });
                in_flight.wait();
                assert_eq!(ask(&memo, "text", &mut || 5), 5, "{kind}: the waiter takes over");
                assert!(first.join().unwrap().is_err(), "{kind}: the panic reaches its asker only");
            });
            assert_eq!(ask(&memo, "text", &mut || unreachable!("memoised")), 5, "{kind}");

            // With nobody waiting, the next asker fills the slot.
            let alone = catch_unwind(AssertUnwindSafe(|| ask(&memo, "other", &mut || panic!())));
            assert!(alone.is_err(), "{kind}");
            let other = memo.analysed().into_iter().find(|a| a.text == "other").unwrap();
            assert!(
                other.elab.is_none()
                    && other.lint.is_none()
                    && other.uvm.is_none()
                    && other.hit.is_none()
                    && other.verdict.is_none(),
                "{kind}: the slot stayed empty"
            );
            assert_eq!(ask(&memo, "other", &mut || 9), 9, "{kind}");
        }
    }

    #[test]
    fn one_elaboration_per_text_shared_and_failures_kept() {
        const ADD: &str = "module add(input [7:0] a, input [7:0] b, output [8:0] y);\n\
                           assign y = a + b;\nendmodule\n";
        let memo = StageMemo::new();
        let elaborate = |design: &'static str, text: &str, made: &AtomicUsize| {
            memo.elaborate_with(design, text, || {
                made.fetch_add(1, Ordering::Relaxed);
                uvllm_sim::elaborate_source(text, design)
            })
        };

        // Eight threads at once on one text: one elaboration, one `Arc`.
        let made = AtomicUsize::new(0);
        let start = Barrier::new(8);
        let designs: Vec<Arc<uvllm_sim::Design>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        elaborate("add", ADD, &made).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(made.load(Ordering::Relaxed), 1);
        assert!(designs.iter().all(|d| Arc::ptr_eq(d, &designs[0])), "one shared elaboration");
        assert!(Arc::ptr_eq(&memo.elaborate("add", ADD).unwrap(), &designs[0]));

        // A text that does not parse, and one that parses but does not
        // elaborate, are kept as their error messages.
        let unparsable = "module add(input a output y);\nendmodule\n";
        let undeclared = "module add(input a, output y);\nassign y = b;\nendmodule\n";
        for bad in [unparsable, undeclared] {
            let made = AtomicUsize::new(0);
            let first = elaborate("add", bad, &made).unwrap_err();
            assert_eq!(first, uvllm_sim::elaborate_source(bad, "add").unwrap_err());
            assert_eq!(elaborate("add", bad, &made).unwrap_err(), first);
            assert_eq!(made.load(Ordering::Relaxed), 1, "{first}");
        }

        // One text under two design names is two entries, each with its
        // own top module.
        let two = "module m1(input a, output y);\nassign y = a;\nendmodule\n\
                   module m2(input a, output y);\nassign y = ~a;\nendmodule\n";
        assert_eq!(memo.elaborate("m1", two).unwrap().top, "m1");
        assert_eq!(memo.elaborate("m2", two).unwrap().top, "m2");
        let entries: Vec<_> = memo.analysed().into_iter().filter(|a| a.text == two).collect();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|a| a.elab.is_some()));

        // A filler that panics leaves the slot empty for the next asker.
        let text = ADD.replace("a + b", "a - b");
        let panicked =
            catch_unwind(AssertUnwindSafe(|| memo.elaborate_with("add", &text, || panic!())));
        assert!(panicked.is_err());
        let entry = memo.analysed().into_iter().find(|a| a.text == text).unwrap();
        assert!(entry.elab.is_none());
        assert_eq!(memo.elaborate("add", &text).unwrap().top, "add");
    }

    #[test]
    fn a_uvm_slot_is_served_only_for_its_own_stimulus() {
        let d = uvllm_designs::by_name("adder_8bit").unwrap();
        let memo = StageMemo::new();
        let broken = d.source.replace("a + b", "a - b");
        let facts = |cycles, seed| memo.uvm_stage(&broken, d, cycles, seed);
        let direct = |cycles, seed| {
            let outcome = uvm_stage(&broken, d, cycles, seed, &StageMemo::new());
            UvmFacts::of(Arc::from(broken.as_str()), (cycles, seed), d, outcome)
        };
        let same = |a: &UvmFacts, b: &UvmFacts| {
            a.score == b.score
                && a.error_info(&broken, d, true) == b.error_info(&broken, d, true)
                && a.stimulus == b.stimulus
        };
        let made = facts(40, 1);
        assert!(same(&made, &direct(40, 1)));
        // Another stimulus is run, answered and not kept ...
        for (cycles, seed) in [(40, 2), (60, 1)] {
            let other = facts(cycles, seed);
            assert!(same(&other, &direct(cycles, seed)), "({cycles}, {seed})");
            assert!(!Arc::ptr_eq(&other, &made));
        }
        // ... and the slot still answers for the one it was made with.
        assert!(Arc::ptr_eq(&facts(40, 1), &made));
    }
}
