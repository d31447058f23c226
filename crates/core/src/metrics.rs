//! Evaluation metrics: Hit Rate (HR), Fix Rate (FR) and execution time
//! (§IV-A of the paper).
//!
//! * **HR** — the candidate passes the finite public test set `T_pub`
//!   (each design's directed vectors). Methods that iterate against
//!   `T_pub` can overfit it; methods whose own testbench misses the bug
//!   "pass" without repairing anything — both inflate HR exactly as the
//!   paper describes.
//! * **FR** — the mechanized stand-in for the paper's independent expert
//!   validation: the candidate must be behaviourally equivalent to the
//!   golden model under an extended differential campaign (multiple
//!   random seeds, corner patterns and the directed vectors). The
//!   campaign's first seed extends the dataset-validation run, so any
//!   instance admitted to the benchmark is guaranteed to fail FR before
//!   repair.

use crate::memo::{Elaborated, StageMemo};
use crate::stages::{environment, Stimulus};
use uvllm_designs::Design;
use uvllm_uvm::Sequence;

/// Seed of the first FR random campaign; the dataset builder validates
/// instances against a prefix of this exact stream.
pub const FR_PRIMARY_SEED: u64 = 7;
/// Cycles in the dataset-validation prefix.
pub const VALIDATION_CYCLES: usize = 150;
/// Cycles per random seed in the full FR campaign.
pub const FR_CYCLES: usize = 800;
/// Additional FR seeds beyond the primary one.
pub const FR_EXTRA_SEEDS: [u64; 2] = [8, 9];

/// How a metric run ended — the campaign's distinct outcome classes.
///
/// A run's class is that of its **first failing event**: a verdict run
/// ends at the first cycle the scoreboard rejects
/// ([`uvllm_uvm::Environment::stop_at_first_mismatch`]), so a DUT that
/// mismatches at cycle 10 and would have oscillated at cycle 500 is
/// [`Verdict::Mismatch`], and one that oscillates before any mismatch
/// is [`Verdict::Unstable`]. A verdict is a pure function of `(design,
/// text)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every checked cycle matched the golden model.
    Pass,
    /// The scoreboard rejected a cycle (the run stopped there), or the
    /// run aborted for a non-oscillation reason.
    Mismatch,
    /// The DUT oscillated before any mismatch: `SimError::Unstable`
    /// with the activation count at the simulator's cap.
    Unstable {
        /// Process activations performed before giving up.
        activations: usize,
    },
    /// The code did not parse/elaborate (or lost a required port).
    BuildFailed,
    /// The evaluation itself panicked; the campaign worker caught the
    /// unwind, quarantined the job and recorded this row instead of
    /// dying (fault isolation — see `uvllm-campaign`'s worker pool).
    WorkerPanic,
}

impl Verdict {
    /// True only for [`Verdict::Pass`].
    pub fn passed(&self) -> bool {
        matches!(self, Verdict::Pass)
    }

    /// Stable label used in campaign JSONL rows.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Mismatch => "mismatch",
            Verdict::Unstable { .. } => "unstable",
            Verdict::BuildFailed => "build-failed",
            Verdict::WorkerPanic => "worker_panic",
        }
    }
}

/// Runs a set of sequences against `elaborated`, a text elaborated as an
/// implementation of `design`, and classifies the outcome.
///
/// A verdict is a class, not a pass rate: the environment runs with
/// waveform capture disabled (nobody reads the frames) and stops at the
/// first cycle the scoreboard rejects, so a wrong candidate costs its
/// passing prefix — a handful of cycles on the corpus — and one
/// cycle's mismatch records instead of the whole stimulus. Every caller
/// (the hit and fix runs of a campaign job, the dataset builder's
/// validation run) keeps only [`Verdict::passed`] or the class.
fn run_verdict(
    elaborated: Elaborated,
    design: &Design,
    stimulus: &Stimulus,
    seqs: Vec<Box<dyn Sequence>>,
) -> Verdict {
    match environment(elaborated, design, stimulus, seqs) {
        Ok(env) => {
            let summary = env.without_waveform().stop_at_first_mismatch().run();
            match summary.unstable {
                _ if summary.all_passed() => Verdict::Pass,
                // First failing event: a mismatch recorded before the
                // abort (the clock-low settle of the rejected cycle can
                // still oscillate) classifies the run.
                Some(activations) if summary.mismatches.is_empty() => {
                    Verdict::Unstable { activations }
                }
                _ => Verdict::Mismatch,
            }
        }
        // A Sim error at construction can only be time-zero oscillation
        // (the build itself succeeded), and the engine always gives up
        // exactly at its activation cap.
        Err(uvllm_uvm::UvmError::Sim(_)) => {
            Verdict::Unstable { activations: uvllm_sim::MAX_ACTIVATIONS }
        }
        Err(_) => Verdict::BuildFailed,
    }
}

fn hit_seqs(stimulus: &Stimulus) -> Vec<Box<dyn Sequence>> {
    vec![Box::new(stimulus.public.clone())]
}

fn fr_seqs(stimulus: &Stimulus) -> Vec<Box<dyn Sequence>> {
    let mut seqs: Vec<Box<dyn Sequence>> = vec![
        Box::new(stimulus.random(FR_CYCLES, FR_PRIMARY_SEED)),
        Box::new(stimulus.corner.clone()),
        Box::new(stimulus.public.clone()),
    ];
    for seed in FR_EXTRA_SEEDS {
        seqs.push(Box::new(stimulus.random(FR_CYCLES, seed)));
    }
    seqs
}

/// Hit-Rate check: does `code` pass the public directed vectors? A
/// verdict run, asked once per text through `memo`'s hit slot — the
/// question template search, the baselines' acceptance checks and every
/// job's judgement all ask. The golden source passes by identity
/// (`metrics::tests::pristine_designs_pass_both_metrics` runs it).
pub fn hit_confirmed(design: &Design, code: &str, memo: &StageMemo) -> bool {
    memo.hit(design.name, code, || {
        let stimulus = Stimulus::of_design(design);
        code == design.source
            || run_verdict(
                memo.elaborate(design.name, code),
                design,
                &stimulus,
                hit_seqs(&stimulus),
            )
            .passed()
    })
}

/// Fix-Rate check: extended differential validation against the golden
/// model (the mechanized "expert review").
pub fn fix_confirmed(design: &Design, code: &str, memo: &StageMemo) -> bool {
    fix_verdict(design, code, memo).passed()
}

/// The full classified Fix-Rate outcome: lets campaign rows distinguish
/// "fails the differential campaign" from "oscillates" from "does not
/// build". The golden source passes by identity.
pub fn fix_verdict(design: &Design, code: &str, memo: &StageMemo) -> Verdict {
    if code == design.source {
        return Verdict::Pass;
    }
    let stimulus = Stimulus::of_design(design);
    run_verdict(memo.elaborate(design.name, code), design, &stimulus, fr_seqs(&stimulus))
}

/// The quick validation run used by the dataset builder: a strict prefix
/// of the FR campaign, so "fails validation" implies "fails FR".
pub fn mutant_is_detectable(design: &Design, code: &str, memo: &StageMemo) -> bool {
    let stimulus = Stimulus::of_design(design);
    let seqs: Vec<Box<dyn Sequence>> = vec![
        Box::new(stimulus.random(VALIDATION_CYCLES, FR_PRIMARY_SEED)),
        Box::new(stimulus.corner.clone()),
    ];
    !run_verdict(memo.elaborate(design.name, code), design, &stimulus, seqs).passed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvllm_designs::by_name;
    use uvllm_uvm::Environment;

    /// Every golden source passes the hit and the FR sequences when run,
    /// so judging it by identity is the same verdict.
    #[test]
    fn pristine_designs_pass_both_metrics() {
        let memo = StageMemo::new();
        for d in uvllm_designs::all() {
            let stimulus = Stimulus::of_design(d);
            let run = |seqs| run_verdict(memo.elaborate(d.name, d.source), d, &stimulus, seqs);
            assert_eq!(run(hit_seqs(&stimulus)), Verdict::Pass, "{} HR", d.name);
            assert_eq!(run(fr_seqs(&stimulus)), Verdict::Pass, "{} FR", d.name);
            assert!(hit_confirmed(d, d.source, &memo) && fix_confirmed(d, d.source, &memo));
        }
    }

    #[test]
    fn carry_bug_passes_hr_but_fails_fr() {
        let memo = StageMemo::new();
        // The weak directed vectors of adder_8bit never produce a carry,
        // so a broken carry chain "hits" but is not "fixed" — the
        // HR-vs-FR gap of Figures 5/6 in one test.
        let d = by_name("adder_8bit").unwrap();
        let buggy = d.source.replace(
            "assign {cout, sum} = a + b + {7'd0, cin};",
            "assign sum = a + b + {7'd0, cin};\nassign cout = 1'b0;",
        );
        assert_ne!(buggy, d.source);
        assert!(hit_confirmed(d, &buggy, &memo), "weak tests should miss the bug");
        assert!(!fix_confirmed(d, &buggy, &memo), "differential campaign must catch it");
    }

    #[test]
    fn syntax_broken_code_fails_both() {
        let memo = StageMemo::new();
        let d = by_name("mux4").unwrap();
        let broken = d.source.replace(';', "");
        assert!(!hit_confirmed(d, &broken, &memo));
        assert!(!fix_confirmed(d, &broken, &memo));
    }

    /// adder_8bit with a cross-coupled pair that oscillates when `a`
    /// and `b` are both all-ones — the second corner pattern, cycle 801
    /// of the FR stimulus — around `carry`, the expression for `cout`.
    fn oscillating_adder(carry: &str) -> String {
        format!(
            "module adder_8bit(\n  input [7:0] a,\n  input [7:0] b,\n  input cin,\n  \
             output [7:0] sum,\n  output cout\n);\nwire [8:0] full;\nwire trig;\nreg p;\nreg q;\n\
             assign full = a + b + {{8'd0, cin}};\nassign sum = full[7:0] ^ {{7'd0, p}};\n\
             assign cout = {carry};\nassign trig = (a == 8'hFF) && (b == 8'hFF);\n\
             always @(*) begin\nif (trig) begin\ncase (q)\n1'b0: p = 1'b1;\n\
             default: p = 1'b0;\nendcase\nend else\np = 1'b0;\nend\n\
             always @(*) begin\nif (trig) begin\ncase (p)\n1'b0: q = 1'b0;\n\
             default: q = 1'b1;\nendcase\nend else\nq = 1'b0;\nend\nendmodule\n"
        )
    }

    /// The FR stimulus run to its end, as `(mismatches, unstable)`.
    fn unstopped_fr_run(d: &Design, code: &str) -> (usize, Option<usize>) {
        let env = Environment::from_source(
            code,
            d.name,
            (d.iface)(),
            (d.model)(),
            fr_seqs(&Stimulus::of_design(d)),
        )
        .expect("env");
        let summary = env.without_waveform().run();
        (summary.mismatches.len(), summary.unstable)
    }

    #[test]
    fn oscillation_before_any_mismatch_is_unstable() {
        let memo = StageMemo::new();
        let d = by_name("adder_8bit").unwrap();
        let code = oscillating_adder("full[8]");
        assert_eq!(unstopped_fr_run(d, &code), (0, Some(uvllm_sim::MAX_ACTIVATIONS)));
        assert_eq!(
            fix_verdict(d, &code, &memo),
            Verdict::Unstable { activations: uvllm_sim::MAX_ACTIVATIONS }
        );
        assert!(hit_confirmed(d, &code, &memo), "the public vectors never reach the oscillation");
    }

    #[test]
    fn a_run_is_classed_by_its_first_failing_event() {
        let memo = StageMemo::new();
        // The carry is dropped, so the random stimulus mismatches within
        // a few cycles; the oscillation waits at cycle 801. Run to the
        // end, the stimulus meets both (the order `run_verdict` used to
        // test them in made that `Unstable`); a verdict run stops at the
        // mismatch, and that is its class.
        let d = by_name("adder_8bit").unwrap();
        let code = oscillating_adder("1'b0");
        let (mismatches, unstable) = unstopped_fr_run(d, &code);
        assert!(mismatches > 0);
        assert_eq!(unstable, Some(uvllm_sim::MAX_ACTIVATIONS));
        assert_eq!(fix_verdict(d, &code, &memo), Verdict::Mismatch);
    }

    #[test]
    fn validation_prefix_implies_fr_failure() {
        let memo = StageMemo::new();
        // Any mutant flagged by the validation run must also fail FR.
        let d = by_name("counter_12").unwrap();
        let buggy = d.source.replace("4'd11", "4'd13");
        if mutant_is_detectable(d, &buggy, &memo) {
            assert!(!fix_confirmed(d, &buggy, &memo));
        }
    }
}
