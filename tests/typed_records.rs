//! A run records only what its reader reads; these sweeps check that
//! each reader still gets what it got from the whole run.
//!
//! * Post-processing reads the typed mismatch records of a run whose
//!   waveform holds frames only at the kept records. For every distinct
//!   text the UVLLM methods put through the UVM stage on the default
//!   dataset, that must equal Algorithm 2 done the old way: render the
//!   log, parse each mismatch line back, and read a waveform with a frame
//!   for every cycle.
//! * Yes/no public-test questions are verdict runs that stop at the
//!   first mismatch. For every text a default campaign asked one about —
//!   every template candidate tried, every sample, every final text — the
//!   answer must be whether the directed public run, to its last cycle,
//!   passes.
//!
//! The oracles are written out here on purpose: they share no code with
//! the functions they check.

use std::collections::BTreeMap;
use uvllm::stages::{directed_stage, localize, uvm_stage, UvmOutcome, MAX_MISMATCH_RECORDS};
use uvllm::VerifyConfig;
use uvllm_campaign::{Campaign, CampaignConfig, MemorySink, MethodKind};
use uvllm_designs::Design;
use uvllm_llm::{ErrorInfo, MismatchInfo};
use uvllm_uvm::{CornerSequence, Environment, RandomSequence, RunSummary, Sequence, UvmLog};

/// The UVM stage's run of `code`, to its end with a frame every cycle.
fn full_waveform_run(code: &str, design: &Design, cfg: &VerifyConfig) -> Option<RunSummary> {
    let iface = (design.iface)();
    let seqs: Vec<Box<dyn Sequence>> = vec![
        Box::new(RandomSequence::new(&iface.inputs, cfg.uvm_cycles, cfg.uvm_seed)),
        Box::new(CornerSequence::new(&iface.inputs)),
    ];
    let env = Environment::from_source(code, design.name, iface, (design.model)(), seqs).ok()?;
    Some(env.run())
}

/// Algorithm 2 as it read a run before the records were typed: each
/// rendered log line through `parse_mismatch_line`, stopping once five
/// records are kept or every output has two, input values and the
/// slice's snapshot from `run`'s waveform.
fn parsed_log_info(code: &str, design: &Design, run: &RunSummary, sl_mode: bool) -> ErrorInfo {
    let iface = (design.iface)();
    let rendered = run.log.render();
    let mut records: Vec<MismatchInfo> = Vec::new();
    let mut kept_of: BTreeMap<String, usize> = BTreeMap::new();
    let mut full_ports = 0;
    for line in rendered.lines() {
        let Some((time, signal, expected, actual)) = UvmLog::parse_mismatch_line(line) else {
            continue;
        };
        let kept = kept_of.entry(signal.clone()).or_default();
        if *kept >= 2 {
            continue;
        }
        *kept += 1;
        if *kept == 2 && iface.outputs.iter().any(|p| p.name == signal) {
            full_ports += 1;
        }
        let input_values = iface
            .inputs
            .iter()
            .filter_map(|p| {
                run.waveform.value_at(&p.name, time).map(|v| (p.name.clone(), v.to_string()))
            })
            .collect();
        records.push(MismatchInfo { time, signal, expected, actual, input_values });
        if records.len() >= MAX_MISMATCH_RECORDS || full_ports == iface.outputs.len() {
            break;
        }
    }
    if records.is_empty() {
        let lines: Vec<&str> = rendered.lines().collect();
        return ErrorInfo::RawLog(lines[lines.len().saturating_sub(10)..].join("\n"));
    }
    if !sl_mode {
        return ErrorInfo::MismatchSignals(records);
    }
    let mut signals: Vec<String> = records.iter().map(|m| m.signal.clone()).collect();
    signals.dedup();
    let snapshot = run.waveform.snapshot_at(records[0].time);
    let lines = uvllm_verilog::parse(code)
        .ok()
        .and_then(|file| {
            file.module(design.name)
                .map(|module| uvllm_dfg::suspicious_lines(module, code, &signals, &snapshot))
        })
        .unwrap_or_default();
    ErrorInfo::SuspiciousLines { signals: records, lines }
}

/// `items` split over two scoped threads, `check` returning a count
/// per item; the counts summed.
fn on_two_threads<T: Sync>(items: &[T], check: impl Fn(&T) -> usize + Sync) -> usize {
    let (a, b) = items.split_at(items.len() / 2);
    std::thread::scope(|scope| {
        let workers: Vec<_> = [a, b]
            .into_iter()
            .map(|half| {
                let check = &check;
                scope.spawn(move || half.iter().map(check).sum::<usize>())
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    })
}

#[test]
fn typed_records_localize_like_a_parsed_log_over_a_full_waveform() {
    let config = CampaignConfig {
        methods: vec![MethodKind::Uvllm, MethodKind::UvllmComplete],
        workers: 2,
        ..CampaignConfig::default()
    };
    let campaign = Campaign::new(config).unwrap();
    let dataset = campaign.build_dataset();
    campaign.run_on(&dataset, &mut MemorySink::new()).unwrap();
    let staged: Vec<_> =
        dataset.memo().analysed().into_iter().filter(|a| a.uvm.is_some()).collect();
    assert_eq!(staged.len(), 659, "distinct texts through the UVM stage");

    let cfg = VerifyConfig::default();
    let failing = on_two_threads(&staged, |analysed| {
        let design = uvllm_designs::by_name(analysed.design).unwrap();
        let code = &analysed.text;
        let UvmOutcome::Ran(run) =
            uvm_stage(code, design, cfg.uvm_cycles, cfg.uvm_seed, dataset.memo())
        else {
            return 0;
        };
        let full = full_waveform_run(code, design, &cfg).expect("the stage's run built");
        let name = analysed.design;
        // The full run, its pass rate and its log do not change.
        assert_eq!(run.log, full.log, "{name}:\n{code}");
        assert_eq!(run.log.render(), full.log.render(), "{name}:\n{code}");
        assert_eq!(run.mismatches, full.mismatches, "{name}:\n{code}");
        assert_eq!(run.pass_rate, full.pass_rate, "{name}:\n{code}");
        assert_eq!(run.cycles, full.cycles, "{name}:\n{code}");
        if run.all_passed() {
            assert!(run.waveform.is_empty(), "{name}: a passing run records no frame");
            return 0;
        }
        assert!(run.waveform.len() <= MAX_MISMATCH_RECORDS, "{name}: {}", run.waveform.len());
        let localized = localize(design, &run);
        for sl_mode in [false, true] {
            let oracle = parsed_log_info(code, design, &full, sl_mode);
            assert_eq!(
                localized.error_info(code, design, sl_mode),
                oracle,
                "{name}, sl {sl_mode}:\n{code}"
            );
            if let ErrorInfo::SuspiciousLines { signals, .. } = &oracle {
                let t = signals[0].time;
                assert_eq!(run.waveform.snapshot_at(t), full.waveform.snapshot_at(t), "{name}");
            }
        }
        1
    });
    assert!(failing > 300, "{failing} failing runs compared");
}

#[test]
fn every_hit_asked_equals_passing_the_directed_run_to_its_end() {
    let campaign =
        Campaign::new(CampaignConfig { workers: 2, ..CampaignConfig::default() }).unwrap();
    let dataset = campaign.build_dataset();
    campaign.run_on(&dataset, &mut MemorySink::new()).unwrap();
    let asked: Vec<_> = dataset.memo().analysed().into_iter().filter(|a| a.hit.is_some()).collect();
    assert!(asked.len() > 2000, "{} texts asked about", asked.len());
    let passing = on_two_threads(&asked, |analysed| {
        let design = uvllm_designs::by_name(analysed.design).unwrap();
        let code = &analysed.text;
        let whole = matches!(
            directed_stage(code, design, dataset.memo()),
            UvmOutcome::Ran(run) if run.all_passed()
        );
        assert_eq!(analysed.hit, Some(whole), "{}:\n{code}", analysed.design);
        usize::from(whole)
    });
    assert!(passing > 0 && passing < asked.len(), "{passing} of {} pass", asked.len());
}
