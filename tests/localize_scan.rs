//! `localize` stops reading the UVM log once no later line can add a
//! record. For every distinct text the UVLLM methods put through the UVM
//! stage on the default dataset, the error information it gives — and
//! the one the dataset's memo gives for the same run — must be what a
//! scan of the whole log gives.
//!
//! The to-the-end side is written out here on purpose: it is the
//! oracle, so it shares no code with the function it checks.

use std::collections::BTreeMap;
use uvllm::stages::{postprocess, uvm_stage, UvmOutcome, MAX_MISMATCH_RECORDS};
use uvllm::VerifyConfig;
use uvllm_campaign::{Campaign, CampaignConfig, MemorySink, MethodKind};
use uvllm_designs::Design;
use uvllm_llm::{ErrorInfo, MismatchInfo};
use uvllm_uvm::{RunSummary, UvmLog};

/// Algorithm 2 over every mismatch line of the rendered log.
fn whole_log_info(code: &str, design: &Design, run: &RunSummary, sl_mode: bool) -> ErrorInfo {
    let rendered = run.log.render();
    let parsed = UvmLog::parse_mismatches(&rendered);
    if parsed.is_empty() {
        let lines: Vec<&str> = rendered.lines().collect();
        return ErrorInfo::RawLog(lines[lines.len().saturating_sub(10)..].join("\n"));
    }
    let iface = (design.iface)();
    let mut records: Vec<MismatchInfo> = Vec::new();
    let mut kept_of: BTreeMap<&str, usize> = BTreeMap::new();
    for (time, signal, expected, actual) in &parsed {
        let kept = kept_of.entry(signal).or_default();
        if records.len() >= MAX_MISMATCH_RECORDS || *kept >= 2 {
            continue;
        }
        *kept += 1;
        let input_values = iface
            .inputs
            .iter()
            .filter_map(|p| {
                run.waveform.value_at(&p.name, *time).map(|v| (p.name.clone(), v.to_string()))
            })
            .collect();
        records.push(MismatchInfo {
            time: *time,
            signal: signal.clone(),
            expected: expected.clone(),
            actual: actual.clone(),
            input_values,
        });
    }
    if !sl_mode {
        return ErrorInfo::MismatchSignals(records);
    }
    let mut signals: Vec<String> = records.iter().map(|m| m.signal.clone()).collect();
    signals.dedup();
    let lines = uvllm_verilog::parse(code)
        .ok()
        .and_then(|file| {
            let snapshot = run.waveform.snapshot_at(records[0].time);
            file.module(design.name)
                .map(|module| uvllm_dfg::suspicious_lines(module, code, &signals, &snapshot))
        })
        .unwrap_or_default();
    ErrorInfo::SuspiciousLines { signals: records, lines }
}

#[test]
fn localize_agrees_with_a_scan_of_the_whole_log_on_the_default_corpus() {
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
    let halves = staged.split_at(staged.len() / 2);
    let (failing, stopped_early) = std::thread::scope(|scope| {
        let workers: Vec<_> = [halves.0, halves.1]
            .into_iter()
            .map(|half| {
                let (cfg, memo) = (&cfg, dataset.memo());
                scope.spawn(move || {
                    let (mut failing, mut stopped_early) = (0usize, 0usize);
                    for analysed in half {
                        let design = uvllm_designs::by_name(analysed.design).unwrap();
                        let code = &analysed.text;
                        let UvmOutcome::Ran(run) =
                            uvm_stage(code, design, cfg.uvm_cycles, cfg.uvm_seed, memo)
                        else {
                            continue;
                        };
                        if run.all_passed() {
                            continue;
                        }
                        failing += 1;
                        let facts = analysed.uvm.as_ref().unwrap();
                        for sl_mode in [false, true] {
                            let whole = whole_log_info(code, design, &run, sl_mode);
                            let name = analysed.design;
                            assert_eq!(
                                postprocess(code, design, &run, sl_mode),
                                whole,
                                "{name}, sl {sl_mode}:\n{code}"
                            );
                            assert_eq!(
                                facts.error_info(code, design, sl_mode, memo),
                                whole,
                                "memo, {name}, sl {sl_mode}:\n{code}"
                            );
                        }
                        if let ErrorInfo::MismatchSignals(kept) =
                            whole_log_info(code, design, &run, false)
                        {
                            stopped_early += usize::from(run.mismatches.len() > kept.len());
                        }
                    }
                    (failing, stopped_early)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    });
    assert!(failing > 300, "{failing} failing runs compared");
    assert!(stopped_early > failing / 2, "the early stop is exercised: {stopped_early}");
}
