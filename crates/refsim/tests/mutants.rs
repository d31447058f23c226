//! Every mutant of the default dataset (seed `0xDA7A`, 331 instances),
//! and every text a default campaign judges, that elaborates, on the
//! event kernel and the reference in lockstep:
//! the environment's reset protocol, then 200 cycles of random inputs
//! staged as one time step, comparing every word of every signal — the
//! ports included — after every drive. An oscillating mutant must be
//! `Unstable` on the same drive on both sides, or on neither.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use uvllm_refsim::{lockstep, RefSim};
use uvllm_sim::{elaborate, Logic, SignalId, SimControl, SimError, Simulator};

const CYCLES: usize = 200;

/// What one mutant's run came to.
#[derive(Debug, Default)]
struct Tally {
    ran: usize,
    unstable_drives: usize,
}

/// Drives the mutant `src` of `design`; `Ok(None)` when it does not
/// elaborate, `Err` describing the first divergence.
fn check(design: &uvllm_designs::Design, src: &str, seed: u64) -> Result<Option<usize>, String> {
    let Ok(file) = uvllm_verilog::parse(src) else { return Ok(None) };
    let Ok(elaborated) = elaborate(&file, design.name) else { return Ok(None) };
    let elaborated = Arc::new(elaborated);
    let (mut kernel, mut reference) = match (
        Simulator::from_arc(Arc::clone(&elaborated)),
        RefSim::new(Arc::clone(&elaborated)),
    ) {
        (Ok(kernel), Ok(reference)) => (kernel, reference),
        (Err(a), Err(b)) if a == b => return Ok(Some(1)),
        (a, b) => return Err(format!("time zero: kernel {:?}, reference {:?}", a.err(), b.err())),
    };
    let iface = (design.iface)();
    let id = |name: &str| elaborated.signal_id(name);
    // A mutant may have lost a port; drive the ones it kept.
    let inputs: Vec<(SignalId, u32)> =
        iface.inputs.iter().filter_map(|p| Some((id(&p.name)?, p.width))).collect();
    let clock = iface.clock.as_deref().and_then(id);
    let reset = iface.reset.as_ref().and_then(|r| Some((id(&r.name)?, r.active_low)));

    let mut unstable = 0;
    let mut drive =
        |what: &str, step: &dyn Fn(&mut dyn SimControl) -> Result<(), SimError>| match lockstep(
            &mut kernel,
            &mut reference,
            step,
        ) {
            Ok(Err(SimError::Unstable { .. })) => {
                unstable += 1;
                Ok(())
            }
            Ok(_) => Ok(()),
            Err(difference) => Err(format!("{what}: {difference}")),
        };
    let poke = |id: SignalId, value: Logic| move |sim: &mut dyn SimControl| sim.poke(id, value);
    let batch = |values: Vec<(SignalId, Logic)>| {
        move |sim: &mut dyn SimControl| {
            for (id, value) in &values {
                sim.stage(*id, *value);
            }
            sim.settle()
        }
    };

    // The environment's reset phase.
    drive("zeroed inputs", &batch(inputs.iter().map(|(i, w)| (*i, Logic::zeros(*w))).collect()))?;
    if let Some((line, active_low)) = reset {
        if let Some(clk) = clock {
            drive("clock low", &poke(clk, Logic::bit(false)))?;
        }
        drive("reset asserted", &poke(line, Logic::bit(!active_low)))?;
        if let Some(clk) = clock {
            for level in [true, false, true, false] {
                drive("reset clock", &poke(clk, Logic::bit(level)))?;
            }
        }
        drive("reset released", &poke(line, Logic::bit(active_low)))?;
    }

    let mut rng = StdRng::seed_from_u64(seed);
    for cycle in 0..CYCLES {
        let values = inputs
            .iter()
            .map(|(i, w)| {
                let value = ((rng.random::<u64>() as u128) << 64) | rng.random::<u64>() as u128;
                (*i, Logic::from_u128(*w, value))
            })
            .collect();
        drive(&format!("cycle {cycle} inputs"), &batch(values))?;
        if let Some(clk) = clock {
            drive(&format!("cycle {cycle} rising"), &poke(clk, Logic::bit(true)))?;
            drive(&format!("cycle {cycle} falling"), &poke(clk, Logic::bit(false)))?;
        }
    }
    Ok(Some(unstable))
}

#[test]
#[ignore = "331 mutants on the slow reference; CI runs it in release"]
fn every_mutant_of_the_default_dataset_agrees_with_the_reference() {
    let dataset = uvllm::build_dataset(
        uvllm::dataset::PAPER_DATASET_SIZE,
        0xDA7A,
        &uvllm::StageMemo::new(),
        1,
    );
    assert_eq!(dataset.instances.len(), 331);
    let mut tally = Tally::default();
    let mut divergences = Vec::new();
    for (n, inst) in dataset.instances.iter().enumerate() {
        match check(inst.design, &inst.mutated_src, inst.seed ^ n as u64) {
            Ok(None) => {}
            Ok(Some(unstable)) => {
                tally.ran += 1;
                tally.unstable_drives += unstable;
            }
            Err(divergence) => {
                divergences.push(format!("{}: {divergence}\n{}", inst.id(), inst.mutated_src))
            }
        }
    }
    eprintln!(
        "{} of 331 mutants elaborated and ran ({} unstable drives on both sides), {} diverged",
        tally.ran + divergences.len(),
        tally.unstable_drives,
        divergences.len()
    );
    assert!(divergences.is_empty(), "{}", divergences.join("\n"));
    // Syntax-kind mutants do not parse, and some functional ones fail
    // to build on purpose (141 run at this dataset seed).
    assert!(tally.ran > 100, "only {} mutants ran", tally.ran);
}

#[test]
#[ignore = "a default campaign, then its judged texts on the slow reference; CI runs it in release"]
fn every_text_a_default_campaign_judges_agrees_with_the_reference() {
    let campaign = uvllm_campaign::Campaign::new(Default::default()).unwrap();
    let dataset = campaign.build_dataset();
    campaign.run_on(&dataset, &mut uvllm_campaign::MemorySink::new()).unwrap();
    let judged = dataset.memo().judged();
    let (mut texts, mut runs, mut divergences) = (0, 0, Vec::new());
    for (name, text, _) in &judged {
        let design = uvllm_designs::by_name(name).unwrap();
        for seed in 0..3 {
            match check(design, text, seed) {
                Ok(None) => break,
                Ok(Some(_)) => runs += 1,
                Err(divergence) => {
                    divergences.push(format!("{name}, seed {seed}: {divergence}\n{text}"))
                }
            }
            texts += usize::from(seed == 0);
        }
    }
    eprintln!(
        "{texts} of {} judged texts elaborated: {runs} runs, {} diverged",
        judged.len(),
        divergences.len()
    );
    assert!(divergences.is_empty(), "{}", divergences.join("\n"));
    // 268 texts elaborate at the default seed.
    assert!(texts > 200, "only {texts} judged texts ran");
}
