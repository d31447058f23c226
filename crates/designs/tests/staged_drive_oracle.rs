//! `Driver::drive_resolved` against the driver it replaced, on every
//! golden design: staging a cycle's inputs as one time step and
//! settling once must leave every output port, every cycle, exactly
//! where one `poke` per port in interface order left it. The old driver
//! lives on here as the oracle.
//!
//! This is what "invisible on a design whose combinational processes
//! are complete-sensitivity and idempotent" means for the 27 goldens.

use uvllm_sim::{Logic, SignalId, SimError, Simulator};
use uvllm_uvm::{Driver, RandomSequence, Sequence, Transaction};

/// Random cycles per design.
const CYCLES: usize = 4000;

/// The pre-staging driver, written out: every port poked — and so
/// propagated — on its own, in interface order.
fn drive_port_by_port(
    sim: &mut Simulator,
    ports: &[(String, SignalId, u32)],
    txn: &Transaction,
) -> Result<(), SimError> {
    for (name, id, width) in ports {
        let v = txn.get(name).copied().unwrap_or_else(|| Logic::zeros(*width));
        sim.poke(*id, v.resize(*width))?;
    }
    Ok(())
}

#[test]
fn staged_drive_matches_port_by_port_pokes_on_every_golden_design() {
    for d in uvllm_designs::all() {
        let iface = (d.iface)();
        let design = uvllm_sim::elaborate_source(d.source, d.name).expect("golden");
        let id = |name: &str| design.signal_id(name).expect("interface port");
        let ports: Vec<_> =
            iface.inputs.iter().map(|p| (p.name.clone(), id(&p.name), p.width)).collect();
        let outputs: Vec<_> =
            iface.outputs.iter().map(|p| (p.name.as_str(), id(&p.name))).collect();
        let clock = iface.clock.as_deref().map(id);
        let reset = iface.reset.as_ref().map(|r| (id(&r.name), r.active_low));

        let ctx = d.name;
        let mut poked = Simulator::from_arc(design.clone()).expect("stable at time 0");
        let mut staged = poked.clone();

        // The environment's reset phase on both, inputs zeroed by
        // the driver under test.
        let zeros = Transaction::new();
        drive_port_by_port(&mut poked, &ports, &zeros).unwrap();
        Driver.drive_resolved(&mut staged, &ports, &zeros).unwrap();
        for sim in [&mut poked, &mut staged] {
            let Some((line, active_low)) = reset else { continue };
            if let Some(clk) = clock {
                sim.poke(clk, Logic::bit(false)).unwrap();
            }
            sim.poke(line, Logic::bit(!active_low)).unwrap();
            if let Some(clk) = clock {
                for level in [true, false, true, false] {
                    sim.poke(clk, Logic::bit(level)).unwrap();
                }
            }
            sim.poke(line, Logic::bit(active_low)).unwrap();
        }

        let mut sequence = RandomSequence::new(&iface.inputs, CYCLES, 0x57A6ED);
        let mut txn = Transaction::new();
        let mut cycle = 0;
        while sequence.next_into(cycle, &mut txn) {
            drive_port_by_port(&mut poked, &ports, &txn).unwrap();
            Driver.drive_resolved(&mut staged, &ports, &txn).unwrap();
            if let Some(clk) = clock {
                poked.poke(clk, Logic::bit(true)).unwrap();
                staged.poke(clk, Logic::bit(true)).unwrap();
            }
            for (name, port) in &outputs {
                assert_eq!(
                    staged.peek(*port),
                    poked.peek(*port),
                    "{ctx}: output '{name}', cycle {cycle}: staged (left) vs port by port (right)"
                );
            }
            if let Some(clk) = clock {
                poked.poke(clk, Logic::bit(false)).unwrap();
                staged.poke(clk, Logic::bit(false)).unwrap();
            }
            cycle += 1;
        }
        assert_eq!(cycle, CYCLES, "{ctx}");
    }
}
