//! A settle that has no process to run costs one counted settle and
//! nothing else: no activation, no event, no value moves. The
//! `sim.event.*` counters are process-wide, so this file holds exactly
//! one test — nothing else in its process drives a simulator, and the
//! deltas below are exact.

use uvllm_sim::{Logic, SimControl, Simulator};

/// A text no other test elaborates.
const IDLE_PROBE: &str = "module idle_probe(input clk, input d, input spare,\n\
     output reg q, output y);\n\
     assign y = ~d;\n\
     always @(posedge clk) q <= d;\n\
     endmodule\n";

/// `(settles, activations, events, nba_commits)` of the event kernel.
fn counts() -> [u64; 4] {
    ["settles", "activations", "events", "nba_commits"]
        .map(|name| uvllm_obs::registry().counter(&format!("sim.event.{name}")).get())
}

/// Runs `step` and returns what it added to each counter.
fn delta(sim: &mut Simulator, step: impl FnOnce(&mut Simulator)) -> [u64; 4] {
    let before = counts();
    step(sim);
    let after = counts();
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn a_settle_with_nothing_to_run_counts_itself_and_does_nothing_else() {
    let design = uvllm_sim::elaborate_source_cached(IDLE_PROBE, "idle_probe").expect("elaborates");
    let mut sim = Simulator::from_arc(design).expect("stable at time 0");
    let bit = |v: bool| Logic::bit(v);
    for (name, value) in [("clk", false), ("d", true), ("spare", false)] {
        sim.poke_by_name(name, bit(value)).unwrap();
    }
    sim.poke_by_name("clk", bit(true)).unwrap();
    assert_eq!(sim.peek_by_name("q").unwrap(), bit(true));
    assert_eq!(sim.peek_by_name("y").unwrap(), bit(false));

    // An explicit settle on a quiescent simulator.
    let values = sim.scalar_values();
    let idle = delta(&mut sim, |sim| sim.settle().unwrap());
    assert_eq!(idle, [1, 0, 0, 0], "explicit settle");
    assert_eq!(sim.scalar_values(), values);

    // A poke no process is sensitive to: only the poked signal moves.
    let unheard = delta(&mut sim, |sim| sim.poke_by_name("spare", bit(true)).unwrap());
    assert_eq!(unheard, [1, 0, 0, 0], "poke of a signal nobody reads");
    let spare = sim.design().signal_id("spare").unwrap();
    for ((id, now), (_, was)) in sim.scalar_values().into_iter().zip(&values) {
        if id == spare {
            assert_eq!(now, bit(true));
        } else {
            assert_eq!(now, *was, "{}", sim.design().signal(id).name);
        }
    }

    // The falling edge of a clock only `posedge` processes listen to.
    let falling = delta(&mut sim, |sim| sim.poke_by_name("clk", bit(false)).unwrap());
    assert_eq!(falling, [1, 0, 0, 0], "falling edge of a posedge-only clock");
    assert_eq!(sim.peek_by_name("q").unwrap(), bit(true));

    // A poke that changes nothing is not a settle at all.
    let repeated = delta(&mut sim, |sim| sim.poke_by_name("clk", bit(false)).unwrap());
    assert_eq!(repeated, [0, 0, 0, 0], "poke of the value already held");

    // The contrast: pokes somebody hears still run and are counted.
    let heard = delta(&mut sim, |sim| sim.poke_by_name("d", bit(false)).unwrap());
    assert_eq!(heard, [1, 1, 1, 0], "the continuous assignment re-runs");
    assert_eq!(sim.peek_by_name("y").unwrap(), bit(true));
    let rising = delta(&mut sim, |sim| sim.poke_by_name("clk", bit(true)).unwrap());
    assert_eq!(rising, [1, 1, 1, 1], "the flop samples d and commits q");
    assert_eq!(sim.peek_by_name("q").unwrap(), bit(false));
}
