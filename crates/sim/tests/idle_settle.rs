//! A settle that has no process to run costs one counted settle and
//! nothing else: no activation, no event, no value moves — and a
//! `stage` costs nothing until the settle that ends its batch.
//!
//! A simulator adds its `sim.event.*` tallies to the registry when it
//! drops, and a clone starts at zero. So each step below runs on a
//! clone that is dropped before the counters are read, and the original
//! then takes the same step. The counters are process-wide, so this file
//! holds exactly one test — nothing else in its process drives a
//! simulator, and the deltas below are exact.

use uvllm_sim::{Logic, SimControl, Simulator};

/// A text no other test elaborates.
const IDLE_PROBE: &str = "module idle_probe(input clk, input d, input spare,\n\
     output reg q, output y);\n\
     assign y = ~d;\n\
     always @(posedge clk) q <= d;\n\
     endmodule\n";

/// A second text no other test elaborates.
const PAIR_PROBE: &str = "module pair_probe(input [7:0] a, input [7:0] b, output [8:0] y);\n\
     assign y = a + b;\n\
     endmodule\n";

/// `(settles, activations, events, nba_commits)` of the event kernel.
fn counts() -> [u64; 4] {
    ["settles", "activations", "events", "nba_commits"]
        .map(|name| uvllm_obs::registry().counter(&format!("sim.event.{name}")).get())
}

/// What the counters gained since `before`.
fn since(before: [u64; 4]) -> [u64; 4] {
    let now = counts();
    std::array::from_fn(|i| now[i] - before[i])
}

/// Runs `step` on a clone of `sim` and returns what dropping the clone
/// added to each counter, then advances `sim` by the same step.
fn delta(sim: &mut Simulator, step: impl Fn(&mut Simulator)) -> [u64; 4] {
    let before = counts();
    let mut clone = sim.clone();
    step(&mut clone);
    drop(clone);
    let added = since(before);
    step(sim);
    added
}

#[test]
fn a_settle_with_nothing_to_run_counts_itself_and_does_nothing_else() {
    let design = uvllm_sim::elaborate_source(IDLE_PROBE, "idle_probe").expect("elaborates");
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
            assert_eq!(now, *was, "{}", sim.design().signal_name(id));
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

    // Staging counts nothing and runs nothing; the settle that ends the
    // batch is the one counted drive, empty or not.
    let id = |name: &str| sim.design().signal_id(name).unwrap();
    let (d, spare) = (id("d"), id("spare"));
    let staged_unheard = delta(&mut sim, |sim| {
        sim.stage(spare, bit(false));
        sim.settle().unwrap();
    });
    assert_eq!(staged_unheard, [1, 0, 0, 0], "a staged signal nobody reads, settled");
    let staged_pair = delta(&mut sim, |sim| {
        sim.stage(d, bit(true));
        sim.stage(spare, bit(true));
        sim.settle().unwrap();
    });
    assert_eq!(staged_pair, [1, 1, 1, 0], "two staged signals, one heard: one settle");
    assert_eq!(sim.peek_by_name("y").unwrap(), bit(false));
    let stage_alone = delta(&mut sim, |sim| sim.stage(d, bit(false)));
    assert_eq!(stage_alone, [0, 0, 0, 0], "stage without a settle");
    assert_eq!(sim.peek_by_name("y").unwrap(), bit(false), "the assignment has not run yet");

    // Two staged inputs of one assignment wake it once.
    let adder = uvllm_sim::elaborate_source(PAIR_PROBE, "pair_probe").expect("elaborates");
    let (a, b) = (adder.signal_id("a").unwrap(), adder.signal_id("b").unwrap());
    let before = counts();
    let mut sim = Simulator::from_arc(adder).expect("stable at time 0");
    let pair = delta(&mut sim, |sim| {
        sim.stage(a, Logic::from_u128(8, 200));
        sim.stage(b, Logic::from_u128(8, 100));
        sim.settle().unwrap();
    });
    assert_eq!(pair[1], 1, "one activation for two staged inputs");
    assert_eq!(sim.peek_by_name("y").unwrap().to_u128(), Some(300));

    // A live simulator's drives are not counted yet: so far only the
    // dropped clone's batch is, not the original's time-zero settle or
    // its own batch.
    assert_eq!(since(before), pair, "only the dropped clone is counted");
    sim.poke(a, Logic::from_u128(8, 1)).unwrap();
    assert_eq!(since(before), pair, "a live simulator's drive");

    // Dropping a clone adds only what the clone drove, not the history
    // of the simulator it was cloned from.
    let mark = counts();
    let mut clone = sim.clone();
    clone.poke(b, Logic::from_u128(8, 2)).unwrap();
    assert_eq!(clone.peek_by_name("y").unwrap().to_u128(), Some(3));
    drop(clone);
    assert_eq!(since(mark), [1, 1, 1, 0], "the clone's one heard poke");

    // The original's own work lands when it drops: its time-zero
    // settle, its batch and its poke, each running the assignment once.
    let mark = counts();
    drop(sim);
    assert_eq!(since(mark), [3, 3, 3, 0], "the original, on drop");
}
