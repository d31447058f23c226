//! Seeded random modules aimed at four-state corners, written as source
//! text so they go through the parser and elaboration, then driven on
//! the event kernel and the reference in lockstep with vectors that
//! carry X and Z bits — the clock included — comparing every word of
//! every signal after every drive.
//!
//! Each module has one to three processes (`assign`, `always @(*)`,
//! `always @(posedge clk)`) over inputs of 1 to 128 bits and, half the
//! time, a small memory. The generator leans on the corners where a
//! four-state simulator goes wrong: context-width extension (`{c, s} =
//! a + b`), ternaries on an X selector, `casez` / `casex` items with Z
//! and X digits, selects and memory words out of range or at an X
//! index (read and written), shifts by X or past the width, `/` and `%`
//! by zero or X, reductions over X and Z.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write as _;
use std::sync::Arc;
use uvllm_refsim::{lockstep, RefSim};
use uvllm_sim::{elaborate, Logic, SignalId, SimControl, SimError, Simulator};

/// Modules per tier-1 run.
const MODULES: u64 = 1_000;
/// Modules of the `#[ignore]`d sweep CI runs in release.
const MODULES_IN_CI: u64 = 100_000;
/// Driven cycles per module.
const CYCLES: usize = 16;

#[derive(Clone)]
struct Signal {
    name: String,
    width: u32,
}

struct Gen {
    rng: StdRng,
}

impl Gen {
    fn chance(&mut self, numerator: u64, denominator: u64) -> bool {
        self.rng.random_range(0..denominator) < numerator
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.rng.random_range(0..items.len())]
    }

    fn width(&mut self) -> u32 {
        *self.pick(&[1, 1, 2, 3, 4, 4, 5, 8, 8, 9, 12, 16, 33, 64, 70, 128])
    }

    /// A sized binary literal with X and Z digits, or a decimal one.
    fn literal(&mut self) -> String {
        let width = *self.pick(&[1, 2, 3, 4, 4, 5, 8, 9, 16, 33, 70]);
        if self.chance(1, 3) {
            let value = self.rng.random::<u64>() % 300;
            return if width < 9 { format!("{value}") } else { format!("{width}'d{value}") };
        }
        let digits: String =
            (0..width).map(|_| *self.pick(&['0', '1', '0', '1', 'x', 'z'])).collect();
        format!("{width}'b{digits}")
    }

    /// An index expression: a literal that may be out of range, or a
    /// signal that may be X or wide.
    fn index(&mut self, limit: u32, readable: &[Signal]) -> String {
        if self.chance(1, 2) {
            format!("{}", self.rng.random_range(0..limit + 3))
        } else {
            self.pick(readable).name.clone()
        }
    }

    fn leaf(&mut self, readable: &[Signal], memory: Option<&Signal>) -> String {
        let signal = self.pick(readable).clone();
        match self.rng.random_range(0..10u32) {
            0 | 1 => self.literal(),
            2 => format!("{}[{}]", signal.name, self.index(signal.width, readable)),
            3 => {
                let lsb = self.rng.random_range(0..signal.width);
                let msb = lsb + self.rng.random_range(0..4u32);
                format!("{}[{msb}:{lsb}]", signal.name)
            }
            4 => match memory {
                Some(memory) => format!("mem[{}]", self.index(memory.width, readable)),
                None => signal.name,
            },
            _ => signal.name,
        }
    }

    fn expr(&mut self, depth: u32, readable: &[Signal], memory: Option<&Signal>) -> String {
        if depth == 0 || self.chance(1, 4) {
            return self.leaf(readable, memory);
        }
        let sub = |g: &mut Gen| g.expr(depth - 1, readable, memory);
        match self.rng.random_range(0..12u32) {
            0 | 1 => {
                let op = *self.pick(&["~", "-", "!", "&", "|", "^", "~&", "~|", "~^", "+"]);
                format!("{op}({})", sub(self))
            }
            2 => format!("({} ? {} : {})", sub(self), sub(self), sub(self)),
            3 => format!("{{{}, {}}}", sub(self), sub(self)),
            4 => format!("{{{}{{{}}}}}", self.rng.random_range(1..4u32), sub(self)),
            5 if self.chance(1, 6) => format!("({} ** {})", sub(self), self.literal()),
            _ => {
                let op = *self.pick(&[
                    "+", "-", "*", "/", "%", "&", "|", "^", "~^", "<<", ">>", ">>>", "<", "<=",
                    ">", ">=", "==", "!=", "===", "!==", "&&", "||",
                ]);
                format!("({} {op} {})", sub(self), sub(self))
            }
        }
    }

    /// An assignment target among `targets` (whole, bit, part, or a
    /// concatenation of two).
    fn target(&mut self, targets: &[Signal], readable: &[Signal], dynamic: bool) -> String {
        let t = self.pick(targets).clone();
        match self.rng.random_range(0..6u32) {
            0 if targets.len() > 1 => {
                let other = self.pick(targets).clone();
                if other.name == t.name {
                    t.name
                } else {
                    format!("{{{}, {}}}", t.name, other.name)
                }
            }
            1 if dynamic => format!("{}[{}]", t.name, self.index(t.width, readable)),
            2 => {
                let lsb = self.rng.random_range(0..t.width);
                let msb = lsb + self.rng.random_range(0..3u32);
                format!("{}[{msb}:{lsb}]", t.name)
            }
            _ => t.name,
        }
    }

    fn statement(&mut self, depth: u32, ctx: &Process, out: &mut String) {
        let op = if ctx.clocked { "<=" } else { "=" };
        let e = |g: &mut Gen| g.expr(3, &ctx.readable, ctx.memory.as_ref());
        match self.rng.random_range(0..8u32) {
            0 if depth > 0 => {
                let _ = writeln!(out, "if ({})", self.expr(2, &ctx.readable, ctx.memory.as_ref()));
                self.statement(depth - 1, ctx, out);
                if self.chance(1, 2) {
                    out.push_str("else\n");
                    self.statement(depth - 1, ctx, out);
                }
            }
            1 if depth > 0 => {
                let kind = *self.pick(&["case", "casez", "casex"]);
                let _ = writeln!(out, "{kind} ({})", self.expr(2, &ctx.readable, None));
                for _ in 0..self.rng.random_range(1..4u32) {
                    let _ = write!(out, "{}", self.literal());
                    if self.chance(1, 3) {
                        let _ = write!(out, ", {}", self.literal());
                    }
                    out.push_str(": ");
                    self.statement(depth - 1, ctx, out);
                }
                if self.chance(1, 2) {
                    out.push_str("default: ");
                    self.statement(depth - 1, ctx, out);
                }
                out.push_str("endcase\n");
            }
            2 if ctx.clocked && ctx.memory.is_some() => {
                let words = ctx.memory.as_ref().map_or(1, |m| m.width);
                let index = self.index(words, &ctx.readable);
                let _ = writeln!(out, "mem[{index}] <= {};", e(self));
            }
            _ => {
                let target = self.target(&ctx.targets, &ctx.readable, true);
                let _ = writeln!(out, "{target} {op} {};", e(self));
            }
        }
    }
}

/// What one process may read and write.
struct Process {
    clocked: bool,
    targets: Vec<Signal>,
    readable: Vec<Signal>,
    /// The memory, its word count as the width.
    memory: Option<Signal>,
}

/// A random module and its inputs (the clock first).
fn module(seed: u64) -> (String, Vec<Signal>) {
    let mut g = Gen { rng: StdRng::seed_from_u64(seed) };
    let mut inputs = vec![Signal { name: "clk".into(), width: 1 }];
    for i in 0..g.rng.random_range(2..5u32) {
        inputs.push(Signal { name: format!("i{i}"), width: g.width() });
    }
    let memory =
        g.chance(1, 2).then(|| Signal { name: "mem".into(), width: g.rng.random_range(2..7u32) });
    let memory_width = *g.pick(&[1, 4, 8, 12]);

    let mut src = String::from("module fuzz(");
    src.push_str(
        &inputs
            .iter()
            .map(|s| format!("input [{}:0] {}", s.width - 1, s.name))
            .collect::<Vec<_>>()
            .join(", "),
    );
    src.push_str(");\n");
    if let Some(memory) = &memory {
        let _ = writeln!(src, "reg [{}:0] mem [0:{}];", memory_width - 1, memory.width - 1);
    }

    // Combinational processes read the inputs, the clocked outputs and
    // the outputs of earlier combinational processes: no loop.
    let kinds: Vec<u32> =
        (0..g.rng.random_range(1..4u32)).map(|_| g.rng.random_range(0..3u32)).collect();
    let clocked_targets: Vec<Signal> = (0..g.rng.random_range(1..3u32))
        .map(|i| Signal { name: format!("q{i}"), width: g.width() })
        .collect();
    let mut readable: Vec<Signal> = inputs[1..].to_vec();
    if kinds.contains(&2) {
        for q in &clocked_targets {
            let _ = writeln!(src, "reg [{}:0] {};", q.width - 1, q.name);
        }
        readable.extend(clocked_targets.iter().cloned());
    }
    let mut body = String::new();
    let mut clocked_done = false;
    for (k, kind) in kinds.iter().enumerate() {
        match kind {
            0 => {
                let targets: Vec<Signal> = (0..g.rng.random_range(1..3u32))
                    .map(|i| Signal { name: format!("w{k}_{i}"), width: g.width() })
                    .collect();
                for w in &targets {
                    let _ = writeln!(src, "wire [{}:0] {};", w.width - 1, w.name);
                }
                let ctx =
                    Process { clocked: false, targets, readable: readable.clone(), memory: None };
                let target = g.target(&ctx.targets, &ctx.readable, false);
                let rhs = g.expr(4, &ctx.readable, memory.as_ref());
                let _ = writeln!(body, "assign {target} = {rhs};");
                readable.extend(ctx.targets);
            }
            1 => {
                let targets: Vec<Signal> = (0..g.rng.random_range(1..3u32))
                    .map(|i| Signal { name: format!("c{k}_{i}"), width: g.width() })
                    .collect();
                for c in &targets {
                    let _ = writeln!(src, "reg [{}:0] {};", c.width - 1, c.name);
                }
                let ctx = Process {
                    clocked: false,
                    targets,
                    readable: readable.clone(),
                    memory: memory.clone(),
                };
                body.push_str("always @(*) begin\n");
                for _ in 0..g.rng.random_range(1..4u32) {
                    g.statement(2, &ctx, &mut body);
                }
                body.push_str("end\n");
                readable.extend(ctx.targets);
            }
            _ if !clocked_done => {
                clocked_done = true;
                let mut all = readable.clone();
                all.extend(clocked_targets.iter().cloned());
                let ctx = Process {
                    clocked: true,
                    targets: clocked_targets.clone(),
                    readable: all,
                    memory: memory.clone(),
                };
                body.push_str("always @(posedge clk) begin\n");
                for _ in 0..g.rng.random_range(1..4u32) {
                    g.statement(2, &ctx, &mut body);
                }
                body.push_str("end\n");
            }
            _ => {}
        }
    }
    src.push_str(&body);
    src.push_str("endmodule\n");
    (src, inputs)
}

/// A random value of `width` bits: known most of the time, otherwise
/// with some bits X or Z.
fn vector(rng: &mut StdRng, width: u32) -> Logic {
    let val = ((rng.random::<u64>() as u128) << 64) | rng.random::<u64>() as u128;
    let xz = if rng.random_range(0..3u32) == 0 {
        (((rng.random::<u64>() as u128) << 64) | rng.random::<u64>() as u128)
            & (((rng.random::<u64>() as u128) << 64) | rng.random::<u64>() as u128)
    } else {
        0
    };
    Logic::from_planes(width, val, xz)
}

/// Drives the module of `seed` on both simulators. `Ok(false)` when it
/// does not elaborate; `Err` describes the first divergence.
fn check(seed: u64) -> Result<bool, String> {
    let (src, inputs) = module(seed);
    let fail = |what: String| format!("seed {seed}: {what}\n{src}");
    let Ok(file) = uvllm_verilog::parse(&src) else { return Ok(false) };
    let Ok(design) = elaborate(&file, "fuzz") else { return Ok(false) };
    let design = Arc::new(design);
    let (kernel, reference) =
        (Simulator::from_arc(Arc::clone(&design)), RefSim::new(Arc::clone(&design)));
    let (mut kernel, mut reference) = match (kernel, reference) {
        (Ok(kernel), Ok(reference)) => (kernel, reference),
        (Err(a), Err(b)) if a == b => return Ok(true),
        (a, b) => {
            return Err(fail(format!("time zero: kernel {:?}, reference {:?}", a.err(), b.err())))
        }
    };
    let ids: Vec<(SignalId, u32)> = inputs
        .iter()
        .map(|s| (design.signal_id(&s.name).expect("declared input"), s.width))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5717_0B5E);
    let mut drive = |what: String, step: &dyn Fn(&mut dyn SimControl) -> Result<(), SimError>| {
        lockstep(&mut kernel, &mut reference, step)
            .map(|_| ())
            .map_err(|d| fail(format!("{what}: {d}")))
    };
    for cycle in 0..CYCLES {
        let vector: Vec<(SignalId, Logic)> =
            ids[1..].iter().map(|(id, width)| (*id, vector(&mut rng, *width))).collect();
        if rng.random_range(0..2u32) == 0 {
            drive(format!("cycle {cycle}: staged {vector:?}"), &|sim| {
                for (id, value) in &vector {
                    sim.stage(*id, *value);
                }
                sim.settle()
            })?;
        } else {
            for (id, value) in vector {
                drive(format!("cycle {cycle}: poke {id} = {value}"), &|sim| sim.poke(id, value))?;
            }
        }
        let clk = ids[0].0;
        let high = match rng.random_range(0..10u32) {
            0 => Logic::xs(1),
            1 => Logic::from_planes(1, 1, 1),
            _ => Logic::bit(true),
        };
        drive(format!("cycle {cycle}: clk = {high}"), &|sim| sim.poke(clk, high))?;
        drive(format!("cycle {cycle}: clk = 0"), &|sim| sim.poke(clk, Logic::bit(false)))?;
    }
    Ok(true)
}

fn sweep(seeds: std::ops::Range<u64>) {
    let mut elaborated = 0;
    let mut divergences = Vec::new();
    for seed in seeds.clone() {
        // A panic in either simulator is a divergence too, reported
        // with the module that caused it.
        let checked = std::panic::catch_unwind(|| check(seed))
            .unwrap_or_else(|_| Err(format!("seed {seed}: panicked\n{}", module(seed).0)));
        match checked {
            Ok(ran) => elaborated += ran as u64,
            Err(divergence) => divergences.push(divergence),
        }
    }
    assert!(
        elaborated * 2 > seeds.end - seeds.start,
        "only {elaborated} of {} modules elaborated: the generator drifted",
        seeds.end - seeds.start
    );
    assert!(
        divergences.is_empty(),
        "{} of {elaborated} modules diverged:\n{}",
        divergences.len(),
        divergences.join("\n")
    );
}

#[test]
fn random_modules_agree_with_the_reference() {
    sweep(0..MODULES);
}

#[test]
#[ignore = "the large count; CI runs it in release"]
fn many_random_modules_agree_with_the_reference() {
    sweep(MODULES..MODULES + MODULES_IN_CI);
}
