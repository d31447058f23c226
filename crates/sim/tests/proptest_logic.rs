//! Property tests on the four-state [`Logic`] algebra and on
//! simulator/golden-model agreement for a reference design.
//!
//! Written as seeded randomised loops (the workspace builds without the
//! `proptest` crate).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use uvllm_sim::{elaborate, Logic, Simulator};

/// Arbitrary four-state value of `width` (independent value/xz planes).
fn logic(rng: &mut StdRng, width: u32) -> Logic {
    Logic::from_planes(width, rng.random::<u64>() as u128, rng.random::<u64>() as u128)
}

/// Fully known value of `width`.
fn known(rng: &mut StdRng, width: u32) -> Logic {
    Logic::from_u128(width, rng.random::<u64>() as u128)
}

fn rng_for(test: u64) -> StdRng {
    StdRng::seed_from_u64(0x10_61C ^ test)
}

/// Addition on known values agrees with wrapping integer addition.
#[test]
fn add_matches_integers() {
    let mut rng = rng_for(1);
    for _ in 0..512 {
        let a = known(&mut rng, 32);
        let b = known(&mut rng, 32);
        let sum = a.add(&b, 33);
        assert_eq!(
            sum.to_u128(),
            Some((a.to_u128().unwrap() + b.to_u128().unwrap()) & ((1 << 33) - 1))
        );
    }
}

/// Bitwise operators obey De Morgan on arbitrary four-state values.
#[test]
fn de_morgan() {
    let mut rng = rng_for(2);
    for _ in 0..512 {
        let a = logic(&mut rng, 16);
        let b = logic(&mut rng, 16);
        let lhs = a.bitand(&b, 16).bitnot(16);
        let rhs = a.bitnot(16).bitor(&b.bitnot(16), 16);
        assert_eq!(lhs, rhs);
    }
}

/// AND/OR/XOR are commutative for four-state values.
#[test]
fn commutativity() {
    let mut rng = rng_for(3);
    for _ in 0..512 {
        let a = logic(&mut rng, 16);
        let b = logic(&mut rng, 16);
        assert_eq!(a.bitand(&b, 16), b.bitand(&a, 16));
        assert_eq!(a.bitor(&b, 16), b.bitor(&a, 16));
        assert_eq!(a.bitxor(&b, 16), b.bitxor(&a, 16));
    }
}

/// Double negation is the identity up to Z-collapse: `~Z` is X in
/// IEEE 1364, so Z bits come back as X; everything else round-trips.
#[test]
fn double_bitnot() {
    let mut rng = rng_for(4);
    for _ in 0..512 {
        let a = logic(&mut rng, 24);
        let z_collapsed = Logic::from_planes(24, a.val() & !a.xz(), a.xz());
        assert_eq!(a.bitnot(24).bitnot(24), z_collapsed);
    }
}

/// resize never invents known bits.
#[test]
fn resize_preserves_unknowns() {
    let mut rng = rng_for(5);
    for _ in 0..512 {
        let a = logic(&mut rng, 8);
        let wide = a.resize(16);
        assert_eq!(wide.get_slice(0, 8), a);
        // Extended bits are known zero.
        assert_eq!(wide.get_slice(8, 8), Logic::zeros(8));
    }
}

/// Concatenation width and content.
#[test]
fn concat_structure() {
    let mut rng = rng_for(6);
    for _ in 0..512 {
        let hi = logic(&mut rng, 8);
        let lo = logic(&mut rng, 8);
        let c = Logic::concat(hi, lo);
        assert_eq!(c.width(), 16);
        assert_eq!(c.get_slice(0, 8), lo);
        assert_eq!(c.get_slice(8, 8), hi);
    }
}

/// Slice insertion then extraction is the identity.
#[test]
fn slice_roundtrip() {
    let mut rng = rng_for(7);
    for _ in 0..512 {
        let base = logic(&mut rng, 32);
        let v = logic(&mut rng, 8);
        let at = rng.random_range(0..24u32);
        let w = base.with_slice(at, v);
        assert_eq!(w.get_slice(at, 8), v);
    }
}

/// case-equality is an equivalence relation sample: reflexive.
#[test]
fn case_eq_reflexive() {
    let mut rng = rng_for(8);
    for _ in 0..512 {
        let a = logic(&mut rng, 20);
        assert_eq!(a.case_eq(&a), Logic::bit(true));
    }
}

/// Logical equality never returns a definite wrong answer: when both
/// sides are fully known it matches integer equality.
#[test]
fn log_eq_on_known() {
    let mut rng = rng_for(9);
    for _ in 0..512 {
        let a = known(&mut rng, 16);
        let b = known(&mut rng, 16);
        assert_eq!(a.log_eq(&b).to_u128(), Some((a.to_u128() == b.to_u128()) as u128));
    }
}

/// Display output re-encodes width and value faithfully for known
/// values (parses back through the expression parser).
#[test]
fn display_parses_back() {
    let mut rng = rng_for(10);
    for _ in 0..256 {
        let a = known(&mut rng, 16);
        let text = a.to_string();
        let e = uvllm_verilog::parse_expr(&text, &mut uvllm_verilog::Names::new())
            .expect("literal must parse");
        match e {
            uvllm_verilog::Expr::Number(n) => {
                assert_eq!(n.value, a.to_u128().unwrap());
                assert_eq!(n.width, Some(16));
            }
            other => panic!("expected number, got {other:?}"),
        }
    }
}

/// Arbitrary four-state value using the full 128-bit planes.
fn logic_wide(rng: &mut StdRng, width: u32) -> Logic {
    let wide =
        |rng: &mut StdRng| ((rng.random::<u64>() as u128) << 64) | rng.random::<u64>() as u128;
    Logic::from_planes(width, wide(rng), wide(rng))
}

/// `(val, xz)` of bit `i` of `v`; bits beyond the width read as known 0
/// (the planes are masked to the width by construction).
fn ref_bit(v: &Logic, i: u32) -> (u8, u8) {
    if i >= 128 {
        (0, 0)
    } else {
        (((v.val() >> i) & 1) as u8, ((v.xz() >> i) & 1) as u8)
    }
}

/// `shl` against a per-bit reference model: result bit `i` is 0 below
/// the shift count and operand bit `i - sh` above it, in both planes.
#[test]
fn shl_matches_bit_reference() {
    let mut rng = rng_for(13);
    for _ in 0..2048 {
        let n = rng.random_range(1..129u32);
        let w = rng.random_range(n..129u32);
        let v = logic_wide(&mut rng, n);
        let sh = rng.random_range(0..150u32);
        let out = v.shl(&Logic::from_u128(32, sh as u128), w);
        for i in 0..w {
            let expect = if i < sh { (0, 0) } else { ref_bit(&v, i - sh) };
            assert_eq!(ref_bit(&out, i), expect, "n={n} w={w} sh={sh} bit={i} v={v}");
        }
    }
}

/// `shr` against the same reference: result bit `i` is operand bit
/// `i + sh` (known 0 once shifted past the operand).
#[test]
fn shr_matches_bit_reference() {
    let mut rng = rng_for(14);
    for _ in 0..2048 {
        let n = rng.random_range(1..129u32);
        let w = rng.random_range(n..129u32);
        let v = logic_wide(&mut rng, n);
        let sh = rng.random_range(0..150u32);
        let out = v.shr(&Logic::from_u128(32, sh as u128), w);
        for i in 0..w {
            let expect =
                if sh >= 128 || i.checked_add(sh).is_none() { (0, 0) } else { ref_bit(&v, i + sh) };
            assert_eq!(ref_bit(&out, i), expect, "n={n} w={w} sh={sh} bit={i} v={v}");
        }
    }
}

/// `ashr` against a reference that shifts, then replicates the sign bit
/// downward from the *operand's* sign position (an X/Z sign fills X).
#[test]
fn ashr_matches_bit_reference() {
    let mut rng = rng_for(15);
    for _ in 0..2048 {
        let n = rng.random_range(1..129u32);
        let w = rng.random_range(n..129u32);
        let v = logic_wide(&mut rng, n);
        let sh = rng.random_range(0..150u32);
        let out = v.ashr(&Logic::from_u128(32, sh as u128), w);
        let eff = sh.min(n);
        let sign = ref_bit(&v, n - 1);
        for i in 0..w {
            let mut expect = if sh >= 128 || i + sh >= 128 { (0, 0) } else { ref_bit(&v, i + sh) };
            if eff > 0 && i >= n - eff && i < n {
                expect = match sign {
                    (1, 0) => (1, 0), // known 1: sign fill
                    (0, 0) => expect, // known 0: logical shift
                    _ => (0, 1),      // X/Z sign: X fill
                };
            }
            assert_eq!(ref_bit(&out, i), expect, "n={n} w={w} sh={sh} bit={i} v={v}");
        }
    }
}

/// `concat` against the reference: low bits from `lo`, then `hi`, with
/// everything past the 128-bit arena dropped from both planes.
#[test]
fn concat_matches_bit_reference() {
    let mut rng = rng_for(16);
    for _ in 0..2048 {
        let hw = rng.random_range(1..129u32);
        let lw = rng.random_range(1..129u32);
        let hi = logic_wide(&mut rng, hw);
        let lo = logic_wide(&mut rng, lw);
        let out = Logic::concat(hi, lo);
        assert_eq!(out.width(), (hw + lw).min(128));
        for i in 0..out.width() {
            let expect = if i < lw { ref_bit(&lo, i) } else { ref_bit(&hi, i - lw) };
            assert_eq!(ref_bit(&out, i), expect, "hw={hw} lw={lw} bit={i}");
        }
    }
}

/// The simulated 8-bit adder agrees with integer arithmetic on
/// arbitrary driven values (differential property against the
/// simulator itself).
#[test]
fn simulated_adder_is_correct() {
    let file = uvllm_verilog::parse(
        "module add(input [7:0] a, input [7:0] b, input cin,\n\
         output [7:0] sum, output cout);\n\
         assign {cout, sum} = a + b + {7'd0, cin};\nendmodule\n",
    )
    .unwrap();
    let design = std::sync::Arc::new(elaborate(&file, "add").unwrap());
    let mut rng = rng_for(11);
    for _ in 0..48 {
        let a = rng.random_range(0..256u64) as u128;
        let b = rng.random_range(0..256u64) as u128;
        let cin = rng.random_range(0..2u64) as u128;
        let mut sim = Simulator::from_arc(std::sync::Arc::clone(&design)).unwrap();
        sim.poke_by_name("a", Logic::from_u128(8, a)).unwrap();
        sim.poke_by_name("b", Logic::from_u128(8, b)).unwrap();
        sim.poke_by_name("cin", Logic::from_u128(1, cin)).unwrap();
        let total = a + b + cin;
        assert_eq!(sim.peek_by_name("sum").unwrap().to_u128(), Some(total & 0xff));
        assert_eq!(sim.peek_by_name("cout").unwrap().to_u128(), Some(total >> 8));
    }
}

/// A simulated counter follows modular arithmetic over any enable
/// pattern.
#[test]
fn simulated_counter_tracks_enables() {
    let file = uvllm_verilog::parse(
        "module c(input clk, input rst_n, input en, output reg [3:0] q);\n\
         always @(posedge clk or negedge rst_n) begin\n\
         if (!rst_n) q <= 4'd0; else if (en) q <= q + 4'd1;\nend\nendmodule\n",
    )
    .unwrap();
    let design = std::sync::Arc::new(elaborate(&file, "c").unwrap());
    let mut rng = rng_for(12);
    for _ in 0..48 {
        let len = rng.random_range(1..40usize);
        let pattern: Vec<bool> = (0..len).map(|_| rng.random::<bool>()).collect();
        let mut sim = Simulator::from_arc(std::sync::Arc::clone(&design)).unwrap();
        sim.poke_by_name("clk", Logic::bit(false)).unwrap();
        sim.poke_by_name("rst_n", Logic::bit(false)).unwrap();
        sim.poke_by_name("rst_n", Logic::bit(true)).unwrap();
        let mut expected = 0u128;
        for en in &pattern {
            sim.poke_by_name("en", Logic::bit(*en)).unwrap();
            sim.poke_by_name("clk", Logic::bit(true)).unwrap();
            sim.poke_by_name("clk", Logic::bit(false)).unwrap();
            if *en {
                expected = (expected + 1) & 0xf;
            }
            assert_eq!(sim.peek_by_name("q").unwrap().to_u128(), Some(expected));
        }
    }
}
