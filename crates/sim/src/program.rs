//! Precompiled process programs for the event-driven kernel.
//!
//! At [`crate::Simulator`] construction every process body is lowered
//! **once** from the [`LStmt`] tree into a flat array of [`Op`]s:
//! assignment targets are pre-resolved (signal, constant LSB offsets,
//! word-count limits), assignment context widths are precomputed, and
//! `if`/`case` control flow becomes patched jump offsets. A process
//! activation is then a program-counter loop over the ops — no tree
//! recursion, no per-activation `LTarget::width` walks, and no heap
//! allocation (write staging goes through the scheduler's persistent
//! scratch buffers; expression values are plain `Copy` [`crate::Logic`]
//! structs that never touch the heap).
//!
//! Concatenated targets are flattened at lowering time: nested
//! `LTarget::Concat` trees collapse into one MSB-first list of leaves,
//! each carrying the absolute slice LSB and width it takes from the
//! evaluated right-hand side. Slicing composes exactly — an inner
//! concat's slice-of-a-slice is the same bits as the precomputed
//! absolute slice — so the flattened writes are bit-identical to the
//! old recursive resolution.

use crate::elab::{Design, LExpr, LStmt, LTarget, SignalId};
use uvllm_verilog::ast::CaseKind;

/// A leaf assignment destination with everything pre-resolved. Dynamic
/// bit/word selects keep their lowered index expression (evaluated per
/// write, self-determined, exactly as the tree walker did).
#[derive(Debug, Clone)]
pub(crate) enum Dst {
    /// Whole signal of `width` bits.
    Whole { sig: SignalId, width: u32 },
    /// Constant part select `[lsb, lsb+width)`.
    Part { sig: SignalId, lsb: u32, width: u32 },
    /// Dynamic bit select; `limit` is the signal width (X/Z or
    /// out-of-range indices drop the write).
    Bit { sig: SignalId, index: LExpr, limit: u32 },
    /// Dynamic array-word write of `width` bits; `limit` is the word
    /// count.
    Word { sig: SignalId, index: LExpr, width: u32, limit: u32 },
}

/// One flat instruction of a [`ProcessProgram`].
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Evaluate `rhs` at context `width` and write through `dst`.
    Assign { dst: Dst, rhs: LExpr, width: u32, blocking: bool },
    /// Concatenated target: `rhs` is evaluated once at `width` (the
    /// concat's total), then sliced most-significant-first into the
    /// leaves; each entry is `(slice_lsb, slice_width, leaf)`.
    AssignConcat { parts: Vec<(u32, u32, Dst)>, rhs: LExpr, width: u32, blocking: bool },
    /// `if`: a true condition falls through into the then-block, false
    /// jumps to `on_false` (the else-block or past the statement), and
    /// an unknown condition jumps to `on_unknown` (past both branches —
    /// X-conservative, neither branch executes).
    Branch { cond: LExpr, on_false: u32, on_unknown: u32 },
    /// Unconditional jump (end of a then-block or case arm).
    Jump { to: u32 },
    /// `case`/`casez`/`casex` dispatch: the selector and every label
    /// are evaluated at `width`, the widest of them all (IEEE 1364-2005
    /// §9.5); labels are scanned in source order and the first match
    /// jumps to its arm; no match jumps to `fallback` (the default arm,
    /// or past the statement).
    Case { kind: CaseKind, sel: LExpr, width: u32, arms: Vec<(Vec<LExpr>, u32)>, fallback: u32 },
}

/// A process body lowered to a flat op array. Execution lives in
/// [`crate::Simulator`]; this module only builds the representation.
#[derive(Debug, Clone)]
pub(crate) struct ProcessProgram {
    pub(crate) ops: Vec<Op>,
}

/// Lowers one process body.
pub(crate) fn lower_process(design: &Design, body: &LStmt) -> ProcessProgram {
    let mut ops = Vec::new();
    lower_stmt(design, body, &mut ops);
    ProcessProgram { ops }
}

fn lower_stmt(design: &Design, stmt: &LStmt, ops: &mut Vec<Op>) {
    match stmt {
        LStmt::Block(stmts) => {
            for s in stmts {
                lower_stmt(design, s, ops);
            }
        }
        LStmt::Nop => {}
        LStmt::Assign { lhs, rhs, blocking, .. } => {
            let width = lhs.width(design).max(1);
            match lhs {
                LTarget::Concat(targets) => {
                    let mut parts = Vec::new();
                    flatten_concat(design, targets, 0, width, &mut parts);
                    ops.push(Op::AssignConcat {
                        parts,
                        rhs: rhs.clone(),
                        width,
                        blocking: *blocking,
                    });
                }
                leaf => ops.push(Op::Assign {
                    dst: lower_leaf(design, leaf),
                    rhs: rhs.clone(),
                    width,
                    blocking: *blocking,
                }),
            }
        }
        LStmt::If { cond, then_branch, else_branch, .. } => {
            let branch_at = ops.len();
            ops.push(Op::Branch { cond: cond.clone(), on_false: 0, on_unknown: 0 });
            lower_stmt(design, then_branch, ops);
            let (on_false, end) = match else_branch {
                Some(e) => {
                    let jump_at = ops.len();
                    ops.push(Op::Jump { to: 0 });
                    let else_start = ops.len() as u32;
                    lower_stmt(design, e, ops);
                    let end = ops.len() as u32;
                    patch_jump(ops, jump_at, end);
                    (else_start, end)
                }
                None => {
                    let end = ops.len() as u32;
                    (end, end)
                }
            };
            if let Op::Branch { on_false: f, on_unknown: u, .. } = &mut ops[branch_at] {
                *f = on_false;
                *u = end;
            }
        }
        LStmt::Case { kind, expr, arms, default, .. } => {
            let case_at = ops.len();
            let labels = arms.iter().flat_map(|(labels, _)| labels);
            let width = labels.fold(expr.width, |w, label| w.max(label.width));
            ops.push(Op::Case {
                kind: *kind,
                sel: expr.clone(),
                width,
                arms: Vec::new(),
                fallback: 0,
            });
            let mut lowered_arms = Vec::with_capacity(arms.len());
            let mut arm_ends = Vec::with_capacity(arms.len());
            for (labels, body) in arms {
                lowered_arms.push((labels.clone(), ops.len() as u32));
                lower_stmt(design, body, ops);
                arm_ends.push(ops.len());
                ops.push(Op::Jump { to: 0 });
            }
            let fallback = ops.len() as u32;
            if let Some(d) = default {
                lower_stmt(design, d, ops);
            }
            let end = ops.len() as u32;
            for jump_at in arm_ends {
                patch_jump(ops, jump_at, end);
            }
            if let Op::Case { arms: a, fallback: f, .. } = &mut ops[case_at] {
                *a = lowered_arms;
                *f = fallback;
            }
        }
    }
}

fn patch_jump(ops: &mut [Op], at: usize, to: u32) {
    if let Op::Jump { to: t } = &mut ops[at] {
        *t = to;
    }
}

fn lower_leaf(design: &Design, target: &LTarget) -> Dst {
    match target {
        LTarget::Whole(s) => Dst::Whole { sig: *s, width: design.signal(*s).width },
        LTarget::Part(s, lsb, w) => Dst::Part { sig: *s, lsb: *lsb, width: *w },
        LTarget::Bit(s, index) => {
            Dst::Bit { sig: *s, index: index.clone(), limit: design.signal(*s).width }
        }
        LTarget::Word(s, index) => {
            let info = design.signal(*s);
            Dst::Word { sig: *s, index: index.clone(), width: info.width, limit: info.words }
        }
        LTarget::Concat(_) => unreachable!("concats are flattened by the caller"),
    }
}

/// Flattens a (possibly nested) concat target covering bits
/// `[base, base+total)` of the evaluated value into MSB-first leaves,
/// giving each leaf the absolute LSB of the slice it writes.
fn flatten_concat(
    design: &Design,
    targets: &[LTarget],
    base: u32,
    total: u32,
    out: &mut Vec<(u32, u32, Dst)>,
) {
    let mut consumed = 0u32;
    for t in targets {
        let pw = t.width(design);
        let lsb = base + total - consumed - pw;
        match t {
            LTarget::Concat(inner) => flatten_concat(design, inner, lsb, pw, out),
            leaf => out.push((lsb, pw, lower_leaf(design, leaf))),
        }
        consumed += pw;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::elaborate;
    use uvllm_verilog::parse;

    fn program_for(src: &str, process: usize) -> ProcessProgram {
        let file = parse(src).unwrap();
        let top = file.top().map(|m| m.name_of(m.name)).unwrap();
        let design = elaborate(&file, top).unwrap();
        lower_process(&design, &design.processes()[process].body)
    }

    #[test]
    fn straight_line_body_is_one_op_per_assign() {
        let p = program_for(
            "module m(input [3:0] a, output reg [3:0] x, output reg [3:0] y);\n\
             always @(*) begin\nx = a + 4'd1;\ny = x + 4'd1;\nend\nendmodule\n",
            0,
        );
        assert_eq!(p.ops.len(), 2);
        assert!(p.ops.iter().all(|op| matches!(
            op,
            Op::Assign { dst: Dst::Whole { width: 4, .. }, width: 4, blocking: true, .. }
        )));
    }

    #[test]
    fn if_else_patches_all_three_exits() {
        let p = program_for(
            "module m(input s, input a, input b, output reg y);\n\
             always @(*) begin\nif (s) y = a; else y = b;\nend\nendmodule\n",
            0,
        );
        // Branch, then-assign, jump-over-else, else-assign.
        assert_eq!(p.ops.len(), 4);
        let Op::Branch { on_false, on_unknown, .. } = &p.ops[0] else {
            panic!("expected branch, got {:?}", p.ops[0]);
        };
        assert_eq!(*on_false, 3, "false jumps to the else assign");
        assert_eq!(*on_unknown, 4, "unknown skips both branches");
        let Op::Jump { to } = &p.ops[2] else {
            panic!("expected jump, got {:?}", p.ops[2]);
        };
        assert_eq!(*to, 4, "then-block exits past the else");
    }

    #[test]
    fn case_arms_jump_past_the_default() {
        let p = program_for(
            "module m(input [1:0] s, input [3:0] a, input [3:0] b, output reg [3:0] y);\n\
             always @(*) begin\ncase (s)\n2'b00: y = a;\n2'b01: y = b;\n\
             default: y = 4'd0;\nendcase\nend\nendmodule\n",
            0,
        );
        // Case, arm0, jump, arm1, jump, default.
        assert_eq!(p.ops.len(), 6);
        let Op::Case { arms, fallback, .. } = &p.ops[0] else {
            panic!("expected case, got {:?}", p.ops[0]);
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].1, 1);
        assert_eq!(arms[1].1, 3);
        assert_eq!(*fallback, 5, "no match lands on the default arm");
        for at in [2usize, 4] {
            let Op::Jump { to } = &p.ops[at] else {
                panic!("expected jump at {at}");
            };
            assert_eq!(*to, 6, "arms exit past the default");
        }
    }

    #[test]
    fn concat_target_is_flattened_with_absolute_lsbs() {
        let p = program_for(
            "module m(input [7:0] a, input [7:0] b, output reg c, output reg [7:0] s);\n\
             always @(*) {c, s} = a + b;\nendmodule\n",
            0,
        );
        assert_eq!(p.ops.len(), 1);
        let Op::AssignConcat { parts, width, .. } = &p.ops[0] else {
            panic!("expected concat assign, got {:?}", p.ops[0]);
        };
        assert_eq!(*width, 9);
        // MSB-first: c takes bit 8, s takes bits [0, 8).
        assert_eq!(parts.len(), 2);
        assert_eq!((parts[0].0, parts[0].1), (8, 1));
        assert_eq!((parts[1].0, parts[1].1), (0, 8));
    }

    #[test]
    fn nested_concat_collapses_to_one_leaf_list() {
        let p = program_for(
            "module m(input [5:0] v, output reg a, output reg [1:0] b, output reg [2:0] c);\n\
             always @(*) {a, {b, c}} = v;\nendmodule\n",
            0,
        );
        let Op::AssignConcat { parts, width: 6, .. } = &p.ops[0] else {
            panic!("expected 6-bit concat assign, got {:?}", p.ops[0]);
        };
        let lsbs: Vec<(u32, u32)> = parts.iter().map(|(l, w, _)| (*l, *w)).collect();
        assert_eq!(lsbs, vec![(5, 1), (3, 2), (0, 3)], "absolute slices, MSB-first");
    }

    #[test]
    fn unrolled_loops_lower_flat() {
        let p = program_for(
            "module f(input [7:0] d, output reg [7:0] q);\ninteger i;\n\
             always @(*) begin\nfor (i = 0; i < 8; i = i + 1) q[i] = d[7 - i];\nend\nendmodule\n",
            0,
        );
        assert_eq!(p.ops.len(), 8, "eight unrolled bit assigns");
        assert!(p.ops.iter().all(|op| matches!(op, Op::Assign { dst: Dst::Bit { .. }, .. })));
    }
}
