//! Four-state evaluation of lowered expressions.
//!
//! Width semantics follow IEEE 1364 context-determined sizing: arithmetic
//! and bitwise operands are extended to the assignment context width
//! before the operation (so `{c, s} = a + b` keeps the carry), while
//! shift amounts, index expressions, comparison operands, concatenation
//! items and reduction operands are self-determined.

use crate::elab::{LExpr, LExprKind, SignalId};
use crate::logic::{Logic, Tri};
use uvllm_verilog::ast::{BinaryOp, CaseKind, UnaryOp};

/// Read access to current signal values during evaluation.
pub trait ValueReader {
    /// Current value of a scalar/vector signal.
    fn read(&self, id: SignalId) -> Logic;
    /// Current value of word `index` of an array signal; out-of-range
    /// reads yield all-X of the signal's width.
    fn read_word(&self, id: SignalId, index: u64) -> Logic;
    /// Width in words of the array backing `id` (1 for scalars).
    fn word_count(&self, id: SignalId) -> u64;
    /// Declared bit width of `id`.
    fn width(&self, id: SignalId) -> u32;
}

/// Evaluates `e` in a context of at least `ctx` bits.
///
/// The result width is `max(ctx, e.width)`; callers truncate with
/// [`Logic::resize`] when storing into a narrower target.
pub fn eval<R: ValueReader>(r: &R, e: &LExpr, ctx: u32) -> Logic {
    let w = ctx.max(e.width).max(1);
    match &e.kind {
        LExprKind::Const(l) => l.resize(w),
        LExprKind::Sig(s) => r.read(*s).resize(w),
        // An X or out-of-range index reads X of the select's own width,
        // zero-extended like any other operand.
        LExprKind::Word(s, index) => {
            let idx = eval(r, index, index.width);
            match idx.to_u128() {
                Some(i) if i < r.word_count(*s) as u128 => r.read_word(*s, i as u64).resize(w),
                _ => Logic::xs(r.width(*s)).resize(w),
            }
        }
        LExprKind::BitSel(s, index) => {
            let idx = eval(r, index, index.width);
            match idx.to_u128() {
                Some(i) if i < r.width(*s) as u128 => r.read(*s).get_bit(i as u32).resize(w),
                _ => Logic::xs(1).resize(w),
            }
        }
        LExprKind::PartSel(s, off) => r.read(*s).get_slice(*off, e.width).resize(w),
        LExprKind::Unary(op, a) => eval_unary(r, *op, a, w),
        LExprKind::Binary(op, a, b) => eval_binary(r, *op, a, b, w),
        LExprKind::Ternary(c, t, f) => {
            let cond = eval(r, c, c.width);
            match cond.truthiness() {
                Tri::True => eval(r, t, w).resize(w),
                Tri::False => eval(r, f, w).resize(w),
                Tri::Unknown => {
                    let tv = eval(r, t, w);
                    let fv = eval(r, f, w);
                    tv.merge(&fv, w)
                }
            }
        }
        LExprKind::Concat(items) => {
            let mut acc = Logic::zeros(1);
            let mut first = true;
            for item in items.iter() {
                let v = eval(r, item, item.width).resize(item.width.max(1));
                if first {
                    acc = v;
                    first = false;
                } else {
                    acc = Logic::concat(acc, v);
                }
            }
            acc.resize(w)
        }
    }
}

fn eval_unary<R: ValueReader>(r: &R, op: UnaryOp, a: &LExpr, w: u32) -> Logic {
    match op {
        UnaryOp::LogNot => eval(r, a, a.width).log_not().resize(w),
        UnaryOp::BitNot => eval(r, a, w).bitnot(w),
        UnaryOp::Neg => eval(r, a, w).neg(w),
        UnaryOp::Plus => eval(r, a, w),
        UnaryOp::RedAnd => eval(r, a, a.width).red_and().resize(w),
        UnaryOp::RedOr => eval(r, a, a.width).red_or().resize(w),
        UnaryOp::RedXor => eval(r, a, a.width).red_xor().resize(w),
        UnaryOp::RedNand => eval(r, a, a.width).red_and().bitnot(1).resize(w),
        UnaryOp::RedNor => eval(r, a, a.width).red_or().bitnot(1).resize(w),
        UnaryOp::RedXnor => eval(r, a, a.width).red_xor().bitnot(1).resize(w),
    }
}

fn eval_binary<R: ValueReader>(r: &R, op: BinaryOp, a: &LExpr, b: &LExpr, w: u32) -> Logic {
    use BinaryOp::*;
    match op {
        Add => eval(r, a, w).add(&eval(r, b, w), w),
        Sub => eval(r, a, w).sub(&eval(r, b, w), w),
        Mul => eval(r, a, w).mul(&eval(r, b, w), w),
        Div => eval(r, a, w).div(&eval(r, b, w), w),
        Mod => eval(r, a, w).rem(&eval(r, b, w), w),
        Pow => eval(r, a, w).pow(&eval(r, b, b.width), w),
        Shl => eval(r, a, w).shl(&eval(r, b, b.width), w),
        // Every operand of the elaborated IR is unsigned, so `>>>` is a
        // logical shift (IEEE 1364-2005 §5.1.12).
        Shr | AShr => eval(r, a, w).shr(&eval(r, b, b.width), w),
        Lt | Le | Gt | Ge => {
            let ow = a.width.max(b.width);
            let x = eval(r, a, ow);
            let y = eval(r, b, ow);
            let res = match op {
                Lt => x.cmp_lt(&y),
                Le => y.cmp_lt(&x).log_not(),
                Gt => y.cmp_lt(&x),
                _ => x.cmp_lt(&y).log_not(),
            };
            res.resize(w)
        }
        Eq => {
            let ow = a.width.max(b.width);
            eval(r, a, ow).log_eq(&eval(r, b, ow)).resize(w)
        }
        Ne => {
            let ow = a.width.max(b.width);
            eval(r, a, ow).log_ne(&eval(r, b, ow)).resize(w)
        }
        CaseEq => {
            let ow = a.width.max(b.width);
            eval(r, a, ow).case_eq(&eval(r, b, ow)).resize(w)
        }
        CaseNe => {
            let ow = a.width.max(b.width);
            eval(r, a, ow).case_eq(&eval(r, b, ow)).bitnot(1).resize(w)
        }
        LogAnd => eval(r, a, a.width).log_and(&eval(r, b, b.width)).resize(w),
        LogOr => eval(r, a, a.width).log_or(&eval(r, b, b.width)).resize(w),
        BitAnd => eval(r, a, w).bitand(&eval(r, b, w), w),
        BitOr => eval(r, a, w).bitor(&eval(r, b, w), w),
        BitXor => eval(r, a, w).bitxor(&eval(r, b, w), w),
        BitXnor => eval(r, a, w).bitxnor(&eval(r, b, w), w),
    }
}

/// Evaluates `e` in a context of at least `width` bits and stores the
/// result, masked to exactly `width` bits, into `out`.
///
/// This is the assignment-staging helper of the kernel's hot loop:
/// the context evaluation and the target-width truncation happen in
/// one step and the result lands in a slot the caller reuses across
/// ops. (`Logic` is `Copy` — two `u128` planes — so expression
/// evaluation itself never touches the heap; this helper exists to
/// keep the staging discipline explicit and in one place.)
#[inline]
pub fn eval_into<R: ValueReader>(r: &R, e: &LExpr, width: u32, out: &mut Logic) {
    *out = eval(r, e, width).resize(width);
}

/// Case-arm matching for `case`/`casez`/`casex`.
pub fn case_matches(kind: CaseKind, sel: &Logic, label: &Logic) -> bool {
    match kind {
        CaseKind::Case => sel.case_eq(label).truthiness() == Tri::True,
        CaseKind::Casez => sel.wildcard_eq(label, false),
        CaseKind::Casex => sel.wildcard_eq(label, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::{LExpr, LExprKind};
    use std::sync::Arc;

    struct Fixed(Vec<Logic>);
    impl ValueReader for Fixed {
        fn read(&self, id: SignalId) -> Logic {
            self.0[id.0 as usize]
        }
        fn read_word(&self, _id: SignalId, _index: u64) -> Logic {
            Logic::xs(8)
        }
        fn word_count(&self, _id: SignalId) -> u64 {
            1
        }
        fn width(&self, id: SignalId) -> u32 {
            self.0[id.0 as usize].width()
        }
    }

    fn sig(id: u32, width: u32) -> LExpr {
        LExpr { kind: LExprKind::Sig(SignalId(id)), width }
    }

    fn konst(width: u32, v: u128) -> LExpr {
        LExpr { kind: LExprKind::Const(Logic::from_u128(width, v)), width }
    }

    #[test]
    fn context_width_preserves_carry() {
        let r = Fixed(vec![Logic::from_u128(8, 0xff), Logic::from_u128(8, 0x01)]);
        let add = LExpr {
            kind: LExprKind::Binary(BinaryOp::Add, Arc::new(sig(0, 8)), Arc::new(sig(1, 8))),
            width: 8,
        };
        // Self-determined: carry wraps.
        assert_eq!(eval(&r, &add, 8).to_u128(), Some(0x00));
        // Context of 9 bits: carry preserved.
        assert_eq!(eval(&r, &add, 9).to_u128(), Some(0x100));
    }

    #[test]
    fn comparison_operands_self_determined() {
        let r = Fixed(vec![Logic::from_u128(4, 0xf), Logic::from_u128(8, 0x0f)]);
        let eq = LExpr {
            kind: LExprKind::Binary(BinaryOp::Eq, Arc::new(sig(0, 4)), Arc::new(sig(1, 8))),
            width: 1,
        };
        assert_eq!(eval(&r, &eq, 1).to_u128(), Some(1));
    }

    #[test]
    fn ternary_unknown_condition_merges() {
        let r = Fixed(vec![Logic::xs(1), Logic::from_u128(4, 0b1010), Logic::from_u128(4, 0b1000)]);
        let t = LExpr {
            kind: LExprKind::Ternary(Arc::new(sig(0, 1)), Arc::new(sig(1, 4)), Arc::new(sig(2, 4))),
            width: 4,
        };
        let v = eval(&r, &t, 4);
        assert_eq!(v.get_bit(3).to_u128(), Some(1));
        assert!(v.get_bit(1).to_u128().is_none());
    }

    #[test]
    fn concat_orders_msb_first() {
        let r = Fixed(vec![Logic::from_u128(4, 0xA), Logic::from_u128(4, 0x5)]);
        let c = LExpr { kind: LExprKind::Concat(vec![sig(0, 4), sig(1, 4)].into()), width: 8 };
        assert_eq!(eval(&r, &c, 8).to_u128(), Some(0xA5));
    }

    #[test]
    fn bitsel_out_of_range_is_x() {
        let r = Fixed(vec![Logic::from_u128(4, 0xF), Logic::from_u128(4, 9)]);
        let b = LExpr { kind: LExprKind::BitSel(SignalId(0), Arc::new(sig(1, 4))), width: 1 };
        assert!(eval(&r, &b, 1).to_u128().is_none());
    }

    #[test]
    fn shift_amount_self_determined() {
        let r = Fixed(vec![Logic::from_u128(8, 1), Logic::from_u128(8, 200)]);
        let sh = LExpr {
            kind: LExprKind::Binary(BinaryOp::Shl, Arc::new(sig(0, 8)), Arc::new(konst(4, 4))),
            width: 8,
        };
        assert_eq!(eval(&r, &sh, 8).to_u128(), Some(16));
    }

    #[test]
    fn case_matching_flavours() {
        let sel = Logic::from_u128(4, 0b1010);
        let exact = Logic::from_u128(4, 0b1010);
        assert!(case_matches(CaseKind::Case, &sel, &exact));
        let zlabel = Logic::from_planes(4, 0b1011, 0b0001); // 101z
        assert!(!case_matches(CaseKind::Case, &sel, &zlabel));
        assert!(case_matches(CaseKind::Casez, &sel, &zlabel));
        let xlabel = Logic::from_planes(4, 0b1000, 0b0010); // 10x0
        assert!(!case_matches(CaseKind::Casez, &sel, &xlabel));
        assert!(case_matches(CaseKind::Casex, &sel, &xlabel));
    }
}
