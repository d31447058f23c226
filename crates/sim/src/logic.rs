//! Four-state logic values (`0`, `1`, `X`, `Z`) up to 128 bits wide.

use std::fmt;

/// Truth value of a four-state expression used in conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// Definitely true (some bit is a known 1).
    True,
    /// Definitely false (all bits are known 0).
    False,
    /// Unknown (no known 1 and at least one X/Z bit).
    Unknown,
}

/// A four-state logic vector.
///
/// Bit *i* is encoded across two planes: `xz` bit set means the bit is
/// unknown — `val` then distinguishes X (`0`) from Z (`1`). When `xz` is
/// clear, `val` holds the ordinary binary value.
///
/// All operations mask their result to `width` bits; widths are capped at
/// 128 which is ample for the UVLLM benchmark designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Logic {
    width: u32,
    val: u128,
    xz: u128,
}

/// Returns a mask with the low `bits` bits set.
pub fn mask(bits: u32) -> u128 {
    if bits >= 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

impl Logic {
    /// All-zero value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 128.
    pub fn zeros(width: u32) -> Self {
        assert!((1..=128).contains(&width), "logic width {width} out of range 1..=128");
        Logic { width, val: 0, xz: 0 }
    }

    /// All-ones value of the given width.
    pub fn ones(width: u32) -> Self {
        let mut l = Logic::zeros(width);
        l.val = mask(width);
        l
    }

    /// All-X value of the given width.
    pub fn xs(width: u32) -> Self {
        let mut l = Logic::zeros(width);
        l.xz = mask(width);
        l
    }

    /// A known value from an integer, truncated to `width` bits.
    pub fn from_u128(width: u32, value: u128) -> Self {
        let mut l = Logic::zeros(width);
        l.val = value & mask(width);
        l
    }

    /// A single known bit.
    pub fn bit(value: bool) -> Self {
        Logic::from_u128(1, value as u128)
    }

    /// Builds a value from raw planes (masked to `width`).
    pub fn from_planes(width: u32, val: u128, xz: u128) -> Self {
        let mut l = Logic::zeros(width);
        l.val = val & mask(width);
        l.xz = xz & mask(width);
        l
    }

    /// Bit width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Value plane (bits where `xz` is set are not ordinary values).
    pub fn val(&self) -> u128 {
        self.val
    }

    /// Unknown plane.
    pub fn xz(&self) -> u128 {
        self.xz
    }

    /// True when no bit is X or Z.
    pub fn is_fully_known(&self) -> bool {
        self.xz == 0
    }

    /// The known integer value, or `None` if any bit is X/Z.
    pub fn to_u128(&self) -> Option<u128> {
        if self.is_fully_known() {
            Some(self.val)
        } else {
            None
        }
    }

    /// Zero-extends or truncates to `width`. At the value's own width
    /// this is a copy: every constructor masks the planes to the width.
    pub fn resize(&self, width: u32) -> Logic {
        if width == self.width {
            return *self;
        }
        Logic::from_planes(width, self.val, self.xz)
    }

    /// Extracts bit `index` as a 1-bit value; out of range yields X.
    pub fn get_bit(&self, index: u32) -> Logic {
        if index >= self.width {
            return Logic::xs(1);
        }
        Logic::from_planes(1, self.val >> index, self.xz >> index)
    }

    /// Extracts `width` bits starting at `lsb`; out-of-range bits are X.
    pub fn get_slice(&self, lsb: u32, width: u32) -> Logic {
        if lsb >= self.width {
            return Logic::xs(width);
        }
        let avail = self.width - lsb;
        let mut out = Logic::from_planes(width, self.val >> lsb, self.xz >> lsb);
        if avail < width {
            // Bits beyond the source are X.
            let missing = mask(width) & !mask(avail);
            out.xz |= missing;
            out.val &= !missing;
        }
        out
    }

    /// Stores `value` at bits `[lsb, lsb+value.width)` in place (masked
    /// word ops on both planes); out-of-range writes are ignored.
    pub fn set_slice(&mut self, lsb: u32, value: Logic) {
        if lsb >= self.width {
            return;
        }
        let w = value.width.min(self.width - lsb);
        let m = mask(w) << lsb;
        self.val = (self.val & !m) | ((value.val << lsb) & m);
        self.xz = (self.xz & !m) | ((value.xz << lsb) & m);
    }

    /// Returns a copy with `value` stored at bits `[lsb, lsb+value.width)`.
    pub fn with_slice(&self, lsb: u32, value: Logic) -> Logic {
        let mut out = *self;
        out.set_slice(lsb, value);
        out
    }

    /// Truthiness per IEEE 1364: true if any known 1 bit, false if all
    /// bits known 0, otherwise unknown.
    pub fn truthiness(&self) -> Tri {
        if self.val & !self.xz != 0 {
            Tri::True
        } else if self.xz == 0 {
            Tri::False
        } else {
            Tri::Unknown
        }
    }

    /// Concatenates `hi` above `lo` (`{hi, lo}`).
    ///
    /// The arena stores at most 128 bits: when `hi.width + lo.width`
    /// exceeds 128 the result keeps the low 128 bits and the
    /// overflowing MSBs of `hi` are dropped from *both* planes, so
    /// truncated X/Z designations never wrap around into `lo` (a
    /// `lo.width == 128` shift would otherwise panic in debug builds
    /// and wrap in release builds).
    pub fn concat(hi: Logic, lo: Logic) -> Logic {
        let width = (hi.width + lo.width).min(128);
        if lo.width >= 128 {
            return lo;
        }
        Logic::from_planes(width, (hi.val << lo.width) | lo.val, (hi.xz << lo.width) | lo.xz)
    }

    // ------------------------------------------------------------------
    // Arithmetic (any X/Z operand poisons the result)
    // ------------------------------------------------------------------

    fn poisoned(width: u32, operands: &[&Logic]) -> Option<Logic> {
        if operands.iter().any(|l| !l.is_fully_known()) {
            Some(Logic::xs(width))
        } else {
            None
        }
    }

    /// `self + other` at width `w`.
    pub fn add(&self, other: &Logic, w: u32) -> Logic {
        Logic::poisoned(w, &[self, other])
            .unwrap_or_else(|| Logic::from_u128(w, self.val.wrapping_add(other.val)))
    }

    /// `self - other` at width `w`.
    pub fn sub(&self, other: &Logic, w: u32) -> Logic {
        Logic::poisoned(w, &[self, other])
            .unwrap_or_else(|| Logic::from_u128(w, self.val.wrapping_sub(other.val)))
    }

    /// `self * other` at width `w`.
    pub fn mul(&self, other: &Logic, w: u32) -> Logic {
        Logic::poisoned(w, &[self, other])
            .unwrap_or_else(|| Logic::from_u128(w, self.val.wrapping_mul(other.val)))
    }

    /// `self / other` at width `w`; division by zero yields X.
    pub fn div(&self, other: &Logic, w: u32) -> Logic {
        if let Some(p) = Logic::poisoned(w, &[self, other]) {
            return p;
        }
        match self.val.checked_div(other.val) {
            Some(q) => Logic::from_u128(w, q),
            None => Logic::xs(w),
        }
    }

    /// `self % other` at width `w`; modulo by zero yields X.
    pub fn rem(&self, other: &Logic, w: u32) -> Logic {
        if let Some(p) = Logic::poisoned(w, &[self, other]) {
            return p;
        }
        if other.val == 0 {
            Logic::xs(w)
        } else {
            Logic::from_u128(w, self.val % other.val)
        }
    }

    /// `self ** other` at width `w`.
    pub fn pow(&self, other: &Logic, w: u32) -> Logic {
        if let Some(p) = Logic::poisoned(w, &[self, other]) {
            return p;
        }
        // Square-and-multiply modulo 2^128, which `w <= 128` divides.
        let (mut acc, mut base, mut exponent) = (1u128, self.val, other.val);
        while exponent > 0 {
            if exponent & 1 == 1 {
                acc = acc.wrapping_mul(base);
            }
            base = base.wrapping_mul(base);
            exponent >>= 1;
        }
        Logic::from_u128(w, acc)
    }

    /// Logical shift left at width `w`.
    ///
    /// The X/Z plane shifts in lockstep with the value plane, so a
    /// partially-known operand keeps its unknown bits at the shifted
    /// positions; bits pushed past the 128-bit arena fall off *both*
    /// planes (a dropped X designation must never poison lower bits).
    pub fn shl(&self, amount: &Logic, w: u32) -> Logic {
        if !amount.is_fully_known() {
            return Logic::xs(w);
        }
        if amount.val >= 128 {
            return Logic::zeros(w);
        }
        let sh = amount.val as u32;
        Logic::from_planes(w, self.val << sh, self.xz << sh)
    }

    /// Logical shift right at width `w`.
    pub fn shr(&self, amount: &Logic, w: u32) -> Logic {
        if !amount.is_fully_known() {
            return Logic::xs(w);
        }
        let sh = amount.val.min(128) as u32;
        if sh >= 128 {
            return Logic::zeros(w);
        }
        Logic::from_planes(w, self.val >> sh, self.xz >> sh)
    }

    /// Arithmetic shift right (sign bit of `self` replicated) at width `w`.
    ///
    /// The replicated sign bits occupy `[self.width - sh, self.width)`:
    /// the fill extends down from the *operand's* sign-bit position
    /// (IEEE 1364 `>>>` shifts the operand, then the context widens it),
    /// which for a narrow operand in a wide context is below the top of
    /// `w`. An X/Z sign bit fills with X.
    pub fn ashr(&self, amount: &Logic, w: u32) -> Logic {
        if !amount.is_fully_known() {
            return Logic::xs(w);
        }
        let sh = amount.val.min(self.width as u128) as u32;
        let sign = self.get_bit(self.width - 1);
        let mut out = self.shr(amount, w);
        if sh > 0 {
            let fill = (mask(sh) << (self.width - sh)) & mask(w);
            match sign.truthiness() {
                Tri::True => out.val |= fill,
                Tri::Unknown => {
                    out.xz |= fill;
                    out.val &= !fill;
                }
                Tri::False => {}
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Bitwise operations with four-state truth tables
    // ------------------------------------------------------------------

    /// Bitwise AND (`0 & X == 0`).
    pub fn bitand(&self, other: &Logic, w: u32) -> Logic {
        let a = self.resize(w);
        let b = other.resize(w);
        // Known-zero bits force 0 regardless of the other side.
        let zero = (!a.val & !a.xz) | (!b.val & !b.xz);
        let unknown = (a.xz | b.xz) & !zero;
        let val = a.val & b.val & !a.xz & !b.xz;
        Logic::from_planes(w, val & !unknown, unknown & mask(w) & !(zero & mask(w)))
    }

    /// Bitwise OR (`1 | X == 1`).
    pub fn bitor(&self, other: &Logic, w: u32) -> Logic {
        let a = self.resize(w);
        let b = other.resize(w);
        let one = (a.val & !a.xz) | (b.val & !b.xz);
        let unknown = (a.xz | b.xz) & !one;
        Logic::from_planes(w, one, unknown)
    }

    /// Bitwise XOR (any X poisons the bit).
    pub fn bitxor(&self, other: &Logic, w: u32) -> Logic {
        let a = self.resize(w);
        let b = other.resize(w);
        let unknown = a.xz | b.xz;
        Logic::from_planes(w, (a.val ^ b.val) & !unknown, unknown)
    }

    /// Bitwise XNOR.
    pub fn bitxnor(&self, other: &Logic, w: u32) -> Logic {
        self.bitxor(other, w).bitnot(w)
    }

    /// Bitwise NOT.
    pub fn bitnot(&self, w: u32) -> Logic {
        let a = self.resize(w);
        Logic::from_planes(w, !a.val & !a.xz, a.xz)
    }

    /// Two's-complement negation.
    pub fn neg(&self, w: u32) -> Logic {
        Logic::poisoned(w, &[self]).unwrap_or_else(|| Logic::from_u128(w, self.val.wrapping_neg()))
    }

    // ------------------------------------------------------------------
    // Comparisons and reductions (1-bit results)
    // ------------------------------------------------------------------

    /// Logical equality `==` (X if either side has unknowns that matter).
    pub fn log_eq(&self, other: &Logic) -> Logic {
        let w = self.width.max(other.width);
        let a = self.resize(w);
        let b = other.resize(w);
        if a.xz != 0 || b.xz != 0 {
            // A known mismatch on any bit yields definite 0.
            let known = !a.xz & !b.xz;
            if (a.val ^ b.val) & known != 0 {
                Logic::bit(false)
            } else {
                Logic::xs(1)
            }
        } else {
            Logic::bit(a.val == b.val)
        }
    }

    /// Logical inequality `!=`.
    pub fn log_ne(&self, other: &Logic) -> Logic {
        self.log_eq(other).bitnot(1)
    }

    /// Case equality `===` (X/Z compare literally).
    pub fn case_eq(&self, other: &Logic) -> Logic {
        let w = self.width.max(other.width);
        let a = self.resize(w);
        let b = other.resize(w);
        Logic::bit(a.val == b.val && a.xz == b.xz)
    }

    /// Unsigned relational comparison; X if either side unknown.
    pub fn cmp_lt(&self, other: &Logic) -> Logic {
        match (self.to_u128(), other.to_u128()) {
            (Some(a), Some(b)) => Logic::bit(a < b),
            _ => Logic::xs(1),
        }
    }

    /// Reduction AND.
    pub fn red_and(&self) -> Logic {
        if (!self.val & !self.xz) & mask(self.width) != 0 {
            Logic::bit(false)
        } else if self.xz != 0 {
            Logic::xs(1)
        } else {
            Logic::bit(true)
        }
    }

    /// Reduction OR.
    pub fn red_or(&self) -> Logic {
        if self.val & !self.xz != 0 {
            Logic::bit(true)
        } else if self.xz != 0 {
            Logic::xs(1)
        } else {
            Logic::bit(false)
        }
    }

    /// Reduction XOR.
    pub fn red_xor(&self) -> Logic {
        if self.xz != 0 {
            Logic::xs(1)
        } else {
            Logic::bit((self.val & mask(self.width)).count_ones() % 2 == 1)
        }
    }

    /// Three-valued logical AND.
    pub fn log_and(&self, other: &Logic) -> Logic {
        match (self.truthiness(), other.truthiness()) {
            (Tri::False, _) | (_, Tri::False) => Logic::bit(false),
            (Tri::True, Tri::True) => Logic::bit(true),
            _ => Logic::xs(1),
        }
    }

    /// Three-valued logical OR.
    pub fn log_or(&self, other: &Logic) -> Logic {
        match (self.truthiness(), other.truthiness()) {
            (Tri::True, _) | (_, Tri::True) => Logic::bit(true),
            (Tri::False, Tri::False) => Logic::bit(false),
            _ => Logic::xs(1),
        }
    }

    /// Three-valued logical NOT.
    pub fn log_not(&self) -> Logic {
        match self.truthiness() {
            Tri::True => Logic::bit(false),
            Tri::False => Logic::bit(true),
            Tri::Unknown => Logic::xs(1),
        }
    }

    /// Bitwise merge used for `cond ? a : b` with unknown condition:
    /// bits where both sides agree keep the value, others become X.
    pub fn merge(&self, other: &Logic, w: u32) -> Logic {
        let a = self.resize(w);
        let b = other.resize(w);
        let disagree = (a.val ^ b.val) | a.xz | b.xz;
        Logic::from_planes(w, a.val & !disagree, disagree)
    }

    /// Wildcard match used by `casez` (`z`/`?` bits in `label` match
    /// anything) and `casex` (X bits also match).
    pub fn wildcard_eq(&self, label: &Logic, x_wild: bool) -> bool {
        let w = self.width.max(label.width);
        let a = self.resize(w);
        let l = label.resize(w);
        // Label Z bits are wild; label X bits wild only for casex.
        let lbl_wild = (l.xz & l.val) | if x_wild { l.xz & !l.val } else { 0 };
        let sel_wild = if x_wild { a.xz } else { a.xz & a.val };
        let wild = lbl_wild | sel_wild;
        let known = !wild & mask(w);
        (a.val & known) == (l.val & known) && (a.xz & known) == (l.xz & known)
    }
}

impl fmt::Display for Logic {
    /// Renders in Verilog literal style, e.g. `8'h1a`, `4'b10xz`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.xz == 0 {
            let digits = self.width.div_ceil(4) as usize;
            write!(f, "{}'h{:0digits$x}", self.width, self.val)
        } else {
            write!(f, "{}'b", self.width)?;
            for i in (0..self.width).rev() {
                let v = (self.val >> i) & 1;
                let z = (self.xz >> i) & 1;
                let ch = match (z, v) {
                    (0, 0) => '0',
                    (0, 1) => '1',
                    (1, 0) => 'x',
                    _ => 'z',
                };
                write!(f, "{ch}")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let l = Logic::from_u128(8, 0x1a);
        assert_eq!(l.width(), 8);
        assert_eq!(l.to_u128(), Some(0x1a));
        assert!(Logic::xs(4).to_u128().is_none());
        assert_eq!(Logic::from_u128(4, 0xff).val(), 0xf);
    }

    #[test]
    fn add_with_carry_context() {
        let a = Logic::from_u128(8, 200);
        let b = Logic::from_u128(8, 100);
        assert_eq!(a.add(&b, 9).to_u128(), Some(300));
        assert_eq!(a.add(&b, 8).to_u128(), Some(300 & 0xff));
    }

    #[test]
    fn x_poisons_arithmetic() {
        let a = Logic::xs(8);
        let b = Logic::from_u128(8, 5);
        assert!(a.add(&b, 8).to_u128().is_none());
        assert!(b.div(&Logic::zeros(8), 8).to_u128().is_none());
    }

    #[test]
    fn bitwise_short_circuit_with_x() {
        let x = Logic::xs(1);
        let zero = Logic::zeros(1);
        let one = Logic::ones(1);
        assert_eq!(zero.bitand(&x, 1), Logic::zeros(1));
        assert_eq!(one.bitor(&x, 1), Logic::ones(1));
        assert!(one.bitand(&x, 1).to_u128().is_none());
        assert!(zero.bitor(&x, 1).to_u128().is_none());
        assert!(one.bitxor(&x, 1).to_u128().is_none());
    }

    #[test]
    fn logical_ops_three_valued() {
        let x = Logic::xs(1);
        let t = Logic::ones(1);
        let f = Logic::zeros(1);
        assert_eq!(f.log_and(&x), Logic::bit(false));
        assert_eq!(t.log_or(&x), Logic::bit(true));
        assert!(t.log_and(&x).to_u128().is_none());
        assert_eq!(x.log_not().truthiness(), Tri::Unknown);
    }

    #[test]
    fn equality_semantics() {
        let a = Logic::from_u128(4, 0b1010);
        let b = Logic::from_u128(4, 0b1010);
        assert_eq!(a.log_eq(&b), Logic::bit(true));
        let x = Logic::from_planes(4, 0b1010, 0b0001);
        // Known bits match -> unknown result.
        assert!(a.log_eq(&x).to_u128().is_none());
        // Known bit mismatch -> definite false even with X elsewhere.
        let y = Logic::from_planes(4, 0b0010, 0b0001);
        assert_eq!(a.log_eq(&y), Logic::bit(false));
        // Case equality is literal.
        assert_eq!(x.case_eq(&x), Logic::bit(true));
        assert_eq!(a.case_eq(&x), Logic::bit(false));
    }

    #[test]
    fn slicing_and_insertion() {
        let v = Logic::from_u128(8, 0b1100_1010);
        assert_eq!(v.get_bit(1).to_u128(), Some(1));
        assert_eq!(v.get_slice(4, 4).to_u128(), Some(0b1100));
        let w = v.with_slice(0, Logic::from_u128(4, 0b0101));
        assert_eq!(w.to_u128(), Some(0b1100_0101));
        let w2 = v.with_slice(7, Logic::bit(false));
        assert_eq!(w2.to_u128(), Some(0b0100_1010));
        // Out-of-range access.
        assert!(v.get_bit(8).to_u128().is_none());
        assert_eq!(v.with_slice(8, Logic::bit(true)), v);
    }

    #[test]
    fn shifts() {
        let v = Logic::from_u128(8, 0b0000_1111);
        assert_eq!(v.shl(&Logic::from_u128(3, 2), 8).to_u128(), Some(0b0011_1100));
        assert_eq!(v.shr(&Logic::from_u128(3, 2), 8).to_u128(), Some(0b0000_0011));
        let neg = Logic::from_u128(8, 0b1000_0000);
        assert_eq!(neg.ashr(&Logic::from_u128(3, 3), 8).to_u128(), Some(0b1111_0000));
        assert!(v.shl(&Logic::xs(3), 8).to_u128().is_none());
    }

    #[test]
    fn reductions() {
        assert_eq!(Logic::ones(4).red_and(), Logic::bit(true));
        assert_eq!(Logic::from_u128(4, 0b1110).red_and(), Logic::bit(false));
        assert_eq!(Logic::zeros(4).red_or(), Logic::bit(false));
        assert_eq!(Logic::from_u128(4, 0b0111).red_xor(), Logic::bit(true));
        // X with a known-0 bit: reduction AND is still definitely 0.
        let x0 = Logic::from_planes(4, 0b0000, 0b1000);
        assert_eq!(x0.red_and(), Logic::bit(false));
        assert!(x0.red_or().to_u128().is_none());
    }

    #[test]
    fn concat_and_merge() {
        let hi = Logic::from_u128(4, 0xA);
        let lo = Logic::from_u128(4, 0x5);
        assert_eq!(Logic::concat(hi, lo).to_u128(), Some(0xA5));
        let a = Logic::from_u128(4, 0b1010);
        let b = Logic::from_u128(4, 0b1000);
        let m = a.merge(&b, 4);
        assert_eq!(m.get_bit(3).to_u128(), Some(1));
        assert!(m.get_bit(1).to_u128().is_none());
    }

    #[test]
    fn wildcard_matching() {
        let sel = Logic::from_u128(4, 0b1011);
        // casez: z/? in label is wild.
        let label = Logic::from_planes(4, 0b1011, 0b0011) // 10zz
            ;
        assert!(sel.wildcard_eq(&label, false));
        // casex: x in label also wild.
        let xlabel = Logic::from_planes(4, 0b1000, 0b0011); // 10xx
        assert!(!sel.wildcard_eq(&xlabel, false));
        assert!(sel.wildcard_eq(&xlabel, true));
    }

    #[test]
    fn display_format() {
        assert_eq!(Logic::from_u128(8, 0x1a).to_string(), "8'h1a");
        let x = Logic::from_planes(4, 0b1010, 0b0001);
        assert_eq!(x.to_string(), "4'b101x");
    }

    #[test]
    fn ternary_condition_merge_path() {
        let cond = Logic::xs(1);
        assert_eq!(cond.truthiness(), Tri::Unknown);
    }

    #[test]
    fn concat_at_the_width_cap() {
        // `lo` occupies the full arena: `hi` is dropped entirely (this
        // used to panic in debug builds via a 128-bit shift).
        let lo = Logic::from_u128(128, 0x1234);
        let c = Logic::concat(Logic::ones(8), lo);
        assert_eq!(c.width(), 128);
        assert_eq!(c.to_u128(), Some(0x1234));

        // Overflowing concat keeps the low 128 bits; `hi`'s dropped X
        // bits must not reappear anywhere in the result.
        let hi = Logic::from_planes(16, 0, 0xff00); // upper 8 bits X
        let lo = Logic::from_u128(120, 0xABCD);
        let c = Logic::concat(hi, lo);
        assert_eq!(c.width(), 128);
        assert_eq!(c.get_slice(0, 120).to_u128(), Some(0xABCD));
        // The 8 bits of `hi` that fit are its known-zero low bits.
        assert_eq!(c.get_slice(120, 8), Logic::zeros(8));
    }

    #[test]
    fn ashr_fills_from_operand_sign_position() {
        // 8-bit negative operand in a 16-bit context: the replicated
        // sign bits sit just below bit 8, not at the top of the context.
        let v = Logic::from_u128(8, 0x80);
        assert_eq!(v.ashr(&Logic::from_u128(4, 3), 16).to_u128(), Some(0x00F0));
        // Positive operand: plain logical shift.
        let p = Logic::from_u128(8, 0x40);
        assert_eq!(p.ashr(&Logic::from_u128(4, 3), 16).to_u128(), Some(0x08));
        // Unknown sign bit: the fill positions become X (not Z, not 1).
        let u = Logic::from_planes(8, 0, 0x80);
        let r = u.ashr(&Logic::from_u128(4, 2), 16);
        assert_eq!(r.get_slice(6, 2), Logic::xs(2));
        assert_eq!(r.get_slice(8, 8), Logic::zeros(8));
    }

    #[test]
    fn ashr_ieee_regressions() {
        // IEEE 1364 `>>>`: an all-ones (negative) operand stays all-ones
        // for every shift count, including past the width.
        let neg1 = Logic::from_u128(8, 0xFF);
        for k in 0..=10u128 {
            assert_eq!(neg1.ashr(&Logic::from_u128(8, k), 8).to_u128(), Some(0xFF), "sh={k}");
        }
        let min = Logic::from_u128(8, 0x80);
        assert_eq!(min.ashr(&Logic::from_u128(8, 7), 8).to_u128(), Some(0xFF));
        assert_eq!(min.ashr(&Logic::from_u128(8, 8), 8).to_u128(), Some(0xFF));
        // Shift counts saturate at the operand width.
        assert_eq!(min.ashr(&Logic::from_u128(8, 200), 8).to_u128(), Some(0xFF));
    }

    #[test]
    fn resize_to_the_own_width_is_the_masked_value() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5E1F);
        let mut wide = || ((rng.random::<u64>() as u128) << 64) | rng.random::<u64>() as u128;
        for width in [1, 7, 64, 127, 128] {
            for _ in 0..200 {
                let (val, xz) = (wide(), wide());
                let v = Logic::from_planes(width, val, xz);
                assert_eq!(v.resize(width), Logic::from_planes(width, val, xz), "width {width}");
                // The copy is only right if every way of building a
                // value leaves its planes masked to its width.
                let b = Logic::from_planes(width, wide(), wide() & wide());
                let amount = Logic::from_u128(8, wide() % 140);
                let mut slice = v;
                slice.set_slice(width / 2, b);
                for r in [
                    v.add(&b, width),
                    v.bitnot(width),
                    v.bitand(&b, width),
                    v.merge(&b, width),
                    v.shl(&amount, width),
                    v.ashr(&amount, width),
                    v.get_slice(width / 3, width),
                    Logic::concat(v, b),
                    slice,
                ] {
                    let own = Logic::from_planes(r.width(), r.val(), r.xz());
                    assert_eq!(r.resize(r.width()), own, "width {width}: {r}");
                }
            }
        }
    }

    #[test]
    fn shl_preserves_x_plane_under_known_shift() {
        // 4'b10x0 << 2 keeps the X at its shifted position.
        let v = Logic::from_planes(4, 0b1000, 0b0010);
        let r = v.shl(&Logic::from_u128(3, 2), 8);
        assert_eq!(r.get_bit(5).to_u128(), Some(1));
        assert!(r.get_bit(3).to_u128().is_none());
        assert_eq!(r.get_slice(0, 3), Logic::zeros(3));
        // X bits pushed past the arena vanish instead of wrapping.
        let top_x = Logic::from_planes(128, 0, 1 << 127);
        assert_eq!(top_x.shl(&Logic::from_u128(8, 1), 128), Logic::zeros(128));
        // Shift counts >= 128 flush everything out, X included.
        assert_eq!(Logic::xs(128).shl(&Logic::from_u128(32, 500), 64), Logic::zeros(64));
    }
}
