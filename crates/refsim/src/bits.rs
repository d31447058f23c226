//! Four-state bit vectors — one [`Bit4`] per bit, least significant
//! first — and the operators of IEEE 1364-2005 §5.1 written out bit by
//! bit: the logic tables of §5.1.10–§5.1.11, the X rules of §5.1.5 and
//! §5.1.8, and pencil-and-paper arithmetic (ripple carry, shift-and-add,
//! restoring division, square-and-multiply).
//!
//! Every function takes operands already sized by the caller (the
//! expression-width rules of §5.4 live with the evaluator) and is slow
//! on purpose: no word-parallel shortcut stands between an operator and
//! its definition.

/// One four-state bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bit4 {
    Zero,
    One,
    X,
    Z,
}

use Bit4::{One, Zero, X, Z};

/// A four-state vector, `bits[0]` the least significant bit.
pub type Bits = Vec<Bit4>;

impl Bit4 {
    /// The bit's boolean value, `None` for X and Z.
    pub fn known(self) -> Option<bool> {
        match self {
            Zero => Some(false),
            One => Some(true),
            X | Z => None,
        }
    }

    fn of(value: bool) -> Bit4 {
        if value {
            One
        } else {
            Zero
        }
    }
}

/// `v` zero-extended or truncated to `width` bits (§5.4.1: operands are
/// unsigned here, so extension fills with 0 whatever the top bit is).
pub fn resized(v: &[Bit4], width: usize) -> Bits {
    (0..width).map(|i| v.get(i).copied().unwrap_or(Zero)).collect()
}

/// `width` unknown bits.
pub fn xs(width: usize) -> Bits {
    vec![X; width]
}

/// `value` as `width` known bits.
pub fn from_u128(value: u128, width: usize) -> Bits {
    (0..width).map(|i| Bit4::of(i < 128 && (value >> i) & 1 == 1)).collect()
}

/// The vector's unsigned value, `None` if any bit is X or Z. Vectors of
/// the elaborated IR are at most 128 bits wide.
pub fn value(v: &[Bit4]) -> Option<u128> {
    v.iter().enumerate().try_fold(0u128, |acc, (i, bit)| {
        let set = bit.known()?;
        Some(if set && i < 128 { acc | 1 << i } else { acc })
    })
}

fn has_unknown(v: &[Bit4]) -> bool {
    v.iter().any(|bit| bit.known().is_none())
}

/// The truth value of a condition (§5.1.9, §9.4): true with any 1 bit,
/// false when every bit is 0, unknown otherwise.
pub fn truth(v: &[Bit4]) -> Option<bool> {
    if v.contains(&One) {
        Some(true)
    } else if v.iter().all(|bit| *bit == Zero) {
        Some(false)
    } else {
        None
    }
}

/// A one-bit result from a three-valued truth.
pub fn bit_of(truth: Option<bool>) -> Bits {
    vec![truth.map_or(X, Bit4::of)]
}

// ----------------------------------------------------------------------
// Bitwise operators: the tables of §5.1.10
// ----------------------------------------------------------------------

fn not1(a: Bit4) -> Bit4 {
    match a {
        Zero => One,
        One => Zero,
        X | Z => X,
    }
}

fn and1(a: Bit4, b: Bit4) -> Bit4 {
    match (a, b) {
        (Zero, _) | (_, Zero) => Zero,
        (One, One) => One,
        _ => X,
    }
}

fn or1(a: Bit4, b: Bit4) -> Bit4 {
    match (a, b) {
        (One, _) | (_, One) => One,
        (Zero, Zero) => Zero,
        _ => X,
    }
}

fn xor1(a: Bit4, b: Bit4) -> Bit4 {
    match (a.known(), b.known()) {
        (Some(a), Some(b)) => Bit4::of(a != b),
        _ => X,
    }
}

/// `~a`.
pub fn not(a: &[Bit4]) -> Bits {
    a.iter().map(|bit| not1(*bit)).collect()
}

fn zip(a: &[Bit4], b: &[Bit4], op: fn(Bit4, Bit4) -> Bit4) -> Bits {
    a.iter().zip(b).map(|(a, b)| op(*a, *b)).collect()
}

/// `a & b`.
pub fn and(a: &[Bit4], b: &[Bit4]) -> Bits {
    zip(a, b, and1)
}

/// `a | b`.
pub fn or(a: &[Bit4], b: &[Bit4]) -> Bits {
    zip(a, b, or1)
}

/// `a ^ b`.
pub fn xor(a: &[Bit4], b: &[Bit4]) -> Bits {
    zip(a, b, xor1)
}

/// `&a`, `|a`, `^a` (§5.1.11): the binary table folded over the bits.
pub fn reduce_and(a: &[Bit4]) -> Bits {
    vec![a.iter().fold(One, |acc, bit| and1(acc, *bit))]
}

/// `|a`.
pub fn reduce_or(a: &[Bit4]) -> Bits {
    vec![a.iter().fold(Zero, |acc, bit| or1(acc, *bit))]
}

/// `^a`.
pub fn reduce_xor(a: &[Bit4]) -> Bits {
    vec![a.iter().fold(Zero, |acc, bit| xor1(acc, *bit))]
}

/// `c ? a : b` under an unknown condition (§5.1.13): bits on which both
/// sides agree on a known value keep it, every other bit is X.
pub fn merge(a: &[Bit4], b: &[Bit4]) -> Bits {
    zip(a, b, |a, b| if a == b && a.known().is_some() { a } else { X })
}

// ----------------------------------------------------------------------
// Arithmetic (§5.1.5: any X or Z operand bit makes the whole result X)
// ----------------------------------------------------------------------

/// Ripple-carry `a + b + carry`, as wide as `a`.
fn ripple(a: &[Bit4], b: &[Bit4], mut carry: bool) -> Bits {
    a.iter()
        .zip(b)
        .map(|(a, b)| {
            let (a, b) = (*a == One, *b == One);
            let sum = a ^ b ^ carry;
            carry = (a && b) || (carry && (a ^ b));
            Bit4::of(sum)
        })
        .collect()
}

/// `a + b`.
pub fn add(a: &[Bit4], b: &[Bit4]) -> Bits {
    if has_unknown(a) || has_unknown(b) {
        return xs(a.len());
    }
    ripple(a, b, false)
}

/// `a - b`: `a + ~b + 1`.
pub fn sub(a: &[Bit4], b: &[Bit4]) -> Bits {
    if has_unknown(a) || has_unknown(b) {
        return xs(a.len());
    }
    ripple(a, &not(b), true)
}

/// `-a`: `0 - a`.
pub fn neg(a: &[Bit4]) -> Bits {
    sub(&vec![Zero; a.len()], a)
}

/// `a << n`, as wide as `a`.
fn shifted_up(a: &[Bit4], n: usize) -> Bits {
    (0..a.len()).map(|i| if i >= n { a[i - n] } else { Zero }).collect()
}

/// `a * b`: shift-and-add, one partial product per 1 bit of `b`.
pub fn mul(a: &[Bit4], b: &[Bit4]) -> Bits {
    if has_unknown(a) || has_unknown(b) {
        return xs(a.len());
    }
    let mut product = vec![Zero; a.len()];
    for (i, bit) in b.iter().enumerate() {
        if *bit == One {
            product = ripple(&product, &shifted_up(a, i), false);
        }
    }
    product
}

/// `a >= b` on known vectors of equal width, MSB first.
fn at_least(a: &[Bit4], b: &[Bit4]) -> bool {
    for (a, b) in a.iter().rev().zip(b.iter().rev()) {
        if a != b {
            return *a == One;
        }
    }
    true
}

/// `(a / b, a % b)` by restoring division; X for both when `b` is zero
/// or either side has an unknown bit.
pub fn divmod(a: &[Bit4], b: &[Bit4]) -> (Bits, Bits) {
    let width = a.len();
    if has_unknown(a) || has_unknown(b) || b.iter().all(|bit| *bit == Zero) {
        return (xs(width), xs(width));
    }
    // One spare bit: the shifted remainder can reach 2 * divisor - 1.
    let divisor = resized(b, width + 1);
    let mut remainder = vec![Zero; width + 1];
    let mut quotient = vec![Zero; width];
    for i in (0..width).rev() {
        remainder.rotate_right(1);
        remainder[0] = a[i];
        if at_least(&remainder, &divisor) {
            remainder = sub(&remainder, &divisor);
            quotient[i] = One;
        }
    }
    (quotient, resized(&remainder, width))
}

/// `a ** b` by square-and-multiply over the bits of `b`, MSB first.
pub fn pow(a: &[Bit4], b: &[Bit4]) -> Bits {
    if has_unknown(a) || has_unknown(b) {
        return xs(a.len());
    }
    let mut result = from_u128(1, a.len());
    for bit in b.iter().rev() {
        result = mul(&result, &result);
        if *bit == One {
            result = mul(&result, a);
        }
    }
    result
}

/// The shift distance of `amount`, or `None` when it has an unknown bit
/// (the whole shift is then X, §5.1.12).
fn distance(amount: &[Bit4], width: usize) -> Option<usize> {
    let n = value(amount)?;
    Some(if n > width as u128 { width } else { n as usize })
}

/// `a << amount`: vacated bits fill with 0.
pub fn shl(a: &[Bit4], amount: &[Bit4]) -> Bits {
    match distance(amount, a.len()) {
        Some(n) => shifted_up(a, n),
        None => xs(a.len()),
    }
}

/// `a >> amount`, and `a >>> amount` on the unsigned operands of the
/// elaborated IR (§5.1.12: the arithmetic shift fills with the sign bit
/// only when the result is signed).
pub fn shr(a: &[Bit4], amount: &[Bit4]) -> Bits {
    match distance(amount, a.len()) {
        Some(n) => (0..a.len()).map(|i| a.get(i + n).copied().unwrap_or(Zero)).collect(),
        None => xs(a.len()),
    }
}

// ----------------------------------------------------------------------
// Relations (§5.1.7, §5.1.8) and case matching (§9.5)
// ----------------------------------------------------------------------

/// `a < b` on equal-width operands: X with any unknown bit.
pub fn lt(a: &[Bit4], b: &[Bit4]) -> Bits {
    if has_unknown(a) || has_unknown(b) {
        return xs(1);
    }
    vec![Bit4::of(!at_least(a, b))]
}

/// `a == b`: 0 on a known mismatch anywhere, else X when any bit is
/// unknown, else 1.
pub fn eq(a: &[Bit4], b: &[Bit4]) -> Bits {
    let mut unknown = false;
    for (a, b) in a.iter().zip(b) {
        match (a.known(), b.known()) {
            (Some(a), Some(b)) if a != b => return vec![Zero],
            (Some(_), Some(_)) => {}
            _ => unknown = true,
        }
    }
    vec![if unknown { X } else { One }]
}

/// `a === b`: the four-state values are identical, X for X and Z for Z.
pub fn case_eq(a: &[Bit4], b: &[Bit4]) -> bool {
    a == b
}

/// `casez` / `casex` item match: bit by bit, a Z in either the case
/// expression or the item is a don't-care, and under `casex` so is an
/// X; every other bit must be identical.
pub fn wildcard_eq(sel: &[Bit4], item: &[Bit4], x_is_wild: bool) -> bool {
    sel.iter().zip(item).all(|(s, i)| {
        let wild = |bit: &Bit4| *bit == Z || (x_is_wild && *bit == X);
        wild(s) || wild(i) || s == i
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(value: u128, width: usize) -> Bits {
        from_u128(value, width)
    }

    #[test]
    fn arithmetic_matches_integers() {
        for (a, b) in [(200u128, 100u128), (255, 1), (0, 0), (17, 5), (1, 255), (128, 128)] {
            let (x, y) = (v(a, 8), v(b, 8));
            assert_eq!(value(&add(&x, &y)), Some((a + b) & 0xFF), "{a} + {b}");
            assert_eq!(value(&sub(&x, &y)), Some(a.wrapping_sub(b) & 0xFF), "{a} - {b}");
            assert_eq!(value(&mul(&x, &y)), Some((a * b) & 0xFF), "{a} * {b}");
            let (q, r) = divmod(&x, &y);
            assert_eq!((value(&q), value(&r)), (a.checked_div(b), a.checked_rem(b)), "{a} / {b}");
            assert_eq!(lt(&x, &y), v((a < b) as u128, 1), "{a} < {b}");
        }
        assert_eq!(value(&pow(&v(3, 8), &v(200, 8))), Some(161), "3**200 mod 256");
        assert_eq!(value(&pow(&v(0, 4), &v(0, 4))), Some(1), "0**0");
        assert_eq!(value(&neg(&v(1, 4))), Some(15));
    }

    #[test]
    fn unknowns_follow_the_tables() {
        let x = vec![X];
        let z = vec![Z];
        assert_eq!(and(&v(0, 1), &x), v(0, 1));
        assert_eq!(or(&v(1, 1), &z), v(1, 1));
        assert_eq!(xor(&v(1, 1), &z), x);
        assert_eq!(not(&z), x);
        assert_eq!(reduce_and(&[Zero, X]), v(0, 1));
        assert_eq!(reduce_or(&[Zero, Z]), x);
        assert_eq!(eq(&[One, X], &[Zero, X]), v(0, 1), "a known mismatch decides");
        assert_eq!(eq(&[One, X], &[One, One]), x);
        assert_eq!(merge(&[One, Z, Zero], &[One, Z, One]), vec![One, X, X]);
        assert_eq!(add(&[One, X], &v(1, 2)), xs(2));
        assert_eq!(shl(&v(1, 4), &x), xs(4));
        assert_eq!(shr(&v(8, 4), &v(9, 4)), v(0, 4), "past the width");
        assert!(wildcard_eq(&v(0b1011, 4), &[Z, Z, Zero, One], false));
        assert!(!wildcard_eq(&v(0b1011, 4), &[X, X, Zero, One], false));
        assert!(wildcard_eq(&v(0b1011, 4), &[X, X, Zero, One], true));
    }
}
