//! The integer interval abstract domain.
//!
//! Classic Cousot & Cousot intervals `[l, u]` with infinite bounds. The
//! paper's Section 3.2 uses a range analysis "à la Cousot" to classify
//! `x1 = x2 + x3` as an addition, a subtraction, or an unknown, based on
//! the sign of the operands' ranges.

use sraa_ir::BinOp;
use std::fmt;

/// An interval bound: −∞, a finite value, or +∞.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// −∞
    NegInf,
    /// A finite value.
    Fin(i64),
    /// +∞
    PosInf,
}

impl Bound {
    fn as_i128(self) -> Option<i128> {
        match self {
            Bound::Fin(v) => Some(v as i128),
            _ => None,
        }
    }

    fn from_i128_lo(v: i128) -> Bound {
        if v < i64::MIN as i128 {
            Bound::NegInf
        } else if v > i64::MAX as i128 {
            Bound::PosInf
        } else {
            Bound::Fin(v as i64)
        }
    }

    fn from_i128_hi(v: i128) -> Bound {
        Bound::from_i128_lo(v)
    }
}

impl PartialOrd for Bound {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp_key().cmp(&other.cmp_key()))
    }
}

impl Bound {
    fn cmp_key(self) -> i128 {
        match self {
            Bound::NegInf => i128::MIN,
            Bound::Fin(v) => v as i128,
            Bound::PosInf => i128::MAX,
        }
    }
}

/// A (possibly empty) interval of `i64` values.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    lo: Bound,
    hi: Bound,
    empty: bool,
}

impl Interval {
    /// The full interval ⊤ = [−∞, +∞].
    pub const TOP: Interval = Interval { lo: Bound::NegInf, hi: Bound::PosInf, empty: false };

    /// The empty interval ⊥.
    pub const BOTTOM: Interval = Interval { lo: Bound::PosInf, hi: Bound::NegInf, empty: true };

    /// The interval `[lo, hi]`; ⊥ if `lo > hi`.
    pub fn new(lo: Bound, hi: Bound) -> Interval {
        if lo.cmp_key() > hi.cmp_key() {
            Interval::BOTTOM
        } else {
            Interval { lo, hi, empty: false }
        }
    }

    /// The singleton `[c, c]`.
    pub fn constant(c: i64) -> Interval {
        Interval::new(Bound::Fin(c), Bound::Fin(c))
    }

    /// The finite interval `[lo, hi]`.
    pub fn finite(lo: i64, hi: i64) -> Interval {
        Interval::new(Bound::Fin(lo), Bound::Fin(hi))
    }

    /// Lower bound.
    pub fn lo(&self) -> Bound {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> Bound {
        self.hi
    }

    /// Whether this is the empty interval.
    pub fn is_bottom(&self) -> bool {
        self.empty
    }

    /// Whether this is `[−∞, +∞]`.
    pub fn is_top(&self) -> bool {
        !self.empty && self.lo == Bound::NegInf && self.hi == Bound::PosInf
    }

    /// Whether every value in the interval is strictly positive.
    pub fn is_strictly_positive(&self) -> bool {
        !self.empty && self.lo.cmp_key() >= 1
    }

    /// Whether every value in the interval is strictly negative.
    pub fn is_strictly_negative(&self) -> bool {
        !self.empty && self.hi.cmp_key() <= -1
    }

    /// Whether every value is ≥ 0.
    pub fn is_non_negative(&self) -> bool {
        !self.empty && self.lo.cmp_key() >= 0
    }

    /// Whether the interval excludes zero.
    pub fn excludes_zero(&self) -> bool {
        self.empty || self.lo.cmp_key() > 0 || self.hi.cmp_key() < 0
    }

    /// Whether `v` is contained.
    pub fn contains(&self, v: i64) -> bool {
        !self.empty && self.lo.cmp_key() <= v as i128 && (v as i128) <= self.hi.cmp_key()
    }

    /// Least upper bound (interval union hull).
    pub fn join(&self, other: &Interval) -> Interval {
        if self.empty {
            return *other;
        }
        if other.empty {
            return *self;
        }
        Interval::new(
            if self.lo.cmp_key() <= other.lo.cmp_key() { self.lo } else { other.lo },
            if self.hi.cmp_key() >= other.hi.cmp_key() { self.hi } else { other.hi },
        )
    }

    /// Greatest lower bound (intersection).
    pub fn meet(&self, other: &Interval) -> Interval {
        if self.empty || other.empty {
            return Interval::BOTTOM;
        }
        Interval::new(
            if self.lo.cmp_key() >= other.lo.cmp_key() { self.lo } else { other.lo },
            if self.hi.cmp_key() <= other.hi.cmp_key() { self.hi } else { other.hi },
        )
    }

    /// Standard widening: bounds that grew jump to infinity.
    pub fn widen(&self, next: &Interval) -> Interval {
        if self.empty {
            return *next;
        }
        if next.empty {
            return *self;
        }
        let lo = if next.lo.cmp_key() < self.lo.cmp_key() { Bound::NegInf } else { self.lo };
        let hi = if next.hi.cmp_key() > self.hi.cmp_key() { Bound::PosInf } else { self.hi };
        Interval::new(lo, hi)
    }

    /// Standard narrowing: infinite bounds may be refined by `next`.
    pub fn narrow(&self, next: &Interval) -> Interval {
        if self.empty || next.empty {
            return *next;
        }
        let lo = if self.lo == Bound::NegInf { next.lo } else { self.lo };
        let hi = if self.hi == Bound::PosInf { next.hi } else { self.hi };
        Interval::new(lo, hi)
    }

    /// Abstract transfer of the binary operation `self op other`, shared
    /// by the range analysis and the Pentagon domain. Division is not
    /// modelled (⊤).
    #[inline]
    pub fn binary(&self, op: BinOp, other: &Interval) -> Interval {
        match op {
            BinOp::Add => self.add(other),
            BinOp::Sub => self.sub(other),
            BinOp::Mul => self.mul(other),
            BinOp::Rem => self.rem(other),
            BinOp::Div => Interval::TOP,
        }
    }

    /// Abstract addition.
    pub fn add(&self, other: &Interval) -> Interval {
        if self.empty || other.empty {
            return Interval::BOTTOM;
        }
        let lo = match (self.lo.as_i128(), other.lo.as_i128()) {
            (Some(a), Some(b)) => Bound::from_i128_lo(a + b),
            _ => Bound::NegInf,
        };
        let hi = match (self.hi.as_i128(), other.hi.as_i128()) {
            (Some(a), Some(b)) => Bound::from_i128_hi(a + b),
            _ => Bound::PosInf,
        };
        Interval::new(lo, hi)
    }

    /// Abstract subtraction.
    pub fn sub(&self, other: &Interval) -> Interval {
        self.add(&other.neg())
    }

    /// Abstract negation.
    pub fn neg(&self) -> Interval {
        if self.empty {
            return Interval::BOTTOM;
        }
        let lo = match self.hi {
            Bound::PosInf => Bound::NegInf,
            Bound::Fin(v) => Bound::from_i128_lo(-(v as i128)),
            Bound::NegInf => Bound::PosInf,
        };
        let hi = match self.lo {
            Bound::NegInf => Bound::PosInf,
            Bound::Fin(v) => Bound::from_i128_hi(-(v as i128)),
            Bound::PosInf => Bound::NegInf,
        };
        Interval::new(lo, hi)
    }

    /// Abstract multiplication.
    pub fn mul(&self, other: &Interval) -> Interval {
        if self.empty || other.empty {
            return Interval::BOTTOM;
        }
        // [0,0] × anything = [0,0], even with infinite bounds.
        if *self == Interval::constant(0) || *other == Interval::constant(0) {
            return Interval::constant(0);
        }
        let corners =
            [(self.lo, other.lo), (self.lo, other.hi), (self.hi, other.lo), (self.hi, other.hi)];
        let mut lo: Option<i128> = None;
        let mut hi: Option<i128> = None;
        let mut inf_lo = false;
        let mut inf_hi = false;
        for (a, b) in corners {
            match (a.as_i128(), b.as_i128()) {
                (Some(x), Some(y)) => {
                    let p = x * y;
                    lo = Some(lo.map_or(p, |l| l.min(p)));
                    hi = Some(hi.map_or(p, |h| h.max(p)));
                }
                _ => {
                    // An infinite corner: the product can run to either
                    // infinity unless the finite side is exactly zero,
                    // which we handled above for the singleton case; be
                    // conservative here.
                    inf_lo = true;
                    inf_hi = true;
                }
            }
        }
        let lo = if inf_lo { Bound::NegInf } else { Bound::from_i128_lo(lo.unwrap()) };
        let hi = if inf_hi { Bound::PosInf } else { Bound::from_i128_hi(hi.unwrap()) };
        Interval::new(lo, hi)
    }

    /// Abstract remainder (`%`), conservative.
    pub fn rem(&self, other: &Interval) -> Interval {
        if self.empty || other.empty {
            return Interval::BOTTOM;
        }
        match other.hi.as_i128() {
            Some(k) if other.is_strictly_positive() => {
                let k = (k - 1).min(i64::MAX as i128) as i64;
                if self.is_non_negative() {
                    Interval::finite(0, k)
                } else {
                    Interval::finite(-k, k)
                }
            }
            _ => Interval::TOP,
        }
    }
}

fn fmt_interval(iv: &Interval, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if iv.empty {
        return write!(f, "⊥");
    }
    match iv.lo {
        Bound::NegInf => write!(f, "[-inf, ")?,
        Bound::Fin(v) => write!(f, "[{v}, ")?,
        Bound::PosInf => write!(f, "[+inf, ")?,
    }
    match iv.hi {
        Bound::NegInf => write!(f, "-inf]"),
        Bound::Fin(v) => write!(f, "{v}]"),
        Bound::PosInf => write!(f, "+inf]"),
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_interval(self, f)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_interval(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_and_predicates() {
        assert!(Interval::TOP.is_top());
        assert!(Interval::BOTTOM.is_bottom());
        assert!(Interval::finite(3, 2).is_bottom());
        assert!(Interval::finite(1, 9).is_strictly_positive());
        assert!(!Interval::finite(0, 9).is_strictly_positive());
        assert!(Interval::finite(0, 9).is_non_negative());
        assert!(Interval::finite(-9, -1).is_strictly_negative());
        assert!(Interval::finite(1, 5).excludes_zero());
        assert!(Interval::finite(-5, -1).excludes_zero());
        assert!(!Interval::finite(-1, 1).excludes_zero());
    }

    #[test]
    fn join_meet_basics() {
        let a = Interval::finite(0, 5);
        let b = Interval::finite(3, 9);
        assert_eq!(a.join(&b), Interval::finite(0, 9));
        assert_eq!(a.meet(&b), Interval::finite(3, 5));
        let c = Interval::finite(7, 9);
        assert!(a.meet(&c).is_bottom());
        assert_eq!(a.join(&Interval::BOTTOM), a);
        assert_eq!(a.meet(&Interval::TOP), a);
    }

    #[test]
    fn arithmetic() {
        let a = Interval::finite(1, 3);
        let b = Interval::finite(-2, 4);
        assert_eq!(a.add(&b), Interval::finite(-1, 7));
        assert_eq!(a.sub(&b), Interval::finite(-3, 5));
        assert_eq!(a.neg(), Interval::finite(-3, -1));
        assert_eq!(a.mul(&b), Interval::finite(-6, 12));
        assert_eq!(Interval::TOP.mul(&Interval::constant(0)), Interval::constant(0));
        assert_eq!(Interval::TOP.add(&a), Interval::TOP);
    }

    #[test]
    fn widen_narrow() {
        let a = Interval::finite(0, 5);
        let grown = Interval::finite(0, 10);
        let w = a.widen(&grown);
        assert_eq!(w, Interval::new(Bound::Fin(0), Bound::PosInf));
        let n = w.narrow(&Interval::finite(0, 10));
        assert_eq!(n, Interval::finite(0, 10));
        // Narrowing never touches finite bounds.
        assert_eq!(Interval::finite(2, 3).narrow(&Interval::finite(0, 9)), Interval::finite(2, 3));
    }

    #[test]
    fn rem_is_bounded_by_positive_divisor() {
        let a = Interval::finite(0, 100);
        let k = Interval::finite(1, 8);
        assert_eq!(a.rem(&k), Interval::finite(0, 7));
        let s = Interval::finite(-100, 100);
        assert_eq!(s.rem(&k), Interval::finite(-7, 7));
        assert_eq!(a.rem(&Interval::finite(-3, 3)), Interval::TOP);
    }

    fn arb_interval() -> impl Strategy<Value = Interval> {
        (any::<i8>(), any::<i8>()).prop_map(|(a, b)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            Interval::finite(lo as i64, hi as i64)
        })
    }

    /// An interval together with a member of it.
    fn interval_with_member() -> impl Strategy<Value = (Interval, i64)> {
        arb_interval().prop_flat_map(|iv| {
            let (Bound::Fin(lo), Bound::Fin(hi)) = (iv.lo(), iv.hi()) else { unreachable!() };
            (Just(iv), lo..=hi)
        })
    }

    proptest! {
        #[test]
        fn add_is_sound((a, x) in interval_with_member(), (b, y) in interval_with_member()) {
            prop_assert!(a.add(&b).contains(x + y));
        }

        #[test]
        fn sub_is_sound((a, x) in interval_with_member(), (b, y) in interval_with_member()) {
            prop_assert!(a.sub(&b).contains(x - y));
        }

        #[test]
        fn mul_is_sound((a, x) in interval_with_member(), (b, y) in interval_with_member()) {
            prop_assert!(a.mul(&b).contains(x * y));
        }

        #[test]
        fn join_is_lub(a in arb_interval(), b in arb_interval(), x in -128i64..=127) {
            prop_assume!(a.contains(x) || b.contains(x));
            prop_assert!(a.join(&b).contains(x));
        }

        #[test]
        fn meet_is_glb(a in arb_interval(), b in arb_interval(), x in -128i64..=127) {
            prop_assert_eq!(a.meet(&b).contains(x), a.contains(x) && b.contains(x));
        }

        #[test]
        fn widen_covers_both(a in arb_interval(), b in arb_interval(), x in -128i64..=127) {
            prop_assume!(a.contains(x) || b.contains(x));
            prop_assert!(a.widen(&b).contains(x));
        }
    }
}
