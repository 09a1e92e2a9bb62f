//! The Pentagon abstract state: `Value → (interval, strict upper bounds)`.
//!
//! A pentagon (Logozzo & Fähndrich) abstracts a concrete store `Σ` by two
//! maps: `b(x)` — an interval containing `Σ(x)` — and `s(x)` — a set of
//! variables known to be *strictly greater* than `x` (`y ∈ s(x)` means
//! `Σ(x) < Σ(y)`). The name comes from the shape the two constraints
//! carve out of the plane.
//!
//! Only *bound* variables carry meaning: a variable absent from the state
//! has not been defined on every path reaching this program point, and in
//! strict SSA such a variable cannot be live here, so dropping it at joins
//! is sound. (This replaces ⊥/⊤ bookkeeping for not-yet-defined names.)
//!
//! The transfer functions maintain one crucial invariant of the *dense*
//! setting: a variable redefined by re-executing its instruction (a loop)
//! denotes a **new** dynamic value, so [`PentagonState::purge`] first
//! erases every stale fact about the name — its own bindings and its
//! occurrences inside other variables' `s` sets. The sparse analysis of
//! the paper gets this for free from live-range splitting; paying for it
//! explicitly on every transfer is precisely the engineering cost the
//! paper's Section 5 attributes to Pentagons.

use sraa_ir::Value;
use sraa_range::{Bound, Interval};
use std::collections::{BTreeMap, BTreeSet};

/// A value's facts captured by [`PentagonState::snapshot`], applied with
/// [`PentagonState::bind_snapshot`].
#[derive(Clone, Debug)]
pub struct ValueSnapshot {
    /// The value's interval (`None` if it was unbound).
    interval: Option<Interval>,
    /// Names strictly above the value.
    above: BTreeSet<Value>,
    /// Names strictly below the value (those whose `s` sets held it).
    below: BTreeSet<Value>,
}

/// One program-point abstract state of the Pentagon analysis.
///
/// `BTreeMap`s keep iteration deterministic, which makes fixpoints (and
/// test failures) reproducible.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PentagonState {
    /// `b(x)`: an interval containing the run-time value of `x`.
    intervals: BTreeMap<Value, Interval>,
    /// `s(x)`: variables strictly greater than `x`.
    subs: BTreeMap<Value, BTreeSet<Value>>,
}

impl PentagonState {
    /// The empty state (function entry: nothing bound yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `v` is bound (defined on every path reaching this point).
    pub fn binds(&self, v: Value) -> bool {
        self.intervals.contains_key(&v)
    }

    /// The interval of `v`; ⊤ if bound without range facts.
    ///
    /// Returns `None` when `v` is not bound at this point.
    pub fn interval(&self, v: Value) -> Option<Interval> {
        self.intervals.get(&v).copied()
    }

    /// The strict upper bounds of `v` (empty if none recorded).
    pub fn upper_bounds(&self, v: Value) -> impl Iterator<Item = Value> + '_ {
        self.subs.get(&v).into_iter().flatten().copied()
    }

    /// The bound variables with their intervals, in `Value` order.
    pub(crate) fn bindings(&self) -> impl Iterator<Item = (Value, Interval)> + '_ {
        self.intervals.iter().map(|(&v, &iv)| (v, iv))
    }

    /// Every variable with recorded strict upper bounds, with its `s`
    /// set, in `Value` order.
    pub(crate) fn upper_bound_sets(&self) -> impl Iterator<Item = (Value, &BTreeSet<Value>)> + '_ {
        self.subs.iter().map(|(&v, s)| (v, s))
    }

    /// Number of bound variables (the dense analysis' footprint metric).
    pub fn num_bound(&self) -> usize {
        self.intervals.len()
    }

    /// Does this state prove `a < b`?
    ///
    /// Either relationally (`b ∈ s(a)`) or numerically
    /// (`hi(a) < lo(b)`). Both variables must be bound.
    pub fn proves_lt(&self, a: Value, b: Value) -> bool {
        if a == b {
            return false;
        }
        if self.subs.get(&a).is_some_and(|s| s.contains(&b)) {
            return true;
        }
        match (self.intervals.get(&a), self.intervals.get(&b)) {
            (Some(&ia), Some(&ib)) => numerically_below(ia, ib),
            _ => false,
        }
    }

    /// Binds `v` to `interval` with no order facts, erasing stale facts
    /// about the name first (see the module docs on redefinition).
    pub fn bind(&mut self, v: Value, interval: Interval) {
        self.purge(v);
        self.intervals.insert(v, interval);
    }

    /// Binds `v` as a fresh name equal to `src`: same interval, same
    /// upper bounds, and every variable below `src` is also below `v`.
    pub fn bind_equal(&mut self, v: Value, src: Value) {
        self.purge(v);
        let interval = self.interval(src).unwrap_or(Interval::TOP);
        let bounds = self.subs.get(&src).cloned().unwrap_or_default();
        self.intervals.insert(v, interval);
        if !bounds.is_empty() {
            self.subs.insert(v, bounds);
        }
        // w < src ⇒ w < v.
        for s in self.subs.values_mut() {
            if s.contains(&src) {
                s.insert(v);
            }
        }
    }

    /// Records `a < b`, transitively: `s(a) ∪= {b} ∪ s(b)` and, for every
    /// `w` with `a ∈ s(w)` (that is, `w < a`), `s(w) ∪= {b} ∪ s(b)`.
    pub fn record_lt(&mut self, a: Value, b: Value) {
        if a == b {
            return;
        }
        let mut gained: BTreeSet<Value> = self.subs.get(&b).cloned().unwrap_or_default();
        gained.insert(b);
        gained.remove(&a); // never record a < a
        for (&w, s) in self.subs.iter_mut() {
            if s.contains(&a) && w != b {
                s.extend(gained.iter().copied().filter(|&g| g != w));
            }
        }
        let sa = self.subs.entry(a).or_default();
        sa.extend(gained);
    }

    /// Records `a ≤ b`: everything above `b` is above `a`, and everything
    /// below `a` is below `b`.
    pub fn record_le(&mut self, a: Value, b: Value) {
        if a == b {
            return;
        }
        let above_b: BTreeSet<Value> = self.subs.get(&b).cloned().unwrap_or_default();
        let mut gained = above_b;
        gained.insert(b);
        for (&w, s) in self.subs.iter_mut() {
            if s.contains(&a) && w != b {
                // w < a ≤ b ⇒ w < b (and w < anything above b).
                s.extend(gained.iter().copied().filter(|&g| g != w));
            }
        }
        // a ≤ b < u ⇒ a < u (but NOT a < b).
        let above_b_only: Vec<Value> = self
            .subs
            .get(&b)
            .map(|s| s.iter().copied().filter(|&u| u != a).collect())
            .unwrap_or_default();
        if !above_b_only.is_empty() {
            self.subs.entry(a).or_default().extend(above_b_only);
        }
    }

    /// Narrows the interval of `v` by `bound` (meet). Returns `false` if
    /// the result is empty — the program point is unreachable under this
    /// refinement (an infeasible branch edge).
    #[must_use]
    pub fn refine_interval(&mut self, v: Value, bound: Interval) -> bool {
        match self.intervals.get_mut(&v) {
            Some(iv) => {
                *iv = iv.meet(&bound);
                !iv.is_bottom()
            }
            None => true, // unbound: nothing to refine
        }
    }

    /// Captures everything the state knows about `u`, for a later
    /// [`bind_snapshot`](Self::bind_snapshot). Used to give φ-functions
    /// their *parallel* copy semantics: all incoming values are read in
    /// the pre-edge state before any φ is rebound.
    pub fn snapshot(&self, u: Value) -> ValueSnapshot {
        ValueSnapshot {
            interval: self.interval(u),
            above: self.subs.get(&u).cloned().unwrap_or_default(),
            below: self.subs.iter().filter(|(_, s)| s.contains(&u)).map(|(&w, _)| w).collect(),
        }
    }

    /// Binds `v` as a fresh name equal to the snapshotted value, skipping
    /// any names in `stale` (φs of the same block that were rebound in
    /// parallel — their snapshot-time values no longer exist).
    pub fn bind_snapshot(&mut self, v: Value, snap: &ValueSnapshot, stale: &BTreeSet<Value>) {
        let Some(interval) = snap.interval else {
            // The source was unbound (unreachable/partial path): v stays
            // unbound rather than inheriting vacuous facts.
            return;
        };
        self.intervals.insert(v, interval);
        let above: BTreeSet<Value> = snap
            .above
            .iter()
            .copied()
            .filter(|u| !stale.contains(u) && *u != v && self.binds(*u))
            .collect();
        if !above.is_empty() {
            self.subs.insert(v, above);
        }
        for &w in &snap.below {
            if !stale.contains(&w) && w != v && self.binds(w) {
                self.subs.entry(w).or_default().insert(v);
            }
        }
    }

    /// Erases every fact about `v`: its own bindings and its occurrences
    /// in other variables' upper-bound sets.
    pub fn purge(&mut self, v: Value) {
        self.intervals.remove(&v);
        self.subs.remove(&v);
        self.subs.retain(|_, s| {
            s.remove(&v);
            !s.is_empty()
        });
    }

    /// Join (least upper bound): keeps variables bound on *both* sides,
    /// hulls their intervals, and — following Logozzo & Fähndrich's
    /// refined pentagon join — keeps `y ∈ s'(x)` when **each** side
    /// proves `x < y` by its own means, relationally *or* numerically.
    /// A plain pairwise set intersection would lose facts like
    /// "`[0,0] < [1,1]` on the first loop iteration, `j ∈ s(i)` on the
    /// back edge", which is precisely the case loop headers hit.
    pub fn join(&self, other: &PentagonState) -> PentagonState {
        self.merge(other, Interval::join)
    }

    /// Widening join for loop heads: like [`join`](Self::join) but bounds
    /// that grew jump to ±∞, guaranteeing termination on the
    /// infinite-height interval lattice. The upper-bound component needs
    /// no widening: the set of provable order facts only shrinks under
    /// joins and it is finite.
    pub fn widen(&self, other: &PentagonState) -> PentagonState {
        self.merge(other, Interval::widen)
    }

    fn merge(
        &self,
        other: &PentagonState,
        combine: impl Fn(&Interval, &Interval) -> Interval,
    ) -> PentagonState {
        let mut intervals = BTreeMap::new();
        for (&v, ia) in &self.intervals {
            if let Some(ib) = other.intervals.get(&v) {
                intervals.insert(v, combine(ia, ib));
            }
        }
        let mut subs = BTreeMap::new();
        for &v in intervals.keys() {
            // Candidates: anything either side relates to `v`. Facts both
            // sides prove only numerically survive in the joined
            // *intervals* when they stay disjoint, so they need no entry.
            let kept: BTreeSet<Value> = self
                .subs
                .get(&v)
                .into_iter()
                .chain(other.subs.get(&v))
                .flatten()
                .copied()
                .filter(|u| intervals.contains_key(u))
                .filter(|&u| self.proves_lt(v, u) && other.proves_lt(v, u))
                .collect();
            if !kept.is_empty() {
                subs.insert(v, kept);
            }
        }
        PentagonState { intervals, subs }
    }
}

/// `hi(a) < lo(b)` with both bounds finite: the numeric half of
/// [`PentagonState::proves_lt`].
pub(crate) fn numerically_below(a: Interval, b: Interval) -> bool {
    matches!((a.hi(), b.lo()), (Bound::Fin(ha), Bound::Fin(lb)) if ha < lb)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> Value {
        Value::from_index(i)
    }

    #[test]
    fn proves_lt_via_upper_bounds() {
        let mut st = PentagonState::new();
        st.bind(v(0), Interval::TOP);
        st.bind(v(1), Interval::TOP);
        st.record_lt(v(0), v(1));
        assert!(st.proves_lt(v(0), v(1)));
        assert!(!st.proves_lt(v(1), v(0)));
        assert!(!st.proves_lt(v(0), v(0)));
    }

    #[test]
    fn proves_lt_via_intervals() {
        let mut st = PentagonState::new();
        st.bind(v(0), Interval::finite(0, 5));
        st.bind(v(1), Interval::finite(6, 9));
        assert!(st.proves_lt(v(0), v(1)));
        assert!(!st.proves_lt(v(1), v(0)));
        // Touching intervals do not prove strictness.
        st.bind(v(2), Interval::finite(5, 9));
        assert!(!st.proves_lt(v(0), v(2)));
    }

    #[test]
    fn record_lt_is_transitive_both_ways() {
        let mut st = PentagonState::new();
        for i in 0..4 {
            st.bind(v(i), Interval::TOP);
        }
        st.record_lt(v(1), v(2)); // 1 < 2
        st.record_lt(v(0), v(1)); // 0 < 1 (downward: 0 < 2 too)
        assert!(st.proves_lt(v(0), v(2)), "0 < 1 < 2");
        st.record_lt(v(2), v(3)); // upward: 0 < 3 and 1 < 3
        assert!(st.proves_lt(v(1), v(3)));
        assert!(st.proves_lt(v(0), v(3)));
    }

    #[test]
    fn record_le_gains_strict_facts_through_chains() {
        let mut st = PentagonState::new();
        for i in 0..3 {
            st.bind(v(i), Interval::TOP);
        }
        st.record_lt(v(1), v(2)); // 1 < 2
        st.record_le(v(0), v(1)); // 0 ≤ 1
        assert!(st.proves_lt(v(0), v(2)), "0 ≤ 1 < 2 ⇒ 0 < 2");
        assert!(!st.proves_lt(v(0), v(1)), "≤ alone must not prove <");
    }

    #[test]
    fn bind_equal_copies_both_directions() {
        let mut st = PentagonState::new();
        st.bind(v(0), Interval::finite(1, 3));
        st.bind(v(1), Interval::TOP);
        st.bind(v(2), Interval::TOP);
        st.record_lt(v(0), v(1)); // 0 < 1
        st.record_lt(v(2), v(0)); // 2 < 0
        st.bind_equal(v(3), v(0)); // 3 := 0
        assert!(st.proves_lt(v(3), v(1)), "copy inherits upper bounds");
        assert!(st.proves_lt(v(2), v(3)), "copy joins others' bound sets");
        assert_eq!(st.interval(v(3)), Some(Interval::finite(1, 3)));
    }

    #[test]
    fn purge_erases_all_occurrences() {
        let mut st = PentagonState::new();
        st.bind(v(0), Interval::TOP);
        st.bind(v(1), Interval::TOP);
        st.record_lt(v(0), v(1));
        st.purge(v(1));
        assert!(!st.proves_lt(v(0), v(1)));
        assert!(!st.binds(v(1)));
        // Rebinding starts clean.
        st.bind(v(1), Interval::constant(7));
        assert!(!st.proves_lt(v(0), v(1)));
    }

    #[test]
    fn rebind_invalidates_stale_facts() {
        let mut st = PentagonState::new();
        st.bind(v(0), Interval::TOP);
        st.bind(v(1), Interval::TOP);
        st.record_lt(v(0), v(1)); // iteration k: 0 < 1
        st.bind(v(0), Interval::TOP); // iteration k+1 redefines v0
        assert!(!st.proves_lt(v(0), v(1)), "new value of v0 is unrelated");
    }

    #[test]
    fn join_keeps_common_facts_only() {
        let mut a = PentagonState::new();
        a.bind(v(0), Interval::finite(0, 4));
        a.bind(v(1), Interval::TOP);
        a.record_lt(v(0), v(1));
        let mut b = PentagonState::new();
        b.bind(v(0), Interval::finite(2, 9));
        b.bind(v(1), Interval::TOP);
        b.record_lt(v(0), v(1));
        b.bind(v(2), Interval::constant(1)); // only on one path

        let j = a.join(&b);
        assert_eq!(j.interval(v(0)), Some(Interval::finite(0, 9)));
        assert!(j.proves_lt(v(0), v(1)), "fact on both paths survives");
        assert!(!j.binds(v(2)), "one-path binding is dropped");

        let mut c = b.clone();
        c.purge(v(0));
        c.bind(v(0), Interval::finite(2, 9));
        let j2 = a.join(&c);
        assert!(!j2.proves_lt(v(0), v(1)), "fact on one path is dropped");
    }

    #[test]
    fn widen_jumps_growing_bounds_to_infinity() {
        let mut a = PentagonState::new();
        a.bind(v(0), Interval::finite(0, 4));
        let mut b = PentagonState::new();
        b.bind(v(0), Interval::finite(0, 5));
        let w = a.widen(&b);
        let iv = w.interval(v(0)).unwrap();
        assert_eq!(iv.lo(), Bound::Fin(0));
        assert_eq!(iv.hi(), Bound::PosInf, "growing hi must widen");
    }

    #[test]
    fn refine_interval_detects_infeasible_edges() {
        let mut st = PentagonState::new();
        st.bind(v(0), Interval::finite(0, 3));
        assert!(st.refine_interval(v(0), Interval::finite(2, 10)));
        assert_eq!(st.interval(v(0)), Some(Interval::finite(2, 3)));
        assert!(!st.refine_interval(v(0), Interval::finite(7, 9)), "empty meet = infeasible");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A random state over a small universe: every variable gets a
        /// finite interval, plus a handful of recorded order facts.
        fn states(n: usize) -> impl Strategy<Value = PentagonState> {
            let intervals = proptest::collection::vec((-20i64..20, 0i64..10), n);
            let facts = proptest::collection::vec((0..n, 0..n), 0..6);
            (intervals, facts).prop_map(move |(ivs, facts)| {
                let mut st = PentagonState::new();
                for (i, (lo, width)) in ivs.into_iter().enumerate() {
                    st.bind(v(i), Interval::finite(lo, lo + width));
                }
                for (a, b) in facts {
                    if a != b {
                        st.record_lt(v(a), v(b));
                    }
                }
                st
            })
        }

        proptest! {
            /// The join is sound: it proves a fact only if *both* inputs
            /// prove it (each by its own means) — the pentagon lub.
            #[test]
            fn join_proves_only_common_facts(
                a in states(6), b in states(6)
            ) {
                let j = a.join(&b);
                for x in 0..6 {
                    for y in 0..6 {
                        if j.proves_lt(v(x), v(y)) {
                            prop_assert!(a.proves_lt(v(x), v(y)),
                                "join proves {x}<{y}, left input does not");
                            prop_assert!(b.proves_lt(v(x), v(y)),
                                "join proves {x}<{y}, right input does not");
                        }
                    }
                }
            }

            /// Joined intervals are upper bounds of both inputs.
            #[test]
            fn join_intervals_are_hulls(a in states(4), b in states(4)) {
                let j = a.join(&b);
                for x in 0..4 {
                    let (ia, ib, ij) = (
                        a.interval(v(x)).unwrap(),
                        b.interval(v(x)).unwrap(),
                        j.interval(v(x)).unwrap(),
                    );
                    prop_assert_eq!(ij.join(&ia), ij, "join ⊉ left");
                    prop_assert_eq!(ij.join(&ib), ij, "join ⊉ right");
                }
            }

            /// Widening is coarser than (or equal to) the join, and it
            /// proves no fact the join does not prove.
            #[test]
            fn widen_is_coarser_than_join(a in states(4), b in states(4)) {
                let j = a.join(&b);
                let w = a.widen(&b);
                for x in 0..4 {
                    let (ij, iw) =
                        (j.interval(v(x)).unwrap(), w.interval(v(x)).unwrap());
                    prop_assert_eq!(iw.join(&ij), iw, "widen ⊉ join");
                    for y in 0..4 {
                        if w.proves_lt(v(x), v(y)) {
                            prop_assert!(j.proves_lt(v(x), v(y)));
                        }
                    }
                }
            }

            /// `purge` erases every trace of a name.
            #[test]
            fn purge_removes_every_mention(st in states(6), victim in 0usize..6) {
                let mut st = st;
                st.purge(v(victim));
                prop_assert!(!st.binds(v(victim)));
                for x in 0..6 {
                    prop_assert!(!st.proves_lt(v(x), v(victim)));
                    prop_assert!(!st.proves_lt(v(victim), v(x)));
                    prop_assert!(
                        st.upper_bounds(v(x)).all(|u| u != v(victim)),
                        "stale bound on {x}"
                    );
                }
            }

            /// `bind_equal` makes the copy provably interchangeable with
            /// its source against every third variable.
            #[test]
            fn bind_equal_is_transparent(st in states(5)) {
                let mut st = st;
                let (src, copy) = (v(0), v(5));
                st.bind_equal(copy, src);
                for x in 1..5 {
                    prop_assert_eq!(
                        st.proves_lt(v(x), copy), st.proves_lt(v(x), src),
                        "below: copy disagrees with source on {}", x
                    );
                    prop_assert_eq!(
                        st.proves_lt(copy, v(x)), st.proves_lt(src, v(x)),
                        "above: copy disagrees with source on {}", x
                    );
                }
            }
        }
    }

    #[test]
    fn join_drops_bounds_on_unbound_values() {
        // v1 ∈ s(v0) but v1 is bound on only one side: the join must not
        // keep a dangling upper bound.
        let mut a = PentagonState::new();
        a.bind(v(0), Interval::TOP);
        a.bind(v(1), Interval::TOP);
        a.record_lt(v(0), v(1));
        let mut b = PentagonState::new();
        b.bind(v(0), Interval::TOP);
        b.bind(v(1), Interval::TOP);
        b.record_lt(v(0), v(1));
        b.purge(v(1));
        b.bind(v(1), Interval::TOP); // rebound: no facts
        let j = a.join(&b);
        assert!(!j.proves_lt(v(0), v(1)));
    }
}
