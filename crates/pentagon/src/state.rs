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
//!
//! Both maps are flat vectors sorted by value, and each `s(x)` is a sorted
//! vector too, so a state costs memory in proportion to the facts it holds
//! and [`join`](PentagonState::join)/[`widen`](PentagonState::widen) are
//! linear merges of their inputs.

use sraa_ir::Value;
use sraa_range::{Bound, Interval};

/// A value's facts captured by [`PentagonState::snapshot`], applied with
/// [`PentagonState::bind_snapshot`].
#[derive(Clone, Debug)]
pub(crate) struct ValueSnapshot {
    /// The value's interval (`None` if it was unbound).
    interval: Option<Interval>,
    /// Names strictly above the value, sorted.
    above: Vec<Value>,
    /// Names strictly below the value (those whose `s` sets held it),
    /// sorted.
    below: Vec<Value>,
}

/// One program-point abstract state of the Pentagon analysis.
///
/// `b` is a vector of `(x, b(x))` sorted by `x`; `s` is a vector of
/// `(x, s(x))` sorted by `x`, holding only non-empty sets, each a sorted
/// vector. The layout is canonical, so derived equality is equality of
/// the abstract states, and iteration is in `Value` order, which makes
/// fixpoints (and test failures) reproducible.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PentagonState {
    /// `b(x)`: an interval containing the run-time value of `x`.
    intervals: Vec<(Value, Interval)>,
    /// `s(x)`: variables strictly greater than `x` (never empty, never
    /// holding `x` itself).
    subs: Vec<(Value, Vec<Value>)>,
}

impl PentagonState {
    /// The empty state (function entry: nothing bound yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Where `v` is, or would go, in `intervals`.
    fn interval_slot(&self, v: Value) -> Result<usize, usize> {
        self.intervals.binary_search_by_key(&v, |&(x, _)| x)
    }

    /// Where `v`'s row is, or would go, in `subs`.
    fn row_slot(&self, v: Value) -> Result<usize, usize> {
        self.subs.binary_search_by_key(&v, |(x, _)| *x)
    }

    /// `s(v)`, sorted (empty if none recorded).
    fn row(&self, v: Value) -> &[Value] {
        match self.row_slot(v) {
            Ok(i) => &self.subs[i].1,
            Err(_) => &[],
        }
    }

    /// `s(v)` for update, inserted empty if absent: the caller must leave
    /// it non-empty.
    fn row_mut(&mut self, v: Value) -> &mut Vec<Value> {
        let i = match self.row_slot(v) {
            Ok(i) => i,
            Err(i) => {
                self.subs.insert(i, (v, Vec::new()));
                i
            }
        };
        &mut self.subs[i].1
    }

    /// Sets `b(v)`, replacing any previous interval.
    fn set_interval(&mut self, v: Value, interval: Interval) {
        match self.interval_slot(v) {
            Ok(i) => self.intervals[i].1 = interval,
            Err(i) => self.intervals.insert(i, (v, interval)),
        }
    }

    /// Sets `s(v)` to the non-empty sorted `row`, replacing any previous
    /// one.
    fn set_row(&mut self, v: Value, row: Vec<Value>) {
        match self.row_slot(v) {
            Ok(i) => self.subs[i].1 = row,
            Err(i) => self.subs.insert(i, (v, row)),
        }
    }

    /// Whether `v` is bound (defined on every path reaching this point).
    pub fn binds(&self, v: Value) -> bool {
        self.interval_slot(v).is_ok()
    }

    /// The interval of `v`; ⊤ if bound without range facts.
    ///
    /// Returns `None` when `v` is not bound at this point.
    pub fn interval(&self, v: Value) -> Option<Interval> {
        self.interval_slot(v).ok().map(|i| self.intervals[i].1)
    }

    /// The strict upper bounds of `v` in `Value` order (empty if none
    /// recorded).
    pub fn upper_bounds(&self, v: Value) -> impl Iterator<Item = Value> + '_ {
        self.row(v).iter().copied()
    }

    /// The bound variables with their intervals, in `Value` order.
    pub(crate) fn bindings(&self) -> impl Iterator<Item = (Value, Interval)> + '_ {
        self.intervals.iter().copied()
    }

    /// Every variable with recorded strict upper bounds, with its sorted
    /// `s` set, in `Value` order.
    pub(crate) fn upper_bound_sets(&self) -> impl Iterator<Item = (Value, &[Value])> + '_ {
        self.subs.iter().map(|(v, s)| (*v, s.as_slice()))
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
        if self.row(a).binary_search(&b).is_ok() {
            return true;
        }
        match (self.interval(a), self.interval(b)) {
            (Some(ia), Some(ib)) => numerically_below(ia, ib),
            _ => false,
        }
    }

    /// Binds `v` to `interval` with no order facts, erasing stale facts
    /// about the name first (see the module docs on redefinition).
    pub fn bind(&mut self, v: Value, interval: Interval) {
        self.purge(v);
        self.set_interval(v, interval);
    }

    /// Binds `v` as a fresh name equal to `src`: same interval, same
    /// upper bounds, and every variable below `src` is also below `v`.
    pub fn bind_equal(&mut self, v: Value, src: Value) {
        self.purge(v);
        let interval = self.interval(src).unwrap_or(Interval::TOP);
        let bounds = self.row(src).to_vec();
        self.set_interval(v, interval);
        if !bounds.is_empty() {
            self.set_row(v, bounds);
        }
        // w < src ⇒ w < v.
        for (_, s) in &mut self.subs {
            if s.binary_search(&src).is_ok() {
                insert_sorted(s, v);
            }
        }
    }

    /// Records `a < b`, transitively: `s(a) ∪= {b} ∪ s(b)` and, for every
    /// `w` with `a ∈ s(w)` (that is, `w < a`), `s(w) ∪= {b} ∪ s(b)`.
    pub fn record_lt(&mut self, a: Value, b: Value) {
        if a == b {
            return;
        }
        let mut gained = self.row(b).to_vec();
        insert_sorted(&mut gained, b);
        if let Ok(i) = gained.binary_search(&a) {
            gained.remove(i); // never record a < a
        }
        for (w, s) in &mut self.subs {
            if *w != b && s.binary_search(&a).is_ok() {
                union_into(s, &gained, *w);
            }
        }
        union_into(self.row_mut(a), &gained, a);
    }

    /// Records `a ≤ b`: everything above `b` is above `a`, and everything
    /// below `a` is below `b`.
    pub fn record_le(&mut self, a: Value, b: Value) {
        if a == b {
            return;
        }
        let above_b = self.row(b).to_vec();
        let mut gained = above_b.clone();
        insert_sorted(&mut gained, b);
        for (w, s) in &mut self.subs {
            if *w != b && s.binary_search(&a).is_ok() {
                // w < a ≤ b ⇒ w < b (and w < anything above b).
                union_into(s, &gained, *w);
            }
        }
        // a ≤ b < u ⇒ a < u (but NOT a < b).
        if above_b.iter().any(|&u| u != a) {
            union_into(self.row_mut(a), &above_b, a);
        }
    }

    /// Narrows the interval of `v` by `bound` (meet). Returns `false` if
    /// the result is empty — the program point is unreachable under this
    /// refinement (an infeasible branch edge).
    #[must_use]
    pub fn refine_interval(&mut self, v: Value, bound: Interval) -> bool {
        match self.interval_slot(v) {
            Ok(i) => {
                let iv = &mut self.intervals[i].1;
                *iv = iv.meet(&bound);
                !iv.is_bottom()
            }
            Err(_) => true, // unbound: nothing to refine
        }
    }

    /// Captures everything the state knows about `u`, for a later
    /// [`bind_snapshot`](Self::bind_snapshot). Used to give φ-functions
    /// their *parallel* copy semantics: all incoming values are read in
    /// the pre-edge state before any φ is rebound.
    pub(crate) fn snapshot(&self, u: Value) -> ValueSnapshot {
        ValueSnapshot {
            interval: self.interval(u),
            above: self.row(u).to_vec(),
            below: self
                .subs
                .iter()
                .filter(|(_, s)| s.binary_search(&u).is_ok())
                .map(|(w, _)| *w)
                .collect(),
        }
    }

    /// Binds `v` as a fresh name equal to the snapshotted value, skipping
    /// any names in the sorted slice `stale` (φs of the same block that
    /// were rebound in parallel — their snapshot-time values no longer
    /// exist).
    pub(crate) fn bind_snapshot(&mut self, v: Value, snap: &ValueSnapshot, stale: &[Value]) {
        let Some(interval) = snap.interval else {
            // The source was unbound (unreachable/partial path): v stays
            // unbound rather than inheriting vacuous facts.
            return;
        };
        self.set_interval(v, interval);
        let live = |st: &Self, u: Value| u != v && stale.binary_search(&u).is_err() && st.binds(u);
        let above: Vec<Value> = snap.above.iter().copied().filter(|&u| live(self, u)).collect();
        if !above.is_empty() {
            self.set_row(v, above);
        }
        for &w in &snap.below {
            if live(self, w) {
                insert_sorted(self.row_mut(w), v);
            }
        }
    }

    /// Erases every fact about `v`: its own bindings and its occurrences
    /// in other variables' upper-bound sets.
    pub fn purge(&mut self, v: Value) {
        if let Ok(i) = self.interval_slot(v) {
            self.intervals.remove(i);
        }
        self.subs.retain_mut(|(w, s)| {
            if *w == v {
                return false;
            }
            if let Ok(i) = s.binary_search(&v) {
                s.remove(i);
            }
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

    /// The join or widening, as two linear merges. The intervals: a
    /// two-pointer walk keeps the values bound on both sides. Each `s(v)`:
    /// a walk over both sides' rows, where a candidate on both rows is
    /// proven relationally by each side, and a candidate on one row only
    /// must be proven numerically by the other side's intervals. Either
    /// way the candidate must be bound on both sides. Facts both sides
    /// prove only numerically survive in the joined *intervals* when they
    /// stay disjoint, so they need no row entry.
    fn merge(
        &self,
        other: &PentagonState,
        combine: impl Fn(&Interval, &Interval) -> Interval,
    ) -> PentagonState {
        let cap = self.intervals.len().min(other.intervals.len());
        let mut intervals = Vec::with_capacity(cap);
        // `sides[k]`: the two inputs' intervals of `intervals[k]`.
        let mut sides = Vec::with_capacity(cap);
        let (a, b) = (&self.intervals, &other.intervals);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let ((va, ia), (vb, ib)) = (a[i], b[j]);
            if va < vb {
                i += 1;
            } else if vb < va {
                j += 1;
            } else {
                intervals.push((va, combine(&ia, &ib)));
                sides.push((ia, ib));
                i += 1;
                j += 1;
            }
        }

        let mut subs = Vec::new();
        let mut row = Vec::new();
        let (mut ra, mut rb) = (0, 0);
        for (k, &(v, _)) in intervals.iter().enumerate() {
            let (sa, sb) = (row_at(&self.subs, &mut ra, v), row_at(&other.subs, &mut rb, v));
            if sa.is_empty() && sb.is_empty() {
                continue;
            }
            let (va_iv, vb_iv) = sides[k];
            row.clear();
            // Candidates come in `Value` order, so each lookup in the
            // joined intervals resumes where the previous one stopped.
            let mut from = 0;
            let mut seek = |u: Value| {
                from += intervals[from..].partition_point(|&(x, _)| x < u);
                (intervals.get(from).is_some_and(|&(x, _)| x == u)).then_some(from)
            };
            let (mut x, mut y) = (0, 0);
            loop {
                let (on_a, on_b) = (sa.get(x).copied(), sb.get(y).copied());
                let u = match (on_a, on_b) {
                    (Some(p), Some(q)) => p.min(q),
                    (Some(p), None) | (None, Some(p)) => p,
                    (None, None) => break,
                };
                let (on_a, on_b) = (on_a == Some(u), on_b == Some(u));
                x += usize::from(on_a);
                y += usize::from(on_b);
                // Each side proves v < u relationally (u on its row) or
                // numerically (its own intervals).
                let keep = seek(u).is_some_and(|ku| {
                    (on_a || numerically_below(va_iv, sides[ku].0))
                        && (on_b || numerically_below(vb_iv, sides[ku].1))
                });
                if keep {
                    row.push(u);
                }
            }
            if !row.is_empty() {
                subs.push((v, row.clone()));
            }
        }
        PentagonState { intervals, subs }
    }
}

/// `s(v)` in the sorted rows `subs`, scanning forward from `*at` (empty
/// if `v` has no row). Successive calls must ask for increasing `v`.
fn row_at<'s>(subs: &'s [(Value, Vec<Value>)], at: &mut usize, v: Value) -> &'s [Value] {
    while subs.get(*at).is_some_and(|(x, _)| *x < v) {
        *at += 1;
    }
    match subs.get(*at) {
        Some((x, s)) if *x == v => s,
        _ => &[],
    }
}

/// Inserts `v` into the sorted `row` unless it is already there.
fn insert_sorted(row: &mut Vec<Value>, v: Value) {
    if let Err(i) = row.binary_search(&v) {
        row.insert(i, v);
    }
}

/// `row ∪= add ∖ {skip}`, with `row` and `add` sorted.
fn union_into(row: &mut Vec<Value>, add: &[Value], skip: Value) {
    let old = row.len();
    for &u in add {
        if u != skip && row[..old].binary_search(&u).is_err() {
            row.push(u);
        }
    }
    if row.len() > old {
        row.sort_unstable();
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

        /// A random state with unbound, ⊤ and finite variables, and a
        /// handful of recorded `<` and `≤` facts (possibly about unbound
        /// names), so every case of the join's rule occurs.
        fn partial_states(n: usize) -> impl Strategy<Value = PentagonState> {
            let intervals = proptest::collection::vec((0u8..4, -20i64..20, 0i64..10), n);
            let facts = proptest::collection::vec((0..n, 0..n, any::<bool>()), 0..8);
            (intervals, facts).prop_map(move |(ivs, facts)| {
                let mut st = PentagonState::new();
                for (i, (kind, lo, width)) in ivs.into_iter().enumerate() {
                    match kind {
                        0 => {}
                        1 => st.bind(v(i), Interval::TOP),
                        _ => st.bind(v(i), Interval::finite(lo, lo + width)),
                    }
                }
                for (a, b, strict) in facts {
                    if strict {
                        st.record_lt(v(a), v(b));
                    } else {
                        st.record_le(v(a), v(b));
                    }
                }
                st
            })
        }

        /// `m` (the join or the widening of `a` and `b`) proves `x < y`
        /// exactly when its own intervals do, or when `y` is on either
        /// input's `s(x)`, both inputs bind `x` and `y`, and each input
        /// proves `x < y` by its own means.
        fn assert_merge_is_exact(
            a: &PentagonState,
            b: &PentagonState,
            m: &PentagonState,
            n: usize,
        ) {
            for x in (0..n).map(v) {
                for y in (0..n).map(v) {
                    let numeric = matches!(
                        (m.interval(x), m.interval(y)),
                        (Some(ix), Some(iy)) if numerically_below(ix, iy)
                    );
                    let on_a_row = a.upper_bounds(x).any(|u| u == y);
                    let relational = (on_a_row || b.upper_bounds(x).any(|u| u == y))
                        && [a, b].iter().all(|s| s.binds(x) && s.binds(y) && s.proves_lt(x, y));
                    assert_eq!(m.proves_lt(x, y), numeric || relational, "{x} < {y}");
                }
            }
        }

        proptest! {
            /// The join proves exactly the refined pentagon join's facts.
            #[test]
            fn join_is_exact(a in partial_states(6), b in partial_states(6)) {
                assert_merge_is_exact(&a, &b, &a.join(&b), 6);
            }

            /// So does the widening, with its own intervals.
            #[test]
            fn widen_is_exact(a in partial_states(6), b in partial_states(6)) {
                assert_merge_is_exact(&a, &b, &a.widen(&b), 6);
            }

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
