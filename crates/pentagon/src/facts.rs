//! The per-definition fact table: the dense fixpoint served sparsely.
//!
//! [`PentagonAnalysis`](crate::PentagonAnalysis) keeps one state per
//! block entry, which is what a *dense* analysis computes. Its queries,
//! though, are *sparse*: [`proves_lt`](crate::PentagonAnalysis::proves_lt)
//! only ever reads the state right after `def(a)` and right after
//! `def(b)`. A [`FactTable`] walks each reachable block that defines a
//! queried value once, forward from its entry state, and records at the definition of every value
//! in a caller-chosen query set `R` what those reads would return for
//! every other member of `R`:
//!
//! * which members are bound there;
//! * which members the new value is provably below;
//! * which members are provably below the new value.
//!
//! A query is then a handful of bit tests, with the same verdict as the
//! replay, for any two members of `R`. Rows are [`BitMatrix`] rows over
//! a per-function dense index of `R`, so the table holds `3·|R|²` bits
//! and no abstract state.

use crate::state::{numerically_below, PentagonState};
use sraa_ir::{BitMatrix, Value};

/// Index of a value outside the query set.
const NOT_QUERIED: u32 = u32::MAX;

/// One function's Pentagon order facts, restricted to a query set `R`
/// and tabulated at each member's definition.
///
/// Build with [`PentagonAnalysis::fact_table`](crate::PentagonAnalysis::fact_table).
/// [`proves_lt`](Self::proves_lt) answers exactly as
/// [`PentagonAnalysis::proves_lt`](crate::PentagonAnalysis::proves_lt)
/// does for any two members of `R`.
#[derive(Clone, Debug)]
pub struct FactTable {
    /// `index[v]`: `v`'s position in `R`, or [`NOT_QUERIED`].
    index: Vec<u32>,
    /// Row `i`, column `j`: `R[j]` is bound right after `def(R[i])`.
    /// Rows of unreachable definitions are empty.
    bound: BitMatrix,
    /// Row `i`, column `j`: `R[i] < R[j]` right after `def(R[i])`.
    above: BitMatrix,
    /// Row `i`, column `j`: `R[j] < R[i]` right after `def(R[i])`.
    below: BitMatrix,
}

impl FactTable {
    /// An empty table over `R = queries` (duplicates are ignored) in a
    /// function with `num_values` values.
    pub(crate) fn new(num_values: usize, queries: &[Value]) -> Self {
        let mut index = vec![NOT_QUERIED; num_values];
        let mut n = 0;
        for &v in queries {
            let slot = &mut index[v.index()];
            if *slot == NOT_QUERIED {
                *slot = n as u32;
                n += 1;
            }
        }
        Self {
            index,
            bound: BitMatrix::new(n, n),
            above: BitMatrix::new(n, n),
            below: BitMatrix::new(n, n),
        }
    }

    /// `v`'s position in `R`.
    fn slot(&self, v: Value) -> Option<usize> {
        match self.index.get(v.index()) {
            Some(&i) if i != NOT_QUERIED => Some(i as usize),
            _ => None,
        }
    }

    /// Whether `v` is in the query set.
    pub(crate) fn contains(&self, v: Value) -> bool {
        self.slot(v).is_some()
    }

    /// Records the row of `v` from `st`, the state right after `def(v)`:
    /// for each bound member `x ≠ v`, the verdicts of `st.proves_lt(v, x)`
    /// and `st.proves_lt(x, v)`, read in one pass over each of `st`'s two
    /// maps instead of one lookup per member.
    pub(crate) fn record(&mut self, v: Value, st: &PentagonState) {
        let Some(row) = self.slot(v) else { return };
        let iv = st.interval(v);
        for (x, ix) in st.bindings() {
            let Some(col) = self.slot(x) else { continue };
            if x == v {
                continue;
            }
            self.bound.insert(row, col);
            if let Some(iv) = iv {
                if numerically_below(iv, ix) {
                    self.above.insert(row, col);
                }
                if numerically_below(ix, iv) {
                    self.below.insert(row, col);
                }
            }
        }
        // Relationally: x ∈ s(v), and v ∈ s(x).
        for x in st.upper_bounds(v) {
            match self.slot(x) {
                Some(col) if self.bound.contains(row, col) => {
                    self.above.insert(row, col);
                }
                _ => {}
            }
        }
        for (x, s) in st.upper_bound_sets() {
            match self.slot(x) {
                Some(col) if self.bound.contains(row, col) && s.contains(&v) => {
                    self.below.insert(row, col);
                }
                _ => {}
            }
        }
    }

    /// Does the analysis prove `a < b` wherever the two are
    /// simultaneously alive? Same reading of the two definition points
    /// as [`PentagonAnalysis::proves_lt`](crate::PentagonAnalysis::proves_lt);
    /// `false` when either value is outside the query set.
    pub fn proves_lt(&self, a: Value, b: Value) -> bool {
        if a == b {
            return false;
        }
        let (Some(ia), Some(ib)) = (self.slot(a), self.slot(b)) else { return false };
        let mut evidence = false;
        // After def(a), with b bound: a < b must hold there.
        if self.bound.contains(ia, ib) {
            if !self.above.contains(ia, ib) {
                return false;
            }
            evidence = true;
        }
        // After def(b), with a bound: a < b must hold there too.
        if self.bound.contains(ib, ia) {
            if !self.below.contains(ib, ia) {
                return false;
            }
            evidence = true;
        }
        evidence
    }
}
