//! Sorted-set kernels for the dense lattice store.
//!
//! `LT` sets are strictly increasing `u32` slices. The two operations the
//! dense solver runs in its innermost loop — `∩` for `Inter` constraints
//! and `∪` for `Union` constraints — live here:
//!
//! * [`intersect_in_place`] is the plain two-pointer merge. Almost every
//!   `LT` set has at most two elements (paper §4.2), so there is nothing
//!   for a block skip to skip.
//! * [`union_merge`] decomposes the merge into maximal runs found with
//!   `partition_point` (binary search) and copies each run with
//!   `extend_from_slice` (a `memcpy`), instead of branching per element;
//!   a fifth of the union evaluations merge more than 16 elements.
//!
//! The property tests below pin both element-for-element to naive
//! oracles.

/// In-place intersection of a sorted, deduplicated vector with a sorted,
/// deduplicated slice: `acc ← acc ∩ b`.
pub(crate) fn intersect_in_place(acc: &mut Vec<u32>, b: &[u32]) {
    let mut w = 0;
    let mut j = 0;
    for i in 0..acc.len() {
        let v = acc[i];
        while j < b.len() && b[j] < v {
            j += 1;
        }
        if j < b.len() && b[j] == v {
            acc[w] = v;
            w += 1;
            j += 1;
        }
    }
    acc.truncate(w);
}

/// Merge-union of two sorted, deduplicated slices into `out` (cleared by
/// the caller): `out ← a ∪ b`, sorted and deduplicated.
///
/// Instead of a per-element branch, each step locates the maximal run of
/// one input strictly below the other's head with `partition_point` and
/// copies it wholesale — long disjoint stretches (the common case when a
/// `Union` folds a chain predecessor into a few fresh elements) become
/// single `memcpy`s.
pub(crate) fn union_merge(out: &mut Vec<u32>, a: &[u32], b: &[u32]) {
    debug_assert!(out.is_empty());
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let run_a = a[i..].partition_point(|&x| x < b[j]);
        out.extend_from_slice(&a[i..i + run_a]);
        i += run_a;
        if i == a.len() {
            break;
        }
        // `a[i] >= b[j]`: copy the run of `b` strictly below it, then
        // fold an equal head once.
        let run_b = b[j..].partition_point(|&x| x < a[i]);
        out.extend_from_slice(&b[j..j + run_b]);
        j += run_b;
        if j < b.len() && a[i] == b[j] {
            out.push(a[i]);
            i += 1;
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().copied().filter(|v| b.binary_search(v).is_ok()).collect()
    }

    fn naive_union(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out: Vec<u32> = a.iter().chain(b).copied().collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn sorted_set() -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::vec(0u32..200, 0..64).prop_map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
    }

    #[test]
    fn intersect_handles_edges() {
        for (a, b, want) in [
            (vec![], vec![1, 2, 3], vec![]),
            (vec![1, 2, 3], vec![], vec![]),
            (vec![1, 3, 5, 7], vec![2, 3, 4, 7, 9], vec![3, 7]),
            (vec![5], (0..100).collect::<Vec<_>>(), vec![5]),
            ((0..100).collect::<Vec<_>>(), vec![99], vec![99]),
        ] {
            let mut acc = a.clone();
            intersect_in_place(&mut acc, &b);
            assert_eq!(acc, want, "{a:?} ∩ {b:?}");
        }
    }

    #[test]
    fn union_handles_edges() {
        for (a, b) in [
            (vec![], vec![]),
            (vec![1, 2], vec![]),
            (vec![], vec![1, 2]),
            (vec![1, 2, 3], vec![1, 2, 3]),
            (vec![1, 5, 9], vec![2, 5, 10]),
            ((0..40).collect::<Vec<u32>>(), vec![7]),
        ] {
            let mut out = Vec::new();
            union_merge(&mut out, &a, &b);
            assert_eq!(out, naive_union(&a, &b), "{a:?} ∪ {b:?}");
        }
    }

    proptest! {
        #[test]
        fn intersect_matches_naive(a in sorted_set(), b in sorted_set()) {
            let want = naive_intersect(&a, &b);
            let mut acc = a;
            intersect_in_place(&mut acc, &b);
            prop_assert_eq!(acc, want);
        }

        #[test]
        fn union_matches_naive(a in sorted_set(), b in sorted_set()) {
            let mut out = Vec::new();
            union_merge(&mut out, &a, &b);
            prop_assert_eq!(out, naive_union(&a, &b));
        }
    }
}
