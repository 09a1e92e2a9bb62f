//! Random constraint-system generators shared by the property tests of
//! the two fixpoint schedules and of the lattice store.

use crate::constraints::Constraint as C;
use crate::var_index::VarId;
use proptest::prelude::*;

/// A random constraint for variable `x` over `n` variables: any shape the
/// generator can emit, cycles and dead code included. `None` leaves `x`
/// undefined (it stays ⊤ and is frozen to ∅).
fn constraint_for(x: usize, n: usize, allow_undefined: bool) -> impl Strategy<Value = Option<C>> {
    let x = VarId::from_index(x);
    let var = (0..n).prop_map(VarId::from_index);
    let vars = proptest::collection::vec((0..n).prop_map(VarId::from_index), 1..4);
    let undefined_weight = u32::from(allow_undefined);
    prop_oneof![
        undefined_weight => Just(None), // undefined variable: stays ⊤, frozen ∅
        2 => Just(Some(C::Init { x })),
        2 => var.prop_map(move |s| Some(C::Copy { x, source: s })),
        4 => (proptest::collection::vec((0..n).prop_map(VarId::from_index), 0..3), vars.clone())
            .prop_map(move |(elems, sources)| {
                Some(C::Union { x, elems, sources })
            }),
        3 => vars.prop_map(move |sources| Some(C::Inter { x, sources })),
    ]
}

fn systems_with(allow_undefined: bool) -> impl Strategy<Value = (Vec<C>, usize)> {
    (2usize..24).prop_flat_map(move |n| {
        (0..n)
            .map(|x| constraint_for(x, n, allow_undefined))
            .collect::<Vec<_>>()
            .prop_map(move |cs| (cs.into_iter().flatten().collect::<Vec<C>>(), n))
    })
}

/// Arbitrary systems: cycles, dead code and *undefined* variables.
pub(crate) fn systems() -> impl Strategy<Value = (Vec<C>, usize)> {
    systems_with(true)
}

/// Systems where every variable `0..n` has exactly one defining
/// constraint, so no variable stays ⊤ for want of a definition and only
/// cycles decide what the greatest fixpoint keeps.
pub(crate) fn grounded_systems() -> impl Strategy<Value = (Vec<C>, usize)> {
    systems_with(false)
}
