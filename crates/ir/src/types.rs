//! Scalar types of the IR.
//!
//! The paper's core language (its Figure 2) manipulates *scalar* values
//! only: integers and pointers. Pointers carry a nesting depth so that the
//! Csmith-like workloads of the evaluation (Figure 12 varies `int*` through
//! `int*******`) are expressible.

use std::fmt;

/// A scalar IR type: a 64-bit signed integer or a pointer.
///
/// `Ptr(1)` is a pointer to `Int` (C's `int*`), `Ptr(2)` a pointer to
/// `Ptr(1)` (`int**`), and so on. Every scalar occupies exactly
/// [`Type::SIZE`] bytes in the interpreter's memory model, which keeps
/// pointer arithmetic uniform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Type {
    /// 64-bit signed integer (also used for booleans: 0 or 1).
    Int,
    /// Pointer with the given nesting depth (≥ 1).
    Ptr(u8),
}

impl Type {
    /// Size in bytes of any scalar in the memory model.
    pub const SIZE: i64 = 8;

    /// Returns `true` if this is a pointer type.
    pub fn is_ptr(self) -> bool {
        matches!(self, Type::Ptr(_))
    }

    /// The type obtained by dereferencing this pointer type.
    ///
    /// Returns `None` for [`Type::Int`].
    pub fn pointee(self) -> Option<Type> {
        match self {
            Type::Int => None,
            Type::Ptr(1) => Some(Type::Int),
            Type::Ptr(d) => Some(Type::Ptr(d - 1)),
        }
    }

    /// The pointer type pointing to this type.
    ///
    /// # Panics
    ///
    /// Panics if the nesting depth would exceed `u8::MAX`.
    pub fn ptr_to(self) -> Type {
        match self {
            Type::Int => Type::Ptr(1),
            Type::Ptr(d) => Type::Ptr(d.checked_add(1).expect("pointer nesting too deep")),
        }
    }

    /// Pointer nesting depth: 0 for `Int`, `d` for `Ptr(d)`.
    pub fn depth(self) -> u8 {
        match self {
            Type::Int => 0,
            Type::Ptr(d) => d,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Ptr(d) => {
                write!(f, "int")?;
                for _ in 0..*d {
                    write!(f, "*")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointee_unwinds_depth() {
        assert_eq!(Type::Ptr(3).pointee(), Some(Type::Ptr(2)));
        assert_eq!(Type::Ptr(1).pointee(), Some(Type::Int));
        assert_eq!(Type::Int.pointee(), None);
    }

    #[test]
    fn ptr_to_wraps_depth() {
        assert_eq!(Type::Int.ptr_to(), Type::Ptr(1));
        assert_eq!(Type::Ptr(1).ptr_to(), Type::Ptr(2));
    }

    #[test]
    fn display_matches_c_spelling() {
        assert_eq!(Type::Int.to_string(), "int");
        assert_eq!(Type::Ptr(1).to_string(), "int*");
        assert_eq!(Type::Ptr(3).to_string(), "int***");
    }

    #[test]
    fn ptr_round_trip() {
        let t = Type::Int.ptr_to().ptr_to();
        assert_eq!(t.pointee().unwrap().pointee().unwrap(), Type::Int);
        assert_eq!(t.depth(), 2);
    }
}
