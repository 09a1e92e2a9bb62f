//! Entity identifiers for the IR.
//!
//! All IR entities live in dense arenas and are referred to by `u32`-backed
//! index newtypes. Using newtypes instead of raw indices keeps the distinct
//! index spaces (values, blocks, functions, globals) from being confused at
//! compile time, per the `C-NEWTYPE` API guideline.

use std::fmt;

macro_rules! entity_id {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Creates an id from a dense arena index.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                debug_assert!(index <= u32::MAX as usize);
                Self(index as u32)
            }

            /// Returns the dense arena index of this id.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

entity_id! {
    /// Identifies an instruction in a [`Function`](crate::Function).
    ///
    /// In this IR every instruction — value-producing or not — has a
    /// `Value` id; instructions such as `store` or terminators simply have
    /// no result type. This mirrors LLVM where `Instruction` is a `Value`.
    Value, "%v"
}

entity_id! {
    /// Identifies a basic block in a [`Function`](crate::Function).
    BlockId, "bb"
}

entity_id! {
    /// Identifies a function in a [`Module`](crate::Module).
    FuncId, "@f"
}

entity_id! {
    /// Identifies a global variable in a [`Module`](crate::Module).
    GlobalId, "@g"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_indices() {
        let v = Value::from_index(42);
        assert_eq!(v.index(), 42);
        let b = BlockId::from_index(0);
        assert_eq!(b.index(), 0);
    }

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(Value::from_index(3).to_string(), "%v3");
        assert_eq!(BlockId::from_index(7).to_string(), "bb7");
        assert_eq!(FuncId::from_index(1).to_string(), "@f1");
        assert_eq!(GlobalId::from_index(0).to_string(), "@g0");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(Value::from_index(1) < Value::from_index(2));
    }
}
