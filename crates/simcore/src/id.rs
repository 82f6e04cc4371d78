//! Typed identifiers for simulation entities.
//!
//! Newtypes prevent mixing up device, gateway, and message identifiers at
//! compile time (C-NEWTYPE).

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name($inner);

        impl $name {
            /// Creates an identifier from its raw index.
            pub const fn new(raw: $inner) -> Self {
                $name(raw)
            }

            /// The raw index behind this identifier.
            pub const fn raw(self) -> $inner {
                self.0
            }

            /// The raw index as a `usize`, for vector indexing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<$inner> for $name {
            fn from(raw: $inner) -> Self {
                $name(raw)
            }
        }

        impl crate::DenseKey for $name {
            fn dense_index(self) -> usize {
                self.index()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a mobile LoRa end-device (a bus in the London scenario).
    NodeId,
    u32,
    "node-"
);

id_type!(
    /// Identifier of a static LoRaWAN gateway (sink).
    GatewayId,
    u32,
    "gw-"
);

id_type!(
    /// Identifier of an application-layer message (one 20-byte reading).
    MessageId,
    u64,
    "msg-"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn roundtrip_and_display() {
        let n = NodeId::new(7);
        assert_eq!(n.raw(), 7);
        assert_eq!(n.index(), 7);
        assert_eq!(n.to_string(), "node-7");
        assert_eq!(GatewayId::new(3).to_string(), "gw-3");
        assert_eq!(MessageId::new(42).to_string(), "msg-42");
    }

    #[test]
    fn usable_in_collections() {
        let mut set = HashSet::new();
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(2));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn ordering_follows_raw() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(MessageId::new(100) > MessageId::new(99));
    }

    #[test]
    fn from_raw() {
        let g: GatewayId = 9u32.into();
        assert_eq!(g, GatewayId::new(9));
    }
}
