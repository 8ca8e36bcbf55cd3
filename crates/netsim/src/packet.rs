//! Packets and node addressing.

use bytes::Bytes;

/// Identifies a node (host) in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The conventional Ethernet MTU; the paper's Table 2 measures "an MTU
/// sized packet".
pub const MTU: usize = 1500;

/// A datagram in flight or delivered. On the wire it is `payload`
/// followed by `padding` zero bytes; the zeros are counted, never stored
/// (see [`crate::Network::send_padded`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Monotonic per-simulation id (assigned at send).
    pub id: u64,
    /// Sender.
    pub src: NodeId,
    /// Destination.
    pub dst: NodeId,
    /// Payload bytes (cheaply clonable).
    pub payload: Bytes,
    /// Zero bytes that follow `payload` on the wire.
    pub padding: usize,
}

impl Packet {
    /// Wire length in bytes: the payload plus its padding.
    pub fn len(&self) -> usize {
        self.payload.len() + self.padding
    }

    /// True if nothing at all goes on the wire.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full frame as it crosses the wire, padding zeros included, in
    /// one allocation of [`Packet::len`] bytes.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(self.len());
        frame.extend_from_slice(&self.payload);
        frame.resize(self.len(), 0);
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let p = Packet {
            id: 1,
            src: NodeId(0),
            dst: NodeId(1),
            payload: Bytes::from_static(b"hello"),
            padding: 0,
        };
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert_eq!(p.wire_bytes(), b"hello");
        assert_eq!(format!("{}", p.src), "n0");
    }

    #[test]
    fn padding_counts_on_the_wire_as_zeros() {
        let p = Packet {
            id: 1,
            src: NodeId(0),
            dst: NodeId(1),
            payload: Bytes::from_static(b"hi"),
            padding: 3,
        };
        assert_eq!(p.len(), 5);
        assert_eq!(p.wire_bytes(), b"hi\0\0\0");
        let empty = Packet {
            payload: Bytes::new(),
            padding: 0,
            ..p
        };
        assert!(empty.is_empty());
    }
}
