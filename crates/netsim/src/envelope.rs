//! In-flight messages and their payload representation.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use fdn_graph::NodeId;

/// An immutable, cheaply-clonable message payload.
///
/// The protocol under study is *content-oblivious*: almost every message is
/// the identical single-byte pulse. A one-byte payload is stored inline, with
/// no allocation and no refcount, so cloning a pulse is a plain copy and
/// threads running separate simulations share no memory through it. Longer
/// payloads live behind an [`Arc`], so a broadcast serializes its bytes once
/// and every per-link envelope shares them. Either way `Payload` is 16 bytes:
/// the inline byte sits in the niche of the `Arc` pointer.
///
/// `Payload` is a value type: equality is *byte* equality (pointer identity
/// of a shared payload is only a fast path), so two independently-built
/// payloads still compare equal and reports never depend on allocation
/// history.
#[derive(Clone, PartialEq, Eq)]
pub struct Payload(Repr);

/// Storage of a [`Payload`]. A one-byte payload is always `Byte`, so the
/// derived equality never has to compare a `Byte` with a one-byte `Shared`.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Byte(u8),
    Shared(Arc<[u8]>),
}

impl Payload {
    /// The one-byte payload `[b]`, built without allocating.
    pub const fn byte(b: u8) -> Self {
        Payload(Repr::Byte(b))
    }

    /// Copies the bytes out into an owned `Vec`, one allocation per call.
    /// Only transcripts and the allocating faces of the [`crate::NoiseModel`]
    /// API (`corrupt`, `deliver`) need one. Queueing a payload never copies
    /// it, and the simulation delivers through
    /// [`crate::NoiseModel::deliver_into`] into one reused buffer.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Payload").field(&self.as_ref()).finish()
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Byte(b) => std::slice::from_ref(b),
            Repr::Shared(bytes) => bytes,
        }
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        // `Arc<[u8]>` copies out of a `Vec` too, so this costs nothing extra.
        bytes.as_slice().into()
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        match *bytes {
            [b] => Payload::byte(b),
            _ => Payload(Repr::Shared(bytes.into())),
        }
    }
}

/// A message travelling on a link: sender, receiver and the payload as it was
/// sent. Noise is applied only at delivery time, so the envelope always
/// carries the original content (the paper's communication-complexity
/// accounting measures the *sent* length, before corruption).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Payload exactly as handed to the channel by the sender.
    pub payload: Payload,
    /// Global send sequence number (used by FIFO/LIFO schedulers and for
    /// deterministic tie-breaking).
    pub seq: u64,
}

impl Envelope {
    /// Payload length in bits, as counted by the paper's `CC` measures.
    pub fn bits(&self) -> u64 {
        self.payload.len() as u64 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_counts_payload_length() {
        let e = Envelope {
            from: NodeId(0),
            to: NodeId(1),
            payload: vec![0xff, 0x00].into(),
            seq: 7,
        };
        assert_eq!(e.bits(), 16);
    }

    #[test]
    fn payload_equality_is_byte_equality() {
        let a: Payload = vec![1, 2, 3].into();
        let b = a.clone();
        let c: Payload = vec![1, 2, 3].into();
        let d: Payload = vec![4].into();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_ne!(a, d);
        assert_eq!(&*a, &[1, 2, 3]);
        assert_eq!(a.to_vec(), vec![1, 2, 3]);

        // A one-byte payload is the same value however it is built.
        let byte = Payload::byte(0);
        let from_vec: Payload = vec![0].into();
        let from_slice: Payload = [0u8].as_slice().into();
        for p in [&byte, &from_vec, &from_slice] {
            assert_eq!(*p, byte);
            assert_eq!(&**p, &[0]);
        }
        let two: Payload = vec![0, 0].into();
        assert_ne!(byte, two);
        assert_ne!(byte, d);
        assert_eq!(format!("{byte:?}"), "Payload([0])");
    }

    #[test]
    fn payload_and_envelope_keep_their_size() {
        // The inline byte must live in the `Arc` pointer's niche; a variant
        // that breaks the niche grows every queued envelope.
        assert_eq!(std::mem::size_of::<Payload>(), 16);
        assert_eq!(std::mem::size_of::<Envelope>(), 32);
    }
}
