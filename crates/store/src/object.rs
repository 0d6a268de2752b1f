//! Content addressing: object identifiers and the canonical encoding.
//!
//! Like Irmin and Git, the branch store identifies immutable values by the
//! hash of their content. Since the codec unification there is exactly
//! **one** canonical encoding: a value's [`Wire`] bytes
//! ([`canonical_bytes`]) are simultaneously what a backend persists, what
//! replication transfers, and the SHA-256 preimage of the value's
//! [`ObjectId`] ([`content_id`]). The same bytes decode back to the typed
//! value, which is what makes a cold store reopenable as typed state
//! (`BranchStore::open`) and lets every ingest verify an object with one
//! hash and one decode.
//!
//! Identical states share one [`ObjectId`], so a [`Backend`](crate::Backend)
//! interns them: Git-style structural sharing of repeated states (e.g. the
//! many identical heads produced by convergent merges).

use crate::sha256::Sha256;
use peepul_core::Wire;
use std::fmt;

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Appends the lowercase hex rendering of `bytes` to `out` — one `String`
/// reservation, no per-byte formatting machinery.
pub(crate) fn push_hex(bytes: &[u8], out: &mut String) {
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0x0f) as usize] as char);
    }
}

/// A 256-bit content address.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId([u8; 32]);

impl ObjectId {
    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Reconstructs an id from raw digest bytes (e.g. read back from a
    /// persistent backend's index).
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        ObjectId(bytes)
    }

    /// Abbreviated hex form (first 8 hex digits), like `git log --oneline`.
    pub fn short(&self) -> String {
        let mut s = String::new();
        push_hex(&self.0[..4], &mut s);
        s
    }
}

impl Wire for ObjectId {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let bytes = peepul_core::wire::take(input, 32)?;
        Some(ObjectId(bytes.try_into().expect("exact size")))
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectId({})", self.short())
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // One buffered write_str instead of 32 formatter round-trips.
        let mut s = String::new();
        push_hex(&self.0, &mut s);
        f.write_str(&s)
    }
}

/// The content address of any encodable value: the SHA-256 of its
/// [`canonical_bytes`].
///
/// # Example
///
/// ```
/// use peepul_store::object::content_id;
///
/// let a = content_id(&vec![1u32, 2, 3]);
/// let b = content_id(&vec![1u32, 2, 3]);
/// let c = content_id(&vec![3u32, 2, 1]);
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
pub fn content_id<T: Wire>(value: &T) -> ObjectId {
    ObjectId(Sha256::digest(&canonical_bytes(value)))
}

/// The content address of already-encoded canonical bytes — what ingest
/// uses to verify a received object with one hash, no re-encode.
pub fn content_id_of_bytes(bytes: &[u8]) -> ObjectId {
    ObjectId(Sha256::digest(bytes))
}

/// The canonical byte encoding of a value: its [`Wire`] encoding.
///
/// This single encoding is the storage format (what backends persist and
/// [`BranchStore::open`](crate::BranchStore::open) decodes back), the wire
/// format (what replication transfers), and the preimage of the value's
/// content address: `sha256(canonical_bytes(v))` equals
/// [`content_id`]`(v)` by definition. The encoding is platform-independent
/// (little-endian, fixed widths), so segment files and wire frames are a
/// portable interchange format — see DESIGN.md §4.1.
pub fn canonical_bytes<T: Wire>(value: &T) -> Vec<u8> {
    value.to_wire()
}

/// Decodes a typed value back from its canonical bytes — the inverse of
/// [`canonical_bytes`], used by the typed reopen path and by replication
/// ingest. `None` when the bytes are not a canonical encoding of `T`.
pub fn decode_canonical<T: Wire>(bytes: &[u8]) -> Option<T> {
    T::from_wire(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_id_is_deterministic_and_discriminating() {
        assert_eq!(content_id(&42u64), content_id(&42u64));
        assert_ne!(content_id(&42u64), content_id(&43u64));
        assert_ne!(
            content_id(&String::from("a")),
            content_id(&String::from("b"))
        );
    }

    #[test]
    fn display_and_short_forms() {
        let id = content_id(&1u8);
        assert_eq!(id.to_string().len(), 64);
        assert_eq!(id.short().len(), 8);
        assert!(id.to_string().starts_with(&id.short()));
        assert!(id.to_string().chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn canonical_bytes_hash_to_the_content_id() {
        // The invariant every backend and every ingest relies on: hashing
        // the canonical encoding equals addressing the value directly.
        let values = [vec![1u32, 2, 3], vec![], vec![u32::MAX; 9]];
        for v in &values {
            let bytes = canonical_bytes(v);
            assert_eq!(content_id_of_bytes(&bytes), content_id(v));
        }
    }

    #[test]
    fn canonical_bytes_decode_back_to_the_value() {
        // The other half of the single-codec invariant: the stored bytes
        // are not a one-way hash stream, they decode to the typed value.
        let v = vec![(1u64, String::from("a")), (2, "b".into())];
        let bytes = canonical_bytes(&v);
        let back: Vec<(u64, String)> = decode_canonical(&bytes).expect("canonical bytes decode");
        assert_eq!(back, v);
        assert_eq!(canonical_bytes(&back), bytes);
        assert_eq!(decode_canonical::<u64>(&bytes[..3]), None);
    }
}
