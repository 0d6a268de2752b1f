//! The **canonical codec**: one decodable binary encoding that is
//! simultaneously the storage format, the wire format, and the content
//! address preimage.
//!
//! Historically the workspace carried two parallel serializations — a
//! one-way `Hash`-stream that minted content addresses, and this codec
//! bolted alongside for replication. They are now unified: [`Wire`] is
//! the *single* canonical encoding. A state's content address is
//! `sha256(encode(σ))`; the branch store persists exactly those bytes in
//! its backend (and decodes them back on `BranchStore::open`, the typed
//! cold-start path); replication transfers the same bytes and verifies
//! them with the same hash. Every [`crate::Mrdt`] carries the codec as a
//! supertrait bound.
//!
//! The encoding is small, explicit and platform-independent:
//! little-endian fixed-width integers, `u64` length prefixes, explicit
//! enum tags. On ingest a receiver hashes the received bytes against the
//! advertised address and decodes them **once** — no re-encoding across
//! formats — so a codec bug is indistinguishable from corruption (both
//! are rejected before anything lands).
//!
//! # Implementing `Wire`
//!
//! Encode fields in declaration order with the building-block impls below;
//! decode them back in the same order. The encoding must be **canonical**:
//! one value, one byte string (iterate ordered containers, reject
//! non-canonical input on decode). The certification harness checks
//! `decode(encode(σ)) ≈ σ` and byte-identical re-encoding at every state
//! it explores (the `Φ_codec` standing obligation).
//!
//! [`Wire::max_tick`] is the Lamport *receive rule* hook: a state
//! carrying timestamps reports the largest tick it contains, and an
//! ingesting store advances its own clock past it so that operations
//! applied after a merge order after everything merged in (the
//! happens-before half of Ψ_ts across stores).
//!
//! # Example
//!
//! ```
//! use peepul_core::wire::Wire;
//!
//! let v: Vec<(u64, String)> = vec![(1, "a".into()), (2, "b".into())];
//! let bytes = v.to_wire();
//! assert_eq!(Vec::<(u64, String)>::from_wire(&bytes), Some(v));
//! ```

use crate::{ReplicaId, Timestamp};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A value with a deterministic, self-describing binary encoding — the
/// workspace's **one canonical codec**: storage bytes, wire bytes, and
/// the SHA-256 preimage of the content address are all this encoding.
///
/// Laws every implementation must uphold:
///
/// * **round-trip**: `decode(encode(v))` succeeds consuming exactly the
///   encoded bytes, and yields a value observably equal to `v`
///   (structurally equal for every type whose representation is
///   canonical; a type with representation freedom — the tree-backed
///   OR-set — decodes to its canonical shape);
/// * **canonical form**: one value, one byte string — equal (or
///   observably equal) values encode to identical bytes, and re-encoding
///   a decoded value reproduces its input exactly. No iteration over
///   unordered containers, no platform-dependent widths; decoders reject
///   non-canonical input (e.g. duplicate set elements) rather than
///   normalising it;
/// * **address fidelity**: since the content address is the hash of this
///   encoding, the two laws above make `sha256(bytes)` a faithful
///   identity for the typed value. Stores and replicas verify it on
///   every object they ingest.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `input`, advancing it past the
    /// consumed bytes. `None` on malformed or truncated input.
    fn decode(input: &mut &[u8]) -> Option<Self>;

    /// The largest Lamport tick stored anywhere in this value, or 0 when
    /// it carries no timestamps.
    ///
    /// Ingesting stores use this as the Lamport receive rule: after
    /// landing a remote state they advance their own clock past it, so
    /// later local operations timestamp-order after everything merged in.
    fn max_tick(&self) -> u64 {
        0
    }

    /// This value's complete encoding as a fresh byte vector.
    fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a value from `bytes`, requiring that **all** bytes are
    /// consumed (trailing garbage is malformed input, not padding).
    fn from_wire(mut bytes: &[u8]) -> Option<Self> {
        let v = Self::decode(&mut bytes)?;
        bytes.is_empty().then_some(v)
    }
}

/// Splits `n` bytes off the front of `input`, or `None` if it is shorter.
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if input.len() < n {
        return None;
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Some(head)
}

/// Encodes a container length as `u64`.
pub fn encode_len(len: usize, out: &mut Vec<u8>) {
    (len as u64).encode(out);
}

/// Decodes a container length, rejecting lengths that cannot possibly fit
/// in the remaining input (each element takes ≥ 1 byte), so a malicious
/// length prefix cannot force a huge allocation.
pub fn decode_len(input: &mut &[u8]) -> Option<usize> {
    let len = u64::decode(input)?;
    let len = usize::try_from(len).ok()?;
    (len <= input.len()).then_some(len)
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(input: &mut &[u8]) -> Option<Self> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(bytes.try_into().expect("exact size")))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        usize::try_from(u64::decode(input)?).ok()
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for () {
    // One byte, not zero: every encodable value occupies at least one
    // wire byte, which is what lets `decode_len` reject length prefixes
    // larger than the remaining input before any allocation (a zero-size
    // encoding would make `vec![(); huge]` both unrepresentable under
    // that guard and a spin-loop without it).
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(0);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        (u8::decode(input)? == 0).then_some(())
    }
}

impl Wire for char {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u32).encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        char::from_u32(u32::decode(input)?)
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = decode_len(input)?;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(None),
            1 => Some(Some(T::decode(input)?)),
            _ => None,
        }
    }

    fn max_tick(&self) -> u64 {
        self.as_ref().map_or(0, Wire::max_tick)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        for v in self {
            v.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = decode_len(input)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Some(out)
    }

    fn max_tick(&self) -> u64 {
        self.iter().map(Wire::max_tick).max().unwrap_or(0)
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        for v in self {
            v.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Vec::<T>::decode(input)?.into())
    }

    fn max_tick(&self) -> u64 {
        self.iter().map(Wire::max_tick).max().unwrap_or(0)
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        for v in self {
            v.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = decode_len(input)?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            let v = T::decode(input)?;
            // Canonical form is strictly ascending: duplicate or unordered
            // elements would silently re-encode differently than they
            // arrived — reject rather than normalise.
            if out.last().is_some_and(|p| *p >= v) {
                return None;
            }
            out.insert(v);
        }
        Some(out)
    }

    fn max_tick(&self) -> u64 {
        self.iter().map(Wire::max_tick).max().unwrap_or(0)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = decode_len(input)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(input)?;
            let v = V::decode(input)?;
            // Strictly ascending keys, as for sets: one map, one byte
            // string.
            if out.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return None;
            }
            out.insert(k, v);
        }
        Some(out)
    }

    fn max_tick(&self) -> u64 {
        self.iter()
            .map(|(k, v)| k.max_tick().max(v.max_tick()))
            .max()
            .unwrap_or(0)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?))
    }

    fn max_tick(&self) -> u64 {
        self.0.max_tick().max(self.1.max_tick())
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }

    fn max_tick(&self) -> u64 {
        self.0
            .max_tick()
            .max(self.1.max_tick())
            .max(self.2.max_tick())
    }
}

/// One instruction of a [`Delta`] edit script: reuse a range of the base
/// encoding, or splice in literal bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Copy `len` bytes starting at byte `offset` of the base encoding.
    Copy {
        /// Byte offset into the base encoding.
        offset: u64,
        /// Number of bytes to copy.
        len: u64,
    },
    /// Insert these literal bytes.
    Insert(Vec<u8>),
}

impl DeltaOp {
    /// The bytes this instruction contributes against `base`, or `None`
    /// when a copy range falls outside it (checked arithmetic throughout).
    fn bytes<'a>(&'a self, base: &'a [u8]) -> Option<&'a [u8]> {
        match self {
            DeltaOp::Copy { offset, len } => {
                let start = usize::try_from(*offset).ok()?;
                let end = start.checked_add(usize::try_from(*len).ok()?)?;
                base.get(start..end)
            }
            DeltaOp::Insert(bytes) => Some(bytes),
        }
    }
}

/// A byte-level edit script from one canonical encoding to another — the
/// **delta form** of the canonical codec.
///
/// A delta is a *storage and transfer encoding only*: applying it to the
/// base's canonical bytes must reproduce the target's canonical bytes
/// exactly, so the target's content address stays `sha256` of the **full**
/// canonical encoding — deltas never mint addresses. Producers are
/// [`Delta::splice`] (the generic prefix/suffix trim every type gets for
/// free) and [`diff_item_lists`] (the structural differ for
/// length-prefix + concatenated-items encodings, which survives
/// mid-stream insertions and removals that defeat a plain splice), both
/// reached through [`crate::Mrdt::diff`], and the operation-derived
/// scripts of [`crate::Mrdt::op_delta`]. Storage chains deltas with
/// periodic full snapshots; replication ships one when the negotiation
/// proves the receiver holds the base. Both re-hash the resolved bytes
/// against the advertised address, so a wrong delta is indistinguishable
/// from corruption — rejected before anything lands. `Φ_codec` certifies
/// the resolution law (`apply_delta(base, diff(base, σ))` re-encodes to
/// `encode(σ)`) at every state the harness explores, and the same law for
/// `op_delta` at every `DO`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Delta {
    /// The edit script, applied in order.
    pub ops: Vec<DeltaOp>,
}

impl Delta {
    /// Resolves this delta against the base encoding, producing the target
    /// encoding. `None` when a copy range falls outside the base — a
    /// malformed or mismatched delta, never a panic.
    ///
    /// Every copy range is checked against the base before anything is
    /// allocated, so a script's claimed lengths cannot force an
    /// allocation; the output is then allocated once, at its exact size.
    pub fn apply(&self, base: &[u8]) -> Option<Vec<u8>> {
        let mut total = 0usize;
        for op in &self.ops {
            total = total.checked_add(op.bytes(base)?.len())?;
        }
        let mut out = Vec::with_capacity(total);
        for op in &self.ops {
            out.extend_from_slice(op.bytes(base)?);
        }
        Some(out)
    }

    /// The generic byte-level differ: trims the longest common prefix and
    /// suffix and inserts whatever changed in between. Optimal for
    /// append/prepend-shaped edits (logs, counters); structural types
    /// with mid-stream edits use [`diff_item_lists`] instead.
    pub fn splice(old: &[u8], new: &[u8]) -> Delta {
        let prefix = old
            .iter()
            .zip(new.iter())
            .take_while(|(a, b)| a == b)
            .count();
        let max_suffix = old.len().min(new.len()) - prefix;
        let mut suffix = 0;
        while suffix < max_suffix && old[old.len() - 1 - suffix] == new[new.len() - 1 - suffix] {
            suffix += 1;
        }
        let mut delta = Delta::default();
        delta.push_copy(0, prefix as u64);
        delta.push_insert(new[prefix..new.len() - suffix].to_vec());
        delta.push_copy((old.len() - suffix) as u64, suffix as u64);
        delta
    }

    /// Appends a copy instruction, coalescing with a directly preceding
    /// contiguous copy; empty copies are dropped.
    pub fn push_copy(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        if let Some(DeltaOp::Copy {
            offset: prev_offset,
            len: prev_len,
        }) = self.ops.last_mut()
        {
            if *prev_offset + *prev_len == offset {
                *prev_len += len;
                return;
            }
        }
        self.ops.push(DeltaOp::Copy { offset, len });
    }

    /// Appends an insert instruction, coalescing with a directly preceding
    /// insert; empty inserts are dropped.
    pub fn push_insert(&mut self, bytes: Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        if let Some(DeltaOp::Insert(prev)) = self.ops.last_mut() {
            prev.extend_from_slice(&bytes);
            return;
        }
        self.ops.push(DeltaOp::Insert(bytes));
    }
}

impl Wire for DeltaOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DeltaOp::Copy { offset, len } => {
                out.push(0);
                offset.encode(out);
                len.encode(out);
            }
            DeltaOp::Insert(bytes) => {
                out.push(1);
                bytes.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(DeltaOp::Copy {
                offset: u64::decode(input)?,
                len: u64::decode(input)?,
            }),
            1 => Some(DeltaOp::Insert(Vec::decode(input)?)),
            _ => None,
        }
    }
}

impl Wire for Delta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ops.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Delta {
            ops: Vec::decode(input)?,
        })
    }
}

/// The structural differ for the workspace's dominant encoding shape: a
/// `u64` length prefix followed by the items' encodings back to back
/// (every `Vec`/`VecDeque`/`BTreeSet`/`BTreeMap` impl above). Each
/// argument is the per-item encodings of one state; the result resolves
/// against the *old* state's full encoding to the *new* state's full
/// encoding, copying every item the old encoding already contains (found
/// by exact bytes, wherever it moved) and inserting only genuinely new
/// items — so an insertion or removal in the middle of a set or map costs
/// O(changed items) delta bytes, where a plain [`Delta::splice`] would
/// re-insert everything downstream of the edit.
pub fn diff_item_lists(old_items: &[Vec<u8>], new_items: &[Vec<u8>]) -> Delta {
    let mut index: std::collections::HashMap<&[u8], u64> =
        std::collections::HashMap::with_capacity(old_items.len());
    let mut offset = 8u64; // the u64 length prefix of the old encoding
    for item in old_items {
        index.entry(item.as_slice()).or_insert(offset);
        offset += item.len() as u64;
    }
    let mut delta = Delta::default();
    let mut prefix = Vec::new();
    encode_len(new_items.len(), &mut prefix);
    if old_items.len() == new_items.len() {
        delta.push_copy(0, 8);
    } else {
        delta.push_insert(prefix);
    }
    for item in new_items {
        match index.get(item.as_slice()) {
            Some(&item_offset) => delta.push_copy(item_offset, item.len() as u64),
            None => delta.push_insert(item.clone()),
        }
    }
    delta
}

impl Wire for ReplicaId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_u32().encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(ReplicaId::new(u32::decode(input)?))
    }
}

impl Wire for Timestamp {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tick().encode(out);
        self.replica().encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let tick = u64::decode(input)?;
        let replica = ReplicaId::decode(input)?;
        Some(Timestamp::new(tick, replica))
    }

    fn max_tick(&self) -> u64 {
        self.tick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_wire();
        assert_eq!(T::from_wire(&bytes), Some(v), "bytes: {bytes:?}");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(u16::MAX);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(usize::MAX & (u32::MAX as usize));
        roundtrip(true);
        roundtrip(false);
        roundtrip('é');
        roundtrip(());
        // Zero-size Rust values still occupy wire bytes, so containers of
        // them round-trip under the length-prefix guard.
        roundtrip(vec![(), (), ()]);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(String::from("hello, wire"));
        roundtrip(String::new());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(VecDeque::from([1u32, 2]));
        roundtrip(BTreeSet::from([1u8, 2, 3]));
        roundtrip(BTreeMap::from([(1u8, String::from("a")), (2, "b".into())]));
        roundtrip(Some(7u64));
        roundtrip(Option::<u64>::None);
        roundtrip((1u8, String::from("x")));
        roundtrip((1u8, 2u16, 3u32));
    }

    #[test]
    fn timestamps_roundtrip_and_report_ticks() {
        let t = Timestamp::new(17, ReplicaId::new(3));
        roundtrip(t);
        roundtrip(ReplicaId::new(9));
        assert_eq!(t.max_tick(), 17);
        assert_eq!(
            vec![(1u8, Timestamp::new(4, ReplicaId::new(0))), (2, t)].max_tick(),
            17
        );
        assert_eq!(Vec::<u64>::new().max_tick(), 0);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = 0xffff_ffff_ffffu64.to_wire();
        assert_eq!(u64::from_wire(&bytes[..7]), None);
        let s = String::from("abc").to_wire();
        assert_eq!(String::from_wire(&s[..s.len() - 1]), None);
        // A length prefix larger than the remaining input must not allocate.
        let mut huge = Vec::new();
        encode_len(usize::MAX / 2, &mut huge);
        assert_eq!(Vec::<u8>::from_wire(&huge), None);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = 1u8.to_wire();
        bytes.push(0);
        assert_eq!(u8::from_wire(&bytes), None);
    }

    #[test]
    fn malformed_tags_are_rejected() {
        assert_eq!(bool::from_wire(&[2]), None);
        assert_eq!(Option::<u8>::from_wire(&[9]), None);
        assert_eq!(String::from_wire(&[1, 0, 0, 0, 0, 0, 0, 0, 0xff]), None);
    }

    #[test]
    fn delta_splice_resolves_and_roundtrips() {
        let old = b"hello shared world".to_vec();
        let new = b"hello brave new world".to_vec();
        let delta = Delta::splice(&old, &new);
        assert_eq!(delta.apply(&old), Some(new.clone()));
        roundtrip(delta.clone());
        // Identity edit: one copy of the whole base.
        let same = Delta::splice(&old, &old);
        assert_eq!(same.ops.len(), 1);
        assert_eq!(same.apply(&old), Some(old.clone()));
        // Empty-to-something and something-to-empty.
        assert_eq!(Delta::splice(&[], &new).apply(&[]), Some(new.clone()));
        assert_eq!(Delta::splice(&old, &[]).apply(&old), Some(Vec::new()));
    }

    #[test]
    fn delta_apply_rejects_out_of_range_copies() {
        let delta = Delta {
            ops: vec![DeltaOp::Copy { offset: 4, len: 10 }],
        };
        assert_eq!(delta.apply(b"short"), None);
        let overflow = Delta {
            ops: vec![DeltaOp::Copy {
                offset: u64::MAX,
                len: 2,
            }],
        };
        assert_eq!(overflow.apply(b"xy"), None);
        // A claimed length far beyond the base is refused before any
        // allocation is sized from it.
        let huge = Delta {
            ops: vec![
                DeltaOp::Insert(b"ab".to_vec()),
                DeltaOp::Copy {
                    offset: 0,
                    len: u64::MAX,
                },
            ],
        };
        assert_eq!(huge.apply(b"xy"), None);
    }

    #[test]
    fn delta_apply_allocates_exactly() {
        let old = b"hello shared world".to_vec();
        let new = b"hello brave new shared world, twice over".to_vec();
        let out = Delta::splice(&old, &new).apply(&old).unwrap();
        assert_eq!(out, new);
        assert_eq!(out.capacity(), out.len());
    }

    #[test]
    fn delta_ops_coalesce() {
        let mut d = Delta::default();
        d.push_copy(0, 4);
        d.push_copy(4, 4); // contiguous → merged
        d.push_copy(16, 2); // gap → new op
        d.push_insert(b"ab".to_vec());
        d.push_insert(b"cd".to_vec()); // merged
        d.push_copy(0, 0); // empty → dropped
        d.push_insert(Vec::new()); // empty → dropped
        assert_eq!(
            d.ops,
            vec![
                DeltaOp::Copy { offset: 0, len: 8 },
                DeltaOp::Copy { offset: 16, len: 2 },
                DeltaOp::Insert(b"abcd".to_vec()),
            ]
        );
    }

    #[test]
    fn diff_item_lists_reuses_moved_items() {
        // A set-shaped edit that defeats a plain splice: remove the first
        // item, keep the rest, add one — everything surviving is copied.
        let old: Vec<u64> = vec![10, 20, 30, 40];
        let new: Vec<u64> = vec![20, 30, 40, 99];
        let old_items: Vec<Vec<u8>> = old.iter().map(|v| v.to_wire()).collect();
        let new_items: Vec<Vec<u8>> = new.iter().map(|v| v.to_wire()).collect();
        let delta = diff_item_lists(&old_items, &new_items);
        assert_eq!(delta.apply(&old.to_wire()), Some(new.to_wire()));
        // The three surviving items are contiguous in the old encoding, so
        // they coalesce into a single copy; only the new item is inserted.
        let inserted: usize = delta
            .ops
            .iter()
            .filter_map(|op| match op {
                DeltaOp::Insert(b) => Some(b.len()),
                DeltaOp::Copy { .. } => None,
            })
            .sum();
        assert_eq!(inserted, 99u64.to_wire().len());
    }

    #[test]
    fn diff_item_lists_handles_length_changes_and_empties() {
        let cases: Vec<(Vec<u64>, Vec<u64>)> = vec![
            (vec![], vec![1, 2, 3]),
            (vec![1, 2, 3], vec![]),
            (vec![1, 2, 3], vec![3, 2, 1]),
            (vec![5; 4], vec![5; 7]),
        ];
        for (old, new) in cases {
            let old_items: Vec<Vec<u8>> = old.iter().map(|v| v.to_wire()).collect();
            let new_items: Vec<Vec<u8>> = new.iter().map(|v| v.to_wire()).collect();
            let delta = diff_item_lists(&old_items, &new_items);
            assert_eq!(
                delta.apply(&old.to_wire()),
                Some(new.to_wire()),
                "old={old:?} new={new:?}"
            );
        }
    }

    #[test]
    fn delta_malformed_tags_are_rejected() {
        assert_eq!(DeltaOp::from_wire(&[2]), None);
        assert_eq!(DeltaOp::from_wire(&[0, 1]), None); // truncated Copy
    }

    #[test]
    fn duplicate_set_elements_are_rejected() {
        let mut bytes = Vec::new();
        encode_len(2, &mut bytes);
        1u8.encode(&mut bytes);
        1u8.encode(&mut bytes);
        assert_eq!(BTreeSet::<u8>::from_wire(&bytes), None);
    }

    #[test]
    fn non_canonical_container_order_is_rejected() {
        // Descending set elements: would re-encode sorted — malformed.
        let mut bytes = Vec::new();
        encode_len(2, &mut bytes);
        2u8.encode(&mut bytes);
        1u8.encode(&mut bytes);
        assert_eq!(BTreeSet::<u8>::from_wire(&bytes), None);
        // Same for map keys (including duplicates).
        let mut map = Vec::new();
        encode_len(2, &mut map);
        2u8.encode(&mut map);
        0u8.encode(&mut map);
        1u8.encode(&mut map);
        0u8.encode(&mut map);
        assert_eq!(BTreeMap::<u8, u8>::from_wire(&map), None);
        let mut dup = Vec::new();
        encode_len(2, &mut dup);
        1u8.encode(&mut dup);
        0u8.encode(&mut dup);
        1u8.encode(&mut dup);
        0u8.encode(&mut dup);
        assert_eq!(BTreeMap::<u8, u8>::from_wire(&dup), None);
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = BTreeMap::from([(2u8, 20u64), (1, 10)]);
        let b = BTreeMap::from([(1u8, 10u64), (2, 20)]);
        assert_eq!(a.to_wire(), b.to_wire());
    }
}
