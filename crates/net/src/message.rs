//! The replication protocol's request/response messages and their byte
//! encoding.
//!
//! One fetch is three requests (Git's smart protocol in miniature):
//!
//! 1. [`Request::FetchRefs`] — the remote advertises its branch heads
//!    (ref name → commit content address).
//! 2. [`Request::Want`] — the client names the heads it *wants* plus the
//!    heads it already *has*; the remote answers with the commit records
//!    reachable from the wants but not the haves, parents first. Because
//!    commit records are Merkle nodes (they embed their parents' and
//!    state's content addresses), this one round resolves the entire
//!    missing subgraph.
//! 3. [`Request::GetStatesDelta`] — the client requests exactly the state
//!    objects it lacks, as [`Wire`] encodings or as deltas against states
//!    it already holds.
//!
//! A push inverts the walk client-side (it knows the server's heads from
//! `FetchRefs`), probes which state objects the server already has with
//! [`Request::HaveObjects`], and uploads the rest in one
//! [`Request::Push`].
//!
//! All messages are [`Wire`]-encoded: deterministic, little-endian,
//! length-prefixed — the same codec states travel in.

use crate::error::NetError;
use peepul_core::wire::{decode_len, encode_len, take};
use peepul_core::Wire;
use peepul_store::ObjectId;

/// A content-addressed object in transit: its advertised id and its
/// payload bytes (a raw commit record, or a `Wire`-encoded state). The
/// receiver never trusts the pair — it re-derives the id from the bytes on
/// ingest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedObject {
    /// The content address the sender advertises for `bytes`.
    pub id: ObjectId,
    /// The object payload.
    pub bytes: Vec<u8>,
}

impl Wire for PackedObject {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        encode_len(self.bytes.len(), out);
        out.extend_from_slice(&self.bytes);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let id = ObjectId::decode(input)?;
        let len = decode_len(input)?;
        let bytes = take(input, len)?.to_vec();
        Some(PackedObject { id, bytes })
    }
}

/// One state object in a delta-aware `GetStatesDelta` reply: either the
/// full canonical bytes, or an O(delta) edit script against a base state
/// the requester provably holds (it is reachable from the request's
/// `haves`, or appeared earlier in the same reply). Identity is the same
/// either way — `id = sha256(full canonical bytes)` — and the receiver
/// resolves and re-hashes before trusting a delta, exactly as it
/// re-hashes full bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateTransfer {
    /// Full canonical state bytes.
    Full {
        /// The state with its advertised address.
        state: PackedObject,
    },
    /// A delta against a base the requester holds.
    Delta {
        /// Advertised address of the *resolved* state.
        id: ObjectId,
        /// Address of the base state the delta applies to.
        base: ObjectId,
        /// `peepul_core::Delta` wire bytes.
        delta: Vec<u8>,
    },
}

impl StateTransfer {
    /// The advertised content address of the (resolved) state.
    pub fn id(&self) -> ObjectId {
        match self {
            StateTransfer::Full { state } => state.id,
            StateTransfer::Delta { id, .. } => *id,
        }
    }
}

/// A request from a client to a serving replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Advertise all branch heads.
    FetchRefs,
    /// Object negotiation: send the commit records reachable from `wants`
    /// but not from `haves`, parents first.
    Want {
        /// Commit addresses the client wants the history of.
        wants: Vec<ObjectId>,
        /// Commit addresses the client already has (its own ref heads);
        /// everything reachable from these needs no transfer.
        haves: Vec<ObjectId>,
    },
    /// Send the state objects stored under these addresses. The server
    /// may answer any requested state as a [`StateTransfer::Delta`]
    /// against a base state reachable from `haves` (or served earlier in
    /// the same reply), and falls back to [`StateTransfer::Full`]
    /// otherwise. One round-trip — a fetch stays at three.
    GetStatesDelta {
        /// State content addresses the client lacks.
        ids: Vec<ObjectId>,
        /// Commit addresses whose full history the client holds; the
        /// states those commits carry are valid delta bases.
        haves: Vec<ObjectId>,
    },
    /// For each id, answer whether the replica already stores that object
    /// (push negotiation: don't upload states the receiver has).
    HaveObjects {
        /// Object content addresses to probe.
        ids: Vec<ObjectId>,
    },
    /// Upload missing objects and point `branch` at `head` — accepted only
    /// as a fast-forward (or branch creation), like `git push`.
    Push {
        /// The branch to update on the receiving replica.
        branch: String,
        /// The commit the branch should point at afterwards.
        head: ObjectId,
        /// Missing commit records, parents first.
        commits: Vec<PackedObject>,
        /// Missing state objects (`Wire`-encoded states).
        states: Vec<PackedObject>,
    },
}

/// A serving replica's answer to a [`Request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Branch heads, sorted by name (`FetchRefs`).
    Refs {
        /// `(branch name, head commit address)` pairs, sorted by name.
        refs: Vec<(String, ObjectId)>,
    },
    /// The missing commit records, parents first (`Want`).
    Commits {
        /// Raw commit records with their advertised addresses.
        commits: Vec<PackedObject>,
    },
    /// The requested state objects, possibly in delta form
    /// (`GetStatesDelta`); unknown ids are omitted. Ordered so that a
    /// delta's base, when it is part of the reply, precedes it.
    StatesDelta {
        /// Full or delta transfers with their advertised addresses.
        states: Vec<StateTransfer>,
    },
    /// Per-id presence bits, in request order (`HaveObjects`).
    Haves {
        /// `haves[i]` is whether the replica stores the `i`-th probed id.
        haves: Vec<bool>,
    },
    /// The push landed (`Push`).
    Pushed {
        /// Whether the branch was created (as opposed to fast-forwarded or
        /// already up to date).
        created: bool,
    },
    /// The push was refused: the target branch has diverged.
    PushDenied,
    /// The replica failed to serve the request.
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

macro_rules! wire_enum {
    ($ty:ident { $($tag:literal => $variant:ident $(($($field:ident : $ftype:ty),*))? ,)* }) => {
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $( $ty::$variant $({ $($field),* })? => {
                        out.push($tag);
                        $( $($field.encode(out);)* )?
                    } )*
                }
            }

            fn decode(input: &mut &[u8]) -> Option<Self> {
                match u8::decode(input)? {
                    $( $tag => {
                        $( $(let $field = <$ftype>::decode(input)?;)* )?
                        Some($ty::$variant $({ $($field),* })?)
                    } )*
                    _ => None,
                }
            }
        }
    };
}

wire_enum!(Request {
    0 => FetchRefs,
    1 => Want(wants: Vec<ObjectId>, haves: Vec<ObjectId>),
    // 2 is retired (the pre-delta state request); tags are never reused.
    3 => HaveObjects(ids: Vec<ObjectId>),
    4 => Push(branch: String, head: ObjectId, commits: Vec<PackedObject>, states: Vec<PackedObject>),
    5 => GetStatesDelta(ids: Vec<ObjectId>, haves: Vec<ObjectId>),
});

wire_enum!(Response {
    0 => Refs(refs: Vec<(String, ObjectId)>),
    1 => Commits(commits: Vec<PackedObject>),
    // 2 is retired (the pre-delta state reply); tags are never reused.
    3 => Haves(haves: Vec<bool>),
    4 => Pushed(created: bool),
    5 => PushDenied,
    6 => Error(message: String),
    7 => StatesDelta(states: Vec<StateTransfer>),
});

wire_enum!(StateTransfer {
    0 => Full(state: PackedObject),
    1 => Delta(id: ObjectId, base: ObjectId, delta: Vec<u8>),
});

impl Response {
    /// Decodes a response frame, mapping a peer-reported
    /// [`Response::Error`] to [`NetError::Remote`].
    pub fn from_frame(bytes: &[u8]) -> Result<Response, NetError> {
        match Response::from_wire(bytes) {
            None => Err(NetError::BadFrame("undecodable response".into())),
            Some(Response::Error { message }) => Err(NetError::Remote(message)),
            Some(r) => Ok(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(n: u8) -> ObjectId {
        peepul_store::content_id(&n)
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::FetchRefs,
            Request::Want {
                wants: vec![oid(1)],
                haves: vec![oid(2), oid(3)],
            },
            Request::HaveObjects { ids: vec![] },
            Request::GetStatesDelta {
                ids: vec![oid(8)],
                haves: vec![oid(9)],
            },
            Request::Push {
                branch: "main".into(),
                head: oid(6),
                commits: vec![PackedObject {
                    id: oid(7),
                    bytes: vec![1, 2, 3],
                }],
                states: vec![],
            },
        ];
        for r in reqs {
            assert_eq!(Request::from_wire(&r.to_wire()), Some(r));
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = [
            Response::Refs {
                refs: vec![("main".into(), oid(1))],
            },
            Response::Commits {
                commits: vec![PackedObject {
                    id: oid(2),
                    bytes: b"commit".to_vec(),
                }],
            },
            Response::StatesDelta {
                states: vec![
                    StateTransfer::Full {
                        state: PackedObject {
                            id: oid(8),
                            bytes: vec![9, 9],
                        },
                    },
                    StateTransfer::Delta {
                        id: oid(9),
                        base: oid(8),
                        delta: vec![0, 1, 2],
                    },
                ],
            },
            Response::Haves {
                haves: vec![true, false],
            },
            Response::Pushed { created: true },
            Response::PushDenied,
            Response::Error {
                message: "nope".into(),
            },
        ];
        for r in resps {
            assert_eq!(Response::from_wire(&r.to_wire()), Some(r));
        }
    }

    #[test]
    fn from_frame_maps_peer_errors() {
        let bytes = Response::Error {
            message: "disk on fire".into(),
        }
        .to_wire();
        assert_eq!(
            Response::from_frame(&bytes),
            Err(NetError::Remote("disk on fire".into()))
        );
        assert!(matches!(
            Response::from_frame(b"garbage"),
            Err(NetError::BadFrame(_))
        ));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert_eq!(Request::from_wire(&[99]), None);
        assert_eq!(Response::from_wire(&[99]), None);
    }

    #[test]
    fn retired_tag_2_is_refused_not_served() {
        // A well-formed pre-delta state request / reply: tag 2 + an id list.
        let mut frame = vec![2u8];
        vec![oid(4), oid(5)].encode(&mut frame);
        assert_eq!(Request::from_wire(&frame), None);
        assert_eq!(Response::from_wire(&frame), None);
        let replica: crate::Replica<peepul_types::counter::Counter, _> =
            crate::Replica::new("r", peepul_store::BranchStore::new("main"));
        assert!(matches!(
            Response::from_wire(&replica.handle_frame(&frame)),
            Some(Response::Error { .. })
        ));
    }
}
