//! Typed branch handles.
//!
//! The redesigned store API addresses branches through three types instead
//! of bare strings:
//!
//! * [`BranchId`] — a **validated**, cheaply clonable branch identifier.
//!   Name validation (and, when minted by the store, existence) happens at
//!   construction, so typos surface at the edge of the API instead of deep
//!   inside a merge.
//! * [`BranchRef`] — a read-only handle borrowed from `&BranchStore`.
//!   Every method is infallible: the branch was checked when the handle was
//!   created, branches are never deleted, and the shared borrow freezes the
//!   store for the handle's lifetime.
//! * [`BranchMut`] — a mutable handle borrowed from `&mut BranchStore`,
//!   carrying `apply`, `fork` and `merge_from`: the `DO`, `CREATEBRANCH`
//!   and `MERGE` steps of the store, one commit each.

use super::{Backend, BranchInfo, BranchStore};
use crate::dag::CommitId;
use crate::error::StoreError;
use crate::object::ObjectId;
use peepul_core::{Mrdt, ReplicaId};
use std::fmt;
use std::sync::Arc;

/// A validated branch identifier.
///
/// Legal names are non-empty, contain no control characters and are at
/// most 65 535 bytes long. A `BranchId` is interned behind an `Arc`, so
/// cloning one (which every handle creation does) is a reference-count
/// bump, not a string copy.
///
/// `BranchId` dereferences to `str` and implements `AsRef<str>`, so any
/// API that accepts a name accepts an id.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BranchId(Arc<str>);

impl BranchId {
    /// The longest legal name in bytes: the on-disk ref record frames a
    /// name with a `u16` length prefix, so this is the format's limit.
    const MAX_LEN: usize = u16::MAX as usize;

    /// Validates `name` and wraps it.
    ///
    /// This checks *syntax* only; `BranchStore::branch_id` additionally
    /// checks existence against a concrete store.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidBranchName`] when `name` is empty, longer than
    /// 65 535 bytes, or contains control characters
    /// (including `\0`, `\n`, `\r`, `\t`).
    pub fn new(name: &str) -> Result<Self, StoreError> {
        if name.is_empty() || name.len() > Self::MAX_LEN || name.chars().any(|c| c.is_control()) {
            return Err(StoreError::InvalidBranchName(name.to_owned()));
        }
        Ok(BranchId(Arc::from(name)))
    }

    /// The branch name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for BranchId {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for BranchId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BranchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for BranchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BranchId({:?})", &*self.0)
    }
}

/// A read-only handle to one branch of a [`BranchStore`].
///
/// Created by [`BranchStore::branch`]; the existence check happens there,
/// and the shared borrow pins the store, so every accessor here is
/// **infallible** — the commit-free counterpart to [`BranchMut`].
pub struct BranchRef<'s, M: Mrdt, B: Backend> {
    store: &'s BranchStore<M, B>,
    id: BranchId,
    head: CommitId,
    replica: ReplicaId,
    /// The head's pinned state.
    state: &'s Arc<M>,
}

impl<'s, M: Mrdt, B: Backend> BranchRef<'s, M, B> {
    pub(super) fn new(
        store: &'s BranchStore<M, B>,
        id: BranchId,
        head: CommitId,
        replica: ReplicaId,
        state: &'s Arc<M>,
    ) -> Self {
        BranchRef {
            store,
            id,
            head,
            replica,
            state,
        }
    }

    /// The branch name.
    pub fn name(&self) -> &str {
        &self.id
    }

    /// The validated identifier (cheap to clone, usable across handles).
    pub fn id(&self) -> &BranchId {
        &self.id
    }

    /// The branch's head commit.
    pub fn head(&self) -> CommitId {
        self.head
    }

    /// The content address of the head commit (Merkle over history).
    pub fn head_id(&self) -> ObjectId {
        self.store.commit_ids[self.head.index()]
    }

    /// The content address of the head state.
    pub fn state_id(&self) -> ObjectId {
        self.store.state_oid(self.head)
    }

    /// The replica id minting timestamps for this branch.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// The head state (cheap `Arc` clone).
    pub fn state(&self) -> Arc<M> {
        Arc::clone(self.state)
    }

    /// Answers a pure query against the head state — commit-free: no
    /// commit, no timestamp, no backend write.
    pub fn read(&self, q: &M::Query) -> M::Output {
        self.state.query(q)
    }

    /// The commit history of this branch, newest first.
    pub fn history(&self) -> Vec<CommitId> {
        self.store.graph.history(self.head)
    }
}

impl<M: Mrdt, B: Backend> fmt::Debug for BranchRef<'_, M, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BranchRef({:?} @ {:?})", &*self.id, self.head)
    }
}

/// A mutable handle to one branch of a [`BranchStore`].
///
/// Created by [`BranchStore::branch_mut`]. Mutating operations return
/// `Result` only for genuine failures (backend I/O, merging from a missing
/// source) — the branch itself was validated at handle creation.
pub struct BranchMut<'s, M: Mrdt, B: Backend> {
    store: &'s mut BranchStore<M, B>,
    id: BranchId,
}

impl<'s, M: Mrdt, B: Backend> BranchMut<'s, M, B> {
    pub(super) fn new(store: &'s mut BranchStore<M, B>, id: BranchId) -> Self {
        BranchMut { store, id }
    }

    /// The branch name.
    pub fn name(&self) -> &str {
        &self.id
    }

    /// The validated identifier (cheap to clone, usable across handles).
    pub fn id(&self) -> &BranchId {
        &self.id
    }

    fn info(&self) -> &BranchInfo<M> {
        self.store
            .branches
            .get(&*self.id)
            .expect("handle id was validated at creation and branches are never deleted")
    }

    /// The branch's head commit.
    pub fn head(&self) -> CommitId {
        self.info().head
    }

    /// The head state (cheap `Arc` clone).
    pub fn state(&self) -> Arc<M> {
        Arc::clone(&self.info().state)
    }

    /// Answers a pure query against the head state — commit-free.
    pub fn read(&self, q: &M::Query) -> M::Output {
        self.info().state.query(q)
    }

    /// The commit history of this branch, newest first.
    pub fn history(&self) -> Vec<CommitId> {
        self.store.graph.history(self.head())
    }

    /// Applies one update (`DO` of Fig. 3), committing the successor state
    /// and returning the operation's value.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if publishing to the backend fails.
    pub fn apply(&mut self, op: &M::Op) -> Result<M::Value, StoreError> {
        let id = self.id.clone();
        self.store.do_apply(&id, op)
    }

    /// Forks a new branch off this one (`CREATEBRANCH` of Fig. 3) and
    /// returns its validated identifier.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidBranchName`] for an illegal name;
    /// [`StoreError::BranchExists`] if `new` already exists;
    /// [`StoreError::Io`] if publishing the new ref fails.
    pub fn fork(&mut self, new: impl Into<String>) -> Result<BranchId, StoreError> {
        let id = self.id.clone();
        self.store.do_fork(new.into(), &id)
    }

    /// Merges `source` into this branch (`MERGE` of Fig. 3): runs the data
    /// type's three-way merge against the store-computed LCA and commits
    /// the result here. Merging a branch whose history is already contained
    /// in this one is a no-op. Accepts a name or a [`BranchId`].
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBranch`] if `source` does not exist;
    /// [`StoreError::Io`] if publishing fails.
    pub fn merge_from(&mut self, source: impl AsRef<str>) -> Result<(), StoreError> {
        let id = self.id.clone();
        self.store.do_merge(&id, source.as_ref())
    }
}

impl<M: Mrdt, B: Backend> fmt::Debug for BranchMut<'_, M, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BranchMut({:?})", &*self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::BranchStore;
    use peepul_types::counter::{Counter, CounterOp, CounterQuery};

    #[test]
    fn branch_id_validation() {
        assert!(BranchId::new("main").is_ok());
        assert!(BranchId::new("feature/x-1").is_ok());
        assert!(BranchId::new("").is_err());
        assert!(BranchId::new("a\tb").is_err());
        let id = BranchId::new("dev").unwrap();
        assert_eq!(id.as_str(), "dev");
        assert_eq!(&*id, "dev");
        assert_eq!(id.to_string(), "dev");
        assert_eq!(format!("{id:?}"), "BranchId(\"dev\")");
    }

    #[test]
    fn handles_expose_metadata() {
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        s.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        let r = s.branch("main").unwrap();
        assert_eq!(r.name(), "main");
        assert_eq!(r.id().as_str(), "main");
        assert_eq!(r.history().len(), 2);
        assert_eq!(r.state().count(), 1);
        assert_eq!(r.read(&CounterQuery::Value), 1);
        assert_eq!(r.head_id(), s.head_id("main").unwrap());
        assert_eq!(r.state_id(), s.state_id("main").unwrap());
        assert_eq!(r.replica(), s.replica_of("main").unwrap());
        assert!(format!("{r:?}").contains("main"));
    }

    #[test]
    fn many_read_handles_coexist() {
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        s.branch_mut("main").unwrap().fork("dev").unwrap();
        s.branch_mut("dev")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        let a = s.branch("main").unwrap();
        let b = s.branch("dev").unwrap();
        assert_eq!(a.read(&CounterQuery::Value), 0);
        assert_eq!(b.read(&CounterQuery::Value), 1);
    }

    #[test]
    fn merge_from_accepts_ids_and_names() {
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        let dev = s.branch_mut("main").unwrap().fork("dev").unwrap();
        s.branch_mut("dev")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        s.branch_mut("main").unwrap().merge_from(&dev).unwrap();
        s.branch_mut("main").unwrap().merge_from("dev").unwrap();
        assert_eq!(s.read("main", &CounterQuery::Value).unwrap(), 1);
        assert!(matches!(
            s.branch_mut("main").unwrap().merge_from("ghost"),
            Err(StoreError::UnknownBranch(_))
        ));
    }
}
