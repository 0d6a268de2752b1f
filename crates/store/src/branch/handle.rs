//! Typed branch handles and transactions.
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
//!   carrying `apply`, `fork`, `merge_from` and [`BranchMut::transaction`].
//!
//! # Transactions
//!
//! [`Transaction`] stages any number of updates against a scratch copy of
//! the branch head. Nothing touches the store until [`Transaction::commit`]
//! (which [`BranchMut::transaction`] calls for you): committing publishes
//! **one** state object, **one** commit record and **one** ref update for
//! the whole batch — this is how batched writes amortise hashing and
//! backend publication. Dropping a transaction without committing rolls it
//! back by construction: the scratch state simply vanishes. (Timestamps
//! consumed by a rolled-back transaction stay consumed; uniqueness, not
//! density, is the Ψ_ts guarantee.)

use super::{diff_parent, Backend, BranchInfo, BranchStore};
use crate::dag::CommitId;
use crate::error::StoreError;
use crate::object::ObjectId;
use peepul_core::{Mrdt, ReplicaId, Timestamp};
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

    /// Begins a transaction: updates staged through it publish as **one**
    /// commit on [`Transaction::commit`]; dropping the transaction without
    /// committing rolls everything back.
    ///
    /// Prefer [`BranchMut::transaction`] unless you need early rollback or
    /// staged reads interleaved with other control flow.
    pub fn begin(&mut self) -> Transaction<'_, 's, M, B> {
        let info = self.info();
        let (base, replica) = (info.head, info.replica);
        let scratch = info.state.as_ref().clone();
        Transaction {
            branch: self,
            scratch,
            base,
            replica,
            ops: 0,
        }
    }

    /// Runs `f` inside a transaction and commits the batch: `N` staged
    /// updates publish exactly **one** commit and one backend write.
    ///
    /// If `f` panics, nothing is published — drop-means-rollback.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if publishing the batch fails.
    ///
    /// # Example
    ///
    /// ```
    /// use peepul_store::BranchStore;
    /// use peepul_types::counter::{Counter, CounterOp, CounterQuery};
    ///
    /// # fn main() -> Result<(), peepul_store::StoreError> {
    /// let mut store: BranchStore<Counter> = BranchStore::new("main");
    /// let before = store.commit_count();
    /// store.branch_mut("main")?.transaction(|tx| {
    ///     for _ in 0..10 {
    ///         tx.apply(&CounterOp::Increment);
    ///     }
    /// })?;
    /// assert_eq!(store.commit_count(), before + 1); // one commit for 10 ops
    /// assert_eq!(store.read("main", &CounterQuery::Value)?, 10);
    /// # Ok(())
    /// # }
    /// ```
    pub fn transaction<R>(
        &mut self,
        f: impl FnOnce(&mut Transaction<'_, 's, M, B>) -> R,
    ) -> Result<R, StoreError> {
        let mut tx = self.begin();
        let result = f(&mut tx);
        tx.commit()?;
        Ok(result)
    }
}

impl<M: Mrdt, B: Backend> fmt::Debug for BranchMut<'_, M, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BranchMut({:?})", &*self.id)
    }
}

/// An in-flight batch of updates against one branch.
///
/// Created by [`BranchMut::begin`] / [`BranchMut::transaction`]. Staged
/// operations run against a scratch state; the store is untouched until
/// [`Transaction::commit`], which publishes the whole batch as a single
/// commit (one state object, one commit record, one ref update). Dropping
/// the transaction without committing discards the scratch state —
/// rollback is the default, not an action.
pub struct Transaction<'t, 's, M: Mrdt, B: Backend> {
    branch: &'t mut BranchMut<'s, M, B>,
    scratch: M,
    base: CommitId,
    /// Captured at `begin`: a branch's replica id never changes, so the
    /// batch path pays no per-op lookup for it.
    replica: ReplicaId,
    ops: usize,
}

impl<M: Mrdt, B: Backend> Transaction<'_, '_, M, B> {
    /// Stages one update against the scratch state and returns its value.
    ///
    /// Infallible: staging is pure; I/O happens once, at commit. The
    /// store-wide timestamp tick advances per staged op, so transactional
    /// and sequential histories mint identical timestamps.
    pub fn apply(&mut self, op: &M::Op) -> M::Value {
        self.branch.store.tick += 1;
        let t = Timestamp::new(self.branch.store.tick, self.replica);
        let (next, value) = self.scratch.apply(op, t);
        self.scratch = next;
        self.ops += 1;
        value
    }

    /// Answers a query against the **staged** state (earlier `apply`s in
    /// this transaction are visible, the store's published head is not).
    pub fn read(&self, q: &M::Query) -> M::Output {
        self.scratch.query(q)
    }

    /// Number of updates staged so far.
    pub fn op_count(&self) -> usize {
        self.ops
    }

    /// Discards the staged batch. Equivalent to dropping the transaction;
    /// provided for explicitness at call sites.
    pub fn rollback(self) {
        drop(self);
    }

    /// Publishes the staged batch as **one** commit and points the branch
    /// at it. A transaction with zero staged ops commits nothing at all.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if publishing fails. The branch is left on its
    /// previous head — observable state never moves partway. If the
    /// failure hit the final ref update, the already-published state and
    /// commit objects remain in the backend as unreferenced orphans
    /// (harmless in a content-addressed store, same as every other commit
    /// path here).
    pub fn commit(self) -> Result<(), StoreError> {
        if self.ops == 0 {
            return Ok(());
        }
        let id = self.branch.id.clone();
        let store = &mut *self.branch.store;
        let start = store.metrics().map(|_| std::time::Instant::now());
        // The batch's mint is its last staged timestamp: the store's tick
        // was advanced once per staged op under this exclusive borrow, so
        // `(store.tick, replica)` is exactly the final `apply`'s stamp —
        // unique per committed transaction.
        let mint = (store.tick, self.replica.as_u32());
        // The exclusive borrow kept the branch on `base`, so its pinned
        // head state is the batch's parent state.
        let parent = Arc::clone(&store.info(&id)?.state);
        let new_head = store.commit(
            vec![self.base],
            Some(&parent),
            &self.scratch,
            mint,
            diff_parent,
        )?;
        // However many ops were staged, the whole batch is one logical
        // commit: one durability point, at most one fsync.
        store.advance_head(&id, new_head, Arc::new(self.scratch))?;
        if let (Some(m), Some(start)) = (store.metrics(), start) {
            let micros = start.elapsed().as_micros() as u64;
            m.commits_total.inc();
            m.txn_micros.observe(micros);
            m.trace("transaction", &id, micros);
        }
        Ok(())
    }
}

impl<M: Mrdt, B: Backend> fmt::Debug for Transaction<'_, '_, M, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Transaction({:?}, {} staged ops)",
            &*self.branch.id, self.ops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::BranchStore;
    use peepul_types::counter::{Counter, CounterOp, CounterQuery};
    use peepul_types::or_set::{OrSet, OrSetOp, OrSetOutput, OrSetQuery};

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
    fn transaction_batches_ops_into_one_commit() {
        let mut s: BranchStore<OrSet<u32>> = BranchStore::new("main");
        let before = s.commit_count();
        let last = s
            .branch_mut("main")
            .unwrap()
            .transaction(|tx| {
                for x in 0..10 {
                    tx.apply(&OrSetOp::Add(x));
                }
                tx.op_count()
            })
            .unwrap();
        assert_eq!(last, 10);
        assert_eq!(s.commit_count(), before + 1, "10 ops, exactly 1 commit");
        assert_eq!(
            s.read("main", &OrSetQuery::Read).unwrap(),
            OrSetOutput::Elements((0..10).collect())
        );
    }

    #[test]
    fn transaction_reads_see_staged_state() {
        let mut s: BranchStore<OrSet<u32>> = BranchStore::new("main");
        s.branch_mut("main")
            .unwrap()
            .transaction(|tx| {
                assert_eq!(tx.read(&OrSetQuery::Lookup(7)), OrSetOutput::Present(false));
                tx.apply(&OrSetOp::Add(7));
                assert_eq!(tx.read(&OrSetQuery::Lookup(7)), OrSetOutput::Present(true));
            })
            .unwrap();
    }

    #[test]
    fn empty_transaction_commits_nothing() {
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        let before = s.commit_count();
        let head = s.head_id("main").unwrap();
        s.branch_mut("main").unwrap().transaction(|_| {}).unwrap();
        assert_eq!(s.commit_count(), before);
        assert_eq!(s.head_id("main").unwrap(), head);
    }

    #[test]
    fn dropped_transaction_rolls_back() {
        let mut s: BranchStore<OrSet<u32>> = BranchStore::new("main");
        s.branch_mut("main")
            .unwrap()
            .apply(&OrSetOp::Add(1))
            .unwrap();
        let before = s.commit_count();
        let head = s.head_id("main").unwrap();
        {
            let mut b = s.branch_mut("main").unwrap();
            let mut tx = b.begin();
            tx.apply(&OrSetOp::Add(2));
            tx.apply(&OrSetOp::Remove(1));
            assert_eq!(tx.op_count(), 2);
            // Dropped without commit.
        }
        assert_eq!(s.commit_count(), before, "rollback publishes nothing");
        assert_eq!(s.head_id("main").unwrap(), head);
        assert_eq!(
            s.read("main", &OrSetQuery::Read).unwrap(),
            OrSetOutput::Elements(vec![1])
        );
    }

    #[test]
    fn explicit_rollback_matches_drop() {
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        let head = s.head_id("main").unwrap();
        {
            let mut b = s.branch_mut("main").unwrap();
            let mut tx = b.begin();
            tx.apply(&CounterOp::Increment);
            tx.rollback();
        }
        assert_eq!(s.head_id("main").unwrap(), head);
    }

    #[test]
    fn manual_begin_commit_works() {
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        let mut b = s.branch_mut("main").unwrap();
        let mut tx = b.begin();
        tx.apply(&CounterOp::Increment);
        tx.apply(&CounterOp::Increment);
        tx.commit().unwrap();
        assert_eq!(s.read("main", &CounterQuery::Value).unwrap(), 2);
    }

    #[test]
    fn transaction_timestamps_stay_unique_across_rollback() {
        // A rolled-back transaction consumes ticks; later ops must still
        // mint strictly larger timestamps (Ψ_ts uniqueness).
        let mut s: BranchStore<OrSet<u32>> = BranchStore::new("main");
        {
            let mut b = s.branch_mut("main").unwrap();
            let mut tx = b.begin();
            tx.apply(&OrSetOp::Add(1));
            // dropped
        }
        s.branch_mut("main")
            .unwrap()
            .apply(&OrSetOp::Add(2))
            .unwrap();
        s.branch_mut("main").unwrap().fork("dev").unwrap();
        s.branch_mut("dev")
            .unwrap()
            .apply(&OrSetOp::Add(3))
            .unwrap();
        s.branch_mut("main").unwrap().merge_from("dev").unwrap();
        assert_eq!(s.state("main").unwrap().pair_count(), 2);
    }

    #[test]
    fn transactional_and_sequential_histories_observably_agree() {
        let mut tx_store: BranchStore<OrSet<u32>> = BranchStore::new("main");
        let mut seq_store: BranchStore<OrSet<u32>> = BranchStore::new("main");
        let ops = [
            OrSetOp::Add(1),
            OrSetOp::Add(2),
            OrSetOp::Remove(1),
            OrSetOp::Add(3),
        ];
        tx_store
            .branch_mut("main")
            .unwrap()
            .transaction(|tx| {
                for op in &ops {
                    tx.apply(op);
                }
            })
            .unwrap();
        for op in &ops {
            seq_store.branch_mut("main").unwrap().apply(op).unwrap();
        }
        assert!(tx_store
            .state("main")
            .unwrap()
            .observably_equal(&seq_store.state("main").unwrap()));
        assert_eq!(tx_store.commit_count(), 2); // root + 1 batch
        assert_eq!(seq_store.commit_count(), 1 + ops.len());
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
