//! GC / liveness: what the branch table keeps alive, and the sweeps that
//! reclaim (or compact) the rest.

use super::BranchStore;
use crate::backend::{Backend, SweepStats};
use crate::dag::CommitId;
use crate::error::StoreError;
use crate::object::ObjectId;
use peepul_core::Mrdt;
use std::collections::HashSet;
use std::time::Instant;

impl<M: Mrdt, B: Backend> BranchStore<M, B> {
    /// The backend objects reachable from the branch table: every branch
    /// head, every ancestor commit record, and the state each one
    /// references — the commit graph *is* the reachability index, so
    /// tracing is a parent walk, no backend reads.
    ///
    /// Everything else in the backend is garbage by construction:
    /// orphaned fork roots whose branch was never created, superseded
    /// scratch states, objects a rejected push transferred but never
    /// referenced.
    pub fn live_objects(&self) -> HashSet<ObjectId> {
        let mut live = HashSet::new();
        let mut stack: Vec<CommitId> = self.branches.values().map(|b| b.head).collect();
        let mut seen: HashSet<CommitId> = stack.iter().copied().collect();
        while let Some(c) = stack.pop() {
            live.insert(self.commit_ids[c.index()]);
            live.insert(*self.graph.payload(c));
            for &p in self.graph.parents(c) {
                if seen.insert(p) {
                    stack.push(p);
                }
            }
        }
        // A live delta-stored state pins its whole chain down to the full
        // snapshot: resolution reads every link, so a base must survive
        // even when no reachable commit carries it any more (the carrying
        // commits may be exactly what this sweep is discarding).
        let mut chain: Vec<ObjectId> = live.iter().copied().collect();
        while let Some(id) = chain.pop() {
            if let Some(base) = self.delta_deps.get(&id) {
                if live.insert(*base) {
                    chain.push(*base);
                }
            }
        }
        live
    }

    /// What a [`BranchStore::collect_garbage`] would reclaim, without
    /// reclaiming it — liveness traced by [`BranchStore::live_objects`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend read failure.
    pub fn sweep_stats(&self) -> Result<SweepStats, StoreError> {
        self.backend.sweep_stats(&self.live_objects())
    }

    /// Reference-tracing garbage collection: marks every object reachable
    /// from a branch head ([`BranchStore::live_objects`]) and has the
    /// backend reclaim the rest (for
    /// [`SegmentBackend`](crate::SegmentBackend): rotate, then compact the
    /// sealed files into one pack holding only live objects).
    ///
    /// Safe by construction: the store publishes state and commit bytes
    /// *before* the ref that makes them reachable, `&mut self` excludes
    /// concurrent writers mid-publish, and the trace runs over the
    /// in-memory graph — so no object reachable from a published ref can
    /// be classified dead.
    ///
    /// Collected commits take their Lamport mints with them: a later
    /// [`BranchStore::open`] recovers the clock as the maximum over
    /// *reachable* history (the live store's clock never moves
    /// backwards, so in-process timestamps stay unique either way). The
    /// collected commits stay in the graph, but their states are gone:
    /// [`BranchStore::state_at`] on one returns
    /// [`StoreError::Collected`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend failure.
    pub fn collect_garbage(&mut self) -> Result<SweepStats, StoreError> {
        let start = self.metrics.as_ref().map(|_| Instant::now());
        let live = self.live_objects();
        let stats = self.backend.collect_garbage(&live)?;
        // Forget the collected addresses in the replication indexes too:
        // `ingest_pack` skips objects `has_commit` claims to know, and a
        // stale index entry would let a re-pushed collected commit land
        // without its bytes.
        self.commit_index.retain(|oid, _| live.contains(oid));
        self.state_index.retain(|oid| live.contains(oid));
        // A memoized real merge names its committed state by address;
        // one that was collected must not be served by address again.
        self.memo.retain_live(&live);
        // Collected delta-stored states drop out of the retention index;
        // every surviving entry's base is in `live` (the closure in
        // `live_objects` put it there), so surviving chains stay whole.
        self.delta_deps.retain(|oid, _| live.contains(oid));
        if let (Some(m), Some(start)) = (&self.metrics, start) {
            let micros = start.elapsed().as_micros() as u64;
            m.gc_sweeps_total.inc();
            m.gc_dead_objects_total.add(stats.dead_objects);
            m.gc_dead_bytes_total.add(stats.dead_bytes);
            m.gc_micros.observe(micros);
            m.trace("gc", "", stats.dead_objects);
        }
        Ok(stats)
    }

    /// Compacts backend storage for read efficiency without reclaiming
    /// anything (see [`Backend::compact`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on backend failure.
    pub fn compact_storage(&mut self) -> Result<(), StoreError> {
        let before = self
            .metrics
            .as_ref()
            .map(|_| self.backend.storage_info().disk_bytes);
        self.backend.compact()?;
        if let (Some(m), Some(before)) = (&self.metrics, before) {
            let released = before.saturating_sub(self.backend.storage_info().disk_bytes);
            m.compactions_total.inc();
            m.compact_bytes_total.add(released);
            m.trace("compact", "", released);
        }
        Ok(())
    }
}
