//! The commit DAG: history of versions with branching and merging.
//!
//! Every branch-store version is a commit; `DO` transitions append
//! single-parent commits and `MERGE` transitions append two-parent commits,
//! exactly like Git. The graph answers the one question the MRDT model
//! needs from its store: *what is the lowest common ancestor of two
//! versions?* ([`CommitGraph::merge_bases`]). Criss-cross histories can
//! have several maximal common ancestors; the branch store resolves those
//! with recursive virtual merges (see `branch`), the same
//! strategy as Git's `merge-recursive`.

use std::collections::{BTreeSet, BinaryHeap, HashSet};
use std::fmt;

/// Identifier of a commit within one [`CommitGraph`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommitId(u32);

impl CommitId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CommitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct CommitNode<P> {
    parents: Vec<CommitId>,
    /// Longest distance to a root; used to prune ancestor walks and to
    /// order merge-base candidates.
    generation: u64,
    payload: P,
}

/// An append-only commit DAG carrying a payload per commit.
///
/// # Example
///
/// ```
/// use peepul_store::dag::CommitGraph;
///
/// let mut g: CommitGraph<&str> = CommitGraph::new();
/// let root = g.add_root("v0");
/// let a = g.add_commit(vec![root], "a").unwrap();
/// let b = g.add_commit(vec![root], "b").unwrap();
/// let m = g.add_commit(vec![a, b], "merge").unwrap();
/// assert_eq!(g.merge_bases(a, b), vec![root]);
/// assert!(g.is_ancestor(root, m));
/// ```
#[derive(Clone, Debug)]
pub struct CommitGraph<P> {
    nodes: Vec<CommitNode<P>>,
}

impl<P> CommitGraph<P> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        CommitGraph { nodes: Vec::new() }
    }

    /// Number of commits (including any virtual merge-base commits).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no commits.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Appends a parentless root commit.
    pub fn add_root(&mut self, payload: P) -> CommitId {
        let id = CommitId(self.nodes.len() as u32);
        self.nodes.push(CommitNode {
            parents: Vec::new(),
            generation: 0,
            payload,
        });
        id
    }

    /// Appends a commit with the given parents.
    ///
    /// Returns `None` when `parents` is empty or contains an unknown id
    /// (use [`CommitGraph::add_root`] for roots).
    pub fn add_commit(&mut self, parents: Vec<CommitId>, payload: P) -> Option<CommitId> {
        if parents.is_empty() || parents.iter().any(|p| p.index() >= self.nodes.len()) {
            return None;
        }
        let generation = 1 + parents
            .iter()
            .map(|p| self.nodes[p.index()].generation)
            .max()
            .expect("parents non-empty");
        let id = CommitId(self.nodes.len() as u32);
        self.nodes.push(CommitNode {
            parents,
            generation,
            payload,
        });
        Some(id)
    }

    /// The payload of a commit.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn payload(&self, id: CommitId) -> &P {
        &self.nodes[id.index()].payload
    }

    /// The parents of a commit.
    pub fn parents(&self, id: CommitId) -> &[CommitId] {
        &self.nodes[id.index()].parents
    }

    /// The generation number (longest distance to a root).
    pub fn generation(&self, id: CommitId) -> u64 {
        self.nodes[id.index()].generation
    }

    /// All ancestors of `id`, including `id` itself.
    pub fn ancestors(&self, id: CommitId) -> BTreeSet<CommitId> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![id];
        while let Some(c) = stack.pop() {
            if seen.insert(c) {
                stack.extend(self.nodes[c.index()].parents.iter().copied());
            }
        }
        seen
    }

    /// Is `a` an ancestor of `b` (reflexively)?
    pub fn is_ancestor(&self, a: CommitId, b: CommitId) -> bool {
        if a == b {
            return true;
        }
        let ga = self.generation(a);
        let mut seen = HashSet::new();
        let mut stack = vec![b];
        while let Some(c) = stack.pop() {
            if c == a {
                return true;
            }
            if !seen.insert(c) {
                continue;
            }
            for &p in &self.nodes[c.index()].parents {
                // Ancestors can only have strictly smaller generations, so
                // anything below `a`'s generation cannot reach it.
                if self.generation(p) >= ga {
                    stack.push(p);
                }
            }
        }
        false
    }

    /// The *merge bases* of two commits: the maximal common ancestors
    /// (candidates for the three-way merge's LCA), in descending generation
    /// order.
    ///
    /// Linear histories and plain fork/merge topologies yield exactly one;
    /// criss-cross merges can yield several, which the store resolves by
    /// recursive virtual merging.
    pub fn merge_bases(&self, c1: CommitId, c2: CommitId) -> Vec<CommitId> {
        self.merge_bases_of(&[c1], &[c2])
    }

    /// The merge bases of two *virtual* commits, each given as its set of
    /// real leaf commits: the maximal elements of
    /// `ancestors(left) ∩ ancestors(right)`.
    ///
    /// A virtual merge commit (the recursive-merge strategy's intermediate
    /// ancestor) is fully described by the real commits it merges — it has
    /// no ancestors of its own beyond theirs, and it cannot itself be a
    /// common ancestor of anything older. This is what lets the branch
    /// store resolve criss-cross LCAs **without materialising virtual
    /// commits in the graph**, which in turn is what makes its read-only
    /// `lca_state` possible.
    pub fn merge_bases_of(&self, left: &[CommitId], right: &[CommitId]) -> Vec<CommitId> {
        let union_ancestors = |leaves: &[CommitId]| -> BTreeSet<CommitId> {
            let mut all = BTreeSet::new();
            for &leaf in leaves {
                all.extend(self.ancestors(leaf));
            }
            all
        };
        let common: BTreeSet<CommitId> = {
            let a1 = union_ancestors(left);
            let a2 = union_ancestors(right);
            a1.intersection(&a2).copied().collect()
        };
        if common.is_empty() {
            return Vec::new();
        }
        // Keep only the maximal elements: walk candidates from the highest
        // generation down; each new base dominates (excludes) its own
        // ancestors.
        let mut heap: BinaryHeap<(u64, CommitId)> =
            common.iter().map(|&c| (self.generation(c), c)).collect();
        let mut dominated: HashSet<CommitId> = HashSet::new();
        let mut bases = Vec::new();
        while let Some((_, c)) = heap.pop() {
            if dominated.contains(&c) {
                continue;
            }
            bases.push(c);
            for anc in self.ancestors(c) {
                if anc != c {
                    dominated.insert(anc);
                }
            }
        }
        bases
    }

    /// Iterates over every commit id in insertion order (ids are dense).
    pub fn ids(&self) -> impl Iterator<Item = CommitId> {
        (0..self.nodes.len() as u32).map(CommitId)
    }

    /// All ancestors of `id` (including itself) in reverse-topological
    /// order (children before parents) — a `git log`-style history walk.
    pub fn history(&self, id: CommitId) -> Vec<CommitId> {
        let mut commits: Vec<CommitId> = self.ancestors(id).into_iter().collect();
        commits.sort_by_key(|c| std::cmp::Reverse((self.generation(*c), *c)));
        commits
    }
}

impl<P> Default for CommitGraph<P> {
    fn default() -> Self {
        CommitGraph::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root → x → a; x → b (fork at x).
    fn fork() -> (CommitGraph<&'static str>, CommitId, CommitId, CommitId) {
        let mut g = CommitGraph::new();
        let root = g.add_root("root");
        let x = g.add_commit(vec![root], "x").unwrap();
        let a = g.add_commit(vec![x], "a").unwrap();
        let b = g.add_commit(vec![x], "b").unwrap();
        (g, x, a, b)
    }

    #[test]
    fn generations_count_longest_path() {
        let (g, x, a, _) = fork();
        assert_eq!(g.generation(x), 1);
        assert_eq!(g.generation(a), 2);
    }

    #[test]
    fn add_commit_rejects_bad_parents() {
        let mut g: CommitGraph<()> = CommitGraph::new();
        assert!(g.add_commit(vec![], ()).is_none());
        let r = g.add_root(());
        assert!(g.add_commit(vec![r, CommitId(99)], ()).is_none());
    }

    #[test]
    fn ancestor_queries() {
        let (g, x, a, b) = fork();
        assert!(g.is_ancestor(x, a));
        assert!(g.is_ancestor(x, x));
        assert!(!g.is_ancestor(a, x));
        assert!(!g.is_ancestor(a, b));
    }

    #[test]
    fn single_merge_base_on_plain_fork() {
        let (g, x, a, b) = fork();
        assert_eq!(g.merge_bases(a, b), vec![x]);
    }

    #[test]
    fn merge_base_of_ancestor_pair_is_the_ancestor() {
        let (g, x, a, _) = fork();
        assert_eq!(g.merge_bases(x, a), vec![x]);
        assert_eq!(g.merge_bases(a, a), vec![a]);
    }

    #[test]
    fn criss_cross_has_two_merge_bases() {
        // The classic criss-cross:
        //   root → a1, b1 (fork); ma = merge(a1,b1); mb = merge(b1,a1);
        //   then a2 child of ma, b2 child of mb.
        //   merge_bases(a2, b2) = {ma? no — {a1? } …} = {a1, b1}? Let's see:
        //   ancestors(a2) = {a2, ma, a1, b1, root}
        //   ancestors(b2) = {b2, mb, a1, b1, root}
        //   common = {a1, b1, root}; maximal = {a1, b1}.
        let mut g: CommitGraph<&str> = CommitGraph::new();
        let root = g.add_root("root");
        let a1 = g.add_commit(vec![root], "a1").unwrap();
        let b1 = g.add_commit(vec![root], "b1").unwrap();
        let ma = g.add_commit(vec![a1, b1], "ma").unwrap();
        let mb = g.add_commit(vec![b1, a1], "mb").unwrap();
        let a2 = g.add_commit(vec![ma], "a2").unwrap();
        let b2 = g.add_commit(vec![mb], "b2").unwrap();
        let bases: BTreeSet<CommitId> = g.merge_bases(a2, b2).into_iter().collect();
        assert_eq!(bases, BTreeSet::from([a1, b1]));
    }

    #[test]
    fn merge_bases_of_leaf_sets_match_virtual_commits() {
        // Criss-cross as above; the virtual merge of {a1, b1} against root
        // must see the same bases as a materialised merge commit would.
        let mut g: CommitGraph<&str> = CommitGraph::new();
        let root = g.add_root("root");
        let a1 = g.add_commit(vec![root], "a1").unwrap();
        let b1 = g.add_commit(vec![root], "b1").unwrap();
        let c = g.add_commit(vec![a1], "c").unwrap();
        // Virtual merge of (a1, b1) vs. c: common ancestors are {a1, root};
        // maximal = {a1}. A real merge commit m(a1, b1) would answer the
        // same.
        assert_eq!(g.merge_bases_of(&[a1, b1], &[c]), vec![a1]);
        let m = g.add_commit(vec![a1, b1], "m").unwrap();
        assert_eq!(g.merge_bases(m, c), vec![a1]);
    }

    #[test]
    fn no_common_ancestor_between_disjoint_roots() {
        let mut g: CommitGraph<&str> = CommitGraph::new();
        let r1 = g.add_root("r1");
        let r2 = g.add_root("r2");
        assert!(g.merge_bases(r1, r2).is_empty());
    }

    #[test]
    fn history_is_reverse_topological() {
        let (g, x, a, _) = fork();
        let h = g.history(a);
        assert_eq!(h.first(), Some(&a));
        assert_eq!(h.last().map(|c| g.generation(*c)), Some(0));
        assert!(h.contains(&x));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Builds a random DAG: each new commit picks 1–2 parents among the
    /// existing commits.
    fn random_dag(choices: &[(u8, u8)]) -> (CommitGraph<usize>, Vec<CommitId>) {
        let mut g = CommitGraph::new();
        let mut ids = vec![g.add_root(0)];
        for (i, (p1, p2)) in choices.iter().enumerate() {
            let a = ids[*p1 as usize % ids.len()];
            let b = ids[*p2 as usize % ids.len()];
            let parents = if a == b { vec![a] } else { vec![a, b] };
            ids.push(g.add_commit(parents, i + 1).expect("valid parents"));
        }
        (g, ids)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn merge_bases_are_maximal_common_ancestors(
            choices in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..24),
            x in any::<u8>(),
            y in any::<u8>(),
        ) {
            let (g, ids) = random_dag(&choices);
            let c1 = ids[x as usize % ids.len()];
            let c2 = ids[y as usize % ids.len()];
            let bases = g.merge_bases(c1, c2);
            prop_assert!(!bases.is_empty(), "single root ⇒ common ancestor exists");
            for &b in &bases {
                // Each base is a common ancestor…
                prop_assert!(g.is_ancestor(b, c1));
                prop_assert!(g.is_ancestor(b, c2));
                // …and maximal: no other base dominates it.
                for &b2 in &bases {
                    if b != b2 {
                        prop_assert!(!g.is_ancestor(b, b2), "{b:?} dominated by {b2:?}");
                    }
                }
            }
            // Completeness: every common ancestor is dominated by a base.
            let common: Vec<CommitId> = g
                .ancestors(c1)
                .intersection(&g.ancestors(c2))
                .copied()
                .collect();
            for c in common {
                prop_assert!(
                    bases.iter().any(|&b| g.is_ancestor(c, b)),
                    "common ancestor {c:?} not covered by any base"
                );
            }
        }

        #[test]
        fn generations_bound_ancestry(
            choices in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..24),
        ) {
            let (g, ids) = random_dag(&choices);
            for &c in &ids {
                for &p in g.parents(c) {
                    prop_assert!(g.generation(p) < g.generation(c));
                }
            }
        }

        #[test]
        fn history_is_topologically_sorted(
            choices in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..24),
        ) {
            let (g, ids) = random_dag(&choices);
            let head = *ids.last().expect("non-empty");
            let h = g.history(head);
            // Children appear before parents.
            for (i, &c) in h.iter().enumerate() {
                for &p in g.parents(c) {
                    if let Some(pi) = h.iter().position(|&x| x == p) {
                        prop_assert!(pi > i, "parent {p:?} before child {c:?}");
                    }
                }
            }
        }
    }
}
