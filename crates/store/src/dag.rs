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

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet};
use std::fmt;

/// Colours of the merge-base walk: reachable from the left leaves…
const LEFT: u8 = 1;
/// …from the right leaves…
const RIGHT: u8 = 2;
/// …or from a merge base already found, hence not maximal.
const STALE: u8 = 4;

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

    /// Number of commits.
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
    ///
    /// The bases come in descending `(generation, id)` order, the order the
    /// recursive merge folds them in. The search is Git's
    /// paint-down-to-common: it visits the commits above the bases plus the
    /// frontier below them where the STALE colour catches up with the
    /// walk, never the shared history further down, so its cost follows
    /// the divergence and not the length of the history.
    pub fn merge_bases_of(&self, left: &[CommitId], right: &[CommitId]) -> Vec<CommitId> {
        self.paint_down(left, right).0
    }

    /// The merge bases of [`CommitGraph::merge_bases_of`], and how many
    /// commits the walk painted.
    ///
    /// The queue pops commits in descending `(generation, id)` order, and a
    /// popped commit paints only its parents. `generation` is the longest
    /// distance to a root, so every parent sorts strictly below its child:
    /// all children of a commit are popped before the commit itself, and
    /// its colours are final when it is popped. That is why, unlike Git
    /// with its commit dates, no `remove_redundant` pass follows: a popped
    /// commit painted LEFT and RIGHT but not STALE lies below no other
    /// common ancestor.
    fn paint_down(&self, left: &[CommitId], right: &[CommitId]) -> (Vec<CommitId>, usize) {
        let mut colours: HashMap<CommitId, u8> = HashMap::new();
        for (leaves, side) in [(left, LEFT), (right, RIGHT)] {
            for &leaf in leaves {
                *colours.entry(leaf).or_default() |= side;
            }
        }
        let mut queue: BinaryHeap<(u64, CommitId)> =
            colours.keys().map(|&c| (self.generation(c), c)).collect();
        // Queued commits that are not STALE. Once none is left, nothing
        // still queued can paint a base.
        let mut live = queue.len();
        let mut bases = Vec::new();
        while live > 0 {
            let (_, c) = queue.pop().expect("live commits are queued");
            let mut paint = colours[&c];
            if paint & STALE == 0 {
                live -= 1;
                if paint == LEFT | RIGHT {
                    bases.push(c);
                    paint |= STALE;
                }
            }
            for &p in self.parents(c) {
                match colours.entry(p) {
                    Entry::Vacant(slot) => {
                        slot.insert(paint);
                        queue.push((self.generation(p), p));
                        if paint & STALE == 0 {
                            live += 1;
                        }
                    }
                    Entry::Occupied(mut slot) => {
                        if *slot.get() & STALE == 0 && paint & STALE != 0 {
                            live -= 1;
                        }
                        *slot.get_mut() |= paint;
                    }
                }
            }
        }
        (bases, colours.len())
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
        // The classic criss-cross: root forks into a1 and b1; each side
        // merges the other (ma = merge(a1, b1), mb = merge(b1, a1)) and
        // moves on (a2 above ma, b2 above mb).
        //   ancestors(a2) = {a2, ma, a1, b1, root}
        //   ancestors(b2) = {b2, mb, a1, b1, root}
        //   common        = {a1, b1, root}
        // root lies below both a1 and b1, and neither of those lies below
        // the other, so the maximal common ancestors are {a1, b1}.
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

    /// A linear history of `prefix` commits with the criss-cross of
    /// `criss_cross_has_two_merge_bases` forked from its last commit;
    /// returns the two tips.
    fn criss_cross_on_prefix(prefix: usize) -> (CommitGraph<&'static str>, CommitId, CommitId) {
        let mut g = CommitGraph::new();
        let mut fork = g.add_root("prefix");
        for _ in 1..prefix {
            fork = g.add_commit(vec![fork], "prefix").unwrap();
        }
        let a1 = g.add_commit(vec![fork], "a1").unwrap();
        let b1 = g.add_commit(vec![fork], "b1").unwrap();
        let ma = g.add_commit(vec![a1, b1], "ma").unwrap();
        let mb = g.add_commit(vec![b1, a1], "mb").unwrap();
        let a2 = g.add_commit(vec![ma], "a2").unwrap();
        let b2 = g.add_commit(vec![mb], "b2").unwrap();
        (g, a2, b2)
    }

    #[test]
    fn merge_base_walk_is_flat_in_history_length() {
        let walk = |prefix| {
            let (g, a2, b2) = criss_cross_on_prefix(prefix);
            let (bases, visited) = g.paint_down(&[a2], &[b2]);
            let names: Vec<&str> = bases.iter().map(|&c| *g.payload(c)).collect();
            (names, visited)
        };
        let (short, long) = (walk(10), walk(10_000));
        assert_eq!(short.0, ["b1", "a1"]);
        assert_eq!(short, long, "the walk must not see the prefix's length");
        // Six commits lie above the fork; the walk may add the fork itself,
        // where STALE catches up, but nothing of the prefix below it.
        assert!(short.1 <= 2 * 6, "visited {} commits", short.1);
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

    /// Two lanes, each grown from its own root; a commit extends its own
    /// lane and, for a quarter of them, also merges a commit of the other
    /// lane. Leaves from different lanes often share no ancestor at all.
    fn two_lane_dag(choices: &[(u8, u8)]) -> (CommitGraph<usize>, Vec<CommitId>) {
        let mut g = CommitGraph::new();
        let mut lanes = [vec![g.add_root(0)], vec![g.add_root(1)]];
        let mut ids = vec![lanes[0][0], lanes[1][0]];
        for (i, (p1, p2)) in choices.iter().enumerate() {
            let (own, other) = (&lanes[i % 2], &lanes[1 - i % 2]);
            let mut parents = vec![own[*p1 as usize % own.len()]];
            if *p2 < 64 {
                parents.push(other[*p2 as usize % other.len()]);
            }
            let c = g.add_commit(parents, i + 2).expect("valid parents");
            lanes[i % 2].push(c);
            ids.push(c);
        }
        (g, ids)
    }

    /// The merge-base search as it was before the paint-down walk: the
    /// maximal elements of the intersection of both full ancestor
    /// closures, in descending `(generation, id)` order.
    fn closure_oracle<P>(
        g: &CommitGraph<P>,
        left: &[CommitId],
        right: &[CommitId],
    ) -> Vec<CommitId> {
        let union_ancestors = |leaves: &[CommitId]| -> BTreeSet<CommitId> {
            let mut all = BTreeSet::new();
            for &leaf in leaves {
                all.extend(g.ancestors(leaf));
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
            common.iter().map(|&c| (g.generation(c), c)).collect();
        let mut dominated: HashSet<CommitId> = HashSet::new();
        let mut bases = Vec::new();
        while let Some((_, c)) = heap.pop() {
            if dominated.contains(&c) {
                continue;
            }
            bases.push(c);
            for anc in g.ancestors(c) {
                if anc != c {
                    dominated.insert(anc);
                }
            }
        }
        bases
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The whole `Vec` is compared, so a change of order fails too:
        /// `virtual_lca` folds the bases in this order.
        #[test]
        fn paint_down_matches_the_closure_oracle(
            choices in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..64),
            two_lanes in any::<bool>(),
            left in proptest::collection::vec(any::<u8>(), 1..4),
            right in proptest::collection::vec(any::<u8>(), 1..4),
        ) {
            let (g, ids) = if two_lanes { two_lane_dag(&choices) } else { random_dag(&choices) };
            let pick = |xs: &[u8]| -> Vec<CommitId> {
                xs.iter().map(|&x| ids[x as usize % ids.len()]).collect()
            };
            let (left, right) = (pick(&left), pick(&right));
            prop_assert_eq!(g.merge_bases_of(&left, &right), closure_oracle(&g, &left, &right));
        }
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
