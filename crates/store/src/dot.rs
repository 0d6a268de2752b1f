//! Graphviz (DOT) rendering of commit graphs — `git log --graph` for the
//! branch store, invaluable when debugging merge-base questions on
//! criss-cross histories.

use crate::backend::Backend;
use crate::branch::BranchStore;
use crate::dag::{CommitGraph, CommitId};
use peepul_core::Mrdt;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Renders a commit graph in DOT format.
///
/// `label_of` produces the node label for each commit's payload; `heads`
/// maps branch names to their head commits (drawn as filled house-shaped
/// nodes pointing at their commit).
///
/// # Example
///
/// ```
/// use peepul_store::dag::CommitGraph;
/// use peepul_store::dot::render;
/// use std::collections::BTreeMap;
///
/// let mut g: CommitGraph<&str> = CommitGraph::new();
/// let root = g.add_root("v0");
/// let a = g.add_commit(vec![root], "a").unwrap();
/// let mut heads = BTreeMap::new();
/// heads.insert("main".to_owned(), a);
/// let dot = render(&g, |p| p.to_string(), &heads);
/// assert!(dot.contains("digraph"));
/// assert!(dot.contains("\"main\""));
/// ```
pub fn render<P>(
    graph: &CommitGraph<P>,
    label_of: impl Fn(&P) -> String,
    heads: &BTreeMap<String, CommitId>,
) -> String {
    let mut out = String::from(
        "digraph commits {\n  rankdir=BT;\n  node [shape=box, fontname=\"monospace\"];\n",
    );
    for id in graph.ids() {
        let label = label_of(graph.payload(id)).replace('"', "'");
        let _ = writeln!(
            out,
            "  c{} [label=\"c{}: {label}\"];",
            id.index(),
            id.index()
        );
        for parent in graph.parents(id) {
            let _ = writeln!(out, "  c{} -> c{};", parent.index(), id.index());
        }
    }
    for (branch, head) in heads {
        let _ = writeln!(
            out,
            "  \"{branch}\" [shape=house, style=filled, fillcolor=lightblue];"
        );
        let _ = writeln!(out, "  \"{branch}\" -> c{};", head.index());
    }
    out.push_str("}\n");
    out
}

impl<M: Mrdt, B: Backend> BranchStore<M, B> {
    /// Renders the commit DAG with branch heads in Graphviz DOT format —
    /// `git log --graph` for this store. Pipe through `dot -Tsvg` to
    /// visualise criss-cross histories. Branch heads render in sorted name
    /// order, so the output is deterministic across backends and runs.
    pub fn to_dot(&self) -> String {
        let heads: BTreeMap<String, CommitId> = self
            .branch_names()
            .into_iter()
            .map(|name| (name.to_owned(), self.head(name).expect("listed branch")))
            .collect();
        render(self.graph(), |state| format!("{state:?}"), &heads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peepul_types::counter::{Counter, CounterOp};

    #[test]
    fn renders_nodes_edges_and_heads() {
        let mut g: CommitGraph<&str> = CommitGraph::new();
        let root = g.add_root("root");
        let a = g.add_commit(vec![root], "a").unwrap();
        let b = g.add_commit(vec![root], "b").unwrap();
        let m = g.add_commit(vec![a, b], "merge").unwrap();
        let mut heads = BTreeMap::new();
        heads.insert("main".to_owned(), m);
        let dot = render(&g, |p| p.to_string(), &heads);
        assert!(dot.starts_with("digraph commits {"));
        assert!(dot.contains("c0: root"));
        assert!(dot.contains("c0 -> c1;"));
        assert!(dot.contains("c1 -> c3;") && dot.contains("c2 -> c3;"));
        assert!(dot.contains("\"main\" -> c3;"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn escapes_quotes_in_labels() {
        let mut g: CommitGraph<&str> = CommitGraph::new();
        g.add_root("say \"hi\"");
        let dot = render(&g, |p| p.to_string(), &BTreeMap::new());
        assert!(dot.contains("say 'hi'"));
        assert!(!dot.contains("\"hi\""));
    }

    #[test]
    fn branch_store_renders_to_dot() {
        let mut s: BranchStore<Counter> = BranchStore::new("main");
        s.branch_mut("main")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        s.branch_mut("main").unwrap().fork("dev").unwrap();
        s.branch_mut("dev")
            .unwrap()
            .apply(&CounterOp::Increment)
            .unwrap();
        s.branch_mut("main").unwrap().merge_from("dev").unwrap();
        let dot = s.to_dot();
        assert!(dot.contains("\"main\""));
        assert!(dot.contains("\"dev\""));
        assert!(dot.contains("Counter"));
    }
}
