//! Errors of the branch store.

use std::error::Error;
use std::fmt;

/// Errors returned by [`BranchStore`](crate::BranchStore) operations.
#[derive(Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The named branch does not exist.
    UnknownBranch(String),
    /// A branch with this name already exists.
    BranchExists(String),
    /// The name is not a legal branch name (empty, or contains control
    /// characters). Rejected when a handle or branch is created, so typos
    /// and corrupted names surface at the edge of the API instead of deep
    /// inside a merge.
    InvalidBranchName(String),
    /// The two versions share no history (distinct roots); a three-way
    /// merge is impossible. Cannot occur for branches forked from one root.
    NoCommonAncestor,
    /// An I/O failure in a persistent backend (message carries the
    /// `std::io::Error` rendering; the error itself is not `Clone`).
    Io(String),
    /// A stored or received object is structurally broken — on-disk
    /// framing malformed past the recoverable tail, an undecodable record,
    /// a missing parent or base, a delta that does not apply.
    Corrupt(String),
    /// An object failed content verification: re-deriving its content
    /// address did not reproduce the id it is stored under or was
    /// advertised as. Raised by the one check every state (a snapshot, or
    /// each link of a resolved delta chain) and every ingested commit
    /// record passes before it is trusted — a corrupted, truncated,
    /// drifted or tampered object can never enter a store or leave one as
    /// a wrong state.
    CorruptObject {
        /// The content address the object is stored under / advertised as.
        expected: crate::object::ObjectId,
        /// The content address its (resolved) bytes actually hash to.
        actual: crate::object::ObjectId,
    },
    /// The state a commit names is no longer held: garbage collection
    /// reclaimed it once no branch reached the commit any more.
    Collected(crate::object::ObjectId),
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

impl fmt::Debug for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownBranch(b) => write!(f, "unknown branch {b:?}"),
            StoreError::BranchExists(b) => write!(f, "branch {b:?} already exists"),
            StoreError::InvalidBranchName(b) => write!(f, "invalid branch name {b:?}"),
            StoreError::NoCommonAncestor => write!(f, "versions share no common ancestor"),
            StoreError::Io(msg) => write!(f, "backend i/o error: {msg}"),
            StoreError::Corrupt(msg) => write!(f, "backend corruption: {msg}"),
            StoreError::CorruptObject { expected, actual } => write!(
                f,
                "object {expected} does not hash to its address: its bytes hash to {actual}"
            ),
            StoreError::Collected(state) => {
                write!(f, "state {state} was reclaimed by garbage collection")
            }
        }
    }
}

impl Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_object_names_both_ids() {
        let expected = crate::object::content_id(&1u8);
        let actual = crate::object::content_id(&2u8);
        let msg = StoreError::CorruptObject { expected, actual }.to_string();
        assert!(msg.contains(&expected.to_string()));
        assert!(msg.contains(&actual.to_string()));
    }

    #[test]
    fn messages_name_the_branch() {
        assert!(StoreError::UnknownBranch("dev".into())
            .to_string()
            .contains("dev"));
        assert!(StoreError::BranchExists("main".into())
            .to_string()
            .contains("main"));
    }
}
