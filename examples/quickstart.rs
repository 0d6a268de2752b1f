//! Quickstart: a replicated shopping list over the Git-like branch store.
//!
//! Demonstrates the core workflow — fork, diverge, merge — with the
//! space-efficient add-wins OR-set, including the conflict the paper opens
//! with: one device removes an item while another concurrently re-adds it.
//! Along the way it shows the pillars of the redesigned API: typed branch
//! handles, one commit per update, and the commit-free query path.
//!
//! Run with: `cargo run --example quickstart`

use peepul::store::{BranchStore, StoreError};
use peepul::types::or_set_space::{OrSetOp, OrSetOutput, OrSetQuery, OrSetSpace};

fn main() -> Result<(), StoreError> {
    let mut db: BranchStore<OrSetSpace<String>> = BranchStore::new("laptop");
    let add = |x: &str| OrSetOp::Add(x.to_owned());
    let remove = |x: &str| OrSetOp::Remove(x.to_owned());

    // Build the list on the laptop — one commit per item.
    let mut laptop = db.branch_mut("laptop")?;
    for item in ["milk", "bread", "eggs"] {
        laptop.apply(&add(item))?;
    }
    println!("laptop list: {:?}", db.state("laptop")?.elements());

    // The phone clones the list and goes offline. `fork` hands back a
    // validated BranchId — a typo in a branch name fails at handle
    // creation, never deep inside a merge.
    let phone = db.branch_mut("laptop")?.fork("phone")?;

    // Offline edits on both devices:
    db.branch_mut(&phone)?.apply(&remove("milk"))?; // phone: bought the milk
    db.branch_mut(&phone)?.apply(&add("coffee"))?; // phone: need coffee
    db.branch_mut("laptop")?.apply(&add("milk"))?; // laptop: need milk AGAIN (re-add)
    db.branch_mut("laptop")?.apply(&remove("bread"))?; // laptop: bread already home

    println!("phone  diverged: {:?}", db.state(&phone)?.elements());
    println!("laptop diverged: {:?}", db.state("laptop")?.elements());

    // Sync: the three-way merge resolves every conflict without manual
    // intervention. The concurrent remove("milk") / add("milk") conflict
    // resolves add-wins because the laptop's re-add carries a fresh
    // timestamp the phone's remove never observed.
    db.branch_mut("laptop")?.merge_from(&phone)?;
    db.branch_mut(&phone)?.merge_from("laptop")?;

    let laptop = db.state("laptop")?;
    println!("after sync:      {:?}", laptop.elements());
    assert_eq!(
        laptop.elements(),
        db.state(&phone)?.elements(),
        "replicas converged"
    );

    // Queries are commit-free: they run against `&db`, mint no commit and
    // write nothing to the backend.
    let commits_before = db.commit_count();
    let v = db.read("laptop", &OrSetQuery::Lookup("milk".into()))?;
    assert_eq!(
        v,
        OrSetOutput::Present(true),
        "add wins over concurrent remove"
    );
    let v = db.read("laptop", &OrSetQuery::Lookup("bread".into()))?;
    assert_eq!(v, OrSetOutput::Present(false), "plain remove still removes");
    assert_eq!(db.commit_count(), commits_before, "reads mint no commits");

    println!(
        "history: {} commits on a Git-like DAG",
        db.branch("laptop")?.history().len()
    );
    Ok(())
}
