//! **Figure 15** — space consumption of the three Peepul OR-set variants
//! under the Fig. 14 workload (maximum footprint observed, in KB).
//!
//! In the paper the OR-set-space and OR-set-spacetime lines coincide (both
//! duplicate-free); the unoptimized OR-set sits above them and grows with
//! its duplicates. The run asserts that ordering per row and that the
//! gap widens from the first row to the last (byte counts of a seeded
//! workload — deterministic). OR-set-spacetime is printed but not
//! asserted on: its estimate includes tree-node overhead and sits above
//! the plain OR-set at small n.
//!
//! Run: `cargo run --release -p peepul-bench --bin fig15 [max_ops]`

use peepul_bench::orset_workload;
use peepul_types::or_set::OrSet;
use peepul_types::or_set_space::OrSetSpace;
use peepul_types::or_set_spacetime::OrSetSpacetime;

fn main() {
    let max_ops: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30_000);
    println!("# Figure 15: OR-set max space (KB) — same workload as Figure 14");
    println!(
        "{:>8} {:>12} {:>15} {:>19}",
        "n_ops", "or_set_kb", "or_set_space_kb", "or_set_spacetime_kb"
    );
    let mut gaps = Vec::new(); // or_set − or_set_space, per row
    let mut n = 5_000;
    while n <= max_ops {
        let seed = 0xF164 + n as u64; // same seed as fig14: same workload
        let plain = orset_workload::<OrSet<u64>>(n, seed);
        let space = orset_workload::<OrSetSpace<u64>>(n, seed);
        let spacetime = orset_workload::<OrSetSpacetime<u64>>(n, seed);
        let kb = |b: usize| b as f64 / 1024.0;
        println!(
            "{:>8} {:>12.2} {:>15.2} {:>19.2}",
            n,
            kb(plain.max_bytes),
            kb(space.max_bytes),
            kb(spacetime.max_bytes),
        );
        assert!(
            space.max_bytes <= plain.max_bytes,
            "n = {n}: duplicate-free or_set_space ({}) sits above or_set ({})",
            space.max_bytes,
            plain.max_bytes
        );
        gaps.push(plain.max_bytes - space.max_bytes);
        n += 5_000;
    }
    if let [first, .., last] = gaps[..] {
        assert!(
            last > first,
            "or_set's duplicates must keep growing: gap {first} B at the first row, {last} B at the last"
        );
    }
    println!("# Expected shape: duplicate-free variants stay flat (bounded by the");
    println!("# value range); the unoptimized OR-set sits above and keeps growing.");
}
