//! Where the benchmark keeps its files. Everything it writes goes under
//! its own `out/` directory inside the checkout.

use std::path::PathBuf;

/// The benchmark's directory: `$PEEPUL_BENCH_DIR` (set by `run.sh`), else
/// `benchmark` under the current directory.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("PEEPUL_BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

/// Scratch data dirs and trace files.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// `BENCHMARK.json` at the repository root.
pub fn benchmark_json() -> PathBuf {
    bench_dir().join("..").join("BENCHMARK.json")
}
