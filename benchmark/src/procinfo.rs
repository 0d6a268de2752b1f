//! Memory facts of this process, read from `/proc/self/status`.

fn status_kb(field: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process so far, in kB (`VmHWM`).
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Current resident set size of this process, in kB (`VmRSS`).
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}
