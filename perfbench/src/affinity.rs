//! Pinning the measuring thread to one CPU at a time.
//!
//! On a shared virtual machine the vCPUs do not run at the same speed (one
//! may share its core with the host's interrupt handling or another
//! tenant), and the scheduler keeps a single-threaded loop on whichever it
//! started on. The sequential single-threaded workloads therefore pin each
//! pass to the next allowed CPU in turn, so every run samples every CPU.
//! Pinning goes through `taskset`; without it the loop runs unpinned.

use std::process::{Command, Stdio};

/// The CPUs this process may run on, from `/proc/self/status`.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(str::trim)
        .unwrap_or("");
    parse_cpu_list(list)
}

/// Parses a kernel CPU list such as `0-3,6,8-9`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Restricts the calling thread to `cpus` (a kernel CPU list); returns
/// whether `taskset` succeeded.
pub fn pin_current_thread(cpus: &str) -> bool {
    let Ok(link) = std::fs::read_link("/proc/thread-self") else { return false };
    let Some(tid) = link.file_name().and_then(|t| t.to_str()).map(str::to_string) else {
        return false;
    };
    Command::new("taskset")
        .args(["-p", "-c", cpus, &tid])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Pins the calling thread to pass `pass`'s CPU for as long as it lives
/// and restores the full allowed set when dropped.
pub struct PassPin {
    all: Vec<usize>,
    /// The CPU the pass runs on, or `None` when pinning is unavailable.
    pub cpu: Option<usize>,
}

impl PassPin {
    /// Pins to the `pass`-th allowed CPU, round robin.
    pub fn new(pass: usize) -> Self {
        let all = allowed_cpus();
        let cpu = (!all.is_empty()).then(|| all[pass % all.len()]);
        let cpu = cpu.filter(|c| pin_current_thread(&c.to_string()));
        PassPin { all, cpu }
    }
}

impl Drop for PassPin {
    fn drop(&mut self) {
        if self.cpu.is_some() {
            let list: Vec<String> = self.all.iter().map(usize::to_string).collect();
            // Best effort: a failure leaves the thread on one CPU, which
            // slows later multi-threaded phases but does not falsify them.
            let _ = pin_current_thread(&list.join(","));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse_ranges_and_singles() {
        assert_eq!(parse_cpu_list("0-3,6,8-9"), vec![0, 1, 2, 3, 6, 8, 9]);
        assert_eq!(parse_cpu_list("2"), vec![2]);
        assert!(parse_cpu_list("").is_empty());
    }
}
