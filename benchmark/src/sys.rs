//! What the benchmark asks of the operating system: a fixed core per load
//! thread, and the process's resident anonymous memory.
//!
//! The two virtual cores of the measurement host are not alike (the same
//! single-threaded set-up takes 10-30 % longer on the second), so a run
//! that lets the scheduler place its threads measures the placement. Load
//! thread `t`, and the main thread during set-up as thread 0, run on the
//! `t`-th core the process may use.

use std::sync::OnceLock;

#[cfg(target_os = "linux")]
mod affinity {
    /// 1024 cores, the size of glibc's `cpu_set_t`.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
}

/// The cores the calling thread may run on, in ascending order.
#[cfg(target_os = "linux")]
fn current_cores() -> Vec<usize> {
    let mut set: affinity::CpuSet = [0; 16];
    let size = std::mem::size_of_val(&set);
    // SAFETY: `set` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread. The kernel writes at most `size` bytes.
    if unsafe { affinity::sched_getaffinity(0, size, &mut set) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// The cores the process was allowed when it first asked (before any
/// thread pinned itself: threads inherit their spawner's mask).
#[cfg(target_os = "linux")]
fn allowed_cores() -> &'static [usize] {
    static CORES: OnceLock<Vec<usize>> = OnceLock::new();
    CORES.get_or_init(current_cores)
}

/// Pins the calling thread to the `nth` allowed core (modulo their
/// number). Returns whether it did; a refusal leaves the thread where the
/// scheduler puts it.
#[cfg(target_os = "linux")]
pub fn pin_thread(nth: usize) -> bool {
    let cores = allowed_cores();
    if cores.is_empty() {
        return false;
    }
    let core = cores[nth % cores.len()];
    let mut set: affinity::CpuSet = [0; 16];
    set[core / 64] = 1 << (core % 64);
    let size = std::mem::size_of_val(&set);
    // SAFETY: `set` is a live buffer of exactly the size passed and is only
    // read; pid 0 names the calling thread.
    unsafe { affinity::sched_setaffinity(0, size, &set) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_thread(_nth: usize) -> bool {
    false
}

/// Resident anonymous memory of this process in bytes: the heap and the
/// stacks, without the pages of the executable, which come in by chunks as
/// code is first run (0 where `/proc` has none).
pub fn anon_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("RssAnon:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_is_allowed_exactly_one_core() {
        // On its own thread: the affinity of the test runner's threads is
        // not this test's to change.
        std::thread::spawn(|| {
            let before = allowed_cores().to_vec();
            assert!(!before.is_empty());
            assert!(pin_thread(before.len() + 1), "nth wraps around");
            let now = current_cores();
            assert_eq!(now, [before[(before.len() + 1) % before.len()]]);
            // The remembered set is the one from before any pinning.
            assert_eq!(allowed_cores(), before);
            assert!(anon_rss_bytes() > 0);
        })
        .join()
        .unwrap();
    }
}
