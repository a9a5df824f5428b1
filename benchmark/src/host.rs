//! Host fingerprint and the process counters the end-to-end metrics read:
//! CPU time from the process CPU clock, peak resident set from
//! `/proc/self/status`, load average from `/proc/loadavg`.

use serde::{Deserialize, Serialize};
use std::process::Command;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("cg-perfbench reads /proc and the process CPU clock of 64-bit Linux");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    /// From the C library `std` already links. `std` has no process CPU
    /// clock, and `/proc/self/stat` counts in 10 ms ticks, which is 2 % of
    /// a half-second round.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Where and on what a result was measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// 1-minute load average when the run started.
    pub load_start: f64,
    /// 1-minute load average when the run ended.
    pub load_end: f64,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
    /// Whether `git status --porcelain` listed anything.
    pub git_dirty: bool,
    /// Load average at the start above `nproc − 0.5`: another tenant was
    /// already using a core's worth of this host.
    pub noisy_host: bool,
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// 1-minute load average (0 when `/proc/loadavg` is unreadable).
pub fn load_average() -> f64 {
    read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0)
}

/// Whether a load average marks the host as noisy for `nproc` cores.
pub fn is_noisy(load: f64, nproc: usize) -> bool {
    load > nproc as f64 - 0.5
}

impl Fingerprint {
    /// Takes the fingerprint at the start of a run; [`Fingerprint::finish`]
    /// completes it.
    pub fn start() -> Fingerprint {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let load_start = load_average();
        let cpu_model = read("/proc/cpuinfo")
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string());
        let git = |args: &[&str]| command_line("git", args);
        Fingerprint {
            nproc,
            cpu_model,
            kernel: read("/proc/sys/kernel/osrelease").trim().to_string(),
            load_start,
            load_end: load_start,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            git_commit: git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string()),
            git_dirty: git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()),
            noisy_host: is_noisy(load_start, nproc),
        }
    }

    /// Records the load average at the end of the run.
    pub fn finish(&mut self) {
        self.load_end = load_average();
    }
}

extern "C" {
    /// glibc wrappers; `pid` 0 is the calling thread, the mask is a bit
    /// set of `cpusetsize` bytes, the result 0 on success.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Room for 1024 CPUs, glibc's `cpu_set_t`.
type CpuMask = [u64; 16];

/// Keeps the calling thread, and every thread it spawns from now on, on
/// one CPU until dropped. See the README ("One CPU for one client") for
/// why the single-client workloads run this way.
pub struct Pinned {
    original: CpuMask,
    /// The CPU pinned to.
    pub cpu: usize,
}

impl Pinned {
    /// Pins to the lowest-numbered CPU the thread may run on. `None` when
    /// the affinity calls fail; the run then goes ahead unpinned.
    pub fn to_one_cpu() -> Option<Pinned> {
        let mut original: CpuMask = [0; 16];
        // SAFETY: the kernel writes at most `size_of::<CpuMask>()` bytes
        // through the pointer, which is what the live local it points to
        // holds; nothing is kept after the call.
        let rc =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), original.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let (word, bits) = original.iter().enumerate().find(|(_, w)| **w != 0)?;
        let cpu = word * 64 + bits.trailing_zeros() as usize;
        let mut one: CpuMask = [0; 16];
        one[word] = 1 << (cpu % 64);
        // SAFETY: the kernel reads `size_of::<CpuMask>()` bytes from the
        // pointer, which is what the live local it points to holds.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), one.as_ptr()) };
        (rc == 0).then_some(Pinned { original, cpu })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: as in `to_one_cpu`: the kernel reads one `CpuMask` from a
        // live field. A failure leaves the thread pinned, which is harmless.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), self.original.as_ptr()) };
    }
}

/// User plus system CPU seconds of this process: all threads, those that
/// have already exited included.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer and keeps nothing; `ts` is a live, exclusively borrowed value
    // with that struct's layout on 64-bit Linux (two 64-bit fields), the
    // only target this file compiles for.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_guard_threshold() {
        assert!(!is_noisy(1.5, 2));
        assert!(is_noisy(1.51, 2));
        assert!(is_noisy(0.6, 1));
    }

    #[test]
    fn process_counters_are_readable_and_grow() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() >= before + 0.03, "cpu time did not advance");
        assert!(peak_rss_mib() > 1.0);
        let f = Fingerprint::start();
        assert!(f.nproc >= 1 && !f.kernel.is_empty());
    }

    #[test]
    fn pinning_restricts_spawned_threads_and_is_undone_on_drop() {
        fn allowed() -> usize {
            let mut mask: CpuMask = [0; 16];
            // SAFETY: as in `Pinned::to_one_cpu`.
            let rc =
                unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
            assert_eq!(rc, 0);
            mask.iter().map(|w| w.count_ones() as usize).sum()
        }
        let before = allowed();
        {
            let pinned = Pinned::to_one_cpu().expect("affinity calls work on Linux");
            assert_eq!(allowed(), 1);
            // A thread spawned while pinned inherits the mask.
            assert_eq!(std::thread::spawn(allowed).join().unwrap(), 1);
            std::hint::black_box(pinned.cpu);
        }
        assert_eq!(allowed(), before);
    }
}
