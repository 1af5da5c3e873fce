//! What the ledger asks of the operating system: process CPU time,
//! peak resident set, and the facts that identify a measurement
//! (cores, compiler, commit).

use std::process::Command;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen
/// `long`s this module does not read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU seconds this process has consumed, all threads
/// included — also the short-lived workers of the library's parallel
/// fan-outs. `/proc/self/stat` would give the same without a foreign
/// call, but only in 10 ms ticks: several percent of the shortest
/// passes.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (guarded by the cfg above), and `RUSAGE_SELF` is a
    // valid `who`; getrusage writes only within that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&ru.utime) + secs(&ru.stime)
}

/// Peak resident set size in MB since the process started or since the
/// last [`reset_peak_rss`] (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line of /proc/self/status");
    kb / 1024.0
}

/// Restart the kernel's peak-RSS bookkeeping at the current resident
/// set, so the next [`peak_rss_mb`] reads the peak of what ran in
/// between. Where the kernel refuses, peaks accumulate over the whole
/// process instead — still a valid, if coarser, reading.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Seconds the reference loop takes on the box this ledger was defined
/// on (2 vCPUs of a shared host) while nothing slows it: what
/// [`host_slowdown`] reads 1.0 at.
const REFERENCE_NOMINAL_S: f64 = 0.00038;

/// One timing of the reference loop: a fixed, serial, cache-resident
/// chain of integer multiply-adds.
fn reference_seconds() -> f64 {
    let t0 = std::time::Instant::now();
    let mut x = 1u64;
    for i in 0..400_000u64 {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64()
}

/// How much slower than nominal the host runs this thread right now
/// (1.0 = nominal, 1.3 = the slow state of the shared box). The
/// fastest of five back-to-back readings: an interrupt inflates one
/// reading, the host's speed state holds for all of them.
pub fn host_slowdown() -> f64 {
    let fastest = (0..5).map(|_| reference_seconds()).fold(f64::INFINITY, f64::min);
    fastest / REFERENCE_NOMINAL_S
}

/// `cpu_set_t` of Linux: 1024 CPUs, one bit each.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restrict this process, and every thread and child it starts from
/// now on, to the CPU it is running on. `available_parallelism` then
/// reads 1, so the library's fan-outs run their cells on the calling
/// thread: a run measures the program's work, not how the host's
/// scheduler places two workers on two shared vCPUs. Best effort —
/// where the kernel refuses, the run goes on unpinned.
pub fn pin_to_current_cpu() {
    // SAFETY: sched_getcpu takes no arguments and only reads.
    let cpu = unsafe { sched_getcpu() };
    if !(0..1024).contains(&cpu) {
        return;
    }
    let mut set = CpuSet([0; 16]);
    set.0[cpu as usize / 64] = 1 << (cpu % 64);
    // SAFETY: `set` is a live `cpu_set_t`-sized mask and its size is
    // passed alongside; pid 0 is the calling thread, and threads and
    // processes created later inherit its mask.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

/// Cores the library's fan-outs will use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).lines().next()?.trim().to_string())
}

/// `rustc -V` of the toolchain on `PATH` (`unknown` if there is none).
pub fn rustc_version() -> String {
    first_line_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string())
}

/// The checkout's commit, with `-dirty` appended when tracked files
/// differ from it (`unknown` outside a git checkout).
pub fn commit() -> String {
    let Some(head) = first_line_of("git", &["rev-parse", "HEAD"]) else {
        return "unknown".to_string();
    };
    let dirty = Command::new("git")
        .args(["diff", "--quiet", "HEAD"])
        .status()
        .map(|s| !s.success())
        .unwrap_or(false);
    if dirty {
        format!("{head}-dirty")
    } else {
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn pinning_leaves_one_worker_and_a_sane_reference() {
        pin_to_current_cpu();
        assert_eq!(nproc(), 1);
        let slowdown = host_slowdown();
        assert!((0.05..20.0).contains(&slowdown), "{slowdown}");
    }

    #[test]
    fn peak_rss_follows_a_large_allocation() {
        reset_peak_rss();
        let before = peak_rss_mb();
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        assert!(peak_rss_mb() >= before + 60.0, "{before} -> {}", peak_rss_mb());
    }
}
