//! Process-level cost probes: a counting global allocator, CPU time,
//! context switches and peak resident memory from `/proc`, CPU pinning,
//! and the host-noise canary.
//!
//! Every probe is read at the edges of a timed region only, never
//! inside one, so the reading itself is not part of what is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two statistics: bytes requested and
/// allocation calls, process-wide. The counters publish no other data,
/// hence `Relaxed`.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow requests the new size afresh; counted like an alloc.
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Linux reports `utime`/`stime` in clock ticks of 1/100 s on every
/// platform this repository targets (`getconf CLK_TCK`).
const TICKS_PER_SECOND: f64 = 100.0;

/// One reading of every process-level probe.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    at: Instant,
    cpu_ticks: u64,
    alloc_bytes: u64,
    alloc_calls: u64,
    ctx_switches: u64,
}

/// What a timed region cost the whole process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub alloc_bytes: u64,
    pub alloc_calls: u64,
    pub ctx_switches: u64,
}

impl Reading {
    pub fn now() -> Self {
        Self {
            cpu_ticks: cpu_ticks(),
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            alloc_calls: ALLOC_CALLS.load(Ordering::Relaxed),
            ctx_switches: ctx_switches(),
            at: Instant::now(),
        }
    }

    /// The cost of the region from `self` to `end`.
    pub fn until(&self, end: &Reading) -> Cost {
        Cost {
            wall_s: end.at.duration_since(self.at).as_secs_f64(),
            cpu_s: (end.cpu_ticks - self.cpu_ticks) as f64 / TICKS_PER_SECOND,
            alloc_bytes: end.alloc_bytes - self.alloc_bytes,
            alloc_calls: end.alloc_calls - self.alloc_calls,
            // Threads that exit inside a region take their counts with
            // them, so a delta can come out low; never negative.
            ctx_switches: end.ctx_switches.saturating_sub(self.ctx_switches),
        }
    }
}

impl Cost {
    pub fn add(&mut self, other: &Cost) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.alloc_bytes += other.alloc_bytes;
        self.alloc_calls += other.alloc_calls;
        self.ctx_switches += other.ctx_switches;
    }
}

/// `utime + stime` of the whole process (dead threads included), in
/// clock ticks, from `/proc/self/stat`.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime")
}

/// Fields 14 and 15 of a `/proc/<pid>/stat` line. The command name
/// (field 2) may hold spaces and parentheses, so counting starts after
/// the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Voluntary plus involuntary context switches summed over the live
/// threads (`/proc/self/status` alone covers only the main thread).
fn ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|status| {
            status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}

/// The first number after `key` in a `/proc/<pid>/status` document.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of the process so far (`VmHWM`), MiB. One
/// workload runs per process, so the peak belongs to that workload.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status_field(&status, "VmHWM:").expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

/// Restricts this thread, and every thread started from it afterwards,
/// to the first CPU the process is allowed on; returns that CPU.
///
/// For the one workload whose threads mostly hand work to each other:
/// on a virtual machine a wake-up that crosses CPUs goes through the
/// hypervisor and costs tens of microseconds, and the kernel moves the
/// threads together and apart again every second or so, which makes
/// epoch time flip threefold. On one CPU the hand-offs cost what the
/// software makes them cost.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let cpu = first_allowed_cpu(&status).ok_or("/proc/self/status has no Cpus_allowed_list")?;
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or("the first allowed CPU is beyond 1023")? = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of the byte length
    // passed beside it, which is how the kernel reads a `cpu_set_t`;
    // pid 0 names the calling thread; the call keeps no pointer.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// The first CPU of a `Cpus_allowed_list:` line such as `2-3,8`.
fn first_allowed_cpu(status: &str) -> Option<usize> {
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let digits: String = list
        .trim()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The host-noise canary: identical work every time, so any change
/// between two readings is the host and not the program.
///
/// Two loops, because the reference host is noisy in two ways. A fixed
/// arithmetic loop sees a throttled or stolen CPU. A fixed chain of
/// dependent loads over 32 MiB sees neighbours contending for the
/// shared cache and memory — the noise that, on the reference host,
/// slowed every unpaced workload by a quarter to a third for minutes at
/// a time while the arithmetic loop read the same.
pub struct Canary {
    table: Vec<u64>,
    /// Seconds of each arithmetic reading.
    pub alu_s: Vec<f64>,
    /// Nanoseconds per dependent load of each memory reading.
    pub load_ns: Vec<f64>,
}

impl Canary {
    pub fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..1usize << 22)
            .map(|_| {
                state = state.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17) ^ 0x9E37_79B9;
                state
            })
            .collect();
        Self {
            table,
            alu_s: Vec::new(),
            load_ns: Vec::new(),
        }
    }

    /// Takes `reps` readings of each loop.
    pub fn read(&mut self, reps: usize) {
        const LOADS: u64 = 200_000;
        for _ in 0..reps {
            let t0 = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..4_000_000u64 {
                x = (x ^ i).wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17);
            }
            self.alu_s.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let mut y = x | 1;
            for _ in 0..LOADS {
                y = self.table[y as usize & (self.table.len() - 1)] ^ y.rotate_left(23);
            }
            self.load_ns
                .push(t0.elapsed().as_nanos() as f64 / LOADS as f64);
            std::hint::black_box(y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "42 (a b) c) R 1 2 3 4 5 6 7 8 9 10 700 50 0 0 20 0 9 0 1 2";
        assert_eq!(parse_cpu_ticks(stat), Some(750));
        assert_eq!(parse_cpu_ticks("42 (x) R 1 2"), None);
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tledger\nVmHWM:\t  2048 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(status, "VmHWM:"), Some(2048));
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), Some(7));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches:"), None);
    }

    #[test]
    fn the_first_allowed_cpu_is_read_from_the_list() {
        assert_eq!(first_allowed_cpu("Cpus_allowed_list:\t0-1\n"), Some(0));
        assert_eq!(
            first_allowed_cpu("x: 1\nCpus_allowed_list:\t12,14-15\n"),
            Some(12)
        );
        assert_eq!(first_allowed_cpu("Name: ledger\n"), None);
    }

    #[test]
    fn the_allocator_counts_what_is_requested() {
        let before = Reading::now();
        let v = std::hint::black_box(vec![0u8; 1 << 20]);
        let cost = before.until(&Reading::now());
        drop(v);
        assert!(cost.alloc_bytes >= 1 << 20);
        assert!(cost.alloc_calls >= 1);
    }
}
