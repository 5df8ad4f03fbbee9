//! What the benchmark reads from the host — stolen CPU time, this
//! process's CPU clock and peak memory, allocation counts — and the two
//! things it asks of it: a single CPU to run on and a single allocator
//! arena.
//!
//! This is the one file of the benchmark that uses `unsafe`: a global
//! allocator has to, and the process CPU clock, the affinity mask and
//! `mallopt` are libc calls `std` does not expose. The crates under
//! test keep their own `forbid(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Cumulative jiffies from the aggregate `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTicks {
    /// Time the hypervisor ran someone else while this guest wanted
    /// the CPU (field 8).
    pub steal: u64,
    /// Sum of every field of the line.
    pub total: u64,
}

impl CpuTicks {
    /// Share of machine time stolen between `earlier` and `self`;
    /// zero when the clock did not advance.
    pub fn steal_fraction_since(self, earlier: CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Parses the aggregate `cpu` line out of `/proc/stat` content. Kernels
/// before 2.6.11 print fewer than eight fields; steal is then zero.
/// Guest time (fields 9 and 10) is already inside user and nice, so it
/// stays out of the total.
pub fn parse_proc_stat(content: &str) -> Option<CpuTicks> {
    let line = content.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 4 {
        return None;
    }
    Some(CpuTicks {
        steal: fields.get(7).copied().unwrap_or(0),
        total: fields.iter().take(8).sum(),
    })
}

/// Reads the machine's CPU ticks; zeros where `/proc/stat` is absent
/// (every round then counts as clean, as on bare metal).
pub fn cpu_ticks() -> CpuTicks {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_proc_stat(&s))
        .unwrap_or_default()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux. `/proc/self/stat` counts in
/// 10 ms ticks sampled at the timer interrupt, too coarse for a
/// one-second round of a process that is mostly asleep.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time of this process, every thread, in
/// nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) that outlives the call, and
    // the clock ids are constants the kernel defines.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "the CPU clocks exist on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the calling thread alone, in nanoseconds: what a piece
/// of work cost however often the thread was preempted during it.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// `cpu_set_t` as glibc lays it out: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The highest-numbered CPU of an affinity mask; CPU 0 takes most of a
/// guest's device interrupts, so the benchmark prefers any other.
pub fn highest_cpu(set: &CpuSet) -> Option<usize> {
    set.iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize)
}

/// Pins the calling thread, and so every thread it starts afterwards,
/// to one of the CPUs it may run on, and says which; `None` where the
/// kernel refuses, and the run then goes ahead unpinned.
///
/// A session crosses fourteen threads (client, probe threads, reactor
/// loops, blocking pools). Spread over the two vCPUs of a shared guest,
/// every hand-off between them is an inter-processor interrupt the
/// hypervisor has to deliver, to a vCPU it may have parked: CPU per
/// session doubled (1.3 ms against 0.62 ms on one CPU), and in the same
/// ten minutes ten unpinned runs read 333–852 sessions/s while ten
/// pinned ones, interleaved with them, read 861–1 141. On one CPU the
/// hand-offs are context switches, which cost the same whatever the
/// neighbours do.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut set: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `set` is a valid, writable 128-byte mask that outlives
    // both calls; pid 0 names the calling thread.
    unsafe {
        if sched_getaffinity(0, size, &mut set) != 0 {
            return None;
        }
        let cpu = highest_cpu(&set)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        (sched_setaffinity(0, size, &one) == 0).then_some(cpu)
    }
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX`.
#[cfg(target_env = "gnu")]
const M_ARENA_MAX: i32 = -8;

/// Keeps glibc's allocator to its main arena; `false` where it is not
/// glibc's or declines. Extra arenas exist to spare threads on
/// different CPUs each other's lock, which a process on one CPU has no
/// use for, and which arena a new thread is handed decides whether
/// memory freed by an earlier thread is found again: `fleet_mixed`'s
/// peak RSS read 35 MB or 41 MB from run to run with arenas, 32.2–32.7 MB
/// with one.
pub fn single_malloc_arena() -> bool {
    #[cfg(target_env = "gnu")]
    // SAFETY: `mallopt` takes two integers and touches only the
    // allocator's own settings.
    unsafe {
        mallopt(M_ARENA_MAX, 1) == 1
    }
    #[cfg(not(target_env = "gnu"))]
    false
}

/// Reads one `kB` field of `/proc/self/status` content.
pub fn parse_status_kb(content: &str, key: &str) -> Option<u64> {
    content
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Bytes the benchmark itself keeps resident for the whole run: its
/// sample logs and the reference walk's table.
static OWN_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts `bytes` of memory the benchmark has just made resident for
/// itself, to be left out of `peak_rss_mb`.
pub fn note_own_bytes(bytes: usize) {
    OWN_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

pub fn own_mb() -> f64 {
    OWN_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Sockets this process holds open, counted from `/proc/self/fd`.
pub fn open_sockets() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|dir| {
            dir.flatten()
                .filter_map(|e| std::fs::read_link(e.path()).ok())
                .filter(|t| t.to_string_lossy().starts_with("socket:"))
                .count()
        })
        .unwrap_or(0)
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with two counters in front. Counting is off
/// unless a traced run turns it on: a shared counter bounces between
/// the cores of every allocating thread, which the end-to-end runs
/// should not pay for.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics
// and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Turns allocation counting on or off for the whole process.
pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const CANNED: &str = "\
cpu  43699 12 22028 308303 4829 7 5291 70318 5 6
cpu0 21000 6 11000 154000 2400 3 2600 35000 2 3
intr 1234
";

    #[test]
    fn steal_parser_reads_field_eight_and_sums_the_first_eight() {
        let t = parse_proc_stat(CANNED).unwrap();
        assert_eq!(t.steal, 70318);
        assert_eq!(
            t.total,
            43699 + 12 + 22028 + 308303 + 4829 + 7 + 5291 + 70318
        );
        assert_eq!(parse_proc_stat("cpu0 1 2 3 4\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 x 4\n"), None);
        // An old kernel without the steal column.
        let old = parse_proc_stat("cpu  10 0 5 85\n").unwrap();
        assert_eq!((old.steal, old.total), (0, 100));
    }

    #[test]
    fn steal_fraction_is_a_share_of_elapsed_machine_time() {
        let a = CpuTicks {
            steal: 100,
            total: 1_000,
        };
        let b = CpuTicks {
            steal: 130,
            total: 1_200,
        };
        assert!((b.steal_fraction_since(a) - 0.15).abs() < 1e-12);
        assert_eq!(a.steal_fraction_since(a), 0.0);
    }

    #[test]
    fn highest_cpu_of_a_mask() {
        let mut set: CpuSet = [0; 16];
        assert_eq!(highest_cpu(&set), None);
        set[0] = 0b11;
        assert_eq!(highest_cpu(&set), Some(1));
        set[1] = 1 << 5;
        assert_eq!(highest_cpu(&set), Some(69));
    }

    #[test]
    fn status_field_parser() {
        let s = "Name:\tperf\nVmHWM:\t   51200 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_status_kb(s, "VmHWM"), Some(51200));
        assert_eq!(parse_status_kb(s, "VmRSS"), Some(4096));
        assert_eq!(parse_status_kb(s, "VmSwap"), None);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let before = process_cpu_ns();
        let thread_before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
        assert!(thread_cpu_ns() > thread_before);
    }
}
