//! Host readings: process CPU time, steal time, context switches and
//! peak memory from `/proc`, and the speed at which the host runs this
//! process right now. They explain run-to-run spread, and the speed
//! scales timed figures to a reference host; none of them decides
//! whether a run counts.

use std::fmt::Write as _;
use std::fs;

/// Kernel clock ticks per second (`USER_HZ`), the unit of the CPU and
/// steal counters in `/proc`; 100 on every mainstream Linux build.
pub const TICKS_PER_S: f64 = 100.0;

/// Counters read at one window boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reading {
    /// Process user + system time, ticks (`/proc/self/stat`), exited
    /// threads included.
    pub cpu_ticks: u64,
    /// Machine-wide steal time, ticks (`/proc/stat`).
    pub steal_ticks: u64,
    /// Nonvoluntary context switches summed over the live threads.
    pub nvcsw: u64,
}

/// Reads the counters now.
pub fn read() -> Reading {
    Reading {
        cpu_ticks: process_cpu_ticks(),
        steal_ticks: steal_ticks(),
        nvcsw: live_threads_nvcsw(),
    }
}

fn process_cpu_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may contain
    // spaces: state is field 3, utime 14 and stime 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3).and_then(|f| f.parse::<u64>().ok());
    field(14).unwrap_or(0) + field(15).unwrap_or(0)
}

fn steal_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches(" kB").parse().ok())
}

fn live_threads_nvcsw() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| status_field(&s, "nonvoluntary_ctxt_switches:"))
        .sum()
}

/// Nonvoluntary context switches of the calling thread so far. A
/// thread that exits inside a window reports this before it ends.
pub fn own_nvcsw() -> u64 {
    fs::read_to_string("/proc/thread-self/status")
        .ok()
        .and_then(|s| status_field(&s, "nonvoluntary_ctxt_switches:"))
        .unwrap_or(0)
}

/// Peak resident memory (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM:"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// CPU time of one [`SpeedProbe::run`] on a host of speed 1, ns. The
/// 2-vCPU KVM guest of a 2.1 GHz Xeon the benchmark was written on ran
/// it in about 25–50 µs, medians over 250 ms, as its neighbours' load
/// came and went.
pub const PROBE_REFERENCE_NS: f64 = 40_000.0;

/// Numbers the probe renders and parses.
const PROBE_NUMBERS: usize = 96;
/// Order of the probe's dense matrix.
const PROBE_ORDER: usize = 12;

/// A fixed piece of work whose thread CPU time tracks how fast the
/// host runs this process. On a shared host that speed moves by up to
/// half within seconds and between runs, with other tenants' load on
/// the same cores, and every CPU-bound figure moves with it.
///
/// The work is the kind the server does: rendering and parsing floats
/// (JSON and decks), a dense LU factorisation (Newton steps) and a
/// byte hash (cache keys). It is the benchmark's own code on its own
/// buffers, so no change to the program under test can change it, and
/// it allocates nothing while timed. CPU time, not wall time: time the
/// thread waits for a vCPU is not host speed.
pub struct SpeedProbe {
    text: String,
    numbers: [f64; PROBE_NUMBERS],
    matrix: [f64; PROBE_ORDER * PROBE_ORDER],
}

impl Default for SpeedProbe {
    fn default() -> Self {
        Self {
            text: String::with_capacity(PROBE_NUMBERS * 32),
            numbers: [0.0; PROBE_NUMBERS],
            matrix: [0.0; PROBE_ORDER * PROBE_ORDER],
        }
    }
}

impl SpeedProbe {
    /// Runs the work once and returns the CPU time it took, ns, or
    /// `None` if the thread's CPU clock cannot be read.
    pub fn run(&mut self) -> Option<u64> {
        let started = thread_cpu_ns()?;
        self.text.clear();
        let mut x = 0.123_456_789_f64;
        for k in 0..PROBE_NUMBERS {
            x = (x * 3.987_654_321 + 0.5 + k as f64).fract();
            // Writing to a String cannot fail.
            let _ = write!(self.text, "{x:e},");
        }
        for (slot, field) in self.numbers.iter_mut().zip(self.text.split(',')) {
            *slot = field.parse().unwrap_or(0.0);
        }
        let n = PROBE_ORDER;
        let m = &mut self.matrix;
        for (i, entry) in m.iter_mut().enumerate() {
            let diagonal = if i / n == i % n { 4.0 } else { 0.0 };
            *entry = self.numbers[i % PROBE_NUMBERS] + diagonal;
        }
        for k in 0..n {
            let pivot = (k..n)
                .max_by(|&a, &b| m[a * n + k].abs().total_cmp(&m[b * n + k].abs()))
                .unwrap_or(k);
            for c in 0..n {
                m.swap(k * n + c, pivot * n + c);
            }
            for r in k + 1..n {
                let f = m[r * n + k] / m[k * n + k];
                for c in k..n {
                    m[r * n + c] -= f * m[k * n + c];
                }
            }
        }
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for &b in self.text.as_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        std::hint::black_box((hash, m[n * n - 1]));
        Some(thread_cpu_ns()?.saturating_sub(started))
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// CPU time of the calling thread (`CLOCK_THREAD_CPUTIME_ID` of
/// Linux), ns.
fn thread_cpu_ns() -> Option<u64> {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a live, writable, 8-byte-aligned 16-byte
    // buffer. The call writes one `struct timespec` into it and nothing
    // else; that struct is 16 bytes on 64-bit Linux and smaller on
    // 32-bit Linux, so the write stays inside the buffer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    if rc != 0 {
        return None;
    }
    let sec = u64::try_from(time.sec).ok()?;
    let nsec = u64::try_from(time.nsec).ok()?;
    Some(sec * 1_000_000_000 + nsec)
}
