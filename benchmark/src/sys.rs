//! Process measurements read from the operating system: CPU time from
//! `getrusage`, peak resident memory from `/proc/self/status`.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` on Linux: two timevals, then fourteen longs this
/// benchmark does not read.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

fn timeval_seconds(sec: c_long, usec: c_long) -> f64 {
    sec as f64 + usec as f64 * 1e-6
}

/// User plus system CPU seconds of this process (every thread) so far.
pub fn process_cpu_seconds() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // the Linux ABI defines, and RUSAGE_SELF is a valid `who`.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) cannot fail with valid arguments");
    timeval_seconds(usage.ru_utime.tv_sec, usage.ru_utime.tv_usec)
        + timeval_seconds(usage.ru_stime.tv_sec, usage.ru_stime.tv_usec)
}

/// The kB figure of one `/proc/<pid>/status` line, e.g. `VmHWM`.
pub fn status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut words = rest.split_whitespace();
        let value = words.next()?.parse().ok()?;
        (words.next() == Some("kB")).then_some(value)
    })
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    status_kb(&status, "VmHWM").expect("VmHWM present in /proc/self/status") as f64 / 1024.0
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lines_parse_by_exact_key() {
        let status = "Name:\tbench\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1024 kB\n\
                      Threads:\t3\n";
        assert_eq!(status_kb(status, "VmHWM"), Some(51200));
        assert_eq!(status_kb(status, "VmRSS"), Some(1024));
        assert_eq!(status_kb(status, "Vm"), None, "a key prefix is not a key");
        assert_eq!(status_kb(status, "Threads"), None, "not a kB line");
        assert_eq!(status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn timevals_convert_to_seconds() {
        assert_eq!(timeval_seconds(0, 0), 0.0);
        assert!((timeval_seconds(3, 250_000) - 3.25).abs() < 1e-12);
        assert!((timeval_seconds(0, 999_999) - 0.999999).abs() < 1e-12);
    }

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = process_cpu_seconds();
        let mut x = 1u64;
        while process_cpu_seconds() - before < 0.02 {
            for _ in 0..100_000 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        }
        assert!(process_cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.5);
        assert!(nproc() >= 1);
    }
}
