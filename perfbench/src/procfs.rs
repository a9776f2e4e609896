//! Process CPU time and peak memory.
//!
//! CPU time comes from `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` where the
//! platform is known: it counts every thread, joined ones too, to the
//! nanosecond. `/proc/self/stat` counts the same in 10 ms ticks, which is
//! coarse enough for the best of a few two-second regions to read exactly
//! the same run after run; it is the fallback.

/// Kernel clock ticks per second as exposed to user space (`USER_HZ`).
/// Linux fixes it at 100 on every architecture this repository builds for;
/// reading it properly needs `sysconf`, which needs libc.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may itself hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value of a `Key:   <n> kB` line of `/proc/<pid>/status`, in KiB.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_clock_seconds() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` is the C library's, which std links; on
    // 64-bit Linux `struct timespec` is two 64-bit integers, as declared,
    // and `ts` is a live, writable one for the duration of the call.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (status == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_clock_seconds() -> Option<f64> {
    None
}

/// CPU seconds (user + system, all threads, live and joined) this process
/// has consumed so far.
pub fn cpu_seconds() -> Option<f64> {
    process_clock_seconds().or_else(|| {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        Some(parse_stat_ticks(&stat)? as f64 / TICKS_PER_SECOND)
    })
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_kb(&status, "VmHWM")? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (perf (rep) x) R 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                        317 45 0 0 20 0 3 0 123456 2345678 345 18446744073709551615";

    #[test]
    fn stat_ticks_survive_a_hostile_command_name() {
        assert_eq!(parse_stat_ticks(STAT), Some(317 + 45));
        assert_eq!(parse_stat_ticks("1 (x) R 1 2"), None);
        assert_eq!(parse_stat_ticks("no parens at all"), None);
    }

    #[test]
    fn status_key_lookup() {
        let status = "Name:\tperf\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nThreads:\t3\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_kb(status, "VmRSS"), None);
        assert_eq!(parse_status_kb(status, "Threads"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
        let ticks = parse_stat_ticks(&stat).expect("utime and stime") as f64 / TICKS_PER_SECOND;
        // Burn CPU on a thread that is joined before the second reading.
        let before = cpu_seconds().expect("a CPU clock");
        let spin = std::thread::spawn(|| {
            let t0 = std::time::Instant::now();
            let mut x = 0u64;
            while t0.elapsed().as_millis() < 30 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
        });
        spin.join().expect("spin thread");
        let after = cpu_seconds().expect("a CPU clock");
        assert!(after - before > 0.015, "a joined thread's time must count: {before} -> {after}");
        assert!((before - ticks).abs() < 0.5, "the two CPU clocks disagree: {before} vs {ticks}");
        assert!(peak_rss_mib().expect("/proc/self/status") > 0.1);
    }
}
