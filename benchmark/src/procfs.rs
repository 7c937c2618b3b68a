//! Process accounting from `/proc/self/{stat,status}`: CPU seconds,
//! peak resident set and a peak-thread sampler. Plain text parsing — no
//! libc, no `unsafe`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `sysconf(_SC_CLK_TCK)` needs libc; Linux has
/// reported 100 on every architecture since 2.6, so it is a constant.
const CLK_TCK: f64 = 100.0;

/// CPU seconds `(user, system)` from one `/proc/<pid>/stat` line. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / CLK_TCK, stime / CLK_TCK))
}

/// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`) in MiB.
pub fn parse_status_mib(status: &str, key: &str) -> Option<f64> {
    let kb: f64 = status_field(status, key)?.strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// The `Threads:` field of `/proc/<pid>/status`.
pub fn parse_status_threads(status: &str) -> Option<u64> {
    status_field(status, "Threads")?.parse().ok()
}

fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status.lines().find_map(|line| line.strip_prefix(key)?.strip_prefix(':')).map(str::trim)
}

/// This process's CPU seconds `(user, system)` so far.
pub fn cpu_seconds() -> (f64, f64) {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .unwrap_or((0.0, 0.0))
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_mib(&s, "VmHWM"))
        .unwrap_or(0.0)
}

/// Samples `/proc/self/status` at 20 Hz on a background thread and keeps
/// the largest thread count seen (the sampler thread itself included).
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: JoinHandle<()>,
}

impl ThreadSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(0));
        let (stop_flag, peak_cell) = (stop.clone(), peak.clone());
        let handle = std::thread::spawn(move || {
            // Relaxed: both cells are statistics that publish no other data.
            while !stop_flag.load(Ordering::Relaxed) {
                if let Some(threads) = std::fs::read_to_string("/proc/self/status")
                    .ok()
                    .and_then(|s| parse_status_threads(&s))
                {
                    peak_cell.fetch_max(threads, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        ThreadSampler { stop, peak, handle }
    }

    /// Stops the sampler and returns the peak thread count.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("thread sampler never panics");
        self.peak.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let line =
            "4242 (a b) c)) S 1 4242 4242 0 -1 4194304 120 0 0 0 250 75 0 0 20 0 9 0 100 1 2";
        assert_eq!(parse_stat_cpu(line), Some((2.5, 0.75)));
        assert_eq!(parse_stat_cpu("no parenthesis at all"), None);
        assert_eq!(parse_stat_cpu("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tmvbc\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nThreads:\t321\n";
        assert_eq!(parse_status_mib(status, "VmHWM"), Some(20.0));
        assert_eq!(parse_status_threads(status), Some(321));
        assert_eq!(parse_status_mib(status, "VmRSS"), None);
        assert_eq!(parse_status_mib("VmHWM:\t12 MB\n", "VmHWM"), None);
    }

    #[test]
    fn live_process_reads_are_sane() {
        assert!(peak_rss_mib() > 0.0);
        let sampler = ThreadSampler::start();
        std::thread::sleep(Duration::from_millis(120));
        assert!(sampler.finish() >= 2, "main thread plus the sampler");
    }
}
