//! Process and thread accounting from `/proc`, and the run's environment.

use std::fs;

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field(
        &fs::read_to_string("/proc/self/status").unwrap_or_default(),
        "VmHWM:",
    )
    .map(|kb| kb as f64 / 1024.0)
    .unwrap_or(0.0)
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

fn schedstat_runtime_ns(text: &str) -> u64 {
    text.split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has run, in ns. Unlike
/// `/proc/thread-self/schedstat`, which advances only at scheduler events,
/// this includes the slice the thread is running right now, so short
/// intervals measured by the running thread itself are exact.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call, and
    // `CLOCK_THREAD_CPUTIME_ID` is a valid clock id on Linux.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Process-wide counters summed over the live threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// CPU time of every live thread but the calling one, in ns (the
    /// caller measures itself exactly with [`thread_cpu_ns`]).
    pub others_cpu_ns: u64,
    /// Involuntary context switches of every live thread.
    pub ctx_invol: u64,
}

impl ProcSample {
    /// Reads `/proc/self/task/*/{schedstat,status}`. Threads that exit
    /// between two samples drop out of the sum; every thread a workload
    /// runs lives across its measured interval.
    pub fn now() -> ProcSample {
        let mut sample = ProcSample::default();
        // `/proc/thread-self` links to `<pid>/task/<tid>`.
        let me = fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|link| link.file_name().map(|tid| tid.to_owned()));
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return sample;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            if Some(task.file_name()) != me {
                if let Ok(text) = fs::read_to_string(dir.join("schedstat")) {
                    sample.others_cpu_ns += schedstat_runtime_ns(&text);
                }
            }
            if let Ok(text) = fs::read_to_string(dir.join("status")) {
                sample.ctx_invol += status_field(&text, "nonvoluntary_ctxt_switches:").unwrap_or(0);
            }
        }
        sample
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            others_cpu_ns: self.others_cpu_ns.saturating_sub(earlier.others_cpu_ns),
            ctx_invol: self.ctx_invol.saturating_sub(earlier.ctx_invol),
        }
    }
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The facts every result records next to its numbers, as a JSON object.
pub fn meta_json(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"git_rev\": \"{}\", \"nproc\": {}, \"kernel\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\"}}",
        git_rev(),
        nproc(),
        json_escape(&kernel),
        json_escape(env!("HB_PERFBENCH_RUSTC")),
        env!("HB_PERFBENCH_PROFILE"),
    )
}

/// The checkout's git revision, or `unknown` outside a git work tree.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Escapes `"` and `\` for embedding in a JSON string.
fn json_escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let before = ProcSample::now();
        let cpu_before = thread_cpu_ns();
        let other = std::thread::spawn(|| {
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
            // Still alive when the sample below is taken.
            std::thread::sleep(std::time::Duration::from_millis(50));
            x
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        let after = ProcSample::now();
        assert!(
            after.since(&before).others_cpu_ns > 0,
            "the spinning thread counts"
        );
        assert!(thread_cpu_ns() >= cpu_before);
        other.join().expect("spinning thread");
        assert_eq!(status_field("VmHWM:\t  1234 kB\n", "VmHWM:"), Some(1234));
    }
}
