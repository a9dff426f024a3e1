//! Small measurement helpers shared by every workload: order statistics,
//! process memory, the output directory, and the host block.

use std::path::PathBuf;
use std::time::Instant;

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q` quantile of an already sorted sample, by linear interpolation
/// between closest ranks; 0 when empty.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Nanoseconds elapsed since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Where runs leave spool, spill, span and result files: `.bench_out/` in
/// the working directory (the checkout root), so a run writes nowhere else.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).expect("create .bench_out in the working directory");
    dir
}

/// A scratch directory under [`out_dir`] that is removed when dropped.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(name: &str) -> ScratchDir {
        let path = out_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite `f64` as a JSON number with every digit Rust keeps
/// (non-finite values, which JSON cannot carry, render as 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The host block every result records: cores, CPU model, kernel, the
/// compiler that built the benchmark, and the source revision when the
/// checkout is a git repository.
pub fn host_json() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"cores\": {cores}, \"cpu\": {}, \"kernel\": {}, \"rustc\": {}, \"git_rev\": {}}}",
        json_str(&cpu),
        json_str(&kernel),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&git_rev()),
    )
}

/// The checked-out commit, read from `.git` without running git; "unknown"
/// outside a repository (the benchmark may run from a plain export).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .map(|r| r.trim().to_string())
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(reference))
                            .and_then(|l| l.split_whitespace().next())
                            .map(str::to_string)
                    })
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// CPU time the calling thread has used so far, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
