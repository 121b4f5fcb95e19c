//! The environment block every output carries, and the checks on where
//! the benchmark writes.

use std::fmt::Write as _;
use std::path::Path;

/// Cores, CPU model, kernel threads, source identity, the write
/// directory's filesystem and the share of CPU time the hypervisor stole
/// during the run, as one JSON object.
pub fn block(kernel_threads: usize, out_dir: &Path, fstype: &str, steal_share: f64) -> String {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"cores\":{cores},\"cpu\":{},\"kernel_threads\":{kernel_threads},\"commit\":{},\
         \"source_digest\":\"{:016x}\",\"write_dir\":{},\"write_dir_fs\":{},\"steal_share\":{:.4}}}",
        json_str(&cpu),
        json_str(&git_commit().unwrap_or_else(|| "unknown".into())),
        source_digest(),
        json_str(&out_dir.display().to_string()),
        json_str(fstype),
        steal_share,
    );
    out
}

/// The commit `.git/HEAD` names, when the working directory is a git
/// checkout (a plain source export is not).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).ok().map(|s| s.trim().into()),
        None => Some(head.to_string()),
    }
}

/// FNV-1a over every file of the sources the benchmark builds (paths and
/// bytes, in sorted order): identifies the code measured when no commit
/// id is available.
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src", "Cargo.lock", "Cargo.toml"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut sum = mamdr_util::Checksum::new();
    for f in files {
        sum.update(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            sum.update(&bytes);
        }
    }
    sum.digest()
}

fn collect(p: &Path, out: &mut Vec<std::path::PathBuf>) {
    if p.is_dir() {
        if let Ok(rd) = std::fs::read_dir(p) {
            for e in rd.flatten() {
                collect(&e.path(), out);
            }
        }
    } else if p.is_file() {
        out.push(p.to_path_buf());
    }
}

/// The filesystem type `path` lives on, from the longest matching mount
/// point in `/proc/self/mountinfo`.
pub fn fstype(path: &Path) -> String {
    let canon = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else { continue };
        let (Some(mount), Some(fs)) = (fields.get(4), fields.get(sep + 1)) else { continue };
        if canon.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fs.to_string()));
        }
    }
    best.map(|(_, fs)| fs).unwrap_or_else(|| "unknown".into())
}

/// System-wide `(steal, total)` CPU ticks so far, from `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .map(|l| l.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The steal share of every fixed wall-clock window since `start`.
pub struct StealWindows {
    start: std::time::Instant,
    window: std::time::Duration,
    last: (u64, u64),
    /// Steal share of each window completed so far.
    pub shares: Vec<f64>,
}

impl StealWindows {
    pub fn new(start: std::time::Instant, window: std::time::Duration) -> Self {
        StealWindows { start, window, last: cpu_ticks(), shares: Vec::new() }
    }

    /// Closes every window that ended since the last call (windows closed
    /// together share one reading).
    pub fn tick(&mut self) {
        let done = (self.start.elapsed().as_secs_f64() / self.window.as_secs_f64()) as usize;
        if done > self.shares.len() {
            let now = cpu_ticks();
            let share = steal_share(self.last, now);
            self.shares.resize(done, share);
            self.last = now;
        }
    }

    /// Closes the window in progress with a reading now.
    pub fn close_partial(&mut self) {
        let now = cpu_ticks();
        self.shares.push(steal_share(self.last, now));
        self.last = now;
    }
}

/// Steal share of the CPU time between two [`cpu_ticks`] readings.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    (to.0 - from.0) as f64 / (to.1 - from.1).max(1) as f64
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
