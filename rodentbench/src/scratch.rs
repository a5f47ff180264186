//! Scratch-directory hygiene and the process-level readings the runner takes
//! from the operating system.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Root of everything the benchmark writes, relative to the directory it is
/// run from (already ignored by the repository's `.gitignore`).
pub const SCRATCH_ROOT: &str = "target/rodentbench";

/// Free space below which the runner refuses to start.
pub const MIN_FREE_BYTES: u64 = 2 << 30;

/// A per-process scratch directory under [`SCRATCH_ROOT`], removed when the
/// guard drops — on success, on a failed check, and while a panic unwinds.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `target/rodentbench/<workload>-<pid>/` (emptying a leftover of
    /// the same name).
    pub fn create(workload: &str) -> std::io::Result<Scratch> {
        let dir = Path::new(SCRATCH_ROOT).join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// A fresh, empty subdirectory `name` (any previous one is removed).
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.dir.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a failure here must not mask the run's own outcome.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Bytes available to this user on the filesystem holding `dir`, via
/// `df -Pk` (std has no `statvfs`). `None` when `df` cannot be run or parsed.
pub fn free_bytes(dir: &Path) -> Option<u64> {
    let out = Command::new("df").arg("-Pk").arg(dir).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let available_kib: u64 = text
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(available_kib * 1024)
}

fn proc_status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_kib("VmHWM:").map(|kib| kib * 1024)
}

/// Current resident set size of this process (`VmRSS`), in bytes.
pub fn rss_bytes() -> Option<u64> {
    proc_status_kib("VmRSS:").map(|kib| kib * 1024)
}
