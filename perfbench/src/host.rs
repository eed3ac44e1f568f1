//! The host and provenance block printed with every result.

use crate::json::Obj;
use std::path::Path;
use std::process::Command;

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mounts`).
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else { return "unknown".to_string() };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount).then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Host facts, build provenance and the run's own parameters.
pub fn provenance(workload: &str, seed: u64, storage: &str, data_fs: &str) -> Obj {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let git = command_line("git", &["rev-parse", "HEAD"]);
    Obj::new()
        .num("nproc", nproc as f64)
        .str(
            "clocksource",
            &read_trimmed("/sys/devices/system/clocksource/clocksource0/current_clocksource"),
        )
        .str("kernel", &read_trimmed("/proc/sys/kernel/osrelease"))
        .str("rustc", &command_line("rustc", &["--version"]))
        .str("git_rev", if git == "unknown" { "unknown (not a git checkout)" } else { &git })
        .str("workload", workload)
        .num("seed", seed as f64)
        .str("storage", storage)
        .str("data_dir_fs", data_fs)
}
