//! Process and per-thread accounting read from `/proc`, std only.
//!
//! Thread roles are identified from outside the crates: wire threads by
//! their `zab-wire-<id>` name, the disk and event-loop threads by the
//! first call they make into the benchmark's own storage decorator
//! (`flush`) and application (`apply`), the client by tagging itself.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`, fixed at
/// 100 on Linux regardless of the scheduler tick).
pub const TICKS_PER_SEC: f64 = 100.0;

/// What a thread does, as seen from outside the crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// The benchmark's own driving thread.
    Client,
    /// A replica's event loop (the thread that applies deliveries).
    Loop,
    /// A replica's storage thread (the thread that flushes).
    Disk,
    /// A transport wire thread (`zab-wire-<id>`).
    Wire,
    /// Everything else (ticker, joiners, helpers).
    Other,
}

static ROLES: Mutex<BTreeMap<u64, Role>> = Mutex::new(BTreeMap::new());

thread_local! {
    static TAGGED: Cell<bool> = const { Cell::new(false) };
}

/// The calling thread's kernel tid, from the `/proc/thread-self` link
/// (`<pid>/task/<tid>`); 0 if unreadable.
pub fn current_tid() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().and_then(|n| n.to_str()).and_then(|s| s.parse().ok()))
        .unwrap_or(0)
}

/// Records the calling thread's role once; later calls on the same
/// thread cost one thread-local read.
pub fn tag_current(role: Role) {
    TAGGED.with(|t| {
        if !t.get() {
            t.set(true);
            ROLES.lock().expect("role map lock poisoned").insert(current_tid(), role);
        }
    });
}

/// One `/proc/<pid>/task/<tid>/stat` line, reduced to what we use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskStat {
    /// Kernel thread id (first field).
    pub tid: u64,
    /// Thread name (`comm`, without the parentheses).
    pub comm: String,
    /// `utime + stime`, in clock ticks.
    pub ticks: u64,
}

/// Parses a `stat` line. The name sits in parentheses and may itself
/// contain spaces and parentheses, so the fields after it are located
/// from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<TaskStat> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let tid = line[..open].trim().parse().ok()?;
    let comm = line.get(open + 1..close)?.to_string();
    // After ") ": state is field 3; utime and stime are fields 14 and 15.
    let rest: Vec<&str> = line.get(close + 1..)?.split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some(TaskStat { tid, comm, ticks: utime + stime })
}

/// CPU ticks of the whole process, exited threads included.
pub fn process_ticks() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map_or(0, |t| t.ticks)
}

/// Every live thread of this process.
pub fn tasks() -> Vec<TaskStat> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else { return Vec::new() };
    dir.filter_map(|e| e.ok())
        .filter_map(|e| std::fs::read_to_string(e.path().join("stat")).ok())
        .filter_map(|s| parse_stat(&s))
        .collect()
}

/// Peak resident set size of the process so far, in MiB (`VmHWM` of
/// `/proc/self/status`). Each run is its own process, and everything
/// before its measured window is a few idle boots, so the peak at the
/// window's end is the window's peak — transients included, which
/// periodic sampling of `VmRSS` would miss.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The role of thread `t`: tagged roles first, then the wire-thread name.
pub fn role_of(t: &TaskStat, tagged: &BTreeMap<u64, Role>) -> Role {
    match tagged.get(&t.tid) {
        Some(&r) => r,
        None if t.comm.starts_with("zab-wire-") => Role::Wire,
        None => Role::Other,
    }
}

/// CPU seconds per role between two thread listings. Threads born in
/// between count from zero; threads that exited in between are missing
/// from `after` and their last interval is lost (the process total in
/// [`process_ticks`] still has it).
pub fn cpu_by_role(before: &[TaskStat], after: &[TaskStat]) -> BTreeMap<Role, f64> {
    let tagged = ROLES.lock().expect("role map lock poisoned").clone();
    let start: BTreeMap<u64, u64> = before.iter().map(|t| (t.tid, t.ticks)).collect();
    let mut out = BTreeMap::new();
    for t in after {
        let delta = t.ticks.saturating_sub(start.get(&t.tid).copied().unwrap_or(0));
        *out.entry(role_of(t, &tagged)).or_insert(0.0) += delta as f64 / TICKS_PER_SEC;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_stat_line() {
        let line = "1355 (cat) R 1350 1355 1350 0 -1 4194304 77 0 0 0 7 3 0 0 20 0 1 0 47551";
        let t = parse_stat(line).expect("parse");
        assert_eq!(t, TaskStat { tid: 1355, comm: "cat".into(), ticks: 10 });
    }

    #[test]
    fn parses_names_with_spaces_and_parens() {
        let line = "42 (zab-wire-3 (x) y) S 1 1 1 0 -1 0 0 0 0 0 120 30 0 0 20 0 9 0 1";
        let t = parse_stat(line).expect("parse");
        assert_eq!(t.tid, 42);
        assert_eq!(t.comm, "zab-wire-3 (x) y");
        assert_eq!(t.ticks, 150);
    }

    #[test]
    fn rejects_truncated_lines() {
        assert_eq!(parse_stat("12 (x) S 1 2"), None);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn reads_own_process() {
        let tid = current_tid();
        assert!(tid > 0);
        let all = tasks();
        assert!(all.iter().any(|t| t.tid == tid), "own thread listed");
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn roles_come_from_tags_then_names() {
        let tagged: BTreeMap<u64, Role> = [(7, Role::Disk)].into_iter().collect();
        let t = |tid, comm: &str| TaskStat { tid, comm: comm.into(), ticks: 0 };
        assert_eq!(role_of(&t(7, "zab-wire-1"), &tagged), Role::Disk);
        assert_eq!(role_of(&t(8, "zab-wire-1"), &tagged), Role::Wire);
        assert_eq!(role_of(&t(9, "perfbench"), &tagged), Role::Other);
    }
}
