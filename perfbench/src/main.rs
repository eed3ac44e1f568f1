//! The repository benchmark: four workloads against an in-process 3-node
//! ensemble over loopback TCP, every layer measured from outside the
//! crates through their public APIs.
//!
//! ```text
//! perfbench --workload <saturate|pingpong|durable-15k|failover>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of untraced runs;
//! `--trace 1` reports the per-layer metrics of one traced run. Every
//! run checks its outcome; a violated check prints the violations to
//! stderr and exits 1 instead of printing numbers. The last stdout line
//! is the result object; the line before it holds the host and
//! provenance block and the sample counts behind each figure.

mod app;
mod chain;
mod client;
mod cluster;
mod host;
mod json;
mod procstat;
mod stats;
mod storage;

use client::{Client, Cycle, Kills, Payloads, Window, SETTLE};
use cluster::{Ensemble, Spec, StorageMode};
use json::Obj;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use zab_metrics::{HistogramSnapshot, Snapshot};

/// Ensemble boots per untraced run; `setup_s` is their median.
const SETUP_BOOTS: usize = 7;
/// Open-loop rate of the failover workload.
const FAILOVER_RATE: f64 = 2_000.0;
/// Open-loop rate of the recovery probes after the other workloads'
/// windows: low enough that every workload's configuration sustains it
/// (`pingpong` admits one op at a time).
const PROBE_RATE: f64 = 500.0;
/// Kill/restart cycles of the failover workload.
const FAILOVER_CYCLES: usize = 5;
/// Kill/restart cycles probed after the window of every other workload.
const PROBE_CYCLES: usize = 3;
/// Unmeasured lead-in of every closed-loop window.
const WARMUP: Duration = Duration::from_millis(500);
/// Root of the benchmark's temporary data, relative to the working
/// directory.
const DATA_ROOT: &str = ".perfbench_tmp";

#[derive(Debug, Clone, Copy)]
enum Load {
    /// Closed loop with `depth` ops in flight.
    Closed { depth: usize },
    /// Open loop at `rate` ops/s.
    Open { rate: f64 },
}

struct Workload {
    name: &'static str,
    durable: bool,
    max_outstanding: Option<usize>,
    load: Load,
    /// Kill cycles inside the window (failover) rather than after it.
    failover: bool,
    /// Fresh ensembles the untraced window is split across. Two boots of
    /// one configuration differ by a persistent few percent (thread
    /// placement and allocator layout are fixed at boot), so a run
    /// averages several. Each part must still hold the workload's
    /// defining events: `durable-15k` keeps 10 s parts, so each holds one
    /// compaction per node, and `failover` keeps one ensemble for its
    /// whole kill schedule.
    parts: u64,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "saturate",
        durable: false,
        max_outstanding: Some(512),
        load: Load::Closed { depth: 512 },
        failover: false,
        parts: 8,
    },
    Workload {
        name: "pingpong",
        durable: false,
        max_outstanding: Some(1),
        load: Load::Closed { depth: 1 },
        failover: false,
        parts: 4,
    },
    Workload {
        name: "durable-15k",
        durable: true,
        max_outstanding: None,
        load: Load::Open { rate: 15_000.0 },
        failover: false,
        parts: 2,
    },
    Workload {
        name: "failover",
        durable: true,
        max_outstanding: None,
        load: Load::Open { rate: FAILOVER_RATE },
        failover: true,
        parts: 1,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: want 0 or 1")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args { workload, seed: num("--seed")?, seconds, trace })
}

static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();

/// A progress line on stderr, stamped with seconds since start.
fn progress(what: &str) {
    let t = START.get_or_init(std::time::Instant::now).elapsed().as_secs_f64();
    eprintln!("[perfbench {t:7.2}s] {what}");
}

/// splitmix64, for seed-derived choices.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Removes the run's temporary directory however the run ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty root behind either (fails harmlessly if another
        // run still uses it).
        let _ = std::fs::remove_dir(DATA_ROOT);
    }
}

/// Everything one run measured.
struct Run {
    window: Window,
    counted: u64,
    latencies_ms: Vec<f64>,
    cycles: Vec<Cycle>,
    attempted: u64,
    failed: u64,
    failed_pct: f64,
    shed: u64,
    rejected: u64,
    undelivered: u64,
    violations: Vec<String>,
    layers: Option<Layers>,
}

impl Run {
    /// Pools two untraced parts of one window.
    fn merge(mut self, o: Run) -> Run {
        self.window.elapsed += o.window.elapsed;
        self.window.cpu_s += o.window.cpu_s;
        self.window.rss_peak_mb = self.window.rss_peak_mb.max(o.window.rss_peak_mb);
        self.window.submit_wait += o.window.submit_wait;
        self.window.gen_late_ms.extend(o.window.gen_late_ms);
        self.counted += o.counted;
        self.latencies_ms.extend(o.latencies_ms);
        stats::sort(&mut self.latencies_ms);
        self.cycles.extend(o.cycles);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.failed_pct = if self.attempted == 0 {
            0.0
        } else {
            100.0 * self.failed as f64 / self.attempted as f64
        };
        self.shed += o.shed;
        self.rejected += o.rejected;
        self.undelivered += o.undelivered;
        self.violations.extend(o.violations);
        self
    }
}

/// Per-layer readings of a traced run.
struct Layers {
    cpu_by_role: BTreeMap<procstat::Role, f64>,
    leader_delta: Snapshot,
    log: storage::LogTotals,
    flush_us: Vec<f64>,
    compact_max_ms: f64,
    recover_max_ms: f64,
    apply_ns: u64,
    all_incarnations: Vec<Snapshot>,
    restarts: usize,
    chain: chain::Chain,
}

fn spec(w: &Workload, root: &Path, boot: usize, tracing: bool) -> Spec {
    Spec {
        storage: if w.durable {
            StorageMode::File(root.join(format!("boot{boot}")))
        } else {
            StorageMode::Mem
        },
        max_outstanding: w.max_outstanding,
        tracing,
    }
}

fn kills(w: &Workload, span: f64, seed: u64) -> (Kills, Kills) {
    let none = Kills { at: Vec::new() };
    let probes = Kills { at: vec![SETTLE; PROBE_CYCLES] };
    if !w.failover {
        return (none, probes);
    }
    // Kills spread over the window, the first after 8% of it, each
    // jittered by up to ±100 ms from the seed.
    let period = span * 0.85 / FAILOVER_CYCLES as f64;
    let at = (0..FAILOVER_CYCLES)
        .map(|i| {
            let jitter = (splitmix(seed ^ (i as u64 + 1)) % 201) as f64 / 1e3 - 0.1;
            Duration::from_secs_f64((span * 0.08 + period * i as f64 + jitter).max(0.0))
        })
        .collect();
    (Kills { at }, none)
}

/// Subtracts two histogram snapshots bucket by bucket.
fn hist_delta(end: &HistogramSnapshot, start: Option<&HistogramSnapshot>) -> HistogramSnapshot {
    let Some(start) = start else { return end.clone() };
    let before: BTreeMap<u64, u64> = start.buckets.iter().copied().collect();
    HistogramSnapshot {
        count: end.count.saturating_sub(start.count),
        sum: end.sum.saturating_sub(start.sum),
        max: end.max,
        buckets: end
            .buckets
            .iter()
            .map(|&(lo, n)| (lo, n.saturating_sub(before.get(&lo).copied().unwrap_or(0))))
            .filter(|&(_, n)| n > 0)
            .collect(),
    }
}

/// `end − start` for every counter and histogram.
fn snapshot_delta(end: &Snapshot, start: Option<&Snapshot>) -> Snapshot {
    let mut d = end.clone();
    if let Some(start) = start {
        for (k, v) in d.counters.iter_mut() {
            *v = v.saturating_sub(start.counter(k));
        }
        for (k, h) in d.histograms.iter_mut() {
            *h = hist_delta(h, start.histogram(k));
        }
    }
    d
}

/// One run: boot (already done), window, recovery probes, checks.
fn run(ens: &mut Ensemble, w: &Workload, seed: u64, span: Duration, probes: bool) -> Run {
    let (window_kills, probe_kills) = kills(w, span.as_secs_f64(), seed);
    let traced = ens.live().next().is_some_and(|(_, r)| r.trace_recorder().is_enabled());
    let mut client = Client::new(ens, Payloads::new(seed));

    let before = traced.then(|| {
        let leader = client.ens.leader();
        (
            procstat::tasks(),
            leader,
            leader.and_then(|l| client.ens.replica(l)).map(|r| r.metrics_snapshot()),
            client.ens.log_stats.totals(),
            client.ens.app_stats.apply_ns.load(std::sync::atomic::Ordering::Relaxed),
        )
    });
    progress("window");
    let window = match w.load {
        Load::Closed { depth } => client.closed_loop(depth, WARMUP, span),
        Load::Open { rate } => client.open_loop(rate, span, &window_kills, true),
    };
    let after = traced.then(|| {
        let leader = client.ens.leader();
        let events: Vec<_> = client.ens.live().flat_map(|(_, r)| r.trace_events()).collect();
        (
            procstat::tasks(),
            // The leader's window deltas subtract its start snapshot only
            // when no kill replaced it during the window.
            leader.filter(|_| client.cycles.is_empty()),
            leader.and_then(|l| client.ens.replica(l)).map(|r| r.metrics_snapshot()),
            client.ens.log_stats.totals(),
            client.ens.app_stats.apply_ns.load(std::sync::atomic::Ordering::Relaxed),
            (events, leader),
        )
    });
    if probes && !probe_kills.at.is_empty() {
        progress("recovery probes");
        client.open_loop(PROBE_RATE, Duration::ZERO, &probe_kills, false);
    }
    progress("final drain and checks");
    client.finish();
    progress("checked");

    let layers = match (before, after) {
        (
            Some((tasks0, leader0, snap0, log0, apply0)),
            Some((tasks1, unreplaced, snap1, log1, apply1, (events, leader1))),
        ) => {
            let same_leader = unreplaced.is_some() && leader0 == unreplaced;
            let leader_delta = snap1
                .as_ref()
                .map(|s1| snapshot_delta(s1, snap0.as_ref().filter(|_| same_leader)))
                .unwrap_or_default();
            Some(Layers {
                cpu_by_role: procstat::cpu_by_role(&tasks0, &tasks1),
                leader_delta,
                flush_us: client.ens.log_stats.flush_us_between(log0.flush_mark, log1.flush_mark),
                log: log1.since(&log0),
                compact_max_ms: client.ens.log_stats.compact_max_ns() as f64 / 1e6,
                recover_max_ms: client.ens.log_stats.recover_max_ns() as f64 / 1e6,
                apply_ns: apply1 - apply0,
                all_incarnations: client.ens.all_snapshots(),
                restarts: client.ens.retired.len(),
                chain: chain::build(&events, leader1.map_or(0, |l| l.0)),
            })
        }
        _ => None,
    };
    let l = &client.ledger;
    let mut latencies_ms = l.latencies_ms.clone();
    stats::sort(&mut latencies_ms);
    Run {
        window,
        counted: l.counted,
        latencies_ms,
        cycles: client.cycles.clone(),
        attempted: l.attempted,
        failed: l.failed(),
        failed_pct: l.failed_pct(),
        shed: l.shed,
        rejected: l.rejected,
        undelivered: l.undelivered,
        violations: l.violations.clone(),
        layers,
    }
}

/// A metric table: name → (value, unit), in insertion order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn render(&self) -> Obj {
        self.0.iter().fold(Obj::new(), |o, (name, v, unit)| {
            o.obj(name, Obj::new().num("value", *v).str("unit", unit))
        })
    }
}

fn per(x: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        x / ops as f64
    }
}

fn end_to_end(r: &Run, setups: &[f64]) -> Result<Metrics, String> {
    let secs = r.window.elapsed.as_secs_f64();
    let p = |q| {
        stats::percentile(&r.latencies_ms, q)
            .ok_or_else(|| format!("{} latency samples cannot support p{q}", r.latencies_ms.len()))
    };
    let mut m = Metrics::default();
    m.put("throughput_ops_s", r.counted as f64 / secs, "ops/s");
    m.put("commit_p50_ms", p(50.0)?, "ms");
    m.put("commit_p90_ms", p(90.0)?, "ms");
    m.put("cpu_us_per_op", per(r.window.cpu_s * 1e6, r.counted), "us");
    m.put("setup_s", stats::median(setups).ok_or("no boot")?, "s");
    Ok(m)
}

fn per_layer(r: &Run, untraced_cpu_us_per_op: f64, client_p50_ms: f64) -> Result<Metrics, String> {
    use procstat::Role;
    let l = r.layers.as_ref().ok_or("traced run recorded no layers")?;
    let ops = r.counted;
    let secs = r.window.elapsed.as_secs_f64();
    let cpu = |role| l.cpu_by_role.get(&role).copied().unwrap_or(0.0) * 1e6;
    let d = &l.leader_delta;
    let committed = d.counter("core.proposals_committed");
    let mut late = r.window.gen_late_ms.clone();
    stats::sort(&mut late);
    let mut flush = l.flush_us.clone();
    stats::sort(&mut flush);
    let hi = |v: &[f64]| {
        stats::percentile(v, 99.0)
            .or_else(|| {
                stats::highest_supported(v.len(), &[50.0, 90.0])
                    .and_then(|q| stats::percentile(v, q))
            })
            .unwrap_or(0.0)
    };
    let batch = d
        .histograms
        .iter()
        .filter(|(k, _)| k.starts_with("transport.batch_frames."))
        .fold((0u64, 0u64), |(s, c), (_, h)| (s + h.sum, c + h.count));
    let sum_all = |name: &str| l.all_incarnations.iter().map(|s| s.counter(name)).sum::<u64>();
    let elections = l
        .all_incarnations
        .iter()
        .filter_map(|s| s.histogram("node.election_duration_ms"))
        .fold((0u64, 0u64), |(s, c), h| (s + h.sum, c + h.count));

    let unavail: Vec<f64> = r.cycles.iter().map(|c| c.unavail_ms).collect();
    let catchup: Vec<f64> = r.cycles.iter().map(|c| c.catchup_ms).collect();

    let mut m = Metrics::default();
    m.put("client.failed_pct", r.failed_pct, "%");
    m.put(
        "client.commit_p99_ms",
        stats::percentile(&r.latencies_ms, 99.0).ok_or("too few samples for p99")?,
        "ms",
    );
    m.put(
        "recovery.unavail_ms",
        stats::median(&unavail).ok_or("no failover cycle completed")?,
        "ms",
    );
    m.put(
        "recovery.catchup_ms",
        stats::median(&catchup).ok_or("no failover cycle completed")?,
        "ms",
    );
    m.put("client.gen_late_p99_ms", hi(&late), "ms");
    m.put("process.rss_peak_mb", r.window.rss_peak_mb, "MiB");
    m.put("client.cpu_us_per_op", per(cpu(Role::Client), ops), "us");
    m.put("node.submit_wait_us_per_op", per(r.window.submit_wait.as_secs_f64() * 1e6, ops), "us");
    m.put("node.shed_per_kop", 1e3 * per(r.shed as f64, r.attempted), "count");
    m.put("node.rejected_per_kop", 1e3 * per(r.rejected as f64, r.attempted), "count");
    m.put("node.loop_cpu_us_per_op", per(cpu(Role::Loop), ops), "us");
    m.put("node.disk_cpu_us_per_op", per(cpu(Role::Disk), ops), "us");
    m.put("node.other_cpu_us_per_op", per(cpu(Role::Other), ops), "us");
    m.put("transport.wire_cpu_us_per_op", per(cpu(Role::Wire), ops), "us");
    m.put(
        "transport.leader_frames_out_per_op",
        per(d.counter_sum("transport.frames_out.") as f64, committed),
        "count",
    );
    m.put(
        "transport.leader_bytes_out_per_op",
        per(d.counter_sum("transport.bytes_out.") as f64, committed),
        "B",
    );
    m.put("transport.batch_frames_mean", per(batch.0 as f64, batch.1), "count");
    m.put("core.acks_per_op", per(d.counter("core.acks_received") as f64, committed), "count");
    m.put(
        "core.quorum_ack_p50_ms",
        d.histogram("core.quorum_ack_latency_ms").map_or(0.0, |h| h.quantile(0.5) as f64),
        "ms",
    );
    m.put("log.txns_per_append", per(l.log.txns_appended as f64, l.log.appends), "count");
    m.put("log.append_us_per_op", per(l.log.append_ns as f64 / 1e3, l.log.txns_appended), "us");
    m.put("log.txns_per_flush", per(l.log.txns_flushed as f64, l.log.flushes), "count");
    m.put("log.flush_p50_us", stats::median(&flush).unwrap_or(0.0), "us");
    m.put("log.flush_p99_us", hi(&flush), "us");
    m.put("log.compact_count", l.log.compacts as f64, "count");
    m.put("log.compact_max_ms", l.compact_max_ms, "ms");
    m.put("log.compact_ms_per_s", l.log.compact_ns as f64 / 1e6 / secs, "ms/s");
    m.put("log.recover_max_ms", l.recover_max_ms, "ms");
    m.put("election.duration_ms", per(elections.0 as f64, elections.1), "ms");
    m.put("election.role_transitions", sum_all("node.role_transitions") as f64, "count");
    m.put(
        "core.sync_bytes_per_rejoin",
        per(sum_all("core.sync_bytes_sent") as f64, l.restarts as u64),
        "B",
    );
    m.put("core.diff_syncs", sum_all("core.diff_syncs") as f64, "count");
    m.put("core.snap_syncs", sum_all("core.snap_syncs") as f64, "count");
    m.put("app.apply_us_per_op", per(l.apply_ns as f64 / 1e3, ops), "us");
    if l.chain.len() == 0 {
        return Err("stage chain is empty: no zxid carried every stage".to_string());
    }
    let medians = l.chain.delta_medians();
    for (i, med) in medians.iter().enumerate() {
        let name = format!("stage.{}.{}_p50_us", chain::STAGES[i], chain::STAGES[i + 1]);
        m.put(name, *med, "us");
    }
    let chain_p50_ms = stats::median(&l.chain.totals).unwrap_or(0.0) / 1e3;
    m.put("stage.chain_vs_p50_pct", 100.0 * chain_p50_ms / client_p50_ms, "%");
    m.put("stage.chain_zxids", l.chain.len() as f64, "count");
    let traced_cpu = per(r.window.cpu_s * 1e6, ops);
    m.put("trace.overhead_pct", 100.0 * (traced_cpu / untraced_cpu_us_per_op - 1.0), "%");
    Ok(m)
}

fn detail(r: &Run) -> Obj {
    Obj::new()
        .num("window_s", r.window.elapsed.as_secs_f64())
        .num("ops_committed_in_window", r.counted as f64)
        .num("latency_samples", r.latencies_ms.len() as f64)
        .num("attempted", r.attempted as f64)
        .num("failed", r.failed as f64)
        .num("shed", r.shed as f64)
        .num("rejected", r.rejected as f64)
        .num("cycles", r.cycles.len() as f64)
        .raw(
            "unavail_ms_per_cycle",
            format!(
                "[{}]",
                r.cycles.iter().map(|c| json::number(c.unavail_ms)).collect::<Vec<_>>().join(", ")
            ),
        )
        .raw(
            "catchup_ms_per_cycle",
            format!(
                "[{}]",
                r.cycles.iter().map(|c| json::number(c.catchup_ms)).collect::<Vec<_>>().join(", ")
            ),
        )
}

fn fail(violations: &[String], attempted: u64, failed: u64) -> ExitCode {
    for v in violations.iter().take(20) {
        eprintln!("check failed: {v}");
    }
    println!(
        "{}",
        Obj::new()
            .bool("correct", false)
            .num("attempted", attempted as f64)
            .num("failed", failed as f64)
            .obj("metrics", Obj::new())
            .render()
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    progress(&format!("{} seed {} trace {}", args.workload.name, args.seed, args.trace as u8));
    let w = args.workload;
    let root = PathBuf::from(DATA_ROOT).join(format!("{}-{}", w.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&root) {
        eprintln!("perfbench: cannot create {}: {e}", root.display());
        return ExitCode::from(2);
    }
    let _tmp = TempDir(root.clone());
    let data_fs =
        if w.durable { host::filesystem_of(&root) } else { "none (in memory)".to_string() };
    let storage = if w.durable { "FileStorage+fsync" } else { "MemStorage" };
    let prov = host::provenance(w.name, args.seed, storage, &data_fs);

    let outcome = if args.trace { traced(&args, &root) } else { untraced(&args, &root) };
    match outcome {
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
        Ok((r, _)) if !r.violations.is_empty() => fail(&r.violations, r.attempted, r.undelivered),
        Ok((r, metrics)) => {
            println!("{}", Obj::new().obj("provenance", prov).obj("detail", detail(&r)).render());
            println!(
                "{}",
                Obj::new()
                    .bool("correct", true)
                    .num("attempted", r.attempted as f64)
                    .num("failed", r.undelivered as f64)
                    .obj("metrics", metrics.render())
                    .render()
            );
            ExitCode::SUCCESS
        }
    }
}

/// End-to-end metrics: several boots for `setup_s`; the untraced window
/// runs on the last `parts` of them.
fn untraced(args: &Args, root: &Path) -> Result<(Run, Metrics), String> {
    let w = args.workload;
    let boots = SETUP_BOOTS.max(w.parts as usize);
    let part = Duration::from_secs_f64(args.seconds as f64 / w.parts as f64);
    let mut setups = Vec::new();
    let mut merged: Option<Run> = None;
    for boot in 0..boots {
        let (mut ens, setup) = Ensemble::boot(spec(w, root, boot, false))?;
        progress(&format!("boot {boot}: leader after {:.3} s", setup.as_secs_f64()));
        setups.push(setup.as_secs_f64());
        if boot + (w.parts as usize) < boots {
            continue;
        }
        let r = run(&mut ens, w, args.seed.wrapping_add(boot as u64), part, false);
        progress(&format!(
            "part on boot {boot}: {:.0} ops/s, {:.2} us cpu/op",
            r.counted as f64 / r.window.elapsed.as_secs_f64(),
            per(r.window.cpu_s * 1e6, r.counted)
        ));
        merged = Some(match merged {
            None => r,
            Some(m) => m.merge(r),
        });
    }
    let r = merged.ok_or("no window ran")?;
    let m = end_to_end(&r, &setups)?;
    Ok((r, m))
}

/// Per-layer metrics: an untraced window for the overhead baseline, then
/// one traced run of the whole workload on one ensemble, with recovery
/// probes after the window (the failover workload kills in it).
fn traced(args: &Args, root: &Path) -> Result<(Run, Metrics), String> {
    let w = args.workload;
    let span = Duration::from_secs(args.seconds);
    let base = {
        let (mut ens, _) = Ensemble::boot(spec(w, root, 0, false))?;
        run(&mut ens, w, args.seed, span, false)
    };
    if !base.violations.is_empty() {
        return Ok((base, Metrics::default()));
    }
    let base_cpu = per(base.window.cpu_s * 1e6, base.counted);
    let (mut ens, _) = Ensemble::boot(spec(w, root, 1, true))?;
    let r = run(&mut ens, w, args.seed, span, true);
    drop(ens);
    if !r.violations.is_empty() {
        return Ok((r, Metrics::default()));
    }
    let p50 = stats::percentile(&r.latencies_ms, 50.0).ok_or("too few latency samples")?;
    let m = per_layer(&r, base_cpu, p50)?;
    Ok((r, m))
}
