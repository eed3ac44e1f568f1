//! The client: one thread that drives the leader through
//! `submit`/`try_submit`, drains every replica's event stream, accounts
//! for every op it attempts, kills and restarts leaders on a schedule,
//! and checks the outcome.

use crate::app::{fold, op_id, PAYLOAD};
use crate::cluster::Ensemble;
use crate::procstat;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use zab_core::ServerId;
use zab_node::{NodeEvent, SubmitError};

/// A node incarnation: its id and how many times it was restarted.
pub type Incarnation = (ServerId, u32);

/// Seed-derived op payloads: a 1 KiB template with the op id stamped
/// into its first 8 bytes.
pub struct Payloads {
    template: Vec<u8>,
}

impl Payloads {
    /// The template's bytes come from `seed` (splitmix64).
    pub fn new(seed: u64) -> Payloads {
        let mut x = seed;
        let mut template = Vec::with_capacity(PAYLOAD);
        while template.len() < PAYLOAD {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            template.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        template.truncate(PAYLOAD);
        Payloads { template }
    }

    /// The payload of op `op`.
    pub fn make(&self, op: u64) -> Vec<u8> {
        let mut p = self.template.clone();
        p[..8].copy_from_slice(&op.to_le_bytes());
        p
    }
}

struct InFlight {
    due: Instant,
    target: Incarnation,
    /// Counts as a latency sample (due inside a measured window).
    sampled: bool,
}

/// Outcome accounting for every op the client attempted, plus the
/// delivery-order and agreement checks.
#[derive(Default)]
pub struct Ledger {
    /// Ops attempted (every op that came due).
    pub attempted: u64,
    /// Shed at the admission gate (`SubmitError::Overloaded`).
    pub shed: u64,
    /// Due while no established leader existed.
    pub no_leader: u64,
    /// Admitted, then refused downstream (`NodeEvent::Rejected`).
    pub rejected: u64,
    /// Admitted to a leader that was then killed, and never delivered.
    pub lost: u64,
    /// Admitted to a leader that stayed up, and never delivered by the
    /// end-of-run drain: an error, never an expected outcome.
    pub undelivered: u64,
    /// Delivered.
    pub delivered: u64,
    in_flight: BTreeMap<u64, InFlight>,
    /// Zxid each op was first seen delivered at (0 = never).
    zxid_of: Vec<u64>,
    /// Last `(zxid, op)` each replica incarnation delivered.
    last: BTreeMap<Incarnation, (u64, u64)>,
    /// Latency samples (ms) of sampled ops.
    pub latencies_ms: Vec<f64>,
    /// Deliveries counted for throughput while this is set.
    pub counting: bool,
    /// Deliveries counted while `counting`.
    pub counted: u64,
    /// Incarnation whose first own delivery is awaited, and when it came.
    watch: Option<(Incarnation, Option<Instant>)>,
    /// Check violations, in the order found.
    pub violations: Vec<String>,
}

impl Ledger {
    /// Ops that failed: shed, refused for want of a leader, rejected,
    /// lost in a failover, or never delivered.
    pub fn failed(&self) -> u64 {
        self.shed + self.no_leader + self.rejected + self.lost + self.undelivered
    }

    /// `failed` as a percentage of `attempted`.
    pub fn failed_pct(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        100.0 * self.failed() as f64 / self.attempted as f64
    }

    /// Ops awaiting an outcome.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// True while an op admitted by a live incarnation awaits its
    /// delivery. Ops orphaned by a kill are not waited for: the new
    /// leader commits them during its sync, before it serves, or never.
    fn awaiting(&self, killed: &BTreeSet<Incarnation>) -> bool {
        self.in_flight.values().any(|f| !killed.contains(&f.target))
    }

    fn attempt(&mut self) -> u64 {
        let op = self.attempted;
        self.attempted += 1;
        self.zxid_of.push(0);
        op
    }

    fn admitted(&mut self, op: u64, due: Instant, target: Incarnation, sampled: bool) {
        self.in_flight.insert(op, InFlight { due, target, sampled });
    }

    /// Forgets a replica's delivery order when it restarts: the new
    /// incarnation replays its log from its snapshot.
    fn restarted(&mut self, inc: Incarnation) {
        self.last.retain(|&(id, _), _| id != inc.0);
    }

    /// Records a delivery on replica incarnation `inc`. An op resolves on
    /// its target's delivery, or on any replica's once `killed` holds
    /// its target.
    fn on_delivered(
        &mut self,
        inc: Incarnation,
        zxid: u64,
        op: u64,
        now: Instant,
        killed: &BTreeSet<Incarnation>,
    ) {
        if let Some(&(lz, lop)) = self.last.get(&inc) {
            if zxid <= lz || op <= lop {
                self.violations.push(format!(
                    "node {} delivered op {op} at zxid {zxid:#x} after op {lop} at {lz:#x}",
                    inc.0 .0
                ));
            }
        }
        self.last.insert(inc, (zxid, op));
        match self.zxid_of.get_mut(op as usize) {
            None => self.violations.push(format!("node {} delivered unknown op {op}", inc.0 .0)),
            Some(z @ 0) => *z = zxid,
            Some(&mut z) if z != zxid => self.violations.push(format!(
                "op {op} delivered at zxid {z:#x} and at {zxid:#x} (node {})",
                inc.0 .0
            )),
            Some(_) => {}
        }
        let resolves =
            self.in_flight.get(&op).is_some_and(|f| f.target == inc || killed.contains(&f.target));
        if resolves {
            let f = self.in_flight.remove(&op).expect("checked above");
            self.delivered += 1;
            if self.counting {
                self.counted += 1;
            }
            if f.sampled {
                self.latencies_ms.push(now.saturating_duration_since(f.due).as_secs_f64() * 1e3);
            }
            if let Some((w, hit @ None)) = &mut self.watch {
                if f.target == *w {
                    *hit = Some(now);
                }
            }
        }
    }

    fn on_rejected(&mut self, op: u64) {
        if self.in_flight.remove(&op).is_some() {
            self.rejected += 1;
        }
    }

    /// Settles ops still in flight after the final drain.
    fn settle(&mut self, killed: &BTreeSet<Incarnation>) {
        for (op, f) in std::mem::take(&mut self.in_flight) {
            if killed.contains(&f.target) {
                self.lost += 1;
            } else {
                self.undelivered += 1;
                self.violations.push(format!("op {op} admitted by a live leader, never delivered"));
            }
        }
    }

    /// Distinct ops delivered anywhere, and the digest of their
    /// `(zxid, op)` in zxid order — what every survivor must hold.
    pub fn expected_state(&self) -> (u64, u64, u64) {
        let mut seen: Vec<(u64, u64)> = self
            .zxid_of
            .iter()
            .enumerate()
            .filter(|(_, &z)| z != 0)
            .map(|(op, &z)| (z, op as u64))
            .collect();
        seen.sort_unstable();
        let digest = seen.iter().fold(0, |d, &(z, op)| fold(d, z, op));
        (seen.len() as u64, digest, seen.last().map_or(0, |&(z, _)| z))
    }
}

/// One kill/restart cycle.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    /// Leader kill → first op committed by the new leader, ms.
    pub unavail_ms: f64,
    /// Restart → restarted node's applied zxid reaches the leader's, ms.
    pub catchup_ms: f64,
}

/// Kills during an open-loop phase.
#[derive(Debug, Clone)]
pub struct Kills {
    /// Earliest kill instants, as offsets from the phase start; a kill
    /// never starts sooner than [`SETTLE`] after the previous cycle
    /// completes.
    pub at: Vec<Duration>,
}

/// Quiet time after a kill/restart cycle completes (and before the
/// first recovery probe).
pub const SETTLE: Duration = Duration::from_millis(300);

enum Failover {
    Idle,
    Down { victim: ServerId, kill_at: Instant },
    Restarting { victim: ServerId, unavail: Duration, restart_at: Instant },
    CatchingUp { victim: ServerId, unavail: Duration, restart_at: Instant },
}

/// What a phase measured, besides the ledger.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Measured span.
    pub elapsed: Duration,
    /// Process CPU over the span, seconds.
    pub cpu_s: f64,
    /// Peak RSS of the process up to the span's end, MiB.
    pub rss_peak_mb: f64,
    /// Wall time spent inside `submit`/`try_submit`.
    pub submit_wait: Duration,
    /// Due → submit-call lateness of each op, ms.
    pub gen_late_ms: Vec<f64>,
}

/// Longest a phase may overrun its schedule before the run fails.
const PHASE_DEADLINE: Duration = Duration::from_secs(90);
/// How long the end-of-run drain and convergence check may take.
const DRAIN_DEADLINE: Duration = Duration::from_secs(20);

/// The client thread's state.
pub struct Client<'a> {
    /// The ensemble under test.
    pub ens: &'a mut Ensemble,
    /// Op accounting.
    pub ledger: Ledger,
    payloads: Payloads,
    incarnation: BTreeMap<ServerId, u32>,
    killed: BTreeSet<Incarnation>,
    leader: Option<ServerId>,
    leader_checked: Instant,
    /// Completed kill/restart cycles.
    pub cycles: Vec<Cycle>,
}

impl<'a> Client<'a> {
    /// A client for `ens`.
    pub fn new(ens: &'a mut Ensemble, payloads: Payloads) -> Client<'a> {
        procstat::tag_current(procstat::Role::Client);
        let leader = ens.leader();
        Client {
            ens,
            ledger: Ledger::default(),
            payloads,
            incarnation: BTreeMap::new(),
            killed: BTreeSet::new(),
            leader,
            leader_checked: Instant::now(),
            cycles: Vec::new(),
        }
    }

    fn inc(&self, id: ServerId) -> Incarnation {
        (id, self.incarnation.get(&id).copied().unwrap_or(0))
    }

    /// The established leader, re-checked at most every 10 ms while
    /// known and on every call while unknown.
    fn current_leader(&mut self, now: Instant) -> Option<ServerId> {
        if self.leader.is_none()
            || now.duration_since(self.leader_checked) >= Duration::from_millis(10)
        {
            self.leader = self.ens.leader();
            self.leader_checked = now;
        }
        self.leader
    }

    fn handle(&mut self, id: ServerId, ev: NodeEvent) {
        match ev {
            NodeEvent::Delivered(txn) => {
                let inc = self.inc(id);
                match op_id(&txn.data) {
                    Some(op) => {
                        self.ledger.on_delivered(inc, txn.zxid.0, op, Instant::now(), &self.killed)
                    }
                    None => {
                        self.ledger.violations.push(format!("short payload at {:#x}", txn.zxid.0))
                    }
                }
            }
            NodeEvent::Rejected { request, .. } => {
                if let Some(op) = op_id(&request) {
                    self.ledger.on_rejected(op);
                }
            }
            NodeEvent::StorageFault { context, error } => self
                .ledger
                .violations
                .push(format!("node {} storage fault in {context}: {error}", id.0)),
            _ => {}
        }
    }

    /// Waits up to `wait` for the leader's next event, then drains every
    /// replica's stream.
    fn pump(&mut self, wait: Duration) {
        let first = match self.leader.and_then(|l| self.ens.replica(l).map(|r| (l, r))) {
            Some((l, r)) => r.events().recv_timeout(wait).ok().map(|ev| (l, ev)),
            None => {
                std::thread::sleep(wait.min(Duration::from_micros(200)));
                None
            }
        };
        if let Some((l, ev)) = first {
            self.handle(l, ev);
        }
        let ids: Vec<ServerId> = self.ens.live().map(|(id, _)| id).collect();
        for id in ids {
            while let Some(ev) = self.ens.replica(id).and_then(|r| r.events().try_recv().ok()) {
                self.handle(id, ev);
            }
        }
    }

    /// Closed loop: keeps `depth` ops in flight on the leader through the
    /// blocking `submit`, first for `warmup` (unmeasured: the adaptive
    /// admission window and the allocator settle), then for the measured
    /// `span`. Ops submitted in the span are latency samples; the tail
    /// drains afterwards.
    pub fn closed_loop(&mut self, depth: usize, warmup: Duration, span: Duration) -> Window {
        let mut w = Window::default();
        let Some(leader) = self.current_leader(Instant::now()) else {
            self.ledger.violations.push("no leader for the closed loop".to_string());
            return w;
        };
        let target = self.inc(leader);
        let t0 = Instant::now() + warmup;
        let end = t0 + span;
        let mut cpu0 = None;
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            if cpu0.is_none() && now >= t0 {
                cpu0 = Some(procstat::process_ticks());
                self.ledger.counting = true;
            }
            let measuring = cpu0.is_some();
            // An op is due the moment its slot frees, which is when the
            // delivery that freed it was handled.
            while self.ledger.in_flight() < depth {
                let due = Instant::now();
                let Some(r) = self.ens.replica(leader) else { break };
                let op = self.ledger.attempt();
                let payload = self.payloads.make(op);
                let call = Instant::now();
                r.submit(payload);
                if measuring {
                    w.submit_wait += call.elapsed();
                    w.gen_late_ms.push(call.saturating_duration_since(due).as_secs_f64() * 1e3);
                }
                self.ledger.admitted(op, due, target, measuring);
            }
            self.pump(Duration::from_millis(1).min(end.saturating_duration_since(now)));
        }
        self.ledger.counting = false;
        w.elapsed = end.saturating_duration_since(t0);
        let ticks = procstat::process_ticks().saturating_sub(cpu0.unwrap_or(0));
        w.cpu_s = ticks as f64 / procstat::TICKS_PER_SEC;
        w.rss_peak_mb = procstat::peak_rss_mb();
        self.drain_in_flight();
        w
    }

    /// Open loop at `rate` ops/s for at least `span` (and until every
    /// kill cycle completes), timing each op from its due time.
    /// `sampled` marks the phase as a measured window.
    pub fn open_loop(&mut self, rate: f64, span: Duration, kills: &Kills, sampled: bool) -> Window {
        let mut w = Window::default();
        let interval = Duration::from_secs_f64(1.0 / rate);
        let cpu0 = procstat::process_ticks();
        let t0 = Instant::now();
        let mut next_due = t0;
        let mut next_kill = kills.at.first().map(|&d| t0 + d);
        let mut pending_kills = kills.at.len();
        let mut state = Failover::Idle;
        let mut next_poll = t0;
        self.ledger.counting = sampled;
        loop {
            let now = Instant::now();
            let done = now >= t0 + span && pending_kills == 0 && matches!(state, Failover::Idle);
            if done {
                break;
            }
            if now >= t0 + span + PHASE_DEADLINE {
                self.ledger.violations.push("failover cycle did not complete".to_string());
                break;
            }
            // Submit everything due by now.
            while next_due <= now {
                let op = self.ledger.attempt();
                let due = next_due;
                next_due += interval;
                let Some(l) = self.current_leader(now) else {
                    self.ledger.no_leader += 1;
                    continue;
                };
                let Some(r) = self.ens.replica(l) else {
                    self.ledger.no_leader += 1;
                    continue;
                };
                let payload = self.payloads.make(op);
                let call = Instant::now();
                let res = r.try_submit(payload);
                w.submit_wait += call.elapsed();
                if sampled {
                    w.gen_late_ms.push(call.saturating_duration_since(due).as_secs_f64() * 1e3);
                }
                match res {
                    Ok(()) => {
                        let target = self.inc(l);
                        self.ledger.admitted(op, due, target, sampled);
                    }
                    Err(SubmitError::Overloaded(_)) => self.ledger.shed += 1,
                    Err(SubmitError::Closed(_)) => self.ledger.no_leader += 1,
                }
            }
            if now >= next_poll {
                next_poll = now + Duration::from_millis(1);
                self.step_failover(&mut state, &mut next_kill, &mut pending_kills, kills, t0, now);
            }
            let wait =
                next_due.saturating_duration_since(Instant::now()).min(Duration::from_millis(1));
            self.pump(wait);
        }
        self.ledger.counting = false;
        w.elapsed = t0.elapsed();
        w.cpu_s = procstat::process_ticks().saturating_sub(cpu0) as f64 / procstat::TICKS_PER_SEC;
        w.rss_peak_mb = procstat::peak_rss_mb();
        self.drain_in_flight();
        w
    }

    fn step_failover(
        &mut self,
        state: &mut Failover,
        next_kill: &mut Option<Instant>,
        pending_kills: &mut usize,
        kills: &Kills,
        t0: Instant,
        now: Instant,
    ) {
        match *state {
            Failover::Idle => {
                let due = next_kill.is_some_and(|k| now >= k);
                if let (true, Some(victim)) = (due, self.leader) {
                    self.ens.kill(victim);
                    self.killed.insert(self.inc(victim));
                    self.leader = None;
                    self.ledger.watch = None;
                    *state = Failover::Down { victim, kill_at: now };
                }
            }
            Failover::Down { victim, kill_at } => {
                let Some(l) = self.current_leader(now) else { return };
                match self.ledger.watch {
                    Some((w, Some(hit))) if w.0 == l => {
                        self.ens.begin_restart(victim);
                        let unavail = hit.saturating_duration_since(kill_at);
                        *state = Failover::Restarting { victim, unavail, restart_at: now };
                    }
                    Some((w, _)) if w.0 == l => {}
                    _ => self.ledger.watch = Some((self.inc(l), None)),
                }
            }
            Failover::Restarting { victim, unavail, restart_at } => match self.ens.poll_restart() {
                None => {}
                Some(Ok(id)) => {
                    *self.incarnation.entry(id).or_insert(0) += 1;
                    self.ledger.restarted(self.inc(id));
                    *state = Failover::CatchingUp { victim, unavail, restart_at };
                }
                Some(Err(e)) => {
                    self.ledger
                        .violations
                        .push(format!("restart of node {} failed: {e}", victim.0));
                    *pending_kills = 0;
                    *state = Failover::Idle;
                }
            },
            Failover::CatchingUp { victim, unavail, restart_at } => {
                let Some(l) = self.leader else { return };
                let (Some(lead), Some(back)) = (self.ens.state(l), self.ens.state(victim)) else {
                    return;
                };
                if back.applied >= lead.applied {
                    self.cycles.push(Cycle {
                        unavail_ms: unavail.as_secs_f64() * 1e3,
                        catchup_ms: now.saturating_duration_since(restart_at).as_secs_f64() * 1e3,
                    });
                    *pending_kills -= 1;
                    let i = kills.at.len() - *pending_kills;
                    *next_kill = kills.at.get(i).map(|&d| (t0 + d).max(now + SETTLE));
                    *state = Failover::Idle;
                }
            }
        }
    }

    /// Waits for every in-flight op to resolve (bounded), then settles
    /// the rest as lost or undelivered.
    fn drain_in_flight(&mut self) {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while self.ledger.awaiting(&self.killed) && Instant::now() < deadline {
            self.leader = self.ens.leader();
            self.pump(Duration::from_millis(5));
        }
    }

    /// End of run: settles open ops, then waits until every live replica
    /// holds the same state as every op delivered anywhere (no op that any
    /// leader delivered is missing from the survivors' state).
    pub fn finish(&mut self) {
        self.drain_in_flight();
        self.ledger.settle(&self.killed);
        let deadline = Instant::now() + DRAIN_DEADLINE;
        loop {
            self.pump(Duration::from_millis(2));
            let states: Vec<_> =
                self.ens.live().map(|(id, r)| (id, r.with_app(|a| a.state()))).collect();
            // The expected state costs a sort over every op: compute it
            // only once the replicas agree among themselves.
            let agree = states.windows(2).all(|p| p[0].1 == p[1].1);
            let expected = agree.then(|| self.ledger.expected_state());
            let mismatched: Vec<String> = states
                .iter()
                .filter(|(_, s)| expected != Some((s.count, s.digest, s.applied)))
                .map(|(id, s)| {
                    format!(
                        "node {} holds {} ops to {:#x} digest {:#x}; delivered anywhere: {:?}",
                        id.0, s.count, s.applied, s.digest, expected
                    )
                })
                .collect();
            if mismatched.is_empty() {
                return;
            }
            if Instant::now() >= deadline {
                self.ledger.violations.extend(mismatched);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inc(id: u64) -> Incarnation {
        (ServerId(id), 0)
    }

    #[test]
    fn failed_ops_count_against_attempted() {
        let mut l = Ledger::default();
        let now = Instant::now();
        let none = BTreeSet::new();
        for _ in 0..10 {
            l.attempt();
        }
        // ops 0..4 admitted to node 1; 4 shed; 5 no leader; 6 admitted to
        // node 2, which is then killed; 7..9 never submitted at all.
        for op in 0..4 {
            l.admitted(op, now, inc(1), true);
        }
        l.shed += 1;
        l.no_leader += 1;
        l.admitted(6, now, inc(2), true);
        l.on_delivered(inc(1), 10, 0, now, &none);
        l.on_delivered(inc(1), 11, 1, now, &none);
        l.on_rejected(2);
        l.on_rejected(2); // a second rejection of one op counts once
        let killed: BTreeSet<Incarnation> = [inc(2)].into_iter().collect();
        l.settle(&killed);
        assert_eq!(l.delivered, 2);
        assert_eq!((l.rejected, l.lost, l.undelivered), (1, 1, 1));
        assert_eq!(l.failed(), 5, "shed + no leader + rejected + lost + undelivered");
        assert_eq!(l.failed_pct(), 50.0);
        assert_eq!(l.latencies_ms.len(), 2, "failed ops never become latency samples");
        assert_eq!(l.violations.len(), 1, "op 3 vanished on a live leader");
        assert_eq!(l.expected_state().0, 2);
    }

    #[test]
    fn out_of_order_duplicate_and_disagreeing_deliveries_are_violations() {
        let mut l = Ledger::default();
        let now = Instant::now();
        let none = BTreeSet::new();
        for _ in 0..4 {
            l.attempt();
        }
        l.on_delivered(inc(1), 10, 0, now, &none);
        l.on_delivered(inc(1), 11, 1, now, &none);
        assert!(l.violations.is_empty());
        // A duplicate op breaks the order and lands at a second zxid.
        l.on_delivered(inc(1), 12, 1, now, &none);
        assert_eq!(l.violations.len(), 2);
        l.on_delivered(inc(2), 10, 0, now, &none); // same op, same zxid: fine
        assert_eq!(l.violations.len(), 2);
        l.on_delivered(inc(2), 13, 2, now, &none);
        l.on_delivered(inc(2), 12, 3, now, &none); // zxid goes backwards
        assert_eq!(l.violations.len(), 3);
        // A restarted incarnation may replay from its snapshot.
        l.restarted((ServerId(1), 1));
        l.on_delivered((ServerId(1), 1), 10, 0, now, &none);
        assert_eq!(l.violations.len(), 3);
    }

    #[test]
    fn orphaned_ops_resolve_on_any_replica() {
        let mut l = Ledger::default();
        let now = Instant::now();
        l.attempt();
        l.admitted(0, now, inc(1), false);
        let killed: BTreeSet<Incarnation> = [inc(1)].into_iter().collect();
        l.on_delivered(inc(2), 5, 0, now, &killed);
        assert_eq!(l.delivered, 1);
        assert!(l.latencies_ms.is_empty(), "unsampled op");
    }

    #[test]
    fn payloads_follow_the_seed() {
        let a = Payloads::new(1);
        let b = Payloads::new(2);
        assert_eq!(a.make(7).len(), PAYLOAD);
        assert_eq!(op_id(&a.make(7)), Some(7));
        assert_eq!(a.make(7), Payloads::new(1).make(7));
        assert_ne!(a.make(7), b.make(7));
    }
}
