//! The cross-node stage chain of committed zxids, from the flight
//! recorder, stitched onto the leader's clock with
//! [`zab_trace::align::stitch`].
//!
//! For each zxid the chain is, in this fixed order:
//!
//! ```text
//! leader:   admit → submit → propose-enqueue → wire-out
//! follower: wire-in → log-append → log-fsync
//! leader:   ack-rx → quorum → commit-out → deliver
//! ```
//!
//! The follower is the one whose ACK reached the leader first — with
//! three nodes, the ack that formed the quorum. Storage stages are the
//! *end* of the append/fsync span covering the zxid; ack-rx and
//! commit-out are cumulative, so each is the earliest event covering the
//! zxid (`zxid' ≥ zxid`). A zxid enters the chain only when every stage
//! is present (the rings keep the newest events, so old zxids drop out).

use crate::stats;
use std::collections::BTreeMap;
use zab_trace::{align::stitch, Stage, TraceEvent};

/// Stage names in chain order.
pub const STAGES: [&str; 11] = [
    "admit",
    "submit",
    "propose-enqueue",
    "wire-out",
    "wire-in",
    "log-append",
    "log-fsync",
    "ack-rx",
    "quorum",
    "commit-out",
    "deliver",
];

/// Per-zxid stage instants, aligned to the leader's clock (µs).
type Instants = [f64; 11];

/// Stage deltas and totals over every complete zxid.
#[derive(Debug, Clone, Default)]
pub struct Chain {
    /// `deltas[i]` holds, per zxid, `STAGES[i+1] − STAGES[i]` in µs.
    pub deltas: Vec<Vec<f64>>,
    /// Per zxid, `deliver − admit` in µs (the sum of its deltas).
    pub totals: Vec<f64>,
}

impl Chain {
    /// Number of zxids in the chain.
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// Median of each delta, µs, in chain order.
    pub fn delta_medians(&self) -> Vec<f64> {
        self.deltas.iter().map(|d| stats::median(d).unwrap_or(0.0)).collect()
    }
}

/// Earliest-in-time event with `zxid' ≥ zxid`, for cumulative stages.
struct Cumulative {
    /// `(zxid, ts)` sorted by zxid, with `ts` replaced by the suffix
    /// minimum so a lookup is one binary search.
    by_zxid: Vec<(u64, f64)>,
}

impl Cumulative {
    fn new(mut v: Vec<(u64, f64)>) -> Cumulative {
        v.sort_by_key(|e| e.0);
        for i in (0..v.len().saturating_sub(1)).rev() {
            v[i].1 = v[i].1.min(v[i + 1].1);
        }
        Cumulative { by_zxid: v }
    }

    fn covering(&self, zxid: u64) -> Option<f64> {
        let i = self.by_zxid.partition_point(|&(z, _)| z < zxid);
        self.by_zxid.get(i).map(|&(_, ts)| ts)
    }
}

/// Storage spans of one node and stage: `(lo, hi, end)`, sorted by lo.
type Spans = Vec<(u64, u64, f64)>;

/// End time of the span covering `zxid`.
fn span_end(spans: &[(u64, u64, f64)], zxid: u64) -> Option<f64> {
    let i = spans.partition_point(|&(lo, _, _)| lo <= zxid);
    let &(lo, hi, end) = spans.get(i.checked_sub(1)?)?;
    (lo <= zxid && zxid <= hi).then_some(end)
}

/// Builds the chain from every node's raw recorder events.
pub fn build(events: &[TraceEvent], leader: u64) -> Chain {
    let (aligned, offsets) = stitch(events, leader);
    let mut first: BTreeMap<(u64, Stage, u64), f64> = BTreeMap::new(); // (node, stage, zxid)
    let mut wire_out: BTreeMap<(u64, u64), f64> = BTreeMap::new(); // (peer, zxid) on leader
    let mut wire_in: BTreeMap<(u64, u64), f64> = BTreeMap::new(); // (node, zxid) from leader
    let mut acks: BTreeMap<u64, Vec<(u64, f64)>> = BTreeMap::new(); // peer -> (zxid, ts)
    let mut commits = Vec::new();
    let mut spans: BTreeMap<(u64, Stage), Spans> = BTreeMap::new();
    for e in &aligned {
        // Nodes the stitcher could not place carry their own clock.
        if !offsets.contains_key(&e.node) {
            continue;
        }
        let ts = e.ts_us as f64;
        match e.stage {
            Stage::LogAppend | Stage::LogFsync => spans
                .entry((e.node, e.stage))
                .or_default()
                .push((e.zxid, e.zxid_end, ts + e.dur_us as f64)),
            Stage::WireOut if e.node == leader => {
                wire_out.entry((e.peer, e.zxid)).or_insert(ts);
            }
            Stage::WireIn if e.peer == leader => {
                wire_in.entry((e.node, e.zxid)).or_insert(ts);
            }
            Stage::AckRx if e.node == leader && e.peer != leader => {
                acks.entry(e.peer).or_default().push((e.zxid, ts))
            }
            Stage::CommitOut if e.node == leader => commits.push((e.zxid, ts)),
            _ => {
                first.entry((e.node, e.stage, e.zxid)).or_insert(ts);
            }
        }
    }
    for v in spans.values_mut() {
        v.sort_by_key(|e| e.0);
    }
    let acks: BTreeMap<u64, Cumulative> =
        acks.into_iter().map(|(p, v)| (p, Cumulative::new(v))).collect();
    let commits = Cumulative::new(commits);
    let at = |stage, zxid| first.get(&(leader, stage, zxid)).copied();

    let mut chain = Chain { deltas: vec![Vec::new(); STAGES.len() - 1], totals: Vec::new() };
    let zxids: Vec<u64> = first
        .keys()
        .filter(|&&(n, s, _)| n == leader && s == Stage::ProposeEnqueue)
        .map(|&(_, _, z)| z)
        .collect();
    for z in zxids {
        let Some(quorum_follower) = acks
            .iter()
            .filter_map(|(&p, c)| c.covering(z).map(|ts| (ts, p)))
            .min_by(|a, b| a.0.total_cmp(&b.0))
        else {
            continue;
        };
        let (ack_ts, f) = quorum_follower;
        let instants: Option<Instants> = (|| {
            Some([
                at(Stage::Admit, z)?,
                at(Stage::Submit, z)?,
                at(Stage::ProposeEnqueue, z)?,
                *wire_out.get(&(f, z))?,
                *wire_in.get(&(f, z))?,
                span_end(spans.get(&(f, Stage::LogAppend))?, z)?,
                span_end(spans.get(&(f, Stage::LogFsync))?, z)?,
                ack_ts,
                at(Stage::Quorum, z)?,
                commits.covering(z)?,
                at(Stage::Deliver, z)?,
            ])
        })();
        let Some(t) = instants else { continue };
        for (i, d) in chain.deltas.iter_mut().enumerate() {
            d.push(t[i + 1] - t[i]);
        }
        chain.totals.push(t[10] - t[0]);
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(node: u64, ts_us: u64, stage: Stage, zxid: u64, peer: u64) -> TraceEvent {
        TraceEvent { ts_us, dur_us: 0, node, zxid, zxid_end: zxid, stage, peer }
    }

    fn span(node: u64, ts_us: u64, dur_us: u64, stage: Stage, lo: u64, hi: u64) -> TraceEvent {
        TraceEvent { ts_us, dur_us, node, zxid: lo, zxid_end: hi, stage, peer: 0 }
    }

    /// Leader 1 and follower 2, whose clock runs 1000 µs ahead. Two
    /// zxids share one append/fsync batch and one cumulative ack; a
    /// third zxid misses its fsync and stays out of the chain.
    fn synthetic() -> Vec<TraceEvent> {
        let off = 1000;
        let mut v = Vec::new();
        for (z, base) in [(1u64, 100u64), (2, 110)] {
            v.push(ev(1, base, Stage::Admit, z, 0));
            v.push(ev(1, base + 5, Stage::Submit, z, 0));
            v.push(ev(1, base + 10, Stage::ProposeEnqueue, z, 0));
            v.push(ev(1, base + 12, Stage::WireOut, z, 2));
            // Propagation 20 µs each way.
            v.push(ev(2, base + 32 + off, Stage::WireIn, z, 1));
        }
        v.push(span(2, 150 + off, 10, Stage::LogAppend, 1, 2)); // ends 160
        v.push(span(2, 160 + off, 40, Stage::LogFsync, 1, 2)); // ends 200
                                                               // Follower's cumulative ACK for 2 leaves at 205, arrives at 225.
        v.push(ev(2, 205 + off, Stage::WireOut, 2, 1));
        v.push(ev(1, 225, Stage::WireIn, 2, 2));
        v.push(ev(1, 226, Stage::AckRx, 2, 2));
        for z in [1, 2] {
            v.push(ev(1, 227, Stage::Quorum, z, 0));
        }
        v.push(ev(1, 228, Stage::CommitOut, 2, 0));
        v.push(ev(1, 230, Stage::Deliver, 1, 0));
        v.push(ev(1, 231, Stage::Deliver, 2, 0));
        // zxid 3: proposed and received, never fsynced.
        v.push(ev(1, 300, Stage::Admit, 3, 0));
        v.push(ev(1, 301, Stage::Submit, 3, 0));
        v.push(ev(1, 302, Stage::ProposeEnqueue, 3, 0));
        v.push(ev(1, 303, Stage::WireOut, 3, 2));
        v.push(ev(2, 323 + off, Stage::WireIn, 3, 1));
        v
    }

    #[test]
    fn stitches_two_nodes_into_one_chain() {
        let chain = build(&synthetic(), 1);
        assert_eq!(chain.len(), 2, "zxid 3 lacks its storage stages");
        // zxid 1 on the leader clock: 100 105 110 112 | 132 160 200 | 226 227 228 230
        let want1 = [5.0, 5.0, 2.0, 20.0, 28.0, 40.0, 26.0, 1.0, 1.0, 2.0];
        for (i, w) in want1.iter().enumerate() {
            assert!((chain.deltas[i][0] - w).abs() < 1e-9, "delta {i}: {}", chain.deltas[i][0]);
        }
        assert_eq!(chain.totals[0], 130.0);
        // Each zxid's deltas sum to its total.
        for (k, total) in chain.totals.iter().enumerate() {
            let sum: f64 = chain.deltas.iter().map(|d| d[k]).sum();
            assert!((sum - total).abs() < 1e-9);
        }
        assert_eq!(chain.totals[1], 121.0);
    }

    #[test]
    fn empty_trace_gives_empty_chain() {
        assert_eq!(build(&[], 1).len(), 0);
    }
}
