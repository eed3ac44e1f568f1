//! End-to-end flight-recorder and admin-endpoint tests: a real 3-node
//! TCP ensemble must produce a full causal chain for a committed zxid —
//! submit and deliver on the leader, wire-in / ack / deliver on both
//! followers — and serve it over the admin HTTP endpoint.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};
use zab_core::ServerId;
use zab_node::{apps::BytesApp, NodeConfig, NodeEvent, Replica, Role};
use zab_trace::{chrome_trace_json, merge, stage_deltas, timelines, Stage, TraceEvent};

fn address_book(n: u64) -> BTreeMap<ServerId, SocketAddr> {
    (1..=n)
        .map(|i| {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = l.local_addr().expect("addr");
            drop(l);
            (ServerId(i), addr)
        })
        .collect()
}

fn wait_for_leader(
    replicas: &BTreeMap<ServerId, Replica<BytesApp>>,
    timeout: Duration,
) -> Option<ServerId> {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        for (&id, r) in replicas {
            if matches!(r.role(), Role::Leading { established: true, .. }) {
                return Some(id);
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    None
}

/// Waits until every replica is serving: the leader established and all
/// followers synced. Submissions before a follower finishes phase-2 sync
/// reach it as a SyncDiff rather than broadcast Proposes, so its trace
/// would (correctly) have no wire events for those zxids.
fn wait_for_all_active(replicas: &BTreeMap<ServerId, Replica<BytesApp>>, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        let all_active = replicas.values().all(|r| {
            matches!(
                r.role(),
                Role::Leading { established: true, .. } | Role::Following { active: true, .. }
            )
        });
        if all_active {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("ensemble never became fully active");
}

fn drain_deliveries(r: &Replica<BytesApp>, want: usize, timeout: Duration) -> usize {
    let deadline = Instant::now() + timeout;
    let mut got = 0;
    while got < want && Instant::now() < deadline {
        if let Ok(NodeEvent::Delivered(_)) = r.events().recv_timeout(Duration::from_millis(100)) {
            got += 1;
        }
    }
    got
}

fn http_get(addr: SocketAddr, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    stream
        .write_all(format!("GET {target} HTTP/1.0\r\nHost: t\r\n\r\n").as_bytes())
        .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    (head.to_string(), body.to_string())
}

/// The stages `node` recorded for `zxid`, in timestamp order.
fn stages_for(events: &[TraceEvent], node: u64, zxid: u64) -> Vec<Stage> {
    let mut evs: Vec<&TraceEvent> =
        events.iter().filter(|e| e.node == node && e.zxid == zxid && !e.is_span()).collect();
    evs.sort_by_key(|e| e.ts_us);
    evs.iter().map(|e| e.stage).collect()
}

#[test]
fn causal_chain_spans_the_ensemble_and_the_admin_endpoint_serves_it() {
    const N: usize = 10;
    let book = address_book(3);
    let replicas: BTreeMap<ServerId, Replica<BytesApp>> = book
        .keys()
        .map(|&id| {
            let cfg =
                NodeConfig::new(id, book.clone()).with_admin("127.0.0.1:0".parse().expect("addr"));
            (id, Replica::start(cfg, BytesApp::new()).expect("start"))
        })
        .collect();

    let leader = wait_for_leader(&replicas, Duration::from_secs(10)).expect("leader");
    wait_for_all_active(&replicas, Duration::from_secs(10));
    for i in 0..N as u32 {
        replicas[&leader].submit(i.to_le_bytes().to_vec());
    }
    for (&id, r) in &replicas {
        assert_eq!(drain_deliveries(r, N, Duration::from_secs(10)), N, "replica {id} missed");
    }

    // ---- tentpole acceptance: one merged timeline, full causal chain.
    let followers: Vec<u64> = replicas.keys().filter(|id| **id != leader).map(|id| id.0).collect();
    let full_chain_in = |merged: &[TraceEvent]| {
        timelines(merged).keys().copied().find(|&zxid| {
            let leader_stages = stages_for(merged, leader.0, zxid);
            let leader_ok = [Stage::Submit, Stage::ProposeEnqueue, Stage::Quorum, Stage::Deliver]
                .iter()
                .all(|s| leader_stages.contains(s));
            leader_ok
                && followers.iter().all(|&f| {
                    let fs = stages_for(merged, f, zxid);
                    // wire-in of the propose, wire-out of the ack, delivery.
                    fs.contains(&Stage::WireIn)
                        && fs.contains(&Stage::WireOut)
                        && fs.contains(&Stage::Deliver)
                })
        })
    };
    // An ACK is cumulative per PROPOSE batch, so only a batch's last
    // zxid carries one, and a follower may deliver that zxid (on the
    // other follower's quorum) before its own ack leaves: wait for it.
    let deadline = Instant::now() + Duration::from_secs(5);
    let (merged, full_chain) = loop {
        let merged = merge(replicas.values().map(Replica::trace_events).collect());
        let found = full_chain_in(&merged);
        if found.is_some() || Instant::now() > deadline {
            break (merged, found);
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let by_zxid = timelines(&merged);
    if full_chain.is_none() {
        for (&zxid, _) in by_zxid.iter().take(5) {
            eprintln!("zxid {zxid:#x}:");
            for &id in replicas.keys() {
                eprintln!("  node {}: {:?}", id.0, stages_for(&merged, id.0, zxid));
            }
        }
    }
    let zxid = full_chain.expect("no committed zxid shows the full causal chain");

    // Per-node timestamps along the chain are monotone: each node's
    // stage sequence (already time-sorted) must respect causal order.
    let leader_stages = stages_for(&merged, leader.0, zxid);
    let submit_pos = leader_stages.iter().position(|s| *s == Stage::Submit).expect("submit");
    let deliver_pos = leader_stages.iter().rposition(|s| *s == Stage::Deliver).expect("deliver");
    assert!(submit_pos < deliver_pos, "leader delivered before the submit instant");
    for &f in &followers {
        let fs = stages_for(&merged, f, zxid);
        let wire_in = fs.iter().position(|s| *s == Stage::WireIn).expect("wire-in");
        let deliver = fs.iter().rposition(|s| *s == Stage::Deliver).expect("deliver");
        assert!(wire_in < deliver, "follower {f} delivered before the propose arrived");
    }

    // The exporters digest the same run: stage deltas exist for the
    // chain, and the Chrome JSON is non-trivial and well-formed.
    assert!(stage_deltas(&merged).iter().any(|d| d.zxid == zxid));
    let chrome = chrome_trace_json(&merged);
    assert!(chrome.starts_with("{\"traceEvents\":["), "chrome head: {chrome:.40}");
    assert!(chrome.ends_with("]}"), "chrome tail");
    assert!(chrome.contains("\"submit\"") && chrome.contains("\"deliver\""));

    // ---- the admin endpoint serves all three routes on every node.
    for (&id, r) in &replicas {
        let addr = r.admin_addr().expect("admin bound");
        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "{id}: {head}");
        assert!(body.contains("core_proposals_committed"), "{id} metrics: {body:.200}");

        let (head, body) = http_get(addr, "/health");
        assert!(head.starts_with("HTTP/1.0 200"), "{id}: {head}");
        let expected_role =
            if id == leader { "\"role\":\"leading\"" } else { "\"role\":\"following\"" };
        assert!(body.contains(expected_role), "{id} health: {body}");
        assert!(body.contains("\"last_committed_zxid\":"), "{id} health: {body}");

        let (head, body) = http_get(addr, "/trace?last=100000");
        assert!(head.starts_with("HTTP/1.0 200"), "{id}: {head}");
        assert!(body.starts_with("{\"traceEvents\":["), "{id} trace: {body:.40}");
    }

    // Recorder memory stays within the configured bound.
    for r in replicas.values() {
        let rec = r.trace_recorder();
        assert!(r.trace_events().len() <= rec.max_resident_events());
    }
}
