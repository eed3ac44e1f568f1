//! Integration tests driving Leader + Follower automata directly through a
//! synchronous, loss-free harness (instant network, instant disk).
//!
//! These validate the protocol logic in isolation; the deterministic
//! simulator in `zab-simnet` adds latency, loss, partitions and crashes.

use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};
use zab_core::{
    Action, ClusterConfig, Epoch, Follower, FollowerStatus, Input, Leader, Message,
    PersistentState, ServerId, Txn, Zab, Zxid,
};

/// A synchronous cluster: messages and persists complete immediately, in
/// FIFO order, until no work remains.
struct Harness {
    nodes: BTreeMap<ServerId, Zab>,
    /// (from, to, message) queue.
    net: VecDeque<(ServerId, ServerId, Message)>,
    /// Deliveries observed per node, in order.
    delivered: BTreeMap<ServerId, Vec<Txn>>,
    /// Committed events observed at the leader.
    committed: Vec<Zxid>,
    /// Election requests observed (node → reason).
    defections: Vec<(ServerId, &'static str)>,
}

impl Harness {
    fn new(n: u64, leader: ServerId) -> Harness {
        let ids: Vec<ServerId> = (1..=n).map(ServerId).collect();
        let cfg = ClusterConfig::majority(ids.clone());
        let mut h = Harness {
            nodes: BTreeMap::new(),
            net: VecDeque::new(),
            delivered: BTreeMap::new(),
            committed: Vec::new(),
            defections: Vec::new(),
        };
        for &id in &ids {
            let (z, acts) = Zab::from_election(
                id,
                leader,
                cfg.clone(),
                PersistentState::default(),
                Zxid::ZERO,
                0,
            );
            h.nodes.insert(id, z);
            h.delivered.insert(id, Vec::new());
            h.dispatch(id, acts);
        }
        h.run();
        h
    }

    /// Applies a node's actions: instant persists, queued sends.
    fn dispatch(&mut self, id: ServerId, actions: Vec<Action>) {
        let mut queue: VecDeque<Action> = actions.into();
        while let Some(a) = queue.pop_front() {
            match a {
                Action::Send { to, msg } => self.net.push_back((id, to, msg)),
                Action::Broadcast { to, msg } => {
                    for t in to {
                        self.net.push_back((id, t, msg.clone()));
                    }
                }
                Action::Persist { token, .. } => {
                    let more = self.nodes.get_mut(&id).unwrap().handle(Input::Persisted { token });
                    // Completions run before later actions to mimic an
                    // instant disk, but network order is preserved by the
                    // FIFO `net` queue regardless.
                    for m in more.into_iter().rev() {
                        queue.push_front(m);
                    }
                }
                Action::Deliver { txn } => self.delivered.get_mut(&id).unwrap().push(txn),
                Action::Committed { zxid } => self.committed.push(zxid),
                Action::GoToElection { reason } => self.defections.push((id, reason)),
                Action::TakeSnapshot => {
                    // Serve a dummy snapshot at the node's delivered point.
                    let zxid = self.delivered[&id].last().map_or(Zxid::ZERO, |t| t.zxid);
                    let more = self.nodes.get_mut(&id).unwrap().handle(Input::SnapshotReady {
                        snapshot: Bytes::from_static(b"app-snapshot"),
                        zxid,
                    });
                    for m in more.into_iter().rev() {
                        queue.push_front(m);
                    }
                }
                Action::InstallSnapshot { .. }
                | Action::Activated { .. }
                | Action::ClientRequestRejected { .. } => {}
            }
        }
    }

    /// Pumps the network until quiescent.
    fn run(&mut self) {
        while let Some((from, to, msg)) = self.net.pop_front() {
            if let Some(node) = self.nodes.get_mut(&to) {
                let acts = node.handle(Input::Message { from, msg });
                self.dispatch(to, acts);
            }
        }
    }

    fn request(&mut self, leader: ServerId, data: &[u8]) {
        let acts = self
            .nodes
            .get_mut(&leader)
            .unwrap()
            .handle(Input::ClientRequests { data: vec![Bytes::copy_from_slice(data)] });
        self.dispatch(leader, acts);
        self.run();
    }

    fn leader(&self, id: ServerId) -> &Leader {
        match &self.nodes[&id] {
            Zab::Leader(l) => l,
            _ => panic!("{id} is not a leader"),
        }
    }

    fn follower(&self, id: ServerId) -> &Follower {
        match &self.nodes[&id] {
            Zab::Follower(f) => f,
            _ => panic!("{id} is not a follower"),
        }
    }
}

#[test]
fn three_node_cluster_establishes() {
    let h = Harness::new(3, ServerId(1));
    assert!(h.leader(ServerId(1)).is_established());
    assert_eq!(h.leader(ServerId(1)).epoch(), Epoch(1));
    for id in [ServerId(2), ServerId(3)] {
        assert_eq!(h.follower(id).status(), FollowerStatus::Active);
    }
    assert!(h.defections.is_empty());
}

#[test]
fn single_node_cluster_establishes_alone() {
    let h = Harness::new(1, ServerId(1));
    assert!(h.leader(ServerId(1)).is_established());
}

#[test]
fn five_node_cluster_establishes() {
    let h = Harness::new(5, ServerId(3));
    assert!(h.leader(ServerId(3)).is_established());
    assert_eq!(h.leader(ServerId(3)).active_followers().count(), 4);
}

#[test]
fn broadcast_delivers_everywhere_in_order() {
    let mut h = Harness::new(3, ServerId(1));
    for i in 0..10u8 {
        h.request(ServerId(1), &[i]);
    }
    let expect: Vec<Zxid> = (1..=10).map(|c| Zxid::new(Epoch(1), c)).collect();
    for (&id, txns) in &h.delivered {
        let zxids: Vec<Zxid> = txns.iter().map(|t| t.zxid).collect();
        assert_eq!(zxids, expect, "node {id} delivered out of order");
    }
    assert_eq!(h.committed, expect);
}

#[test]
fn delivered_payloads_match_requests() {
    let mut h = Harness::new(3, ServerId(1));
    h.request(ServerId(1), b"alpha");
    h.request(ServerId(1), b"beta");
    for txns in h.delivered.values() {
        assert_eq!(txns[0].data.as_ref(), b"alpha");
        assert_eq!(txns[1].data.as_ref(), b"beta");
    }
}

#[test]
fn client_request_to_follower_is_rejected() {
    let mut h = Harness::new(3, ServerId(1));
    let acts = h
        .nodes
        .get_mut(&ServerId(2))
        .unwrap()
        .handle(Input::ClientRequests { data: vec![Bytes::from_static(b"x")] });
    assert!(matches!(acts[0], Action::ClientRequestRejected { .. }));
}

#[test]
fn late_joiner_is_synced_with_diff_and_catches_up() {
    // Build a 3-node cluster but only connect two; broadcast; then let the
    // third join and verify it receives the full history.
    let ids: Vec<ServerId> = (1..=3).map(ServerId).collect();
    let cfg = ClusterConfig::majority(ids.clone());
    let mut h = Harness {
        nodes: BTreeMap::new(),
        net: VecDeque::new(),
        delivered: BTreeMap::new(),
        committed: Vec::new(),
        defections: Vec::new(),
    };
    for &id in &[ServerId(1), ServerId(2)] {
        let (z, acts) = Zab::from_election(
            id,
            ServerId(1),
            cfg.clone(),
            PersistentState::default(),
            Zxid::ZERO,
            0,
        );
        h.nodes.insert(id, z);
        h.delivered.insert(id, Vec::new());
        h.dispatch(id, acts);
    }
    h.run();
    assert!(h.leader(ServerId(1)).is_established());
    for i in 0..5u8 {
        h.request(ServerId(1), &[i]);
    }
    // Now the third server comes up as a follower of the established leader.
    let (z, acts) = Zab::from_election(
        ServerId(3),
        ServerId(1),
        cfg,
        PersistentState::default(),
        Zxid::ZERO,
        0,
    );
    h.nodes.insert(ServerId(3), z);
    h.delivered.insert(ServerId(3), Vec::new());
    h.dispatch(ServerId(3), acts);
    h.run();
    assert_eq!(h.follower(ServerId(3)).status(), FollowerStatus::Active);
    assert_eq!(h.delivered[&ServerId(3)].len(), 5);
    // And it participates in new broadcasts.
    h.request(ServerId(1), b"after-join");
    assert_eq!(h.delivered[&ServerId(3)].len(), 6);
}

#[test]
fn leader_change_preserves_committed_history() {
    // Epoch 1: commit 3 txns. Then "crash" the leader and re-run election
    // nominating server 2, reusing each survivor's persistent state.
    let mut h = Harness::new(3, ServerId(1));
    for i in 0..3u8 {
        h.request(ServerId(1), &[i]);
    }
    let s2 = h.nodes[&ServerId(2)].persistent_state();
    let s3 = h.nodes[&ServerId(3)].persistent_state();

    let ids: Vec<ServerId> = (1..=3).map(ServerId).collect();
    let cfg = ClusterConfig::majority(ids);
    let mut h2 = Harness {
        nodes: BTreeMap::new(),
        net: VecDeque::new(),
        delivered: BTreeMap::new(),
        committed: Vec::new(),
        defections: Vec::new(),
    };
    for (id, st) in [(ServerId(2), s2), (ServerId(3), s3)] {
        let (z, acts) = Zab::from_election(id, ServerId(2), cfg.clone(), st, Zxid::ZERO, 0);
        h2.nodes.insert(id, z);
        h2.delivered.insert(id, Vec::new());
        h2.dispatch(id, acts);
    }
    h2.run();
    assert!(h2.leader(ServerId(2)).is_established());
    assert_eq!(h2.leader(ServerId(2)).epoch(), Epoch(2));
    // Primary integrity: the old committed txns deliver before anything new.
    let mut prefix: Vec<Zxid> = (1..=3).map(|c| Zxid::new(Epoch(1), c)).collect();
    assert_eq!(h2.delivered[&ServerId(2)].iter().map(|t| t.zxid).collect::<Vec<_>>(), prefix);
    h2.request(ServerId(2), b"epoch2-txn");
    prefix.push(Zxid::new(Epoch(2), 1));
    for (&id, txns) in &h2.delivered {
        assert_eq!(
            txns.iter().map(|t| t.zxid).collect::<Vec<_>>(),
            prefix,
            "node {id} violated primary order across the leader change"
        );
    }
}

#[test]
fn divergent_follower_is_truncated() {
    // Server 3 accepted (1,4) and (1,5) which never committed. A new
    // epoch-2 leader (server 2, history through (1,3)) establishes with
    // server 1 and commits (2,1). When server 3 joins late, it must
    // truncate (1,4..5) — the paper's discard-skipped-transactions case.
    let mut h = Harness::new(3, ServerId(1));
    for i in 0..3u8 {
        h.request(ServerId(1), &[i]);
    }
    let s1 = h.nodes[&ServerId(1)].persistent_state();
    let s2 = h.nodes[&ServerId(2)].persistent_state();
    let mut s3 = h.nodes[&ServerId(3)].persistent_state();
    s3.history.append(Txn::new(Zxid::new(Epoch(1), 4), &b"never-committed"[..]));
    s3.history.append(Txn::new(Zxid::new(Epoch(1), 5), &b"never-committed"[..]));

    let ids: Vec<ServerId> = (1..=3).map(ServerId).collect();
    let cfg = ClusterConfig::majority(ids);
    let mut h2 = Harness {
        nodes: BTreeMap::new(),
        net: VecDeque::new(),
        delivered: BTreeMap::new(),
        committed: Vec::new(),
        defections: Vec::new(),
    };
    for (id, st) in [(ServerId(2), s2), (ServerId(1), s1)] {
        let (z, acts) = Zab::from_election(id, ServerId(2), cfg.clone(), st, Zxid::ZERO, 0);
        h2.nodes.insert(id, z);
        h2.delivered.insert(id, Vec::new());
        h2.dispatch(id, acts);
    }
    h2.run();
    assert!(h2.leader(ServerId(2)).is_established());
    h2.request(ServerId(2), b"epoch2");

    // Late join by the divergent server 3.
    let (z, acts) = Zab::from_election(ServerId(3), ServerId(2), cfg, s3, Zxid::ZERO, 0);
    h2.nodes.insert(ServerId(3), z);
    h2.delivered.insert(ServerId(3), Vec::new());
    h2.dispatch(ServerId(3), acts);
    h2.run();
    assert_eq!(h2.follower(ServerId(3)).status(), FollowerStatus::Active);
    // The uncommitted suffix is gone; the epoch-2 txn replaced it.
    assert_eq!(h2.follower(ServerId(3)).last_zxid(), Zxid::new(Epoch(2), 1));
    let delivered: Vec<Zxid> = h2.delivered[&ServerId(3)].iter().map(|t| t.zxid).collect();
    assert!(!delivered.contains(&Zxid::new(Epoch(1), 4)));
    assert!(!delivered.contains(&Zxid::new(Epoch(1), 5)));
    // New broadcasts flow to the truncated follower.
    h2.request(ServerId(2), b"fresh");
    assert_eq!(h2.follower(ServerId(3)).last_zxid(), Zxid::new(Epoch(2), 2));
}

#[test]
fn fresher_follower_forces_leader_abdication() {
    // Server 1 is nominated but server 2 has a longer history: the
    // prospective leader must abdicate rather than discard committed txns.
    let mut h = Harness::new(3, ServerId(1));
    for i in 0..2u8 {
        h.request(ServerId(1), &[i]);
    }
    let s1 = h.nodes[&ServerId(1)].persistent_state();
    let mut s2 = h.nodes[&ServerId(2)].persistent_state();
    // Server 2 additionally accepted (and the quorum committed) one more.
    s2.history.append(Txn::new(Zxid::new(Epoch(1), 3), &b"extra"[..]));

    let ids: Vec<ServerId> = (1..=3).map(ServerId).collect();
    let cfg = ClusterConfig::majority(ids);
    let mut h2 = Harness {
        nodes: BTreeMap::new(),
        net: VecDeque::new(),
        delivered: BTreeMap::new(),
        committed: Vec::new(),
        defections: Vec::new(),
    };
    // Wrong nomination: server 1 leads although server 2 is fresher.
    for (id, st) in [(ServerId(1), s1), (ServerId(2), s2)] {
        let (z, acts) = Zab::from_election(id, ServerId(1), cfg.clone(), st, Zxid::ZERO, 0);
        h2.nodes.insert(id, z);
        h2.delivered.insert(id, Vec::new());
        h2.dispatch(id, acts);
    }
    h2.run();
    assert!(h2
        .defections
        .iter()
        .any(|&(id, reason)| id == ServerId(1) && reason.contains("fresher")));
}

#[test]
fn pipelined_burst_commits_everything() {
    let mut h = Harness::new(5, ServerId(1));
    // Submit a burst without waiting for completions in between.
    let acts: Vec<Action> = (0..100u32)
        .flat_map(|i| {
            h.nodes.get_mut(&ServerId(1)).unwrap().handle(Input::ClientRequests {
                data: vec![Bytes::copy_from_slice(&i.to_le_bytes())],
            })
        })
        .collect();
    h.dispatch(ServerId(1), acts);
    h.run();
    for (&id, txns) in &h.delivered {
        assert_eq!(txns.len(), 100, "node {id} missed deliveries");
    }
    assert_eq!(h.leader(ServerId(1)).outstanding(), 0);
}

#[test]
fn one_batch_of_requests_commits_everything_in_order() {
    let mut h = Harness::new(5, ServerId(1));
    let data = (0..100u32).map(|i| Bytes::copy_from_slice(&i.to_le_bytes())).collect();
    let acts = h.nodes.get_mut(&ServerId(1)).unwrap().handle(Input::ClientRequests { data });
    h.dispatch(ServerId(1), acts);
    h.run();
    for (&id, txns) in &h.delivered {
        let payloads: Vec<u32> =
            txns.iter().map(|t| u32::from_le_bytes(t.data[..].try_into().unwrap())).collect();
        assert_eq!(payloads, (0..100).collect::<Vec<_>>(), "node {id} delivered out of order");
        assert!(txns.windows(2).all(|w| w[1].zxid.follows(w[0].zxid)), "one zxid per op");
    }
    assert_eq!(h.leader(ServerId(1)).outstanding(), 0);
}

#[test]
fn outstanding_window_throttles_proposals() {
    let ids: Vec<ServerId> = (1..=3).map(ServerId).collect();
    let mut cfg = ClusterConfig::majority(ids.clone());
    cfg.max_outstanding = 2;
    let mut h = Harness {
        nodes: BTreeMap::new(),
        net: VecDeque::new(),
        delivered: BTreeMap::new(),
        committed: Vec::new(),
        defections: Vec::new(),
    };
    for &id in &ids {
        let (z, acts) = Zab::from_election(
            id,
            ServerId(1),
            cfg.clone(),
            PersistentState::default(),
            Zxid::ZERO,
            0,
        );
        h.nodes.insert(id, z);
        h.delivered.insert(id, Vec::new());
        h.dispatch(id, acts);
    }
    h.run();
    // Enqueue 5 requests at once; without running the network the window
    // only admits 2 proposals.
    let acts: Vec<Action> = (0..5u8)
        .flat_map(|i| {
            h.nodes
                .get_mut(&ServerId(1))
                .unwrap()
                .handle(Input::ClientRequests { data: vec![Bytes::copy_from_slice(&[i])] })
        })
        .collect();
    assert_eq!(h.leader(ServerId(1)).outstanding(), 2);
    assert_eq!(h.leader(ServerId(1)).queued_requests(), 3);
    h.dispatch(ServerId(1), acts);
    h.run();
    // Once the pipeline drains, everything is committed.
    assert_eq!(h.leader(ServerId(1)).outstanding(), 0);
    assert_eq!(h.delivered[&ServerId(2)].len(), 5);
}

#[test]
fn follower_restart_rejoins_established_leader_fast_path() {
    let mut h = Harness::new(3, ServerId(1));
    for i in 0..4u8 {
        h.request(ServerId(1), &[i]);
    }
    // Follower 3 "crashes": leader notices the disconnect; follower comes
    // back with its persisted state and re-follows the same leader.
    let state = h.nodes[&ServerId(3)].persistent_state();
    let acts = h
        .nodes
        .get_mut(&ServerId(1))
        .unwrap()
        .handle(Input::PeerDisconnected { peer: ServerId(3) });
    h.dispatch(ServerId(1), acts);
    let (z, acts) = Zab::from_election(
        ServerId(3),
        ServerId(1),
        ClusterConfig::majority((1..=3).map(ServerId)),
        state,
        Zxid::ZERO,
        0,
    );
    h.nodes.insert(ServerId(3), z);
    h.delivered.insert(ServerId(3), Vec::new());
    h.dispatch(ServerId(3), acts);
    h.run();
    assert_eq!(h.follower(ServerId(3)).status(), FollowerStatus::Active);
    // Same epoch: no election storm, no epoch bump.
    assert_eq!(h.leader(ServerId(1)).epoch(), Epoch(1));
    // It keeps receiving broadcasts.
    h.request(ServerId(1), b"post-rejoin");
    assert_eq!(h.follower(ServerId(3)).last_zxid(), Zxid::new(Epoch(1), 5));
}

#[test]
fn snap_sync_for_deeply_lagging_follower() {
    // Small snap threshold forces SNAP for a fresh follower joining a
    // leader with history.
    let ids: Vec<ServerId> = (1..=3).map(ServerId).collect();
    let mut cfg = ClusterConfig::majority(ids.clone());
    cfg.snap_threshold = 3;
    let mut h = Harness {
        nodes: BTreeMap::new(),
        net: VecDeque::new(),
        delivered: BTreeMap::new(),
        committed: Vec::new(),
        defections: Vec::new(),
    };
    for &id in &[ServerId(1), ServerId(2)] {
        let (z, acts) = Zab::from_election(
            id,
            ServerId(1),
            cfg.clone(),
            PersistentState::default(),
            Zxid::ZERO,
            0,
        );
        h.nodes.insert(id, z);
        h.delivered.insert(id, Vec::new());
        h.dispatch(id, acts);
    }
    h.run();
    for i in 0..10u8 {
        h.request(ServerId(1), &[i]);
    }
    let (z, acts) = Zab::from_election(
        ServerId(3),
        ServerId(1),
        cfg,
        PersistentState::default(),
        Zxid::ZERO,
        0,
    );
    h.nodes.insert(ServerId(3), z);
    h.delivered.insert(ServerId(3), Vec::new());
    h.dispatch(ServerId(3), acts);
    h.run();
    assert_eq!(h.follower(ServerId(3)).status(), FollowerStatus::Active);
    assert_eq!(h.follower(ServerId(3)).last_zxid(), Zxid::new(Epoch(1), 10));
    // Snapshot skipped deliveries of the snapshotted prefix: the follower
    // delivered nothing (snapshot install replaced delivery) or only the
    // tail past the leader's delivered point at snapshot time.
    assert!(h.delivered[&ServerId(3)].len() < 10);
}

#[test]
fn zero_weight_observer_receives_stream_but_cannot_commit() {
    // ZooKeeper-style observer: member with weight 0. It is synced and
    // receives proposals/commits, but its acks never count toward quorum.
    use std::sync::Arc;
    use zab_core::WeightedQuorum;

    let mut cfg = ClusterConfig::majority((1..=3).map(ServerId));
    cfg.quorum = Arc::new(WeightedQuorum::new([
        (ServerId(1), 1),
        (ServerId(2), 1),
        (ServerId(3), 0), // observer
    ]));
    let mut h = Harness {
        nodes: BTreeMap::new(),
        net: VecDeque::new(),
        delivered: BTreeMap::new(),
        committed: Vec::new(),
        defections: Vec::new(),
    };
    for id in (1..=3).map(ServerId) {
        let (z, acts) = Zab::from_election(
            id,
            ServerId(1),
            cfg.clone(),
            PersistentState::default(),
            Zxid::ZERO,
            0,
        );
        h.nodes.insert(id, z);
        h.delivered.insert(id, Vec::new());
        h.dispatch(id, acts);
    }
    h.run();
    assert!(h.leader(ServerId(1)).is_established());
    // Both voter + observer are active followers and deliver the stream.
    h.request(ServerId(1), b"observed");
    assert_eq!(h.delivered[&ServerId(3)].len(), 1, "observer missed the broadcast");
    assert_eq!(h.delivered[&ServerId(2)].len(), 1);

    // Now verify the observer's ack alone cannot commit: leader + observer
    // only (voter s2 never responds) must NOT commit new proposals.
    let mut h2 = Harness {
        nodes: BTreeMap::new(),
        net: VecDeque::new(),
        delivered: BTreeMap::new(),
        committed: Vec::new(),
        defections: Vec::new(),
    };
    for id in [ServerId(1), ServerId(3)] {
        let (z, acts) = Zab::from_election(
            id,
            ServerId(1),
            cfg.clone(),
            PersistentState::default(),
            Zxid::ZERO,
            0,
        );
        h2.nodes.insert(id, z);
        h2.delivered.insert(id, Vec::new());
        h2.dispatch(id, acts);
    }
    h2.run();
    // Weighted quorum of {s1} has weight 1 of 2 total: not a quorum, so
    // the leader cannot even establish without voter s2 — exactly the
    // observer semantics (it adds read capacity, not fault tolerance).
    assert!(!h2.leader(ServerId(1)).is_established());
}
