//! An in-process 3-node ensemble over loopback TCP, with kill and
//! restart from the node's own store.

use crate::app::{AppStats, BenchApp, State};
use crate::storage::{shared, LogStats, SharedStore, Timed};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zab_core::ServerId;
use zab_log::{FileStorage, MemStorage};
use zab_metrics::Snapshot;
use zab_node::{NodeConfig, Replica, Role};

/// Ensemble size.
pub const NODES: u64 = 3;

/// Compaction cadence of every node (ZooKeeper's snapCount).
const SNAPSHOT_EVERY: u64 = 100_000;

/// Flight-recorder ring per thread when tracing: enough to cover a few
/// thousand zxids of the busiest thread (the leader's event loop records
/// about ten events per zxid).
const TRACE_CAPACITY: usize = 1 << 16;

/// How long to wait for an established leader before giving up.
const ELECTION_DEADLINE: Duration = Duration::from_secs(20);

/// Where a node keeps its state.
#[derive(Debug, Clone)]
pub enum StorageMode {
    /// `MemStorage`, shared across a node's incarnations.
    Mem,
    /// `FileStorage` with fsync, one directory per node under this root.
    File(PathBuf),
}

/// Per-node configuration common to a run.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Storage backend.
    pub storage: StorageMode,
    /// `cluster.max_outstanding` override.
    pub max_outstanding: Option<usize>,
    /// Flight recorder on or off.
    pub tracing: bool,
}

struct Node {
    replica: Option<Replica<BenchApp>>,
    store: SharedStore,
}

type Started = Result<Replica<BenchApp>, String>;

/// What it takes to start one node; cloned onto helper threads.
#[derive(Clone)]
struct Launcher {
    spec: Spec,
    book: BTreeMap<ServerId, SocketAddr>,
    log_stats: Arc<LogStats>,
    app_stats: Arc<AppStats>,
}

impl Launcher {
    fn start(&self, id: ServerId, store: SharedStore) -> Started {
        let mut cfg = NodeConfig::new(id, self.book.clone())
            .with_snapshot_every(SNAPSHOT_EVERY)
            .with_tracing(self.spec.tracing)
            .with_trace_capacity(TRACE_CAPACITY);
        if let Some(m) = self.spec.max_outstanding {
            cfg.cluster.max_outstanding = m;
        }
        let app = BenchApp::new(Arc::clone(&self.app_stats), self.spec.tracing);
        let storage = Box::new(Timed::new(store, Arc::clone(&self.log_stats)));
        Replica::start_with_storage(cfg, app, storage).map_err(|e| e.to_string())
    }

    fn open_store(&self, id: ServerId) -> Result<SharedStore, String> {
        Ok(match &self.spec.storage {
            StorageMode::Mem => shared(MemStorage::new()),
            StorageMode::File(root) => shared(
                FileStorage::open(root.join(format!("n{}", id.0))).map_err(|e| e.to_string())?,
            ),
        })
    }
}

/// A node restart running on a helper thread.
struct Restart {
    id: ServerId,
    thread: JoinHandle<(Started, SharedStore)>,
}

/// A running ensemble plus the benchmark's per-layer counters.
pub struct Ensemble {
    launcher: Launcher,
    nodes: BTreeMap<ServerId, Node>,
    /// Storage decorator counters, shared by all nodes and incarnations.
    pub log_stats: Arc<LogStats>,
    /// Application counters, shared by all nodes and incarnations.
    pub app_stats: Arc<AppStats>,
    /// Metrics of incarnations that were killed, captured just before.
    pub retired: Vec<Snapshot>,
    /// Threads dropping killed replicas (joined before a restart and on
    /// teardown).
    reapers: Vec<JoinHandle<()>>,
    restart: Option<Restart>,
}

impl Ensemble {
    /// Boots a fresh ensemble and waits for an established leader.
    /// Returns it with the set-up time: first `Replica::start` to an
    /// established leader.
    pub fn boot(spec: Spec) -> Result<(Ensemble, Duration), String> {
        // Hold every listener until all three ports are picked, so the
        // kernel cannot hand out one port twice.
        let listeners: Vec<TcpListener> = (0..NODES)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let mut book = BTreeMap::new();
        for (i, l) in (1..=NODES).zip(&listeners) {
            book.insert(ServerId(i), l.local_addr().map_err(|e| e.to_string())?);
        }
        drop(listeners);
        let log_stats: Arc<LogStats> = Arc::default();
        let app_stats: Arc<AppStats> = Arc::default();
        let launcher = Launcher {
            spec,
            book,
            log_stats: Arc::clone(&log_stats),
            app_stats: Arc::clone(&app_stats),
        };
        let mut ens = Ensemble {
            launcher,
            nodes: BTreeMap::new(),
            log_stats,
            app_stats,
            retired: Vec::new(),
            reapers: Vec::new(),
            restart: None,
        };
        let ids: Vec<ServerId> = ens.launcher.book.keys().copied().collect();
        let mut stores = Vec::new();
        for &id in &ids {
            stores.push((id, ens.launcher.open_store(id)?));
        }
        let t0 = Instant::now();
        // Start in descending id order: the highest id wins a fresh
        // election, and starting it first means its peers' first dials
        // find it listening. Ascending order makes a quarter of the boots
        // wait out one more notification resend (100 ms) and so doubles
        // the spread of `setup_s`.
        for (id, store) in stores.into_iter().rev() {
            let replica = ens.launcher.start(id, Arc::clone(&store))?;
            ens.nodes.insert(id, Node { replica: Some(replica), store });
        }
        ens.await_leader(ELECTION_DEADLINE).ok_or("no leader elected at boot")?;
        Ok((ens, t0.elapsed()))
    }

    /// Polls until some live node is an established leader.
    pub fn await_leader(&self, within: Duration) -> Option<ServerId> {
        let deadline = Instant::now() + within;
        loop {
            if let Some(id) = self.leader() {
                return Some(id);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// The established leader among live nodes, if any.
    pub fn leader(&self) -> Option<ServerId> {
        self.live()
            .find(|(_, r)| matches!(r.role(), Role::Leading { established: true, .. }))
            .map(|(id, _)| id)
    }

    /// Live replicas in id order.
    pub fn live(&self) -> impl Iterator<Item = (ServerId, &Replica<BenchApp>)> {
        self.nodes.iter().filter_map(|(&id, n)| n.replica.as_ref().map(|r| (id, r)))
    }

    /// A live replica.
    pub fn replica(&self, id: ServerId) -> Option<&Replica<BenchApp>> {
        self.nodes.get(&id).and_then(|n| n.replica.as_ref())
    }

    /// Committed state of a live replica.
    pub fn state(&self, id: ServerId) -> Option<State> {
        self.replica(id).map(|r| r.with_app(BenchApp::state))
    }

    /// Kills a node: its replica is dropped on a helper thread, so the
    /// caller's schedule keeps running while the node's threads join.
    pub fn kill(&mut self, id: ServerId) {
        if let Some(r) = self.nodes.get_mut(&id).and_then(|n| n.replica.take()) {
            self.retired.push(r.metrics_snapshot());
            self.reapers.push(std::thread::spawn(move || drop(r)));
        }
    }

    /// Starts restarting a killed node from its own store on a helper
    /// thread (opening a file store reads its whole log); poll
    /// [`Ensemble::poll_restart`] for completion.
    pub fn begin_restart(&mut self, id: ServerId) {
        let reapers: Vec<JoinHandle<()>> = self.reapers.drain(..).collect();
        let launcher = self.launcher.clone();
        let mem_store = Arc::clone(&self.nodes[&id].store);
        let thread = std::thread::spawn(move || {
            // The previous incarnation must have released the store.
            for h in reapers {
                let _ = h.join();
            }
            let store = match &launcher.spec.storage {
                StorageMode::Mem => Ok(Arc::clone(&mem_store)),
                StorageMode::File(_) => launcher.open_store(id),
            };
            match store {
                Ok(store) => (launcher.start(id, Arc::clone(&store)), store),
                Err(e) => (Err(e), mem_store),
            }
        });
        self.restart = Some(Restart { id, thread });
    }

    /// Installs a finished restart: `None` while none has finished,
    /// else the restarted id (or the start error).
    pub fn poll_restart(&mut self) -> Option<Result<ServerId, String>> {
        if !self.restart.as_ref()?.thread.is_finished() {
            return None;
        }
        let Restart { id, thread } = self.restart.take()?;
        Some(match thread.join() {
            Ok((Ok(replica), store)) => {
                self.nodes.insert(id, Node { replica: Some(replica), store });
                Ok(id)
            }
            Ok((Err(e), _)) => Err(e),
            Err(_) => Err("restart thread panicked".to_string()),
        })
    }

    /// Metrics of every incarnation: retired ones plus the live ones now.
    pub fn all_snapshots(&self) -> Vec<Snapshot> {
        let mut v = self.retired.clone();
        v.extend(self.live().map(|(_, r)| r.metrics_snapshot()));
        v
    }
}

impl Drop for Ensemble {
    fn drop(&mut self) {
        for n in self.nodes.values_mut() {
            drop(n.replica.take());
        }
        if let Some(r) = self.restart.take() {
            let _ = r.thread.join();
        }
        for h in self.reapers.drain(..) {
            let _ = h.join();
        }
    }
}
