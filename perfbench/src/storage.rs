//! A timing [`Storage`] decorator: the `log.*` per-layer ledger measured
//! from outside `zab-log`, around the calls the replica makes into it.
//!
//! The wrapped store sits behind an `Arc<Mutex<_>>` so a killed replica's
//! state outlives it: restarting a node hands the same store to the new
//! incarnation, as a process restart finds its files again (a clean kill
//! keeps unsynced page-cache writes, so this is not a power-loss test).

use crate::procstat::{tag_current, Role};
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use zab_core::{Epoch, Txn, Zxid};
use zab_log::{LogMetrics, Recovered, Storage, StorageError};

/// A store shared across a node's incarnations.
pub type SharedStore = Arc<Mutex<Box<dyn Storage + Send>>>;

/// Wraps a store for sharing.
pub fn shared(store: impl Storage + Send + 'static) -> SharedStore {
    Arc::new(Mutex::new(Box::new(store)))
}

/// Counters shared by every decorator of one ensemble.
#[derive(Debug, Default)]
pub struct LogStats {
    appends: AtomicU64,
    txns_appended: AtomicU64,
    append_ns: AtomicU64,
    flushes: AtomicU64,
    txns_flushed: AtomicU64,
    compacts: AtomicU64,
    compact_ns: AtomicU64,
    compact_max_ns: AtomicU64,
    recover_max_ns: AtomicU64,
    flush_ns: Mutex<Vec<u64>>,
}

/// A point-in-time copy of [`LogStats`]; subtract two for a window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LogTotals {
    /// `append_txns` calls.
    pub appends: u64,
    /// Transactions in those calls.
    pub txns_appended: u64,
    /// Wall time inside `append_txns`, ns.
    pub append_ns: u64,
    /// `flush` calls.
    pub flushes: u64,
    /// Transactions made durable by those flushes.
    pub txns_flushed: u64,
    /// `compact` calls.
    pub compacts: u64,
    /// Wall time inside `compact`, ns.
    pub compact_ns: u64,
    /// Index into the flush-duration log where this copy was taken (for
    /// a window made by [`LogTotals::since`], where it ended).
    pub flush_mark: usize,
}

impl LogStats {
    /// Current totals.
    pub fn totals(&self) -> LogTotals {
        LogTotals {
            appends: self.appends.load(Relaxed),
            txns_appended: self.txns_appended.load(Relaxed),
            append_ns: self.append_ns.load(Relaxed),
            flushes: self.flushes.load(Relaxed),
            txns_flushed: self.txns_flushed.load(Relaxed),
            compacts: self.compacts.load(Relaxed),
            compact_ns: self.compact_ns.load(Relaxed),
            flush_mark: self.flush_ns.lock().expect("flush log lock poisoned").len(),
        }
    }

    /// Flush durations (µs) recorded between two marks.
    pub fn flush_us_between(&self, from: usize, to: usize) -> Vec<f64> {
        let log = self.flush_ns.lock().expect("flush log lock poisoned");
        log.get(from..to).unwrap_or_default().iter().map(|&ns| ns as f64 / 1e3).collect()
    }

    /// Longest single `compact`, ns, over the whole run.
    pub fn compact_max_ns(&self) -> u64 {
        self.compact_max_ns.load(Relaxed)
    }

    /// Longest single `recover`, ns, over the whole run.
    pub fn recover_max_ns(&self) -> u64 {
        self.recover_max_ns.load(Relaxed)
    }
}

impl LogTotals {
    /// `self − earlier`, counter by counter.
    pub fn since(&self, earlier: &LogTotals) -> LogTotals {
        LogTotals {
            appends: self.appends - earlier.appends,
            txns_appended: self.txns_appended - earlier.txns_appended,
            append_ns: self.append_ns - earlier.append_ns,
            flushes: self.flushes - earlier.flushes,
            txns_flushed: self.txns_flushed - earlier.txns_flushed,
            compacts: self.compacts - earlier.compacts,
            compact_ns: self.compact_ns - earlier.compact_ns,
            flush_mark: self.flush_mark,
        }
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The decorator handed to `Replica::start_with_storage`.
pub struct Timed {
    inner: SharedStore,
    stats: Arc<LogStats>,
    /// Transactions appended since the last flush.
    unflushed: u64,
}

impl Timed {
    /// Decorates `inner`, reporting into `stats`.
    pub fn new(inner: SharedStore, stats: Arc<LogStats>) -> Timed {
        Timed { inner, stats, unflushed: 0 }
    }

    fn store(&self) -> std::sync::MutexGuard<'_, Box<dyn Storage + Send>> {
        self.inner.lock().expect("store lock poisoned")
    }
}

impl Storage for Timed {
    fn set_accepted_epoch(&mut self, epoch: Epoch) -> Result<(), StorageError> {
        self.store().set_accepted_epoch(epoch)
    }

    fn set_current_epoch(&mut self, epoch: Epoch) -> Result<(), StorageError> {
        self.store().set_current_epoch(epoch)
    }

    fn append_txns(&mut self, txns: &[Txn]) -> Result<(), StorageError> {
        let t0 = Instant::now();
        let r = self.store().append_txns(txns);
        self.stats.append_ns.fetch_add(elapsed_ns(t0), Relaxed);
        self.stats.appends.fetch_add(1, Relaxed);
        self.stats.txns_appended.fetch_add(txns.len() as u64, Relaxed);
        self.unflushed += txns.len() as u64;
        r
    }

    fn truncate(&mut self, to: Zxid) -> Result<(), StorageError> {
        self.store().truncate(to)
    }

    fn reset_to_snapshot(&mut self, snapshot: Bytes, zxid: Zxid) -> Result<(), StorageError> {
        self.store().reset_to_snapshot(snapshot, zxid)
    }

    fn compact(&mut self, snapshot: Bytes, zxid: Zxid) -> Result<(), StorageError> {
        let t0 = Instant::now();
        let r = self.store().compact(snapshot, zxid);
        let ns = elapsed_ns(t0);
        self.stats.compacts.fetch_add(1, Relaxed);
        self.stats.compact_ns.fetch_add(ns, Relaxed);
        self.stats.compact_max_ns.fetch_max(ns, Relaxed);
        r
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        tag_current(Role::Disk);
        let t0 = Instant::now();
        let r = self.store().flush();
        let ns = elapsed_ns(t0);
        self.stats.flushes.fetch_add(1, Relaxed);
        self.stats.txns_flushed.fetch_add(std::mem::take(&mut self.unflushed), Relaxed);
        self.stats.flush_ns.lock().expect("flush log lock poisoned").push(ns);
        r
    }

    fn recover(&self) -> Result<Recovered, StorageError> {
        let t0 = Instant::now();
        let r = self.store().recover();
        self.stats.recover_max_ns.fetch_max(elapsed_ns(t0), Relaxed);
        r
    }

    fn set_metrics(&mut self, metrics: LogMetrics) {
        self.store().set_metrics(metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zab_log::MemStorage;
    use zab_metrics::Registry;

    fn txn(c: u32) -> Txn {
        Txn::new(Zxid::new(Epoch(1), c), vec![c as u8; 16])
    }

    /// Every trait method reaches the wrapped store (its effects show in
    /// `recover`), and `set_metrics` is forwarded, so the store's own
    /// `log.*` counters keep filling behind the decorator.
    #[test]
    fn forwards_every_method_including_set_metrics() {
        let stats = Arc::new(LogStats::default());
        let inner = shared(MemStorage::new());
        let mut s = Timed::new(Arc::clone(&inner), Arc::clone(&stats));
        let reg = Registry::new();
        s.set_metrics(LogMetrics::registered(&reg));

        s.set_accepted_epoch(Epoch(3)).expect("accepted");
        s.set_current_epoch(Epoch(2)).expect("current");
        s.append_txns(&[txn(1), txn(2), txn(3)]).expect("append");
        s.append_txns(&[txn(4)]).expect("append");
        s.flush().expect("flush");
        s.truncate(Zxid::new(Epoch(1), 3)).expect("truncate");
        s.compact(Bytes::from_static(b"snap"), Zxid::new(Epoch(1), 2)).expect("compact");
        let rec = s.recover().expect("recover");
        assert_eq!(rec.accepted_epoch, Epoch(3));
        assert_eq!(rec.current_epoch, Epoch(2));
        assert_eq!(rec.history.base(), Zxid::new(Epoch(1), 2));
        assert_eq!(rec.history.last_zxid(), Zxid::new(Epoch(1), 3));
        assert_eq!(rec.snapshot.as_deref(), Some(&b"snap"[..]));

        s.reset_to_snapshot(Bytes::from_static(b"reset"), Zxid::new(Epoch(1), 9)).expect("reset");
        let rec = inner.lock().expect("lock").recover().expect("recover");
        assert_eq!(rec.history.last_zxid(), Zxid::new(Epoch(1), 9));

        let snap = reg.snapshot();
        assert_eq!(snap.counter("log.appends"), 2, "store's own counters fill");
        assert!(snap.counter("log.fsyncs") >= 1);

        let t = stats.totals();
        assert_eq!((t.appends, t.txns_appended), (2, 4));
        assert_eq!((t.flushes, t.txns_flushed), (1, 4));
        assert_eq!(t.compacts, 1);
        assert_eq!(stats.flush_us_between(0, t.flush_mark).len(), 1);
        assert!(stats.recover_max_ns() > 0);
    }

    #[test]
    fn totals_subtract_into_a_window() {
        let stats = Arc::new(LogStats::default());
        let mut s = Timed::new(shared(MemStorage::new()), Arc::clone(&stats));
        s.append_txns(&[txn(1)]).expect("append");
        s.flush().expect("flush");
        let start = stats.totals();
        s.append_txns(&[txn(2), txn(3)]).expect("append");
        s.flush().expect("flush");
        let w = stats.totals().since(&start);
        assert_eq!((w.appends, w.txns_appended, w.flushes, w.txns_flushed), (1, 2, 1, 2));
        assert_eq!(stats.flush_us_between(start.flush_mark, w.flush_mark).len(), 1);
    }
}
