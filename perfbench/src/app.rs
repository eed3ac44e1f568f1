//! The benchmark's own application: constant-size state (op count,
//! running digest, applied zxid), so memory measures the replication
//! pipeline and not an ever-growing application log.

use crate::procstat::{tag_current, Role};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;
use zab_core::{Txn, Zxid};
use zab_node::Application;

/// Payload size of every client op.
pub const PAYLOAD: usize = 1024;

/// The op id carried in a payload's first 8 bytes.
pub fn op_id(data: &[u8]) -> Option<u64> {
    data.get(..8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Folds one applied op into a running digest. The client folds the ops
/// it saw delivered the same way, so the two can be compared.
pub fn fold(digest: u64, zxid: u64, op: u64) -> u64 {
    mix(digest ^ mix(zxid.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ op))
}

/// Apply-side accounting shared by every replica's app in one ensemble.
#[derive(Debug, Default)]
pub struct AppStats {
    /// Wall time inside `apply`, ns (only when timing is on).
    pub apply_ns: AtomicU64,
}

/// The replicated state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct State {
    /// Ops applied.
    pub count: u64,
    /// [`fold`] over every applied `(zxid, op)`, in apply order.
    pub digest: u64,
    /// Zxid of the last applied op.
    pub applied: u64,
}

/// See the module docs.
pub struct BenchApp {
    state: State,
    stats: Arc<AppStats>,
    timed: bool,
}

impl BenchApp {
    /// A fresh app; `timed` turns on per-apply wall timing.
    pub fn new(stats: Arc<AppStats>, timed: bool) -> BenchApp {
        BenchApp { state: State { count: 0, digest: 0, applied: 0 }, stats, timed }
    }

    /// The committed state.
    pub fn state(&self) -> State {
        self.state
    }
}

impl Application for BenchApp {
    fn execute(&mut self, request: &[u8]) -> Result<Vec<u8>, String> {
        Ok(request.to_vec())
    }

    fn apply(&mut self, txn: &Txn) {
        tag_current(Role::Loop);
        let t0 = self.timed.then(Instant::now);
        let op = op_id(&txn.data).unwrap_or(u64::MAX);
        self.state.count += 1;
        self.state.digest = fold(self.state.digest, txn.zxid.0, op);
        self.state.applied = txn.zxid.0;
        if let Some(t0) = t0 {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.stats.apply_ns.fetch_add(ns, Relaxed);
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        [self.state.count, self.state.digest, self.state.applied]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect()
    }

    fn install(&mut self, snapshot: &[u8], zxid: Zxid) -> Result<(), String> {
        if snapshot.len() != 24 {
            return Err(format!("snapshot is {} bytes, want 24", snapshot.len()));
        }
        let word =
            |i: usize| u64::from_le_bytes(snapshot[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        let state = State { count: word(0), digest: word(1), applied: word(2) };
        if state.applied != zxid.0 {
            return Err(format!(
                "snapshot covers {:#x}, installed at {:#x}",
                state.applied, zxid.0
            ));
        }
        self.state = state;
        Ok(())
    }

    fn applied_to(&self) -> Zxid {
        Zxid(self.state.applied)
    }

    fn on_role_change(&mut self, _is_primary: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use zab_core::Epoch;

    fn txn(c: u32, op: u64) -> Txn {
        let mut data = vec![0u8; PAYLOAD];
        data[..8].copy_from_slice(&op.to_le_bytes());
        Txn::new(Zxid::new(Epoch(1), c), data)
    }

    #[test]
    fn snapshot_round_trips_and_digest_matches_client_fold() {
        let mut a = BenchApp::new(Arc::default(), true);
        let mut want = 0;
        for (c, op) in [(1, 10), (2, 11), (3, 12)] {
            a.apply(&txn(c, op));
            want = fold(want, Zxid::new(Epoch(1), c).0, op);
        }
        assert_eq!(a.state().digest, want);
        let mut b = BenchApp::new(Arc::default(), false);
        b.install(&a.snapshot(), a.applied_to()).expect("install");
        assert_eq!(a.state(), b.state());
        assert!(b.install(&[0; 23], Zxid(0)).is_err());
        assert!(b.install(&a.snapshot(), Zxid(1)).is_err());
    }
}
