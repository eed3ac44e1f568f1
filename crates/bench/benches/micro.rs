//! **M — implementation micro-benchmarks** (Criterion).
//!
//! Hot-path costs underneath the protocol figures: checksums, wire codec,
//! log appends (memory and file), data-tree operations, and a full
//! simulated broadcast round as an end-to-end sanity probe.
//!
//! Run: `cargo bench -p zab-bench`

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;
use zab_core::{Epoch, Message, Txn, Zxid};
use zab_kv::{DataTree, Op, PrimaryExecutor};
use zab_log::{FileStorage, MemStorage, Storage};
use zab_simnet::{ClosedLoopSpec, SimBuilder};
use zab_wire::crc32c::crc32c;
use zab_wire::frame::{encode_frame, FrameDecoder};

fn bench_crc(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32c");
    for size in [64usize, 1024, 65536] {
        let data = vec![0xA5u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("{size}B"), |b| b.iter(|| crc32c(black_box(&data))));
    }
    g.finish();
}

fn bench_frame(c: &mut Criterion) {
    let mut g = c.benchmark_group("frame");
    let payload = vec![7u8; 1024];
    g.throughput(Throughput::Bytes(1024));
    g.bench_function("encode_1KiB", |b| b.iter(|| encode_frame(black_box(&payload))));
    let wire = encode_frame(&payload);
    g.bench_function("decode_1KiB", |b| {
        b.iter(|| {
            let mut dec = FrameDecoder::new();
            dec.extend(black_box(&wire));
            dec.next_frame().expect("ok").expect("complete")
        })
    });
    g.finish();
}

fn bench_message_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("message");
    let msg = Message::Propose {
        txns: vec![Txn::new(Zxid::new(Epoch(3), 42), vec![9u8; 1024])],
        commit_up_to: Zxid::new(Epoch(3), 41),
    };
    g.throughput(Throughput::Bytes(1024));
    g.bench_function("encode_propose_1KiB", |b| b.iter(|| black_box(&msg).encode()));
    let wire = msg.encode();
    g.bench_function("decode_propose_1KiB", |b| {
        b.iter(|| Message::decode(black_box(&wire)).expect("decodes"))
    });
    g.finish();
}

fn bench_log_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("log_append_1KiB");
    g.throughput(Throughput::Elements(1));
    g.bench_function("mem", |b| {
        b.iter_batched(
            MemStorage::new,
            |mut s| {
                for i in 1..=64u32 {
                    s.append_txns(&[Txn::new(Zxid::new(Epoch(1), i), vec![1u8; 1024])])
                        .expect("append");
                }
                s.flush().expect("flush");
                s
            },
            BatchSize::SmallInput,
        )
    });
    let dir = std::env::temp_dir().join(format!("zab-bench-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    g.bench_function("file_group64", |b| {
        // Criterion may invoke this setup several times; resume the zxid
        // counter from whatever the previous phase left in the log.
        let mut s = FileStorage::open(&dir).expect("open");
        let mut n = s.recover().expect("recover").history.last_zxid().counter();
        b.iter(|| {
            for _ in 0..64 {
                n += 1;
                s.append_txns(&[Txn::new(Zxid::new(Epoch(1), n), vec![1u8; 1024])])
                    .expect("append");
            }
            s.flush().expect("flush");
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    g.finish();
}

fn bench_data_tree(c: &mut Criterion) {
    let mut g = c.benchmark_group("kv");
    g.bench_function("sequential_create", |b| {
        b.iter_batched(
            || PrimaryExecutor::new(DataTree::new()),
            |mut p| {
                for _ in 0..100 {
                    p.execute(&Op::create_sequential("/q-", vec![0u8; 64])).expect("create");
                }
                p
            },
            BatchSize::SmallInput,
        )
    });
    let mut tree = DataTree::new();
    let mut p = PrimaryExecutor::new(tree.clone());
    let (delta, _) = p.execute(&Op::create("/node", vec![0u8; 64])).expect("create");
    tree.apply(&delta).expect("apply");
    g.bench_function("snapshot_1k_nodes", |b| {
        let mut big = PrimaryExecutor::new(DataTree::new());
        for i in 0..1000 {
            big.execute(&Op::create(format!("/n{i}"), vec![0u8; 32])).expect("create");
        }
        let view = big.view().clone();
        b.iter(|| black_box(&view).snapshot())
    });
    g.finish();
}

const FANOUT_PAYLOADS: [usize; 4] = [1024, 4096, 16384, 65536];
const FANOUT_FOLLOWERS: [usize; 4] = [2, 4, 8, 16];

/// One leader fan-out: the broadcast hot path clones the message handle
/// once per follower (`Leader::broadcast`); with `Bytes` payloads this is
/// a refcount bump, never a payload copy.
fn fan_out(msg: &Message, followers: usize) -> Vec<Message> {
    let mut out = Vec::with_capacity(followers);
    for _ in 0..followers {
        out.push(black_box(msg).clone());
    }
    out
}

fn bench_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("fanout");
    for size in FANOUT_PAYLOADS {
        let msg = Message::Propose {
            txns: vec![Txn::new(Zxid::new(Epoch(1), 1), Bytes::from(vec![0xC3u8; size]))],
            commit_up_to: Zxid::ZERO,
        };
        for n in FANOUT_FOLLOWERS {
            g.throughput(Throughput::Elements(n as u64));
            g.bench_function(format!("{}KiB_x{n}", size / 1024), |b| b.iter(|| fan_out(&msg, n)));
        }
    }
    g.finish();

    // Hand-timed pass emitting machine-readable rows for CI: if the
    // zero-copy pipeline holds, ns_per_follower is flat across payload
    // sizes (a clone is a refcount bump, not a memcpy).
    let mut rows = Vec::new();
    for size in FANOUT_PAYLOADS {
        let msg = Message::Propose {
            txns: vec![Txn::new(Zxid::new(Epoch(1), 1), Bytes::from(vec![0xC3u8; size]))],
            commit_up_to: Zxid::ZERO,
        };
        for n in FANOUT_FOLLOWERS {
            for _ in 0..1_000 {
                black_box(fan_out(&msg, n));
            }
            let iters = 20_000u32;
            let start = Instant::now();
            for _ in 0..iters {
                black_box(fan_out(&msg, n));
            }
            let ns_per_op = start.elapsed().as_nanos() as f64 / f64::from(iters);
            rows.push(format!(
                "{{\"payload_bytes\":{size},\"followers\":{n},\"ns_per_fanout\":{:.1},\"ns_per_follower\":{:.2}}}",
                ns_per_op,
                ns_per_op / n as f64
            ));
        }
    }
    // All BENCH_*.json land at the repo root so the perf-trajectory
    // tracker finds them regardless of the bench's working directory.
    let out = std::env::var("BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fanout.json").into());
    if let Ok(mut f) = std::fs::File::create(&out) {
        let _ = writeln!(
            f,
            "{{\"bench\":\"leader_fanout\",\"unit\":\"ns\",\"rows\":[\n{}\n]}}",
            rows.join(",\n")
        );
    }
}

fn bench_simulated_broadcast(c: &mut Criterion) {
    // End-to-end: how fast the *simulator* chews through a committed op
    // (wall-clock cost of the reproduction itself, not protocol latency).
    let mut g = c.benchmark_group("simnet");
    g.sample_size(10);
    g.bench_function("broadcast_500_ops_n3", |b| {
        b.iter(|| {
            let mut sim = SimBuilder::new(3).seed(1).build();
            sim.run_until_leader(30_000_000).expect("leader");
            sim.install_closed_loop(ClosedLoopSpec::saturating(32, 256, 500));
            assert!(sim.run_until_completed(500, 600_000_000));
            sim.check_invariants().expect("safety");
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_crc,
    bench_frame,
    bench_message_codec,
    bench_log_append,
    bench_data_tree,
    bench_fanout,
    bench_simulated_broadcast
);
criterion_main!(benches);
