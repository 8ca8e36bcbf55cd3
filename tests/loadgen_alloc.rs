//! Allocation-count regression gate for the streaming engine's hot path.
//!
//! The engine ships each message's 24-byte wire header alone as one
//! `Bytes` and leaves the frame's zero padding to the network, which
//! never materialises it, so a message costs one allocation and the
//! allocated bytes do not depend on frame size. This test pins both with
//! a counting global allocator: the whole binary runs under an allocator
//! that counts every `alloc` call and the bytes it asks for, a serial
//! run may allocate one `Bytes` per packet sent plus a small constant,
//! and replaying the same script with 64-byte and 4,096-byte frames must
//! allocate exactly the same bytes. Sharded replay is held to one
//! allocation per packet sent plus a constant per shard. The report of
//! the counted serial run is checked against the naive oracle
//! (`support/naive_replay.rs`) outside the counted window.
//!
//! One `#[test]` only: a `#[global_allocator]` is process-wide state, and
//! Rust runs tests in one process — a single test keeps the counting
//! windows race-free without cross-test ordering assumptions.

#[path = "support/naive_replay.rs"]
mod naive_replay;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use teenet_load::scenario::{Calibration, OpProfile};
use teenet_load::{LoadConfig, LoadMode, LoadRunner};
use teenet_sgx::cost::Counters;
use teenet_sgx::{TeeBackend, TransitionStats};

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// What a serial run may allocate besides its packets: the engine's
/// network, session slab, heaps, timeout FIFO and metrics.
const PER_RUN_ALLOCS: u64 = 64;

/// What a shard may allocate besides its packets: its engine (network,
/// session slab, heaps, metrics), its scheduling aggregates and its
/// thread.
const PER_SHARD_ALLOCS: u64 = 48;

fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Bytes requested from the allocator (fresh allocations plus the new
/// size of every reallocation) while `f` runs.
fn bytes_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOC_BYTES.load(Ordering::Relaxed) - before)
}

fn c(sgx: u64, normal: u64) -> Counters {
    Counters {
        sgx_instr: sgx,
        normal_instr: normal,
    }
}

/// [`toy_calibration`] with every request and response `frame` bytes long.
fn toy_calibration_framed(frame: usize) -> Calibration {
    let mut cal = toy_calibration();
    for op in &mut cal.ops {
        op.request_bytes = frame;
        op.response_bytes = frame;
    }
    cal
}

/// A synthetic two-op script (no real-enclave calibration, so the counted
/// window contains nothing but the replay itself).
fn toy_calibration() -> Calibration {
    Calibration {
        setup: c(10, 1_000_000),
        ops: vec![
            OpProfile {
                name: "hello",
                client: c(0, 50_000),
                server: c(4, 500_000),
                request_bytes: 128,
                response_bytes: 64,
                transitions: TransitionStats::default(),
            },
            OpProfile {
                name: "work",
                client: c(0, 10_000),
                server: c(8, 2_000_000),
                request_bytes: 256,
                response_bytes: 1024,
                transitions: TransitionStats::default(),
            },
        ],
        mode: Default::default(),
        backend: TeeBackend::Sgx,
        switchless: Default::default(),
    }
}

#[test]
fn streaming_engine_allocates_one_bytes_per_packet() {
    let sessions = 400u64;
    let ops = 2u64;
    // Clean links, closed loop: exactly one request + one response per op
    // crosses the wire, so the message count is deterministic.
    let messages = sessions * ops * 2;
    let cal = toy_calibration();
    let cfg = LoadConfig::new(sessions, 7, LoadMode::Closed { concurrency: 16 });
    let runner = LoadRunner::new(cfg.clone());

    // Warm up once so lazily initialised process state (stdio, cost-model
    // tables) doesn't land in the counted window.
    runner.run("toy", &cal);

    let (stream_report, stream_allocs) = allocs_during(|| runner.run("toy", &cal));
    naive_replay::assert_matches_oracle("toy", &cfg, &cal, &stream_report);
    assert_eq!(stream_report.completed, sessions);
    assert_eq!(
        stream_report.net.sent, messages,
        "clean links: no retransmissions"
    );

    // One Bytes copy per packet plus the run's fixed set-up (slab growth,
    // heap and FIFO amortisation): no framing buffer per message.
    assert!(
        stream_allocs <= stream_report.net.sent + PER_RUN_ALLOCS,
        "streaming hot path regressed: {stream_allocs} allocs for {} packets",
        stream_report.net.sent
    );

    // Sharded replay: each shard builds one engine and rewinds it per
    // session, accumulating into one set of metrics, so a session costs
    // exactly its packets' `Bytes` copies. Everything else — the shard's
    // engine, its metrics, its thread — is a constant per shard.
    for shards in [1u32, 2, 4] {
        let (report, allocs) = allocs_during(|| runner.run_sharded("toy", &cal, shards));
        assert_eq!(report.completed, sessions);
        assert_eq!(report.net.sent, messages, "clean links: no retransmissions");
        let budget = report.net.sent + PER_SHARD_ALLOCS * shards as u64;
        assert!(
            allocs <= budget,
            "sharded replay allocates per session beyond its packets: {allocs} allocs for \
             {} packets on {shards} shard(s) (budget {budget})",
            report.net.sent
        );
    }

    // Frame padding is never materialised: with infinite bandwidth the
    // frame size changes no event, so streaming replay with 4,096-byte
    // frames must allocate exactly the bytes it does with 64-byte frames.
    let mut cfg = LoadConfig::new(sessions, 7, LoadMode::Closed { concurrency: 16 });
    cfg.bandwidth_bps = None;
    let runner = LoadRunner::new(cfg);
    let (small, large) = (toy_calibration_framed(64), toy_calibration_framed(4096));
    runner.run("toy", &small);
    let (small_report, small_bytes) = bytes_during(|| runner.run("toy", &small));
    let (large_report, large_bytes) = bytes_during(|| runner.run("toy", &large));
    assert_eq!(small_report.completed, sessions);
    assert_eq!(large_report.completed, sessions);
    assert_eq!(
        small_bytes, large_bytes,
        "streaming replay allocated frame padding: {small_bytes} B with 64-byte frames, \
         {large_bytes} B with 4,096-byte frames"
    );
}
