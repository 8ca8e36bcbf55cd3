//! Allocation-count regression gate for the streaming engine's hot path.
//!
//! The retained reference engine allocates a fresh `Vec<u8>` per framed
//! message plus the `Bytes` it is moved into. The streaming engine ships
//! the 24-byte wire header alone as one `Bytes` and leaves the frame's
//! zero padding to the network, which never materialises it, so its
//! allocation count per message is strictly lower and its allocated
//! bytes do not depend on frame size. This test pins both with a
//! counting global allocator: the whole binary runs under an allocator
//! that counts every `alloc` call and the bytes it asks for, the
//! streaming run must allocate measurably less than the retained
//! reference run on identical work, and replaying the same script with
//! 64-byte and 4,096-byte frames must allocate exactly the same bytes.
//! Sharded replay is held to one allocation per packet sent plus a
//! constant per shard.
//!
//! One `#[test]` only: a `#[global_allocator]` is process-wide state, and
//! Rust runs tests in one process — a single test keeps the counting
//! windows race-free without cross-test ordering assumptions.

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
fn streaming_engine_allocates_less_than_reference_per_message() {
    let sessions = 400u64;
    let ops = 2u64;
    // Clean links, closed loop: exactly one request + one response per op
    // crosses the wire, so the message count is deterministic.
    let messages = sessions * ops * 2;
    let cal = toy_calibration();
    let cfg = LoadConfig::new(sessions, 7, LoadMode::Closed { concurrency: 16 });
    let runner = LoadRunner::new(cfg);

    // Warm both paths once so lazily initialised process state (stdio,
    // cost-model tables) doesn't land in either counted window.
    let warm_stream = runner.run("toy", &cal);
    let warm_ref = runner.run_reference("toy", &cal).unwrap();
    assert_eq!(warm_stream.json(), warm_ref.json());

    let (stream_report, stream_allocs) = allocs_during(|| runner.run("toy", &cal));
    let (ref_report, ref_allocs) = allocs_during(|| runner.run_reference("toy", &cal).unwrap());
    assert_eq!(stream_report.json(), ref_report.json());
    assert_eq!(stream_report.completed, sessions);

    // The reference path allocates a fresh framing Vec per message on top
    // of the per-message Bytes; the streaming path sends the header alone
    // as one Bytes but pays a small bounded bookkeeping overhead (slab
    // growth, event-heap amortisation). Require the gap
    // to stay within that slack of one-allocation-per-message.
    assert!(
        ref_allocs > stream_allocs + (messages * 3) / 4,
        "streaming must save ~1 alloc/message: \
         reference {ref_allocs}, streaming {stream_allocs}, messages {messages}"
    );

    // Absolute hot-path bound: one Bytes copy per message plus bounded
    // bookkeeping (slab/heap amortisation) — not the reference engine's
    // ~2+/message.
    assert!(
        stream_allocs <= messages * 2,
        "streaming hot path regressed: {stream_allocs} allocs for {messages} messages"
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
