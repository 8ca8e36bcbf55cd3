//! Per-layer measurements taken from outside each layer: every span
//! brackets calls into that layer's public functions and says how many
//! operations it did, and the front end turns the spans into times per
//! operation. Repetition counts are fixed, so a traced run's length does
//! not depend on the host's speed. Exact counters come back in the
//! command's result.

use std::hint::black_box;

use bytes::Bytes;
use teenet::attest::AttestConfig;
use teenet_bench::{measure_packet_send, AttestBench};
use teenet_crypto::aes::Aes128;
use teenet_crypto::dh::{DhGroup, DhKeyPair};
use teenet_crypto::schnorr::{SchnorrGroup, SigningKey};
use teenet_crypto::sha256::sha256;
use teenet_crypto::SecureRng;
use teenet_load::scenarios::by_name;
use teenet_load::{Arrival, ArrivalProcess, Histogram, LoadRunner, RunMetrics};
use teenet_netsim::{FaultConfig, LinkConfig, Network};
use teenet_sgx::{TeeBackend, TransitionMode};

use crate::alloc::{counting, Allocs};
use crate::app_marks;
use crate::marks::Marks;
use crate::workload::{lossy_faults, Checks, Iteration, Replay, Workload};

/// Repetitions of every micro-measurement.
const REPS: usize = 5;

/// `REPS` spans named `name`, each running `body`, which does `ops`
/// operations.
fn repeat(marks: &mut Marks, name: &str, ops: u64, mut body: impl FnMut()) {
    for _ in 0..REPS {
        marks.span(name, ops, |_| body());
    }
}

pub fn crypto(marks: &mut Marks, seed: u64) {
    let mut rng = SecureRng::seed_from_u64(seed).fork(b"perfbench.crypto");
    let group = DhGroup::modp1024();
    let peer = DhKeyPair::generate(&group, &mut rng).expect("keypair");
    repeat(marks, "crypto.dh1024", 1, || {
        let mine = DhKeyPair::generate(&group, &mut rng).expect("keypair");
        black_box(mine.shared_secret(&peer.public).expect("secret"));
    });

    let sgroup = SchnorrGroup::standard();
    let key = SigningKey::generate(&sgroup, &mut rng).expect("key");
    let msg = b"perfbench quote body";
    let sig = key.sign(msg, &mut rng).expect("sig");
    repeat(marks, "crypto.schnorr_sign", 4, || {
        for _ in 0..4 {
            black_box(key.sign(black_box(msg), &mut rng).expect("sig"));
        }
    });
    repeat(marks, "crypto.schnorr_verify", 4, || {
        for _ in 0..4 {
            key.public.verify(black_box(msg), &sig).expect("valid");
        }
    });

    // Byte counts as operations: the front end reports these as MiB/s.
    let mut data = vec![0xa5u8; 64 * 1024];
    let bytes = 16 * data.len() as u64;
    repeat(marks, "crypto.sha256", bytes, || {
        for _ in 0..16 {
            black_box(sha256(black_box(&data)));
        }
    });
    let cipher = Aes128::new(&[7u8; 16]).expect("key");
    repeat(marks, "crypto.aes128", bytes, || {
        for _ in 0..16 {
            cipher.ctr_apply(&[0u8; 16], black_box(&mut data));
        }
    });

    // What the sharded replay does per session, three times over: derive
    // a seeded RNG and fork a labelled child from it.
    let forks = 10_000u64;
    repeat(marks, "crypto.rng_seed_fork", forks, || {
        for i in 0..forks {
            black_box(SecureRng::seed_from_u64(black_box(i)).fork(b"arrivals"));
        }
    });
}

pub fn sgx(marks: &mut Marks, seed: u64) {
    let config = AttestConfig::default();
    let mut bench = AttestBench::new(&config, seed);
    repeat(marks, "sgx.attest", 1, || {
        black_box(bench.run_once(&config));
    });
    repeat(marks, "sgx.packet_send", 1, || {
        black_box(measure_packet_send(1, true, seed));
    });
}

/// Calibrates each of the five paper scenarios (classic, SGX) twice per
/// repetition, inside one `app.rep` span: once through
/// `Scenario::calibrate` (span `calibrate.<scenario>`), and once through
/// the application-layer marking wrapper (span `calibrate.marked`, with
/// the `app.*` spans inside), whose result must be the same calibration.
pub fn app(marks: &mut Marks, seed: u64, checks: &mut Checks) {
    for _ in 0..3 {
        marks.span("app.rep", 1, |marks| {
            for name in teenet_load::NAMES {
                let plain = marks.span(&format!("calibrate.{name}"), 1, |_| {
                    by_name(name, seed).expect("registry name").calibrate()
                });
                let marked = marks.span("calibrate.marked", 1, |m| {
                    app_marks::calibrate(name, seed, TransitionMode::Classic, TeeBackend::Sgx, m)
                        .expect("registry name")
                });
                checks.check(
                    &format!("calibrate.wrapper_faithful[{name}]"),
                    marked == plain,
                    || "the marking wrapper changed the calibration".into(),
                );
            }
        });
    }
}

/// Pushes frames through a two-node network with the workload's link
/// shape and `faults`, alternating the calibrated request and response
/// sizes and directions, the way the replay engine drives `Network`.
fn netsim_packets(marks: &mut Marks, name: &str, link: &LinkConfig, frames: &[Bytes], seed: u64) {
    let packets = 20_000u64;
    repeat(marks, name, packets, || {
        let mut net = Network::new(seed);
        net.set_tracing(false);
        let server = net.add_node();
        let client = net.add_node();
        net.add_duplex_link(client, server, link.clone());
        let mut sent = 0u64;
        while sent < packets {
            for _ in 0..64 {
                let i = sent as usize % frames.len();
                // Even frames are requests, odd ones responses.
                let (src, dst) = [(client, server), (server, client)][i % 2];
                net.send(src, dst, frames[i].clone());
                sent += 1;
            }
            while let Some(at) = net.next_event_at() {
                net.run_until(at);
                for node in [server, client] {
                    while let Some(delivered) = net.recv_timed(node) {
                        black_box(delivered);
                    }
                }
            }
        }
    });
}

pub fn netsim(marks: &mut Marks, w: &Workload, first: &Iteration, seed: u64) {
    let load = &w.configs[0].load;
    // Frames never go out shorter than the replay engine's 24-byte header.
    let frames: Vec<Bytes> = first.calibrations[0]
        .ops
        .iter()
        .flat_map(|op| [op.request_bytes, op.response_bytes])
        .map(|len| Bytes::copy_from_slice(&vec![0x5au8; len.max(24)]))
        .collect();
    for (name, faults) in [
        ("netsim.clean", FaultConfig::default()),
        ("netsim.lossy", lossy_faults()),
    ] {
        let link = LinkConfig {
            latency: load.latency,
            bandwidth_bps: load.bandwidth_bps,
            faults,
        };
        netsim_packets(marks, name, &link, &frames, seed);
    }
}

/// The arrival process, latency histogram and run-metrics merge, each in
/// isolation. `rate` is the workload's open-loop rate; a closed loop
/// draws no Poisson gaps, so its arrival process is marked at a nominal
/// rate, which the cost of a draw does not depend on.
pub fn load_parts(marks: &mut Marks, first: &Iteration, seed: u64) {
    let rate = Some(first.reports[0].rate_per_sec)
        .filter(|&r| r > 0.0)
        .unwrap_or(10_000.0);
    let n = 100_000u64;
    let rng = SecureRng::seed_from_u64(seed).fork(b"arrivals");
    repeat(marks, "arrival.next", n, || {
        let open = Arrival::OpenLoop { rate_per_sec: rate };
        let mut arrivals = ArrivalProcess::new(open, n, rng.clone());
        while let Some(next) = arrivals.next_arrival() {
            black_box(next);
        }
    });

    let mut values_rng = SecureRng::seed_from_u64(seed).fork(b"perfbench.hist");
    let values: Vec<u64> = (0..n)
        .map(|_| 1_000_000 + values_rng.gen_range(50_000_000))
        .collect();
    repeat(marks, "hist.record", n, || {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(black_box(v));
        }
        black_box(h);
    });

    let pairs = 2_000u64;
    repeat(marks, "metrics.new_merge", pairs, || {
        let mut acc = RunMetrics::new();
        for _ in 0..pairs {
            acc.merge(black_box(&RunMetrics::new()));
        }
        black_box(acc);
    });
}

/// Renders the workload's reports as JSON and as text.
pub fn report(marks: &mut Marks, first: &Iteration) {
    let renders = 20u64;
    repeat(marks, "report.json", renders, || {
        for _ in 0..renders {
            for r in &first.reports {
                black_box(r.json());
            }
        }
    });
    repeat(marks, "report.text", renders, || {
        for _ in 0..renders {
            for r in &first.reports {
                black_box(r.text());
            }
        }
    });
}

/// Counts that must repeat exactly: `name` fails unless every window
/// allocated the same.
fn check_repeatable(checks: &mut Checks, name: &str, allocs: &[Allocs]) {
    checks.check(name, allocs.windows(2).all(|p| p[0] == p[1]), || {
        format!("allocation counts differ between identical replays: {allocs:?}")
    });
}

/// The serial streaming engine on the workload's configurations, through
/// `run_with_stats`, three times (spans `runner.replay`). Returns its
/// resource counters and allocations per session as a JSON object body.
pub fn runner(marks: &mut Marks, w: &Workload, first: &Iteration, checks: &mut Checks) -> String {
    let sessions = w.sessions() as f64;
    let mut allocs = Vec::new();
    let (mut live, mut heap, mut slots) = (0, 0, 0);
    for _ in 0..3 {
        let used = marks.span("runner.replay", w.sessions(), |_| {
            let mut rep = Allocs::default();
            for (i, config) in w.configs.iter().enumerate() {
                let runner = LoadRunner::new(config.load.clone());
                let ((report, stats), used) =
                    counting(|| runner.run_with_stats(config.scenario, &first.calibrations[i]));
                rep += used;
                live = live.max(stats.peak_live_sessions);
                heap = heap.max(stats.peak_heap_events);
                slots = slots.max(stats.slots_allocated);
                if w.replay == Replay::Serial {
                    checks.check(
                        &format!("runner.stats_report[{}]", config.label),
                        report.json() == first.jsons[i],
                        || "run_with_stats disagrees with run".into(),
                    );
                }
            }
            rep
        });
        allocs.push(used);
    }
    check_repeatable(checks, "alloc.repeatable[runner]", &allocs);
    format!(
        "\"runner.peak_live_sessions\": {live}, \"runner.peak_heap_events\": {heap}, \
         \"runner.slots_allocated\": {slots}, \"runner.allocs_per_session\": {}, \
         \"runner.alloc_bytes_per_session\": {}",
        allocs[0].calls as f64 / sessions,
        allocs[0].bytes as f64 / sessions
    )
}

/// The sharded replay model on the workload's configurations, on one
/// thread and on every available one, alternately, twice each (spans
/// `shard.replay_1t`, `shard.replay_nt`). Returns the thread count and
/// allocations per session as a JSON object body.
pub fn shard(marks: &mut Marks, w: &Workload, first: &Iteration, checks: &mut Checks) -> String {
    let n = crate::host::parallelism();
    let sharded = |marks: &mut Marks, threads: u32, name: &str| {
        marks.span(name, w.sessions(), |_| {
            let mut allocs = Allocs::default();
            let mut jsons = Vec::new();
            for (config, calibration) in w.configs.iter().zip(&first.calibrations) {
                let runner = LoadRunner::new(config.load.clone());
                let (report, used) =
                    counting(|| runner.run_sharded(config.scenario, calibration, threads));
                allocs += used;
                jsons.push(report.json());
            }
            (allocs, jsons)
        })
    };
    let mut allocs = Vec::new();
    let mut identical = true;
    for _ in 0..2 {
        let (_, one) = sharded(marks, 1, "shard.replay_1t");
        let (used, all) = sharded(marks, n, "shard.replay_nt");
        allocs.push(used);
        identical &= one == all;
    }
    checks.check(
        "shard.identical_1t_nt[all configurations]",
        identical,
        || format!("1-thread and {n}-thread reports differ"),
    );
    check_repeatable(checks, "alloc.repeatable[shard]", &allocs);
    format!(
        "\"shard.threads\": {n}, \"shard.allocs_per_session\": {}",
        allocs[0].calls as f64 / w.sessions() as f64
    )
}
