//! Workspace-level contract of the streaming engine: generating sessions
//! lazily, recycling their slots, scheduling open-loop arrivals one at a
//! time, keeping timeouts in a FIFO, booking workers from a heap,
//! draining only ready inboxes and never materialising frame padding
//! must be *invisible* — for every paper scenario, in both transition
//! modes and both arrival disciplines, the engine's report is
//! byte-identical to the naive oracle's (`support/naive_replay.rs`,
//! calibration against real enclaves included) and obeys the operational
//! laws. Sharded replay stays shard-count independent on top of it, and
//! the resource diagnostics prove the memory actually is O(live
//! sessions).

#[path = "support/naive_replay.rs"]
mod naive_replay;

use naive_replay::assert_matches_oracle;
use proptest::prelude::*;
use teenet_load::scenario::{Calibration, OpProfile};
use teenet_load::scenarios::{by_name, by_name_mode, NAMES};
use teenet_load::{LoadConfig, LoadMode, LoadRunner};
use teenet_netsim::fault::FaultConfig;
use teenet_netsim::SimDuration;
use teenet_sgx::cost::Counters;
use teenet_sgx::{TeeBackend, TransitionMode, TransitionStats};

const SEED: u64 = 23;
const SESSIONS: u64 = 150;

fn config(mode: LoadMode) -> LoadConfig {
    let mut cfg = LoadConfig::new(SESSIONS, SEED, mode);
    // Faults force retransmissions, stale timeouts and duplicate
    // deliveries — the paths where retirement could diverge from the
    // oracle's done/failed-flag bookkeeping.
    cfg.faults = FaultConfig {
        drop_chance: 0.04,
        corrupt_chance: 0.03,
        duplicate_chance: 0.02,
        ..FaultConfig::default()
    };
    cfg
}

#[test]
fn every_scenario_streams_byte_identically_to_the_reference() {
    for name in NAMES {
        for tmode in [TransitionMode::Classic, TransitionMode::Switchless] {
            let mut scenario = by_name_mode(name, SEED, tmode).expect("known scenario");
            let calibration = scenario.calibrate();
            for lmode in [
                LoadMode::Open { rate_per_sec: None },
                LoadMode::Closed { concurrency: 8 },
            ] {
                let cfg = config(lmode);
                let streaming = LoadRunner::new(cfg.clone()).run(scenario.name(), &calibration);
                let label = format!("{name}/{}/{:?}", tmode.as_str(), lmode);
                assert_matches_oracle(&label, &cfg, &calibration, &streaming);
                assert_eq!(
                    streaming.completed + streaming.failed,
                    SESSIONS,
                    "{label}: every session must resolve"
                );
            }
        }
    }
}

#[test]
fn sharded_replay_stays_shard_count_independent_over_streaming_shards() {
    // Shards now run the streaming engine internally and reduce their
    // scheduling state on the fly; the shard-count byte-identity contract
    // must survive that.
    for name in ["tls", "keystore"] {
        let mut scenario = by_name_mode(name, SEED, TransitionMode::Classic).unwrap();
        let calibration = scenario.calibrate();
        for lmode in [
            LoadMode::Open { rate_per_sec: None },
            LoadMode::Closed { concurrency: 8 },
        ] {
            let runner = LoadRunner::new(config(lmode));
            let one = runner.run_sharded(scenario.name(), &calibration, 1);
            let four = runner.run_sharded(scenario.name(), &calibration, 4);
            assert_eq!(one.json(), four.json(), "{name}/{lmode:?}: 1 vs 4 shards");
            assert_eq!(one.text(), four.text(), "{name}/{lmode:?}: text rendering");
        }
    }
}

#[test]
fn retirement_bounds_live_slots_by_concurrency() {
    // Closed loop with a clean network: exactly `concurrency` sessions
    // are in flight at any instant, so the slab never grows past it —
    // each retired session's slot is recycled by its replacement.
    let mut scenario = by_name_mode("tls", SEED, TransitionMode::Classic).unwrap();
    let calibration = scenario.calibrate();
    let concurrency = 16u32;
    let cfg = LoadConfig::new(2_000, SEED, LoadMode::Closed { concurrency });
    let (report, stats) = LoadRunner::new(cfg).run_with_stats(scenario.name(), &calibration);
    assert_eq!(report.completed, 2_000);
    assert_eq!(
        stats.peak_live_sessions,
        u64::from(concurrency),
        "live slots must equal the closed-loop concurrency"
    );
    assert_eq!(
        stats.slots_allocated,
        u64::from(concurrency),
        "only the initial batch ever allocates a slot"
    );

    // Under faults, abandoned sessions retire too; retransmits keep
    // sessions live longer but never add slots beyond the in-flight set.
    let mut cfg = LoadConfig::new(2_000, SEED, LoadMode::Closed { concurrency });
    cfg.faults = FaultConfig {
        drop_chance: 0.05,
        ..FaultConfig::default()
    };
    let (report, stats) = LoadRunner::new(cfg).run_with_stats(scenario.name(), &calibration);
    assert_eq!(report.completed + report.failed, 2_000);
    assert_eq!(
        stats.peak_live_sessions,
        u64::from(concurrency),
        "faulty runs still cap live sessions at concurrency"
    );
}

#[test]
fn open_loop_heap_is_o_live_not_o_sessions() {
    let mut scenario = by_name_mode("attest", SEED, TransitionMode::Classic).unwrap();
    let calibration = scenario.calibrate();
    let n = 3_000u64;
    let cfg = LoadConfig::new(n, SEED, LoadMode::Open { rate_per_sec: None });
    let (report, streaming) = LoadRunner::new(cfg).run_with_stats(scenario.name(), &calibration);
    assert_eq!(report.completed, n);
    assert!(
        streaming.peak_heap_events < n / 8,
        "streaming heap must stay O(live): {} events for {n} sessions",
        streaming.peak_heap_events
    );
    assert!(
        streaming.peak_live_sessions < n / 8,
        "open-loop sessions must retire as they complete: {} live peak",
        streaming.peak_live_sessions
    );
}

fn c(sgx: u64, normal: u64) -> Counters {
    Counters {
        sgx_instr: sgx,
        normal_instr: normal,
    }
}

/// A synthetic two-op script: a cheap handshake then a pricier body.
fn toy_calibration() -> Calibration {
    let transitions = |taken| TransitionStats {
        taken,
        ..TransitionStats::default()
    };
    Calibration {
        setup: c(10, 1_000_000),
        ops: vec![
            OpProfile {
                name: "hello",
                client: c(0, 50_000),
                server: c(4, 500_000),
                request_bytes: 128,
                response_bytes: 64,
                transitions: transitions(2),
            },
            OpProfile {
                name: "work",
                client: c(0, 10_000),
                server: c(8, 2_000_000),
                request_bytes: 256,
                response_bytes: 1024,
                transitions: transitions(4),
            },
        ],
        mode: Default::default(),
        backend: TeeBackend::Sgx,
        switchless: Default::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The engine is observationally identical to the naive oracle across
    /// random seeds, loop disciplines and fault mixes: same text, same
    /// JSON, byte for byte.
    #[test]
    fn streaming_reference_equivalence(
        seed in any::<u64>(),
        closed in any::<bool>(),
        drop in 0u32..10,
        corrupt in 0u32..8,
        duplicate in 0u32..8,
    ) {
        let cal = toy_calibration();
        let mode = if closed {
            LoadMode::Closed { concurrency: 8 }
        } else {
            LoadMode::Open { rate_per_sec: None }
        };
        let mut cfg = LoadConfig::new(60, seed, mode);
        cfg.faults = FaultConfig {
            drop_chance: drop as f64 / 100.0,
            corrupt_chance: corrupt as f64 / 100.0,
            duplicate_chance: duplicate as f64 / 100.0,
            ..Default::default()
        };
        let report = LoadRunner::new(cfg.clone()).run("toy", &cal);
        assert_matches_oracle(&format!("seed {seed}, {mode:?}"), &cfg, &cal, &report);
    }
}

/// A retransmitted request and the session's last response land in the
/// same network step. The server's inbox is drained first, so it still
/// answers the request from its cache before the client completes and
/// retires the session: 4 packets sent, not 3.
#[test]
fn server_inbox_is_drained_before_client_inboxes() {
    let mut cal = toy_calibration();
    cal.ops.truncate(1);
    cal.ops[0].server = c(0, 0); // no service time: the response leaves at L
    let mut cfg = LoadConfig::new(1, SEED, LoadMode::Closed { concurrency: 1 });
    cfg.latency = SimDuration::from_millis(1);
    cfg.bandwidth_bps = None;
    // The timeout fires at L, just after the request lands, so the
    // retransmission and the response both arrive at 2L.
    cfg.timeout = Some(SimDuration::from_millis(1));
    let report = LoadRunner::new(cfg.clone()).run("toy", &cal);
    assert_matches_oracle("same-step delivery", &cfg, &cal, &report);
    assert_eq!(
        (report.completed, report.retries, report.net.sent),
        (1, 1, 4)
    );
}

/// The config `loadgen --scenario tls --sessions 20000 --seed 1` builds
/// with `--mode`, `--workers`, `--clients` and `--drop`, `--corrupt`,
/// `--duplicate` set to `mode`, `workers`, `clients` and `faults`.
fn loadgen_tls_config(mode: LoadMode, workers: u32, clients: u32, faults: [f64; 3]) -> LoadConfig {
    let mut cfg = LoadConfig::new(20_000, 1, mode);
    cfg.workers = workers;
    cfg.clients = clients;
    cfg.latency = SimDuration::from_micros(500);
    let [drop_chance, corrupt_chance, duplicate_chance] = faults;
    cfg.faults = FaultConfig {
        drop_chance,
        corrupt_chance,
        duplicate_chance,
        ..FaultConfig::default()
    };
    cfg
}

/// Three 20k-session tls shapes through the engine and the oracle, in
/// release builds (CI's `mem-gate` job): closed loop at concurrency 32;
/// 1,024 in flight on 256 workers and 64 clients over lossy links; and
/// open loop under heavy faults, where retries, abandoned sessions and
/// corruption landing in frame padding all occur.
#[test]
#[ignore = "20k-session replays; run with --release -- --ignored"]
fn twenty_thousand_tls_sessions_match_the_oracle() {
    // `loadgen`'s defaults: 4 workers, 8 clients, no faults, classic sgx.
    let mut scenario = by_name("tls", 1).expect("tls is registered");
    let cal = scenario.calibrate();
    let shapes = [
        (
            "closed, concurrency 32",
            loadgen_tls_config(LoadMode::Closed { concurrency: 32 }, 4, 8, [0.0; 3]),
        ),
        (
            "wide and lossy",
            loadgen_tls_config(
                LoadMode::Closed { concurrency: 1024 },
                256,
                64,
                [0.01, 0.005, 0.01],
            ),
        ),
        (
            "open loop, heavy faults",
            loadgen_tls_config(
                LoadMode::Open { rate_per_sec: None },
                4,
                8,
                [0.3, 0.05, 0.05],
            ),
        ),
    ];
    let mut heavy = None;
    for (label, cfg) in shapes {
        let report = LoadRunner::new(cfg.clone()).run(scenario.name(), &cal);
        assert_matches_oracle(label, &cfg, &cal, &report);
        assert_eq!(report.completed + report.failed, 20_000, "{label}");
        heavy = Some(report);
    }
    let heavy = heavy.expect("three shapes ran");
    assert!(
        heavy.failed > 0 && heavy.retries > 0 && heavy.corrupt_rx > 0,
        "the heavy shape exercised abandonment, retries and corruption: {}",
        heavy.json()
    );
}
