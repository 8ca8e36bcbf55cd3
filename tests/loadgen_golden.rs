//! Byte-stability gate for the load subsystem: the JSON report of every
//! scenario, in both transition modes, at a fixed seed must match the
//! committed golden fixture byte for byte.
//!
//! The fixtures pin the *numbers* of the calibrate-then-replay pipeline —
//! calibration counters, wire sizes, latency percentiles, transition
//! stats — so a refactor of the calibration stack (e.g. the move to the
//! `teenet-app` service layer) cannot silently change replayed results.
//! Any deliberate change must regenerate the fixtures in the same commit,
//! with an explanation:
//!
//! ```text
//! UPDATE_LOADGEN_GOLDEN=1 cargo test -p teenet-integration --test loadgen_golden
//! ```

use std::path::PathBuf;

use teenet_load::scenarios::{by_name_backend, by_name_mode, NAMES};
use teenet_load::{LoadConfig, LoadMode, LoadRunner};
use teenet_netsim::FaultConfig;
use teenet_sgx::{TeeBackend, TransitionMode};

/// Fixed shape of every golden run: open loop at the auto rate, default
/// links, 60 sessions at seed 11.
const SESSIONS: u64 = 60;
const SEED: u64 = 11;

fn run_json(name: &str, mode: TransitionMode) -> String {
    let mut scenario = by_name_mode(name, SEED, mode).expect("known scenario");
    let calibration = scenario.calibrate();
    let config = LoadConfig::new(SESSIONS, SEED, LoadMode::Open { rate_per_sec: None });
    LoadRunner::new(config)
        .run(scenario.name(), &calibration)
        .json()
}

fn run_json_vmtee(name: &str, mode: TransitionMode) -> String {
    let mut scenario =
        by_name_backend(name, SEED, mode, TeeBackend::VmTee).expect("known scenario");
    let calibration = scenario.calibrate();
    let config = LoadConfig::new(SESSIONS, SEED, LoadMode::Open { rate_per_sec: None });
    LoadRunner::new(config)
        .run(scenario.name(), &calibration)
        .json()
}

fn fixture_path(name: &str, mode: TransitionMode) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/loadgen")
        .join(format!("{name}.{}.json", mode.as_str()))
}

/// VM-TEE fixtures sit next to the SGX ones with a `.vmtee` infix; the
/// SGX files keep their pre-multi-backend names so this PR provably does
/// not rewrite them.
fn vmtee_fixture_path(name: &str, mode: TransitionMode) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/loadgen")
        .join(format!("{name}.{}.vmtee.json", mode.as_str()))
}

fn check(name: &str, mode: TransitionMode) {
    let got = run_json(name, mode);
    let path = fixture_path(name, mode);
    if std::env::var_os("UPDATE_LOADGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden fixture");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        got,
        want,
        "loadgen output for scenario {name} ({}) drifted from the golden fixture; \
         if the change is deliberate, regenerate with UPDATE_LOADGEN_GOLDEN=1 and \
         explain the diff in the commit",
        mode.as_str()
    );
}

fn check_vmtee(name: &str, mode: TransitionMode) {
    let got = run_json_vmtee(name, mode);
    let path = vmtee_fixture_path(name, mode);
    if std::env::var_os("UPDATE_LOADGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write vmtee golden fixture");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        got,
        want,
        "vmtee loadgen output for scenario {name} ({}) drifted from the golden fixture; \
         if the change is deliberate, regenerate with UPDATE_LOADGEN_GOLDEN=1 and \
         explain the diff in the commit",
        mode.as_str()
    );
    // The VM-TEE profile must actually reprice the run: a fixture equal to
    // the SGX one would mean the backend never reached the cost model.
    assert!(got.contains("\"backend\":\"vmtee\""));
    assert_ne!(got, run_json(name, mode));
}

#[test]
fn attest_matches_golden_classic() {
    check("attest", TransitionMode::Classic);
}

#[test]
fn attest_matches_golden_switchless() {
    check("attest", TransitionMode::Switchless);
}

#[test]
fn tls_matches_golden_classic() {
    check("tls", TransitionMode::Classic);
}

#[test]
fn tls_matches_golden_switchless() {
    check("tls", TransitionMode::Switchless);
}

#[test]
fn tor_matches_golden_classic() {
    check("tor", TransitionMode::Classic);
}

#[test]
fn tor_matches_golden_switchless() {
    check("tor", TransitionMode::Switchless);
}

#[test]
fn bgp_matches_golden_classic() {
    check("bgp", TransitionMode::Classic);
}

#[test]
fn bgp_matches_golden_switchless() {
    check("bgp", TransitionMode::Switchless);
}

#[test]
fn keystore_matches_golden_classic() {
    check("keystore", TransitionMode::Classic);
}

#[test]
fn keystore_matches_golden_switchless() {
    check("keystore", TransitionMode::Switchless);
}

#[test]
fn tls_matches_golden_vmtee_classic() {
    check_vmtee("tls", TransitionMode::Classic);
}

#[test]
fn tls_matches_golden_vmtee_switchless() {
    check_vmtee("tls", TransitionMode::Switchless);
}

#[test]
fn keystore_matches_golden_vmtee_classic() {
    check_vmtee("keystore", TransitionMode::Classic);
}

#[test]
fn keystore_matches_golden_vmtee_switchless() {
    check_vmtee("keystore", TransitionMode::Switchless);
}

/// Runs `config` over `name`'s classic calibration and checks the JSON
/// against `tests/fixtures/loadgen-faults/{name}.classic.{shape}.json`.
/// The shapes pinned this way exercise what the clean open-loop fixtures
/// never reach: retransmissions, stale timeouts, corrupted frames,
/// duplicates, reordering and abandoned sessions. They sit in their own
/// directory because `tests/fixtures/loadgen/` holds exactly the
/// fixtures of the benchmark's golden sweep.
fn check_faulty(name: &str, shape: &str, config: LoadConfig) {
    let mut scenario = by_name_mode(name, SEED, TransitionMode::Classic).expect("known scenario");
    let calibration = scenario.calibrate();
    let got = LoadRunner::new(config)
        .run(scenario.name(), &calibration)
        .json();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/loadgen-faults")
        .join(format!("{name}.classic.{shape}.json"));
    if std::env::var_os("UPDATE_LOADGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write faulty golden fixture");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        got, want,
        "loadgen output for scenario {name} ({shape}) drifted from the golden fixture; \
         if the change is deliberate, regenerate with UPDATE_LOADGEN_GOLDEN=1 and \
         explain the diff in the commit"
    );
}

/// tls closed loop under every fault kind with only two retries, so
/// some sessions are abandoned and their timeouts go stale.
#[test]
fn tls_matches_golden_chaos() {
    let mut config = LoadConfig::new(200, SEED, LoadMode::Closed { concurrency: 16 });
    config.max_retries = 2;
    config.faults = FaultConfig {
        drop_chance: 0.2,
        duplicate_chance: 0.05,
        corrupt_chance: 0.05,
        reorder_chance: 0.05,
        ..Default::default()
    };
    check_faulty("tls", "chaos", config);
}

/// keystore open loop at the automatic rate on lossy links (15% drop,
/// 15% corrupt), recovered by retransmission.
#[test]
fn keystore_matches_golden_lossy() {
    let mut config = LoadConfig::new(SESSIONS, SEED, LoadMode::Open { rate_per_sec: None });
    config.faults = FaultConfig::lossy();
    check_faulty("keystore", "lossy", config);
}

#[test]
fn every_scenario_has_a_fixture() {
    for name in NAMES {
        for mode in [TransitionMode::Classic, TransitionMode::Switchless] {
            assert!(
                fixture_path(name, mode).exists()
                    || std::env::var_os("UPDATE_LOADGEN_GOLDEN").is_some(),
                "no golden fixture for {name} ({})",
                mode.as_str()
            );
        }
    }
}
