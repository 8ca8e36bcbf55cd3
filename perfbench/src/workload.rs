//! The benchmark's workloads, one timed iteration of each, the checks on
//! their outputs, and the modelled (virtual-clock) results read from the
//! reports.
//!
//! An iteration is what one `loadgen` invocation does for each of the
//! workload's configurations: build the scenario and calibrate it
//! against the real enclaves, replay the calibrated script, and render
//! the JSON report.

use std::path::{Path, PathBuf};

use teenet_load::scenarios::by_name_switchless;
use teenet_load::{Calibration, LoadConfig, LoadMode, LoadRunner, RunReport};
use teenet_netsim::FaultConfig;
use teenet_sgx::{SwitchlessConfig, TeeBackend, TransitionMode};

use crate::app_marks;
use crate::marks::Marks;
use crate::reference;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "tls-open",
    "tls-wide-lossy",
    "keystore-sharded",
    "golden-sweep",
];

/// The seed the golden fixtures were generated at; only at this seed can
/// `golden-sweep` compare its reports with them.
pub const GOLDEN_SEED: u64 = 11;
const GOLDEN_SESSIONS: u64 = 60;

// Sessions per replay: enough for one replay to take a sizeable fraction
// of a second, few enough for a run to hold a dozen iterations or more.
const TLS_OPEN_SESSIONS: u64 = 100_000;
const WIDE_SESSIONS: u64 = 100_000;
const KEYSTORE_SESSIONS: u64 = 100_000;

/// The seeded link faults of `tls-wide-lossy`.
pub fn lossy_faults() -> FaultConfig {
    FaultConfig {
        drop_chance: 0.01,
        duplicate_chance: 0.01,
        corrupt_chance: 0.005,
        ..FaultConfig::default()
    }
}

/// One scenario calibrated and replayed per iteration.
pub struct Config {
    /// `<scenario>.<transition mode>[.<backend>]`, the golden fixture stem.
    pub label: String,
    pub scenario: &'static str,
    pub mode: TransitionMode,
    pub backend: TeeBackend,
    /// Replay shape; its seed also seeds the calibration.
    pub load: LoadConfig,
    /// The fixture the report must equal byte for byte, if any.
    pub fixture: Option<PathBuf>,
}

impl Config {
    fn new(scenario: &'static str, load: LoadConfig) -> Config {
        Config {
            label: scenario.to_string(),
            scenario,
            mode: TransitionMode::Classic,
            backend: TeeBackend::Sgx,
            load,
            fixture: None,
        }
    }
}

/// Which replay call a workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replay {
    /// `LoadRunner::run`, the serial streaming engine.
    Serial,
    /// `LoadRunner::run_sharded` on this many threads.
    Sharded(u32),
}

pub struct Workload {
    pub name: &'static str,
    pub configs: Vec<Config>,
    pub replay: Replay,
    /// Replays of each calibration per iteration, each in its own span.
    /// More than one only where a single replay is too short to time
    /// steadily; every repeat must reproduce the first report.
    pub replays_per_config: u32,
}

impl Workload {
    /// Workload `name` at `seed`; `fixtures` is the golden fixture
    /// directory. `None` for an unknown name.
    pub fn build(name: &str, seed: u64, fixtures: &Path) -> Option<Workload> {
        let name = *NAMES.iter().find(|&&n| n == name)?;
        let (configs, replay, replays_per_config) = match name {
            "tls-open" => {
                let open = LoadMode::Open { rate_per_sec: None };
                let load = LoadConfig::new(TLS_OPEN_SESSIONS, seed, open);
                (vec![Config::new("tls", load)], Replay::Serial, 1)
            }
            "tls-wide-lossy" => {
                // Workers scale with concurrency: with the default 4, every
                // session of a 1k-deep closed loop times out, which would
                // measure a timeout storm instead of the engine.
                let closed = LoadMode::Closed { concurrency: 1024 };
                let mut load = LoadConfig::new(WIDE_SESSIONS, seed, closed);
                load.workers = 256;
                load.clients = 64;
                load.faults = lossy_faults();
                (vec![Config::new("tls", load)], Replay::Serial, 1)
            }
            "keystore-sharded" => {
                let closed = LoadMode::Closed { concurrency: 32 };
                let load = LoadConfig::new(KEYSTORE_SESSIONS, seed, closed);
                let threads = crate::host::parallelism();
                (
                    vec![Config::new("keystore", load)],
                    Replay::Sharded(threads),
                    1,
                )
            }
            // A 60-session replay takes a fraction of a millisecond, next
            // to tens of milliseconds of calibration: time eight of them.
            _ => (golden_configs(seed, fixtures), Replay::Serial, 8),
        };
        Some(Workload {
            name,
            configs,
            replay,
            replays_per_config,
        })
    }

    pub fn sessions(&self) -> u64 {
        self.configs.iter().map(|c| c.load.sessions).sum()
    }

    /// The replay the warm-up iteration uses: for a sharded workload the
    /// 1-thread model, whose reports every n-thread replay must equal.
    pub fn warmup_replay(&self) -> Replay {
        match self.replay {
            Replay::Serial => Replay::Serial,
            Replay::Sharded(_) => Replay::Sharded(1),
        }
    }
}

/// The 14 configurations `tests/loadgen_golden.rs` pins: every scenario in
/// both transition modes on SGX, plus tls and keystore on the VM-TEE
/// backend. Open loop at the automatic rate, 60 sessions each.
fn golden_configs(seed: u64, fixtures: &Path) -> Vec<Config> {
    let modes = [TransitionMode::Classic, TransitionMode::Switchless];
    let sgx = teenet_load::NAMES.iter().map(|&s| (s, TeeBackend::Sgx));
    let vmtee = ["tls", "keystore"]
        .into_iter()
        .map(|s| (s, TeeBackend::VmTee));
    let mut configs = Vec::new();
    for (scenario, backend) in sgx.chain(vmtee) {
        for mode in modes {
            let mut label = format!("{scenario}.{}", mode.as_str());
            if backend != TeeBackend::Sgx {
                label = format!("{label}.{}", backend.as_str());
            }
            let load =
                LoadConfig::new(GOLDEN_SESSIONS, seed, LoadMode::Open { rate_per_sec: None });
            let fixture = (seed == GOLDEN_SEED).then(|| fixtures.join(format!("{label}.json")));
            configs.push(Config {
                label,
                scenario,
                mode,
                backend,
                load,
                fixture,
            });
        }
    }
    configs
}

/// Calibrates `config` through the public scenario registry, or — when
/// `traced` — through the application-layer marking wrapper, so the spans
/// of the service calls nest under the calibration.
pub fn calibrate(config: &Config, marks: &mut Marks, traced: bool) -> Calibration {
    let seed = config.load.seed;
    if traced {
        return app_marks::calibrate(config.scenario, seed, config.mode, config.backend, marks)
            .expect("workload scenarios are registry scenarios");
    }
    by_name_switchless(
        config.scenario,
        seed,
        config.mode,
        config.backend,
        SwitchlessConfig::default(),
    )
    .expect("workload scenarios are registry scenarios")
    .calibrate()
}

pub fn replay(config: &Config, calibration: &Calibration, replay: Replay) -> RunReport {
    let runner = LoadRunner::new(config.load.clone());
    match replay {
        Replay::Serial => runner.run(config.scenario, calibration),
        Replay::Sharded(n) => runner.run_sharded(config.scenario, calibration, n),
    }
}

/// What one iteration produced, per configuration.
pub struct Iteration {
    pub calibrations: Vec<Calibration>,
    pub reports: Vec<RunReport>,
    pub jsons: Vec<String>,
    /// Whether every repeated replay reproduced the first one's report.
    pub repeats_identical: bool,
}

/// One iteration: for each configuration a `calibrate` span, one `replay`
/// span per replay, and a `report` span, inside one `iteration` span; then
/// one run of the reference kernel in a `reference` span.
pub fn run_iteration(w: &Workload, mode: Replay, marks: &mut Marks, traced: bool) -> Iteration {
    let mut it = Iteration {
        calibrations: Vec::with_capacity(w.configs.len()),
        reports: Vec::with_capacity(w.configs.len()),
        jsons: Vec::with_capacity(w.configs.len()),
        repeats_identical: true,
    };
    marks.span("iteration", w.sessions(), |marks| {
        for config in &w.configs {
            let sessions = config.load.sessions;
            let calibration = marks.span("calibrate", 1, |m| calibrate(config, m, traced));
            let report = marks.span("replay", sessions, |_| replay(config, &calibration, mode));
            let json = marks.span("report", 1, |_| report.json());
            for _ in 1..w.replays_per_config {
                let again = marks.span("replay", sessions, |_| replay(config, &calibration, mode));
                it.repeats_identical &= again.json() == json;
            }
            it.calibrations.push(calibration);
            it.reports.push(report);
            it.jsons.push(json);
        }
    });
    marks.span("reference", reference::OPS, |_| reference::run());
    it
}

/// Named output checks. A failed check names itself and what differed;
/// any failure makes the run incorrect and its exit code non-zero.
#[derive(Default)]
pub struct Checks {
    pub passed: usize,
    pub failed: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failed.push(format!("{name}: {}", detail()));
        }
    }
}

/// The checks every first (warm-up) iteration gets: report invariants
/// and, where the workload has fixtures, byte equality with them.
pub fn check_first(checks: &mut Checks, w: &Workload, first: &Iteration) {
    check_repeats(checks, first);
    for ((config, report), json) in w.configs.iter().zip(&first.reports).zip(&first.jsons) {
        check_report(checks, &config.label, report);
        if let Some(path) = &config.fixture {
            check_golden(checks, &config.label, json, path);
        }
    }
}

/// A later iteration must reproduce the warm-up's reports byte for byte;
/// for a sharded workload the warm-up ran on one thread, so this is also
/// the 1-thread versus n-thread identity.
pub fn check_repeat(checks: &mut Checks, w: &Workload, first: &Iteration, it: &Iteration) {
    check_repeats(checks, it);
    let check = match w.replay {
        Replay::Serial => "replay.repeatable",
        Replay::Sharded(_) => "shard.identical_1t_nt",
    };
    for ((config, want), got) in w.configs.iter().zip(&first.jsons).zip(&it.jsons) {
        checks.check(&format!("{check}[{}]", config.label), want == got, || {
            "a repeated replay produced a different report".into()
        });
    }
}

fn check_repeats(checks: &mut Checks, it: &Iteration) {
    checks.check(
        "replay.repeatable[within iteration]",
        it.repeats_identical,
        || "a repeated replay of one calibration produced a different report".into(),
    );
}

/// The invariants every replayed report must satisfy.
pub fn check_report(checks: &mut Checks, label: &str, r: &RunReport) {
    checks.check(
        &format!("replay.accounting[{label}]"),
        r.completed + r.failed == r.sessions,
        || {
            format!(
                "completed {} + failed {} != sessions {}",
                r.completed, r.failed, r.sessions
            )
        },
    );
    checks.check(
        &format!("replay.latency_count[{label}]"),
        r.latency.count() == r.completed,
        || {
            format!(
                "latency count {} != completed {}",
                r.latency.count(),
                r.completed
            )
        },
    );
    checks.check(
        &format!("replay.latency_max[{label}]"),
        r.latency.max() <= r.duration_ns,
        || {
            format!(
                "latency max {} > duration_ns {}",
                r.latency.max(),
                r.duration_ns
            )
        },
    );
}

/// Compares `json` byte for byte with the fixture at `path` (fixtures
/// have no trailing newline).
pub fn check_golden(checks: &mut Checks, label: &str, json: &str, path: &Path) {
    let name = format!("golden[{label}]");
    match std::fs::read(path) {
        Ok(want) => checks.check(&name, want == json.as_bytes(), || {
            let at = want
                .iter()
                .zip(json.as_bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(want.len().min(json.len()));
            format!("report differs from {} at byte {at}", path.display())
        }),
        Err(e) => checks.check(&name, false, || {
            format!("cannot read {}: {e}", path.display())
        }),
    }
}

/// Modelled results of one iteration, exact for a given seed. With more
/// than one configuration, latencies, throughput and cycles are geometric
/// means over configurations and counts are totals (maximum for queues).
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    pub p50_us: f64,
    pub p99_us: f64,
    pub throughput_per_s: f64,
    pub cycles_per_session: f64,
    pub packets_per_session: f64,
    pub retries_per_session: f64,
    pub transitions_per_session: f64,
    pub dropped: u64,
    pub duplicated: u64,
    pub corrupt_rx: u64,
    pub max_server_queue: u64,
    pub sessions: u64,
    pub failed: u64,
}

impl Model {
    pub fn of(reports: &[RunReport]) -> Model {
        let per = |f: fn(&RunReport) -> f64| geomean(&reports.iter().map(f).collect::<Vec<_>>());
        let sum = |f: fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>();
        let sessions = sum(|r| r.sessions);
        let per_session = |total: u64| total as f64 / sessions.max(1) as f64;
        Model {
            p50_us: per(|r| r.latency.quantile(0.50) as f64 / 1e3),
            p99_us: per(|r| r.latency.quantile(0.99) as f64 / 1e3),
            throughput_per_s: per(|r| r.throughput_per_sec),
            cycles_per_session: per(|r| r.total_cycles as f64 / r.sessions.max(1) as f64),
            packets_per_session: per_session(sum(|r| r.net.sent)),
            retries_per_session: per_session(sum(|r| r.retries)),
            transitions_per_session: per_session(sum(|r| r.transitions.taken)),
            dropped: sum(|r| r.net.dropped),
            duplicated: sum(|r| r.net.duplicated),
            corrupt_rx: sum(|r| r.corrupt_rx),
            max_server_queue: reports
                .iter()
                .map(|r| r.max_server_queue)
                .max()
                .unwrap_or(0),
            sessions,
            failed: sum(|r| r.failed),
        }
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.sessions.max(1) as f64
    }
}

/// Geometric mean of positive values; a zero anywhere yields zero, and a
/// single value is returned exactly.
fn geomean(values: &[f64]) -> f64 {
    if let [only] = values {
        return *only;
    }
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
