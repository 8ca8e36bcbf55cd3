//! Self-tests of the benchmark: its argument parsing, metric extraction,
//! and that its output checks pass on honest output and fail on tampered
//! output.

use std::path::PathBuf;

use teenet_load::scenario::OpProfile;
use teenet_load::{Calibration, LoadConfig, LoadMode, LoadRunner, RunReport};
use teenet_sgx::cost::Counters;
use teenet_sgx::{TeeBackend, TransitionStats};

use super::*;
use crate::workload::{
    self, check_first, check_golden, check_repeat, check_report, Config, Replay, GOLDEN_SEED,
};

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn fixtures() -> PathBuf {
    bench_dir().join("../tests/fixtures/loadgen")
}

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

#[test]
fn parses_the_worker_command_line() {
    let args = parse_args(&argv("--workload tls-open --seed 7")).unwrap();
    assert_eq!(
        args,
        Args {
            workload: "tls-open".into(),
            seed: 7
        }
    );
    assert!(parse_args(&argv("--seed 7")).is_err());
    assert!(parse_args(&argv("--workload nonesuch")).is_err());
    assert!(parse_args(&argv("--workload tls-open --seed x")).is_err());
    assert!(parse_args(&argv("--workload tls-open --seed")).is_err());
    assert!(parse_args(&argv("--workload tls-open --bogus 1")).is_err());
}

/// `BENCHMARK.json` lists exactly the workloads this worker runs.
#[test]
fn benchmark_json_lists_the_workloads() {
    let spec = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json")).unwrap();
    for name in workload::NAMES {
        assert!(
            spec.contains(&format!("{{\"name\": \"{name}\", \"why\": ")),
            "{name}"
        );
    }
    assert_eq!(spec.matches("\"why\": ").count(), workload::NAMES.len());
}

fn c(sgx: u64, normal: u64) -> Counters {
    Counters {
        sgx_instr: sgx,
        normal_instr: normal,
    }
}

/// A two-op script with known transitions, so extraction is checkable.
fn toy_calibration() -> Calibration {
    let op = |name, server, request_bytes, response_bytes, taken| OpProfile {
        name,
        client: c(0, 10_000),
        server,
        request_bytes,
        response_bytes,
        transitions: TransitionStats {
            taken,
            ..TransitionStats::default()
        },
    };
    Calibration {
        setup: c(10, 1_000_000),
        ops: vec![
            op("hello", c(4, 500_000), 128, 64, 2),
            op("work", c(8, 2_000_000), 256, 1024, 4),
        ],
        mode: Default::default(),
        backend: TeeBackend::Sgx,
        switchless: Default::default(),
    }
}

fn toy_report() -> RunReport {
    let cfg = LoadConfig::new(10, 3, LoadMode::Closed { concurrency: 2 });
    LoadRunner::new(cfg).run("toy", &toy_calibration())
}

#[test]
fn extracts_model_metrics_from_a_known_report() {
    let report = toy_report();
    let m = Model::of(std::slice::from_ref(&report));
    // Clean links: one request and one response per op, no retries.
    assert_eq!(m.packets_per_session, 4.0);
    assert_eq!(m.retries_per_session, 0.0);
    assert_eq!(m.transitions_per_session, 6.0);
    assert_eq!((m.dropped, m.duplicated, m.corrupt_rx), (0, 0, 0));
    assert_eq!((m.sessions, m.failed, m.failed_ratio()), (10, 0, 0.0));
    assert_eq!(m.p50_us, report.latency.quantile(0.5) as f64 / 1e3);
    assert_eq!(m.p99_us, report.latency.quantile(0.99) as f64 / 1e3);
    assert_eq!(m.cycles_per_session, report.total_cycles as f64 / 10.0);
    assert_eq!(m.throughput_per_s, report.throughput_per_sec);
    assert!(m.p50_us > 0.0 && m.throughput_per_s > 0.0);

    // Two configurations: geometric means of per-configuration figures,
    // totals of counts.
    let twice = Model::of(&[toy_report(), toy_report()]);
    assert!((twice.p50_us - m.p50_us).abs() < 1e-9);
    assert_eq!((twice.sessions, twice.packets_per_session), (20, 4.0));
}

#[test]
fn tampered_reports_fail_the_invariant_checks() {
    let mut checks = Checks::default();
    check_report(&mut checks, "toy", &toy_report());
    assert!(checks.failed.is_empty(), "{:?}", checks.failed);
    assert_eq!(checks.passed, 3);

    let mut lost = toy_report();
    lost.completed -= 1;
    let mut checks = Checks::default();
    check_report(&mut checks, "toy", &lost);
    assert!(checks
        .failed
        .iter()
        .any(|f| f.starts_with("replay.accounting[toy]")));
    assert!(checks
        .failed
        .iter()
        .any(|f| f.starts_with("replay.latency_count[toy]")));

    let mut short = toy_report();
    short.duration_ns = short.latency.max() - 1;
    let mut checks = Checks::default();
    check_report(&mut checks, "toy", &short);
    assert_eq!(checks.failed.len(), 1);
    assert!(checks.failed[0].starts_with("replay.latency_max[toy]"));
}

fn golden_config(seed: u64, label: &str) -> Config {
    Workload::build("golden-sweep", seed, &fixtures())
        .unwrap()
        .configs
        .into_iter()
        .find(|c| c.label == label)
        .unwrap()
}

fn golden_json(config: &Config) -> String {
    let cal = workload::calibrate(config, &mut Marks::recording(), false);
    workload::replay(config, &cal, Replay::Serial).json()
}

#[test]
fn golden_check_matches_the_fixture_and_catches_tampering() {
    let config = golden_config(GOLDEN_SEED, "attest.classic");
    let fixture = config.fixture.clone().unwrap();
    let json = golden_json(&config);
    let mut checks = Checks::default();
    check_golden(&mut checks, &config.label, &json, &fixture);
    assert!(checks.failed.is_empty(), "{:?}", checks.failed);

    // One changed digit, or a trailing newline, in the fixture must fail.
    let want = std::fs::read_to_string(&fixture).unwrap();
    let digit = want.find(|c: char| c.is_ascii_digit()).unwrap();
    let mut flipped = want.clone().into_bytes();
    flipped[digit] = if flipped[digit] == b'9' {
        b'8'
    } else {
        flipped[digit] + 1
    };
    let dir = bench_dir().join("out/selftest");
    std::fs::create_dir_all(&dir).unwrap();
    for (i, tampered) in [flipped, format!("{want}\n").into_bytes()]
        .iter()
        .enumerate()
    {
        let path = dir.join(format!("tampered-{i}.json"));
        std::fs::write(&path, tampered).unwrap();
        let mut checks = Checks::default();
        check_golden(&mut checks, &config.label, &json, &path);
        assert_eq!(checks.failed.len(), 1);
        assert!(
            checks.failed[0].starts_with("golden[attest.classic]"),
            "{:?}",
            checks.failed
        );
    }

    // A tampered report fails against the real fixture too.
    let mut checks = Checks::default();
    check_golden(
        &mut checks,
        &config.label,
        &json.replacen("\"seed\":11", "\"seed\":12", 1),
        &fixture,
    );
    assert_eq!(checks.failed.len(), 1);
}

#[test]
fn golden_sweep_covers_every_fixture_at_the_golden_seed_only() {
    let at_golden = Workload::build("golden-sweep", GOLDEN_SEED, &fixtures()).unwrap();
    assert_eq!(at_golden.configs.len(), 14);
    assert_eq!(at_golden.sessions(), 14 * 60);
    let mut on_disk: Vec<_> = std::fs::read_dir(fixtures())
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    on_disk.sort();
    let mut pinned: Vec<_> = at_golden
        .configs
        .iter()
        .map(|c| c.fixture.clone().unwrap())
        .collect();
    pinned.sort();
    assert_eq!(pinned, on_disk);

    let other = Workload::build("golden-sweep", GOLDEN_SEED + 1, &fixtures()).unwrap();
    assert!(other.configs.iter().all(|c| c.fixture.is_none()));
}

#[test]
fn another_seed_changes_the_replayed_reports() {
    let golden = golden_json(&golden_config(GOLDEN_SEED, "attest.classic"));
    let other = golden_json(&golden_config(GOLDEN_SEED + 1, "attest.classic"));
    assert_ne!(golden, other);

    for name in ["tls-open", "tls-wide-lossy", "keystore-sharded"] {
        let jsons: Vec<String> = [1, 2]
            .into_iter()
            .map(|seed| {
                let mut w = Workload::build(name, seed, &fixtures()).unwrap();
                w.configs[0].load.sessions = 64;
                let it = run_iteration(&w, w.replay, &mut Marks::recording(), false);
                it.jsons[0].clone()
            })
            .collect();
        assert_ne!(jsons[0], jsons[1], "{name}");
    }
}

/// A shrunk sharded workload passes every iteration check, marked or
/// not, including the 1-thread versus n-thread identity and the marking
/// wrapper's faithfulness, and a traced iteration marks the app layer
/// inside each calibration.
#[test]
fn iteration_checks_pass_on_a_shrunk_sharded_workload() {
    let mut w = Workload::build("keystore-sharded", 5, &fixtures()).unwrap();
    w.configs[0].load.sessions = 48;
    let mut checks = Checks::default();
    let first = run_iteration(&w, w.warmup_replay(), &mut Marks::recording(), false);
    check_first(&mut checks, &w, &first);
    let mut marks = Marks::recording();
    let traced = run_iteration(&w, w.replay, &mut marks, true);
    check_repeat(&mut checks, &w, &first, &traced);
    assert!(checks.failed.is_empty(), "{:?}", checks.failed);
    assert_eq!(traced.calibrations, first.calibrations);

    let lines = marks.recorded();
    assert_eq!(lines.first().unwrap(), "B iteration");
    assert_eq!(lines[1], "B calibrate");
    assert_eq!(lines[2], "B app.deploy");
    for span in ["app.provision", "app.run_step", "replay", "report"] {
        assert!(
            lines.contains(&format!("B {span}")),
            "no {span} span in {lines:?}"
        );
    }
    assert!(lines.contains(&"E replay 48".to_string()));
    assert_eq!(
        lines.last().unwrap(),
        &format!("E reference {}", reference::OPS)
    );
    // Every begin has its end, properly nested.
    let mut open = Vec::new();
    for line in lines {
        match line.split(' ').collect::<Vec<_>>()[..] {
            ["B", name] => open.push(name),
            ["E", name, _] => assert_eq!(open.pop(), Some(name)),
            _ => panic!("not a mark: {line}"),
        }
    }
    assert!(open.is_empty());
}

/// The protocol end to end, on a shrunk workload: commands in order, each
/// answered by an `R` line whose body is a JSON object's fields.
#[test]
fn worker_answers_each_command() {
    let mut w = Workload::build("tls-open", 3, &fixtures()).unwrap();
    w.configs[0].load.sessions = 32;
    let mut worker = Worker {
        w,
        seed: 3,
        marks: Marks::recording(),
        checks: Checks::default(),
        first: None,
    };
    assert!(worker.command("iteration").is_err(), "warmup comes first");
    assert!(worker
        .command("hello")
        .unwrap()
        .contains("\"sessions\": 32"));
    assert_eq!(
        worker.command("warmup").unwrap(),
        "\"sessions\": 32, \"failed\": 0"
    );
    worker.command("iteration traced").unwrap();
    let model = worker.command("model").unwrap();
    assert!(model.starts_with("\"model_p50_us\": "), "{model}");
    assert!(
        model.contains("\"model.packets_per_session\": 8,"),
        "{model}"
    );
    // Layers that count allocations are left out: the counter is global
    // and the test harness runs tests on parallel threads.
    assert_eq!(worker.command("layer report").unwrap(), "");
    assert!(worker
        .marks
        .recorded()
        .contains(&"E report.json 20".to_string()));
    assert!(worker.command("layer nonesuch").is_err());
    let finish = worker.command("finish").unwrap();
    assert!(finish.contains("\"failed\": []"), "{finish}");
    assert!(worker.command("bogus").is_err());
}
