//! `perfbench` worker — the clock-free half of the repository's benchmark.
//!
//! ```text
//! python3 perfbench/run.py --workload tls-open --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The front end (`run.py`) builds and starts this worker for one workload
//! and seed, sends it one command per line on standard input, and
//! timestamps the begin and end marks the worker writes around every call
//! into a layer (see [`marks`]). The worker holds no clock, so everything
//! it prints is a function of the workload and seed; it runs the
//! workload, counts allocations, and checks every output. See
//! `perfbench/README.md` for the workloads and metrics.
//!
//! Commands, each answered by marks and then one `R <json>` line:
//!
//! ```text
//! hello               the workload's shape and the build
//! warmup              the reference iteration every later one must reproduce
//! iteration [traced]  one timed iteration; traced also marks the app layer
//! model               virtual-clock results and modelled work counts
//! layer <name>        per-layer marks: crypto sgx app netsim runner load shard report
//! finish              check results and peak memory
//! ```

mod alloc;
mod app_marks;
mod host;
mod layers;
mod marks;
mod reference;
mod workload;

use std::fmt::Write as _;
use std::io::BufRead;
use std::path::Path;
use std::process::ExitCode;

use crate::marks::Marks;
use crate::workload::{
    check_first, check_repeat, run_iteration, Checks, Iteration, Model, Workload,
};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "\
usage: perfbench --workload <name> [--seed <n>]   (driven by perfbench/run.py)

workloads: tls-open, tls-wide-lossy, keystore-sharded, golden-sweep
";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("bad value for --seed: {value}"))?
            }
            _ => return Err(format!("unknown flag: {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload: {workload}"));
    }
    Ok(Args { workload, seed })
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The modelled results, as a JSON object body keyed by metric name.
fn model_fields(m: &Model) -> String {
    format!(
        "\"model_p50_us\": {}, \"model_cycles_per_session\": {}, \"model.p99_us\": {}, \
         \"model.throughput_per_s\": {}, \"model.packets_per_session\": {}, \
         \"model.retries_per_session\": {}, \"model.dropped\": {}, \"model.duplicated\": {}, \
         \"model.corrupt_rx\": {}, \"model.transitions_per_session\": {}, \
         \"model.max_server_queue\": {}, \"model.failed_ratio\": {}",
        m.p50_us,
        m.cycles_per_session,
        m.p99_us,
        m.throughput_per_s,
        m.packets_per_session,
        m.retries_per_session,
        m.dropped,
        m.duplicated,
        m.corrupt_rx,
        m.transitions_per_session,
        m.max_server_queue,
        m.failed_ratio()
    )
}

struct Worker {
    w: Workload,
    seed: u64,
    marks: Marks,
    checks: Checks,
    first: Option<Iteration>,
}

impl Worker {
    /// Runs one command; `Err` for a command the protocol does not have.
    fn command(&mut self, line: &str) -> Result<String, String> {
        let words: Vec<&str> = line.split_whitespace().collect();
        if let ["hello"] = words[..] {
            return Ok(format!(
                "\"workload\": {}, \"sessions\": {}, \"configs\": {}, \"threads\": {}, \
                 \"rustc\": {}, \"profile\": {}",
                json_string(self.w.name),
                self.w.sessions(),
                self.w.configs.len(),
                host::parallelism(),
                json_string(host::RUSTC),
                json_string(host::PROFILE)
            ));
        }
        if let ["warmup"] = words[..] {
            let first = run_iteration(&self.w, self.w.warmup_replay(), &mut self.marks, false);
            check_first(&mut self.checks, &self.w, &first);
            let model = Model::of(&first.reports);
            self.first = Some(first);
            return Ok(format!(
                "\"sessions\": {}, \"failed\": {}",
                model.sessions, model.failed
            ));
        }
        if words.is_empty() {
            return Err("empty command".into());
        }
        let first = self.first.as_ref().ok_or("warmup must come first")?;
        let (w, marks, checks, seed) = (&self.w, &mut self.marks, &mut self.checks, self.seed);
        match words[..] {
            ["iteration"] | ["iteration", "traced"] => {
                let traced = words.len() == 2;
                let it = run_iteration(w, w.replay, marks, traced);
                check_repeat(checks, w, first, &it);
                if traced {
                    let pairs = w
                        .configs
                        .iter()
                        .zip(it.calibrations.iter().zip(&first.calibrations));
                    for (config, (got, want)) in pairs {
                        checks.check(
                            &format!("calibrate.wrapper_faithful[{}]", config.label),
                            got == want,
                            || "the marking wrapper changed the calibration".into(),
                        );
                    }
                }
                let model = Model::of(&it.reports);
                Ok(format!(
                    "\"sessions\": {}, \"failed\": {}",
                    model.sessions, model.failed
                ))
            }
            ["model"] => Ok(model_fields(&Model::of(&first.reports))),
            ["layer", name] => {
                match name {
                    "crypto" => layers::crypto(marks, seed),
                    "sgx" => layers::sgx(marks, seed),
                    "app" => layers::app(marks, seed, checks),
                    "netsim" => layers::netsim(marks, w, first, seed),
                    "load" => layers::load_parts(marks, first, seed),
                    "report" => layers::report(marks, first),
                    "runner" => return Ok(layers::runner(marks, w, first, checks)),
                    "shard" => return Ok(layers::shard(marks, w, first, checks)),
                    _ => return Err(format!("unknown layer: {name}")),
                }
                Ok(String::new())
            }
            ["finish"] => {
                let failed: Vec<String> = checks.failed.iter().map(|f| json_string(f)).collect();
                let rss = host::peak_rss_mib().map_or("null".into(), |v| v.to_string());
                Ok(format!(
                    "\"passed\": {}, \"failed\": [{}], \"peak_rss_mib\": {rss}",
                    checks.passed,
                    failed.join(", ")
                ))
            }
            _ => Err(format!("unknown command: {line}")),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fixtures = bench_dir.join("../tests/fixtures/loadgen");
    if !fixtures.is_dir() {
        eprintln!("error: golden fixtures not found at {}", fixtures.display());
        return ExitCode::from(2);
    }
    let w = Workload::build(&args.workload, args.seed, &fixtures).expect("name was validated");
    let mut worker = Worker {
        w,
        seed: args.seed,
        marks: Marks::stdout(),
        checks: Checks::default(),
        first: None,
    };
    for line in std::io::stdin().lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                eprintln!("error: reading commands: {e}");
                return ExitCode::from(2);
            }
        };
        match worker.command(&line) {
            Ok(body) => worker.marks.line(&format!("R {{{body}}}")),
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
