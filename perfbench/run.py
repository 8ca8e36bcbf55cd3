#!/usr/bin/env python3
"""perfbench front end: the half of the benchmark that holds the clock.

    python3 perfbench/run.py --workload tls-open --seed 1 --seconds 20 --trace 0

Builds and starts the Rust worker (`perfbench/src`) for one workload and
seed, sends it commands, and timestamps the begin and end marks it writes
around every call into a layer. From those marks it builds the spans and
every host-clock metric; the worker adds exact counts, modelled results
and the outcome of its output checks. The repository's linter forbids
wall clocks in its Rust code, so the worker has none and its outputs are
a function of its inputs.

Prints every metric with its unit, median, quartiles and sample count,
then one JSON object as the last line. `--trace 0` gives the end-to-end
metrics, `--trace 1` the per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("tls-open", "tls-wide-lossy", "keystore-sharded", "golden-sweep")

# Timed iterations every run makes at least, however short --seconds.
MIN_ITERATIONS = 3

# Reference units: a figure in ref_ns or ref_s, and setup_s, is wall time
# scaled as if the iteration's reference-kernel run had taken exactly this
# long, about what it takes on an unloaded 2-vCPU Intel Xeon VM.
NOMINAL_REFERENCE_NS = 10_000_000

# The spans whose self time the traced run reports, per traced iteration.
SELF_TIMED = ("iteration", "calibrate", "app.deploy", "app.provision",
              "app.set_transition", "app.run_step", "app.teardown",
              "replay", "report")

# Per-operation timings: metric, span, unit, and the factor from seconds
# per operation to the unit ("rate" for throughput in MiB/s, whose spans
# count bytes as operations).
PER_OP = {
    "crypto.dh1024_ms": ("crypto.dh1024", 1e3),
    "crypto.schnorr_sign_us": ("crypto.schnorr_sign", 1e6),
    "crypto.schnorr_verify_us": ("crypto.schnorr_verify", 1e6),
    "crypto.sha256_mib_s": ("crypto.sha256", "rate"),
    "crypto.aes128_mib_s": ("crypto.aes128", "rate"),
    "crypto.rng_seed_fork_ns": ("crypto.rng_seed_fork", 1e9),
    "sgx.attest_ms": ("sgx.attest", 1e3),
    "sgx.packet_send_us": ("sgx.packet_send", 1e6),
    "netsim.ns_per_packet": ("netsim.clean", 1e9),
    "netsim.lossy_ns_per_packet": ("netsim.lossy", 1e9),
    "arrival.next_ns": ("arrival.next", 1e9),
    "hist.record_ns": ("hist.record", 1e9),
    "metrics.new_merge_ns": ("metrics.new_merge", 1e9),
    "report.json_us": ("report.json", 1e6),
    "report.text_us": ("report.text", 1e6),
}

# The worker commands of a traced run's layer phase, in order.
LAYERS = ("crypto", "sgx", "app", "netsim", "runner", "load", "shard", "report")


class WorkerError(Exception):
    pass


class Summary:
    """Median, quartiles (statistics.quantiles, n=4) and sample count."""

    def __init__(self, samples):
        samples = list(samples)
        if not samples:
            raise ValueError("no samples")
        self.n = len(samples)
        self.median = statistics.median(samples)
        if self.n < 2:
            self.q1 = self.q3 = self.median
        else:
            self.q1, _, self.q3 = statistics.quantiles(samples, n=4)

    @classmethod
    def exact(cls, value):
        return cls([value])


class Spans:
    """Spans built from the worker's marks, timestamped on arrival."""

    def __init__(self):
        self.epoch = time.perf_counter_ns()
        self.spans = []
        self.stack = []
        self.iteration = 0

    def next_iteration(self):
        self.iteration += 1
        return self.iteration

    def mark(self, kind, name, ops, at_ns):
        at = at_ns - self.epoch
        if kind == "B":
            self.spans.append({"id": len(self.spans), "name": name, "start_ns": at,
                               "end_ns": None, "parent": self.stack[-1] if self.stack else None,
                               "iteration": self.iteration, "ops": None})
            self.stack.append(len(self.spans) - 1)
        elif kind == "E":
            if not self.stack or self.spans[self.stack[-1]]["name"] != name:
                raise WorkerError(f"end mark {name!r} does not close the open span")
            span = self.spans[self.stack.pop()]
            span["end_ns"] = at
            span["ops"] = ops
        else:
            raise WorkerError(f"not a mark: {kind} {name}")

    def of(self, iteration):
        return [s for s in self.spans if s["iteration"] == iteration]

    def named(self, name, iterations):
        return [s for s in self.spans if s["name"] == name and s["iteration"] in iterations]

    def self_times(self, iterations):
        """Self time (ns) per span name over spans of `iterations`: each
        span's duration minus the durations of its children."""
        children = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] += duration(s)
        own = {}
        for s in self.spans:
            if s["iteration"] in iterations:
                own[s["name"]] = own.get(s["name"], 0) + max(duration(s) - children[s["id"]], 0)
        return own

    def descendants(self, span):
        inside = {span["id"]}
        out = []
        for s in self.spans[span["id"] + 1:]:
            if s["parent"] in inside:
                inside.add(s["id"])
                out.append(s)
        return out

    def jsonl(self):
        keys = ("id", "name", "start_ns", "end_ns", "parent", "iteration")
        return "".join(json.dumps({k: s[k] for k in keys}) + "\n" for s in self.spans)


def duration(span):
    return span["end_ns"] - span["start_ns"]


class Worker:
    """The Rust worker, built and started through cargo."""

    def __init__(self, workload, seed, spans):
        cmd = ["cargo", "run", "--quiet", "--release", "--offline",
               "--manifest-path", str(BENCH_DIR / "Cargo.toml"), "--",
               "--workload", workload, "--seed", str(seed)]
        self.spans = spans
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)

    def call(self, command):
        """Sends one command; records its marks; returns its result."""
        try:
            self.proc.stdin.write(command.encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise WorkerError("the worker exited before the command " + repr(command))
        while True:
            line = self.proc.stdout.readline()
            at = time.perf_counter_ns()
            if not line:
                raise WorkerError(f"the worker exited during {command!r}")
            kind, _, rest = line.decode().rstrip("\n").partition(" ")
            if kind == "R":
                return json.loads(rest)
            name, _, ops = rest.partition(" ")
            self.spans.mark(kind, name, int(ops or 0), at)

    def close(self):
        """Stops the worker and waits until it (and cargo) has ended."""
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_iteration(worker, spans, command, sessions):
    """One worker iteration; returns (result, per-iteration timings)."""
    it = spans.next_iteration()
    result = worker.call(command)
    own = spans.of(it)

    def total(name):
        return sum(duration(s) for s in own if s["name"] == name)

    times = {
        "setup_ns": total("calibrate"),
        "replay_ns": total("replay"),
        "render_ns": total("report"),
        "reference_ns": total("reference"),
    }
    # A workload may replay each calibration more than once; the whole-run
    # time counts one replay, as a single loadgen run does.
    replayed = sum(s["ops"] for s in own if s["name"] == "replay")
    times["replay_ns_per_session"] = times["replay_ns"] / replayed
    one_replay_ns = times["replay_ns"] * sessions / replayed
    times["wall_ns"] = times["setup_ns"] + one_replay_ns + times["render_ns"]
    return result, times


def timed_iterations(worker, spans, seconds, sessions, commands):
    """Iterations, cycling through `commands`, until `seconds` have passed
    and each command ran MIN_ITERATIONS times. Returns, per command, the
    list of (iteration id, timings), and the sessions attempted and failed."""
    runs = {c: [] for c in commands}
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    i = 0
    while min(len(r) for r in runs.values()) < MIN_ITERATIONS or time.monotonic() < deadline:
        command = commands[i % len(commands)]
        result, times = run_iteration(worker, spans, command, sessions)
        runs[command].append((spans.iteration, times))
        attempted += result["sessions"]
        failed += result["failed"]
        i += 1
    return runs, attempted, failed


def to_reference(times, key, scale):
    return times[key] * scale * NOMINAL_REFERENCE_NS / times["reference_ns"]


def end_to_end(worker, spans, seconds, sessions):
    runs, attempted, failed = timed_iterations(worker, spans, seconds, sessions, ["iteration"])
    times = [t for _, t in runs["iteration"]]
    model = worker.call("model")
    finish = worker.call("finish")
    metrics = [
        ("setup_s", "s", Summary(to_reference(t, "setup_ns", 1e-9) for t in times)),
        ("replay_ref_ns_per_session", "ref_ns",
         Summary(to_reference(t, "replay_ns_per_session", 1.0) for t in times)),
        ("run_wall_ref_s", "ref_s", Summary(to_reference(t, "wall_ns", 1e-9) for t in times)),
        ("peak_rss_mib", "MiB", Summary.exact(finish["peak_rss_mib"])),
        ("model_p50_us", "virtual_us", Summary.exact(model["model_p50_us"])),
        ("model_cycles_per_session", "cycles", Summary.exact(model["model_cycles_per_session"])),
    ]
    info = [
        ("wall.setup_s", "s", Summary(t["setup_ns"] / 1e9 for t in times)),
        ("wall.replay_ns_per_session", "ns", Summary(t["replay_ns_per_session"] for t in times)),
        ("wall.run_s", "s", Summary(t["wall_ns"] / 1e9 for t in times)),
        ("host.reference_ms", "ms", Summary(t["reference_ns"] / 1e6 for t in times)),
    ]
    return metrics, info, attempted, failed, finish


def per_op(spans, span_name, factor, iterations):
    """Summary over the repetitions of `span_name` of the time per
    operation, in the unit `factor` converts seconds to; "rate" gives
    MiB/s for spans that count bytes."""
    values = []
    for s in spans.named(span_name, iterations):
        seconds_per_op = duration(s) / 1e9 / s["ops"]
        values.append(1 / (seconds_per_op * 2**20) if factor == "rate" else seconds_per_op * factor)
    return Summary(values)


def per_layer(worker, spans, seconds, sessions, units):
    runs, attempted, failed = timed_iterations(
        worker, spans, seconds, sessions, ["iteration traced", "iteration"])
    traced = runs["iteration traced"]
    untraced = runs["iteration"]
    traced_ids = {i for i, _ in traced}

    layer_ids = set()
    results = {}
    for layer in LAYERS:
        layer_ids.add(spans.next_iteration())
        results.update(worker.call("layer " + layer))
    results.update(worker.call("model"))
    finish = worker.call("finish")

    values = {}
    for name, (span_name, factor) in PER_OP.items():
        values[name] = per_op(spans, span_name, factor, layer_ids)
    app_reps = spans.named("app.rep", layer_ids)
    for part in ("deploy", "provision", "set_transition", "run_step", "teardown"):
        values[f"app.{part}_ms"] = Summary(
            sum(duration(s) for s in spans.descendants(rep) if s["name"] == f"app.{part}") / 1e6
            for rep in app_reps)
    for scenario in ("attest", "tls", "tor", "bgp", "keystore"):
        values[f"calibrate.{scenario}_ms"] = Summary(
            duration(s) / 1e6 for s in spans.named(f"calibrate.{scenario}", layer_ids))
    values["runner.replay_ms"] = Summary(
        duration(s) / 1e6 for s in spans.named("runner.replay", layer_ids))
    t1 = Summary(duration(s) / 1e6 for s in spans.named("shard.replay_1t", layer_ids))
    tn = Summary(duration(s) / 1e6 for s in spans.named("shard.replay_nt", layer_ids))
    values["shard.replay_ms_1t"] = t1
    values["shard.replay_ms_nt"] = tn
    values["shard.parallel_efficiency"] = Summary.exact(
        t1.median / (results["shard.threads"] * tn.median))
    for name, value in results.items():
        if name.startswith(("runner.", "shard.", "model.")) and name not in values:
            values[name] = Summary.exact(value)

    every = [t for _, t in traced + untraced]
    values["host.reference_ms"] = Summary(t["reference_ns"] / 1e6 for t in every)
    on = Summary(t["replay_ns_per_session"] for _, t in traced)
    off = Summary(t["replay_ns_per_session"] for _, t in untraced)
    values["trace.replay_ns_per_session_traced"] = on
    values["trace.replay_ns_per_session_untraced"] = off
    values["trace.overhead_ns_per_session"] = Summary.exact(on.median - off.median)
    values["trace.iterations"] = Summary.exact(len(traced))
    own = spans.self_times(traced_ids)
    for name in SELF_TIMED:
        values[f"self.{name}_ms"] = Summary.exact(own.get(name, 0) / len(traced) / 1e6)

    metrics = [(name, unit, values.get(name)) for name, unit in units]
    return metrics, [], attempted, failed, finish


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_revision():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def result_line(correct, attempted, failed, metrics):
    """The last line: exactly correct, attempted, failed and metrics."""
    body = {name: {"value": s.median, "unit": unit} for name, unit, s in metrics}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": body})


def spec_metrics(kind):
    with open(ROOT / "BENCHMARK.json") as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        parser.error("--seconds must be positive")

    units = spec_metrics("per_layer" if args.trace else "end_to_end")
    spans = Spans()
    worker = Worker(args.workload, args.seed, spans)
    try:
        hello = worker.call("hello")
        sessions = hello["sessions"]
        worker.call("warmup")
        if args.trace:
            metrics, info, attempted, failed, finish = per_layer(
                worker, spans, args.seconds, sessions, units)
        else:
            metrics, info, attempted, failed, finish = end_to_end(
                worker, spans, args.seconds, sessions)
    except WorkerError as e:
        worker.close()
        print(f"error: {e}", file=sys.stderr)
        return 1
    worker.close()
    if worker.proc.returncode != 0:
        print(f"error: the worker exited with {worker.proc.returncode}", file=sys.stderr)
        return 1

    checks_failed = list(finish["failed"])
    emitted = [(name, unit) for name, unit, s in metrics if s is not None]
    if emitted != units:
        checks_failed.append(f"output.metric_names: emitted {emitted}, BENCHMARK.json lists {units}")
    for name, _, s in metrics:
        if s is None or not isinstance(s.median, (int, float)) or not math.isfinite(s.median):
            checks_failed.append(f"output.finite[{name}]: no finite value")
    metrics = [(n, u, s) for n, u, s in metrics if s is not None]
    correct = not checks_failed

    host = [
        ("available_parallelism", hello["threads"]),
        ("cpu_model", cpu_model()),
        ("rustc", hello["rustc"]),
        ("build_profile", hello["profile"]),
        ("git_revision", git_revision()),
        ("seed", args.seed),
    ]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} sessions_per_iteration={sessions}")
    for key, value in host:
        print(f"host {key}={value}")
    for kind, rows in (("metric", metrics), ("info", info)):
        for name, unit, s in rows:
            print(f"{kind:<6} {name:<36} {unit:>12} median={s.median!r} q1={s.q1!r} "
                  f"q3={s.q3!r} n={s.n}")
    print(f"checks passed={finish['passed']} failed={len(checks_failed)}")
    for f in checks_failed:
        print(f"check failed: {f}", file=sys.stderr)

    out_dir = BENCH_DIR / "out"
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": dict(host),
        "checks": {"passed": finish["passed"], "failed": checks_failed},
        "metrics": {name: {"unit": unit, "median": s.median, "q1": s.q1, "q3": s.q3, "n": s.n}
                    for name, unit, s in metrics + info},
    }
    files = [(out_dir / f"{stem}.json", json.dumps(record, indent=2) + "\n")]
    if args.trace:
        files.append((out_dir / f"{stem}.spans.jsonl", spans.jsonl()))
    for path, body in files:
        try:
            out_dir.mkdir(exist_ok=True)
            path.write_text(body)
            print(f"wrote {path.relative_to(ROOT)}")
        except OSError as e:
            print(f"warning: cannot write {path}: {e}", file=sys.stderr)

    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
