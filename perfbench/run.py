"""proxtune benchmark: named CLI workloads through ``proxtune.cli.main``.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` each workload is run repeatedly in this process for
``--seconds`` seconds; every run's outputs are checked, and the end-to-end
metrics (medians over the runs that passed) are printed with their units.
With ``--trace 1`` untraced and traced runs alternate, and the per-layer
metrics come from spans around the calls into each proxtune module (see
``tracing.py``). The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout the benchmark sits in;
without it the benchmark exits with code 2 and prints no result. Outputs go
to ``.perfbench/`` under the checkout.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import checks
import tracing
from workloads import REFERENCE_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_RUNS = 7
WARMUP_ITERS = 3

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "frac",
}


def per_layer_unit(name):
    for suffix, unit in (("_us", "us"), ("_s", "s"), (".p50", "s"), (".max", "s"),
                         (".bytes", "B"), ("_flops", "flop"), ("_frac", "ratio"),
                         ("_efficiency", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def load_program():
    """Import ``proxtune.cli`` from this checkout's ``src/``, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "proxtune", "cli.py")):
        print(f"perfbench: no proxtune sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import proxtune.cli as cli

    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        print(f"perfbench: proxtune was imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return cli


def environment():
    """Versions, machine and BLAS thread settings as found (never changed)."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                ref = fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def measure_setup():
    """Seconds from starting a fresh interpreter until ``import proxtune.cli``
    is done."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = "import proxtune.cli, time; print(repr(time.perf_counter()))"
    # perf_counter is CLOCK_MONOTONIC on Linux, one clock for both processes
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - start


@dataclass
class Outcome:
    code: object
    wall: float
    cpu: float
    stdout: str
    stderr: str


def run_once(argv):
    """One ``proxtune.cli.main(argv)`` call with its wall time and the CPU
    time of this process and of the children it waited for."""
    cli = sys.modules["proxtune.cli"]
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # every run starts from the same collector state
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed run, not the end of the benchmark
        code = "exception"
        err.write(traceback.format_exc())
    wall = perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = sum(b.ru_utime - a.ru_utime + b.ru_stime - a.ru_stime
              for a, b in ((self0, self1), (kids0, kids1)))
    return Outcome(code, wall, cpu, out.getvalue(), err.getvalue())


class Tally:
    """Runs attempted and failed; timings keep only the runs that passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.passed = []

    def add(self, outcome, errors=()):
        self.attempted += 1
        if outcome.code != 0 or errors:
            self.failed += 1
            why = list(errors) or [f"exit {outcome.code}", outcome.stderr.strip()]
            print(f"  run {self.attempted} failed: " + "; ".join(why), file=sys.stderr)
            return False
        self.passed.append(outcome)
        return True

    @property
    def ok_frac(self):
        return (self.attempted - self.failed) / self.attempted


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Runner:
    """Runs one workload at one seed and checks every run's outputs."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.out = os.path.join(workdir, workload.name, "run")
        self.reference = checks.load_reference(workload)
        self.predicted = None
        os.makedirs(os.path.dirname(self.out), exist_ok=True)

    def argv(self, workload=None):
        workload = workload or self.workload
        return [*workload.argv, "--seed", str(self.seed), "--out", self.out]

    def prepare(self):
        """Untimed: a short run of the same command fills lazy state, and a
        compare workload gets the standalone prediction it is checked
        against."""
        run_once(self.argv(self.workload.with_flag("iters", WARMUP_ITERS)))
        if self.workload.mode == "compare":
            w = self.workload
            argv = ["predict", *w.argv[1:], "--seed", str(self.seed),
                    "--out", self.out + ".standalone"]
            result = run_once(argv)
            if result.code == 0:
                from proxtune.cli import read_table

                _, columns, rows = read_table(f"{self.out}.standalone.predict.{w.flag('format', str)}")
                self.predicted = [row[columns.index("err_seq")] for row in rows]

    def check(self, outcome):
        if outcome.code != 0:
            return []
        if self.workload.mode == "compare" and self.predicted is None:
            return ["compare: the standalone predict run failed"]
        return checks.check_run(self.workload, self.seed, self.out, outcome.stdout,
                                self.reference, self.predicted)

    def rows(self):
        from proxtune.cli import read_table

        return [read_table(path)[2] for _, path in checks.output_tables(self.workload, self.out)]

    @property
    def steps(self):
        tune_rows = self.reference["tables"].get("tune", {}).get("rows")
        return self.workload.steps(tune_rows)


def bench(runner, seconds):
    """End-to-end metrics: repeat the workload until ``seconds`` would be
    exceeded by one more run; report medians over the runs that passed.
    The set-up samples are spread over the same window, so that both see the
    same machine."""
    measure_setup()  # fills the bytecode cache; not reported
    runner.prepare()
    tally = Tally()
    setup = []
    start = perf_counter()
    deadline = start + seconds
    while True:
        if len(setup) * seconds <= SETUP_RUNS * (perf_counter() - start):
            setup.append(measure_setup())
        outcome = run_once(runner.argv())
        tally.add(outcome, runner.check(outcome))
        if perf_counter() + outcome.wall > deadline:
            break
    while len(setup) < SETUP_RUNS:
        setup.append(measure_setup())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    walls = [o.wall for o in tally.passed]
    samples = {
        "wall_s": walls,
        "cpu_s": [o.cpu for o in tally.passed],
        "steps_per_s": [runner.steps / w for w in walls],
        "setup_s": setup,
        "peak_rss_mb": [peak_kb / 1024.0],
        "ops_ok_frac": [tally.ok_frac],
    }
    return tally, samples


def traced_run(argv):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return run_once(argv), tracer
    finally:
        tracer.remove()


def bench_traced(runner, seconds, spans_path):
    """Per-layer metrics: untraced and traced runs alternate until
    ``seconds`` is used up (at least one of each). A simulate workload on a
    pool first makes one traced serial run, for the pool efficiency: serial
    run_trials time over (workers x pool run_trials time)."""
    runner.prepare()
    tally = Tally()
    untraced, traced, layers = [], [], []
    reference_rows = None
    deadline = perf_counter() + seconds
    serial_s = None
    if runner.workload.mode == "simulate" and runner.workload.jobs > 1:
        outcome, tracer = traced_run(runner.argv(runner.workload.with_flag("parallelism", 1)))
        if tally.add(outcome, runner.check(outcome)):
            serial_s = tracing.layer_metrics(tracer)["simulate.run_trials.total_s"]
    while True:
        outcome = run_once(runner.argv())
        if tally.add(outcome, runner.check(outcome)):
            untraced.append(outcome.wall)
            reference_rows = reference_rows or runner.rows()
        outcome, tracer = traced_run(runner.argv())
        errors = runner.check(outcome)
        if outcome.code == 0 and not errors and runner.rows() != reference_rows:
            errors = ["traced run wrote other rows than the untraced run"]
        if tally.add(outcome, errors):
            metrics = tracing.layer_metrics(tracer)
            metrics["trace.accounted_frac"] = metrics.pop("trace.self_sum_s") / outcome.wall
            layers.append(metrics)
            traced.append(outcome.wall)
            last_spans = tracer.spans
        if perf_counter() + 2 * outcome.wall > deadline:
            break
    if not layers:
        return tally, {}
    result = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    result["trace.wall_s"] = statistics.median(traced)
    result["trace.untraced_wall_s"] = statistics.median(untraced) if untraced else 0.0
    result["trace.overhead_s"] = result["trace.wall_s"] - result["trace.untraced_wall_s"]
    # 0 when the workload runs no pool
    result["simulate.pool_efficiency"] = (
        serial_s / (runner.workload.jobs * result["simulate.run_trials.total_s"])
        if serial_s else 0.0)
    write_spans(last_spans, spans_path)
    return tally, result


def write_spans(spans, path):
    """Spans of the last traced run, one per line: index, parent, name,
    start and end in seconds from the first span's start."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("index\tparent\tname\tstart_s\tend_s\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i}\t{parent}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\n")


def report(name, seed, tally, samples, units):
    print(f"== {name}  seed {seed}: {tally.attempted} runs, {tally.failed} failed "
          f"(ops_failed_frac {1.0 - tally.ok_frac:.4g})")
    metrics = {}
    for key, values in samples.items():
        values = values if isinstance(values, list) else [values]
        q1, med, q3 = quartiles(values) if values else (0.0, 0.0, 0.0)
        unit = units(key)
        metrics[key] = {"value": med, "unit": unit}
        spread = f"  (q25 {q1:.6g}, q75 {q3:.6g}, n={len(values)})" if len(values) > 1 else ""
        print(f"   {key:<42} {med:>14.6g} {unit}{spread}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    print("env " + json.dumps(environment()), flush=True)
    workdir = os.path.join(ROOT, ".perfbench")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in names:
        runner = Runner(WORKLOADS[name], args.seed, workdir)
        if args.trace:
            tally, samples = bench_traced(runner, args.seconds,
                                          os.path.join(workdir, f"{name}.spans.tsv"))
            units = per_layer_unit
        else:
            tally, samples = bench(runner, args.seconds)
            units = END_TO_END.get
        shutil.rmtree(os.path.dirname(runner.out), ignore_errors=True)
        result = report(name, args.seed, tally, samples, units)
        attempted += tally.attempted
        failed += tally.failed
        correct = correct and tally.failed == 0 and bool(samples)
        prefix = "" if len(names) == 1 else name + "/"
        metrics.update({prefix + k: v for k, v in result.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
