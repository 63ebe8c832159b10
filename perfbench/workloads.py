"""The benchmark's workloads: fixed CLI argument lists for ``proxtune.cli.main``.

Every workload passes ``--parallelism`` explicitly, because the CLI default 0
means "all cores" and would make results depend on the machine. ``run.py``
appends ``--seed`` and ``--out``.
"""

from dataclasses import dataclass, replace

REFERENCE_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    why: str  # BENCHMARK.json gives "<argv>: <why>"
    reference: str  # name of the stored reference summary under reference/

    @property
    def mode(self):
        return self.argv[0]

    def flag(self, name, cast=int):
        return cast(self.argv[self.argv.index(f"--{name}") + 1])

    @property
    def jobs(self):
        return self.flag("parallelism")

    def steps(self, tune_rows):
        """Map steps plus prox-linear steps one run completes; a tune run
        completes the horizon once per grid point that produced a row."""
        iters = self.flag("iters")
        if self.mode == "tune":
            return iters * tune_rows
        steps = iters * self.flag("trials")
        return steps + iters if self.mode == "compare" else steps

    def with_flag(self, name, value):
        argv = list(self.argv)
        argv[argv.index(f"--{name}") + 1] = str(value)
        return replace(self, argv=tuple(argv))


_SIMULATE = ("simulate", "--d", "200", "--m", "32", "--sigma", "0.01",
             "--lambda", "100", "--iters", "3000", "--trials", "2")

WORKLOADS = {w.name: w for w in (
    Workload(
        "tune-grid",
        ("tune", "--d", "200", "--sigma", "0.1", "--m-grid", "8,16,32",
         "--lambda-grid", "5,20,100,200", "--iters", "500",
         "--target-err", "2e-3", "--policy", "min-iterations-to-target",
         "--parallelism", "1"),
        "map steps only (expect, predict, tune)",
        "tune-grid",
    ),
    Workload(
        "simulate-d200",
        _SIMULATE + ("--parallelism", "1"),
        "batch draws, Woodbury steps and the CSV writer, no expectation engine",
        "simulate-d200",
    ),
    Workload(
        "compare-square",
        ("compare", "--d", "64", "--m", "64", "--sigma", "0.1",
         "--lambda", "50", "--iters", "50", "--trials", "2",
         "--parallelism", "1", "--format", "json"),
        "m = d takes the dense route on every step; also predict and the JSON writer",
        "compare-square",
    ),
    Workload(
        "simulate-pool",
        _SIMULATE + ("--parallelism", "2"),
        "the trial process pool and its pickled trajectories",
        # rows are bit-identical to the serial run, so it shares that reference
        "simulate-d200",
    ),
)}
