"""Output checks for benchmark runs.

Data rows are compared, never whole files: the metadata block carries a
config hash that folds in ``--parallelism``.

Invariants hold for any seed: every row count follows from the flags, every
value is finite and every error column is nonnegative. Against the stored
reference summary (``reference/<name>.json``, made at ``REFERENCE_SEED``),
deterministic columns must agree within 1e-12 relative at any seed, since
they consume no randomness; stochastic columns are compared at the
reference seed only and fail above 1e-9 relative. A tune run must also
reproduce the reference recommendation.

Regenerate the references (after a declared output change only) with
``python3 perfbench/checks.py``.
"""

import json
import math
import os
import sys

from workloads import REFERENCE_SEED, WORKLOADS

DET_RTOL = 1e-12
STOCH_RTOL = 1e-9
SAMPLE_ROWS = 40

# columns drawn from random numbers, per table; every other column is a pure
# function of the flags
STOCHASTIC = {
    "trials": {"alpha", "beta", "talpha", "tbeta", "err", "frob_err"},
    "aggregate": {"median_err", "q25_err", "q75_err"},
    "compare": {"median_emp", "abs_gap", "rel_gap"},
}
NONNEGATIVE = {"err", "median_err", "q25_err", "q75_err", "err_seq", "abs_gap",
               "floor"}

HERE = os.path.dirname(os.path.abspath(__file__))


def output_tables(workload, out):
    """(table kind, path) for every file one run of ``workload`` writes."""
    ext = "json" if "--format" in workload.argv and workload.flag("format", str) == "json" else "csv"
    kinds = {
        "simulate": [("trials", out), ("aggregate", out)],
        "tune": [("tune", out)],
        "compare": [("trials", out + ".emp"), ("aggregate", out + ".emp"),
                    ("predict", out + ".det"), ("compare", out)],
    }[workload.mode]
    return [(kind, f"{base}.{kind}.{ext}") for kind, base in kinds]


def expected_rows(workload, kind):
    iters = workload.flag("iters")
    if kind == "trials":
        return workload.flag("trials") * (iters + 1)
    if kind == "tune":
        return None  # one row per grid point that did not fail
    return iters + 1


def summarize(columns, rows):
    """Reference summary of one table: evenly spaced sample rows, the last
    row, and per-column sums over every row (empty cells count as 0)."""
    step = max(1, len(rows) // SAMPLE_ROWS)
    picks = sorted(set(range(0, len(rows), step)) | {len(rows) - 1})
    sums = [math.fsum(row[j] or 0.0 for row in rows) for j in range(len(columns))]
    return {"columns": list(columns), "rows": len(rows),
            "sample": {str(i): rows[i] for i in picks}, "sums": sums}


def _close(a, b, rtol):
    if a is None or b is None:
        return a is b
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def check_invariants(workload, kind, columns, rows):
    errors = []
    want = expected_rows(workload, kind)
    if want is not None and len(rows) != want:
        errors.append(f"{kind}: {len(rows)} rows, expected {want}")
    for i, row in enumerate(rows):
        for col, value in zip(columns, row):
            if value is None:
                continue
            if not math.isfinite(value):
                errors.append(f"{kind}: row {i} {col} = {value} is not finite")
            elif col in NONNEGATIVE and value < 0:
                errors.append(f"{kind}: row {i} {col} = {value} is negative")
        if len(errors) > 5:
            break
    return errors


def check_reference(kind, ref, columns, rows, stochastic_too):
    """Compare one table with its reference summary."""
    if list(columns) != ref["columns"]:
        return [f"{kind}: columns {columns} differ from the reference"]
    if len(rows) != ref["rows"]:
        return [f"{kind}: {len(rows)} rows, reference has {ref['rows']}"]
    random = STOCHASTIC.get(kind, set())
    tols = [None if col in random and not stochastic_too
            else STOCH_RTOL if col in random else DET_RTOL for col in columns]
    errors = []
    got = summarize(columns, rows)
    pairs = [(f"row {i}", got["sample"][i], ref_row)
             for i, ref_row in ref["sample"].items()]
    pairs.append(("column sum", got["sums"], ref["sums"]))
    for where, values, ref_values in pairs:
        for col, tol, a, b in zip(columns, tols, values, ref_values):
            if tol is not None and not _close(a, b, tol):
                errors.append(f"{kind}: {where} {col} = {a!r}, reference {b!r}")
    return errors[:5]


def load_reference(workload):
    with open(os.path.join(HERE, "reference", workload.reference + ".json")) as fh:
        return json.load(fh)


def check_run(workload, seed, out, stdout, reference, predicted=None):
    """Every check on one finished run; returns a list of failures.

    ``predicted`` is the err_seq of a standalone ``predict`` run of the same
    flags, which a compare run's err_seq column must equal exactly."""
    from proxtune.cli import read_table

    errors = []
    for kind, path in output_tables(workload, out):
        if not os.path.exists(path):
            errors.append(f"{kind}: {path} was not written")
            continue
        _, columns, rows = read_table(path)
        errors += check_invariants(workload, kind, columns, rows)
        errors += check_reference(kind, reference["tables"][kind], columns, rows,
                                  stochastic_too=seed == reference["seed"])
        if kind == "compare" and predicted is not None:
            got = [row[columns.index("err_seq")] for row in rows]
            if got != predicted:
                errors.append("compare: err_seq differs from a standalone predict")
    if workload.mode == "tune":
        lines = [ln for ln in stdout.splitlines() if ln.startswith("recommendation:")]
        if lines != [reference["recommendation"]]:
            errors.append(f"tune: recommendation {lines} differs from "
                          f"{reference['recommendation']!r}")
    return errors


def make_reference(workload, workdir):
    """Run ``workload`` once at the reference seed and summarize its tables."""
    import contextlib
    import io

    from proxtune.cli import main, read_table

    out = os.path.join(workdir, workload.name, "run")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*workload.argv, "--seed", str(REFERENCE_SEED), "--out", out])
    if code != 0:
        raise SystemExit(f"{workload.name} exited with {code}")
    summary = {"seed": REFERENCE_SEED, "tables": {}}
    for kind, path in output_tables(workload, out):
        _, columns, rows = read_table(path)
        summary["tables"][kind] = summarize(columns, rows)
    if workload.mode == "tune":
        summary["recommendation"] = next(
            ln for ln in stdout.getvalue().splitlines() if ln.startswith("recommendation:"))
    return summary


if __name__ == "__main__":
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    for name in sorted({w.reference for w in WORKLOADS.values()}):
        summary = make_reference(WORKLOADS[name], os.path.join(root, ".perfbench"))
        with open(os.path.join(HERE, "reference", name + ".json"), "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
        print(f"wrote reference/{name}.json")
