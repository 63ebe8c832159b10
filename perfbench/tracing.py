"""Spans around the calls into each proxtune module, taken from outside the
package.

A function is wrapped at the attribute where its caller looks it up: a
module global such as ``proxtune.simulate.sample_batch`` (read by
``run_empirical``) or a method on its class such as
``ExpectationEngine.v_pair``. Spans are kept in memory as
``(name, start, end, parent)`` tuples, ``parent`` being the index of the
enclosing span or -1. ``Tracer.remove`` puts every original back.

Work done in process-pool workers is not seen: the wrappers record into the
worker's copy of the tracer, which is discarded.
"""

import functools
import math
import os
import statistics
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Spans and counts of one traced run; ``install`` adds the wrappers."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = []
        self._originals = []

    def wrap(self, owner, attr, name, observe=None):
        """Replace ``owner.attr`` by a wrapper that records a span named
        ``name``; ``observe(tracer, args, kwargs, result)`` then records
        counts outside the span's own interval."""
        original = vars(owner)[attr]
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def remove(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def add(self, key, value):
        self.counts[key] += value

    def high(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)


def self_times(spans):
    """Per span: its duration minus the part of its interval that its child
    spans cover (the union of the children, clipped to the parent)."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


def by_name(spans):
    """name -> (calls, inclusive seconds, self seconds, durations)."""
    table = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        calls, total, self_s, durations = table.get(name, (0, 0.0, 0.0, []))
        durations.append(end - start)
        table[name] = (calls + 1, total + end - start, self_s + own, durations)
    return table


# ---------------------------------------------------------------------------
# what is wrapped, and the counts taken at each boundary

def _context_nodes(tracer, args, kwargs, result):
    tracer.add("context_nodes", result.t.size)


def _kernel_nodes(tracer, args, kwargs, result):
    # (engine, ctx, r1, r2): every kernel call evaluates the whole grid
    tracer.add("nodes_evaluated", args[1].t.size)


def _fixed_point(tracer, args, kwargs, result):
    tracer.add("solve_r_iterations", result.iterations_used)
    tracer.high("solve_r_iterations", result.iterations_used)


def _step_shape(tracer, args, kwargs, result):
    m, d = args[2].X.shape
    method = kwargs.get("method", args[4] if len(args) > 4 else "auto")
    dense = method == "dense" or (method == "auto" and m >= d)
    tracer.add("dense_calls", dense)
    tracer.add("step_flops", step_flops(m, d, dense))


def _table_size(tracer, args, kwargs, result):
    tracer.add("table_rows", len(args[2]))
    tracer.add("table_bytes", os.path.getsize(args[0]))


def _sweep_points(tracer, args, kwargs, result):
    results, failures = result
    tracer.add("tune_points", len(results) + len(failures))
    tracer.add("tune_points_failed", len(failures))


def step_flops(m, d, dense):
    """Floating-point operations of one prox-linear step, computed from the
    shapes (not counted): every m x d matrix-vector product costs 2md."""
    matvec = 2 * m * d
    # w, wt, the two transposed right-hand sides and the residual's four
    # products are shared by both routes
    shared = 8 * matvec
    if dense:
        n = 2 * d
        return shared + 2 * m * n * n + n ** 3 / 3 + 2 * n * n
    return shared + 4 * matvec + 4 * m * m * d + m ** 3 / 3 + 2 * m * m


def install(tracer):
    """Wrap every traced boundary of the proxtune package."""
    import proxtune.cli as cli
    import proxtune.predict as predict
    import proxtune.simulate as simulate
    import proxtune.tune as tune
    from proxtune.expect import ExpectationEngine

    wraps = (
        (cli, "main", "cli.main", None),
        (cli, "write_table", "cli.write_table", _table_size),
        (cli, "sweep", "tune.sweep", _sweep_points),
        (cli, "build_report", "tune.build_report", None),
        (cli, "recommend", "tune.recommend", None),
        (cli, "predict_trajectory", "predict.trajectory", None),
        (tune, "predict_trajectory", "predict.trajectory", None),
        (predict, "det_map", "predict.det_map", None),
        (predict, "solve_r", "predict.solve_r", _fixed_point),
        (ExpectationEngine, "context", "expect.context", _context_nodes),
        (ExpectationEngine, "v_pair", "expect.v_pair", _kernel_nodes),
        (ExpectationEngine, "first_order", "expect.first_order", _kernel_nodes),
        (ExpectationEngine, "second_order", "expect.second_order", _kernel_nodes),
        (cli, "run_trials", "simulate.run_trials", None),
        (simulate, "run_empirical", "simulate.run_empirical", None),
        (simulate, "sample_batch", "model.sample_batch", None),
        (simulate, "prox_linear_step", "simulate.prox_linear_step", _step_shape),
        (simulate, "_check_residual", "simulate.check_residual", None),
        (simulate, "state_of", "state.state_of", None),
        (simulate, "frob_err", "state.frob_err", None),
    )
    for owner, attr, name, observe in wraps:
        tracer.wrap(owner, attr, name, observe)


# span names whose self time each per-layer self_s metric sums; together
# they cover every span, so their sum is the root span's duration
SELF_GROUPS = {
    "cli.other.self_s": ("cli.main",),
    "cli.write_table.self_s": ("cli.write_table",),
    "tune.sweep.self_s": ("tune.sweep",),
    "tune.report.self_s": ("tune.build_report", "tune.recommend"),
    "predict.trajectory.self_s": ("predict.trajectory",),
    "predict.det_map.self_s": ("predict.det_map",),
    "predict.solve_r.self_s": ("predict.solve_r",),
    "expect.context.self_s": ("expect.context",),
    "expect.v_pair.self_s": ("expect.v_pair",),
    "expect.first_order.self_s": ("expect.first_order",),
    "expect.second_order.self_s": ("expect.second_order",),
    "simulate.run_trials.self_s": ("simulate.run_trials",),
    "simulate.run_empirical.self_s": ("simulate.run_empirical",),
    "simulate.prox_linear_step.self_s": ("simulate.prox_linear_step",),
    "simulate.check_residual.self_s": ("simulate.check_residual",),
    "model.sample_batch.self_s": ("model.sample_batch",),
    "state.self_s": ("state.state_of", "state.frob_err"),
}


def layer_metrics(tracer):
    """Per-layer metrics of one traced run. Layers the workload does not
    reach read 0."""
    table = by_name(tracer.spans)

    def calls(name):
        return table.get(name, (0,))[0]

    def total(name):
        return table.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {key: sum(table.get(n, (0, 0.0, 0.0))[2] for n in names)
               for key, names in SELF_GROUPS.items()}
    counts = tracer.counts
    steps = calls("predict.det_map")
    prox = calls("simulate.prox_linear_step")
    trials = table.get("simulate.run_empirical", (0, 0.0, 0.0, [0.0]))[3]
    metrics.update({
        "expect.context.calls": calls("expect.context"),
        "expect.context.nodes": ratio(counts["context_nodes"], calls("expect.context")),
        "expect.v_pair.calls": calls("expect.v_pair"),
        "expect.nodes_evaluated": counts["nodes_evaluated"],
        "predict.solve_r.calls": calls("predict.solve_r"),
        "predict.solve_r.iterations_mean": ratio(counts["solve_r_iterations"],
                                                 calls("predict.solve_r")),
        "predict.solve_r.iterations_max": tracer.maxima["solve_r_iterations"],
        "predict.map_step_us": 1e6 * ratio(total("predict.det_map"), steps),
        "predict.v_pair_per_step": ratio(calls("expect.v_pair"), steps),
        "tune.sweep.total_s": total("tune.sweep"),
        "tune.points": counts["tune_points"],
        "tune.points_failed": counts["tune_points_failed"],
        "model.sample_batch.calls": calls("model.sample_batch"),
        "simulate.prox_linear_step.calls": prox,
        "simulate.prox_linear_step.dense_calls": counts["dense_calls"],
        "simulate.prox_linear_step.self_us": 1e6 * ratio(
            metrics["simulate.prox_linear_step.self_s"], prox),
        "simulate.step_flops": ratio(counts["step_flops"], prox),
        "simulate.run_empirical.trial_s.p50": statistics.median(trials),
        "simulate.run_empirical.trial_s.max": max(trials),
        "simulate.run_trials.total_s": total("simulate.run_trials"),
        "state.calls": calls("state.state_of") + calls("state.frob_err"),
        "cli.write_table.calls": calls("cli.write_table"),
        "cli.write_table.bytes": counts["table_bytes"],
        "cli.write_table.rows": counts["table_rows"],
    })
    metrics["trace.self_sum_s"] = math.fsum(metrics[key] for key in SELF_GROUPS)
    return metrics
