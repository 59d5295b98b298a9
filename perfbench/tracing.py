"""In-memory span tracer for the traced benchmark pass.

The tracer patches the public names through which cachegeo's layers call
one another (the names imported into ``cachegeo.experiments``,
``cachegeo.optimizer`` and ``cachegeo.simulator``, plus the module
attributes the benchmark itself calls), records one span per call
(name, start, end, parent) and restores every name on ``uninstall``.
Two hot calls are counted without spans: ``scipy.integrate.quad`` and
``numpy.random.default_rng``.  Nothing in ``src/`` is modified.

Span names are ``<layer>.<what>``, with the layer named after the module
that owns the code, so per-layer self time is a prefix sum.
"""
from __future__ import annotations

import contextlib
import inspect
import json
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

INTERFERENCE_MODES = ("instantaneous", "mean-approx", "long-term-assoc")

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {
    **{f"simulator.interference.{m}.us_per_trial": "us" for m in INTERFERENCE_MODES},
    **{f"simulator.interference.{m}.trials": "count" for m in INTERFERENCE_MODES},
    "simulator.noise.us_per_trial": "us",
    "simulator.noise.trials": "count",
    "simulator.xi_min.s": "s",
    "simulator.rng_streams": "count",
    "placement.build_block_layout.calls": "count",
    "placement.build_block_layout.s": "s",
    "placement.cache_matrix.calls": "count",
    "placement.cache_matrix.s": "s",
    "placement.cache_matrix.rows": "count",
    "model.budget_violation.calls": "count",
    "model.budget_violation.s": "s",
    "analytics.interference_constants.s": "s",
    "analytics.interference_constants.calls": "count",
    "analytics.nakagami_bound.s": "s",
    "analytics.quad_calls": "count",
    "analytics.closed_form.s": "s",
    "analytics.mean_load.calls": "count",
    "optimizer.optimize_noise.s": "s",
    "optimizer.optimize_interference.s": "s",
    "optimizer.bisection_iterations": "count",
    "optimizer.kkt_residual_max": "dimensionless",
    "experiments.run.s": "s",
    "experiments.self_s": "s",
    "experiments.rows_written": "count",
    "trace.overhead_ratio": "ratio",
    "trace.span_coverage": "ratio",
}


class Tracer:
    """Spans and counters of one traced pass, kept in memory until dump()."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent_index or -1]
        self.counters: Counter = Counter()
        self.kkt_residual_max = 0.0
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, _clock(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace owner.attr by a spanning wrapper.

        `name` is a span name or a function of the bound call arguments;
        `after(arguments, result)` runs once the span is closed.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        signature = inspect.signature(fn)
        needs_args = callable(name) or after is not None

        def wrapper(*args, **kwargs):
            arguments = None
            if needs_args:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            index = self._open(name(arguments) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(arguments, result)
            return result

        self._patch(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def count(self, owner, attr: str, counter: str) -> None:
        """Replace owner.attr by a wrapper that only counts calls."""
        fn = owner.__dict__[attr]
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- hooks -------------------------------------------------------------

    def _add(self, counter: str, amount) -> None:
        self.counters[counter] += amount

    def _solve_report(self, arguments, report) -> None:
        self.counters["optimizer.bisection_iterations"] += report.iterations
        self.kkt_residual_max = max(self.kkt_residual_max, report.kkt_residual)

    def _rows_written(self, arguments, status) -> None:
        manifest = arguments["config"].output + ".manifest.json"
        with open(manifest) as handle:
            self.counters["experiments.rows_written"] += json.load(handle)["rows"]

    def install(self) -> None:
        """Patch every traced name; call uninstall() to restore them."""
        import numpy
        import scipy.integrate

        from cachegeo import analytics, experiments, optimizer, simulator

        def interference_mode(a):
            return f"simulator.interference.{a['load_mode']}"

        def interference_trials(a, result):
            self._add(f"simulator.interference.{a['load_mode']}.trials", a["trials"])

        # experiments -> lower layers
        self.wrap(experiments, "run", "experiments.run", after=self._rows_written)
        self.wrap(experiments, "simulate_interference_limited", interference_mode,
                  after=interference_trials)
        self.wrap(experiments, "simulate_noise_limited", "simulator.noise",
                  after=lambda a, r: self._add("simulator.noise.trials", a["trials"]))
        self.wrap(experiments, "sample_xi_min", "simulator.xi_min")
        for module in (experiments, optimizer):
            self.wrap(module, "optimize_noise", "optimizer.optimize_noise",
                      after=self._solve_report)
            self.wrap(module, "optimize_interference", "optimizer.optimize_interference",
                      after=self._solve_report)
            self.wrap(module, "baseline_policy", "optimizer.baseline_policy")
        for module in (experiments, optimizer, analytics):
            self.wrap(module, "success_noise", "analytics.closed_form")
            self.wrap(module, "rayleigh_lower_bound", "analytics.closed_form")
        self.wrap(experiments, "xi1_cdf", "analytics.xi1_cdf")
        self.wrap(analytics.InterferenceConstants, "from_rates", "analytics.interference_constants")
        self.wrap(analytics, "nakagami_lower_bound", "analytics.nakagami_bound")
        # simulator -> analytics, model, placement (called per trial)
        self.wrap(simulator, "mean_load_m1", "analytics.mean_load")
        self.wrap(simulator, "budget_violation", "model.budget_violation")
        self.wrap(simulator, "build_block_layout", "placement.build_block_layout")
        self.wrap(simulator, "cache_matrix", "placement.cache_matrix",
                  after=lambda a, r: self._add("placement.cache_matrix.rows", len(a["us"])))
        self.count(scipy.integrate, "quad", "analytics.quad_calls")
        self.count(numpy.random, "default_rng", "simulator.rng_streams")

    # -- reduction ---------------------------------------------------------

    def summary(self, traced_wall: float) -> dict:
        """Per-span-name totals, per-layer self time and the per-layer metrics."""
        n = len(self.spans)
        child_time = [0.0] * n
        inclusive = defaultdict(float)
        calls = Counter()
        self_time = defaultdict(float)
        top_level = 0.0
        for i in range(n - 1, -1, -1):
            name_id, start, end, parent = self.spans[i]
            duration = end - start
            if parent >= 0:
                child_time[parent] += duration
            else:
                top_level += duration
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            name = self.names[name_id]
            inclusive[name] += end - start
            calls[name] += 1
            self_time[name] += end - start - child_time[i]
        layer_self = defaultdict(float)
        for name, seconds in self_time.items():
            layer_self[name.split(".", 1)[0]] += seconds

        def per_trial_us(seconds, trials):
            return 1e6 * seconds / trials if trials else 0.0

        c = self.counters
        metrics = {}
        for mode in INTERFERENCE_MODES:
            trials = c[f"simulator.interference.{mode}.trials"]
            metrics[f"simulator.interference.{mode}.us_per_trial"] = per_trial_us(
                inclusive[f"simulator.interference.{mode}"], trials
            )
            metrics[f"simulator.interference.{mode}.trials"] = trials
        metrics.update({
            "simulator.noise.us_per_trial": per_trial_us(
                inclusive["simulator.noise"], c["simulator.noise.trials"]
            ),
            "simulator.noise.trials": c["simulator.noise.trials"],
            "simulator.xi_min.s": inclusive["simulator.xi_min"],
            "simulator.rng_streams": c["simulator.rng_streams"],
            "placement.build_block_layout.calls": calls["placement.build_block_layout"],
            "placement.build_block_layout.s": inclusive["placement.build_block_layout"],
            "placement.cache_matrix.calls": calls["placement.cache_matrix"],
            "placement.cache_matrix.s": inclusive["placement.cache_matrix"],
            "placement.cache_matrix.rows": c["placement.cache_matrix.rows"],
            "model.budget_violation.calls": calls["model.budget_violation"],
            "model.budget_violation.s": inclusive["model.budget_violation"],
            "analytics.interference_constants.s": inclusive["analytics.interference_constants"],
            "analytics.interference_constants.calls": calls["analytics.interference_constants"],
            "analytics.nakagami_bound.s": inclusive["analytics.nakagami_bound"],
            "analytics.quad_calls": c["analytics.quad_calls"],
            "analytics.closed_form.s": inclusive["analytics.closed_form"],
            "analytics.mean_load.calls": calls["analytics.mean_load"],
            "optimizer.optimize_noise.s": inclusive["optimizer.optimize_noise"],
            "optimizer.optimize_interference.s": inclusive["optimizer.optimize_interference"],
            "optimizer.bisection_iterations": c["optimizer.bisection_iterations"],
            "optimizer.kkt_residual_max": self.kkt_residual_max,
            "experiments.run.s": inclusive["experiments.run"],
            "experiments.self_s": self_time["experiments.run"],
            "experiments.rows_written": c["experiments.rows_written"],
            "trace.span_coverage": top_level / traced_wall,
        })
        return {
            "metrics": metrics,
            "span_seconds": dict(inclusive),
            "span_calls": dict(calls),
            "layer_self_s": dict(layer_self),
            "top_level_s": top_level,
        }

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent index] (-1 at top level)."""
        with open(path, "w") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle, separators=(",", ":"))
