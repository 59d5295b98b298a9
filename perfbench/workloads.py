"""The benchmark's workloads: seeded inputs, the timed calls, output checks.

Each workload is built from a seed and a size table, creates every input
before the timed pass (that is set-up), runs its parts through
``cachegeo.experiments.run`` where the CLI reaches the code and through
the public function otherwise, and checks its outputs afterwards.  Every
check reuses a gate the repository's acceptance tests already assert,
with the same threshold.

Why these three (each stresses a layer the others leave idle):

- load-models: the interference Monte Carlo with per-trial placement,
  budget and mean-load calls; analytics and optimizers are idle.
- design-sweep: quadrature-heavy analytics, both optimizers and CSV
  writing at F = 10 000; no Monte Carlo.
- noise-mc: the noise-limited engine (thinned per-content processes, no
  placement, no interference) and the xi_min sampler.
"""
from __future__ import annotations

import csv
import contextlib
import hashlib
import math

import numpy as np

from cachegeo import analytics, experiments, optimizer
from cachegeo.model import CachingPolicy, ContentLibrary, NetworkParams, uniform_rates, zipf_popularity

ZIPF_GAMMA = 0.8
THREE_SIGMA = 3.0
KKT_LIMIT = 1e-6
BUDGET_GAP_LIMIT = 1e-9
DOMINANCE_SLACK = 1e-12
RAYLEIGH_REL_LIMIT = 1e-3
CDF_SUP_LIMIT = 0.01


@contextlib.contextmanager
def untraced(name: str):
    yield


def subseeds(seed: int, n: int) -> list[int]:
    """n independent 32-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class Workload:
    """One workload: inputs from (seed, sizes); run(part) is the timed pass."""

    name = ""
    full_sizes: dict = {}
    smoke_sizes: dict = {}

    def __init__(self, seed: int, sizes: dict, workdir):
        self.sizes = sizes
        self.workdir = workdir
        self.outputs: list[str] = []  # CSV files written by experiments.run
        self.values: dict = {}  # results of direct calls

    def config(self, scenario: str, label: str, **overrides):
        output = str(self.workdir / f"{label}.csv")
        self.outputs.append(output)
        return experiments.load_config(None, scenario, output=output, **overrides)

    def run(self, part) -> None:
        raise NotImplementedError

    def check(self) -> tuple[list[dict], list[dict]]:
        """(checks, Monte Carlo estimates) of the finished pass."""
        raise NotImplementedError

    def digest(self) -> str:
        """Hash of every output, equal across passes of one seed."""
        h = hashlib.sha256()
        for path in self.outputs:
            with open(path, "rb") as handle:
                h.update(handle.read())
        h.update(repr(sorted(self.values.items())).encode())
        return h.hexdigest()


def _check(checks: list, name: str, value: float, limit: float, ok: bool) -> None:
    checks.append({"name": name, "value": float(value), "limit": float(limit), "ok": bool(ok)})


class LoadModels(Workload):
    """The approx-check figure: 9 values of p1 x 3 load modes, F=2, M=1."""

    name = "load-models"
    full_sizes = {"trials_per_point": 600}
    smoke_sizes = {"trials_per_point": 30}

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        (mc_seed,) = subseeds(seed, 1)
        self.figure = self.config(
            "figure", "approx-check", figure="approx-check",
            trials=sizes["trials_per_point"], seed=mc_seed,
        )

    def run(self, part):
        with part("bench.approx-check"):
            experiments.run(self.figure)

    def check(self):
        checks, estimates = [], []
        for row in read_rows(self.figure.output):
            v = {k: float(x) for k, x in row.items()}
            point = f"p1={v['p1']:.1f}"
            for mode, key in (("instantaneous", "inst"), ("mean-approx", "mean"),
                              ("long-term-assoc", "long")):
                estimates.append({"point": f"approx-check.{point}.{mode}",
                                  "estimate": v[f"est_{key}"], "stderr": v[f"se_{key}"],
                                  "trials": self.sizes["trials_per_point"]})
            # criterion 7: the bound chain on the p1 grid
            gap = abs(v["est_inst"] - v["est_mean"])
            limit = THREE_SIGMA * math.hypot(v["se_inst"], v["se_mean"])
            _check(checks, f"{point}.inst_vs_mean", gap, limit, gap <= limit)
            gap = v["est_long"] - v["est_mean"]
            limit = THREE_SIGMA * math.hypot(v["se_long"], v["se_mean"])
            _check(checks, f"{point}.long_below_mean", gap, limit, gap <= limit)
            gap = v["bound_c40"] - v["est_long"]
            limit = THREE_SIGMA * v["se_long"]
            _check(checks, f"{point}.bound_below_long", gap, limit, gap <= limit)
        return checks, estimates


class DesignSweep(Workload):
    """Optimizers and analytics on a Zipf(0.8) library; no Monte Carlo."""

    name = "design-sweep"
    full_sizes = {
        "count": 10_000, "memory": 100, "c": 2.0, "rho_max_grid": [0.5, 1.0, 1.5, 2.0],
        "nakagami_count": 100, "nakagami_memory": 5,
        "nakagami_fading": [[2, 1], [3, 2]],
    }
    smoke_sizes = {
        "count": 200, "memory": 5, "c": 2.0, "rho_max_grid": [0.5, 2.0],
        "nakagami_count": 4, "nakagami_memory": 1,
        "nakagami_fading": [[2, 1], [3, 2]],
    }

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        rate_seed, policy_seed = subseeds(seed, 2)
        count, memory = sizes["count"], sizes["memory"]
        self.sir = self.config(
            "optimize-sir", "optimize-sir", count=count, gamma=ZIPF_GAMMA, memory=memory,
            rate_seed=rate_seed, c_mode="fixed", c_value=sizes["c"],
            sweep="rho_max", sweep_grid=tuple(sizes["rho_max_grid"]),
        )
        self.library = self.sir.make_library()
        self.params = self.sir.network()
        # the Nakagami bound on a smaller library, under a random feasible
        # policy that caches every content (so every content costs a quadrature)
        n = sizes["nakagami_count"]
        self.small = ContentLibrary(n, zipf_popularity(n, ZIPF_GAMMA), uniform_rates(1.0, n, rate_seed))
        u = np.random.default_rng(policy_seed).uniform(0.05, 1.0, n)
        self.small_policy = CachingPolicy(u * sizes["nakagami_memory"] / u.sum(), sizes["nakagami_memory"])
        self.fading = [tuple(float(m) for m in pair) for pair in sizes["nakagami_fading"]]

    @staticmethod
    def _interference_params(m_d: float, m_i: float) -> NetworkParams:
        return NetworkParams(1e-5, 2e-5, 1.0, 0.01, 3.0, m_d, m_i)

    def run(self, part):
        count, memory, c = self.sizes["count"], self.sizes["memory"], self.sizes["c"]
        with part("bench.optimize-sir"):
            experiments.run(self.sir)
        with part("bench.optimize-noise"):
            report = optimizer.optimize_noise(self.library, self.params, memory)
            mpc = analytics.success_noise(self.library, self.params,
                                          optimizer.baseline_policy("mpc", count, memory))
            uc = analytics.success_noise(self.library, self.params,
                                         optimizer.baseline_policy("uc", count, memory))
        with part("bench.nakagami"):
            bounds = {
                f"m_d={m_d:g},m_i={m_i:g}": analytics.nakagami_lower_bound(
                    self.small, self._interference_params(m_d, m_i), self.small_policy, c)
                for m_d, m_i in self.fading
            }
        with part("bench.nakagami-rayleigh-check"):
            m1 = analytics.nakagami_lower_bound(
                self.small, self._interference_params(1.0, 1.0), self.small_policy, c)
            consts = analytics.InterferenceConstants.from_library(self.small, 3.0, c)
            rayleigh = analytics.rayleigh_lower_bound(self.small, consts, self.small_policy)
        self.values = {
            "noise.objective": report.objective, "noise.mpc": mpc, "noise.uc": uc,
            "noise.kkt_residual": report.kkt_residual,
            "noise.budget_gap": abs(float(report.policy.probs.sum()) - memory),
            "nakagami.m_d=1,m_i=1": m1, "rayleigh": rayleigh,
            **{f"nakagami.{k}": v for k, v in bounds.items()},
        }

    def check(self):
        checks = []
        memory = self.sizes["memory"]
        points: dict[str, list[dict]] = {}
        for row in read_rows(self.sir.output):
            points.setdefault(row["sweep_value"], []).append(row)
        for value, rows in points.items():
            kkt = float(rows[0]["kkt_residual"])
            _check(checks, f"optimize-sir.rho_max={value}.kkt", kkt, KKT_LIMIT, kkt <= KKT_LIMIT)
            gap = abs(sum(float(r["p_opt"]) for r in rows) - memory)
            _check(checks, f"optimize-sir.rho_max={value}.budget_gap", gap, BUDGET_GAP_LIMIT,
                   gap < BUDGET_GAP_LIMIT)
        v = self.values
        _check(checks, "optimize-noise.kkt", v["noise.kkt_residual"], KKT_LIMIT,
               v["noise.kkt_residual"] <= KKT_LIMIT)
        _check(checks, "optimize-noise.budget_gap", v["noise.budget_gap"], BUDGET_GAP_LIMIT,
               v["noise.budget_gap"] < BUDGET_GAP_LIMIT)
        # criterion 8: the optimum dominates both baselines
        margin = v["noise.objective"] - max(v["noise.mpc"], v["noise.uc"])
        _check(checks, "optimize-noise.dominates_baselines", margin, -DOMINANCE_SLACK,
               margin >= -DOMINANCE_SLACK)
        # criterion 6: the m_D = m_I = 1 bound reduces to the Rayleigh closed form
        rel = abs(v["nakagami.m_d=1,m_i=1"] - v["rayleigh"]) / v["rayleigh"]
        _check(checks, "nakagami.reduces_to_rayleigh", rel, RAYLEIGH_REL_LIMIT,
               rel <= RAYLEIGH_REL_LIMIT)
        return checks, []


class NoiseMC(Workload):
    """The noise-limited engine at F=10 000 and F=20, plus the figure-3 CDF."""

    name = "noise-mc"
    full_sizes = {"count": 10_000, "memory": 100, "trials": 400_000,
                  "small_count": 20, "small_memory": 5, "small_trials": 500_000,
                  "cdf_trials": 100_000}
    smoke_sizes = {"count": 200, "memory": 5, "trials": 20_000,
                   "small_count": 20, "small_memory": 5, "small_trials": 20_000,
                   "cdf_trials": 100_000}

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        mc_seed, small_seed, cdf_seed, rate_seed = subseeds(seed, 4)
        common = dict(gamma=ZIPF_GAMMA, channel="noise", policy_source="optimize-noise",
                      rate_seed=rate_seed)
        self.large = self.config("simulate", "simulate-large", count=sizes["count"],
                                 memory=sizes["memory"], trials=sizes["trials"],
                                 seed=mc_seed, **common)
        self.small = self.config("simulate", "simulate-small", count=sizes["small_count"],
                                 memory=sizes["small_memory"], trials=sizes["small_trials"],
                                 seed=small_seed, **common)
        self.cdf = self.config("figure", "figure-3", figure="3", trials=sizes["cdf_trials"],
                               seed=cdf_seed)

    def run(self, part):
        with part("bench.simulate-large"):
            experiments.run(self.large)
        with part("bench.simulate-small"):
            experiments.run(self.small)
        with part("bench.figure-3"):
            experiments.run(self.cdf)

    def check(self):
        checks, estimates = [], []
        for config in (self.large, self.small):
            (row,) = read_rows(config.output)
            est, se = float(row["estimate"]), float(row["stderr"])
            label = f"simulate.F={config.count}"
            estimates.append({"point": label, "estimate": est, "stderr": se,
                              "trials": int(row["trials"])})
            # criterion 2: Monte Carlo within 3 sigma of the closed form
            gap = abs(est - float(row["analytic"]))
            _check(checks, f"{label}.vs_closed_form", gap, THREE_SIGMA * se,
                   gap <= THREE_SIGMA * se)
        worst = 0.0
        for row in read_rows(self.cdf.output):
            estimates.append({
                "point": f"figure-3.lambda={row['lambda']},m_d={row['m_d']},xi={row['xi']}",
                "estimate": float(row["empirical_cdf"]), "stderr": float(row["stderr"]),
                "trials": self.sizes["cdf_trials"],
            })
            worst = max(worst, abs(float(row["empirical_cdf"]) - float(row["analytic_cdf"])))
        # criterion 1: sup CDF deviation
        _check(checks, "figure-3.sup_cdf_deviation", worst, CDF_SUP_LIMIT, worst < CDF_SUP_LIMIT)
        return checks, estimates


WORKLOADS = {cls.name: cls for cls in (LoadModels, DesignSweep, NoiseMC)}
