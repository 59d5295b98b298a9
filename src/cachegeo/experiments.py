"""Experiment orchestration: config parsing, sweep drivers, figure-data
reproduction, and machine-readable outputs (CSV rows + a JSON manifest).

Configs are INI files with [network], [library], [policy], and
[experiment] sections; command-line flags override file values.  SNR is
given in dB and converted to linear watts internally (noted in the
manifest).  Densities are per square meter, rates bits/s/Hz.
"""
from __future__ import annotations

import configparser
import json
import math
import os
import platform
import time
from dataclasses import asdict, dataclass, field, replace
from importlib import metadata
from pathlib import Path

import numpy as np

from .analytics import InterferenceConstants, rayleigh_lower_bound, success_noise, xi1_cdf
from .errors import NumericalError
from .model import CachingPolicy, ContentLibrary, NetworkParams, uniform_rates, zipf_popularity
from .optimizer import baseline_policy, optimize_interference, optimize_noise
from .simulator import (
    LOAD_MODES,
    _simulate_interference_pass,
    sample_xi_min,
    simulate_interference_limited,
    simulate_noise_limited,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "run",
    "list_figures",
    "select_c",
    "FIGURES",
]

SCENARIOS = ("cdf", "optimize-noise", "optimize-sir", "simulate", "figure")
SWEEPABLE = (
    "gamma",
    "memory",
    "rho_max",
    "rho",
    "helper_density",
    "user_density",
    "fading_desired",
    "snr_db",
)
_C_GRID = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 40.0, 48.0, 64.0, 96.0, 128.0)
# select_c's reference set: the two baselines plus seeded random policies
_N_REFERENCE_POLICIES = 6


class ConfigError(ValueError):
    """The experiment configuration is invalid (CLI exit status 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; built by load_config, overridable by flags."""

    scenario: str
    helper_density: float = 0.05
    user_density: float = 0.002
    tx_power: float = 1.0
    snr_db: float = 20.0
    pathloss_exp: float = 3.0
    fading_desired: float = 1.0
    fading_interf: float = 1.0
    count: int = 10
    gamma: float = 1.0
    rate_mode: str = "uniform"
    rho_max: float = 1.0
    rho: float = 0.001
    rate_seed: int = 1
    memory: int = 3
    policy_source: str = "optimize-noise"
    probs: tuple = ()
    sweep: str = ""
    sweep_grid: tuple = ()
    trials: int = 10_000
    seed: int = 1
    output: str = "cachegeo_out.csv"
    figure: str = ""
    channel: str = "noise"
    load_mode: str = "instantaneous"
    c_mode: str = "load"
    c_value: float = 40.0

    def validate(self) -> "ExperimentConfig":
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIOS}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        for name in ("seed", "rate_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.sweep and self.sweep not in SWEEPABLE:
            raise ConfigError(f"sweep variable {self.sweep!r} is not one of {SWEEPABLE}")
        if self.sweep and not self.sweep_grid:
            raise ConfigError("a sweep needs a nonempty sweep_grid")
        if self.sweep == "memory" and not all(float(v).is_integer() for v in self.sweep_grid):
            raise ConfigError("memory sweep values must be whole numbers of cache slots")
        if self.rate_mode not in ("uniform", "constant"):
            raise ConfigError("rate_mode must be 'uniform' or 'constant'")
        if self.policy_source not in ("optimize-noise", "optimize-sir", "mpc", "uc", "explicit"):
            raise ConfigError(f"unknown policy source {self.policy_source!r}")
        if self.c_mode not in ("load", "fixed", "numeric"):
            raise ConfigError("c_mode must be 'load', 'fixed', or 'numeric'")
        if self.c_mode == "fixed" and not 1 <= self.c_value < math.inf:
            raise ConfigError(f"c_value must be >= 1 and finite, got {self.c_value}")
        if self.channel not in ("noise", "interference"):
            raise ConfigError("channel must be 'noise' or 'interference'")
        if self.load_mode not in LOAD_MODES:
            raise ConfigError(f"unknown load_mode {self.load_mode!r}, expected one of {LOAD_MODES}")
        out = Path(self.output)
        parent = out.parent if str(out.parent) else Path(".")
        if not parent.exists():
            raise ConfigError(f"output directory {parent} does not exist")
        if not os.access(parent, os.W_OK):
            raise ConfigError(f"output directory {parent} is not writable")
        return self

    def network(self) -> NetworkParams:
        try:
            snr = 10.0 ** (self.snr_db / 10.0)
        except OverflowError:  # beyond the float range: noiseless, as snr_db = inf
            snr = math.inf
        noise_power = self.tx_power / snr if snr > 0 else math.inf
        # a non-finite tx_power is NetworkParams' to report
        if math.isfinite(self.tx_power) and not math.isfinite(noise_power):
            raise ConfigError(
                f"snr_db = {self.snr_db} gives a noise power tx_power / 10^(snr_db/10) "
                f"of {noise_power}; it must be finite"
            )
        return NetworkParams(
            helper_density=self.helper_density,
            user_density=self.user_density,
            tx_power=self.tx_power,
            noise_power=noise_power,
            pathloss_exp=self.pathloss_exp,
            fading_desired=self.fading_desired,
            fading_interf=self.fading_interf,
        )

    def make_library(self) -> ContentLibrary:
        popularity = zipf_popularity(self.count, self.gamma)
        if self.rate_mode == "constant":
            if not 0 < self.rho < math.inf:  # NaN fails too
                raise ConfigError(f"rho must be > 0 and finite, got {self.rho}")
            rates = np.full(self.count, self.rho)
        else:
            rates = uniform_rates(self.rho_max, self.count, self.rate_seed)
        return ContentLibrary(self.count, popularity, rates)

    def as_dict(self) -> dict:
        return asdict(self)


def _parse_floats(text: str) -> tuple:
    return tuple(float(v) for v in text.replace(",", " ").split())


# INI section -> keys; a key is parsed as the type of its ExperimentConfig default
_INI_KEYS = {
    "network": ("helper_density", "user_density", "tx_power", "snr_db", "pathloss_exp",
                "fading_desired", "fading_interf"),
    "library": ("count", "gamma", "rate_mode", "rho_max", "rho", "rate_seed"),
    "policy": ("memory", "source", "probs"),
    "experiment": ("trials", "seed", "output", "figure", "sweep", "sweep_grid", "channel",
                   "load_mode", "c_mode", "c_value"),
}
_INI_RENAMES = {"source": "policy_source"}


def load_config(path: str | None, scenario: str, **overrides) -> ExperimentConfig:
    """Build an ExperimentConfig from an INI file plus keyword overrides
    (None overrides are ignored)."""
    values: dict = {"scenario": scenario}
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        if not parser.read(path):
            raise ConfigError(f"config file {path!r} not found or unreadable")
        for section, keys in _INI_KEYS.items():
            if not parser.has_section(section):
                continue
            stray = set(parser.options(section)) - set(keys)
            if stray:
                raise ConfigError(f"unknown keys in [{section}]: {sorted(stray)}")
            for key in parser.options(section):
                name = _INI_RENAMES.get(key, key)
                default = ExperimentConfig.__dataclass_fields__[name].default
                cast = _parse_floats if isinstance(default, tuple) else type(default)
                try:
                    values[name] = cast(parser.get(section, key))
                except ValueError as exc:
                    raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
        unknown = set(parser.sections()) - set(_INI_KEYS)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    try:
        config = ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return config.validate()


def _resolve_c(config: ExperimentConfig, library: ContentLibrary, params: NetworkParams) -> float:
    if config.c_mode == "fixed":
        return config.c_value
    if config.c_mode == "load":
        return max(1.0, config.memory * params.user_density / params.helper_density)
    return select_c(library, params, config.memory, trials=config.trials, seed=config.seed)


def _interference_constants(
    config: ExperimentConfig, library: ContentLibrary, params: NetworkParams
) -> InterferenceConstants:
    return InterferenceConstants.from_library(
        library, params.pathloss_exp, _resolve_c(config, library, params)
    )


def _solve(source: str, config: ExperimentConfig, library: ContentLibrary, params: NetworkParams):
    """Resolve a policy source at one point.

    Returns (the optimizer's SolveReport, or the policy itself for the
    explicit and baseline sources; the InterferenceConstants the optimizer
    used, whose .c is the resolved load bound, or None).
    """
    if source == "explicit":
        if len(config.probs) != library.count:
            raise ConfigError("explicit probs must list one probability per content")
        return CachingPolicy(np.array(config.probs), config.memory), None
    if source in ("mpc", "uc"):
        return baseline_policy(source, library.count, config.memory), None
    if source == "optimize-noise":
        return optimize_noise(library, params, config.memory), None
    consts = _interference_constants(config, library, params)
    return optimize_interference(library, consts, config.memory), consts


def _policy_of(solved) -> CachingPolicy:
    return solved if isinstance(solved, CachingPolicy) else solved.policy


def _upper_limit(ref) -> float:
    """Three-sigma upper limit on a reference's success probability.

    est + 3 se, except with no success, where se = 0 would make the limit
    0: there it is the z = 3 Wilson upper limit 9 / (n + 9).
    """
    if ref.successes == 0:
        return 9.0 / (ref.trials + 9.0)
    return ref.estimate + 3.0 * ref.stderr


def select_c(
    library: ContentLibrary,
    params: NetworkParams,
    memory: int,
    trials: int,
    seed: int,
) -> float:
    """Smallest load bound c on a grid keeping the Rayleigh bound below a
    Monte Carlo reference (distance association, mean load) on a set of
    feasible policies.  The certificate is only as strong as the finite
    policy set: baselines plus seeded random feasible policies.
    """
    rng = np.random.default_rng(seed)
    policies = [baseline_policy("uc", library.count, memory)]
    if memory < library.count:
        policies.append(baseline_policy("mpc", library.count, memory))
    while len(policies) < _N_REFERENCE_POLICIES:
        p = rng.random(library.count)
        p *= min(1.0, memory / p.sum())
        p = np.maximum(p, 0.05)  # keep windows and loads finite
        p *= min(1.0, memory / p.sum())
        policies.append(CachingPolicy(p, memory))
    # the distance-association reference exists only for single-slot caches
    reference_mode = "long-term-assoc" if memory == 1 else "instantaneous"
    limits = [
        _upper_limit(
            simulate_interference_limited(
                library, params, policy, trials, seed, load_mode=reference_mode
            )
        )
        for policy in policies
    ]
    for c in _C_GRID:
        consts = InterferenceConstants.from_library(library, params.pathloss_exp, c)
        ok = all(
            rayleigh_lower_bound(library, consts, policy) <= limit
            for policy, limit in zip(policies, limits)
        )
        if ok:
            return c
    raise NumericalError(
        f"no c in {_C_GRID} certifies the lower bound on the reference policy set"
    )


def _sweep_points(config: ExperimentConfig):
    """Yield (sweep value, config at that value) per sweep point, or one
    ("", config) point when there is no sweep."""
    if not config.sweep:
        yield "", config
        return
    for value in config.sweep_grid:
        at = int(value) if config.sweep == "memory" else value
        yield value, replace(config, **{config.sweep: at})


# ---------------------------------------------------------------------------
# scenario runners: each returns (fieldnames, rows); an array in a row spans CSV lines


def _cell(value, alone: bool = False) -> str:
    """A value's CSV cell as csv's QUOTE_MINIMAL writes it, `alone` on a one-column line."""
    text = format(value, ".12g") if isinstance(value, float) else str(value)
    if (alone and not text) or any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _policy_string(probs: np.ndarray) -> str:
    # %-formatted 512 at a time: one tuple of all F probabilities raised the peak RSS
    return ";".join(";".join(["%.9g"] * p.size) % tuple(p.tolist())
                    for p in np.split(probs, range(512, probs.size, 512)))


def _run_cdf(config: ExperimentConfig):
    params = config.network()
    # xi grid through the analytic quantiles so curves are well resolved
    kp = -np.log1p(-xi1_cdf(1.0, 1.0, params))
    quantiles = np.linspace(0.02, 0.99, 40)
    xi_grid = (-np.log1p(-quantiles) / kp) ** (1.0 / params.delta)
    samples = np.sort(sample_xi_min(params, 1.0, config.trials, config.seed))
    empirical = np.searchsorted(samples, xi_grid, side="right") / samples.size
    row = {
        "lambda": params.helper_density,
        "m_d": params.fading_desired,
        "xi": xi_grid,
        "analytic_cdf": np.array([xi1_cdf(xi, 1.0, params) for xi in xi_grid.tolist()]),
        "empirical_cdf": empirical,
        "stderr": np.sqrt(empirical * (1 - empirical) / samples.size),
    }
    return ["lambda", "m_d", "xi", "analytic_cdf", "empirical_cdf", "stderr"], [row]


_CONTENT_FIELDS = ["content", "popularity", "rate", "p_opt", "objective", "omega",
                   "iterations", "kkt_residual"]


def _optimizer_rows(source: str, points, label: str, **columns) -> list[dict]:
    """Rows of the `source` optimizer's solution, one per (value, config)
    point: the value goes in column `label`, `columns` are the same at every
    point, "c" is the load bound used ("" without one), and the per-content
    columns are arrays."""
    rows = []
    for value, cfg in points:
        library = cfg.make_library()
        report, consts = _solve(source, cfg, library, cfg.network())
        rows.append({
            **columns,
            label: value,
            "c": "" if consts is None else consts.c,
            "objective": report.objective,
            "omega": report.omega,
            "iterations": report.iterations,
            "kkt_residual": report.kkt_residual,
            "content": np.arange(library.count),
            "popularity": library.popularity,
            "rate": library.rates,
            "p_opt": report.policy.probs,
        })
    return rows


def _run_optimizer(config: ExperimentConfig):
    """The optimize-noise and optimize-sir scenarios; only the latter has a c column."""
    sir = config.scenario == "optimize-sir"
    fields = ["sweep", "sweep_value", "c"] if sir else ["sweep", "sweep_value"]
    rows = _optimizer_rows(
        config.scenario, _sweep_points(config), "sweep_value", sweep=config.sweep or ""
    )
    return fields + _CONTENT_FIELDS, rows


def _run_simulate(config: ExperimentConfig):
    fields = ["sweep", "sweep_value", "channel", "load_mode", "policy", "analytic",
              "estimate", "stderr", "trials"]
    rows = []
    for value, cfg in _sweep_points(config):
        library = cfg.make_library()
        params = cfg.network()
        solved, consts = _solve(cfg.policy_source, cfg, library, params)
        policy = _policy_of(solved)
        if cfg.channel == "noise":
            est = simulate_noise_limited(library, params, policy, cfg.trials, cfg.seed)
            analytic = success_noise(library, params, policy)
            mode = ""
        else:
            est = simulate_interference_limited(
                library, params, policy, cfg.trials, cfg.seed, cfg.load_mode
            )
            if consts is None:
                consts = _interference_constants(cfg, library, params)
            analytic = rayleigh_lower_bound(library, consts, policy)
            mode = cfg.load_mode
        rows.append(
            {
                "sweep": config.sweep or "",
                "sweep_value": value,
                "channel": cfg.channel,
                "load_mode": mode,
                "policy": _policy_string(policy.probs),
                "analytic": analytic,
                "estimate": est.estimate,
                "stderr": est.stderr,
                "trials": est.trials,
            }
        )
    return fields, rows


# ---------------------------------------------------------------------------
# figure registry


@dataclass(frozen=True)
class FigureEntry:
    """A figure: `setting` holds the ExperimentConfig fields it fixes (the
    rest come from the config and flags), `sweeps` the values of its axes.
    runner(config with the setting applied, sweeps) -> (fieldnames, rows)."""

    title: str
    setting: dict
    sweeps: dict
    runner: object = field(repr=False, compare=False)


def _figure_3(config: ExperimentConfig, sweeps: dict):
    rows = []
    for lam, m_d in sweeps["(helper_density, fading_desired)"]:
        fields, part = _run_cdf(replace(config, helper_density=lam, fading_desired=m_d))
        rows.extend(part)
    return fields, rows


def _figure_4(config: ExperimentConfig, sweeps: dict):
    fields = ["gamma", "ps_proposed", "ps_mpc", "ps_uc", "policy_proposed"]
    rows = []
    params = config.network()
    for gamma in sweeps["gamma"]:
        library = replace(config, gamma=gamma).make_library()
        report = optimize_noise(library, params, config.memory)
        row = {
            "gamma": gamma,
            "ps_proposed": report.objective,
            "policy_proposed": _policy_string(report.policy.probs),
        }
        for name in ("mpc", "uc"):
            baseline = baseline_policy(name, config.count, config.memory)
            row[f"ps_{name}"] = success_noise(library, params, baseline)
        rows.append(row)
    return fields, rows


def _optimal_policy_sweep(settings, label):
    rows = _optimizer_rows("optimize-noise", settings, label)
    return [label, "content", "popularity", "p_opt", "objective"], rows


def _figure_5(config: ExperimentConfig, sweeps: dict):
    settings = [
        (f"lambda={lam};m_d={m}", replace(config, helper_density=lam, fading_desired=m))
        for lam in sweeps["helper_density"]
        for m in sweeps["fading_desired"]
    ]
    return _optimal_policy_sweep(settings, "setting")


def _policy_vs_one_field(config: ExperimentConfig, sweeps: dict):
    """Figures 6 and 7: the optimal policy at each value of one swept field."""
    ((name, values),) = sweeps.items()
    return _optimal_policy_sweep([(v, replace(config, **{name: v})) for v in values], name)


def _p1_grid(config: ExperimentConfig, sweeps: dict) -> list[CachingPolicy]:
    """Policies on two contents caching the first with each swept p1."""
    return [CachingPolicy(np.array([p1, 1.0 - p1]), config.memory) for p1 in sweeps["p1"]]


def _with_numeric_c(config: ExperimentConfig) -> ExperimentConfig:
    """config with the numeric load bound c, certified on a tenth of the
    figure's trials (at least 200)."""
    return replace(config, c_mode="numeric", trials=max(200, config.trials // 10))


def _figure_approx_check(config: ExperimentConfig, sweeps: dict):
    fields = ["p1", "est_inst", "se_inst", "est_mean", "se_mean", "est_long", "se_long",
              "bound_c40"]
    library = config.make_library()
    params = config.network()
    consts = _interference_constants(config, library, params)
    rows = []
    for policy in _p1_grid(config, sweeps):
        # the three load models on one set of sampled networks
        ests = _simulate_interference_pass(
            library, params, policy, config.trials, config.seed, LOAD_MODES, library.rates[None]
        )
        row = {
            "p1": float(policy.probs[0]),
            "bound_c40": rayleigh_lower_bound(library, consts, policy),
        }
        for mode, key in (("instantaneous", "inst"), ("mean-approx", "mean"),
                          ("long-term-assoc", "long")):
            (est,) = ests[mode]
            row[f"est_{key}"], row[f"se_{key}"] = est.estimate, est.stderr
        rows.append(row)
    return fields, rows


def _figure_8(config: ExperimentConfig, sweeps: dict):
    fields = ["rho", "c", "p1_opt", "est_opt", "se_opt", "p1_subopt", "est_subopt",
              "se_subopt", "bound_subopt"]
    points = [replace(config, rho=rho) for rho in sweeps["rho"]]
    libraries = [sub.make_library() for sub in points]
    params = config.network()
    # the sampled networks do not depend on the target rate, so one pass
    # per grid policy serves every rho
    grid = _p1_grid(config, sweeps)
    rates = np.array([library.rates for library in libraries])
    by_policy = [
        _simulate_interference_pass(
            libraries[0], params, g, config.trials, config.seed, ("instantaneous",), rates
        )["instantaneous"]
        for g in grid
    ]
    rows = []
    for sub, library, ests in zip(points, libraries, zip(*by_policy)):
        report, consts = _solve("optimize-sir", _with_numeric_c(sub), library, params)
        best = int(np.argmax([e.estimate for e in ests]))
        sub_est = simulate_interference_limited(
            library, params, report.policy, sub.trials, sub.seed
        )
        rows.append(
            {
                "rho": sub.rho,
                "c": consts.c,
                "p1_opt": float(grid[best].probs[0]),
                "est_opt": ests[best].estimate,
                "se_opt": ests[best].stderr,
                "p1_subopt": float(report.policy.probs[0]),
                "est_subopt": sub_est.estimate,
                "se_subopt": sub_est.stderr,
                "bound_subopt": report.objective,
            }
        )
    return fields, rows


def _figure_9(config: ExperimentConfig, sweeps: dict):
    fields = ["block", "sweep_value", "strategy", "content", "p", "bound", "c"]
    rows = []
    for gamma in sweeps["gamma"]:
        cfg = replace(config, gamma=gamma)
        library = cfg.make_library()
        params = cfg.network()
        strategies = {
            "proposed-numeric-c": _solve(
                "optimize-sir", _with_numeric_c(cfg), library, params
            ),
            "proposed-load-c": _solve("optimize-sir", cfg, library, params),
            "mpc": _solve("mpc", cfg, library, params),
            "uc": _solve("uc", cfg, library, params),
        }
        consts_eval = strategies["proposed-numeric-c"][1]
        for name, (solved, consts) in strategies.items():
            policy = _policy_of(solved)
            rows.append(
                {
                    "block": "gamma-comparison",
                    "sweep_value": gamma,
                    "strategy": name,
                    "content": "",
                    "p": _policy_string(policy.probs),
                    "bound": rayleigh_lower_bound(library, consts_eval, policy),
                    "c": "" if consts is None else consts.c,
                }
            )
    sweep = [
        (lam_u, replace(config, count=count, user_density=lam_u))
        for count, lam_u in sweeps["(count, user_density)"]
    ]
    rows.extend(
        {**row, "block": "user-density-sweep", "strategy": "proposed-load-c",
         "p": row["p_opt"], "bound": row["objective"]}
        for row in _optimizer_rows("optimize-sir", sweep, "sweep_value")
    )
    return fields, rows


_GAMMA_GRID = np.arange(0.0, 3.01, 0.5).tolist()
# the sparse single-slot network of the interference-limited figures
_SPARSE_SINGLE_SLOT = {
    "memory": 1, "rate_mode": "constant", "rho": 0.001,
    "helper_density": 1e-5, "user_density": 2e-5,
}
_TWO_CONTENTS = {
    **_SPARSE_SINGLE_SLOT, "count": 2, "gamma": 1.0, "fading_desired": 1.0, "fading_interf": 1.0,
}
_P1_GRID = np.arange(0.1, 0.91, 0.1).tolist()

FIGURES: dict[str, FigureEntry] = {
    "3": FigureEntry(
        title="CDF of the smallest reciprocal channel gain, analytic vs empirical",
        setting={"pathloss_exp": 2.5},
        sweeps={"(helper_density, fading_desired)": ((0.05, 1.0), (0.05, 3.0), (0.2, 1.0))},
        runner=_figure_3,
    ),
    "4": FigureEntry(
        title="Noise-limited success probability vs popularity skew: proposed/MPC/UC",
        setting={"count": 20, "memory": 5},
        sweeps={"gamma": _GAMMA_GRID},
        runner=_figure_4,
    ),
    "5": FigureEntry(
        title="Optimal caching probabilities for helper-density and fading sweeps",
        setting={},
        sweeps={"helper_density": (0.05, 0.2), "fading_desired": (1.0, 3.0)},
        runner=_figure_5,
    ),
    "6": FigureEntry(
        title="Optimal caching probabilities vs maximum target rate",
        setting={},
        sweeps={"rho_max": (0.5, 1.0, 2.0, 3.0)},
        runner=_policy_vs_one_field,
    ),
    "7": FigureEntry(
        title="Optimal caching probabilities vs cache size",
        setting={},
        sweeps={"memory": (1, 2, 3, 4, 5, 6)},
        runner=_policy_vs_one_field,
    ),
    "approx-check": FigureEntry(
        title="Load-model chain: instantaneous vs mean-load vs distance association, with the c=40 bound",
        setting={**_TWO_CONTENTS, "c_mode": "fixed", "c_value": 40.0},
        sweeps={"p1": _P1_GRID},
        runner=_figure_approx_check,
    ),
    "8": FigureEntry(
        title="Interference-limited: grid-search optimum vs bound-based placement vs bound, sweeping the target rate",
        setting={k: v for k, v in _TWO_CONTENTS.items() if k != "rho"},
        sweeps={"rho": (0.2, 0.4, 0.6, 0.8, 1.0), "p1": _P1_GRID},
        runner=_figure_8,
    ),
    "9": FigureEntry(
        title="Interference-limited strategy comparison (numeric c and c = M user_density/helper_density) plus the user-density sweep",
        setting={**_SPARSE_SINGLE_SLOT, "count": 5, "c_mode": "load"},
        sweeps={
            "gamma": _GAMMA_GRID,
            # the sweep block (id 10)
            "(count, user_density)": ((7, 2e-5), (7, 5e-5), (7, 1e-4)),
        },
        runner=_figure_9,
    ),
}
_FIGURE_ALIASES = {"10": "9"}


def list_figures() -> list[dict]:
    """Rows describing every reproducible figure, straight from the registry."""
    return [
        {
            "figure": fid,
            "title": entry.title,
            "setting": json.dumps(entry.setting, sort_keys=True),
            "sweeps": json.dumps(entry.sweeps),  # in loop-nesting order
        }
        for fid, entry in FIGURES.items()
    ]


def run(config: ExperimentConfig) -> int:
    """Execute a scenario, writing the CSV and its JSON manifest.

    Returns 0 on success; raises ConfigError (invalid configuration) or
    NumericalError (bisection or load-bound search failure) otherwise.
    """
    config.validate()
    start = time.perf_counter()
    if config.scenario == "figure":
        fid = _FIGURE_ALIASES.get(config.figure, config.figure)
        if fid not in FIGURES:
            raise ConfigError(
                f"unknown figure id {config.figure!r}; known: {sorted(FIGURES) + sorted(_FIGURE_ALIASES)}"
            )
        entry = FIGURES[fid]
        config = replace(config, **entry.setting)
        fields, rows = entry.runner(config, entry.sweeps)
    elif config.scenario == "cdf":
        fields, rows = _run_cdf(config)
    elif config.scenario == "simulate":
        fields, rows = _run_simulate(config)
    else:
        fields, rows = _run_optimizer(config)
    elapsed = time.perf_counter() - start

    out = Path(config.output)
    # written beside the output and moved onto it whole, so a row that
    # fails leaves no partial CSV and keeps any earlier one
    partial = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        with partial.open("w", newline="") as handle:
            handle.write(",".join(_cell(name, len(fields) == 1) for name in fields) + "\n")
            lines = sum(_write_row(handle, fields, row) for row in rows)
        os.replace(partial, out)
    finally:
        partial.unlink(missing_ok=True)
    write_s = time.perf_counter() - start - elapsed
    manifest = {
        "config": config.as_dict(),
        "seed": config.seed,
        "version": _version("cachegeo"),
        "versions": {"python": platform.python_version(), "numpy": _version("numpy"),
                     "scipy": _version("scipy")},
        "wall_time_s": elapsed,
        "write_s": write_s,
        "rows": lines,
        "output": str(out),
        "notes": {
            "snr": "snr_db is converted to linear watts internally (noise_power = tx_power / 10^(snr_db/10))",
            "units": "densities per m^2, powers linear watts, rates bits/s/Hz",
        },
    }
    with Path(str(out) + ".manifest.json").open("w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def _write_row(handle, fields: list[str], row: dict) -> int:
    """Write a row's lines through one %-template holding its single values; return how many."""
    alone, parts, columns = len(fields) == 1, [], []
    for value in map(row.__getitem__, fields):
        if not isinstance(value, np.ndarray):
            parts.append(_cell(value, alone).replace("%", "%%"))
            continue
        kind = value.dtype.kind
        parts.append("%.12g" if kind == "f" else "%d" if kind in "iu" else "%s")
        columns.append(value.tolist() if kind in "fiu" else [_cell(v, alone) for v in value.tolist()])
    if len(lengths := {len(c) for c in columns} or {1}) > 1:
        arrays = {name: row[name].size for name in fields if isinstance(row[name], np.ndarray)}
        raise ValueError(f"a row's arrays differ in length: {arrays}")
    template = ",".join(parts) + "\n"
    handle.writelines(map(template.__mod__, zip(*columns) if columns else [()]))
    return lengths.pop()


def _version(package: str) -> str:
    """An installed package's version, read without importing it."""
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "unknown"
