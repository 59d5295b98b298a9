"""Experiment orchestration: config parsing, sweep drivers, figure-data
reproduction, and machine-readable outputs (CSV rows + a JSON manifest).

Configs are INI files with [network], [library], [policy], and
[experiment] sections; command-line flags override file values.  SNR is
given in dB and converted to a noise power in units of the transmit
power (noted in the manifest).  Densities are per square meter, rates
bits/s/Hz.
"""
from __future__ import annotations

import configparser
import functools
import json
import math
import os
import platform
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from importlib import metadata
from itertools import chain, islice, pairwise
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .analytics import InterferenceConstants, _kappa, rayleigh_lower_bound, success_noise, xi1_cdf
from .errors import NumericalError
from .model import CachingPolicy, ContentLibrary, NetworkParams, uniform_rates, zipf_popularity
from .optimizer import SolveReport, baseline_policy, optimize_interference, optimize_noise
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


class Scenario(NamedTuple):
    """A CLI command: its help text and whether a sweep may vary its config."""

    help: str
    sweeps: bool


SCENARIOS = {
    "cdf": Scenario("Analytic vs empirical CDF of the smallest reciprocal channel gain.", False),
    "optimize-noise": Scenario("Optimal caching probabilities for the noise-limited objective.",
                               True),
    "optimize-sir": Scenario("Near-optimal caching probabilities for the interference-limited "
                             "bound.", True),
    "simulate": Scenario("Monte Carlo delivery-success estimation for a configured policy.", True),
    "figure": Scenario("Reproduce the data behind one registered figure.", False),
}
_C_GRID = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 40.0, 48.0, 64.0, 96.0, 128.0)
# select_c's reference set: the two baselines plus seeded random policies
_N_REFERENCE_POLICIES = 6


class ConfigError(ValueError):
    """The experiment configuration is invalid (CLI exit status 2)."""


def _declare(default=MISSING, section: str = "", *, key: str = "", choices: tuple = (),
             minimum: int | None = None, sweep: bool = False):
    """A config field: its INI [section] and key (the field name unless
    given), the values it may take, and whether a sweep may vary it.  The
    network and library fields are checked by the library's constructors,
    which run when `_sweep_points` builds each point, before any work."""
    return field(default=default, metadata={"section": section, "key": key, "choices": choices,
                                            "minimum": minimum, "sweep": sweep})


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; built by load_config, overridable by flags."""

    scenario: str = _declare(choices=tuple(SCENARIOS))
    helper_density: float = _declare(0.05, "network", sweep=True)
    user_density: float = _declare(0.002, "network", sweep=True)
    snr_db: float = _declare(20.0, "network", sweep=True)
    pathloss_exp: float = _declare(3.0, "network")
    fading_desired: float = _declare(1.0, "network", sweep=True)
    fading_interf: float = _declare(1.0, "network")
    count: int = _declare(10, "library")
    gamma: float = _declare(1.0, "library", sweep=True)
    rate_mode: str = _declare("uniform", "library", choices=("uniform", "constant"))
    rho_max: float = _declare(1.0, "library", sweep=True)
    rho: float = _declare(0.001, "library", sweep=True)
    rate_seed: int = _declare(1, "library", minimum=0)
    memory: int = _declare(3, "policy", minimum=1, sweep=True)
    policy_source: str = _declare("optimize-noise", "policy", key="source", choices=(
        "optimize-noise", "optimize-sir", "mpc", "uc", "explicit"))
    probs: tuple = _declare((), "policy")
    sweep: str = _declare("", "experiment")
    sweep_grid: tuple = _declare((), "experiment")
    trials: int = _declare(10_000, "experiment", minimum=1)
    seed: int = _declare(1, "experiment", minimum=0)
    output: str = _declare("cachegeo_out.csv", "experiment")
    figure: str = _declare("", "experiment")
    channel: str = _declare("noise", "experiment", choices=("noise", "interference"))
    load_mode: str = _declare("instantaneous", "experiment", choices=LOAD_MODES)
    c_mode: str = _declare("load", "experiment", choices=("load", "fixed", "numeric"))
    c_value: float = _declare(40.0, "experiment")

    def validate(self) -> "ExperimentConfig":
        for f in fields(self):
            value, meta = getattr(self, f.name), f.metadata
            if meta["choices"] and value not in meta["choices"]:
                raise ConfigError(f"{f.name} must be one of {meta['choices']}, got {value!r}")
            if meta["minimum"] is not None and not value >= meta["minimum"]:
                raise ConfigError(f"{f.name} must be >= {meta['minimum']}, got {value}")
        if self.sweep:
            takers = tuple(name for name, s in SCENARIOS.items() if s.sweeps)
            if self.scenario not in takers:
                raise ConfigError(f"sweep = {self.sweep!r}: {self.scenario} takes no sweep, "
                                  f"only {', '.join(takers)} do")
            if self.sweep not in SWEEPABLE:
                raise ConfigError(f"sweep variable {self.sweep!r} is not one of {SWEEPABLE}")
            if not self.sweep_grid:
                raise ConfigError("a sweep needs a nonempty sweep_grid")
            if self.sweep == "memory" and not all(float(v).is_integer() for v in self.sweep_grid):
                raise ConfigError("memory sweep values must be whole numbers of cache slots")
        elif self.sweep_grid:
            raise ConfigError(f"sweep_grid = {self.sweep_grid} is set, but no sweep reads it")
        if self.probs and (self.scenario, self.policy_source) != ("simulate", "explicit"):
            raise ConfigError(f"probs = {self.probs} is set, but only simulate with "
                              "source = explicit reads it")
        if self.figure and self.scenario != "figure":
            raise ConfigError(f"figure = {self.figure!r}: only the figure scenario reads it")
        if self.channel != "noise" and self.scenario != "simulate":
            raise ConfigError(f"channel = {self.channel!r}: only simulate reads it")
        if self.load_mode != "instantaneous" and (
                (self.scenario, self.channel) != ("simulate", "interference")):
            raise ConfigError(f"load_mode = {self.load_mode!r}: only simulate on the "
                              "interference channel reads it")
        if self.c_mode == "fixed" and not 1 <= self.c_value < math.inf:
            raise ConfigError(f"c_value must be >= 1 and finite, got {self.c_value}")
        # checked here, where a bad output fails before the whole run, not after it
        out = Path(self.output)
        if not out.name or out.is_dir():
            raise ConfigError(f"output {self.output!r} must name a file, not a directory")
        if not out.parent.is_dir():
            raise ConfigError(f"output directory {out.parent} does not exist")
        if not os.access(out.parent, os.W_OK):
            raise ConfigError(f"output directory {out.parent} is not writable")
        return self

    def network(self) -> NetworkParams:
        try:
            snr = 10.0 ** (self.snr_db / 10.0)
        except OverflowError:  # beyond the float range: noiseless, as snr_db = inf
            snr = math.inf
        # powers are in units of the transmit power, which cancels from the SIR
        noise_power = 1.0 / snr if snr > 0 else math.inf
        if not math.isfinite(noise_power):
            raise ConfigError(
                f"snr_db = {self.snr_db} gives a noise power 10^(-snr_db/10) "
                f"of {noise_power}; it must be finite"
            )
        return NetworkParams(
            helper_density=self.helper_density,
            user_density=self.user_density,
            tx_power=1.0,
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


SWEEPABLE = tuple(f.name for f in fields(ExperimentConfig) if f.metadata["sweep"])


def _parse_floats(text: str) -> tuple:
    return tuple(float(v) for v in text.replace(",", " ").split())


def load_config(path: str | None, scenario: str, **overrides) -> ExperimentConfig:
    """Build an ExperimentConfig from an INI file plus keyword overrides
    (None overrides are ignored)."""
    values: dict = {"scenario": scenario}
    if path is not None:
        # no interpolation: a value such as "50%.csv" is taken as written
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
        try:
            read = parser.read(path)
        except configparser.Error as exc:  # a repeated key or section, no section header
            raise ConfigError(f"config file {path!r}: {exc}") from exc
        if not read:
            raise ConfigError(f"config file {path!r} not found or unreadable")
        declared: dict = {}  # INI section -> key -> field
        for f in fields(ExperimentConfig):
            if f.metadata["section"]:
                declared.setdefault(f.metadata["section"], {})[f.metadata["key"] or f.name] = f
        unknown = set(parser.sections()) - set(declared)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        for section in parser.sections():
            stray = set(parser.options(section)) - set(declared[section])
            if stray:
                raise ConfigError(f"unknown keys in [{section}]: {sorted(stray)}")
            for key in parser.options(section):
                f = declared[section][key]
                # a key is parsed as the type of its default
                cast = _parse_floats if isinstance(f.default, tuple) else type(f.default)
                try:
                    values[f.name] = cast(parser.get(section, key))
                except ValueError as exc:
                    raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    try:
        config = ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return config.validate()


def _interference_constants(config: ExperimentConfig, library: ContentLibrary,
                            params: NetworkParams) -> InterferenceConstants:
    """The Rayleigh-bound constants at the config's load bound c: c_value,
    max(1, M user_density / helper_density), or select_c's."""
    if config.c_mode == "fixed":
        c, source = config.c_value, "c_value"
    elif config.c_mode == "load":
        c = max(1.0, config.memory * params.user_density / params.helper_density)
        source = "max(1, memory * user_density / helper_density)"
    else:
        c = select_c(library, params, config.memory, trials=config.trials, seed=config.seed)
        source = "select_c's smallest certified value"
    try:
        return InterferenceConstants.from_library(library, params.pathloss_exp, c)
    except ValueError as exc:  # name the config fields that set c
        raise ConfigError(f"{exc}; c = {source} under c_mode = {config.c_mode}") from exc


class Solved(NamedTuple):
    """A policy source resolved at one point: the policy, the optimizer's
    SolveReport and the InterferenceConstants it designed on (.c is the
    resolved load bound); None where the source has none."""

    policy: CachingPolicy
    report: SolveReport | None
    consts: InterferenceConstants | None


def _solve(source: str, config: ExperimentConfig, library: ContentLibrary,
           params: NetworkParams) -> Solved:
    """Resolve a policy source at one point."""
    if source == "explicit":
        if len(config.probs) != library.count:
            raise ConfigError("explicit probs must list one probability per content")
        return Solved(CachingPolicy(np.array(config.probs), config.memory), None, None)
    if source in ("mpc", "uc"):
        return Solved(baseline_policy(source, library.count, config.memory), None, None)
    if source == "optimize-noise":
        report = optimize_noise(library, params, config.memory)
        return Solved(report.policy, report, None)
    consts = _interference_constants(config, library, params)
    report = optimize_interference(library, consts, config.memory)
    return Solved(report.policy, report, consts)


def _upper_limit(ref) -> float:
    """Three-sigma upper limit on a reference's success probability.

    est + 3 se, except with no success, where se = 0 would make the limit
    0: there it is the z = 3 Wilson upper limit 9 / (n + 9).
    """
    if ref.successes == 0:
        return 9.0 / (ref.trials + 9.0)
    return ref.estimate + 3.0 * ref.stderr


def select_c(library: ContentLibrary, params: NetworkParams, memory: int, trials: int,
             seed: int) -> float:
    """Smallest load bound c on a grid keeping the Rayleigh bound below a
    Monte Carlo reference (distance association, mean load) on a set of
    feasible policies.  The certificate is only as strong as the finite
    policy set: baselines plus seeded random feasible policies.
    """
    rng = np.random.default_rng(seed)
    policies = [baseline_policy("uc", library.count, memory),
                baseline_policy("mpc", library.count, memory)]
    while len(policies) < _N_REFERENCE_POLICIES:
        p = rng.random(library.count)
        p *= min(1.0, memory / p.sum())
        p = np.maximum(p, 0.05)  # keep windows and loads finite
        p *= min(1.0, memory / p.sum())
        policies.append(CachingPolicy(p, memory))
    # the distance-association reference exists only for single-slot caches
    reference_mode = "long-term-assoc" if memory == 1 else "instantaneous"
    limits = np.array([_upper_limit(simulate_interference_limited(
        library, params, policy, trials, seed, load_mode=reference_mode)) for policy in policies])
    probs = np.array([policy.probs for policy in policies])
    for c in _C_GRID:
        consts = InterferenceConstants.from_library(library, params.pathloss_exp, c)
        if np.all(rayleigh_lower_bound(library, consts, probs) <= limits):
            return c
    raise NumericalError(f"no c in {_C_GRID} certifies the lower bound on the reference policy set")


def _sweep_points(config: ExperimentConfig, axis: str = "", values=()) -> list:
    """(value, config, network, library) per value of a sweep axis, or one
    ("", config, network, library) point on no axis.  An axis is a field
    name, or "(a, b)" whose values are (a, b) pairs; memory is set as whole
    slots.  Every point is built before any is returned, and its memory
    checked against the policy it resolves (none for the CDF: cdf and figure
    3), so a value that no point can take is refused before any work."""
    names = axis.strip("()").split(", ") if axis else []
    points = []
    for value in values if axis else ("",):
        at = zip(names, value if len(names) > 1 else (value,))
        cfg = replace(config, **{n: int(v) if n == "memory" else v for n, v in at})
        points.append((value, cfg, cfg.network(), cfg.make_library()))
        # an explicit policy takes any M >= 1; the optimizers and baselines need M < F
        cap = math.inf if (cfg.scenario, cfg.policy_source) == ("simulate", "explicit") else cfg.count
        if cfg.scenario != "cdf" and cfg.figure != "3" and not 1 <= cfg.memory < cap:
            raise ConfigError(f"memory = {cfg.memory:g} is outside 1 <= memory < {cap:g}")
    return points


# ---------------------------------------------------------------------------
# scenario runners: each returns (fieldnames, rows); an array in a row spans CSV lines


def _cell(value, alone: bool = False) -> str:
    """A value's CSV cell as csv's QUOTE_MINIMAL writes it, `alone` on a one-column line
    (a cell holding a carriage return is quoted, as csv does from Python 3.13 on)."""
    text = format(value, ".12g") if isinstance(value, float) else str(value)
    if (alone and not text) or any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _policy_string(probs: np.ndarray) -> str:
    # %-formatted 512 at a time: one tuple of all F probabilities raised the peak RSS
    return ";".join(";".join(["%.9g"] * p.size) % tuple(p.tolist())
                    for p in np.split(probs, range(512, probs.size, 512)))


def _run_cdf(config: ExperimentConfig, axis: str = "", values=()):
    """One CDF row per point of the axis."""
    # xi grid through the analytic quantiles so curves are well resolved
    quantiles = np.linspace(0.02, 0.99, 40)
    rows = []
    for _, cfg, params, _ in _sweep_points(config, axis, values):
        with np.errstate(over="ignore"):
            xi_grid = (-np.log1p(-quantiles) / _kappa(params)) ** (1.0 / params.delta)
        if not (np.all(np.isfinite(xi_grid)) and xi_grid[0] > 0 and np.all(np.diff(xi_grid) > 0)):
            raise ConfigError(f"helper_density = {params.helper_density:g}, fading_desired = "
                              f"{params.fading_desired:g} and pathloss_exp = {params.pathloss_exp:g} "
                              "put the xi grid of the CDF outside the float range (0s, infs or "
                              "repeated values)")
        # the samples are bound to no name, so they are freed before the next point draws
        empirical = np.searchsorted(np.sort(sample_xi_min(params, 1.0, cfg.trials, cfg.seed)),
                                    xi_grid, side="right") / cfg.trials
        rows.append({
            "lambda": params.helper_density,
            "m_d": params.fading_desired,
            "xi": xi_grid,
            "analytic_cdf": xi1_cdf(xi_grid, 1.0, params),
            "empirical_cdf": empirical,
            "stderr": np.sqrt(empirical * (1 - empirical) / cfg.trials),
        })
    return ["lambda", "m_d", "xi", "analytic_cdf", "empirical_cdf", "stderr"], rows


_CONTENT_FIELDS = ["content", "popularity", "rate", "p_opt", "objective", "omega",
                   "iterations", "kkt_residual"]


def _optimizer_rows(source: str, points, label: str, **columns) -> list[dict]:
    """Rows of the `source` optimizer's solution, one per point: the value
    goes in column `label`, `columns` are the same at every point, "c" is the
    load bound used ("" without one), and the per-content columns are arrays."""
    rows = []
    for value, cfg, params, library in points:
        _, report, consts = _solve(source, cfg, library, params)
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
    points = _sweep_points(config, config.sweep, config.sweep_grid)
    rows = _optimizer_rows(config.scenario, points, "sweep_value", sweep=config.sweep)
    return fields + _CONTENT_FIELDS, rows


def _run_simulate(config: ExperimentConfig):
    fields = ["sweep", "sweep_value", "channel", "load_mode", "policy", "analytic",
              "estimate", "stderr", "trials"]
    rows = []
    for value, cfg, params, library in _sweep_points(config, config.sweep, config.sweep_grid):
        interference = cfg.channel == "interference"
        policy, _, consts = _solve(cfg.policy_source, cfg, library, params)
        if interference:
            est = simulate_interference_limited(
                library, params, policy, cfg.trials, cfg.seed, cfg.load_mode
            )
            if consts is None:  # resolved after the draw, which may refuse the network first
                consts = _interference_constants(cfg, library, params)
            analytic = rayleigh_lower_bound(library, consts, policy)
        else:
            est = simulate_noise_limited(library, params, policy, cfg.trials, cfg.seed)
            analytic = success_noise(library, params, policy)
        rows.append({
            "sweep": config.sweep,
            "sweep_value": value,
            "channel": cfg.channel,
            "load_mode": cfg.load_mode if interference else "",
            "policy": _policy_string(policy.probs),
            "analytic": analytic,
            "estimate": est.estimate,
            "stderr": est.stderr,
            "trials": est.trials,
        })
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
    axis = "(helper_density, fading_desired)"
    return _run_cdf(config, axis, sweeps[axis])


def _figure_4(config: ExperimentConfig, sweeps: dict):
    fields = ["gamma", "ps_proposed", "ps_mpc", "ps_uc", "policy_proposed"]
    rows = []
    for gamma, cfg, params, library in _sweep_points(config, "gamma", sweeps["gamma"]):
        report = _solve("optimize-noise", cfg, library, params).report
        row = {
            "gamma": gamma,
            "ps_proposed": report.objective,
            "policy_proposed": _policy_string(report.policy.probs),
        }
        for name in ("mpc", "uc"):
            baseline = _solve(name, cfg, library, params).policy
            row[f"ps_{name}"] = success_noise(library, params, baseline)
        rows.append(row)
    return fields, rows


def _optimal_policy_sweep(settings, label):
    rows = _optimizer_rows("optimize-noise", settings, label)
    return [label, "content", "popularity", "p_opt", "objective"], rows


def _figure_5(config: ExperimentConfig, sweeps: dict):
    pairs = [(lam, m) for lam in sweeps["helper_density"] for m in sweeps["fading_desired"]]
    points = _sweep_points(config, "(helper_density, fading_desired)", pairs)
    settings = [(f"lambda={lam};m_d={m}", *rest) for (lam, m), *rest in points]
    return _optimal_policy_sweep(settings, "setting")


def _policy_vs_one_field(config: ExperimentConfig, sweeps: dict):
    """Figures 6 and 7: the optimal policy at each value of one swept field."""
    ((name, values),) = sweeps.items()
    return _optimal_policy_sweep(_sweep_points(config, name, values), name)


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
    [(_, _, params, library)] = _sweep_points(config)
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
    points = _sweep_points(config, "rho", sweeps["rho"])
    # the sampled networks do not depend on the target rate, so one pass
    # per grid policy serves every rho
    _, _, params, first = points[0]
    grid = _p1_grid(config, sweeps)
    rates = np.array([library.rates for *_, library in points])
    by_policy = [
        _simulate_interference_pass(
            first, params, g, config.trials, config.seed, ("instantaneous",), rates
        )["instantaneous"]
        for g in grid
    ]
    rows = []
    for (_, sub, _, library), ests in zip(points, zip(*by_policy)):
        _, report, consts = _solve("optimize-sir", _with_numeric_c(sub), library, params)
        best = int(np.argmax([e.estimate for e in ests]))
        sub_est = simulate_interference_limited(
            library, params, report.policy, sub.trials, sub.seed
        )
        rows.append({
            "rho": sub.rho,
            "c": consts.c,
            "p1_opt": float(grid[best].probs[0]),
            "est_opt": ests[best].estimate,
            "se_opt": ests[best].stderr,
            "p1_subopt": float(report.policy.probs[0]),
            "est_subopt": sub_est.estimate,
            "se_subopt": sub_est.stderr,
            "bound_subopt": report.objective,
        })
    return fields, rows


def _figure_9(config: ExperimentConfig, sweeps: dict):
    fields = ["block", "sweep_value", "strategy", "content", "p", "bound", "c"]
    axis = "(count, user_density)"
    by_gamma = _sweep_points(config, "gamma", sweeps["gamma"])
    by_density = _sweep_points(config, axis, sweeps[axis])
    rows = []
    for gamma, cfg, params, library in by_gamma:
        strategies = {
            "proposed-numeric-c": _solve("optimize-sir", _with_numeric_c(cfg), library, params),
            "proposed-load-c": _solve("optimize-sir", cfg, library, params),
            "mpc": _solve("mpc", cfg, library, params),
            "uc": _solve("uc", cfg, library, params),
        }
        consts_eval = strategies["proposed-numeric-c"].consts
        for name, (policy, _, consts) in strategies.items():
            rows.append({
                "block": "gamma-comparison",
                "sweep_value": gamma,
                "strategy": name,
                "content": "",
                "p": _policy_string(policy.probs),
                "bound": rayleigh_lower_bound(library, consts_eval, policy),
                "c": "" if consts is None else consts.c,
            })
    sweep = [(cfg.user_density, cfg, *rest) for _, cfg, *rest in by_density]
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


def _figure(config: ExperimentConfig) -> FigureEntry:
    fid = _FIGURE_ALIASES.get(config.figure, config.figure)
    if fid not in FIGURES:
        raise ConfigError(
            f"unknown figure id {config.figure!r}; known: {sorted(FIGURES) + sorted(_FIGURE_ALIASES)}"
        )
    return FIGURES[fid]


def _run_figure(config: ExperimentConfig):
    entry = _figure(config)
    return entry.runner(config, entry.sweeps)


def run(config: ExperimentConfig) -> int:
    """Execute a scenario, writing the CSV and its JSON manifest.

    Returns 0 on success; raises ConfigError (invalid configuration) or
    NumericalError (bisection or load-bound search failure) otherwise.
    """
    config.validate()
    start = time.perf_counter()
    if config.scenario == "figure":  # run at, and record, the figure's setting
        config = replace(config, **_figure(config).setting)
    runner = {"cdf": _run_cdf, "optimize-noise": _run_optimizer, "optimize-sir": _run_optimizer,
              "simulate": _run_simulate, "figure": _run_figure}[config.scenario]
    fields, rows = runner(config)
    elapsed = time.perf_counter() - start

    out = Path(config.output)
    # written beside the output and moved onto it whole, so a row that
    # fails leaves no partial CSV and keeps any earlier one
    partial = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        with partial.open("w", newline="") as handle:
            handle.write(",".join(_cell(name, len(fields) == 1) for name in fields) + "\n")
            lines = _write_rows(handle, fields, rows)
        os.replace(partial, out)
    finally:
        partial.unlink(missing_ok=True)
    write_s = time.perf_counter() - start - elapsed
    manifest = {
        "config": asdict(config),
        "seed": config.seed,
        "version": _version("cachegeo"),
        "versions": {"python": platform.python_version(), "numpy": _version("numpy"),
                     "scipy": _version("scipy")},
        "wall_time_s": elapsed,
        "write_s": write_s,
        "rows": lines,
        "output": str(out),
        "notes": {
            "snr": "powers are in units of the transmit power: snr_db sets noise_power = "
                   "10^(-snr_db/10), and the interference channel works in SIR",
            "units": "densities per m^2, powers in units of the transmit power, rates bits/s/Hz",
        },
    }
    with Path(str(out) + ".manifest.json").open("w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


# lines per block: the writer fills a row's lines with one `%` per block of them
_BLOCK = 256


def _blocks(line: str, columns: list, count: int):
    """The text of `count` lines of the template `line`, _BLOCK lines to a `%`, its slots
    filled line by line from `columns` (each holds one entry per line)."""
    cells = chain.from_iterable(zip(*columns))
    # a row of fewer lines repeats its line no further: a one-line row may hold
    # a whole policy string
    size = min(count, _BLOCK)
    block = line * size
    for start in range(0, count, _BLOCK):
        n = min(count - start, _BLOCK)
        yield (block if n == size else line * n) % tuple(islice(cells, n * len(columns)))


def _same_bits(a: np.ndarray, b) -> bool:
    """Whether b is an array of a's dtype, shape and bit patterns (so -0.0 is not 0.0),
    compared in place."""
    return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(*(np.ascontiguousarray(x).view(np.uint8) for x in (a, b))))


def _write_rows(handle, fields: list[str], rows: list[dict]) -> int:
    """Write each row's lines through one %-template holding its single values; return
    how many.  A number array with the bits of the same field's array in the next row is
    formatted once, and both rows fill their slot with its cells; only the cells the
    current row uses are kept."""
    alone, written, kept = len(fields) == 1, 0, {}
    for row, after in pairwise([*rows, {}]):
        parts, columns, keep = [], [], {}
        for name in fields:
            value = row[name]
            if not isinstance(value, np.ndarray):
                parts.append(_cell(value, alone).replace("%", "%%"))
                continue
            kind = value.dtype.kind
            if kind not in "fiu":
                parts.append("%s")
                columns.append([_cell(v, alone) for v in value.tolist()])
                continue
            slot = "%.12g" if kind == "f" else "%d"
            cells = kept.get(name)  # formatted for the previous row, which had these bits
            if _same_bits(value, after.get(name)):
                if cells is None:
                    cells = list(chain.from_iterable(map(
                        str.splitlines, _blocks(slot + "\n", [value.tolist()], value.size))))
                keep[name] = cells
            parts.append(slot if cells is None else "%s")
            columns.append(value.tolist() if cells is None else cells)
        kept = keep
        if len(lengths := {len(c) for c in columns} or {1}) > 1:
            arrays = {name: row[name].size for name in fields if isinstance(row[name], np.ndarray)}
            raise ValueError(f"a row's arrays differ in length: {arrays}")
        count = lengths.pop()
        handle.writelines(_blocks(",".join(parts) + "\n", columns, count))
        written += count
    return written


@functools.cache
def _version(package: str) -> str:
    """An installed package's version, read once per process without importing
    it: the METADATA header's `Version:` line, else the full metadata parse.
    This package, when run from a source tree with no distribution installed,
    gives the HEAD commit of the checkout it was imported from."""
    try:
        dist = metadata.distribution(package)
    except metadata.PackageNotFoundError:
        if package != __package__:
            return "unknown"
        return _git_head(Path(__file__).resolve().parents[2])
    for line in (dist.read_text("METADATA") or "").splitlines():
        if not line:
            break
        if line.startswith("Version:"):
            return line[8:].lstrip(" \t")
    return dist.version


def _git_head(root: Path) -> str:
    """The commit HEAD names in the git checkout at `root`, read from its .git
    directory without running git: a detached HEAD's commit, else its branch's
    loose ref, else the branch's line in packed-refs.  'unknown' where there is
    none to read, and for a .git file (a linked worktree or a submodule)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
