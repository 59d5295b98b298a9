"""Command-line front end.

    cachegeo <scenario> [--config FILE] [--seed N] [--trials N] [--out PATH]
    cachegeo figure --figure ID [...]
    cachegeo list-figures

Exit status: 0 on success, 2 for invalid configuration or arguments,
3 when the budget bisection or the numeric load-bound search fails.
"""
from __future__ import annotations

import sys

import click

from .errors import NumericalError
from .experiments import list_figures, load_config, run

_COMMON = [
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="INI config file; flags override its values."),
    click.option("--seed", type=int, default=None, help="Root RNG seed."),
    click.option("--trials", type=int, default=None, help="Monte Carlo trials."),
    click.option("--out", "output", type=click.Path(), default=None, help="CSV output path."),
]


def _common(fn):
    for option in reversed(_COMMON):
        fn = option(fn)
    return fn


def _dispatch(scenario: str, config_path, **overrides) -> None:
    try:
        config = load_config(config_path, scenario, **overrides)
        status = run(config)
    except ValueError as exc:
        # ConfigError and domain validation of config-derived values alike
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except NumericalError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(3)
    click.echo(f"wrote {config.output} and {config.output}.manifest.json")
    sys.exit(status)


@click.group()
def main():
    """Caching placement analytics, optimizers, and Monte Carlo validation."""


@main.command()
@_common
def cdf(config_path, seed, trials, output):
    """Analytic vs empirical CDF of the smallest reciprocal channel gain."""
    _dispatch("cdf", config_path, seed=seed, trials=trials, output=output)


@main.command("optimize-noise")
@_common
def optimize_noise_cmd(config_path, seed, trials, output):
    """Optimal caching probabilities for the noise-limited objective."""
    _dispatch("optimize-noise", config_path, seed=seed, trials=trials, output=output)


@main.command("optimize-sir")
@_common
def optimize_sir_cmd(config_path, seed, trials, output):
    """Near-optimal caching probabilities for the interference-limited bound."""
    _dispatch("optimize-sir", config_path, seed=seed, trials=trials, output=output)


@main.command()
@_common
def simulate(config_path, seed, trials, output):
    """Monte Carlo delivery-success estimation for a configured policy."""
    _dispatch("simulate", config_path, seed=seed, trials=trials, output=output)


@main.command()
@_common
@click.option("--figure", "figure", default=None, help="Figure id (see list-figures).")
def figure(config_path, seed, trials, output, figure):
    """Reproduce the data behind one registered figure."""
    _dispatch("figure", config_path, seed=seed, trials=trials, output=output, figure=figure)


@main.command("list-figures")
def list_figures_cmd():
    """Enumerate reproducible figures with parameters and expected runtimes."""
    for row in list_figures():
        click.echo(f"{row['figure']:>12}  {row['title']}")
        click.echo(f"{'':>12}  parameters: {row['parameters']}")
        click.echo(f"{'':>12}  runtime: {row['runtime']}")


if __name__ == "__main__":
    main()
