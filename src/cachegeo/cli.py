"""Command-line front end.

    cachegeo <scenario> [--config FILE] [--seed N] [--trials N] [--out PATH]
    cachegeo figure --figure ID [...]
    cachegeo list-figures

Exit status: 0 on success, 2 for invalid configuration or arguments,
3 when the budget bisection or the numeric load-bound search fails.
"""
from __future__ import annotations

import sys
from functools import partial

import click

from .errors import NumericalError
from .experiments import SCENARIOS, list_figures, load_config, run

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


for _name, _scenario in SCENARIOS.items():
    _command = partial(_dispatch, _name)
    if _name == "figure":
        _command = click.option("--figure", "figure", default=None,
                                help="Figure id (see list-figures).")(_command)
    main.command(_name, help=_scenario.help)(_common(_command))


@main.command("list-figures")
def list_figures_cmd():
    """Enumerate reproducible figures with their fixed setting and sweeps."""
    for row in list_figures():
        click.echo(f"{row['figure']:>12}  {row['title']}")
        click.echo(f"{'':>12}  setting: {row['setting']}")
        click.echo(f"{'':>12}  sweeps: {row['sweeps']}")


if __name__ == "__main__":
    main()
