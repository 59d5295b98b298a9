"""Speed gauge: how fast the machine ran while a pass ran.

On a shared 2-core virtual machine the same pass takes 4 s in one minute
and 7 s in the next, and CPU time moves with wall time, so neither is a
steady measure of the program.  The gauge samples the machine's speed on
the pass's own thread: an interval timer raises SIGALRM every
``INTERVAL_S`` and the handler times one fixed tick, a few
``scipy.integrate.quad`` calls of a smooth Python integrand (compiled code
calling back into the interpreter, the mix the library runs).  The mean
tick time over a window says how slow the machine was during that
window, and a time measured over the window converts to
*reference seconds* — the seconds it would have taken at a tick time of
``REFERENCE_TICK_S`` — by

    reference_s = (measured_s - ticks_inside_s) * REFERENCE_TICK_S / mean_tick_s

The ticks cost about 1 % of the pass and are subtracted.  Of the tick
kinds tried on the three workloads (pure-Python integer loop, object
allocation, small numpy calls, random reads from a large list, quad), quad
tracked them best: the coefficient of variation of eight back-to-back
passes fell from 11-22 % raw to 4-8 %.  The tick binds ``quad`` at import,
so the traced run's wrapper never counts it.
"""
from __future__ import annotations

import math
import signal
import time

from scipy.integrate import quad

INTERVAL_S = 0.05
TICK_QUADS = 6
# About the lowest decile of a pass's mean tick time on a 2-core Xeon KVM
# guest (python 3.11, scipy 1.17), 63 passes; it only sets the scale of
# reference seconds, which then read close to a quiet minute's wall time.
REFERENCE_TICK_S = 0.40e-3
# A window with fewer ticks borrows the ticks nearest to it.
MIN_TICKS = 5

_ticks: list[tuple[float, float]] = []  # (start, duration), perf_counter seconds


def _integrand(x: float) -> float:
    return math.exp(-x) * math.cos(3.0 * x) / (1.0 + x * x)


def _tick() -> None:
    start = time.perf_counter()
    for _ in range(TICK_QUADS):
        quad(_integrand, 0.0, 20.0)
    _ticks.append((start, time.perf_counter() - start))


def _on_alarm(signum, frame) -> None:
    _tick()


def start() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def window(begin: float, end: float) -> dict:
    """Tick statistics of [begin, end] (perf_counter seconds).

    ``inside_s`` is the tick time spent inside the window, to subtract
    from it; ``factor`` turns the rest into reference seconds.
    """
    inside = [d for t, d in _ticks if begin <= t and t + d <= end]
    sample = inside
    if len(inside) < MIN_TICKS:
        nearest = sorted(_ticks, key=lambda tick: max(begin - tick[0], tick[0] - end, 0.0))
        sample = [d for _, d in nearest[:MIN_TICKS]]
    mean = sum(sample) / len(sample) if sample else REFERENCE_TICK_S
    return {
        "ticks": len(inside),
        "inside_s": sum(inside),
        "mean_tick_s": mean,
        "factor": REFERENCE_TICK_S / mean,
    }
