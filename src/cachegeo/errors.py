"""Exception types shared across modules."""


class NumericalError(RuntimeError):
    """A numerical routine (budget bisection, numeric load-bound search) failed.

    The message carries the diagnostics available at the failure point
    (estimates, brackets, tolerances) instead of silently degrading.
    """
