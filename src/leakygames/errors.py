"""Shared exception types.

The CLI maps these onto distinct exit codes, so solver and parser code
should raise them rather than bare ValueError/RuntimeError where the
distinction matters to a caller.
"""

from __future__ import annotations

import math
from numbers import Integral


class InvalidInputError(ValueError):
    """Malformed file, table, or argument."""


class FormatError(InvalidInputError):
    """Parse error in a game or CSP file, carrying a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# The fallback named by guards whose only cheaper route is sampling.
RUN_FALLBACK = "the Monte Carlo `run` harness"


class BudgetExceededError(RuntimeError):
    """An exact enumeration would exceed the configured budget.

    Callers can retry with a larger budget, or use ``fallback`` when the
    guard names one.  A count too large to build comes as its log2, and
    ``required`` is then None; ``log2_required`` is set either way.
    """

    def __init__(self, required: int | None, budget: int,
                 what: str = "enumeration",
                 log2_required: float | None = None,
                 fallback: str | None = None):
        if log2_required is None and required.bit_length() > 64:
            log2_required = required.bit_length() - 1
        shown = (required if log2_required is None
                 else f"about 2^{int(log2_required)}"
                 if math.isfinite(log2_required) else "more than 2^1024")
        message = f"{what} needs {shown} steps, budget is {budget}"
        if fallback:
            message += f"; fall back to {fallback}"
        super().__init__(message)
        self.required = required
        self.log2_required = (log2_required if required is None
                              else math.log2(required))
        self.budget = budget
        self.fallback = fallback


def check_budget(budget: int, what: str, log2_count, count,
                 fallback: str | None = None) -> None:
    """Raise BudgetExceededError when ``count()`` exceeds ``budget``.

    ``count()`` is only built once ``log2_count()``, a lower bound on its
    log2, shows it is near the budget, so no guard builds a huge number.
    """
    try:
        log2 = log2_count()
    except OverflowError:  # a size past float range: far over any budget
        log2 = math.inf
    if log2 > budget.bit_length() + 1:
        raise BudgetExceededError(None, budget, what, log2, fallback)
    required = count()
    if required > budget:
        raise BudgetExceededError(required, budget, what, fallback=fallback)


def check_range(values, size, what: str, low: int = 0) -> None:
    """Raise InvalidInputError unless every value is an integer, not a
    bool, in low..size-1; ``size`` may be math.inf."""
    if any(not isinstance(v, Integral) or isinstance(v, bool)
           or not low <= v < size for v in values):
        raise InvalidInputError(f"{what} out of range")


class GeneratorCapError(RuntimeError):
    """Random instance search exhausted its attempt cap without a hit."""
