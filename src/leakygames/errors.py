"""Shared exception types.

The CLI maps these onto distinct exit codes, so solver and parser code
should raise them rather than bare ValueError/RuntimeError where the
distinction matters to a caller.
"""

from __future__ import annotations


class InvalidInputError(ValueError):
    """Malformed file, table, or argument."""


class FormatError(InvalidInputError):
    """Parse error in a game or CSP file, carrying a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class BudgetExceededError(RuntimeError):
    """An exact enumeration would exceed the configured budget.

    Callers can retry with a larger budget, or fall back to Monte Carlo /
    upper-bound methods.  A count too large to build comes as its log2.
    """

    def __init__(self, required: int | None, budget: int,
                 what: str = "enumeration",
                 log2_required: float | None = None):
        if log2_required is None and required.bit_length() > 64:
            log2_required = required.bit_length() - 1
        shown = (required if log2_required is None
                 else f"about 2^{int(log2_required)}")
        super().__init__(f"{what} needs {shown} steps, budget is {budget}")
        self.required = required
        self.budget = budget


class GeneratorCapError(RuntimeError):
    """Random instance search exhausted its attempt cap without a hit."""
