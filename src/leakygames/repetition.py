"""Parallel repetition: implicit product games and their leaky values.

A repeated game plays N independent copies at once and wins only when all
coordinates win.  The product is represented implicitly through mixed-radix
index tuples (first coordinate most significant), exposing the same
evaluation interface as a plain Game so every exact solver works on it
unchanged.  Its weight and win tables are outer powers of the base game's
tables, built under a cell cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (RUN_FALLBACK, BudgetExceededError, InvalidInputError,
                     check_budget, check_range)
from .games import (DEFAULT_PAIR_BUDGET, Game, StrategyPair, _index_to_tuple,
                    _int_dtype, classical_value)
from .leakage import (LeakageModel, LeakyStrategy, leaky_value_exact,
                      leaky_value_upper_bound)

DEFAULT_TABLE_CELLS = 10**7


def _outer_power(table: np.ndarray, copies: int) -> np.ndarray:
    """``table`` tensored with itself ``copies`` times: every axis of size n
    becomes one of size n**copies, the first copy its most significant
    digit, and entries multiply (logical and for bool tables)."""
    out = table
    for _ in range(copies - 1):
        out = np.multiply.outer(out, table)
    d = table.ndim
    out = out.transpose([c * d + k for k in range(d) for c in range(copies)])
    return out.reshape([n ** copies for n in table.shape])


@dataclass(frozen=True)
class RepeatedGame:
    """N independent copies of a base game, win iff all coordinates win."""

    base: Game
    copies: int

    def __post_init__(self):
        if not isinstance(self.base, (Game, RepeatedGame)):
            raise InvalidInputError(f"repeated game base must be a game, "
                                    f"not {type(self.base).__name__}")
        check_range((self.copies,), math.inf, "copies", low=1)

    @property
    def name(self) -> str:
        return f"{self.base.name}^{self.copies}"

    # built on first read, kept out of eq, hash and repr; guards read floats
    @cached_property
    def x_size(self) -> int:
        return self.base.x_size ** self.copies

    @cached_property
    def y_size(self) -> int:
        return self.base.y_size ** self.copies

    @cached_property
    def a_size(self) -> int:
        return self.base.a_size ** self.copies

    @cached_property
    def b_size(self) -> int:
        return self.base.b_size ** self.copies

    def float_sizes(self) -> tuple[float, float, float, float]:
        """(X, Y, A, B) as floats, never built as ints: OverflowError
        past float range."""
        return tuple(n ** self.copies for n in self.base.float_sizes())

    def weight(self, x: int, y: int) -> Fraction:
        base, n = self.base, self.copies
        return math.prod(map(base.weight, _index_to_tuple(x, base.x_size, n),
                             _index_to_tuple(y, base.y_size, n)))

    def wins(self, x: int, y: int, a: int, b: int) -> bool:
        # fused, not _index_to_tuple: sessions call it on every draw and replay
        base = self.base
        for _ in range(self.copies):  # one digit per copy, last copy first
            x, xi = divmod(x, base.x_size)
            y, yi = divmod(y, base.y_size)
            a, ai = divmod(a, base.a_size)
            b, bi = divmod(b, base.b_size)
            if not base.wins(xi, yi, ai, bi):
                return False
        return True

    def _check_cells(self, what: str, axes: int) -> None:
        """Refuse a table over the first ``axes`` of (X, Y, A, B) past the
        cell cap, from one copy's cells, building the count only near it."""
        base = self.base
        one = math.prod((base.x_size, base.y_size, base.a_size,
                         base.b_size)[:axes])
        check_budget(DEFAULT_TABLE_CELLS, what,
                     lambda: self.copies * math.log2(one),
                     lambda: one ** self.copies, RUN_FALLBACK)

    def int_weights(self) -> tuple[np.ndarray, int]:
        """[X, Y] weights: the outer power of the base game's weights."""
        self._check_cells("weight table", 2)
        base_w, base_denom = self.base.int_weights()
        denom = base_denom ** self.copies
        return _outer_power(base_w.astype(_int_dtype(denom)),
                            self.copies), denom

    def win_rows(self) -> np.ndarray:
        """[X, Y, A, B] bool wins: the outer power of the base game's."""
        self._check_cells("win table", 4)
        return _outer_power(self.base.win_rows(), self.copies)


def repeat_game(g: Game, copies: int) -> RepeatedGame:
    return RepeatedGame(g, copies)


def repeated_exact_value(rg: RepeatedGame,
                         budget: int = DEFAULT_PAIR_BUDGET
                         ) -> tuple[Fraction, StrategyPair]:
    """Exact classical value of the N-fold product."""
    return classical_value(rg, budget)


@dataclass(frozen=True)
class LeakyRepetitionResult:
    """Exact leaky value of a repeated game, or an upper bound when the
    strategy space is not enumerable within budget (``exact`` is False and
    ``witness`` is None)."""

    value: Fraction
    witness: LeakyStrategy | None
    exact: bool


def leaky_repetition_experiment(g: Game, copies: int, model: LeakageModel
                                ) -> LeakyRepetitionResult:
    """Leaky value of the N-fold product: exact when enumerable.

    Falls back to leaky_value_upper_bound of the product, and if even the
    product's classical value is out of range, of the base game, which still
    bounds the product since repetition never increases the value.
    """
    rg = repeat_game(g, copies)
    try:
        value, witness = leaky_value_exact(rg, model)
        return LeakyRepetitionResult(value, witness, True)
    except BudgetExceededError:
        pass
    try:
        bound = leaky_value_upper_bound(rg, model.total_bits)
    except BudgetExceededError:
        bound = leaky_value_upper_bound(g, model.total_bits)
    return LeakyRepetitionResult(bound, None, False)
