"""Parallel repetition: implicit product games and repetition bounds.

A repeated game plays N independent copies at once and wins only when all
coordinates win.  The product is represented implicitly through mixed-radix
index tuples (first coordinate most significant), exposing the same
evaluation interface as a plain Game so every exact solver works on it
unchanged.  Weight and win tables are built under a memory cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, InvalidInputError
from .games import (DEFAULT_PAIR_BUDGET, Game, StrategyPair, _index_to_tuple,
                    classical_value, strategy_value)
from .leakage import (DEFAULT_LEAKY_BUDGET, LeakageModel, LeakyStrategy,
                      leaky_value_exact)

DEFAULT_TABLE_CELLS = 10**7


def _from_digits(digits, radix: int) -> int:
    index = 0
    for d in digits:
        index = index * radix + d
    return index


@dataclass(frozen=True)
class RepeatedGame:
    """N independent copies of a base game, win iff all coordinates win."""

    base: Game
    copies: int

    def __post_init__(self):
        if self.copies < 1:
            raise InvalidInputError("copies must be >= 1")

    @property
    def name(self) -> str:
        return f"{self.base.name}^{self.copies}"

    @property
    def x_size(self) -> int:
        return self.base.x_size ** self.copies

    @property
    def y_size(self) -> int:
        return self.base.y_size ** self.copies

    @property
    def a_size(self) -> int:
        return self.base.a_size ** self.copies

    @property
    def b_size(self) -> int:
        return self.base.b_size ** self.copies

    # index <-> coordinate tuples (first copy most significant)

    def x_coords(self, x: int) -> tuple[int, ...]:
        return _index_to_tuple(x, self.base.x_size, self.copies)

    def y_coords(self, y: int) -> tuple[int, ...]:
        return _index_to_tuple(y, self.base.y_size, self.copies)

    def a_index(self, coords) -> int:
        return _from_digits(coords, self.base.a_size)

    def b_index(self, coords) -> int:
        return _from_digits(coords, self.base.b_size)

    def weight(self, x: int, y: int) -> Fraction:
        out = Fraction(1)
        for xi, yi in zip(self.x_coords(x), self.y_coords(y)):
            out *= self.base.weight(xi, yi)
        return out

    def wins(self, x: int, y: int, a: int, b: int) -> bool:
        an = _index_to_tuple(a, self.base.a_size, self.copies)
        bn = _index_to_tuple(b, self.base.b_size, self.copies)
        return all(self.base.wins(xi, yi, ai, bi)
                   for xi, yi, ai, bi in zip(self.x_coords(x),
                                             self.y_coords(y), an, bn))

    def int_weights(self, max_cells: int = DEFAULT_TABLE_CELLS
                    ) -> tuple[list[int], int]:
        cells = self.x_size * self.y_size
        if cells > max_cells:
            raise BudgetExceededError(cells, max_cells, "weight table")
        base_w, base_denom = self.base.int_weights()
        ys = self.base.y_size
        weights = []
        for x in range(self.x_size):
            xc = self.x_coords(x)
            for y in range(self.y_size):
                w = 1
                for xi, yi in zip(xc, self.y_coords(y)):
                    w *= base_w[xi * ys + yi]
                weights.append(w)
        return weights, base_denom ** self.copies

    def win_rows(self, max_cells: int = DEFAULT_TABLE_CELLS):
        """rows[x][y][a] = bitmask over b; tensor of the base masks."""
        cells = self.x_size * self.y_size * self.a_size
        if cells > max_cells:
            raise BudgetExceededError(cells, max_cells, "predicate table")
        base_rows = self.base.win_rows()
        bs = self.base.b_size
        rows = []
        for x in range(self.x_size):
            xc = self.x_coords(x)
            per_y = []
            for y in range(self.y_size):
                yc = self.y_coords(y)
                per_a = []
                for a in range(self.a_size):
                    ac = _index_to_tuple(a, self.base.a_size, self.copies)
                    # combine least-significant coordinate first
                    mask, width = 1, 1
                    for xi, yi, ai in zip(reversed(xc), reversed(yc),
                                          reversed(ac)):
                        m = base_rows[xi][yi][ai]
                        new = 0
                        for bi in range(bs):
                            if (m >> bi) & 1:
                                new |= mask << (bi * width)
                        mask = new
                        width *= bs
                        if not mask:
                            break
                    per_a.append(mask)
                per_y.append(per_a)
            rows.append(per_y)
        return rows


def repeat_game(g: Game, copies: int) -> RepeatedGame:
    return RepeatedGame(g, copies)


def repeated_exact_value(rg: RepeatedGame,
                         budget: int = DEFAULT_PAIR_BUDGET
                         ) -> tuple[Fraction, StrategyPair]:
    """Exact classical value of the N-fold product."""
    return classical_value(rg, budget)


def product_strategy_value(rg: RepeatedGame, per_copy: list[StrategyPair]
                           ) -> Fraction:
    """Value of playing an independent strategy pair on each coordinate.

    Equals the product of the per-coordinate values, so it lower-bounds
    the repeated value by value(base)^N when each entry is optimal.
    """
    if len(per_copy) != rg.copies:
        raise InvalidInputError(
            f"need {rg.copies} strategy pairs, got {len(per_copy)}")
    out = Fraction(1)
    for s in per_copy:
        out *= strategy_value(rg.base, s)
    return out


@dataclass(frozen=True)
class RepetitionBoundParams:
    """Inputs to the heuristic repetition decay curve.

    ``epsilon`` is one minus the base value, ``s`` is log2 of the answer
    pair count plus one.  The exponent constants are unspecified by theory;
    the defaults (1, 1/16) make the curve illustrative only, never an
    assertion about a concrete game.
    """

    epsilon: float
    s: float
    c_exp: float = 1.0
    c_rate: float = 1.0 / 16.0

    def __post_init__(self):
        if not 0 < self.epsilon <= 0.5:
            raise InvalidInputError("epsilon must be in (0, 1/2]")
        if self.s < 1:
            raise InvalidInputError("s must be >= 1")
        if self.c_exp <= 0 or self.c_rate <= 0:
            raise InvalidInputError("exponent constants must be positive")


def params_for_game(g, value: Fraction,
                    c_exp: float = 1.0,
                    c_rate: float = 1.0 / 16.0) -> RepetitionBoundParams:
    """Curve parameters for a game with known classical value."""
    return RepetitionBoundParams(
        epsilon=float(1 - value),
        s=math.log2(g.a_size * g.b_size) + 1,
        c_exp=c_exp, c_rate=c_rate)


def repetition_bound(p: RepetitionBoundParams, n: int) -> float:
    """(1 - epsilon^c_exp) ** (c_rate * n / s); 1.0 at n = 0."""
    if n < 0:
        raise InvalidInputError("n must be non-negative")
    if n == 0:
        return 1.0
    return (1.0 - p.epsilon ** p.c_exp) ** (p.c_rate * n / p.s)


def repetition_bound_curve(p: RepetitionBoundParams, n_max: int
                           ) -> list[tuple[int, float]]:
    """Heuristic decay curve for N = 1..n_max (floats, illustrative only)."""
    return [(n, repetition_bound(p, n)) for n in range(1, n_max + 1)]


@dataclass(frozen=True)
class LeakyRepetitionResult:
    """Exact leaky value of a repeated game, or an upper bound when the
    strategy space is not enumerable within budget (``exact`` is False and
    ``witness`` is None)."""

    value: Fraction
    witness: LeakyStrategy | None
    exact: bool


def leaky_repetition_experiment(g: Game, copies: int, model: LeakageModel,
                                leaky_budget: int = DEFAULT_LEAKY_BUDGET,
                                pair_budget: int = DEFAULT_PAIR_BUDGET
                                ) -> LeakyRepetitionResult:
    """Leaky value of the N-fold product: exact when enumerable.

    Falls back to min(1, 2^bits * classical value of the product), and if
    even the product's classical value is out of range, to
    min(1, 2^bits * classical value of the base), which still upper-bounds
    the leaky repeated value since repetition never increases the value.
    """
    rg = repeat_game(g, copies)
    try:
        value, witness = leaky_value_exact(rg, model, leaky_budget)
        return LeakyRepetitionResult(value, witness, True)
    except BudgetExceededError:
        pass
    try:
        classical, _ = classical_value(rg, pair_budget)
    except BudgetExceededError:
        classical, _ = classical_value(g, pair_budget)
    bound = min(Fraction(1), (1 << model.total_bits) * classical)
    return LeakyRepetitionResult(bound, None, False)
