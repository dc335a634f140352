"""Finite two-prover one-round games: representation and exact classical values.

A game is a question distribution over X x Y, answer alphabets A and B, and
a boolean acceptance predicate V(a,b|x,y).  All probabilities are exact
rationals; floats only appear when a caller asks for them.  Alphabets are
index sets 0..size-1 throughout; semantic labels belong in file comments.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Any, Callable, Sequence

import numpy as np

from .errors import (RUN_FALLBACK, FormatError, InvalidInputError,
                     check_budget, check_range)

# Default cap on (alice strategies) x (bob strategies) for exact solves.
DEFAULT_PAIR_BUDGET = 10**8
# Bytes of the suffix score table in the fold: 2^15 int64 cells, or 2^15
# tables at most, each at least one int64 index entry in the x fold.
FOLD_BYTES = 2**18


@dataclass(frozen=True)
class Game:
    """A finite game (dist, X x Y, A x B, predicate).

    ``dist`` holds the question weights row-major over (x, y) and must sum
    to exactly 1.  ``pred`` holds acceptance bits row-major over
    (x, y, a, b).  Zero-weight question pairs are allowed; their predicate
    entries are retained but never affect any value.
    """

    name: str
    x_size: int
    y_size: int
    a_size: int
    b_size: int
    dist: tuple[Fraction, ...]
    pred: tuple[int, ...]

    def __post_init__(self):
        for field in ("x_size", "y_size", "a_size", "b_size"):
            check_range((getattr(self, field),), math.inf, field, low=1)
        if len(self.dist) != self.x_size * self.y_size:
            raise InvalidInputError(
                f"dist has {len(self.dist)} entries, expected "
                f"{self.x_size * self.y_size}")
        try:  # kept: int_weights reads them
            weights, denom = kept(self, "_weights",
                                  lambda: _over_common_denominator(self.dist))
        except (AttributeError, TypeError):  # no integer ratio
            raise InvalidInputError("question weights must be rationals"
                                    ) from None
        if min(weights) < 0:
            raise InvalidInputError("negative question weight")
        if sum(weights) != denom:
            raise InvalidInputError("question weights must sum to exactly 1")
        expected = self.x_size * self.y_size * self.a_size * self.b_size
        if len(self.pred) != expected:
            raise InvalidInputError(
                f"pred has {len(self.pred)} entries, expected {expected}")
        if self.pred.count(0) + self.pred.count(1) != expected:
            raise InvalidInputError("pred entries must be 0 or 1")

    # -- evaluation interface (shared with RepeatedGame via duck typing) --

    def weight(self, x: int, y: int) -> Fraction:
        return self.dist[x * self.y_size + y]

    def wins(self, x: int, y: int, a: int, b: int) -> bool:
        idx = ((x * self.y_size + y) * self.a_size + a) * self.b_size + b
        return self.pred[idx] == 1

    def int_weights(self) -> tuple[np.ndarray, int]:
        """Question weights as an [X, Y] integer matrix plus their common
        denominator (int64 while it fits, Python ints past that).

        The denominator equals the weight total, so value numerators from
        the solvers divide by it exactly.
        """
        weights, denom = self._weights
        return (np.array(weights, dtype=_int_dtype(denom)).reshape(
            self.x_size, self.y_size), denom)

    def win_rows(self) -> np.ndarray:
        """wins[x, y, a, b]: the acceptance predicate as a bool tensor."""
        # the bits are checked to be 0 or 1; bytes convert them in one call
        return np.frombuffer(bytearray(self.pred), dtype=bool).reshape(
            self.x_size, self.y_size, self.a_size, self.b_size)

    def float_sizes(self) -> tuple[float, float, float, float]:
        """(X, Y, A, B) as floats, for budget guards."""
        return (float(self.x_size), float(self.y_size),
                float(self.a_size), float(self.b_size))


def kept(obj, name: str, build: Callable[[], Any]) -> Any:
    """build() once, kept in obj.__dict__[name], which eq, hash, repr skip."""
    if name not in obj.__dict__:
        object.__setattr__(obj, name, build())
    return obj.__dict__[name]


def _over_common_denominator(weights) -> tuple[list[int], int]:
    """Rational weights as Python ints over their least common denominator."""
    denom = math.lcm(*(w.denominator for w in weights))
    return [int(w.numerator) * (denom // int(w.denominator))
            for w in weights], denom


def _int_dtype(bound: int):
    """int64 for integers up to ``bound`` while it fits, Python ints past."""
    return np.int64 if bound < 2**63 else object


@dataclass(frozen=True)
class StrategyPair:
    """Deterministic answer functions, one table per prover."""

    alice: tuple[int, ...]  # X -> A
    bob: tuple[int, ...]    # Y -> B

    def check_shapes(self, g) -> None:
        if len(self.alice) != g.x_size or len(self.bob) != g.y_size:
            raise InvalidInputError("strategy tables do not match game shape")
        check_range(self.alice, g.a_size, "alice answer")
        check_range(self.bob, g.b_size, "bob answer")


def _accepted(g, answers: Callable[[int, int], tuple[int, int]], *,
              xs: Sequence[int] | None = None,
              ys: Sequence[int] | None = None) -> Fraction:
    """Weight of the question pairs (x, y) in ``xs`` x ``ys`` (every
    question by default) where the answer pair ``answers(x, y)`` wins; read
    cell by cell through ``weight`` and ``wins``, zero weights skipped."""
    total = Fraction(0)
    for x in range(g.x_size) if xs is None else xs:
        for y in range(g.y_size) if ys is None else ys:
            if (w := g.weight(x, y)) and g.wins(x, y, *answers(x, y)):
                total += w
    return total


def strategy_value(g, s: StrategyPair) -> Fraction:
    """Exact acceptance probability of a deterministic strategy pair."""
    s.check_shapes(g)
    return _accepted(g, lambda x, y: (s.alice[x], s.bob[y]))


def merged_prover_value(g) -> Fraction:
    """Value when a single party sees both questions.

    This is sum over (x,y) of pi(x,y) * max_{a,b} V(a,b|x,y): the ceiling
    for any bounded-leakage value once the leaked bits cover the question.
    """
    weights, denom = g.int_weights()
    return Fraction(int((weights * g.win_rows().any(axis=(2, 3))).sum()),
                    denom)


def _index_to_tuple(index: int, radix: int, length: int) -> tuple[int, ...]:
    digits = [0] * length
    for pos in range(length - 1, -1, -1):
        index, digits[pos] = divmod(index, radix)
    return tuple(digits)


def gain_tensor(g) -> tuple[np.ndarray, int]:
    """c[x, a, y, b] = integer weight of (x, y) if (a, b) wins there, plus
    the weights' denominator, in the narrowest of int8 ... int64 holding it
    (object past them): sums over distinct x never pass the denominator."""
    weights, denom = g.int_weights()
    narrow = np.min_scalar_type(-1 - denom)  # signed, so it holds denom too
    wins = g.win_rows().transpose(0, 2, 1, 3)
    return np.multiply(weights[:, None, :, None], wins, dtype=narrow), denom


def _answer_scores(c: np.ndarray) -> np.ndarray:
    """scores[b, y, i]: weight won when the questions on c's first axis get
    the i-th answer table in lex order and y gets answer b, for ``c`` in the
    fold's layout c[x, a, b, y, 1].  Each question, last first, becomes the
    most significant digit, so every sum runs over whole rows of tables."""
    b_size, y_size = c.shape[2:4]
    scores = np.zeros((b_size, y_size, 1, 1), dtype=c.dtype)  # [b, y, 1, i]
    for cx in c[::-1].transpose(0, 2, 3, 1, 4):  # cx[b, y, a, 1]
        scores = np.add(cx, scores, order="C").reshape(b_size, y_size, 1, -1)
    return scores[:, :, 0]


def _fold(c: np.ndarray, cells: int) -> tuple[np.ndarray, int, np.ndarray]:
    """(c, split, suffix), c in the fold's layout c[x, a, b, y, 1]: c[x, a]
    adds to the suffix score table scores[b, y, i] (``_answer_scores``),
    whose tables lie on the last, contiguous axis, so bob's best reply is
    elementwise passes over rows of tables.  The fold walks c's first
    ``split`` questions one answer at a time over the score table of the
    rest, whose tables, ``cells`` cells of c's dtype each but never under
    8 bytes, are as many as fit FOLD_BYTES, so memory stays bounded for any
    game."""
    c = c.transpose(0, 1, 3, 2)[..., None]
    split, a_size = c.shape[:2]
    size = max(cells * c.itemsize, 8)
    while split and size * a_size <= FOLD_BYTES:
        split, size = split - 1, size * a_size
    return c, split, _answer_scores(c[split:])


def _walk(c: np.ndarray, suffix: np.ndarray, split: int):
    """(p, prefix, scores) for the p-th prefix in lex order of answers to c's
    first ``split`` questions (fold layout), scores the suffix table plus
    the prefix's rows of c: one running table is kept per depth, and a
    prefix adds rows only from its last nonzero digit on.  At split 0 the
    suffix table itself is yielded, uncopied."""
    if not split:  # the one empty prefix: no product, no running tables
        yield 0, (), suffix
        return
    tables = [suffix] * (split + 1)  # [d]: the suffix plus d answers' rows
    prefixes = itertools.product(range(c.shape[1]), repeat=split)
    for p, prefix in enumerate(prefixes):
        start = max(itertools.compress(range(split), prefix)) if p else 0
        for d in range(start, split):
            tables[d + 1] = tables[d] + c[d, prefix[d]]
        yield p, prefix, tables[-1]


def best_tables(c: np.ndarray) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Best (numerator, alice, bob) for the gain tensor ``c``.

    Alice's table is the first maximizer in lex order (x = 0 most
    significant) and bob's is the smallest best response per y.  The
    trailing questions' tables are scored once; each prefix of the leading
    questions, in lex order (``_walk``), adds its (b, y) vector to that table.
    """
    x_size, a_size, y_size, b_size = c.shape
    c, split, suffix = _fold(c, y_size * b_size)
    best = (-1, (), ())
    for _, prefix, scores in _walk(c, suffix, split):
        totals = scores.max(axis=0).sum(axis=0, dtype=c.dtype)
        i = int(totals.argmax())  # first maximum: lex-smallest suffix
        if totals[i] > best[0]:
            best = (int(totals[i]),
                    prefix + _index_to_tuple(i, a_size, x_size - split),
                    tuple(scores[:, :, i].argmax(axis=0).tolist()))
    return best


def _subset_walk(c: np.ndarray, suffix: np.ndarray, split: int, subsets: int,
                 rank, pick) -> tuple[list[int], Callable]:
    """Best totals of ``subsets`` subsets over ``_walk``'s prefixes, and
    ``read(mask)``: ``rank(prefix, scores)`` gives the subsets a prefix
    reaches (a slice), their totals and the tables ``pick(mask, prefix,
    scores, tables)`` reads at mask's first strictly raising prefix."""
    nums = np.full(subsets, -1, dtype=c.dtype)  # any prefix raises it
    first = np.zeros(subsets, np.min_scalar_type(c.shape[1] ** split - 1))
    for p, prefix, scores in _walk(c, suffix, split):
        reached, best, tables = rank(prefix, scores)
        if p:  # each subset's first strictly raising prefix, 0 to start
            first[reached][best > nums[reached]] = p  # a view of first
        np.maximum(nums[reached], best, out=nums[reached])
    last = (p, prefix, scores, tables)  # a read rescores any other prefix

    def read(mask):
        p = int(first[mask])
        if p == last[0]:
            return pick(mask, *last[1:])
        prefix = _index_to_tuple(p, c.shape[1], split)
        scores = suffix + c[np.arange(split), prefix].sum(0, dtype=c.dtype)
        return pick(mask, prefix, scores, rank(prefix, scores)[2])

    return nums.tolist(), read


@functools.lru_cache(maxsize=32)  # a few shapes recur; bounded for the rest
def _x_segments(x_size: int, a_size: int, split: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """(order, bounds), read-only, for the x-subset fold's suffix tables
    over the extended alphabet: ``order`` sorts them stably by the mask of
    their answers below ``a_size``, and mask q's segment of it is
    ``bounds[q]:bounds[q + 1]``, whose subset is q << split."""
    places = x_size - split
    index = np.arange((a_size + 1) ** places)
    segs = np.zeros_like(index)  # suffix subsets, one place at a time
    for place in range(places):
        digit = index // (a_size + 1) ** (places - 1 - place) % (a_size + 1)
        segs[digit < a_size] |= 1 << place
    order = np.argsort(segs, kind="stable")
    bounds = np.searchsorted(segs[order], np.arange((1 << places) + 1))
    for array in (order, bounds):
        array.setflags(write=False)
    return order, bounds


def best_values_per_x_subset(c: np.ndarray
                             ) -> tuple[list[int], Callable[[int], tuple]]:
    """The value of ``best_tables(c[xs])`` for every subset xs of the
    questions x, by bitmask, and ``read(mask)``, that subset's (alice, bob)
    tables as ``best_tables(c[xs])`` gives them.

    One fold over an extended alphabet: answer A ("x is not in xs") gains
    nothing, so a table's subset is the mask of its answers below A, and
    on that mask the tables run in lex order of their digits there.
    Sorted by mask, each subset's suffix tables are a segment, and each
    prefix raises every segment's subset to the segment's maximum.
    """
    x_size, a_size, y_size, b_size = c.shape
    ext = np.concatenate([c, np.zeros_like(c[:, :1])], axis=1)
    ext, split, suffix = _fold(ext, y_size * b_size)
    order, bounds = _x_segments(x_size, a_size, split)

    def rank(prefix, scores):  # segment q's subset is q << split | mask
        totals = scores.max(axis=0).sum(axis=0, dtype=c.dtype)[order]
        mask = sum(1 << x for x, a in enumerate(prefix) if a < a_size)
        return (slice(mask, None, 1 << split),
                np.maximum.reduceat(totals, bounds[:-1]), totals)

    def pick(mask, prefix, scores, totals):
        lo, hi = bounds[mask >> split], bounds[(mask >> split) + 1]
        i = int(order[lo + totals[lo:hi].argmax()])
        digits = prefix + _index_to_tuple(i, a_size + 1, x_size - split)
        return (tuple(a for a in digits if a < a_size),
                tuple(scores[:, :, i].argmax(axis=0).tolist()))

    return _subset_walk(ext, suffix, split, 1 << x_size, rank, pick)


def best_values_per_y_subset(c: np.ndarray, width: int
                             ) -> tuple[list[int], Callable[[int], tuple]]:
    """The value of ``best_tables(c)`` counting only the questions y in a
    subset of the groups of ``width`` consecutive y, for every subset by
    bitmask, and ``read(mask)``, that subset's first maximizing alice table
    and bob's smallest best response on its y.  Each table's subset totals
    are built from its group totals by doubling, within the fold's bytes.
    """
    x_size, a_size, y_size, b_size = c.shape
    groups = y_size // width
    c, split, suffix = _fold(c, max(y_size * b_size, 1 << groups))

    def rank(prefix, scores):
        per_group = scores.max(axis=0).reshape(groups, width, -1).sum(
            axis=1, dtype=c.dtype)
        totals = np.empty((1 << groups, scores.shape[2]), dtype=c.dtype)
        totals[0] = 0
        for j in range(groups):
            np.add(totals[:1 << j], per_group[j], out=totals[1 << j:2 << j])
        return slice(None), totals.max(axis=1), totals  # every subset

    def pick(mask, prefix, scores, totals):
        i = int(totals[mask].argmax())
        ys = [y for y in range(y_size) if mask >> (y // width) & 1]
        return (prefix + _index_to_tuple(i, a_size, x_size - split),
                tuple(scores[:, ys, i].argmax(axis=0).tolist()))

    return _subset_walk(c, suffix, split, 1 << groups, rank, pick)


def classical_value(g, budget: int = DEFAULT_PAIR_BUDGET
                    ) -> tuple[Fraction, StrategyPair]:
    """Exact classical value with a lexicographically smallest witness.

    Scores every alice answer table with numpy (:func:`best_tables`); bob's
    best response is exact and decomposes per question.  The witness
    tie-break is the smallest (alice, bob) table pair.

    Raises BudgetExceededError when the strategy-pair count
    a_size**x_size * b_size**y_size exceeds ``budget``.
    """
    def log2_pairs():
        x, y, a, b = g.float_sizes()
        return x * math.log2(a) + y * math.log2(b)

    check_budget(budget, "strategy-pair enumeration", log2_pairs,
                 lambda: g.a_size ** g.x_size * g.b_size ** g.y_size,
                 RUN_FALLBACK)
    c, denom = gain_tensor(g)
    num, alice, bob = best_tables(c)
    return Fraction(num, denom), StrategyPair(alice, bob)


# ---------------------------------------------------------------------------
# game file format
# ---------------------------------------------------------------------------
#
#   # comment
#   game <name> <xSize> <ySize> <aSize> <bSize>
#   dist
#   <xSize*ySize integer weights, row-major over (x,y), any line breaks>
#   pred
#   <one line per (x,y): aSize*bSize bits row-major over (a,b)>
#
# Weights are integers in the file and are normalized by their sum on load.


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, text) of each line left non-blank by its comment cut."""
    return [(no, line) for no, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.split("#", 1)[0].strip())]


def _from_int_weights(name: str, sizes: Sequence[int], weights: Sequence[int],
                      bits: Sequence[int]) -> Game:
    """A game from integer weights with a positive total and its predicate
    bits.  The weights, divided by their gcd, are kept for ``int_weights``
    rather than recovered from ``dist``; ``dist`` holds one Fraction per
    distinct weight."""
    scale = math.gcd(*weights)
    nums, denom = [w // scale for w in weights], sum(weights) // scale
    fractions = {n: Fraction(n, denom) for n in set(nums)}
    g = object.__new__(Game)
    object.__setattr__(g, "_weights", (nums, denom))
    g.__init__(name, *sizes, tuple(map(fractions.__getitem__, nums)),
               tuple(bits))
    return g


def load_game(text: str) -> Game:
    """Parse the line-oriented game format; errors carry line numbers."""
    lines = _content_lines(text)
    if not lines:
        raise FormatError(1, "empty game file")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 6 or parts[0] != "game":
        raise FormatError(no, "expected header 'game <name> <x> <y> <a> <b>'")
    name = parts[1]
    try:
        x_size, y_size, a_size, b_size = (int(p) for p in parts[2:])
    except ValueError:
        raise FormatError(no, "alphabet sizes must be integers") from None
    if min(x_size, y_size, a_size, b_size) < 1:
        raise FormatError(no, "alphabet sizes must be >= 1")

    if len(lines) < 2 or lines[1][1] != "dist":
        raise FormatError(lines[1][0] if len(lines) > 1 else no,
                          "expected 'dist' section")
    dist = list(itertools.takewhile(lambda nl: nl[1] != "pred", lines[2:]))
    pos = 2 + len(dist)
    try:  # one pass over the tokens; a bad token's line is sought after
        weights = list(map(int, " ".join(line for _, line in dist).split()))
        bad = min(weights, default=0) < 0
    except ValueError:
        bad = True
    if bad:  # the first malformed or negative token names its line
        for no, line in dist:
            for tok in line.split():
                try:
                    w = int(tok)
                except ValueError:
                    raise FormatError(
                        no, f"malformed weight {tok!r}") from None
                if w < 0:
                    raise FormatError(no, "negative weight")
    if len(weights) != x_size * y_size:
        raise FormatError(dist[-1][0] if dist else no,
                          f"dist has {len(weights)} weights, expected "
                          f"{x_size * y_size}")
    total = sum(weights)
    if total == 0:
        raise FormatError(dist[-1][0], "zero total weight")

    if pos >= len(lines):
        raise FormatError(lines[-1][0], "expected 'pred' section")
    pos += 1
    pred_rows = lines[pos:]
    if len(pred_rows) != x_size * y_size:
        raise FormatError(pred_rows[-1][0] if pred_rows else lines[pos - 1][0],
                          f"pred has {len(pred_rows)} rows, expected "
                          f"{x_size * y_size}")
    rows: list[str] = []
    for no, line in pred_rows:
        row = line.replace(" ", "")
        if len(row) != a_size * b_size or row.strip("01"):
            raise FormatError(no, f"pred row must be {a_size * b_size} bits")
        rows.append(row)
    bits = "".join(rows).encode().translate(bytes.maketrans(b"01", b"\0\1"))
    return _from_int_weights(name, (x_size, y_size, a_size, b_size),
                             weights, bits)


def save_game(g: Game) -> str:
    """Render a game in the file format; load(save(g)) == g exactly."""
    if any(ch.isspace() for ch in g.name) or not g.name:
        raise InvalidInputError("game name must be a single token")
    out = [f"game {g.name} {g.x_size} {g.y_size} {g.a_size} {g.b_size}", "dist"]
    out += (" ".join(map(str, row)) for row in g.int_weights()[0].tolist())
    out.append("pred")
    bits, cell = "".join(map(str, g.pred)), g.a_size * g.b_size
    out += (bits[i:i + cell] for i in range(0, len(bits), cell))
    return "\n".join(out) + "\n"


def make_game(name: str, x_size: int, y_size: int, a_size: int, b_size: int,
              weights: Sequence[int | Fraction], predicate) -> Game:
    """Build a game from question weights and a predicate callable.

    ``predicate(x, y, a, b)`` -> truthy on accept.  Weights, ints or
    Fractions (not float, bool or str), are normalized by their sum.
    """
    if not all(type(w) is int for w in weights):  # Fractions, numpy ints
        if any(type(w) is bool or not isinstance(w, Rational)
               for w in weights):
            raise InvalidInputError("weights must be ints or Fractions")
        weights = _over_common_denominator(weights)[0]
    if sum(weights) <= 0:
        raise InvalidInputError("zero total weight")
    sizes = (x_size, y_size, a_size, b_size)
    bits = [1 if predicate(*q) else 0
            for q in itertools.product(*map(range, sizes))]
    return _from_int_weights(name, sizes, weights, bits)


def chsh() -> Game:
    """The CHSH game: uniform questions on {0,1}^2, accept iff a^b = x&y."""
    return make_game("chsh", 2, 2, 2, 2, [1, 1, 1, 1],
                     lambda x, y, a, b: (a ^ b) == (x & y))
