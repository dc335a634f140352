"""Exact game values when the provers may exchange a bounded number of bits.

Three single-exchange interaction patterns are supported: one-way in either
direction and a simultaneous swap.  Fully interactive protocols are covered
only through the 2^bits upper bound (`leaky_value_upper_bound`), which is
valid for any interaction pattern by the guess-and-abort reduction.

Messages are bit-strings read as integers in 0..2^bits-1.  Only
deterministic strategies are enumerated: the value is affine in each
party's behavioral distribution, so the optimum is attained at a
deterministic point and shared randomness is a convex mixture.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError, check_budget, check_range
from .games import (DEFAULT_PAIR_BUDGET, _accepted, best_values_per_x_subset,
                    best_values_per_y_subset, classical_value, gain_tensor)

MAX_TOTAL_BITS = 30
DEFAULT_LEAKY_BUDGET = 10**7


class LeakageKind(enum.Enum):
    ONE_WAY_AB = "one-way-ab"      # first prover -> second prover
    ONE_WAY_BA = "one-way-ba"      # second prover -> first prover
    SIMULTANEOUS = "simultaneous"  # single simultaneous exchange


@dataclass(frozen=True)
class LeakageModel:
    """Direction pattern plus per-direction bit budgets."""

    kind: LeakageKind
    bits_ab: int = 0
    bits_ba: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, LeakageKind):
            raise InvalidInputError(f"unknown leakage kind {self.kind!r}")
        check_range((self.bits_ab, self.bits_ba), MAX_TOTAL_BITS + 1, "bits")
        if self.kind is LeakageKind.ONE_WAY_AB and self.bits_ba != 0:
            raise InvalidInputError("one-way-ab forbids bits_ba")
        if self.kind is LeakageKind.ONE_WAY_BA and self.bits_ab != 0:
            raise InvalidInputError("one-way-ba forbids bits_ab")
        if self.total_bits > MAX_TOTAL_BITS:
            raise InvalidInputError(
                f"total budget {self.total_bits} exceeds {MAX_TOTAL_BITS}")

    @property
    def total_bits(self) -> int:
        return self.bits_ab + self.bits_ba

    @property
    def msgs_ab(self) -> int:
        return 1 << self.bits_ab

    @property
    def msgs_ba(self) -> int:
        return 1 << self.bits_ba


def one_way_ab(bits: int) -> LeakageModel:
    return LeakageModel(LeakageKind.ONE_WAY_AB, bits_ab=bits)


def one_way_ba(bits: int) -> LeakageModel:
    return LeakageModel(LeakageKind.ONE_WAY_BA, bits_ba=bits)


def simultaneous(bits_ab: int, bits_ba: int) -> LeakageModel:
    return LeakageModel(LeakageKind.SIMULTANEOUS, bits_ab, bits_ba)


@dataclass(frozen=True)
class LeakyStrategy:
    """Message tables plus answer tables indexed by (question, incoming msg).

    For one-way models the silent party's message table is constant 0 and
    the talking party's answer table has a single incoming-message column.
    """

    alice_msg: tuple[int, ...]               # X -> 0..msgs_ab-1
    bob_msg: tuple[int, ...]                 # Y -> 0..msgs_ba-1
    alice_ans: tuple[tuple[int, ...], ...]   # [x][incoming ba msg] -> a
    bob_ans: tuple[tuple[int, ...], ...]     # [y][incoming ab msg] -> b

    def check_shapes(self, g, m: LeakageModel) -> None:
        if len(self.alice_msg) != g.x_size or len(self.bob_msg) != g.y_size:
            raise InvalidInputError("message tables do not match game shape")
        check_range(self.alice_msg, m.msgs_ab, "alice message")
        check_range(self.bob_msg, m.msgs_ba, "bob message")
        if (len(self.alice_ans) != g.x_size
                or any(len(row) != m.msgs_ba for row in self.alice_ans)):
            raise InvalidInputError("alice answer table shape mismatch")
        if (len(self.bob_ans) != g.y_size
                or any(len(row) != m.msgs_ab for row in self.bob_ans)):
            raise InvalidInputError("bob answer table shape mismatch")
        check_range((a for row in self.alice_ans for a in row), g.a_size,
                    "alice answer")
        check_range((b for row in self.bob_ans for b in row), g.b_size,
                    "bob answer")


def leaky_strategy_value(g, m: LeakageModel, s: LeakyStrategy) -> Fraction:
    """Exact acceptance probability of one leaky strategy."""
    s.check_shapes(g, m)
    return _accepted(g, lambda x, y: (s.alice_ans[x][s.bob_msg[y]],
                                      s.bob_ans[y][s.alice_msg[x]]))


def _best_partition(value: list[int], k: int) -> list[int]:
    """rest[i]: the best sum of block values (``value`` by bitmask) over
    partitions of {i..n-1} into at most k blocks, rest[n] = 0, for k a
    power of two or n.  A layer doubles the blocks, best(S) = max of
    prev(S1) + prev(S - S1); the last fills only the suffix sets."""
    suffixes = [len(value) - (1 << i)
                for i in range(len(value).bit_length() - 1)]
    best = value
    for layer in range((k - 1).bit_length()):
        prev, best = best, [0] * len(value)
        for s in range(1, len(value)) if k > 2 << layer else suffixes:
            low, rest = s & -s, s & (s - 1)  # low's block is low | t
            t, top = rest, prev[s]  # prev(empty) = 0: S1 = S
            while t:
                t = (t - 1) & rest
                if (v := prev[low | t] + prev[rest ^ t]) > top:
                    top = v
            best[s] = top
    return [best[s] for s in suffixes] + [0]


def _label_strings(n: int, k: int, keep=None):
    """Length-n strings over <= k labels, new blocks taking the next label,
    in lex order, walked depth first without recursion; a prefix of i labels
    (masks[l]: the questions labelled l) grows only if keep(i, masks)."""
    labels, masks, i = [-1] * n, [0] * k, 0
    while i >= 0:
        if i == n:
            yield tuple(labels)
            i -= 1
            continue
        v = labels[i]
        masks[v] &= ~(1 << i)  # no bit is set while v = -1
        if v == k - 1 or v >= 0 and not masks[v]:  # v is i's last label
            labels[i], i = -1, i - 1
            continue
        labels[i] = v = v + 1
        masks[v] |= 1 << i
        if keep is None or keep(i + 1, masks):
            i += 1


@functools.cache
def _string_count(n: int, k: int) -> int:
    """How many strings ``_label_strings(n, k)`` yields."""
    strings = [1] + [0] * k  # strings[j]: prefixes using j labels
    for _ in range(n):
        strings = [0] + [j * strings[j] + strings[j - 1]
                         for j in range(1, k + 1)]
    return sum(strings)


def _partition(values: list[int], n: int, msgs: int) -> tuple[int, tuple]:
    """The best total of n questions' values (by bitmask) over at most
    ``msgs`` labelled blocks, and the first label string reaching it.  With
    subadditive values worth 0 on the empty set, as both folds' are, a
    prefix's blocks plus the best split after it bound all its strings."""
    k = min(msgs, n)
    rest = _best_partition(values, k)
    return rest[0], next(_label_strings(n, k, lambda i, masks: sum(
        map(values.__getitem__, masks)) + rest[i] >= rest[0]))


def leaky_enumeration_size(g, m: LeakageModel) -> int:
    """A count that bounds the steps `leaky_value_exact` takes, checked
    against its budget.  With k1 = min(2^bits_ab, X), k2 = min(2^bits_ba,
    Y), strings(n, k) label strings of length n over at most k labels (at
    least the walk's leaves) and dp(n, k) = 3^n * (k-2) + 2^n for k >= 2,
    0 for k = 1 (at least the doubling DP's (ceil(log2 k) - 1) * 3^n +
    2^n - 1 steps).  No bits to alice (one-way-ab, simultaneous(L, 0)):
    (A+1)^X subset tables + dp(X, k1) + strings(X, k1) + Y * 2^bits_ab bob
    answer cells.  Otherwise, per alice string, A^X * 2^Y subset scores +
    dp(Y, k2) + strings(Y, k2), over strings(X, k1) alice strings; plus
    X * 2^bits_ba + Y * 2^bits_ab answer cells."""
    x, y, a = g.x_size, g.y_size, g.a_size
    k1, k2 = min(m.msgs_ab, x), min(m.msgs_ba, y)

    def dp(n, k):
        return 3 ** n * (k - 2) + 2 ** n if k > 1 else 0
    if not m.bits_ba:
        return ((a + 1) ** x + dp(x, k1) + _string_count(x, k1)
                + y * m.msgs_ab)
    return (_string_count(x, k1) * ((a ** x << y) + dp(y, k2)
                                    + _string_count(y, k2))
            + x * m.msgs_ba + y * m.msgs_ab)


def _log2_enumeration_size(g, m: LeakageModel) -> float:
    """A lower bound on log2 of `leaky_enumeration_size`, from float sizes:
    the largest term, with at least 2^(X-1) alice strings once she has two
    labels."""
    x, y, a, _ = g.float_sizes()
    cells = math.log2(y) + m.bits_ab
    if not m.bits_ba:
        return max(x * math.log2(a + 1), cells)
    strings = x - 1 if m.bits_ab else 0
    return max(strings + x * math.log2(a) + y, math.log2(x) + m.bits_ba,
               cells)


def _heard(c: np.ndarray, labels: tuple[int, ...]) -> np.ndarray:
    """c'[x, a, (y, label), b]: the gain tensor with bob answering each y
    per label he hears, x gaining only in its own label's columns; labels
    run over 0..max(labels)."""
    if not any(labels):
        return c  # one label: every x is heard alike
    heard = np.equal.outer(labels, range(max(labels) + 1))  # [x, label]
    x_size, a_size, _, b_size = c.shape
    return (c[:, :, :, None, :] * heard[:, None, None, :, None]).reshape(
        x_size, a_size, -1, b_size)


def _solve(c: np.ndarray, m: LeakageModel) -> tuple[int, LeakyStrategy]:
    """The best numerator and witness on the gain tensor ``c``: one fold
    scores every subset of X for alice's split when she hears nothing, or
    of Y per alice string in lex order (bob answering (y, label)), keeping
    the first that strictly improves, up to the merged-prover value.  The
    kept fold's reads give each chosen block's tables (0 to unsent labels)."""
    x_size, _, y_size, _ = c.shape
    if not m.bits_ba:
        values, read = best_values_per_x_subset(c)
        best, alice_msg = _partition(values, x_size, m.msgs_ab)
        bob_msg = (0,) * y_size
    else:
        k1, best = min(m.msgs_ab, x_size), -1
        merged = c.max(axis=(1, 3)).sum() if k1 > 1 else None
        for labels in _label_strings(x_size, k1):
            if best == merged:
                break
            values, read_y = best_values_per_y_subset(_heard(c, labels),
                                                      max(labels) + 1)
            num, split = _partition(values, y_size, m.msgs_ba)
            if num > best:
                best, alice_msg, bob_msg, read = num, labels, split, read_y
    k = max(alice_msg) + 1
    unused = (0,) * (m.msgs_ab - k)
    if not m.bits_ba:  # alice's blocks: one answer column, bob's per label
        alice_ans, bob_rows = [()] * x_size, []
        for j in range(k):
            xs = [x for x, v in enumerate(alice_msg) if v == j]
            alice, bob = read(sum(1 << x for x in xs))
            for x, a in zip(xs, alice):
                alice_ans[x] = (a,)
            bob_rows.append(bob)
        return best, LeakyStrategy(alice_msg, bob_msg, tuple(alice_ans),
                                   tuple(row + unused
                                         for row in zip(*bob_rows)))
    alice_cols, bob_ans = [], [()] * y_size  # bob's blocks
    for v in range(max(bob_msg) + 1):
        ys = [y for y, w in enumerate(bob_msg) if w == v]
        alice, bob = read(sum(1 << y for y in ys))
        alice_cols.append(alice)
        for i, y in enumerate(ys):
            bob_ans[y] = bob[i * k:(i + 1) * k] + unused
    alice_cols += [(0,) * x_size] * (m.msgs_ba - len(alice_cols))
    return best, LeakyStrategy(alice_msg, bob_msg, tuple(zip(*alice_cols)),
                               tuple(bob_ans))


def leaky_value_exact(g, m: LeakageModel,
                      budget: int = DEFAULT_LEAKY_BUDGET
                      ) -> tuple[Fraction, LeakyStrategy]:
    """Exact optimum over deterministic leaky strategies for the model.

    The witness is the lexicographically smallest maximizer in field order
    (alice_msg, bob_msg, alice_ans, bob_ans); bob gives the smallest best
    response.  Message labels are interchangeable, so its message tables
    are restricted-growth strings.  A fixed message table splits the
    sender's questions into at most 2^bits blocks, each its own classical
    game.  A doubling subset DP gives the value and each suffix's best
    split; these bound a depth-first walk whose first leaf is the first
    label string reaching the value.  Each block's lex-smallest optimal
    answers (0 for unused labels) complete the witness.  Alice's string
    splits X, and bob's splits Y once per alice string.
    """
    check_budget(budget, "leaky-strategy enumeration",
                 lambda: _log2_enumeration_size(g, m),
                 lambda: leaky_enumeration_size(g, m),
                 "leaky_value_upper_bound")
    c, denom = gain_tensor(g)
    best, witness = _solve(c, m)
    return Fraction(best, denom), witness


def guess_and_abort_value(g, m: LeakageModel, s: LeakyStrategy) -> Fraction:
    """Winning probability of the derandomized no-communication protocol.

    The parties share a uniformly random guess of the full message
    transcript instead of communicating.  Each party checks the guess
    against its own outgoing message, aborts on mismatch, and otherwise
    answers using the guessed incoming message.  Computed by explicit
    enumeration over all 2^bits guesses; equals
    2^-bits * leaky_strategy_value(g, m, s) exactly.
    """
    s.check_shapes(g, m)
    # a guess pair (i, j) is played only by the x sending i and the y
    # sending j; every other question aborts under it
    xs = [[x for x, v in enumerate(s.alice_msg) if v == i]
          for i in range(m.msgs_ab)]
    ys = [[y for y, w in enumerate(s.bob_msg) if w == j]
          for j in range(m.msgs_ba)]
    total = sum(_accepted(g, lambda x, y, i=i, j=j: (s.alice_ans[x][j],
                                                     s.bob_ans[y][i]),
                          xs=xs[i], ys=ys[j])
                for i in range(m.msgs_ab) for j in range(m.msgs_ba))
    return total / (m.msgs_ab * m.msgs_ba)


def leaky_value_upper_bound(g, total_bits: int,
                            budget: int = DEFAULT_PAIR_BUDGET) -> Fraction:
    """min(1, 2^total_bits * classical value).

    Valid for arbitrary interactive protocols exchanging ``total_bits``
    bits: guessing the transcript turns any such protocol into a
    no-communication one at a 2^-total_bits probability cost.
    """
    check_range((total_bits,), math.inf, "total_bits")
    value, _ = classical_value(g, budget)
    if total_bits >= value.denominator.bit_length():  # 2^bits > denominator
        return Fraction(1) if value else value
    return min(Fraction(1), (1 << total_bits) * value)
