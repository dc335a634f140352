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
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError, check_budget
from .games import (DEFAULT_PAIR_BUDGET, StrategyPair, best_tables,
                    classical_value, gain_tensor)

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
        if self.bits_ab < 0 or self.bits_ba < 0:
            raise InvalidInputError("bit budgets must be non-negative")
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
        if any(v < 0 or v >= m.msgs_ab for v in self.alice_msg):
            raise InvalidInputError("alice message out of range")
        if any(v < 0 or v >= m.msgs_ba for v in self.bob_msg):
            raise InvalidInputError("bob message out of range")
        if m.kind is LeakageKind.ONE_WAY_AB and any(self.bob_msg):
            raise InvalidInputError("one-way-ab forces bob_msg constant 0")
        if m.kind is LeakageKind.ONE_WAY_BA and any(self.alice_msg):
            raise InvalidInputError("one-way-ba forces alice_msg constant 0")
        if (len(self.alice_ans) != g.x_size
                or any(len(row) != m.msgs_ba for row in self.alice_ans)):
            raise InvalidInputError("alice answer table shape mismatch")
        if (len(self.bob_ans) != g.y_size
                or any(len(row) != m.msgs_ab for row in self.bob_ans)):
            raise InvalidInputError("bob answer table shape mismatch")
        if any(a < 0 or a >= g.a_size for row in self.alice_ans for a in row):
            raise InvalidInputError("alice answer out of range")
        if any(b < 0 or b >= g.b_size for row in self.bob_ans for b in row):
            raise InvalidInputError("bob answer out of range")


def from_strategy_pair(s: StrategyPair) -> LeakyStrategy:
    """Embed a plain strategy pair as a zero-message leaky strategy."""
    return LeakyStrategy(
        alice_msg=tuple(0 for _ in s.alice),
        bob_msg=tuple(0 for _ in s.bob),
        alice_ans=tuple((a,) for a in s.alice),
        bob_ans=tuple((b,) for b in s.bob))


def leaky_strategy_value(g, m: LeakageModel, s: LeakyStrategy) -> Fraction:
    """Exact acceptance probability of one leaky strategy."""
    s.check_shapes(g, m)
    total = Fraction(0)
    for x in range(g.x_size):
        for y in range(g.y_size):
            w = g.weight(x, y)
            if not w:
                continue
            a = s.alice_ans[x][s.bob_msg[y]]
            b = s.bob_ans[y][s.alice_msg[x]]
            if g.wins(x, y, a, b):
                total += w
    return total


def _blocks(g, ab: bool) -> tuple[list[tuple[int, tuple, tuple]], int]:
    """Per subset (bitmask) of the sender's questions: the best weight on the
    block, alice's lex-smallest optimal answers (0 off the block) and bob's
    smallest best responses; plus the weights' denominator."""
    c, denom = gain_tensor(g)
    n = g.x_size if ab else g.y_size
    subsets = [[i for i in range(n) if mask >> i & 1] for mask in range(1 << n)]
    if not ab:  # one fold over alice's tables scores every subset of Y
        return best_tables(c, subsets), denom
    out = []
    for xs in subsets:
        num, alice, bob = best_tables(c[xs])[0]
        on_block = dict(zip(xs, alice))
        out.append((num, tuple(on_block.get(x, 0) for x in range(g.x_size)),
                    bob))
    return out, denom


def _best_partition(value: list[int], k: int) -> int:
    """Max over partitions of the full set into at most k blocks of the
    summed block values; ``value`` is indexed by bitmask."""
    best = value
    for _ in range(k - 1):
        prev, best = best, [0] * len(value)
        for s in range(1, len(value)):
            low, rest = s & -s, s & (s - 1)  # low's block is low | t
            t, best[s] = rest, value[s]
            while t:
                t = (t - 1) & rest
                best[s] = max(best[s], value[low | t] + prev[rest ^ t])
    return best[-1]


def _label_strings(n: int, k: int, prefix: tuple[int, ...] = ()):
    """Length-n strings over <= k labels, new blocks taking the next label."""
    if len(prefix) == n:
        yield prefix
    else:
        for label in range(min(max(prefix, default=-1) + 2, k)):
            yield from _label_strings(n, k, prefix + (label,))


def leaky_enumeration_size(g, m: LeakageModel) -> int:
    """Steps `leaky_value_exact` takes, checked against its budget.

    Simultaneous: message tables times alice answer tables.  One-way, with
    n sender questions and k = min(2^bits, n): subset tables ((A+1)^X for
    ab, A^X * 2^Y for ba) + 3^n * (k - 1) DP steps + message strings
    scanned + receiver answer cells.
    """
    if m.kind is LeakageKind.SIMULTANEOUS:
        return (m.msgs_ab ** g.x_size
                * m.msgs_ba ** g.y_size
                * g.a_size ** (g.x_size * m.msgs_ba))
    ab = m.kind is LeakageKind.ONE_WAY_AB
    n, msgs = (g.x_size, m.msgs_ab) if ab else (g.y_size, m.msgs_ba)
    k = min(msgs, n)
    strings = [1] + [0] * k  # strings[j]: label-string prefixes using j labels
    for _ in range(n):
        strings = [0] + [j * strings[j] + strings[j - 1]
                         for j in range(1, k + 1)]
    tables = ((g.a_size + 1) ** g.x_size if ab
              else g.a_size ** g.x_size << g.y_size)
    return (tables + 3 ** n * (k - 1) + sum(strings)
            + (g.y_size if ab else g.x_size) * msgs)


def _log2_enumeration_size(g, m: LeakageModel) -> float:
    """log2 of `leaky_enumeration_size`: exact for simultaneous, the subset
    tables alone (a lower bound) for one-way."""
    x, y, a, _ = g.float_sizes()
    if m.kind is LeakageKind.SIMULTANEOUS:
        return (x * m.bits_ab + y * m.bits_ba
                + x * m.msgs_ba * math.log2(a))
    if m.kind is LeakageKind.ONE_WAY_AB:
        return x * math.log2(a + 1)
    return x * math.log2(a) + y


def _one_way_exact(g, m: LeakageModel) -> tuple[Fraction, LeakyStrategy]:
    ab = m.kind is LeakageKind.ONE_WAY_AB
    n, msgs = (g.x_size, m.msgs_ab) if ab else (g.y_size, m.msgs_ba)
    k = min(msgs, n)
    blocks, denom = _blocks(g, ab)
    best = _best_partition([v for v, _, _ in blocks], k)

    def label_blocks(labels):
        return [blocks[sum(1 << i for i, v in enumerate(labels) if v == label)]
                for label in range(k)]

    labels = next(s for s in _label_strings(n, k)
                  if sum(v for v, _, _ in label_blocks(s)) == best)
    used = label_blocks(labels) + [blocks[0]] * (msgs - k)
    rows = [(a, b) if ab else (b, a) for _, a, b in used]  # sender, receiver
    sender = tuple((rows[v][0][i],) for i, v in enumerate(labels))
    receiver = tuple(zip(*(r for _, r in rows)))
    silent = (0,) * len(receiver)
    return Fraction(best, denom), (
        LeakyStrategy(labels, silent, sender, receiver) if ab
        else LeakyStrategy(silent, labels, receiver, sender))


def _rows(flat: tuple[int, ...], width: int) -> tuple[tuple[int, ...], ...]:
    return tuple(flat[i:i + width] for i in range(0, len(flat), width))


def leaky_value_exact(g, m: LeakageModel,
                      budget: int = DEFAULT_LEAKY_BUDGET
                      ) -> tuple[Fraction, LeakyStrategy]:
    """Exact optimum over deterministic leaky strategies for the model.

    The witness is the lexicographically smallest maximizer in field order
    (alice_msg, bob_msg, alice_ans, bob_ans); bob gives the smallest best
    response.  One-way: a fixed message table splits the sender's questions
    into at most 2^bits blocks, each its own classical game; a subset DP
    over partitions gives the value, and the first restricted-growth
    message string reaching it, with each block's lex-smallest optimal
    answers (0 for unused labels), the witness.  Simultaneous: each
    (alice_msg, bob_msg) pair, in lex order, leaves a classical game whose
    alice table is alice_ans flattened; :func:`best_tables` solves it.
    """
    check_budget(budget, "leaky-strategy enumeration",
                 lambda: _log2_enumeration_size(g, m),
                 lambda: leaky_enumeration_size(g, m))
    if m.kind is not LeakageKind.SIMULTANEOUS:
        return _one_way_exact(g, m)

    # Fixed message tables leave a classical game: alice answers
    # (x, bob's message), bob answers (y, alice's message).
    c, denom = gain_tensor(g)
    m1, m2 = m.msgs_ab, m.msgs_ba
    best_num, best = -1, None
    for alice_msg in itertools.product(range(m1), repeat=g.x_size):
        to_bob = np.equal.outer(alice_msg, range(m1))  # [x, bob hears]
        for bob_msg in itertools.product(range(m2), repeat=g.y_size):
            to_alice = np.equal.outer(range(m2), bob_msg)  # [alice hears, y]
            eff = (c[:, None, :, :, None, :]
                   * to_alice[None, :, None, :, None, None]
                   * to_bob[:, None, None, None, :, None])
            num, alice, bob = best_tables(eff.reshape(
                g.x_size * m2, g.a_size, g.y_size * m1, g.b_size))[0]
            if num > best_num:
                best_num = num
                best = LeakyStrategy(alice_msg, bob_msg,
                                     _rows(alice, m2), _rows(bob, m1))
    return Fraction(best_num, denom), best


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
    m1, m2 = m.msgs_ab, m.msgs_ba
    total = Fraction(0)
    for guess_ab in range(m1):
        for guess_ba in range(m2):
            for x in range(g.x_size):
                if s.alice_msg[x] != guess_ab:
                    continue  # alice aborts on every y
                for y in range(g.y_size):
                    if s.bob_msg[y] != guess_ba:
                        continue  # bob aborts
                    w = g.weight(x, y)
                    if not w:
                        continue
                    a = s.alice_ans[x][guess_ba]
                    b = s.bob_ans[y][guess_ab]
                    if g.wins(x, y, a, b):
                        total += w
    return total / (m1 * m2)


def leaky_value_upper_bound(g, total_bits: int,
                            budget: int = DEFAULT_PAIR_BUDGET) -> Fraction:
    """min(1, 2^total_bits * classical value).

    Valid for arbitrary interactive protocols exchanging ``total_bits``
    bits: guessing the transcript turns any such protocol into a
    no-communication one at a 2^-total_bits probability cost.
    """
    if total_bits < 0:
        raise InvalidInputError("total_bits must be non-negative")
    value, _ = classical_value(g, budget)
    return min(Fraction(1), (1 << total_bits) * value)
