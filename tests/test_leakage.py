"""Leaky strategy evaluation, exact leaky optima, and the derandomizing
guess-and-abort transform."""

from __future__ import annotations

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import helpers
import oracles
from leakygames import games, leakage
from leakygames.csp import (CheatProfile, CspInstance, cheat_acceptance,
                            make_constraint, optimal_cheat)
from leakygames.errors import BudgetExceededError, InvalidInputError
from leakygames.games import (StrategyPair, chsh, classical_value, make_game,
                              merged_prover_value, strategy_value)
from leakygames.leakage import (LeakageKind, LeakageModel, LeakyStrategy,
                                guess_and_abort_value,
                                leaky_enumeration_size, leaky_strategy_value,
                                leaky_value_exact, leaky_value_upper_bound,
                                one_way_ab, one_way_ba, simultaneous)
from leakygames.repetition import repeat_game

ZEROS = make_game("zeros", 2, 2, 2, 2, [1, 1, 1, 1], lambda *_: False)

# the 1-bit forwarding strategy that wins CHSH: alice leaks x, bob answers
# the AND of the leaked bit with y, alice answers 0
CHSH_FORWARD = LeakyStrategy(
    alice_msg=(0, 1), bob_msg=(0, 0),
    alice_ans=((0,), (0,)),
    bob_ans=((0, 0), (0, 1)))


def test_model_validation():
    with pytest.raises(InvalidInputError):
        LeakageModel(LeakageKind.ONE_WAY_AB, bits_ab=1, bits_ba=1)
    with pytest.raises(InvalidInputError):
        LeakageModel(LeakageKind.ONE_WAY_BA, bits_ab=1)
    with pytest.raises(InvalidInputError):
        LeakageModel(LeakageKind.SIMULTANEOUS, bits_ab=16, bits_ba=16)
    assert one_way_ab(2).total_bits == 2
    assert simultaneous(1, 1).total_bits == 2


@pytest.mark.parametrize("kind, bits_ab, bits_ba", [
    ("one-way-ab", 0, 3), (None, 0, 0), (LeakageKind.ONE_WAY_AB, 1.5, 0),
    (LeakageKind.ONE_WAY_AB, None, 0), (LeakageKind.ONE_WAY_AB, True, 0),
    (LeakageKind.SIMULTANEOUS, 1, False)])
def test_model_refuses_unknown_kinds_and_non_integer_bits(kind, bits_ab,
                                                          bits_ba):
    # a kind given by its value would pass as no known direction, a
    # fractional budget would fail only inside the solve, and a bool is a
    # flag, not a bit count
    with pytest.raises(InvalidInputError):
        LeakageModel(kind, bits_ab, bits_ba)


def test_forwarding_strategy_wins_chsh():
    # all four question pairs satisfy a xor b == x and y
    assert leaky_strategy_value(chsh(), one_way_ab(1), CHSH_FORWARD) == 1


def test_zero_bits_reduces_to_strategy_value():
    rng = random.Random(5)
    model = one_way_ab(0)
    for _ in range(10):
        g = helpers.random_game(rng)
        pair = StrategyPair(
            tuple(rng.randrange(g.a_size) for _ in range(g.x_size)),
            tuple(rng.randrange(g.b_size) for _ in range(g.y_size)))
        embedded = helpers.from_strategy_pair(pair)
        assert leaky_strategy_value(g, model, embedded) == \
            strategy_value(g, pair)


def test_zero_predicate_any_leaky_strategy():
    for s in oracles.iter_leaky_strategies(ZEROS, one_way_ab(1)):
        assert leaky_strategy_value(ZEROS, one_way_ab(1), s) == 0
        break  # one is as good as all; full scan happens elsewhere


def test_exact_chsh_one_bit_each_direction():
    value, witness = leaky_value_exact(chsh(), one_way_ab(1))
    assert value == 1
    assert leaky_strategy_value(chsh(), one_way_ab(1), witness) == 1
    value_ba, witness_ba = leaky_value_exact(chsh(), one_way_ba(1))
    assert value_ba == 1
    # the mirrored forwarding witness: bob leaks y, alice answers x and y
    assert leaky_strategy_value(
        chsh(), one_way_ba(1),
        LeakyStrategy((0, 0), (0, 1), ((0, 0), (0, 1)),
                      ((0,), (0,)))) == 1


def test_exact_zero_bits_is_classical():
    rng = random.Random(11)
    for kind in (one_way_ab(0), one_way_ba(0), simultaneous(0, 0)):
        for _ in range(5):
            g = helpers.random_game(rng, 2, 2, 2, 2)
            assert leaky_value_exact(g, kind)[0] == classical_value(g)[0]


@pytest.mark.parametrize("model", [
    one_way_ab(1), one_way_ba(1), simultaneous(1, 1), one_way_ab(2),
])
def test_exact_matches_naive_oracle(model):
    rng = random.Random(23)
    for _ in range(6):
        g = helpers.random_game(rng, 2, 2, 2, 2)
        value, witness = leaky_value_exact(g, model)
        oracle_value, oracle_witness = oracles.naive_leaky_value(g, model)
        assert value == oracle_value
        assert witness == oracle_witness


def test_monotone_in_bits():
    rng = random.Random(31)
    for _ in range(8):
        g = helpers.random_game(rng, 2, 2, 2, 2)
        values = [leaky_value_exact(g, one_way_ab(bits))[0]
                  for bits in (0, 1, 2)]
        assert values[0] <= values[1] <= values[2]
        assert values[2] <= merged_prover_value(g)


def test_full_question_leak_matches_informed_bob():
    rng = random.Random(37)
    for _ in range(8):
        g = helpers.random_game(rng, 2, 2, 2, 2)
        bits = math.ceil(math.log2(g.x_size)) if g.x_size > 1 else 0
        value, _ = leaky_value_exact(g, one_way_ab(bits))
        assert value == oracles.informed_bob_value(g)


def test_guess_and_abort_identity_full_scan():
    g = chsh()
    model = one_way_ab(1)
    for s in oracles.iter_leaky_strategies(g, model):
        transformed = guess_and_abort_value(g, model, s)
        assert transformed == leaky_strategy_value(g, model, s) / 2


@pytest.mark.parametrize("model", [simultaneous(1, 1), one_way_ab(2)],
                         ids=["simultaneous-1-1", "one-way-ab-2"])
def test_guess_and_abort_identity_more_messages(model):
    # 4 x 4 guess pairs with both parties aborting, and four messages one
    # way; every CHSH strategy keeps exactly 2^-bits of its value
    g = chsh()
    for s in oracles.iter_leaky_strategies(g, model):
        assert guess_and_abort_value(g, model, s) == \
            leaky_strategy_value(g, model, s) / (1 << model.total_bits)


def test_guess_and_abort_examples():
    g = chsh()
    # winning 1-bit strategy halves exactly
    assert guess_and_abort_value(g, one_way_ab(1), CHSH_FORWARD) == \
        Fraction(1, 2)
    # zero bits: nothing to guess
    pair = helpers.from_strategy_pair(StrategyPair((0, 0), (0, 0)))
    assert guess_and_abort_value(g, one_way_ab(0), pair) == Fraction(3, 4)
    # zero-value strategies stay zero
    for s in oracles.iter_leaky_strategies(ZEROS, one_way_ab(1)):
        assert guess_and_abort_value(ZEROS, one_way_ab(1), s) == 0
        break


def test_guess_and_abort_two_directions():
    rng = random.Random(41)
    model = simultaneous(1, 1)
    for _ in range(4):
        g = helpers.random_game(rng, 2, 2, 2, 2)
        _, witness = leaky_value_exact(g, model)
        assert guess_and_abort_value(g, model, witness) == \
            leaky_strategy_value(g, model, witness) / 4


class _CountingGame:
    """A game that counts its ``weight`` and ``wins`` reads."""

    def __init__(self, g):
        self.g, self.reads = g, {"weight": 0, "wins": 0}

    def __getattr__(self, name):
        return getattr(self.g, name)

    def weight(self, x, y):
        self.reads["weight"] += 1
        return self.g.weight(x, y)

    def wins(self, x, y, a, b):
        self.reads["wins"] += 1
        return self.g.wins(x, y, a, b)


def test_guess_and_abort_reads_each_question_pair_once(monkeypatch):
    # a question pair is played only under the guess pair matching its own
    # messages; every other guess aborts it unread, its answers unasked
    played = []
    accepted = leakage._accepted
    monkeypatch.setattr(leakage, "_accepted", lambda g, answers, **kw:
                        accepted(g, lambda x, y: played.append((x, y))
                                 or answers(x, y), **kw))
    rng = random.Random(43)
    g = helpers.random_game_exact(rng, 4, 3, 2, 2)
    for model in (one_way_ab(3), one_way_ba(2), simultaneous(2, 1)):
        s = LeakyStrategy(
            tuple(rng.randrange(model.msgs_ab) for _ in range(4)),
            tuple(rng.randrange(model.msgs_ba) for _ in range(3)),
            tuple(tuple(rng.randrange(2) for _ in range(model.msgs_ba))
                  for _ in range(4)),
            tuple(tuple(rng.randrange(2) for _ in range(model.msgs_ab))
                  for _ in range(3)))
        value = leaky_strategy_value(g, model, s)
        spy, played[:] = _CountingGame(g), []
        assert guess_and_abort_value(spy, model, s) == \
            value / (1 << model.total_bits)
        assert max(spy.reads.values()) <= 4 * 3
        assert len(set(played)) == len(played) <= 4 * 3


def test_upper_bound():
    g = chsh()
    assert leaky_value_upper_bound(g, 1) == 1
    assert leaky_value_upper_bound(g, 0) == Fraction(3, 4)
    assert leaky_value_upper_bound(ZEROS, 5) == 0


def test_upper_bound_clamps_without_building_two_to_the_bits():
    # the clamp binds once 2^bits passes the value's denominator; at 10^7
    # bits 2^bits alone is 1.25 MB, so the traced peak shows it is not built
    rng = random.Random(47)
    games_ = [chsh(), ZEROS, make_game("heavy", 1, 2, 1, 1, [2**64, 1],
                                       lambda x, y, a, b: y == 0)]
    games_ += [helpers.random_game_exact(rng, 2, 2, 2, 2) for _ in range(6)]
    for g in games_:
        value = classical_value(g)[0]
        for bits in range(70):
            assert leaky_value_upper_bound(g, bits) == \
                min(Fraction(1), 2**bits * value)
        tracemalloc.start()
        try:
            huge = leaky_value_upper_bound(g, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert huge == min(Fraction(1), 2 * value) and peak < 2**20


@pytest.mark.parametrize("bits", [-1, 1.5, 2.0, "3", None, True])
def test_upper_bound_refuses_bad_bit_counts(bits):
    with pytest.raises(InvalidInputError, match="total_bits out of range"):
        leaky_value_upper_bound(chsh(), bits)


def test_exact_below_upper_bound():
    rng = random.Random(43)
    for _ in range(8):
        g = helpers.random_game(rng, 2, 2, 2, 2)
        for bits in (0, 1, 2):
            value, _ = leaky_value_exact(g, one_way_ab(bits))
            assert value <= leaky_value_upper_bound(g, bits)


def test_budget_guard():
    g = make_game("wide", 3, 3, 3, 3, [1] * 9, lambda *_: True)
    # 4^3 subset tables; k1 = 3 labels, so 3^3 * (3 - 2) + 2^3 = 35 DP
    # steps (one full submask layer, then the full set alone); 5 label
    # strings; 3 * 4 bob cells
    assert leaky_enumeration_size(g, one_way_ab(2)) == 64 + 35 + 5 + 12
    assert leaky_enumeration_size(g, one_way_ab(2)) > 100
    with pytest.raises(BudgetExceededError):
        leaky_value_exact(g, one_way_ab(2), budget=100)
    # simultaneous(L, 0) is one-way-ab
    assert leaky_enumeration_size(g, simultaneous(2, 0)) == 64 + 35 + 5 + 12


def test_simultaneous_budget_guard():
    g = make_game("wide", 3, 2, 3, 2, [1] * 6, lambda *_: True)
    # 4 alice strings over 2 labels, each scoring 3^3 tables x 2^2 subsets
    # with 3^2 * (2 - 2) + 2^2 = 4 DP steps (k2 = 2: the full set alone)
    # and 2 bob strings; 3 * 4 alice and 2 * 2 bob cells
    size = 4 * (27 * 4 + 4 + 2) + 12 + 4
    assert leaky_enumeration_size(g, simultaneous(1, 2)) == size
    # one-way-ba is the single, constant alice string
    assert leaky_enumeration_size(g, one_way_ba(2)) == \
        27 * 4 + 4 + 2 + 3 * 4 + 2
    assert leaky_value_exact(g, simultaneous(1, 2), budget=size)[0] == 1
    with pytest.raises(BudgetExceededError, match=f"needs {size} steps"):
        leaky_value_exact(g, simultaneous(1, 2), budget=size - 1)


def test_subset_fold_over_budget_is_refused_from_its_log2():
    # 26 questions with one answer: the fold would score (1+1)^26 subset
    # tables, 2^26 > 2^(bit_length(10^7) + 1).  The guard refuses it from
    # its log2, before anything is built
    g = make_game("one-label", 26, 1, 1, 2, [1] * 26, lambda *_: True)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as err:
        leaky_value_exact(g, one_way_ab(0))
    assert time.perf_counter() - start < 1
    assert err.value.required is None
    assert err.value.log2_required >= 26
    # 24 questions are near enough to be counted: 2^24 tables, no DP at
    # one label, one label string, 1 * 1 bob cell, still over 10^7
    g = make_game("one-label", 24, 1, 1, 2, [1] * 24, lambda *_: True)
    with pytest.raises(BudgetExceededError) as err:
        leaky_value_exact(g, one_way_ab(0))
    assert err.value.required == 2**24 + 1 + 1
    # one question fewer is admissible: the folds keep no witness per subset
    g = make_game("one-label", 23, 1, 1, 2, [1] * 23, lambda *_: True)
    assert leaky_enumeration_size(g, one_way_ab(0)) == 2**23 + 1 + 1
    assert leaky_enumeration_size(g, one_way_ab(0)) < \
        leakage.DEFAULT_LEAKY_BUDGET


def test_best_partition_matches_naive_partitions():
    # the doubling DP, whose last layer fills only the suffix sets, against
    # every set partition of each suffix; k = n lets every question have
    # its own block
    rng = random.Random(113)
    for n in range(1, 9):
        for b in range(4):
            k = min(2**b, n)
            for _ in range(3 if n < 7 else 1):
                value = [rng.randint(-4, 12) for _ in range(1 << n)]
                rest = leakage._best_partition(value, k)
                assert rest == [oracles.naive_best_partition(
                    [value[mask << i] for mask in range(1 << n - i)], n - i,
                    k) for i in range(n + 1)]


def test_label_strings_match_the_recursive_reference():
    # same strings, same lex order, as many as the budget counts
    for n in range(9):
        for k in range(1, 6):
            strings = list(leakage._label_strings(n, k))
            assert strings == list(oracles.label_strings(n, k))
            assert len(strings) == leakage._string_count(n, k)


def test_partition_walk_finds_the_first_best_string():
    # the pruned walk against every label string, on both folds' subset
    # values; zero weights and one-answer alphabets make ties common
    rng = random.Random(167)
    for _ in range(30):
        x, y = rng.randint(1, 9), rng.randint(1, 9)
        a, b = rng.choice((1, 2, 2, 3)) if x < 8 else 2, rng.choice((1, 2, 3))
        g = helpers.random_game_exact(rng, x, y, a, b)
        weights = [rng.choice((0, 0, 1, 2)) for _ in range(x * y)]
        weights[rng.randrange(x * y)] = 1
        c, _ = games.gain_tensor(make_game("ties", x, y, a, b, weights,
                                           g.wins))
        for values, n in ((games.best_values_per_x_subset(c)[0], x),
                          (games.best_values_per_y_subset(c, 1)[0], y)):
            for msgs in (1, 2, 4, 8):
                assert leakage._partition(values, n, msgs) == \
                    oracles.first_best_string(values, n, min(msgs, n))


@pytest.mark.parametrize("bits", [2, 3])
def test_partition_walk_prunes(bits, monkeypatch):
    # the suffix bound cuts the walk to a few prefixes per position where
    # 12 questions have 700,075 strings over 4 labels and 4,189,550 over 8
    calls, walk = [], leakage._label_strings

    def counted(n, k, keep):
        return walk(n, k, lambda i, masks: calls.append(i) or keep(i, masks))
    monkeypatch.setattr(leakage, "_label_strings", counted)
    g = helpers.random_game_exact(random.Random(0), 12, 2, 2, 2)
    leaky_value_exact(g, one_way_ab(bits))
    assert 12 <= len(calls) < 100


def test_core_on_the_verifier_tensor_matches_optimal_cheat():
    # the constraint-sampling verifier with one-way leakage from the
    # constraint prover is the core's one-way-ab game on verifier_tensor;
    # repeated scope variables only raise counts
    rng = random.Random(151)
    repeated = 0
    for _ in range(96):
        arity, num_vars = rng.randint(1, 3), rng.randint(1, 3)
        cons = [make_constraint(
            [rng.randrange(num_vars) for _ in range(arity)],
            [[rng.randrange(2) for _ in range(arity)]
             for _ in range(rng.randint(0, 3))])
            for _ in range(rng.randint(1, 4))]
        c = CspInstance(num_vars, 2, arity, tuple(cons))
        repeated += any(len(set(con.scope)) < arity for con in cons)
        gains, denom = oracles.verifier_tensor(c)
        for bits in range(3):
            num, _ = leakage._solve(gains, one_way_ab(bits))
            assert Fraction(num, denom) == optimal_cheat(c, bits)[0]
    assert repeated > 20


def _zero_row_game(rng, x, y, a, b):
    """Random game whose question x = 0 has weight 0 against every y."""
    g = helpers.random_game_exact(rng, x, y, a, b)
    weights = [0 if i < y else rng.randint(0, 3) for i in range(x * y)]
    if not sum(weights):
        weights[-1] = 1
    return make_game("zero-row", x, y, a, b, weights, g.wins)


@pytest.mark.parametrize("model", [
    one_way_ab(0), one_way_ab(1), one_way_ab(2), one_way_ba(1), one_way_ba(2),
])
def test_one_way_dp_matches_naive_oracle(model):
    # two or fewer sender questions under 2 bits leave labels unused
    rng = random.Random(47)
    for i in range(8):
        g = (_zero_row_game(rng, 2, 2, 2, 2) if i % 2
             else helpers.random_game(rng, 2, 2, 2, 2))
        assert leaky_value_exact(g, model) == \
            oracles.naive_leaky_value(g, model)


@pytest.mark.parametrize("shape, model, generic", [
    ((4, 4, 3, 3), one_way_ab(1), simultaneous(1, 0)),
    ((4, 4, 2, 2), one_way_ab(2), simultaneous(2, 0)),
    ((3, 3, 2, 3), one_way_ab(3), simultaneous(3, 0)),
    ((4, 4, 2, 2), one_way_ba(1), simultaneous(0, 1)),
    ((2, 3, 2, 2), one_way_ba(2), simultaneous(0, 2)),
])
def test_one_way_dp_matches_generic_enumerator(shape, model, generic):
    # simultaneous(L, 0) and simultaneous(0, L) are the same strategy space
    # with the same field order, solved by the generic enumerator
    rng = random.Random(53)
    for i in range(3):
        g = (_zero_row_game(rng, *shape) if i == 2
             else helpers.random_game_exact(rng, *shape))
        assert leaky_value_exact(g, model) == \
            oracles.generic_simultaneous_value(g, generic)


@pytest.mark.parametrize("model", [
    simultaneous(1, 0), simultaneous(0, 1), simultaneous(1, 1),
])
@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 2, 2, 2)])
def test_simultaneous_fold_matches_naive_oracle(shape, model):
    rng = random.Random(67)
    for i in range(3):
        g = (_zero_row_game(rng, *shape) if i == 2
             else helpers.random_game_exact(rng, *shape))
        assert leaky_value_exact(g, model) == \
            oracles.naive_leaky_value(g, model)


@pytest.mark.parametrize("shape, model", [
    *itertools.product(
        [(2, 2, 2, 2), (3, 2, 2, 2), (2, 3, 2, 3), (3, 3, 2, 3)],
        [simultaneous(1, 1), simultaneous(2, 1), simultaneous(1, 2),
         simultaneous(1, 0), simultaneous(0, 1)]),
    ((2, 2, 2, 2), simultaneous(2, 2)), ((2, 3, 2, 3), simultaneous(2, 2)),
])
def test_simultaneous_dp_matches_generic_enumerator(shape, model):
    # values and witnesses, with zero-weight rows in every third game; two
    # bits over two or three questions leave labels unused
    rng = random.Random(73)
    for i in range(3):
        g = (_zero_row_game(rng, *shape) if i == 2
             else helpers.random_game_exact(rng, *shape))
        assert leaky_value_exact(g, model) == \
            oracles.generic_simultaneous_value(g, model)


@pytest.mark.parametrize("model", [simultaneous(1, 1), simultaneous(2, 1)])
def test_simultaneous_ties_below_merged_keep_first_alice_string(model):
    # bob has one answer, so alice's message carries nothing and every
    # alice string ties; one bit about three y cannot win every target, so
    # the scan never meets the merged value and must keep the first string
    rng = random.Random(97)
    for _ in range(3):
        target = [rng.randrange(3) for _ in range(9)]
        g = make_game("target", 3, 3, 3, 1,
                      [rng.randint(1, 3) for _ in range(9)],
                      lambda x, y, a, _: a == target[x * 3 + y])
        value, witness = leaky_value_exact(g, model)
        assert value < merged_prover_value(g)
        assert witness.alice_msg == (0, 0, 0)
        assert (value, witness) == oracles.generic_simultaneous_value(g, model)


@pytest.mark.parametrize("cells", [1, 40])
@pytest.mark.parametrize("model", [simultaneous(1, 1), simultaneous(2, 1)])
def test_simultaneous_dp_blocks_match_generic_enumerator(model, cells,
                                                         monkeypatch):
    # a cap of n bytes walks no fewer prefixes than one of n cells
    monkeypatch.setattr(games, "FOLD_BYTES", cells)
    rng = random.Random(79)
    for i in range(3):
        g = (_zero_row_game(rng, 3, 2, 2, 2) if i % 2
             else helpers.random_game_exact(rng, 3, 2, 2, 2))
        assert leaky_value_exact(g, model) == \
            oracles.generic_simultaneous_value(g, model)


def test_simultaneous_dp_weights_past_int64():
    rng = random.Random(83)
    base = helpers.random_game_exact(rng, 3, 2, 2, 2)
    g = make_game("heavy", 3, 2, 2, 2, [2**64, 1, 2, 0, 3, 1], base.wins)
    for model in (simultaneous(1, 1), simultaneous(1, 2)):
        assert leaky_value_exact(g, model) == \
            oracles.generic_simultaneous_value(g, model)


@pytest.mark.parametrize("cells", [1, 40])
@pytest.mark.parametrize("model", [
    one_way_ab(1), one_way_ba(1), simultaneous(1, 0), one_way_ab(2),
    one_way_ba(2)])
def test_one_way_blocks_match_naive_oracle(model, cells, monkeypatch):
    # small fold caps walk alice's tables in several blocks (every table its
    # own block at 1), so the first strict maximum must carry across blocks;
    # two bits run on two questions, where the naive scan stays small and
    # labels go unused
    monkeypatch.setattr(games, "FOLD_BYTES", cells)
    shape = (2, 2, 2, 2) if model.total_bits == 2 else (4, 2, 2, 2)
    rng = random.Random(71)
    for i in range(4):
        g = (_zero_row_game(rng, *shape) if i % 2
             else helpers.random_game_exact(rng, *shape))
        assert leaky_value_exact(g, model) == \
            oracles.naive_leaky_value(g, model)


def test_one_way_ba_memory_is_bounded():
    # 3^13 alice tables: scoring them all at once peaked near 100 MB
    g = helpers.random_game_exact(random.Random(5), 13, 1, 3, 3)
    tracemalloc.start()
    try:
        value, _ = leaky_value_exact(g, one_way_ba(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert value == classical_value(g)[0]  # one y: the bit tells alice nothing


def test_one_way_ba_memory_is_bounded_with_wide_answers():
    # 2^12 subsets of Y share one alice table: gathering a [Y, B] score
    # slab per subset for bob's answers peaked near 76 MB here
    g = helpers.random_game_exact(random.Random(5), 1, 12, 1, 200)
    tracemalloc.start()
    try:
        value, _ = leaky_value_exact(g, one_way_ba(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert value == merged_prover_value(g)  # one x and one a: nothing hidden


def test_one_way_ab_memory_is_bounded():
    cases = [
        # the extended alphabet has 3^12 tables, 8.5 MB of int64 scores at
        # once; the fold scores them in blocks
        ((12, 1, 2, 2), 1, 5),
        # 2^16 subsets: a witness row per subset peaked near 47 MB
        ((16, 1, 1, 2), 0, 8),
    ]
    for shape, bits, mb in cases:
        g = helpers.random_game_exact(random.Random(5), *shape)
        tracemalloc.start()
        try:
            value, _ = leaky_value_exact(g, one_way_ab(bits))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mb * 2**20
        assert classical_value(g)[0] <= value <= merged_prover_value(g)


def test_one_way_dp_weights_past_int64():
    # a weight total of 2^64 + 10 cannot be summed in int64
    rng = random.Random(59)
    base = helpers.random_game_exact(rng, 3, 3, 2, 2)
    g = make_game("heavy", 3, 3, 2, 2, [2**64, 1, 2, 3, 0, 1, 0, 2, 1],
                  base.wins)
    for model, generic in ((one_way_ab(1), simultaneous(1, 0)),
                           (one_way_ba(1), simultaneous(0, 1))):
        assert leaky_value_exact(g, model) == \
            oracles.generic_simultaneous_value(g, generic)


def test_chsh_squared_two_bits():
    # two bits carry alice's whole question, so bob wins every round
    rg = repeat_game(chsh(), 2)
    value, witness = leaky_value_exact(rg, one_way_ab(2))
    assert value == 1 == merged_prover_value(rg)
    assert witness.alice_msg == (0, 1, 2, 3)
    assert leaky_strategy_value(rg, one_way_ab(2), witness) == 1


def _leaky(alice_msg=(0, 0), bob_msg=(0, 0), alice_ans=((0,), (0,)),
           bob_ans=((0, 0), (0, 0))):
    """A CHSH strategy under one_way_ab(1), one table replaced."""
    return LeakyStrategy(alice_msg, bob_msg, alice_ans, bob_ans)


SHAPES_CSP = CspInstance(3, 2, 2, (make_constraint((0, 1), [(0, 1)]),))
AB1, BA1 = one_way_ab(1), one_way_ba(1)
REFUSALS = [  # (check, message)
    (lambda: StrategyPair((0,), (0, 0)).check_shapes(chsh()),
     "strategy tables do not match game shape"),
    (lambda: StrategyPair((0, 0), (0, 0, 0)).check_shapes(chsh()),
     "strategy tables do not match game shape"),
    (lambda: StrategyPair((0, 2), (0, 0)).check_shapes(chsh()),
     "alice answer out of range"),
    (lambda: StrategyPair((0, 0), (-1, 0)).check_shapes(chsh()),
     "bob answer out of range"),
    (lambda: StrategyPair((0, 0), (1.0, 0)).check_shapes(chsh()),
     "bob answer out of range"),
    (lambda: _leaky(alice_msg=(0,)).check_shapes(chsh(), AB1),
     "message tables do not match game shape"),
    (lambda: _leaky(bob_msg=(0, 0, 0)).check_shapes(chsh(), AB1),
     "message tables do not match game shape"),
    (lambda: _leaky(alice_msg=(0, 2)).check_shapes(chsh(), AB1),
     "alice message out of range"),
    (lambda: _leaky(alice_msg=(-1, 0)).check_shapes(chsh(), AB1),
     "alice message out of range"),
    # the silent side has one message, so it can only send 0
    (lambda: _leaky(bob_msg=(1, 0)).check_shapes(chsh(), AB1),
     "bob message out of range"),
    (lambda: _leaky(bob_msg=(0.5, 0)).check_shapes(chsh(), AB1),
     "bob message out of range"),
    (lambda: _leaky(alice_msg=(0, 1), alice_ans=((0, 0), (0, 0)),
                    bob_ans=((0,), (0,))).check_shapes(chsh(), BA1),
     "alice message out of range"),
    (lambda: _leaky(alice_ans=((0,),)).check_shapes(chsh(), AB1),
     "alice answer table shape mismatch"),
    (lambda: _leaky(alice_ans=((0, 0), (0, 0))).check_shapes(chsh(), AB1),
     "alice answer table shape mismatch"),
    (lambda: _leaky(bob_ans=((0, 0),)).check_shapes(chsh(), AB1),
     "bob answer table shape mismatch"),
    (lambda: _leaky(bob_ans=((0,), (0,))).check_shapes(chsh(), AB1),
     "bob answer table shape mismatch"),
    (lambda: _leaky(alice_ans=((0,), (2,))).check_shapes(chsh(), AB1),
     "alice answer out of range"),
    (lambda: _leaky(bob_ans=((0, 0), (0, -1))).check_shapes(chsh(), AB1),
     "bob answer out of range"),
    (lambda: CheatProfile(((0, 1),)).check_shapes(SHAPES_CSP),
     "assignment length != num_vars"),
    (lambda: CheatProfile(((0, 1, 1), (0, 2, 1))).check_shapes(SHAPES_CSP),
     "assignment value out of range"),
    (lambda: CheatProfile(((0, -1, 1),)).check_shapes(SHAPES_CSP),
     "assignment value out of range"),
    # bools are flags, not indices, at every call of the range check
    (lambda: StrategyPair((True, 0), (0, 0)).check_shapes(chsh()),
     "alice answer out of range"),
    (lambda: _leaky(alice_msg=(0, True)).check_shapes(chsh(), AB1),
     "alice message out of range"),
    (lambda: _leaky(bob_ans=((0, 0), (False, 0))).check_shapes(chsh(), AB1),
     "bob answer out of range"),
    (lambda: CheatProfile(((0, True, 1),)).check_shapes(SHAPES_CSP),
     "assignment value out of range"),
    # equal to (0, 1, 1) as a tuple, so no dedupe by value may skip it
    (lambda: CheatProfile(((0, 1, 1), (0, True, 1))).check_shapes(SHAPES_CSP),
     "assignment value out of range"),
    (lambda: cheat_acceptance(SHAPES_CSP,
                              CheatProfile(((0, 1, 1), (0, True, 1)))),
     "assignment value out of range"),
]


@pytest.mark.parametrize("check, message", REFUSALS,
                         ids=[f"{i}-{m.replace(' ', '-')}"
                              for i, (_, m) in enumerate(REFUSALS)])
def test_check_shapes_refusals(check, message):
    with pytest.raises(InvalidInputError) as info:
        check()
    assert info.type is InvalidInputError and str(info.value) == message


def test_shape_checks_take_numpy_integers():
    # the range check refuses bools but still takes numpy's integer types
    one = np.int64(1)
    model = LeakageModel(LeakageKind.ONE_WAY_AB, one)
    assert model == one_way_ab(1) and model.msgs_ab == 2
    assert strategy_value(chsh(), StrategyPair((np.int8(0), one),
                                               (0, np.uint8(0)))) == \
        Fraction(3, 4)
    assert leaky_strategy_value(chsh(), AB1, _leaky(
        alice_msg=(0, one), bob_ans=((0, 0), (0, one)))) == 1
    CheatProfile(((0, one, np.int32(1)),)).check_shapes(SHAPES_CSP)


def test_strategy_shape_validation():
    with pytest.raises(InvalidInputError):
        leaky_strategy_value(chsh(), one_way_ab(1),
                             LeakyStrategy((0, 2), (0, 0), ((0,), (0,)),
                                           ((0, 0), (0, 0))))
    with pytest.raises(InvalidInputError):
        # bob talks in a one-way ab model
        leaky_strategy_value(chsh(), one_way_ab(1),
                             LeakyStrategy((0, 0), (1, 0), ((0,), (0,)),
                                           ((0, 0), (0, 0))))
