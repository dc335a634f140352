"""Implicit product games, repetition values and leaky repetition."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

import helpers
import oracles
from leakygames import games, repetition
from leakygames.errors import BudgetExceededError, InvalidInputError
from leakygames.games import (StrategyPair, chsh, classical_value, make_game,
                              strategy_value)
from leakygames.harness import behaviors_from_strategy_pair, run_session
from leakygames.leakage import (LeakyStrategy, leaky_strategy_value,
                                leaky_value_exact, leaky_value_upper_bound,
                                one_way_ab, one_way_ba)
from leakygames.repetition import (leaky_repetition_experiment, repeat_game,
                                   repeated_exact_value)

ONES = make_game("ones", 2, 2, 2, 2, [1, 1, 1, 1], lambda *_: True)
ZEROS = make_game("zeros", 2, 2, 2, 2, [1, 1, 1, 1], lambda *_: False)


def test_single_copy_is_value_equivalent():
    rng = random.Random(2)
    for _ in range(8):
        g = helpers.random_game(rng, 2, 2, 2, 2)
        rg = repeat_game(g, 1)
        assert repeated_exact_value(rg)[0] == classical_value(g)[0]


def test_chsh_two_copies_exact():
    rg = repeat_game(chsh(), 2)
    value, witness = repeated_exact_value(rg)
    assert value == Fraction(10, 16)
    # independent full-pair scan on the materialized product
    oracle_value, oracle_pair = oracles.naive_classical_value(
        oracles.materialize(rg))
    assert value == oracle_value
    assert (witness.alice, witness.bob) == oracle_pair


def test_chsh_three_copies_exact():
    # 8x8x8x8 past the default pair budget; its int8 tables fold in 8^4
    # prefixes of 8^4 tables each, well under a second
    rg = repeat_game(chsh(), 3)
    with pytest.raises(BudgetExceededError):
        repeated_exact_value(rg)
    value, witness = repeated_exact_value(rg, budget=2**48)
    assert value == Fraction(31, 64)
    assert witness == StrategyPair((0, 0, 0, 0, 0, 1, 2, 4),
                                   (0, 0, 0, 0, 0, 1, 2, 4))
    assert strategy_value(rg, witness) == value


def test_trivial_predicates_repeat():
    assert repeated_exact_value(repeat_game(ONES, 2))[0] == 1
    assert repeated_exact_value(repeat_game(ZEROS, 2))[0] == 0


def test_implicit_matches_materialized():
    rng = random.Random(13)
    for _ in range(6):
        g = helpers.random_game(rng, 2, 2, 2, 2)
        rg = repeat_game(g, 2)
        mat = oracles.materialize(rg)
        (w1, d1), (w2, d2) = rg.int_weights(), mat.int_weights()
        assert (w1 == w2).all() and d1 == d2
        assert (rg.win_rows() == mat.win_rows()).all()
        for _ in range(5):
            pair = StrategyPair(
                tuple(rng.randrange(rg.a_size) for _ in range(rg.x_size)),
                tuple(rng.randrange(rg.b_size) for _ in range(rg.y_size)))
            assert strategy_value(rg, pair) == strategy_value(mat, pair)
        assert repeated_exact_value(rg) == classical_value(mat)


def test_sandwich_on_random_games():
    rng = random.Random(29)
    checked = 0
    while checked < 8:
        g = helpers.random_game(rng, 2, 2, 2, 2)
        base, _ = classical_value(g)
        rep, _ = repeated_exact_value(repeat_game(g, 2))
        assert base ** 2 <= rep <= base
        checked += 1


def test_value_non_increasing_in_copies():
    rng = random.Random(53)
    for _ in range(5):
        g = helpers.random_game(rng, 2, 2, 2, 2)
        v1 = repeated_exact_value(repeat_game(g, 1))[0]
        v2 = repeated_exact_value(repeat_game(g, 2))[0]
        assert v2 <= v1


def test_budget_guard():
    rg = repeat_game(chsh(), 3)  # 4^8 x 4^8 pairs, over the default budget
    with pytest.raises(BudgetExceededError):
        repeated_exact_value(rg, budget=10**8)


def test_size_guards_build_no_sizes(monkeypatch):
    # float sizes agree with the integer ones; the guards read only them,
    # so a billion copies are refused without building 2^(10^9)
    g = helpers.random_game_exact(random.Random(4), 2, 3, 2, 3)
    for copies in (1, 2, 3):
        rg = repeat_game(g, copies)
        assert rg.float_sizes() == (float(rg.x_size), float(rg.y_size),
                                    float(rg.a_size), float(rg.b_size))
    for name in ("x_size", "y_size", "a_size", "b_size"):
        monkeypatch.setattr(repetition.RepeatedGame, name, property(
            lambda _: pytest.fail("guard built a size")))
    huge = repeat_game(chsh(), 10**9)
    with pytest.raises(BudgetExceededError):
        classical_value(huge)
    with pytest.raises(BudgetExceededError, match="weight table"):
        huge.int_weights()
    with pytest.raises(BudgetExceededError, match="win table"):
        huge.win_rows()
    behaviors = behaviors_from_strategy_pair(classical_value(chsh())[1])
    with pytest.raises(BudgetExceededError, match="weight table"):
        run_session(huge, behaviors, one_way_ab(0), 0)
    # the leaky solve and the product's classical value are both refused,
    # so the experiment falls back to 2^bits times the base value
    result = leaky_repetition_experiment(chsh(), 10**9, one_way_ab(1))
    assert not result.exact and result.value == 1


def test_repeated_sizes_kept():
    # each size is built on its first read only, and kept out of eq, hash
    # and repr
    rg, twin = repeat_game(chsh(), 3), repeat_game(chsh(), 3)
    sizes = (rg.x_size, rg.y_size, rg.a_size, rg.b_size)
    assert sizes == (8, 8, 8, 8)
    assert [vars(rg)[n] for n in ("x_size", "y_size", "a_size", "b_size")
            ] == list(sizes)
    assert (rg == twin and hash(rg) == hash(twin)
            and repr(rg) == repr(twin))


def _digit_weight(rg, xs, ys):
    """The product of the base game's weights over the copies' digits."""
    return math.prod(rg.base.weight(x, y) for x, y in zip(xs, ys))


def test_repeated_weight_is_the_product_over_copies():
    # every cell of a 3-copy repeat with weights 1, 2, 3, 5, 7, 11, then
    # sampled cells of CHSH^8; the first copy is the most significant digit
    base = make_game("w", 2, 3, 2, 2, [1, 2, 3, 5, 7, 11],
                     lambda x, y, a, b: a == b)
    rg = repeat_game(base, 3)
    for x, xs in enumerate(itertools.product(range(2), repeat=3)):
        for y, ys in enumerate(itertools.product(range(3), repeat=3)):
            assert rg.weight(x, y) == _digit_weight(rg, xs, ys)
    rg, rng = repeat_game(chsh(), 8), random.Random(8)
    for _ in range(500):
        xs, ys = ([rng.randrange(2) for _ in range(8)] for _ in range(2))
        x, y = (int("".join(map(str, d)), 2) for d in (xs, ys))
        assert rg.weight(x, y) == _digit_weight(rg, xs, ys) == \
            Fraction(1, 4**8)

def test_leaky_repetition_exact_chsh():
    result = leaky_repetition_experiment(chsh(), 2, one_way_ab(1))
    assert result.exact
    rep_value = repeated_exact_value(repeat_game(chsh(), 2))[0]
    assert rep_value <= result.value <= min(Fraction(1), 2 * rep_value)
    assert result.witness is not None


# True == 1 but is a flag, not a count; "2" once met `< 1` as a TypeError
@pytest.mark.parametrize("copies", [0, -1, True, 1.5, "2"])
def test_repeat_refuses_copies_below_one(copies):
    with pytest.raises(InvalidInputError, match="copies out of range"):
        repeat_game(chsh(), copies)


def test_leaky_repetition_delegations():
    g = chsh()
    # zero bits: the leaky optimum is the plain repeated value
    r0 = leaky_repetition_experiment(g, 2, one_way_ab(0))
    assert r0.exact and r0.value == Fraction(10, 16)
    # one copy: same as the direct leaky solve
    r1 = leaky_repetition_experiment(g, 1, one_way_ab(1))
    assert r1.exact and r1.value == 1


def test_leaky_repetition_fallback_bound(monkeypatch):
    # each prover must answer the other's question: val 1/2, val(G^2) 1/4,
    # so the product's bound 2 * 1/4 is below the base game's bound 1
    swap = make_game("swap", 2, 2, 2, 2, [1] * 4,
                     lambda x, y, a, b: a == y and b == x)
    exact = leaky_repetition_experiment(swap, 2, one_way_ab(1))
    assert exact.exact and exact.value == Fraction(1, 4)

    def refuse(*_):
        raise BudgetExceededError(None, 1, "leaky-strategy enumeration", 64)

    monkeypatch.setattr(repetition, "leaky_value_exact", refuse)
    result = leaky_repetition_experiment(swap, 2, one_way_ab(1))
    assert not result.exact
    assert result.witness is None
    assert result.value == Fraction(1, 2)
    assert exact.value <= result.value


def test_leaky_repetition_falls_back_to_the_base_bound():
    # CHSH^3 under one bit: the leaky enumeration (about 2^25 strategies)
    # and the product's classical solve (2^48 pairs) are both refused from
    # their log2, so the bound is the base game's, min(1, 2 * 3/4)
    result = leaky_repetition_experiment(chsh(), 3, one_way_ab(1))
    assert not result.exact
    assert result.witness is None
    assert result.value == leaky_value_upper_bound(chsh(), 1) == 1


def test_win_rows_match_direct_predicate():
    # the dense tables against the implicit per-coordinate reference, for
    # plain games and 1-3 copies; random_game_exact draws zero weights
    rng = random.Random(59)
    shapes = ((2, 2, 2, 2), (2, 3, 3, 2), (3, 1, 1, 2), (2, 2, 3, 2))
    for g in (chsh(), *(helpers.random_game_exact(rng, *s) for s in shapes)):
        for target in (g, *(repeat_game(g, n) for n in (1, 2, 3))):
            wins = target.win_rows()
            assert wins.dtype == bool
            assert wins.tolist() == [
                [[[target.wins(x, y, a, b) for b in range(target.b_size)]
                  for a in range(target.a_size)]
                 for y in range(target.y_size)]
                for x in range(target.x_size)]
            weights, denom = target.int_weights()
            assert [[Fraction(w, denom) for w in row]
                    for row in weights.tolist()] == [
                [target.weight(x, y) for y in range(target.y_size)]
                for x in range(target.x_size)]


def test_leaky_exact_on_implicit_product():
    rg = repeat_game(chsh(), 2)
    implicit = leaky_value_exact(rg, one_way_ab(1), budget=10**7)
    explicit = leaky_value_exact(oracles.materialize(rg), one_way_ab(1),
                                 budget=10**7)
    assert implicit == explicit


# CHSH^3's one-bit one-way witnesses: the lex-smallest maximizers, 5/8
CHSH3_ONE_WAY = [
    (one_way_ab(1), LeakyStrategy(
        alice_msg=(0, 0, 0, 0, 1, 1, 1, 1), bob_msg=(0,) * 8,
        alice_ans=((0,), (0,), (0,), (1,), (0,), (0,), (0,), (1,)),
        bob_ans=((0, 0), (0, 0), (0, 0), (2, 2), (0, 4), (0, 4), (0, 4),
                 (2, 6)))),
    (one_way_ba(1), LeakyStrategy(
        alice_msg=(0,) * 8, bob_msg=(0, 0, 0, 0, 1, 1, 1, 1),
        alice_ans=((0, 0), (0, 0), (0, 0), (1, 1), (0, 4), (0, 4), (0, 4),
                   (1, 5)),
        bob_ans=((0,), (0,), (0,), (2,), (0,), (0,), (0,), (2,)))),
]


@pytest.mark.parametrize("model, witness", CHSH3_ONE_WAY,
                         ids=["one-way-ab", "one-way-ba"])
def test_chsh3_one_way_values_walk_prefixes(model, witness, monkeypatch):
    # one leaked bit either way lifts CHSH^3 from 31/64 to 5/8; its subset
    # folds pass the byte cap even in int8, so they walk prefix digits
    splits, fold = [], games._fold
    monkeypatch.setattr(games, "_fold", lambda c, cells: splits.append(
        fold(c, cells)) or splits[-1])
    rg = repeat_game(chsh(), 3)
    assert leaky_value_exact(rg, model, budget=2**33) == (Fraction(5, 8),
                                                          witness)
    assert max(split for _, split, _ in splits) >= 1
    assert leaky_strategy_value(rg, model, witness) == Fraction(5, 8)


@pytest.mark.parametrize("cap", [None, 4, 16])
def test_repeated_weights_past_int64(cap, monkeypatch):
    # the squared denominator (2^40 + 3)^2 passes 2^63, so the fold runs on
    # Python ints, 8 bytes a cell; small caps walk it in several prefix blocks
    if cap is not None:
        monkeypatch.setattr(games, "FOLD_BYTES", 8 * cap)
    base = helpers.random_game_exact(random.Random(61), 2, 1, 2, 2)
    rg = repeat_game(make_game("heavy", 2, 1, 2, 2, [2**40, 3], base.wins), 2)
    assert rg.int_weights()[1] >= 2**63
    value, witness = repeated_exact_value(rg)
    oracle_value, oracle_pair = oracles.naive_classical_value(
        oracles.materialize(rg))
    assert value == oracle_value
    assert (witness.alice, witness.bob) == oracle_pair


def test_materialize_and_table_guards():
    rg = repeat_game(chsh(), 2)
    with pytest.raises(BudgetExceededError):
        oracles.materialize(rg, max_cells=100)
    # degenerate wide-question product: strategy space is trivial but the
    # weight table itself is over budget
    wide = make_game("wide", 3, 3, 1, 1, [1] * 9, lambda *_: True)
    big = repeat_game(wide, 12)
    with pytest.raises(BudgetExceededError):
        big.int_weights()


def test_table_guards_name_run_fallback():
    wide = repeat_game(make_game("wide", 3, 3, 1, 1, [1] * 9,
                                 lambda *_: True), 12)
    for build in (wide.int_weights, wide.win_rows):
        with pytest.raises(BudgetExceededError) as err:
            build()
        assert err.value.fallback == "the Monte Carlo `run` harness"
        assert str(err.value).endswith(
            "; fall back to the Monte Carlo `run` harness")


def test_win_table_guard_counts_answers_before_building(monkeypatch):
    # X*Y*A = 1 cell, but X*Y*A*B = 16^6 cells pass the cap: the guard must
    # count bob's answers too, and raise before the outer products run
    def refuse(*_args):
        raise AssertionError("table built past the guard")

    monkeypatch.setattr(repetition, "_outer_power", refuse)
    g = make_game("answers", 1, 1, 1, 16, [1], lambda *_: True)
    rg = repeat_game(g, 6)
    assert rg.b_size > repetition.DEFAULT_TABLE_CELLS
    with pytest.raises(BudgetExceededError, match="win table"):
        rg.win_rows()
