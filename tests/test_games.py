"""Game representation, file format, and exact classical values."""

from __future__ import annotations

import dataclasses
import itertools
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import helpers
import oracles
from leakygames import games
from leakygames.errors import (BudgetExceededError, FormatError,
                               InvalidInputError)
from leakygames.games import (Game, StrategyPair, chsh, classical_value,
                              load_game, make_game, merged_prover_value,
                              save_game, strategy_value)
from leakygames.harness import instance_id
from leakygames.leakage import (leaky_value_exact, one_way_ab, one_way_ba,
                                simultaneous)

ALL_ONES = make_game("ones", 2, 2, 2, 2, [1, 1, 1, 1],
                     lambda *_: True)
ALL_ZEROS = make_game("zeros", 2, 2, 2, 2, [1, 1, 1, 1],
                      lambda *_: False)

CHSH_TEXT = """\
# CHSH fixture
game chsh 2 2 2 2
dist
1 1
1 1
pred
1001
1001
1001
0110
"""


def test_load_chsh_fixture():
    g = load_game(CHSH_TEXT)
    assert (g.x_size, g.y_size, g.a_size, g.b_size) == (2, 2, 2, 2)
    assert g.weight(0, 0) == Fraction(1, 4)
    assert g == chsh()


def test_loader_normalizes_integer_weights():
    # scaling every weight by a common factor changes nothing
    scaled = CHSH_TEXT.replace("1 1", "7 7")
    assert load_game(scaled) == chsh()


def test_int_weights_match_fraction_products():
    # the integer weights equal w * denom computed as Fractions, in int64
    # below 2^63 and as Python ints (object dtype) past it
    rng = random.Random(12)
    targets = []
    for _ in range(40):
        x, y = rng.randint(1, 4), rng.randint(1, 4)
        raw = [Fraction(rng.randint(0, 40), rng.randint(1, 40))
               for _ in range(x * y)]
        raw[rng.randrange(x * y)] += 1  # nonzero total
        dist = tuple(w / sum(raw) for w in raw)
        targets.append(Game("w", x, y, 1, 1, dist, (1,) * (x * y)))
    big = make_game("big", 1, 3, 1, 1, [1, 2**64, 3], lambda *_: True)
    assert big.int_weights()[1] > 2**63
    for g in targets + [big]:
        weights, denom = g.int_weights()
        assert weights.dtype == (object if denom >= 2**63 else "int64")
        assert weights.ravel().tolist() == [int(w * denom) for w in g.dist]


def test_games_keep_their_integer_weights():
    # int_weights reads the weights the game reduced when it was checked;
    # they live outside the fields, so eq, hash, repr, pickles and
    # dataclasses.replace behave as for the fields alone
    built = [make_game("made", 2, 3, 1, 1, [3, 0, 1, 4, 1, 5],
                       lambda *_: True),
             load_game(CHSH_TEXT),
             load_game("game scaled 1 3 1 1\ndist\n6 9 12\npred\n1\n0\n1\n"),
             load_game(f"game big 1 2 1 1\ndist\n{3 * 2**70} 6\npred\n1\n1\n"),
             Game("fracs", 1, 3, 1, 1,
                  (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
                  (1, 0, 1)),
             make_game("heavy", 1, 3, 1, 1, [2**64, 1, 3], lambda *_: True)]
    for g in built:
        weights, denom = g.int_weights()
        assert (weights.ravel().tolist(), denom) == \
            games._over_common_denominator(g.dist)
        replaced = dataclasses.replace(g)
        pickled = pickle.loads(pickle.dumps(g))
        for copy in (replaced, pickled):
            assert copy == g and hash(copy) == hash(g)
            assert repr(copy) == repr(g) and "_weights" not in repr(g)
            assert copy.int_weights()[1] == denom
            assert copy.int_weights()[0].tolist() == weights.tolist()
    assert built[-1].int_weights()[0].dtype == object


def test_load_zero_total_weight():
    text = CHSH_TEXT.replace("1 1", "0 0")
    with pytest.raises(FormatError, match="zero total weight"):
        load_game(text)


def test_load_trivial_game():
    g = load_game("game unit 1 1 1 1\ndist\n1\npred\n1\n")
    assert classical_value(g)[0] == 1


@pytest.mark.parametrize("mutation, message", [
    (lambda t: t.replace("game chsh 2", "game chsh x"), "sizes"),
    (lambda t: t.replace("1 1\n1 1", "1 1\n1"), "expected 4"),
    (lambda t: t.replace("1 1", "1 q", 1), "malformed weight"),
    (lambda t: t.replace("0110", "011"), "bits"),
    (lambda t: t.replace("pred\n", "pred\n1001\n"), "rows"),
    (lambda t: "", "empty"),
])
def test_loader_errors(mutation, message):
    with pytest.raises(FormatError, match=message):
        load_game(mutation(CHSH_TEXT))


@pytest.mark.parametrize("sizes", ["0 1 1 1", "1 1 1 0", "2 -1 2 2"])
def test_loader_rejects_empty_alphabets(sizes):
    with pytest.raises(FormatError, match=">= 1") as err:
        load_game(f"# header on line 2\ngame g {sizes}\ndist\npred\n")
    assert err.value.line_no == 2


def test_loader_reports_line_numbers():
    with pytest.raises(FormatError) as err:
        load_game("game g 1 1 1 1\ndist\nbogus\npred\n1\n")
    assert err.value.line_no == 3


def test_round_trip_random_games():
    rng = random.Random(7)
    for _ in range(25):
        g = helpers.random_game(rng)
        assert load_game(save_game(g)) == g


def test_strategy_value_chsh_constant_zero():
    # all four question pairs by hand: only (1,1) loses
    assert strategy_value(chsh(), StrategyPair((0, 0), (0, 0))) == \
        Fraction(3, 4)


def test_strategy_value_chsh_enumerated():
    # direct enumeration of the 4 cells: (0,1) is the only losing pair
    assert strategy_value(chsh(), StrategyPair((0, 0), (0, 1))) == \
        Fraction(3, 4)


def test_strategy_value_all_ones():
    rng = random.Random(1)
    for _ in range(5):
        s = StrategyPair((rng.randrange(2), rng.randrange(2)),
                         (rng.randrange(2), rng.randrange(2)))
        assert strategy_value(ALL_ONES, s) == 1


def test_strategy_value_shape_mismatch():
    with pytest.raises(Exception, match="shape"):
        strategy_value(chsh(), StrategyPair((0,), (0, 0)))


def test_classical_value_chsh():
    value, witness = classical_value(chsh())
    assert value == Fraction(3, 4)
    oracle_value, oracle_pair = oracles.naive_classical_value(chsh())
    assert value == oracle_value
    assert (witness.alice, witness.bob) == oracle_pair


def test_classical_value_trivial_predicates():
    assert classical_value(ALL_ONES)[0] == 1
    assert classical_value(ALL_ZEROS)[0] == 0


def test_classical_value_budget():
    g = make_game("big", 3, 3, 3, 3, [1] * 9, lambda *_: True)
    with pytest.raises(BudgetExceededError):
        classical_value(g, budget=10)


def test_classical_matches_naive_on_random_games():
    rng = random.Random(42)
    for _ in range(30):
        g = helpers.random_game(rng)
        pairs = g.a_size ** g.x_size * g.b_size ** g.y_size
        if pairs > 10**5:
            continue
        value, witness = classical_value(g)
        oracle_value, oracle_pair = oracles.naive_classical_value(g)
        assert value == oracle_value
        assert (witness.alice, witness.bob) == oracle_pair
        # the witness reproduces the value exactly
        assert strategy_value(g, witness) == value


def test_blocked_fold_matches_single_block(monkeypatch):
    # a tiny cap splits the questions into a scored suffix and a walk over
    # many prefixes; value and witness must not move.  A table takes at
    # least a byte a cell, so a cap of n bytes walks no fewer prefixes than
    # one of n cells
    rng = random.Random(3)
    cases = [helpers.random_game_exact(rng, 4, 3, 3, 2) for _ in range(6)]
    cases += [helpers.random_game(rng, 3, 3, 3, 3) for _ in range(6)]
    reference = [classical_value(g) for g in cases]
    for cap in (1, 40, 200):
        monkeypatch.setattr(games, "FOLD_BYTES", cap)
        for g, (value, witness) in zip(cases, reference):
            assert classical_value(g) == (value, witness)
            oracle_value, oracle_pair = oracles.naive_classical_value(g)
            assert value == oracle_value
            assert (witness.alice, witness.bob) == oracle_pair


def _fold_cases():
    """Gain tensors with A = 1, X = 1, Y = 4, a zero-weight x, and weights
    past 2^63 (object dtype)."""
    rng = random.Random(89)
    shapes = [(1, 2, 1, 2), (1, 3, 2, 2), (3, 2, 1, 2), (4, 2, 2, 2),
              (3, 3, 3, 2), (2, 1, 3, 3), (2, 4, 2, 2)]
    cases = [helpers.random_game_exact(rng, *shape) for shape in shapes]
    base = helpers.random_game_exact(rng, 3, 2, 2, 2)
    cases += [make_game("zero", 3, 2, 2, 2, [0, 0, 1, 2, 3, 1], base.wins),
              make_game("heavy", 3, 2, 2, 2, [2**64, 1, 2, 0, 3, 1],
                        base.wins)]
    tensors = [games.gain_tensor(g)[0] for g in cases]
    assert tensors[-1].dtype == object
    return tensors


def _assert_fold_reads(fold, tables):
    """A subset fold's (values, read) against per-subset (value, alice,
    bob) tables, every subset read in order and again in reverse."""
    values, read = fold
    assert values == [value for value, _, _ in tables]
    expected = [(alice, bob) for _, alice, bob in tables]
    assert [read(mask) for mask in range(len(tables))] == expected
    assert [read(mask) for mask in reversed(range(len(tables)))] == \
        expected[::-1]


@pytest.mark.parametrize("cells", [None, 1, 7, 40])
def test_x_subset_fold_matches_per_subset_folds(cells, monkeypatch):
    # one fold over the extended alphabet against one fold per subset, each
    # subset's read against that subset's tables
    cases = _fold_cases()
    expected = [oracles.per_subset_tables(c) for c in cases]
    if cells:
        monkeypatch.setattr(games, "FOLD_BYTES", cells)
    for c, tables in zip(cases, expected):
        _assert_fold_reads(games.best_values_per_x_subset(c), tables)


@pytest.mark.parametrize("cells", [None, 1, 7, 40])
@pytest.mark.parametrize("width", [1, 2])
def test_y_subset_fold_matches_naive_scan(width, cells, monkeypatch):
    # doubling sums against a per-subset scan of every alice table, each
    # subset's read against the scan's first table and bob's answers
    if cells:
        monkeypatch.setattr(games, "FOLD_BYTES", cells)
    for c in _fold_cases():
        if c.shape[2] % width == 0:
            _assert_fold_reads(games.best_values_per_y_subset(c, width),
                               oracles.naive_group_subset_tables(c, width))


@pytest.mark.parametrize("fold, shape, answers", [
    (games.best_values_per_x_subset, (11, 2, 2, 2), 3),  # A + 1 answers
    (lambda c: games.best_values_per_y_subset(c, 1), (16, 2, 2, 2), 2),
], ids=["x", "y"])
def test_subset_folds_past_the_default_cap(fold, shape, answers,
                                           monkeypatch):
    # at the default cap these folds walk prefix digits even at int8, reads
    # both reusing the last prefix's tables and rescoring; values and reads
    # must equal the same fold with every table in one block
    x_size, _, y_size, b_size = shape
    rng = random.Random(17)
    tensors = [games.gain_tensor(helpers.random_game_exact(rng, *shape))[0]
               for _ in range(3)]
    assert all(c.dtype == np.int8 for c in tensors)
    splits, unspied = [], games._fold

    def spied(c, cells):
        out = unspied(c, cells)
        splits.append(out[1])
        return out
    monkeypatch.setattr(games, "_fold", spied)
    walked = [fold(c) for c in tensors]
    assert min(splits) >= 1
    # every table in one block, at 8 bytes a cell
    monkeypatch.setattr(games, "FOLD_BYTES",
                        8 * y_size * b_size * answers ** x_size)
    for c, fold_walked in zip(tensors, walked):
        values, read = fold(c)
        _assert_fold_reads(fold_walked, [(value, *read(mask))
                                         for mask, value in enumerate(values)])
    assert splits[len(tensors):] == [0] * len(tensors)


@pytest.mark.parametrize("dtype", [np.int8, object])
@pytest.mark.parametrize("digits", [2, 3, 4])
@pytest.mark.parametrize("split", [0, 1, 2, 3])
def test_walk_yields_each_prefix_sum_in_lex_order(split, digits, dtype):
    # the running tables against a fresh sum per prefix; split 0 yields the
    # suffix table itself
    rng = np.random.default_rng(split * 10 + digits)
    c = rng.integers(0, 8, (split + 1, digits, 2, 3, 1)).astype(dtype)
    suffix = rng.integers(0, 8, (2, 3, 5)).astype(dtype)
    walked = games._walk(c, suffix, split)
    for (p, prefix, scores), (q, expected) in itertools.zip_longest(
            walked, enumerate(itertools.product(range(digits),
                                                repeat=split))):
        assert (p, prefix) == (q, expected)
        assert scores.dtype == dtype
        assert scores.tolist() == (suffix + sum(
            c[x, a] for x, a in enumerate(prefix))).tolist()
        assert (scores is suffix) == (split == 0)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   object])
def test_fold_blocks_fit_the_byte_cap(dtype):
    # a block holds at most 2^15 tables, one int64 index entry each in the
    # x fold, and 256 kB of scores; one more suffix question would pass one
    # of those bounds
    for shape in [(20, 2, 1, 1), (9, 3, 2, 2), (6, 4, 8, 8), (3, 5, 300, 1)]:
        x_size, a_size, y_size, b_size = shape
        _, split, suffix = games._fold(np.zeros(shape, dtype), y_size * b_size)
        tables = suffix.shape[-1]
        assert tables == a_size ** (x_size - split)
        assert tables <= 2**15 and suffix.nbytes <= games.FOLD_BYTES
        assert split == 0 or (tables * a_size > 2**15 or
                              suffix.nbytes * a_size > games.FOLD_BYTES)


# weight totals at each edge of the gain tensor's integer types
TYPE_EDGES = [(127, np.int8), (128, np.int16), (2**15 - 1, np.int16),
              (2**15, np.int32), (2**31 - 1, np.int32), (2**31, np.int64),
              (2**63 - 1, np.int64), (2**63, object)]


def _game_of_total(rng, total, x, y, a, b, predicate=None):
    """A game whose weights, one of them 1, sum to ``total``, which is then
    its denominator; random acceptance bits unless ``predicate`` is given."""
    weights = [1] + [rng.randrange(total // (x * y)) for _ in range(x * y - 2)]
    weights.append(total - sum(weights))
    rng.shuffle(weights)
    bits = [rng.randint(0, 1) for _ in range(x * y * a * b)]
    return make_game("edge", x, y, a, b, weights, predicate or (
        lambda xx, yy, aa, bb: bits[((xx * y + yy) * a + aa) * b + bb]))


@pytest.mark.parametrize("total, dtype", TYPE_EDGES,
                         ids=[str(total) for total, _ in TYPE_EDGES])
def test_gain_tensor_takes_the_narrowest_type(total, dtype):
    # int_weights stays int64 below 2^63; an all-accepting game's fold
    # totals reach the denominator itself, so every solve gives exactly 1
    g = _game_of_total(random.Random(total % 997), total, 3, 2, 2, 2,
                       lambda *_: True)
    c, denom = games.gain_tensor(g)
    assert denom == total and c.dtype == dtype
    assert g.int_weights()[0].dtype == (np.int64 if dtype != object
                                        else object)
    assert classical_value(g)[0] == 1
    for model in (one_way_ab(1), one_way_ba(1), simultaneous(1, 1)):
        assert leaky_value_exact(g, model)[0] == 1


@pytest.mark.parametrize("total, dtype", TYPE_EDGES,
                         ids=[str(total) for total, _ in TYPE_EDGES])
def test_folds_at_each_type_edge_match_the_oracles(total, dtype):
    # values and witnesses against full scans in Python integers
    rng = random.Random(total % 991)
    for _ in range(2):
        g = _game_of_total(rng, total, 3, 2, 2, 2)
        assert games.gain_tensor(g)[0].dtype == dtype
        value, witness = classical_value(g)
        assert (value, (witness.alice, witness.bob)) == \
            oracles.naive_classical_value(g)
        for model in (one_way_ab(1), one_way_ba(1)):
            assert leaky_value_exact(g, model) == \
                oracles.naive_leaky_value(g, model)
        small = _game_of_total(rng, total, 2, 2, 2, 2)
        assert leaky_value_exact(small, simultaneous(1, 1)) == \
            oracles.naive_leaky_value(small, simultaneous(1, 1))


def _tie_games():
    """Games where many answers tie, B in {3, 4}: x = 0 and the last y have
    zero weight, the last x accepts every answer pair and the rest accept
    mostly; the last game accepts everything."""
    rng = random.Random(131)
    cases = []
    for x, y, a, b in [(3, 3, 2, 3), (3, 2, 2, 4), (2, 4, 3, 3), (4, 3, 2, 4)]:
        weights = [0 if i < y or i % y == y - 1 else rng.randint(1, 2)
                   for i in range(x * y)]
        bits = [rng.random() < 0.7 for _ in range(x * y * a * b)]
        cases.append(make_game(
            "ties", x, y, a, b, weights,
            lambda xx, yy, aa, bb, x=x, y=y, a=a, b=b, bits=bits:
                xx == x - 1 or bits[((xx * y + yy) * a + aa) * b + bb]))
    cases.append(make_game("accept", 2, 3, 2, 4, [1] * 6, lambda *_: True))
    return cases


def _assert_tied_answers_are_zero(c, s):
    """Bob answers 0 to every (y, heard label) where all his answers score
    alike against alice's answers on the questions x sending that label;
    ``s`` is a LeakyStrategy."""
    x_size, _, _, b_size = c.shape
    for y, row in enumerate(s.bob_ans):
        for label, b in enumerate(row):
            scores = {sum(int(c[x, s.alice_ans[x][s.bob_msg[y]], y, bb])
                          for x in range(x_size) if s.alice_msg[x] == label)
                      for bb in range(b_size)}
            assert len(scores) > 1 or b == 0


@pytest.mark.parametrize("cells", [None, 1, 7, 40])
def test_folds_break_ties_to_the_first_answer(cells, monkeypatch):
    # the classical fold and the subset folds (values and reads) against
    # their oracles where most answers tie, and the leaky witnesses read
    # off the subset folds against the generic enumerator
    models = [(one_way_ab(1), simultaneous(1, 0)),
              (one_way_ab(2), simultaneous(2, 0)),
              (one_way_ba(1), simultaneous(0, 1)),
              (simultaneous(1, 1), simultaneous(1, 1))]
    cases = _tie_games()
    tensors = [games.gain_tensor(g)[0] for g in cases]
    expected = [(oracles.naive_classical_value(g),
                 oracles.per_subset_tables(c),
                 {width: oracles.naive_group_subset_tables(c, width)
                  for width in (1, 2) if c.shape[2] % width == 0},
                 [oracles.generic_simultaneous_value(g, generic)
                  for _, generic in models])
                for g, c in zip(cases, tensors)]
    if cells:
        monkeypatch.setattr(games, "FOLD_BYTES", cells)
    for g, c, (naive, x_tables, y_tables, leaky) in zip(cases, tensors,
                                                          expected):
        value, witness = classical_value(g)
        assert (value, (witness.alice, witness.bob)) == naive
        assert witness.alice[0] == witness.alice[-1] == 0
        _assert_tied_answers_are_zero(c, helpers.from_strategy_pair(witness))
        _assert_fold_reads(games.best_values_per_x_subset(c), x_tables)
        for width, tables in y_tables.items():
            _assert_fold_reads(games.best_values_per_y_subset(c, width),
                               tables)
        for (model, _), generic in zip(models, leaky):
            value, witness = leaky_value_exact(g, model)
            assert (value, witness) == generic
            assert set(witness.alice_ans[0] + witness.alice_ans[-1]) == {0}
            _assert_tied_answers_are_zero(c, witness)


def test_classical_fold_memory_is_bounded(monkeypatch):
    # the suffix score table is capped at FOLD_BYTES (256 kB); an 8x8x3x3
    # game scores 3^8 int8 tables of 24 cells in one block, and a 9x9x3x3
    # one walks 3 prefixes over 3^8 tables of 27 cells (172 kB)
    splits, fold = [], games._fold

    def spy(c, cells):
        folded = fold(c, cells)
        splits.append(folded[1])
        return folded

    monkeypatch.setattr(games, "_fold", spy)
    for x_size, walks in ((8, False), (9, True)):
        g = helpers.random_game_exact(random.Random(5), x_size, x_size, 3, 3)
        tracemalloc.start()
        try:
            classical_value(g, budget=3**18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 2**20
        assert (splits.pop() >= 1) == walks


def test_unsplit_fold_scores_the_suffix_in_place(monkeypatch):
    # an 8x8x3x3 int8 game folds in one block (split 0): its only prefix,
    # the empty one, reads the suffix score table itself, not a copy
    folds, fold = [], games._fold
    monkeypatch.setattr(games, "_fold",
                        lambda c, cells: folds.append(fold(c, cells))
                        or folds[-1])
    g = helpers.random_game_exact(random.Random(5), 8, 8, 3, 3)
    tracemalloc.start()
    try:
        classical_value(g, budget=3**18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (c, split, suffix), = folds
    assert c.dtype == np.int8 and split == 0
    assert peak < 2 * suffix.nbytes  # 157 kB: the table and its copy took 2.4x


def test_value_ordering_invariants():
    rng = random.Random(9)
    for _ in range(30):
        g = helpers.random_game(rng)
        value, _ = classical_value(g)
        merged = merged_prover_value(g)
        assert 0 <= value <= merged <= 1


def test_merged_prover_chsh():
    assert merged_prover_value(chsh()) == 1
    assert merged_prover_value(ALL_ZEROS) == 0


def test_answer_relabeling_leaves_value_unchanged():
    rng = random.Random(17)
    for _ in range(15):
        g = helpers.random_game(rng, 2, 2, 3, 3)
        perm_a = list(range(g.a_size))
        perm_b = list(range(g.b_size))
        rng.shuffle(perm_a)
        rng.shuffle(perm_b)
        relabeled = make_game(
            g.name, g.x_size, g.y_size, g.a_size, g.b_size,
            [1] * (g.x_size * g.y_size),
            lambda x, y, a, b: g.wins(x, y, perm_a[a], perm_b[b]))
        # put the original distribution back (make_game normalized uniform)
        relabeled = Game(g.name, g.x_size, g.y_size, g.a_size, g.b_size,
                         g.dist, relabeled.pred)
        assert classical_value(relabeled)[0] == classical_value(g)[0]


def test_zero_weight_questions_are_valid():
    # x = 1 is never asked; the game is still well-formed and solvable
    g = make_game("sparse", 2, 1, 2, 2, [1, 0],
                  lambda x, y, a, b: a == b)
    value, witness = classical_value(g)
    assert value == 1
    assert merged_prover_value(g) == 1


def reference_save_game(g: Game) -> str:
    """The file format written with Fraction arithmetic, bit by bit."""
    denom = math.lcm(*(w.denominator for w in g.dist))
    out = [f"game {g.name} {g.x_size} {g.y_size} {g.a_size} {g.b_size}",
           "dist"]
    for x in range(g.x_size):
        out.append(" ".join(str(int(g.weight(x, y) * denom))
                            for y in range(g.y_size)))
    out.append("pred")
    for x in range(g.x_size):
        for y in range(g.y_size):
            out.append("".join(str(int(g.wins(x, y, a, b)))
                               for a in range(g.a_size)
                               for b in range(g.b_size)))
    return "\n".join(out) + "\n"


def test_save_matches_the_fraction_formatter():
    # integer rows from int_weights and one joined bit string, past int64
    rng = random.Random(19)
    for i in range(150):
        sizes = [rng.randint(1, 4) for _ in range(4)]
        top = rng.choice([3, 2**70, 7**30])
        weights = [rng.randrange(top) for _ in range(sizes[0] * sizes[1])]
        weights[rng.randrange(len(weights))] += 1
        bits = [rng.randrange(2) for _ in range(math.prod(sizes))]
        g = make_game(f"g{i}", *sizes, weights,
                      lambda x, y, a, b, s=sizes: bits[
                          ((x * s[1] + y) * s[2] + a) * s[3] + b])
        assert save_game(g) == reference_save_game(g)


@pytest.mark.parametrize("dist, message", [
    ((0.25, 0.25, 0.25, 0.25), "rationals"),
    (("1/4",) * 4, "rationals"),
    ((Fraction(1, 2), Fraction(-1, 4), Fraction(1, 2), Fraction(1, 4)),
     "negative"),
    ((Fraction(2**70), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
     "sum to exactly 1"),
    ((Fraction(1, 3),) * 4, "sum to exactly 1"),
])
def test_game_weights_are_checked_as_integers(dist, message):
    with pytest.raises(InvalidInputError, match=message):
        Game("g", 2, 2, 2, 2, dist, chsh().pred)


@pytest.mark.parametrize("sizes, dist, pred, message", [
    ((0, 2, 2, 2), (), (), "x_size out of range"),
    ((2, 2, 2, -1), (Fraction(1, 4),) * 4, (), "b_size out of range"),
    # both were taken as a game of size 1
    ((1.0, 1, 1, 1), (Fraction(1),), (1,), "x_size out of range"),
    ((True, 1, 1, 1), (Fraction(1),), (1,), "x_size out of range"),
    ((2, 2, 2, 2), (Fraction(1, 3),) * 3, (0,) * 16, "dist has 3 entries"),
    ((2, 2, 2, 2), (Fraction(1, 4),) * 4, (0,) * 15, "pred has 15 entries"),
    ((2, 2, 2, 2), (Fraction(1, 4),) * 4, (0,) * 15 + (2,), "0 or 1"),
    ((1, 1, 1, 2), (Fraction(1),), (1, -1), "0 or 1"),
], ids=["x-size-0", "b-size-negative", "x-size-float", "x-size-bool",
        "short-dist", "short-pred", "pred-2", "pred-negative"])
def test_game_refuses_bad_shapes(sizes, dist, pred, message):
    with pytest.raises(InvalidInputError, match=message):
        Game("g", *sizes, dist, pred)


@pytest.mark.parametrize("weights", [[0, 0, 0, 0], [1, -1, 0, 0],
                                     [1, -2, 0, 0]])
def test_make_game_refuses_a_total_weight_below_one(weights):
    with pytest.raises(InvalidInputError, match="zero total weight"):
        make_game("g", 2, 2, 2, 2, weights, lambda *_: True)


def test_make_game_takes_fraction_weights():
    # Fraction weights, alone or mixed with ints, scale to the integer game,
    # and numpy integers become Python ints before their total is taken
    def pred(x, y, a, b):
        return (a ^ b) == (x & y)

    ints = make_game("g", 2, 2, 2, 2, [1, 2, 3, 6], pred)
    for weights in ([Fraction(1, 12), Fraction(1, 6), Fraction(1, 4),
                     Fraction(1, 2)],
                    [Fraction(1, 3), Fraction(2, 3), 1, 2],
                    [Fraction(2), 4, Fraction(6), 12],
                    [np.int64(1), 2, Fraction(3), 6],
                    [np.int64(2**61), np.int64(2**62), 3 * 2**61,
                     np.uint64(6 * 2**61)]):
        g = make_game("g", 2, 2, 2, 2, weights, pred)
        assert g == ints and hash(g) == hash(ints)
        assert g.int_weights()[0].tolist() == [[1, 2], [3, 6]]
        assert g.int_weights()[1] == 12
        assert save_game(g) == save_game(ints)


@pytest.mark.parametrize("weights", [
    [0.5, 0.5], [1, 0.0], [True, True], [1, False], ["1", "1"], [1, None],
    [1, 1j]], ids=["floats", "float-zero", "bools", "bool-zero", "strs",
                   "none", "complex"])
def test_make_game_refuses_weights_that_are_not_rational(weights):
    with pytest.raises(InvalidInputError, match="ints or Fractions") as info:
        make_game("g", 1, 2, 1, 1, weights, lambda *_: True)
    assert info.type is InvalidInputError


def test_make_game_matches_games_built_from_fractions():
    # the integer-weight builder against Fractions over the total, with
    # zero, negative (refused alike) and 2^70 weights
    rng = random.Random(41)
    built = refused = 0
    for i in range(300):
        sizes = [rng.randint(1, 3) for _ in range(4)]
        x, y, a, b = sizes
        weights = [rng.choice([0, 1, 2, 3, 6, 2**70, 3 * 2**70, -1])
                   for _ in range(x * y)]
        weights[rng.randrange(x * y)] += 2**70 if i % 2 else 1
        bits = [rng.randrange(2) for _ in range(x * y * a * b)]
        total = sum(weights)
        if total <= 0:
            continue
        dist = tuple(Fraction(w, total) for w in weights)

        def pred(xx, yy, aa, bb):
            return bits[((xx * y + yy) * a + aa) * b + bb]

        if min(weights) < 0:
            for build in (lambda: make_game("g", *sizes, weights, pred),
                          lambda: Game("g", *sizes, dist, tuple(bits))):
                with pytest.raises(InvalidInputError, match="negative"):
                    build()
            refused += 1
            continue
        made = make_game(f"g{i}", *sizes, weights, pred)
        plain = Game(f"g{i}", *sizes, dist, tuple(bits))
        assert made == plain and hash(made) == hash(plain)
        (mw, md), (pw, pd) = made.int_weights(), plain.int_weights()
        assert mw.tolist() == pw.tolist() and mw.dtype == pw.dtype
        assert md == pd
        assert instance_id(made) == instance_id(plain)
        loaded = load_game(save_game(made))
        assert loaded == made and loaded.int_weights()[1] == md
        built += 1
    assert built > 100 and refused > 50


def test_save_rejects_bad_names():
    g = chsh()
    bad = Game("two words", 2, 2, 2, 2, g.dist, g.pred)
    with pytest.raises(Exception, match="name"):
        save_game(bad)


# -- property tests ----------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def small_games(draw):
    x = draw(st.integers(1, 2))
    y = draw(st.integers(1, 2))
    a = draw(st.integers(1, 3))
    b = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(0, 4), min_size=x * y,
                            max_size=x * y).filter(lambda ws: sum(ws) > 0))
    bits = draw(st.lists(st.integers(0, 1), min_size=x * y * a * b,
                         max_size=x * y * a * b))
    return make_game("prop", x, y, a, b, weights,
                     lambda xx, yy, aa, bb: bits[((xx * y + yy) * a + aa) * b
                                                 + bb])


@settings(max_examples=40, deadline=None)
@given(small_games())
def test_prop_round_trip(g):
    assert load_game(save_game(g)) == g


@settings(max_examples=40, deadline=None)
@given(small_games())
def test_prop_value_bounds_and_witness(g):
    value, witness = classical_value(g)
    assert 0 <= value <= merged_prover_value(g) <= 1
    assert strategy_value(g, witness) == value


@settings(max_examples=25, deadline=None)
@given(small_games(), st.permutations(range(3)))
def test_prop_answer_relabeling(g, perm):
    if g.a_size != 3:
        return
    relabeled = Game(g.name, g.x_size, g.y_size, g.a_size, g.b_size, g.dist,
                     tuple(g.pred[((x * g.y_size + y) * g.a_size + perm[a])
                                  * g.b_size + b]
                           for x in range(g.x_size)
                           for y in range(g.y_size)
                           for a in range(g.a_size)
                           for b in range(g.b_size)))
    assert classical_value(relabeled)[0] == classical_value(g)[0]
