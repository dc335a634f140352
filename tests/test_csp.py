"""CSP values, label-cover conversions, verifier acceptance, and optimal
cheating under one-way leakage."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import pickle
import random
import tracemalloc
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import helpers
import oracles
from leakygames import csp
from leakygames.csp import (CheatProfile, Constraint, CspInstance, LabelCover,
                            best_response, cheat_acceptance, consistency_game,
                            csp_value_exact, csp_value_local_search,
                            edge_game, find_low_value_instance, load_instance,
                            make_constraint, optimal_cheat, save_csp,
                            save_label_cover)
from leakygames.errors import (BudgetExceededError, FormatError,
                               GeneratorCapError, InvalidInputError)
from leakygames.games import classical_value

NE = [(0, 1), (1, 0)]
TRIANGLE = CspInstance(3, 2, 2, tuple(
    make_constraint(s, NE) for s in [(0, 1), (1, 2), (2, 0)]))

# three left vertices mapping into one right vertex; two of the three
# projections agree, so the best right label satisfies exactly 2/3
STAR_LC = LabelCover(3, 1, 1, 2, ((0, 0), (1, 0), (2, 0)),
                     ((0,), (0,), (1,)))


def test_instance_validation():
    with pytest.raises(InvalidInputError):
        CspInstance(2, 2, 2, ())
    with pytest.raises(InvalidInputError):
        CspInstance(2, 2, 2, (Constraint((0, 5), ((0, 0),)),))
    with pytest.raises(InvalidInputError):
        CspInstance(2, 2, 2, (Constraint((0, 1), ((0, 0, 0),)),))
    with pytest.raises(InvalidInputError):
        # unsorted allowed tuples are rejected; make_constraint sorts
        CspInstance(2, 2, 2, (Constraint((0, 1), ((1, 0), (0, 1))),))


def test_value_single_ne_constraint():
    c = CspInstance(2, 2, 2, (make_constraint((0, 1), NE),))
    value, witness = csp_value_exact(c)
    assert value == 1
    assert witness == (0, 1)  # lexicographically smallest satisfier


def test_value_triangle():
    value, witness = csp_value_exact(TRIANGLE)
    assert value == Fraction(2, 3)
    oracle_value, oracle_witness = oracles.naive_csp_value(TRIANGLE)
    assert value == oracle_value
    assert witness == oracle_witness


def test_value_blocks_match_naive_oracle(monkeypatch):
    # tiny block caps split the assignments into many blocks; values and
    # lex-smallest witnesses must match the plain scan
    rng = random.Random(23)
    cases = [helpers.satisfiable_csp(rng, num_vars=5, alphabet=3,
                                     arity=k, num_constraints=7)[0]
             for k in (1, 2, 3)]
    cases += [CspInstance(4, 2, 3, tuple(make_constraint(
        (rng.randrange(4), rng.randrange(2), 1),
        rng.sample(list(itertools.product(range(2), repeat=3)),
                   rng.randrange(3))) for _ in range(6)))
        for _ in range(3)]
    for cap in (1, 7):
        monkeypatch.setattr(csp, "AGREEMENT_CELLS", cap)
        for c in cases:
            assert csp_value_exact(c) == oracles.naive_csp_value(c)


def _sweep_instance(rng, num_vars, alphabet, arity):
    """Up to 6 constraints with random (so often repeated) scope variables
    and allowed sets of 0-3 tuples, some constant, so that a wide scope
    over few variables can agree on every position."""
    def draw():
        if rng.random() < 0.3:
            return (rng.randrange(alphabet),) * arity
        return tuple(rng.randrange(alphabet) for _ in range(arity))
    return CspInstance(num_vars, alphabet, arity, tuple(make_constraint(
        [rng.randrange(num_vars) for _ in range(arity)],
        [draw() for _ in range(rng.randrange(4))])
        for _ in range(rng.randint(1, 6))))


# alphabets 1-5 and 200 (16-bit digits), arities 1-4 and 300 (16-bit
# counts: 300 agreeing positions overflow a byte)
SWEEP_SHAPES = ([(3 if alphabet < 4 else 2, alphabet, arity)
                 for alphabet in range(1, 6) for arity in range(1, 5)]
                + [(1, 200, 1), (1, 200, 2), (3, 2, 300), (1, 200, 300)])


@pytest.mark.parametrize("cells", [1, 7, 2**12, None])
def test_agreement_kernel_matches_naive_scores(cells, monkeypatch):
    # block caps from one assignment per block to the default; the score
    # matrix, values and cheats at 0 and 1 bits against per-assignment loops
    if cells is not None:
        monkeypatch.setattr(csp, "AGREEMENT_CELLS", cells)
    rng = random.Random(131)
    for num_vars, alphabet, arity in SWEEP_SHAPES:
        c = _sweep_instance(rng, num_vars, alphabet, arity)
        naive = np.array(oracles.naive_score_matrix(c), dtype=np.int64)
        scores = csp._score_matrix(c)
        assert scores.dtype == np.min_scalar_type(arity)
        assert (scores == naive).all()
        assert csp_value_exact(c) == oracles.naive_csp_value(c)
        assignments = list(itertools.product(range(alphabet),
                                             repeat=num_vars))
        denom = arity * len(c.constraints)
        totals = naive.sum(axis=1)
        first = int(totals.argmax())
        assert optimal_cheat(c, 0) == (Fraction(int(totals[first]), denom),
                                       CheatProfile((assignments[first],)))
        pairs = np.maximum(naive[:, None], naive[None]).sum(axis=2)
        i, j = divmod(int(pairs.argmax()), len(naive))  # lex-first pair
        assert optimal_cheat(c, 1) == (
            Fraction(int(pairs[i, j]), denom),
            CheatProfile((assignments[i], assignments[j])))


def test_value_memory_is_one_block_of_byte_cells():
    # 10 binary variables, 40 constraints of up to 3 tuples: the whole lex
    # order is one block of m * T_max * 1024 one-byte counts.  The scan
    # holds the counter, one position's comparison and its gathered
    # digits, each at most that size
    c, _ = find_low_value_instance(10, 2, 2, Fraction(1), 11,
                                   num_constraints=40, allowed_sizes=(2, 3))
    cells = len(c.constraints) * max(map(len, (con.allowed for con in
                                              c.constraints))) * 1024
    tracemalloc.start()
    try:
        csp_value_exact(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * cells + 2**16


def _kept(c):
    """The derived tables c keeps, by name (fields have no leading _)."""
    return {name: value for name, value in vars(c).items()
            if name.startswith("_")}


def test_every_solver_reads_the_tables_packed_once(monkeypatch):
    # value and cheats at 0, 1 and 2 bits on one instance run the agreement
    # kernel over its assignments once and read the kept score table; best
    # responses and local search read the same packed constraints
    c, _ = find_low_value_instance(4, 2, 2, Fraction(1, 2), 5,
                                   num_constraints=16)
    c = CspInstance(c.num_vars, c.alphabet_size, c.arity, c.constraints)
    built, indices = [], np.indices
    monkeypatch.setattr(np, "indices",
                        lambda *args: built.append(args) or indices(*args))
    scored, agreement = [], csp._agreement

    def counted(instance):
        agree, allowed = agreement(instance)
        return (lambda digits: scored.append(digits.shape[1])
                or agree(digits)), allowed
    monkeypatch.setattr(csp, "_agreement", counted)
    csp_value_exact(c)
    tables = _kept(c)
    assert set(tables) == {"_packed", "_scores"}
    for bits in (0, 1, 2):
        optimal_cheat(c, bits)
    assert scored == [16]
    for bits in (0, 1, 2):
        best_response(c, optimal_cheat(c, bits)[1])
    csp_value_local_search(c, seed=1, restarts=2)
    assert scored.count(16) == 1 and len(built) == 1
    assert _kept(c).keys() == tables.keys()
    assert all(_kept(c)[name] is table for name, table in tables.items())
    for array in (*tables["_packed"], tables["_scores"]):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


def test_kept_score_table_is_the_naive_one_read_only():
    # every sweep shape fits one block under the cap: the table is kept,
    # read-only, and is the score matrix itself
    rng = random.Random(137)
    for shape in SWEEP_SHAPES:
        c = _sweep_instance(rng, *shape)
        value = csp_value_exact(c)
        table = _kept(c)["_scores"]
        assert csp._score_matrix(c) is table
        assert table.flags.c_contiguous and not table.flags.writeable
        assert (table == np.array(oracles.naive_score_matrix(c))).all()
        assert value == oracles.naive_csp_value(c)


def test_score_table_past_the_cap_is_not_kept(monkeypatch):
    # 12 binary variables: 4096 assignments x 16 constraints is the cap's
    # 2^16 cells, one constraint more streams; so do blocks under a
    # smaller block cap
    rng = random.Random(139)
    cons = [make_constraint((rng.randrange(12), rng.randrange(12)),
                            [(rng.randrange(2), rng.randrange(2))])
            for _ in range(17)]
    at_cap = CspInstance(12, 2, 2, tuple(cons[:16]))
    past = CspInstance(12, 2, 2, tuple(cons))
    for c, kept_names in ((at_cap, {"_packed", "_scores"}),
                          (past, {"_packed"})):
        assert csp_value_exact(c) == oracles.naive_csp_value(c)
        assert set(_kept(c)) == kept_names
    blocked = CspInstance(12, 2, 2, tuple(cons[:4]))
    monkeypatch.setattr(csp, "AGREEMENT_CELLS", 2**8)
    naive = np.array(oracles.naive_score_matrix(blocked))
    assert (csp._score_matrix(blocked) == naive).all()
    assert "_scores" not in _kept(blocked)


def test_copies_of_a_solved_instance_solve_alike():
    # a pickled copy carries the kept score table, a replaced one builds
    # its own; both give the value, scores, cheats and responses of c
    c, _ = find_low_value_instance(5, 2, 2, Fraction(1, 2), 13,
                                   num_constraints=20)
    results = {}
    for name, copy in (("c", c), ("pickled", pickle.loads(pickle.dumps(c))),
                       ("replaced", dataclasses.replace(c))):
        assert ("_scores" in _kept(copy)) == (name != "replaced")
        cheats = [optimal_cheat(copy, bits) for bits in (0, 1, 2)]
        results[name] = (csp_value_exact(copy),
                         csp._score_matrix(copy).tolist(), cheats,
                         [best_response(copy, p) for _, p in cheats])
        assert "_scores" in _kept(copy)
    assert results["c"] == results["pickled"] == results["replaced"]


def test_kept_tables_stay_outside_eq_hash_and_repr():
    # a solved instance is equal to, hashes and prints like a fresh equal
    # one; its pickled copy carries the tables and solves to the same results
    c, _ = find_low_value_instance(6, 2, 2, Fraction(1, 2), 9,
                                   num_constraints=24)
    fresh = CspInstance(c.num_vars, c.alphabet_size, c.arity, c.constraints)
    assert _kept(c) and not _kept(fresh)
    assert c == fresh and hash(c) == hash(fresh) and repr(c) == repr(fresh)
    copy = pickle.loads(pickle.dumps(c))
    assert copy == c and _kept(copy).keys() == _kept(c).keys()
    for solve in (csp_value_exact, lambda x: optimal_cheat(x, 1),
                  lambda x: csp._score_matrix(x).tolist(),
                  lambda x: csp_value_local_search(x, seed=3, restarts=2)):
        assert solve(copy) == solve(fresh) == solve(c)


def test_replace_gets_no_stale_tables():
    c, _ = find_low_value_instance(4, 2, 2, Fraction(1, 2), 5,
                                   num_constraints=16)
    assert _kept(c)
    for changed in (dataclasses.replace(c),
                    dataclasses.replace(c, constraints=c.constraints[1:]),
                    dataclasses.replace(c, alphabet_size=3)):
        assert not _kept(changed)
        naive = np.array(oracles.naive_score_matrix(changed))
        assert (csp._score_matrix(changed) == naive).all()
        assert csp_value_exact(changed) == oracles.naive_csp_value(changed)


def test_block_cap_switched_on_solved_instances(monkeypatch):
    # each call builds its digit table for the cap it reads, so a cap
    # switched between calls on an already-solved instance scores alike
    # (with no score table kept, which would skip the digits)
    monkeypatch.setattr(csp, "SCORE_CELLS", 0)
    rng = random.Random(71)
    cases = [_sweep_instance(rng, *shape) for shape in SWEEP_SHAPES]
    naive = [(np.array(oracles.naive_score_matrix(c)),
              oracles.naive_csp_value(c)) for c in cases]
    default = csp.AGREEMENT_CELLS
    for cells in (default, 1, 7, 2**12, default):
        monkeypatch.setattr(csp, "AGREEMENT_CELLS", cells)
        for c, (scores, value) in zip(cases, naive):
            assert (csp._score_matrix(c) == scores).all()
            assert csp_value_exact(c) == value


def test_digit_table_larger_than_the_counter_is_not_kept():
    # one single-tuple constraint over 20 binary variables: the 2^20-column
    # digit table is 20 times the counter, so the solve drops it on return
    c = CspInstance(20, 2, 2, (make_constraint((0, 19), [(1, 0)]),))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert csp_value_exact(c) == (1, (1,) + (0,) * 19)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 2**16
    assert set(_kept(c)) == {"_packed"}


def test_wide_repeated_scope_builds_no_tuple_table():
    # arity 30 over alphabet 10: 10^30 possible tuples, but one variable,
    # so 10 assignments are all the solvers compare
    allowed = [(d,) * 30 for d in (3, 7)] + [(1,) * 29 + (2,)]
    c = CspInstance(1, 10, 30, (make_constraint((0,) * 30, allowed),
                                make_constraint((0,) * 30, [(7,) * 30])))
    assert csp_value_exact(c) == (1, (7,))
    assert optimal_cheat(c, 0) == (1, CheatProfile(((7,),)))
    value, profile = optimal_cheat(c, 1)
    assert value == 1 and profile.assignments == ((0,), (7,))
    assert best_response(c, profile) == [(1, (7,) * 30, 30),
                                         (1, (7,) * 30, 30)]


def test_single_letter_alphabet_over_many_variables():
    # one assignment of 100 variables: more digits than numpy has axes
    c = CspInstance(100, 1, 2, (make_constraint((0, 99), [(0, 0)]),
                                make_constraint((5, 6), [])))
    assert csp_value_exact(c) == (Fraction(1, 2), (0,) * 100)
    value, profile = optimal_cheat(c, 3)  # C(1 + 8 - 1, 8) = 1 profile
    assert value == Fraction(1, 2) and profile.assignments == ((0,) * 100,) * 8


def test_value_empty_allowed_sets():
    c = CspInstance(2, 2, 2, (make_constraint((0, 1), []),))
    assert csp_value_exact(c)[0] == 0


def test_value_budget():
    c = CspInstance(30, 2, 2, (make_constraint((0, 1), NE),))
    with pytest.raises(BudgetExceededError):
        csp_value_exact(c, budget=1000)


def test_local_search_bounds_exact():
    rng = random.Random(19)
    for seed in range(6):
        c, _ = helpers.satisfiable_csp(rng, num_vars=5, num_constraints=8)
        exact, _ = csp_value_exact(c)
        lower, witness = csp_value_local_search(c, seed=seed, restarts=8)
        assert lower <= exact
        assert c.satisfied_count(witness) == lower * len(c.constraints)
    # a satisfiable instance is solved outright with enough restarts
    c, _ = helpers.satisfiable_csp(random.Random(4), num_vars=4,
                                   num_constraints=6)
    assert csp_value_local_search(c, seed=0, restarts=20)[0] == 1


def test_local_search_deterministic():
    c, _ = helpers.satisfiable_csp(random.Random(8), num_vars=6)
    first = csp_value_local_search(c, seed=123, restarts=5)
    assert first == csp_value_local_search(c, seed=123, restarts=5)


def _local_search_instance(seed, arity):
    rng = random.Random(seed)
    space = list(itertools.product(range(3), repeat=arity))
    return CspInstance(8, 3, arity, tuple(make_constraint(
        [rng.randrange(8) for _ in range(arity)],
        rng.sample(space, rng.choice([0, 1, 1, 2]))) for _ in range(30)))


def test_local_search_keeps_its_results():
    # pinned results, and the same sweeps scored by satisfied_count
    pinned = [
        [(Fraction(2, 5), (2, 2, 0, 1, 2, 0, 0, 1)),
         (Fraction(2, 5), (2, 2, 0, 1, 2, 0, 0, 1)),
         (Fraction(3, 10), (1, 2, 0, 1, 1, 2, 2, 1))],
        [(Fraction(2, 15), (1, 2, 2, 0, 2, 0, 2, 0)),
         (Fraction(1, 6), (0, 2, 1, 0, 1, 0, 2, 1)),
         (Fraction(1, 10), (1, 2, 0, 2, 1, 2, 2, 0))],
        [(Fraction(7, 30), (2, 1, 0, 1, 0, 1, 2, 2)),
         (Fraction(1, 5), (2, 0, 0, 1, 0, 1, 1, 2)),
         (Fraction(1, 5), (2, 1, 0, 1, 0, 2, 2, 1))],
        [(Fraction(1, 15), (2, 1, 0, 1, 2, 0, 1, 1)),
         (Fraction(1, 15), (2, 2, 0, 1, 0, 0, 1, 1)),
         (Fraction(2, 15), (1, 2, 1, 2, 0, 2, 2, 2))]]
    for i, expected in enumerate(pinned):
        c = _local_search_instance(600 + i, 2 + i % 2)
        for seed, result in zip((0, 1, 2), expected):
            assert csp_value_local_search(c, seed=seed, restarts=2) == result
            assert oracles.naive_local_search(c, seed, restarts=2) == result


def test_single_constraint_local_search():
    c = CspInstance(2, 2, 2, (make_constraint((0, 1), NE),))
    assert csp_value_local_search(c, seed=1)[0] == 1


@pytest.mark.parametrize("restarts", [0, -5, True, 1.5, 2.0])
def test_local_search_refuses_restarts_below_one(restarts):
    # once clamped to one restart; a bool ran one restart, a float raised a
    # bare TypeError
    c = CspInstance(2, 2, 2, (make_constraint((0, 1), NE),))
    with pytest.raises(InvalidInputError, match="restarts out of range"):
        csp_value_local_search(c, seed=1, restarts=restarts)


# -- generator ---------------------------------------------------------------


def test_generator_trivial_target():
    instance, value = find_low_value_instance(3, 2, 2, Fraction(1), seed=0,
                                              num_constraints=4)
    assert value <= 1


def test_generator_quarter_binary():
    # binary alphabet needs some never-satisfiable constraints to go low
    instance, value = find_low_value_instance(
        8, 2, 2, Fraction(1, 4), seed=2, num_constraints=24,
        allowed_sizes=(0, 0, 0, 1), attempts=100)
    assert value <= Fraction(1, 4)
    assert value == csp_value_exact(instance)[0]


def test_generator_quarter_ternary():
    instance, value = find_low_value_instance(
        4, 3, 2, Fraction(1, 4), seed=11, num_constraints=32, attempts=100)
    assert value <= Fraction(1, 4)


def _listed_constraints(seed, num_vars, alphabet, arity, m, sizes):
    """The first attempt's constraints drawn from the listed tuples, as the
    generator drew them before it sampled tuples by index."""
    rng = random.Random(seed)
    space = list(itertools.product(range(alphabet), repeat=arity))
    cons = []
    for _ in range(m):
        scope = tuple(rng.randrange(num_vars) for _ in range(arity))
        size = sizes[rng.randrange(len(sizes))]
        cons.append(make_constraint(
            scope, rng.sample(space, min(size, len(space)))))
    return tuple(cons)


@pytest.mark.parametrize("alphabet, arity", [
    (1, 1), (1, 3), (2, 1), (2, 3), (3, 2), (4, 2), (5, 1), (2, 4)])
def test_generator_draws_match_listed_tuples(alphabet, arity):
    # index sampling draws the same tuples, and leaves the stream in step
    # for the next constraint's draws, so seeded instances keep their bytes
    sizes = (0, 1, 2, 3, alphabet ** arity, 40)
    for seed in range(6):
        instance, _ = find_low_value_instance(
            3, alphabet, arity, Fraction(1), seed, num_constraints=6,
            allowed_sizes=sizes)
        assert instance.constraints == _listed_constraints(
            seed, 3, alphabet, arity, 6, sizes)


def test_generator_rejects_bad_sizes():
    for sizes in ((0, 2, 2), (3, 0, 2), (3, 2, -1), (3, 10, 30)):
        with pytest.raises(InvalidInputError):
            find_low_value_instance(*sizes, Fraction(1), seed=0,
                                    num_constraints=2)


def test_generator_cap():
    with pytest.raises(GeneratorCapError):
        find_low_value_instance(3, 2, 2, Fraction(-1), seed=5,
                                num_constraints=2, attempts=5)


@pytest.mark.parametrize("target", [Fraction(-1), Fraction(-1, 10**9), -3])
def test_generator_refuses_a_negative_target_before_any_draw(monkeypatch,
                                                             target):
    # no instance has a value below 0, so not one of 10^9 attempts is drawn
    # or solved; the refusal keeps the cap's message
    def solve(*args, **kwargs):
        raise AssertionError("an instance was drawn or solved")
    monkeypatch.setattr(csp, "csp_value_exact", solve)
    monkeypatch.setattr(csp, "random_instance", solve)
    with pytest.raises(GeneratorCapError,
                       match=rf"value <= {target} in 1000000000 attempts"):
        find_low_value_instance(3, 2, 2, target, seed=5, attempts=10**9)


# -- conversions -------------------------------------------------------------


def test_edge_game_identity_projection():
    lc = LabelCover(1, 1, 2, 2, ((0, 0),), ((0, 1),))
    assert classical_value(edge_game(lc))[0] == 1


def test_edge_game_matches_value():
    val = oracles.naive_label_cover_value(STAR_LC)
    assert val == Fraction(2, 3)
    assert csp_value_exact(STAR_LC.to_csp())[0] == val
    assert classical_value(edge_game(STAR_LC))[0] == val


def test_edge_game_random_label_covers():
    rng = random.Random(61)
    for _ in range(8):
        lc = helpers.random_label_cover(rng)
        val = oracles.naive_label_cover_value(lc)
        assert csp_value_exact(lc.to_csp())[0] == val
        assert classical_value(edge_game(lc))[0] == val


def test_consistency_game_satisfiable():
    rng = random.Random(67)
    lc = helpers.satisfiable_label_cover(rng)
    assert classical_value(consistency_game(lc))[0] == 1


def test_consistency_game_soundness_relation():
    val = oracles.naive_label_cover_value(STAR_LC)
    cons_value = classical_value(consistency_game(STAR_LC))[0]
    assert cons_value == Fraction(5, 6)  # this instance meets the cap
    assert cons_value <= (1 + val) / 2
    rng = random.Random(71)
    for _ in range(6):
        lc = helpers.random_label_cover(rng)
        val = oracles.naive_label_cover_value(lc)
        assert classical_value(consistency_game(lc))[0] <= (1 + val) / 2


def test_consistency_game_single_edge():
    lc = LabelCover(1, 1, 1, 1, ((0, 0),), ((0,),))
    assert classical_value(consistency_game(lc))[0] == 1


def test_parallel_edges_rejected():
    with pytest.raises(InvalidInputError):
        LabelCover(1, 1, 2, 2, ((0, 0), (0, 0)), ((0, 1), (1, 0)))


@pytest.mark.parametrize("sizes, edges, projections, message", [
    ((0, 1, 2, 2), ((0, 0),), ((0, 1),), "num_left out of range"),
    ((1, 1, 2.0, 2), ((0, 0),), ((0, 1),), "sigma_left out of range"),
    ((1, 1, 2, 2), (), (), "non-empty"),
    ((1, 1, 2, 2), ((0, 0), (0, 0)), ((0, 1), (1, 0)), "parallel"),
    ((2, 1, 2, 2), ((0, 0), (1, 0)), ((0, 1),), "one projection per edge"),
    ((1, 1, 2, 2), ((0, 1),), ((0, 1),), "endpoint out of range"),
    ((2, 2, 2, 2), ((0, True),), ((0, 1),), "endpoint out of range"),
    ((1, 1, 2, 2), ((0,),), ((0, 1),), "each edge must be a"),
    ((1, 1, 2, 2), ((0, 0, 0),), ((0, 1),), "each edge must be a"),
    ((1, 1, 2, 2), ((0, 0),), ((0,),), "cover sigma_left"),
    ((1, 1, 2, 2), ((0, 0),), ((0, 2),), "projection value out of range"),
    ((1, 1, 2, 2), ((0, 0),), ((0, 1.0),), "projection value out of range"),
], ids=["size-0", "size-float", "no-edges", "parallel", "projection-count",
        "endpoint", "endpoint-bool", "edge-short", "edge-long",
        "projection-length", "projection-value", "projection-float"])
def test_label_cover_refuses_malformed_parts(sizes, edges, projections,
                                             message):
    with pytest.raises(InvalidInputError, match=message):
        LabelCover(*sizes, edges, projections)


@pytest.mark.parametrize("sizes, scope, allowed, message", [
    ((2, 0, 2), (0, 1), [], "alphabet_size out of range"),
    ((2, 2.0, 2), (0, 1), [(0, 1)], "alphabet_size out of range"),
    ((2, 2, 2), (0,), [(0,)], "scope length"),
    ((2, 2, 2), (0, 1.0), [(0, 1)], "scope variable out of range"),
    ((2, 2, 2), (0, True), [(0, 1)], "scope variable out of range"),
    ((2, 2, 2), (0, 1), [(0, 2)], "value out of range"),
    ((2, 2, 2), (0, 1), [(-1, 0)], "value out of range"),
    ((2, 2, 2), (0, 1), [(0, 1.0)], "value out of range"),
], ids=["alphabet-0", "alphabet-float", "short-scope", "scope-float",
        "scope-bool", "value-2", "value-negative", "value-float"])
def test_csp_instance_refuses_malformed_parts(sizes, scope, allowed,
                                              message):
    with pytest.raises(InvalidInputError, match=message):
        CspInstance(*sizes, (make_constraint(scope, allowed),))


# -- verifier acceptance and cheating ----------------------------------------


def test_honest_profile_perfect_completeness():
    rng = random.Random(73)
    for _ in range(5):
        c, planted = helpers.satisfiable_csp(rng)
        profile = CheatProfile((planted, planted))
        assert cheat_acceptance(c, profile) == 1


def test_unsatisfiable_constraint_contributes_nothing():
    c = CspInstance(2, 2, 2, (make_constraint((0, 1), []),))
    profile = CheatProfile(((0, 0), (1, 1)))
    assert cheat_acceptance(c, profile) == 0


def test_disagreeing_assignments_cap_constraint():
    # the only satisfying tuple is (0,0); both of the second prover's
    # assignments put 1 everywhere, so at most one position can agree
    c = CspInstance(2, 2, 2, (make_constraint((0, 1), [(0, 0)]),))
    profile = CheatProfile(((1, 1), (1, 1)))
    assert cheat_acceptance(c, profile) == 0
    half = CheatProfile(((0, 1), (1, 0)))
    assert cheat_acceptance(c, half) == Fraction(1, 2)


def test_best_response_reproduces_acceptance():
    rng = random.Random(79)
    c, planted = helpers.satisfiable_csp(rng, num_vars=4, num_constraints=6)
    other = tuple(rng.randrange(2) for _ in range(4))
    profile = CheatProfile((planted, other))
    response = best_response(c, profile)
    total = Fraction(sum(agree for _, _, agree in response),
                     c.arity * len(c.constraints))
    assert total == cheat_acceptance(c, profile)
    for (msg, tup, _), con in zip(response, c.constraints):
        assert msg in (0, 1)
        if con.allowed:
            assert tup in con.allowed


def test_best_response_never_picks_a_padded_tuple():
    # the allowed sets are padded to three tuples with -1 digits; when every
    # real tuple agrees on 0 positions, each constraint still answers with
    # its first real tuple (the empty set with the all-zero tuple)
    cons = (make_constraint((0, 1), []), make_constraint((0, 1), [(2, 2)]),
            make_constraint((1, 0), [(1, 2), (2, 1), (2, 2)]),
            make_constraint((0, 0), [(1, 1)]))
    c = CspInstance(2, 3, 2, cons)
    for profile in (CheatProfile(((0, 0),)), CheatProfile(((0, 0),) * 2),
                    CheatProfile(((0, 0), (0, 0), (0, 0), (0, 0)))):
        response = best_response(c, profile)
        assert response == [(0, (0, 0), 0), (0, (2, 2), 0),
                            (0, (1, 2), 0), (0, (1, 1), 0)]
        assert response == oracles.naive_best_response(c, profile)
    # a second assignment agreeing somewhere moves only those constraints
    profile = CheatProfile(((0, 0), (2, 0)))
    assert best_response(c, profile) == [(0, (0, 0), 0), (1, (2, 2), 1),
                                         (1, (1, 2), 1), (0, (1, 1), 0)]
    assert best_response(c, profile) == \
        oracles.naive_best_response(c, profile)


def _lowval():
    return load_instance((resources.files("leakygames") / "fixtures"
                          / "lowval_k2.csp").read_text())


def test_best_response_matches_every_slot_scan():
    # duplicate assignments are scored once, at their smallest message:
    # the fixture, random instances with repeating profiles at leak 0-3,
    # and slot-capped cheat witnesses (the first assignment repeated)
    rng = random.Random(89)
    fixture = _lowval()
    cases = [(fixture, optimal_cheat(fixture, bits)[1]) for bits in (0, 1, 2)]
    for arity in (1, 2, 3):
        c = _mixed_instance(rng, 3, 2, arity)
        pool = list(itertools.product(range(2), repeat=3))
        for bits in (0, 1, 2, 3):
            cases.append((c, CheatProfile(tuple(
                rng.choice(pool[:rng.randint(1, 8)])
                for _ in range(1 << bits)))))
        cases += [(c, optimal_cheat(c, bits)[1]) for bits in (3, 4)]
    pool = list(itertools.product(range(3), repeat=4))
    cases.append((fixture, CheatProfile(tuple(rng.choice(pool[:5])
                                              for _ in range(8)))))
    for c, profile in cases:
        assert best_response(c, profile) == \
            oracles.naive_best_response(c, profile)


def test_best_response_memory_holds_with_the_leak():
    # 3 binary variables and 200 constraints: at most 8 distinct
    # assignments are compared, however many slots the profile has
    rng = random.Random(97)
    c = _mixed_instance(rng, 3, 2, 2)
    c = CspInstance(3, 2, 2, (c.constraints * 200)[:200])
    pool = list(itertools.product(range(2), repeat=3))
    peaks = []
    for bits in (8, 10, 12):
        profile = CheatProfile(tuple(rng.choice(pool)
                                     for _ in range(1 << bits)))
        tracemalloc.start()
        try:
            best_response(c, profile)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2**19  # scoring every slot takes 1.8 MB at 8 bits


def test_optimal_cheat_satisfiable_instance():
    c, _ = helpers.satisfiable_csp(random.Random(83), num_vars=4,
                                   num_constraints=5)
    for bits in (0, 1):
        value, profile = optimal_cheat(c, bits)
        assert value == 1
        assert cheat_acceptance(c, profile) == 1


def test_optimal_cheat_zero_bits_naive():
    rng = random.Random(89)
    for _ in range(4):
        instance, _ = find_low_value_instance(
            3, 2, 2, Fraction(1), seed=rng.randrange(1000),
            num_constraints=4)
        value, profile = optimal_cheat(instance, 0)
        assert value == oracles.naive_optimal_cheat(instance, 0)
        assert cheat_acceptance(instance, profile) == value


def test_optimal_cheat_matches_naive_full_enumeration():
    # tiny instances: the oracle scans every (behavior, profile) pair
    rng = random.Random(97)
    for _ in range(3):
        cons = tuple(make_constraint(
            (rng.randrange(3), rng.randrange(3)),
            rng.sample([(0, 0), (0, 1), (1, 0), (1, 1)], 2))
            for _ in range(2))
        c = CspInstance(3, 2, 2, cons)
        value, profile = optimal_cheat(c, 1)
        assert value == oracles.naive_optimal_cheat(c, 1)
        assert cheat_acceptance(c, profile) == value


def test_optimal_cheat_monotone_in_bits():
    instance, _ = find_low_value_instance(4, 2, 2, Fraction(1), seed=31,
                                          num_constraints=8,
                                          allowed_sizes=(1, 2))
    v0 = optimal_cheat(instance, 0)[0]
    v1 = optimal_cheat(instance, 1)[0]
    v2 = optimal_cheat(instance, 2)[0]
    assert v0 <= v1 <= v2


def test_optimal_cheat_pair_scan_matches_plain_pair_loop():
    # the accelerated 2-slot scan against a direct double loop over
    # ordered assignment pairs, acceptance recomputed per pair
    rng = random.Random(41)
    for _ in range(3):
        cons = tuple(make_constraint(
            (rng.randrange(2), rng.randrange(2)),
            rng.sample(list(itertools.product(range(3), repeat=2)), 2))
            for _ in range(5))
        c = CspInstance(2, 3, 2, cons)
        value, profile = optimal_cheat(c, 1)
        assignments = list(itertools.product(range(3), repeat=2))
        best = Fraction(0)
        best_pair = None
        for pair in itertools.product(assignments, repeat=2):
            acc = cheat_acceptance(c, CheatProfile(pair))
            if acc > best:
                best = acc
                best_pair = pair
        assert value == best
        assert profile.leak_bits == 1
        assert cheat_acceptance(c, profile) == best
        assert profile.assignments == best_pair


@pytest.mark.parametrize("alphabet", [2, 3])
def test_optimal_cheat_leak2_matches_every_ordered_tuple(alphabet):
    # the nondecreasing pruned scan against every ordered 4-tuple of
    # assignments: same value, same (lex-first) maximizer
    rng = random.Random(43 + alphabet)
    # 2 variables and arity 2: assignments and tuples are the same pairs
    pairs = list(itertools.product(range(alphabet), repeat=2))
    for _ in range(2):
        cons = tuple(make_constraint(
            (rng.randrange(2), rng.randrange(2)),
            rng.sample(pairs, rng.randrange(3))) for _ in range(5))
        c = CspInstance(2, alphabet, 2, cons)
        best, best_profile = Fraction(-1), None
        for profile in itertools.product(pairs, repeat=4):
            acc = cheat_acceptance(c, CheatProfile(profile))
            if acc > best:
                best, best_profile = acc, profile
        value, profile = optimal_cheat(c, 2)
        assert value == best
        assert profile.assignments == best_profile


def test_optimal_cheat_witness_on_mixed_instances():
    # arity 1-4 with repeated scope variables and empty allowed sets: the
    # pruned scan keeps the lex-first maximizer over all ordered pairs
    rng = random.Random(47)
    for _ in range(40):
        nv, alphabet = rng.randint(1, 3), rng.randint(1, 2)
        k = rng.randint(1, 4)
        space = list(itertools.product(range(alphabet), repeat=k))
        c = CspInstance(nv, alphabet, k, tuple(make_constraint(
            [rng.randrange(nv) for _ in range(k)],
            rng.sample(space, min(len(space), rng.choice([0, 1, 2, 3]))))
            for _ in range(rng.randint(1, 6))))
        assignments = list(itertools.product(range(alphabet), repeat=nv))
        best, best_pair = Fraction(-1), None
        for pair in itertools.product(assignments, repeat=2):
            acc = cheat_acceptance(c, CheatProfile(pair))
            if acc > best:
                best, best_pair = acc, pair
        assert optimal_cheat(c, 1) == (best, CheatProfile(best_pair))


@pytest.fixture(params=[None, 1, 7, 64])
def pair_cells(request, monkeypatch):
    """The pair scan at its default block size and at tiny ones, which split
    every scan into blocks of a few rows or of one."""
    if request.param is not None:
        monkeypatch.setattr(csp, "PAIR_CELLS", request.param)
    return request.param


def _mixed_instance(rng, num_vars, alphabet, arity):
    """Up to 40 constraints with repeated scope variables and allowed sets
    of 0-3 tuples."""
    space = list(itertools.product(range(alphabet), repeat=arity))
    return CspInstance(num_vars, alphabet, arity, tuple(make_constraint(
        [rng.randrange(num_vars) for _ in range(arity)],
        rng.sample(space, min(len(space), rng.choice([0, 1, 1, 2, 3]))))
        for _ in range(rng.randint(1, 40))))


def _best_ordered_tuple(c, slots):
    """Max acceptance over every ordered slots-tuple of assignments, with
    the lex-first tuple reaching it."""
    assignments = list(itertools.product(range(c.alphabet_size),
                                         repeat=c.num_vars))
    best, best_profile = Fraction(-1), None
    for profile in itertools.product(assignments, repeat=slots):
        acc = cheat_acceptance(c, CheatProfile(profile))
        if acc > best:
            best, best_profile = acc, profile
    return best, CheatProfile(best_profile)


def test_pair_scan_blocks_match_every_ordered_tuple(pair_cells):
    rng = random.Random(53)
    for num_vars, alphabet, bits in ((2, 3, 1), (3, 2, 1), (2, 2, 2),
                                     (1, 3, 2)):
        for arity in (1, 2, 3, 4):
            c = _mixed_instance(rng, num_vars, alphabet, arity)
            assert optimal_cheat(c, bits) == _best_ordered_tuple(c, 1 << bits)


@pytest.mark.parametrize("num_vars, alphabet", [(4, 2), (2, 4), (3, 3),
                                                (6, 2), (4, 3), (10, 2)])
def test_pair_scan_matches_reference_leaf_scan(num_vars, alphabet,
                                               pair_cells):
    # 16 to 1024 assignments, arity 1-4: the blocked pair product against
    # the per-row leaf scan it replaced, on values and witnesses
    rng = random.Random(num_vars * 10 + alphabet)
    for arity in (1, 2, 3, 4):
        c = _mixed_instance(rng, num_vars, alphabet, arity)
        for bits in (0, 1, 2) if alphabet ** num_vars <= 32 else (0, 1):
            assert optimal_cheat(c, bits) == \
                oracles.reference_optimal_cheat(c, bits)


def _pruned_at_leak_1(c):
    """Whether the leak-1 scan drops a row: one whose maxima with every
    later row cannot beat the best single row's total."""
    scores = np.array(oracles.naive_score_matrix(c))
    suffix_max = np.maximum.accumulate(scores[::-1])[::-1]
    bound = np.maximum(scores, suffix_max).sum(axis=1)
    return bool((bound < scores.sum(axis=1).max()).any())


def test_leak_1_pair_scan_reads_the_threshold_rows(monkeypatch):
    # at leak 1 the prefix is zero, so the pair product's row side is rows
    # of the one threshold table; values match the full (behavior, profile)
    # enumeration whether the bound drops rows or keeps them all
    built, thresholds = [], csp._thresholds
    monkeypatch.setattr(csp, "_thresholds",
                        lambda *args: built.append(args) or thresholds(*args))
    rng = random.Random(151)
    every = [(0,), (1,)]  # every row satisfies everything: none is dropped
    cases = [CspInstance(2, 2, 1, (make_constraint((0,), every),
                                   make_constraint((1,), every)))]
    # two or three constraints: the naive scan tries 8^m behaviors
    cases += [CspInstance(2, 2, 1, tuple(make_constraint(
        (rng.randrange(2),), rng.sample(every, rng.randrange(3)))
        for _ in range(rng.randint(2, 3)))) for _ in range(8)]
    for c in cases:
        for bits in (1, 2):
            built.clear()
            value, profile = optimal_cheat(c, bits)
            assert value == oracles.naive_optimal_cheat(c, bits)
            assert cheat_acceptance(c, profile) == value
            assert len(built) == 1  # one threshold table per scan
    assert {_pruned_at_leak_1(c) for c in cases} == {False, True}


def test_threshold_mask_is_the_rows_of_the_maxima():
    # [max(p, s) <= t] = [p <= t][s <= t]: the fixed slots' threshold row
    # masks a row's thresholds into those of its maxima with the slots
    rng = np.random.default_rng(11)
    for k in (1, 2, 3, 4):
        scores = rng.integers(0, k + 1, size=(30, 7), dtype=np.uint8)
        prefixes = [np.zeros(7, np.uint8), np.full(7, k, np.uint8)]
        prefixes += list(rng.integers(0, k + 1, size=(6, 7), dtype=np.uint8))
        for prefix in prefixes:
            masked = csp._thresholds(prefix[None], k) * csp._thresholds(
                scores, k)
            assert np.array_equal(
                csp._thresholds(np.maximum(prefix, scores), k), masked)


def test_node_stack_enters_the_recorded_leaves(monkeypatch):
    # every pair-leaf call's (start, best_total), as the scan that rebuilt
    # each leaf's rows from the scores made them: the fixture at leak 2, a
    # 3-slot instance (3 assignments) and an 8-slot one six slots deep
    calls, scan = [], csp._pair_scan
    monkeypatch.setattr(csp, "_pair_scan", lambda table, mask, start, bound,
                        best_total: calls.append([start, best_total])
                        or scan(table, mask, start, bound, best_total))
    recorded = json.loads((Path(__file__).parent
                           / "pair_scan_calls.json").read_text())
    cases = [(_lowval(), 2),
             (find_low_value_instance(1, 3, 3, Fraction(1), 0,
                                      num_constraints=12,
                                      allowed_sizes=(1, 2, 3))[0], 2),
             (find_low_value_instance(3, 2, 3, Fraction(1), 12,
                                      num_constraints=24,
                                      allowed_sizes=(1, 2))[0], 3)]
    for (c, bits), expected in zip(cases, recorded.values(), strict=True):
        calls.clear()
        optimal_cheat(c, bits)
        assert calls == expected
    assert [len(leaves) for leaves in recorded.values()] == [1220, 1, 13]


@pytest.mark.parametrize("num_vars, alphabet", [(1, 1), (1, 2), (1, 3),
                                                (2, 2)])
def test_slots_past_assignments_repeat_the_first(num_vars, alphabet,
                                                 pair_cells):
    # 2^bits > n: the capped scan, padded, is the full scan's witness
    rng = random.Random(alphabet)
    for arity in (1, 2, 3):
        c = _mixed_instance(rng, num_vars, alphabet, arity)
        for bits in (1, 2, 3):
            assert optimal_cheat(c, bits) == \
                oracles.reference_optimal_cheat(c, bits)
    value, profile = optimal_cheat(c, 16)
    scan = optimal_cheat(c, (alphabet ** num_vars - 1).bit_length())[1]
    assert value == optimal_cheat(c, 3)[0]
    assert profile.assignments == (
        scan.assignments[:1] * ((1 << 16) - len(scan.assignments))
        + scan.assignments)


def test_capped_scan_budget_and_profile_guard(monkeypatch):
    # one binary variable: the scan visits C(2 + 2 - 1, 2) = 3 pairs at
    # any leak, and only the profile grows with the leak
    c = CspInstance(1, 2, 2, (make_constraint((0, 0), [(0, 0), (1, 1)]),))
    assert optimal_cheat(c, 16, budget=3)[0] == 1
    with pytest.raises(BudgetExceededError):
        optimal_cheat(c, 16, budget=2)
    monkeypatch.setattr(csp, "PROFILE_CELLS", 8)
    assert len(optimal_cheat(c, 3)[1].assignments) == 8
    with pytest.raises(BudgetExceededError) as err:
        optimal_cheat(c, 4)
    assert err.value.required == 16
    two = CspInstance(2, 2, 2, (make_constraint((0, 1), NE),))
    assert len(optimal_cheat(two, 2)[1].assignments) == 4  # 4 x 2 values
    with pytest.raises(BudgetExceededError):
        optimal_cheat(two, 3)


def test_threshold_rows_switch_to_float64_at_2_24_columns():
    # sums of k*m 0/1 products are exact in float32 below 2^24, the first
    # integer past which float32 skips integers
    assert float(np.float32(2**24 + 1)) == 2**24
    for k, m, dtype in ((1, 2**24 - 1, np.float32), (1, 2**24, np.float64),
                        (2, 2**23 - 1, np.float32), (2, 2**23, np.float64),
                        (4, 2**22, np.float64)):
        table = csp._thresholds(np.zeros((0, m), dtype=np.uint8), k)
        assert table.shape == (0, k * m) and table.dtype == dtype


def test_pair_scan_memory_is_bounded_by_the_block(monkeypatch):
    # 1024 assignments at leak 1: the scan holds the threshold tables and one
    # block of the product, never the 1024 x 1024 pair table
    monkeypatch.setattr(csp, "AGREEMENT_CELLS", 2**12)  # a small score pass
    c = _mixed_instance(random.Random(3), 10, 2, 2)
    tables = 2 * 1024 * 2 * len(c.constraints) * 4  # row and column sides
    tracemalloc.start()
    try:
        optimal_cheat(c, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= tables + 8 * csp.PAIR_CELLS + 2**18
    assert peak < 1024 * 1024 * 4  # one float32 pair table


def test_optimal_cheat_budget():
    # the scan visits nondecreasing 4-tuples of the 2^8 assignments
    c, _ = helpers.satisfiable_csp(random.Random(5), num_vars=8)
    with pytest.raises(BudgetExceededError):
        optimal_cheat(c, 2, budget=1000)
    with pytest.raises(BudgetExceededError) as err:
        optimal_cheat(c, 2, budget=10**8)  # near the count: built exactly
    assert err.value.required == math.comb(256 + 3, 4)
    assert err.value.log2_required == math.log2(math.comb(256 + 3, 4))
    # exactly at the count the scan runs: C(4 + 3, 4) = 35 on 2 binary vars
    small = CspInstance(2, 2, 2, (make_constraint((0, 1), NE),))
    assert optimal_cheat(small, 2, budget=35)[0] == 1
    with pytest.raises(BudgetExceededError):
        optimal_cheat(small, 2, budget=34)


def test_log2_refusal_keeps_the_overshoot():
    # leak 12 on 81 assignments: C(81 + 81 - 1, 81) tuples, refused from
    # its log2 before the count is built
    with pytest.raises(BudgetExceededError) as err:
        optimal_cheat(_lowval(), 12)
    assert err.value.required is None
    assert err.value.log2_required == pytest.approx(
        math.log2(math.comb(161, 81)))
    assert f"about 2^{int(err.value.log2_required)} steps" in str(err.value)


def test_optimal_cheat_budget_guard_builds_no_huge_count():
    # 2^1000 assignments and 2^900 slots: lgamma alone cancels to garbage
    # here; the guard must still refuse without calling math.comb
    c = CspInstance(1000, 2, 2, (make_constraint((0, 1), NE),))
    with pytest.raises(BudgetExceededError, match="about 2"):
        optimal_cheat(c, 900)


def test_profile_check_reaches_every_slot():
    # distinct assignments are checked once each; a bad one in any slot of
    # a padded profile, the last one too, is still refused
    c = CspInstance(3, 2, 2, (make_constraint((0, 1), NE),))
    good = (0, 1, 1)
    CheatProfile((good,) * 8).check_shapes(c)
    for bad in ((0, 1), (0, 1, 1, 0), (0, 2, 1), (0, -1, 0)):
        for slot in (0, 5, 7):
            assignments = [good] * 8
            assignments[slot] = bad
            with pytest.raises(InvalidInputError):
                CheatProfile(tuple(assignments)).check_shapes(c)


def test_profile_validation():
    with pytest.raises(InvalidInputError):
        CheatProfile(((0, 0), (0, 0), (0, 0)))  # not a power of two
    profile = CheatProfile(((0, 0),))
    with pytest.raises(InvalidInputError):
        profile.check_shapes(CspInstance(3, 2, 2,
                                         (make_constraint((0, 1), NE),)))


# -- file format -------------------------------------------------------------


def test_csp_round_trip():
    rng = random.Random(101)
    for _ in range(6):
        c, _ = helpers.satisfiable_csp(rng, num_vars=4, alphabet=3,
                                       num_constraints=5)
        assert load_instance(save_csp(c)) == c


def test_csp_round_trip_empty_allowed():
    c = CspInstance(2, 2, 2, (make_constraint((0, 1), []),))
    assert load_instance(save_csp(c)) == c


def test_save_csp_matches_the_joined_formatter():
    # the %-formatted lines are the per-digit joins' bytes, empty allowed
    # sets, wide scopes and label covers included
    fixture = load_instance((resources.files("leakygames") / "fixtures"
                             / "lowval_k2.csp").read_text())
    rng = random.Random(107)
    cases = [fixture, TRIANGLE,
             CspInstance(2, 2, 2, (make_constraint((0, 1), []),)),
             helpers.random_label_cover(rng).to_csp()]
    cases += [_sweep_instance(rng, *shape) for shape in SWEEP_SHAPES
              if shape[1] <= 10]
    cases += [find_low_value_instance(6, 3, 3, Fraction(1), seed,
                                      num_constraints=24,
                                      allowed_sizes=(0, 1, 4))[0]
              for seed in range(3)]
    for c in cases:
        assert save_csp(c) == oracles.naive_save_csp(c)


def test_label_cover_round_trip():
    rng = random.Random(103)
    for _ in range(6):
        lc = helpers.random_label_cover(rng)
        assert load_instance(save_label_cover(lc)) == lc


def test_format_errors():
    with pytest.raises(FormatError, match="header"):
        load_instance("nope 1 2 3\n")
    with pytest.raises(FormatError, match="scope"):
        load_instance("csp 2 2 2\ncon 0 : 00\n")
    with pytest.raises(FormatError, match="alphabet"):
        load_instance("csp 2 2 2\ncon 0 1 : 05\n")
    with pytest.raises(FormatError, match="lc"):
        load_instance("csp 2 2 2\ncon 0 1 : 01\ne 0 0 : 0 1\n")
    with pytest.raises(FormatError, match="disagree"):
        load_instance("csp 2 2 2\nlc 1 1 2 2\ncon 0 1 : 00 11\n"
                      "e 0 0 : 0 0\n")


def test_library_calls_refuse_invalid_input():
    with pytest.raises(InvalidInputError, match="alphabet > 10"):
        save_csp(CspInstance(2, 11, 2, (make_constraint((0, 1), [(0, 1)]),)))
    with pytest.raises(InvalidInputError, match="non-negative"):
        optimal_cheat(_lowval(), -1)
    # a bool was read as 1 bit (value 11/16), a float raised a bare TypeError
    for leak_bits in (True, False, 1.0, 0.5, "1"):
        with pytest.raises(InvalidInputError, match="leak_bits out of range"):
            optimal_cheat(_lowval(), leak_bits)
    # each ended in a bare TypeError, AttributeError or ValueError, or was
    # taken (a bool as 1, a float count as its value)
    for call, what in [
            *((lambda b=b: csp_value_exact(TRIANGLE, b), "budget")
              for b in (1.5, None, True)),
            *((lambda b=b: optimal_cheat(TRIANGLE, 0, b), "budget")
              for b in (1.5, None, True)),
            *((lambda kw=kw: find_low_value_instance(
                3, 2, 2, Fraction(1, 2), 0, **kw), next(iter(kw)))
              for kw in ({"attempts": 1.5}, {"attempts": True},
                         {"attempts": -1}, {"num_constraints": 2.0},
                         {"num_constraints": 0}, {"allowed_sizes": (1.5,)},
                         {"allowed_sizes": (1, True)},
                         {"allowed_sizes": (-1,)}, {"allowed_sizes": ()})),
            (lambda: csp.tuple_count(True, 2, 2),
             "num_vars, alphabet_size or arity"),
            (lambda: csp.tuple_count(2, 2.0, 2),
             "num_vars, alphabet_size or arity")]:
        with pytest.raises(InvalidInputError, match=f"^{what} out of range$"):
            call()


def test_format_error_line_numbers():
    with pytest.raises(FormatError) as err:
        load_instance("csp 2 2 2\n# fine\ncon 0 1 : xx\n")
    assert err.value.line_no == 3


def test_optimal_cheat_at_least_value():
    # playing the best assignment honestly is one available cheat
    rng = random.Random(107)
    for _ in range(5):
        c, _ = helpers.satisfiable_csp(rng, num_vars=4, num_constraints=6)
        val, _ = csp_value_exact(c)
        assert optimal_cheat(c, 0)[0] >= val


def test_edge_game_leakage_inflation():
    from leakygames.leakage import leaky_value_exact, one_way_ab
    rng = random.Random(109)
    for _ in range(6):
        lc = helpers.random_label_cover(rng, max_left=2, max_right=2)
        val = oracles.naive_label_cover_value(lc)
        game = edge_game(lc)
        for bits in (0, 1):
            leaky, _ = leaky_value_exact(game, one_way_ab(bits))
            assert leaky <= min(Fraction(1), (1 << bits) * val)
