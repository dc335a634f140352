"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Exact comparisons use Fraction equality throughout; Monte Carlo
checks use the solver-computed exact values as their reference.
"""

from __future__ import annotations

import dataclasses
import random
import time
from fractions import Fraction

import helpers
import oracles
from leakygames.csp import (consistency_game, csp_value_exact, edge_game,
                            find_low_value_instance, optimal_cheat)
from leakygames.games import (StrategyPair, chsh, classical_value,
                              strategy_value)
from leakygames.harness import (ChannelEvent, MeteredChannel, ProverBehavior,
                                behaviors_from_cheat_profile,
                                behaviors_from_leaky_strategy,
                                behaviors_from_strategy_pair,
                                estimate_acceptance, honest_csp_behaviors,
                                run_session, silent_rule)
from leakygames.leakage import (guess_and_abort_value, leaky_strategy_value,
                                leaky_value_exact, one_way_ab, one_way_ba)
from leakygames.repetition import repeat_game, repeated_exact_value

NO_LEAK = one_way_ab(0)


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def small_game_suite():
    """CHSH plus five seeded random 2x2x2x2 games."""
    rng = random.Random(31415)
    return [chsh()] + [helpers.random_game_exact(rng, 2, 2, 2, 2,
                                                 name=f"rand{i}")
                       for i in range(5)]


def test_criterion_1_exact_values_with_oracles():
    start = time.monotonic()
    g = chsh()
    value, witness = classical_value(g)
    assert value == Fraction(3, 4)
    oracle_value, oracle_pair = oracles.naive_classical_value(g)
    assert value == oracle_value
    assert (witness.alice, witness.bob) == oracle_pair

    rg = repeat_game(g, 2)
    rep_value, rep_witness = repeated_exact_value(rg)
    assert rep_value == Fraction(10, 16)
    oracle_rep, oracle_rep_pair = oracles.naive_classical_value(
        oracles.materialize(rg))
    assert rep_value == oracle_rep
    assert (rep_witness.alice, rep_witness.bob) == oracle_rep_pair

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report("1 exact values",
           f"chsh=3/4, chsh^2=10/16, oracle-matched, {elapsed:.1f}s")


def test_criterion_2_repetition_sandwich():
    start = time.monotonic()
    rng = random.Random(20260810)
    checked = 0
    attempts = 0
    while checked < 20:
        attempts += 1
        assert attempts < 500
        g = helpers.random_game(rng)
        x2, y2 = g.x_size ** 2, g.y_size ** 2
        a2, b2 = g.a_size ** 2, g.b_size ** 2
        pairs = a2 ** x2 * b2 ** y2
        work = a2 ** x2 * (x2 * y2 * b2)
        if pairs > 10 ** 8 or work > 3_000_000:
            continue  # the square must stay enumerable within budget
        base, _ = classical_value(g)
        squared, _ = repeated_exact_value(repeat_game(g, 2))
        assert base ** 2 <= squared <= base
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report("2 repetition sandwich",
           f"{checked} games, exact comparisons, {elapsed:.1f}s")


def test_criterion_3_guess_and_abort_identity():
    start = time.monotonic()
    strategies = 0
    for g in small_game_suite():
        for model in (one_way_ab(1), one_way_ba(1)):
            for s in oracles.iter_leaky_strategies(g, model):
                value = leaky_strategy_value(g, model, s)
                assert guess_and_abort_value(g, model, s) == value / 2
                strategies += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report("3 guess-and-abort identity",
           f"{strategies} one-bit strategies, exact halving, {elapsed:.1f}s")


def test_criterion_4_leakage_inflation_bound():
    games = small_game_suite()
    checked = 0
    for g in games:
        base, _ = classical_value(g)
        for bits in (0, 1, 2):
            cap = min(Fraction(1), (1 << bits) * base)
            for model in (one_way_ab(bits), one_way_ba(bits)):
                value, _ = leaky_value_exact(g, model)
                assert value <= cap
                checked += 1
    report("4 leakage inflation bound",
           f"{checked} (game, model) pairs, exact comparisons")


def test_criterion_5_csp_verifier_soundness():
    start = time.monotonic()

    pairs = []
    seed = 0
    while len(pairs) < 10:
        try:
            inst, val = find_low_value_instance(
                4, 3, 2, Fraction(1, 4), seed=seed,
                num_constraints=32, attempts=30)
        except Exception:
            seed += 1
            continue
        assert val <= Fraction(1, 4)
        assert val == csp_value_exact(inst)[0]
        pairs.append((inst, val))
        seed += 1
    for inst, _ in pairs:
        cheat, _ = optimal_cheat(inst, 1)
        assert cheat <= Fraction(3, 4)

    triples = []
    seed = 100
    while len(triples) < 3:
        try:
            inst, val = find_low_value_instance(
                7, 2, 3, Fraction(1, 4), seed=seed,
                num_constraints=42, attempts=60)
        except Exception:
            seed += 1
            continue
        assert val <= Fraction(1, 4)
        triples.append((inst, val))
        seed += 1
    for inst, _ in triples:
        cheat, _ = optimal_cheat(inst, 1)
        assert cheat <= 1 - Fraction(1, 6)

    elapsed = time.monotonic() - start
    assert elapsed < 1800.0
    report("5 verifier soundness",
           f"10 k=2 instances <= 3/4, 3 k=3 instances <= 5/6, {elapsed:.1f}s")


def test_criterion_6_perfect_completeness():
    sessions = 10 ** 4

    c, planted = helpers.satisfiable_csp(random.Random(777))
    assert csp_value_exact(c)[0] == 1
    behaviors = honest_csp_behaviors(c, planted)
    record = estimate_acceptance(c, behaviors, NO_LEAK, sessions, 5)
    assert record.accepted == sessions

    rng = random.Random(778)
    lc = helpers.satisfiable_label_cover(rng)
    game = consistency_game(lc)
    value, witness = classical_value(game)
    assert value == 1
    game_behaviors = behaviors_from_strategy_pair(witness)
    record2 = estimate_acceptance(game, game_behaviors, NO_LEAK, sessions, 6)
    assert record2.accepted == sessions
    sample = run_session(game, game_behaviors, NO_LEAK, seed=0)
    assert sample.verdict and not sample.leaks

    report("6 perfect completeness",
           f"2 x {sessions} honest sessions, 100% accept, zero leaked bits")


def test_criterion_7_conversion_consistency():
    rng = random.Random(90210)
    checked = 0
    while checked < 10:
        lc = helpers.random_label_cover(rng)
        val = oracles.naive_label_cover_value(lc)
        assert csp_value_exact(lc.to_csp())[0] == val
        assert classical_value(edge_game(lc))[0] == val
        cons_value, _ = classical_value(consistency_game(lc))
        assert cons_value <= (1 + val) / 2
        checked += 1
    report("7 conversion consistency",
           f"{checked} label covers, edge==val and consistency<=(1+val)/2")


def test_criterion_8_estimator_calibration():
    start = time.monotonic()
    rng = random.Random(2718)
    g1 = helpers.random_game(rng, 2, 2, 2, 2, name="cal1")
    g2 = helpers.random_game(rng, 2, 2, 2, 2, name="cal2")
    fixed_pair = StrategyPair(
        tuple(rng.randrange(g2.a_size) for _ in range(g2.x_size)),
        tuple(rng.randrange(g2.b_size) for _ in range(g2.y_size)))
    lowval, _ = find_low_value_instance(4, 3, 2, Fraction(1, 4), seed=11,
                                        num_constraints=32)
    cheat_value, cheat_profile = optimal_cheat(lowval, 1)
    leaky_model = one_way_ab(1)
    leaky_value, leaky_witness = leaky_value_exact(chsh(), leaky_model)

    cases = [
        ("chsh-best", chsh(), NO_LEAK,
         behaviors_from_strategy_pair(classical_value(chsh())[1]),
         classical_value(chsh())[0]),
        ("g1-best", g1, NO_LEAK,
         behaviors_from_strategy_pair(classical_value(g1)[1]),
         classical_value(g1)[0]),
        ("g2-fixed", g2, NO_LEAK,
         behaviors_from_strategy_pair(fixed_pair),
         strategy_value(g2, fixed_pair)),
        ("lowval-cheat", lowval, leaky_model,
         behaviors_from_cheat_profile(lowval, cheat_profile), cheat_value),
        ("chsh-leaky", chsh(), leaky_model,
         behaviors_from_leaky_strategy(leaky_model, leaky_witness),
         leaky_value),
    ]
    assert len(cases) == 5

    sessions = 10 ** 5
    for label, target, model, behaviors, exact in cases:
        hits = 0
        for master in range(100):
            record = estimate_acceptance(target, behaviors, model,
                                         sessions, master)
            if abs(record.estimate - float(exact)) <= 4 * record.half_width:
                hits += 1
        assert hits >= 99, f"{label}: only {hits}/100 inside 4 half-widths"
    elapsed = time.monotonic() - start
    report("8 estimator calibration",
           f"5 behaviors x 100 master seeds x 1e5 sessions, {elapsed:.1f}s")


def test_criterion_9_meter_soundness():
    model = one_way_ab(1)
    _, witness = leaky_value_exact(chsh(), model)
    honest_first, second = behaviors_from_leaky_strategy(model, witness)

    # (a) a behavior that always tries budget+1 bits never gets anything
    # through: flagged, rejected, and the session verdict is reject
    greedy = (ProverBehavior(honest_first.answer_rule,
                             lambda x: honest_first.leak_rule(x) + "1",
                             "first"), second)
    for seed in range(50):
        t = run_session(chsh(), greedy, model, seed=seed)
        assert t.overflow and not t.verdict
        assert not t.leaks
        assert sum(len(e.payload) for e in t.leaks) == 0

    # (b) padding across repeated sends: the meter is cumulative per
    # direction and never lets spent exceed budget
    ch = MeteredChannel(budget_ab=3, budget_ba=1)
    assert ch.send("ab", "10") == "10"
    assert ch.send("ab", "1") == "1"
    assert ch.send("ab", "0") is None
    assert ch.send("ab", "") == ""
    assert ch.spent_ab == 3 and ch.overflowed
    assert ch.send("ba", "11") is None
    assert ch.spent_ba == 0

    # (c) the channel surface carries payload bits and nothing else
    assert [f.name for f in dataclasses.fields(ChannelEvent)] == \
        ["direction", "payload"]
    delivered = MeteredChannel(2, 0).send("ab", "01")
    assert type(delivered) is str and delivered == "01"

    # (d) zero-budget sessions reject any 1-bit attempt while empty
    # payloads stay legal
    chatty = (ProverBehavior(lambda x, m: 0, lambda x: "1", "first"),
              ProverBehavior(lambda y, m: 0, silent_rule, "second"))
    t = run_session(chsh(), chatty, NO_LEAK, seed=1)
    assert t.overflow and not t.verdict
    quiet = (ProverBehavior(lambda x, m: 0, lambda x: "", "first"),
             ProverBehavior(lambda y, m: 0, silent_rule, "second"))
    t2 = run_session(chsh(), quiet, NO_LEAK, seed=1)
    assert not t2.overflow

    report("9 meter soundness",
           "overflow rejected+flagged, cumulative budgets hold, "
           "payload-only surface")
