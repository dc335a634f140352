"""Protocol sessions, channel metering, transcripts, and the estimator."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import pickle
import random
import sys
import threading
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

import helpers
from leakygames import cli, harness
from leakygames.csp import (CheatProfile, Constraint, CspInstance,
                            cheat_acceptance, csp_value_exact, load_instance,
                            optimal_cheat)
from leakygames.errors import BudgetExceededError, InvalidInputError
from leakygames.games import (Game, StrategyPair, chsh, classical_value,
                              make_game)
from leakygames.harness import (ChannelEvent, ExperimentRecord,
                                IdentifierMismatchError,
                                MalformedBehaviorError, MeteredChannel,
                                ProverBehavior, _below, _below_np,
                                behaviors_from_cheat_profile,
                                behaviors_from_leaky_strategy,
                                behaviors_from_strategy_pair,
                                estimate_acceptance, honest_csp_behaviors,
                                instance_id, replay_verify, run_session,
                                session_seed, silent_rule, splitmix64)
from leakygames.leakage import (LeakageKind, LeakyStrategy,
                                leaky_strategy_value, leaky_value_exact,
                                one_way_ab, one_way_ba, simultaneous)
from leakygames.repetition import repeat_game, repeated_exact_value

NO_LEAK = one_way_ab(0)
FIXTURES = resources.files("leakygames") / "fixtures"


def best_chsh_behaviors():
    return behaviors_from_strategy_pair(classical_value(chsh())[1])


# -- rng ---------------------------------------------------------------------


def test_splitmix64_reference_values():
    # frozen outputs pin the generator across platforms and versions
    assert splitmix64(0, 0) == 16294208416658607535
    assert splitmix64(0, 1) == 7960286522194355700
    assert splitmix64(42, 0) == 13679457532755275413
    assert session_seed(42, 0) == splitmix64(42, 0)


def test_vectorized_splitmix_matches_scalar():
    # a modulus of 2^64 rejects nothing and keeps every bit of the draw
    seeds = np.array([0, 1, 42, 2**64 - 1], dtype=np.uint64)
    for draw in (0, 3, 7):
        vec, redrawn = _below_np(seeds, draw, 2**64)
        assert len(redrawn) == 0
        assert vec.tolist() == [splitmix64(s, draw) for s in seeds.tolist()]


def draw_both(master, count, n, draw, out=None, tmp=None):
    """Draw modulus n at counter ``draw`` for sessions 0..count-1 of
    ``master`` through _below_np and through _below: the residues agree,
    and the redrawn sessions are those whose scalar draw read past
    ``draw``.  Returns the residues and the redrawn sessions."""
    seeds = np.array([session_seed(master, i) for i in range(count)],
                     dtype=np.uint64)
    vec, redrawn = _below_np(seeds, draw, n, out, tmp)
    scalar = [_below(seed, draw, n) for seed in seeds.tolist()]
    assert vec.tolist() == [residue for residue, _ in scalar]
    assert redrawn.tolist() == [i for i, (_, counter) in enumerate(scalar)
                                if counter > draw + 1]
    return vec, redrawn


def test_vectorized_below_matches_scalar():
    # powers of two take the mask and never reject; the other moduli here
    # reject with odds below 2^-50
    for n in (1, 2, 3, 4, 7, 1000, 2**16, 2**63):
        for draw in (0, 1):
            assert len(draw_both(9, 50, n, draw)[1]) == 0


@pytest.mark.parametrize("n", [3 * 2**61, 2**63 + 1],
                         ids=["quarter", "half"])
def test_vectorized_below_rejections_match_scalar(n):
    # rejection chances 1/4 and about 1/2: the redrawn sessions keep their
    # residues in step with the scalar stream, at draws 0 and 1, through
    # repeated rejections
    out, tmp = np.empty((2, 3000), dtype=np.uint64)
    for draw in (0, 1):
        vec, redrawn = draw_both(31, 3000, n, draw, out, tmp)
        assert vec is out and len(redrawn) > 500


def unmix(z):
    """The seed s with splitmix64(s, 0) == z: the finalizer's xor-shifts
    and odd multipliers are each invertible mod 2^64."""
    mask = 2**64 - 1
    for shift, mult in ((31, None), (27, 0x94D049BB133111EB),
                        (30, 0xBF58476D1CE4E5B9)):
        if mult is not None:
            z = z * pow(mult, -1, 2**64) & mask
        x = z
        for _ in range(64 // shift + 1):
            x = z ^ (x >> shift)
        z = x
    return (z - 0x9E3779B97F4A7C15) & mask


def test_estimator_reads_a_rejected_constraint_draws_position_late():
    # session 0's stream draws 2^64 - 1 first, the one value _below rejects
    # for m = 3, so run_session reads the constraint at counter 1 and the
    # position at counter 2; the behaviors accept at position 0 only, and
    # the two counters give different positions, so an estimator reading
    # the position at counter 1 counts that session wrongly
    seed = unmix(2**64 - 1)
    master = unmix(seed)
    assert session_seed(master, 0) == seed
    assert [_below(seed, 0, 3)[1], splitmix64(seed, 2) % 2,
            splitmix64(seed, 1) % 2] == [2, 0, 1]
    every = tuple(itertools.product(range(2), repeat=2))
    c = CspInstance(3, 2, 2, tuple(Constraint(scope, every)
                                   for scope in ((0, 1), (1, 2), (2, 0))))
    behaviors = (ProverBehavior(lambda e, _m: (0, 1), silent_rule, "first"),
                 ProverBehavior(lambda v, _m: 0, silent_rule, "second"))
    t = run_session(c, behaviors, NO_LEAK, seed)
    assert (t.position, t.verdict) == (0, True)
    assert estimate_acceptance(c, behaviors, NO_LEAK, 1, master).accepted == 1
    for sessions in (2, 1000):
        assert (estimate_acceptance(c, behaviors, NO_LEAK, sessions, master)
                == estimate_acceptance(c, behaviors, NO_LEAK, sessions,
                                       master, fast=False))


# -- sessions ----------------------------------------------------------------


def test_session_deterministic_and_replayable():
    behaviors = best_chsh_behaviors()
    t1 = run_session(chsh(), behaviors, NO_LEAK, seed=123)
    t2 = run_session(chsh(), behaviors, NO_LEAK, seed=123)
    assert t1 == t2
    assert t1.to_json() == t2.to_json()
    assert replay_verify(t1, chsh())
    # run_session fills the transcript's dict in place of the frozen
    # __init__: it is the transcript __init__ builds from the same fields
    rebuilt = dataclasses.replace(t1)
    assert rebuilt == t1 and hash(rebuilt) == hash(t1)
    assert repr(rebuilt) == repr(t1) and pickle.loads(pickle.dumps(t1)) == t1
    assert list(vars(t1)) == [f.name for f in dataclasses.fields(t1)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        t1.verdict = False
    # so does MeteredChannel.send for its events, delivered or rejected
    channel = MeteredChannel(1, 0)
    channel.send("ab", "1"), channel.send("ab", "0"), channel.send("ba", "1")
    for event, fields in ((channel.events[0], ("ab", "1")),
                          (channel.rejected[0], ("ab", "0")),
                          (channel.rejected[1], ("ba", "1"))):
        built = ChannelEvent(*fields)
        assert event == built and hash(event) == hash(built)
        assert repr(event) == repr(built)
        assert pickle.loads(pickle.dumps(event)) == built
        assert list(vars(event)) == ["direction", "payload"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.payload = "0"


def test_tampered_transcript_fails_replay():
    behaviors = best_chsh_behaviors()
    for seed in range(20):
        t = run_session(chsh(), behaviors, NO_LEAK, seed=seed)
        tampered = dataclasses.replace(t, answer_second=1 - t.answer_second)
        if chsh().wins(t.question_first, t.question_second, t.answer_first,
                       tampered.answer_second) != t.verdict:
            assert not replay_verify(tampered, chsh())
            break
    else:
        pytest.fail("no tampering flipped the predicate")


def test_replay_identifier_mismatch():
    t = run_session(chsh(), best_chsh_behaviors(), NO_LEAK, seed=1)
    other, _ = helpers.satisfiable_csp(random.Random(0))
    with pytest.raises(IdentifierMismatchError):
        replay_verify(t, other)


def lowval_k2():
    return load_instance((FIXTURES / "lowval_k2.csp").read_text())


def test_replay_refuses_transcripts_no_session_produces():
    # a negative answer or position would index from the end of the
    # target's tables, and a question or position past its sizes past them;
    # no session samples a zero-weight question pair, where the predicate
    # is kept but never counts; such a transcript is refused as invalid
    # input, like one of another target, instead of being judged
    g, c = chsh(), lowval_k2()
    z = make_game("z", 2, 2, 2, 2, [1, 0, 1, 1], lambda x, y, a, b:
                  (a ^ b) == (x & y))
    game = run_session(g, best_chsh_behaviors(), NO_LEAK, seed=1)
    session = run_session(c, behaviors_from_cheat_profile(
        c, optimal_cheat(c, 1)[1]), one_way_ab(1), seed=1)
    scope = c.constraints[session.question_first].scope
    other = next(v for v in range(c.num_vars) if v not in scope)
    zero_weight = dataclasses.replace(
        run_session(z, best_chsh_behaviors(), NO_LEAK, seed=1),
        question_first=0, question_second=1, answer_first=0,
        answer_second=0, verdict=True)
    cases = [(g, game, {"answer_second": -1}),
             (g, game, {"question_first": 2}),
             (g, game, {"answer_first": True}), (c, session, {"position": -1}),
             (c, session, {"position": 5}),
             (c, session, {"question_second": other}),
             (c, session, {"answer_first": session.answer_first[:1]}),
             (z, zero_weight, {})]
    assert issubclass(MalformedBehaviorError, InvalidInputError)
    for target, transcript, change in cases:
        with pytest.raises(MalformedBehaviorError):
            replay_verify(dataclasses.replace(transcript, **change), target)
    assert replay_verify(game, g) and replay_verify(session, c)
    assert replay_verify(dataclasses.replace(zero_weight, question_second=0),
                         z)


def recording_behaviors(log, leaks=("1", "0")):
    """A prover pair that logs every rule call as (prover, rule, question,
    heard bits), leaks ``leaks`` and answers 0."""
    def behavior(role, payload):
        def leak(q):
            log.append((role, "leak", q, None))
            return payload

        def answer(q, heard):
            log.append((role, "answer", q, heard))
            return 0
        return ProverBehavior(answer, leak, role)
    return behavior("first", leaks[0]), behavior("second", leaks[1])


@pytest.mark.parametrize("model, leaks, heard", [
    (one_way_ab(1), ("1", "0"), {"first": "", "second": "1"}),
    (one_way_ba(1), ("1", "0"), {"first": "0", "second": ""}),
    (simultaneous(1, 1), ("1", "0"), {"first": "0", "second": "1"}),
    # an overflowed send reaches its receiver as ""
    (one_way_ab(1), ("11", "0"), {"first": "", "second": ""}),
    (simultaneous(1, 1), ("1", "00"), {"first": "", "second": "1"}),
])
def test_message_schedule(model, leaks, heard):
    # each prover the model lets speak sends from its own question, ab
    # before ba; a silent prover's leak rule is never called; then each
    # answers the other's delivered payload only
    speakers = {"first": model.kind is not LeakageKind.ONE_WAY_BA,
                "second": model.kind is not LeakageKind.ONE_WAY_AB}
    for seed in range(8):
        log = []
        t = run_session(chsh(), recording_behaviors(log, leaks), model, seed)
        questions = {"first": t.question_first,
                     "second": t.question_second}
        calls = {(role, rule): (q, bits) for role, rule, q, bits in log}
        assert len(calls) == len(log)  # each rule is called at most once
        for role, q in questions.items():
            assert ((role, "leak") in calls) == speakers[role]
            if speakers[role]:
                assert calls[role, "leak"] == (q, None)
            assert calls[role, "answer"] == (q, heard[role])
        sent = [e.direction for e in t.leaks + t.rejected]
        assert sent == sorted(sent)  # ab before ba
        assert sent == [d for d, role in (("ab", "first"), ("ba", "second"))
                        if speakers[role]]


def test_leaky_session_matches_strategy_value_per_cell():
    g = chsh()
    model = one_way_ab(1)
    _, witness = leaky_value_exact(g, model)
    behaviors = behaviors_from_leaky_strategy(model, witness)
    for seed in range(30):
        t = run_session(g, behaviors, model, seed=seed)
        x, y = t.question_first, t.question_second
        a = witness.alice_ans[x][witness.bob_msg[y]]
        b = witness.bob_ans[y][witness.alice_msg[x]]
        assert (t.answer_first, t.answer_second) == (a, b)
        assert t.verdict == g.wins(x, y, a, b)
        assert not t.overflow


def test_simultaneous_session_flow():
    g = chsh()
    model = simultaneous(1, 1)
    s = LeakyStrategy((0, 1), (0, 1),
                      ((0, 0), (0, 1)), ((0, 0), (0, 1)))
    behaviors = behaviors_from_leaky_strategy(model, s)
    cell_verdicts = {}
    for seed in range(120):
        t = run_session(g, behaviors, model, seed=seed)
        x, y = t.question_first, t.question_second
        a = s.alice_ans[x][s.bob_msg[y]]
        b = s.bob_ans[y][s.alice_msg[x]]
        assert (t.answer_first, t.answer_second) == (a, b)
        cell_verdicts[(x, y)] = t.verdict
    assert len(cell_verdicts) == 4
    session_value = sum(Fraction(1, 4) for v in cell_verdicts.values() if v)
    assert session_value == leaky_strategy_value(g, model, s)


def test_one_way_ba_session():
    g = chsh()
    model = one_way_ba(1)
    _, witness = leaky_value_exact(g, model)
    behaviors = behaviors_from_leaky_strategy(model, witness)
    for seed in range(10):
        t = run_session(g, behaviors, model, seed=seed)
        assert t.verdict  # the 1-bit witness wins every cell
        assert t.leaks and t.leaks[0].direction == "ba"


def test_csp_session_honest_accepts():
    c, planted = helpers.satisfiable_csp(random.Random(3))
    assert csp_value_exact(c)[0] == 1
    behaviors = honest_csp_behaviors(c, planted)
    for seed in range(25):
        t = run_session(c, behaviors, NO_LEAK, seed=seed)
        assert t.verdict and not t.leaks
        assert replay_verify(t, c)


def recording(behaviors, calls):
    """The behaviors, appending each rule call to ``calls``."""
    def rec(rule, what):
        return lambda *args: calls.append(what) or rule(*args)
    return tuple(ProverBehavior(rec(p.answer_rule, "answer"),
                                rec(p.leak_rule, "leak"), p.role)
                 for p in behaviors)


def test_csp_session_rejects_other_models(monkeypatch, tmp_path, capsys):
    # sessions, both estimator paths and the CLI refuse the model once per
    # call, before any draw or behavior call
    c, planted = helpers.satisfiable_csp(random.Random(3))
    calls = []
    behaviors = recording(honest_csp_behaviors(c, planted), calls)
    for model in (one_way_ba(1), simultaneous(1, 1)):
        with pytest.raises(InvalidInputError, match="one-way ab"):
            run_session(c, behaviors, model, seed=0)
        for fast in (True, False):
            with pytest.raises(InvalidInputError, match="one-way ab"):
                estimate_acceptance(c, behaviors, model, 100, 0, fast=fast)
    cheat = harness.behaviors_from_cheat_profile
    monkeypatch.setattr(harness, "behaviors_from_cheat_profile",
                        lambda *args: recording(cheat(*args), calls))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "kind": "csp", "path": str(FIXTURES / "lowval_k2.csp"),
        "behavior": "cheat", "sessions": 100,
        "model": {"kind": "one-way-ba", "bits_ba": 1}}))
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "run", str(config)]) == \
        cli.EXIT_INVALID
    assert "csp sessions support one-way ab leakage only" in \
        capsys.readouterr().err
    assert calls == [] and not out.exists()
    # a silent model of another kind leaks nothing, so it may play
    assert run_session(c, behaviors, one_way_ba(0), seed=0).verdict
    assert calls


def test_sessions_refuse_swapped_behaviors():
    # the estimator refuses a swapped pair as a session does, before it
    # scores any question cell
    first, second = best_chsh_behaviors()
    with pytest.raises(InvalidInputError, match="first, second"):
        run_session(chsh(), (second, first), NO_LEAK, 7)
    with pytest.raises(InvalidInputError, match="first, second"):
        estimate_acceptance(chsh(), (second, first), NO_LEAK, 1000, 7)


@pytest.mark.parametrize("shape", [
    "one", "three", "strings", "none", "not-a-behavior"])
def test_sessions_refuse_behaviors_that_are_not_a_pair(shape):
    # these ended in an IndexError, a ValueError, two AttributeErrors and a
    # TypeError
    first, second = best_chsh_behaviors()
    behaviors = {"one": (first,), "three": (first, second, second),
                 "strings": ("a", "b"), "none": None,
                 "not-a-behavior": (first, second.answer_rule)}[shape]
    with pytest.raises(InvalidInputError, match="^behaviors must be"):
        run_session(chsh(), behaviors, NO_LEAK, 7)
    for fast in (True, False):
        with pytest.raises(InvalidInputError, match="^behaviors must be"):
            estimate_acceptance(chsh(), behaviors, NO_LEAK, 100, 7, fast=fast)


def test_sessions_refuse_a_label_cover():
    # instance_id names a label cover, but no session can play one
    lc = helpers.random_label_cover(random.Random(17))
    assert instance_id(lc).startswith("label-cover:")
    behaviors = best_chsh_behaviors()
    with pytest.raises(InvalidInputError, match="label cover"):
        run_session(lc, behaviors, NO_LEAK, 7)
    with pytest.raises(InvalidInputError, match="label cover"):
        estimate_acceptance(lc, behaviors, NO_LEAK, 1000, 7)


def test_malformed_answers_raise():
    bad = (ProverBehavior(lambda x, m: 99, silent_rule, "first"),
           ProverBehavior(lambda y, m: 0, silent_rule, "second"))
    with pytest.raises(MalformedBehaviorError):
        run_session(chsh(), bad, NO_LEAK, seed=0)
    bad_type = (ProverBehavior(lambda x, m: "zero", silent_rule, "first"),
                ProverBehavior(lambda y, m: 0, silent_rule, "second"))
    with pytest.raises(MalformedBehaviorError):
        run_session(chsh(), bad_type, NO_LEAK, seed=0)


# -- metering ----------------------------------------------------------------


def test_overflow_attempt_rejected_and_flagged():
    # winning leaky behavior, but the model grants zero bits
    model = one_way_ab(1)
    _, witness = leaky_value_exact(chsh(), model)
    first, second = behaviors_from_leaky_strategy(model, witness)
    over = (ProverBehavior(first.answer_rule,
                           lambda x: first.leak_rule(x) + "0", "first"),
            second)
    for seed in range(10):
        t = run_session(chsh(), over, model, seed=seed)
        assert t.overflow
        assert not t.verdict
        assert t.rejected and len(t.rejected[0].payload) == 2
        assert not t.leaks
        assert replay_verify(t, chsh())


def test_channel_cumulative_budget():
    ch = MeteredChannel(budget_ab=2, budget_ba=0)
    assert ch.send("ab", "1") == "1"
    assert ch.send("ab", "0") == "0"
    assert ch.send("ab", "1") is None  # third bit over budget
    assert ch.overflowed
    assert ch.spent_ab == 2
    assert ch.send("ba", "") == ""     # empty payload is free
    assert ch.send("ba", "1") is None
    assert ch.spent_ba == 0


def test_channel_payload_validation():
    ch = MeteredChannel(4, 4)
    with pytest.raises(MalformedBehaviorError):
        ch.send("ab", "2")
    with pytest.raises(MalformedBehaviorError):
        ch.send("ab", 7)  # type: ignore[arg-type]
    # a bad character between good ones, and trailing blanks, are refused
    for payload in ("0x1", "01 ", " 0", "1\n", "0\u0661"):
        with pytest.raises(MalformedBehaviorError):
            ch.send("ab", payload)
    assert ch.spent_ab == 0 and not ch.events
    with pytest.raises(InvalidInputError):
        ch.send("sideways", "0")


def test_channel_exposes_only_payload():
    # the event record carries direction and payload, nothing else
    assert [f.name for f in dataclasses.fields(ChannelEvent)] == \
        ["direction", "payload"]
    ch = MeteredChannel(1, 0)
    delivered = ch.send("ab", "1")
    assert type(delivered) is str


# -- estimation --------------------------------------------------------------


def test_estimator_fast_matches_scalar_game():
    behaviors = best_chsh_behaviors()
    fast = estimate_acceptance(chsh(), behaviors, NO_LEAK, 3000, 7, fast=True)
    slow = estimate_acceptance(chsh(), behaviors, NO_LEAK, 3000, 7,
                               fast=False)
    assert fast == slow


def test_estimator_fast_matches_scalar_csp():
    c, planted = helpers.satisfiable_csp(random.Random(5))
    _, profile = optimal_cheat(c, 1)
    behaviors = behaviors_from_cheat_profile(c, profile)
    fast = estimate_acceptance(c, behaviors, one_way_ab(1), 2000, 11,
                               fast=True)
    slow = estimate_acceptance(c, behaviors, one_way_ab(1), 2000, 11,
                               fast=False)
    assert fast == slow


def heavy_chsh(name, weights):
    """CHSH's predicate under integer question weights."""
    return make_game(name, 2, 2, 2, 2, weights,
                     lambda x, y, a, b: (a ^ b) == (x & y))


# answers a = x, b = 0: every cell but (1, 0) wins, so on the heavy games
# below about a third of the draws lose, and a redraw that lands on another
# cell than the scalar path's moves the count (the classical optimum loses
# only the lightest cell, so every redraw would accept)
LOSES_1_0 = behaviors_from_strategy_pair(StrategyPair((0, 1), (0, 0)))


def test_estimator_fast_matches_scalar_with_rejections():
    # weight total 3 * 2^61: cells found by searchsorted, and a quarter of
    # the draws rejected and drawn again
    g = heavy_chsh("heavy", [1, 2**61, 2**61, 2**61 - 1])
    assert g.int_weights()[1] == 3 * 2**61
    fast = estimate_acceptance(g, LOSES_1_0, NO_LEAK, 3000, 19, fast=True)
    slow = estimate_acceptance(g, LOSES_1_0, NO_LEAK, 3000, 19, fast=False)
    assert fast == slow
    assert 0.6 < fast.estimate < 0.73  # 2/3 expected


def test_estimator_fast_matches_scalar_past_2_63():
    # weight total 3 * 2^62 + 12345: past int64, still drawn and looked up
    # in uint64, with a quarter of the draws rejected
    g = heavy_chsh("heavier", [2**62, 2**62, 2**62, 12345])
    assert 2**63 <= g.int_weights()[1] == 3 * 2**62 + 12345
    fast = estimate_acceptance(g, LOSES_1_0, NO_LEAK, 3000, 23, fast=True)
    slow = estimate_acceptance(g, LOSES_1_0, NO_LEAK, 3000, 23, fast=False)
    assert fast == slow
    assert 0.6 < fast.estimate < 0.73  # 2/3 expected


def test_weight_totals_past_64_bits_are_refused():
    # from 2^64 up the cumulative weights overflow uint64, and past 2^64
    # the rejection limit of 64-bit draws is 0, so sampling would never end
    g = make_game("huge", 1, 2, 2, 2, [2**64 - 1, 1],
                  lambda x, y, a, b: a == b)
    assert g.int_weights()[1] == 2**64
    behaviors = behaviors_from_strategy_pair(classical_value(g)[1])
    with pytest.raises(InvalidInputError, match="65 bits"):
        run_session(g, behaviors, NO_LEAK, 0)
    for fast in (True, False):
        with pytest.raises(InvalidInputError, match="65 bits"):
            estimate_acceptance(g, behaviors, NO_LEAK, 10, 0, fast=fast)


def test_estimator_chunks_match_one_chunk(monkeypatch):
    # sessions sampled in many small chunks draw exactly as in one chunk;
    # chunks below a game's weight total (4, 16 and 37 here) look cells up
    # by searchsorted, the others read the per-residue verdict table
    behaviors = best_chsh_behaviors()
    c, _ = helpers.satisfiable_csp(random.Random(6))
    csp_behaviors = behaviors_from_cheat_profile(c, optimal_cheat(c, 1)[1])
    square = repeat_game(chsh(), 2)
    g = helpers.random_game_exact(random.Random(3), 5, 5, 3, 3)
    model = one_way_ab(1)
    cases = [(chsh(), behaviors, NO_LEAK),
             (c, csp_behaviors, model),
             (square, behaviors_from_strategy_pair(
                 repeated_exact_value(square)[1]), NO_LEAK),
             (g, behaviors_from_leaky_strategy(
                 model, leaky_value_exact(g, model)[1]), model)]
    assert [t.int_weights()[1] for t, _, _ in cases[2:]] == [16, 37]
    reference = [estimate_acceptance(t, b, m, 2500, 17) for t, b, m in cases]
    for chunk in (1, 7, 16, 17, 37, 1000):
        monkeypatch.setattr(harness, "SESSION_CHUNK", chunk)
        for (target, behav, model), record in zip(cases, reference):
            assert estimate_acceptance(target, behav, model, 2500,
                                       17) == record


def test_estimator_chunks_match_scalar(monkeypatch):
    # 16 chunks of 64 sessions, the last one cut short: CHSH, a csp cheat
    # (two draws per session), and weight totals 3 * 2^61 and
    # 3 * 2^62 + 12345 (searchsorted, a quarter rejected, a heavy cell
    # lost); a count lost at a chunk edge or a wrong redraw moves the record
    monkeypatch.setattr(harness, "SESSION_CHUNK", 64)
    c, _ = helpers.satisfiable_csp(random.Random(5))
    cases = [(chsh(), best_chsh_behaviors(), NO_LEAK),
             (c, behaviors_from_cheat_profile(c, optimal_cheat(c, 1)[1]),
              one_way_ab(1))]
    for g in (heavy_chsh("heavy", [1, 2**61, 2**61, 2**61 - 1]),
              heavy_chsh("heavier", [2**62, 2**62, 2**62, 12345])):
        cases.append((g, LOSES_1_0, NO_LEAK))
    for target, behaviors, model in cases:
        fast = estimate_acceptance(target, behaviors, model, 1000, 29)
        assert fast == estimate_acceptance(target, behaviors, model,
                                           1000, 29, fast=False)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_estimator_workers_match_scalar(monkeypatch, workers):
    # 1-3 and 8 caller threads estimate the same targets at once, with
    # threads switched as often as the interpreter allows: every chunk's
    # buffers and count belong to its call and the shared support cache is
    # filled once, so each caller gets the scalar record
    monkeypatch.setattr(harness, "SESSION_CHUNK", 64)
    c, _ = helpers.satisfiable_csp(random.Random(5))
    cases = [(chsh(), best_chsh_behaviors(), NO_LEAK),
             (c, behaviors_from_cheat_profile(c, optimal_cheat(c, 1)[1]),
              one_way_ab(1))]
    for g in (heavy_chsh("heavy", [1, 2**61, 2**61, 2**61 - 1]),
              heavy_chsh("heavier", [2**62, 2**62, 2**62, 12345])):
        cases.append((g, LOSES_1_0, NO_LEAK))
    reference = [estimate_acceptance(t, b, m, 1000, 29, fast=False)
                 for t, b, m in cases]
    results = [None] * workers
    errors = []

    def work(i):
        try:
            results[i] = [estimate_acceptance(t, b, m, 1000, 29)
                          for t, b, m in cases]
        except BaseException as exc:  # reported in the main thread
            errors.append(exc)
    threads = [threading.Thread(target=work, args=(i,))
               for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [reference] * workers


def test_estimator_samples_in_the_calling_thread(monkeypatch):
    # every chunk is drawn by the caller, and no thread is started
    monkeypatch.setattr(harness, "SESSION_CHUNK", 64)

    def start(self):
        raise AssertionError("the estimator started a thread")
    monkeypatch.setattr(threading.Thread, "start", start)
    samplers = []
    original = harness._below_np

    def below(*args, **kwargs):
        samplers.append(threading.get_ident())
        return original(*args, **kwargs)
    monkeypatch.setattr(harness, "_below_np", below)
    estimate_acceptance(chsh(), best_chsh_behaviors(), NO_LEAK, 1000, 3)
    assert samplers == [threading.get_ident()] * 16


def test_estimator_sampling_errors_propagate(monkeypatch):
    # an error in the third chunk's sampling leaves estimate_acceptance,
    # and no later chunk is drawn
    monkeypatch.setattr(harness, "SESSION_CHUNK", 64)
    calls = []
    original = harness._below_np

    def below(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("sampling failed")
        return original(*args, **kwargs)
    monkeypatch.setattr(harness, "_below_np", below)
    with pytest.raises(RuntimeError, match="sampling failed"):
        estimate_acceptance(chsh(), best_chsh_behaviors(), NO_LEAK, 1000, 3)
    assert len(calls) == 3


@pytest.mark.parametrize("kind", ["game", "csp"])
def test_estimator_memory_is_bounded_by_the_chunk(kind):
    # the traced peak stays within one chunk's buffers (seeds, draws,
    # scratch and a csp's second draws), the step table and one more
    # chunk-sized uint64 array, and sixteen chunks of sessions peak no
    # higher than one: every chunk reuses the same buffers
    if kind == "csp":
        target, _ = helpers.satisfiable_csp(random.Random(6))
        model = one_way_ab(1)
        behaviors = behaviors_from_cheat_profile(
            target, optimal_cheat(target, 1)[1])
    else:
        target, model, behaviors = chsh(), NO_LEAK, best_chsh_behaviors()
    estimate_acceptance(target, behaviors, model, 10, 0)  # warm the caches
    peaks = []
    for chunks in (1, 16):
        tracemalloc.start()
        try:
            estimate_acceptance(target, behaviors, model,
                                chunks * harness.SESSION_CHUNK, 5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= (5 + (kind == "csp")) * 8 * harness.SESSION_CHUNK
    assert peaks[1] <= peaks[0] + 4096


def test_estimator_refuses_sessions_past_cap():
    with pytest.raises(BudgetExceededError):
        estimate_acceptance(chsh(), best_chsh_behaviors(), NO_LEAK,
                            harness.SESSION_CAP + 1, 3)


def pinned_targets():
    """CHSH, CHSH^2, a 5x5x3x3 game (weight total 37) and lowval_k2 under
    its leak-1 cheat, each with the behaviors the estimator runs."""
    square = repeat_game(chsh(), 2)
    g = helpers.random_game_exact(random.Random(3), 5, 5, 3, 3)
    c = lowval_k2()
    model = one_way_ab(1)
    return {"chsh": (chsh(), best_chsh_behaviors(), NO_LEAK),
            "chsh2": (square, behaviors_from_strategy_pair(
                repeated_exact_value(square)[1]), NO_LEAK),
            "g5533": (g, behaviors_from_leaky_strategy(
                model, leaky_value_exact(g, model)[1]), model),
            "lowval_k2": (c, behaviors_from_cheat_profile(
                c, optimal_cheat(c, 1)[1]), model)}


# accepted counts of 200 001 sessions, frozen from the counter-array kernel
PINNED_ACCEPTED = {
    ("chsh", 0): 149946, ("chsh", 2**64 - 1): 150183,
    ("chsh2", 0): 125173, ("chsh2", 2**64 - 1): 125082,
    ("g5533", 0): 194711, ("g5533", 2**64 - 1): 194526,
    ("lowval_k2", 0): 137268, ("lowval_k2", 2**64 - 1): 137846,
}


def test_estimator_pinned_counts():
    targets = pinned_targets()
    for (name, master), accepted in PINNED_ACCEPTED.items():
        target, behaviors, model = targets[name]
        record = estimate_acceptance(target, behaviors, model, 200_001,
                                     master)
        assert record.accepted == accepted, name


def test_estimator_samples_through_the_module_helpers(monkeypatch):
    # the traced benchmark rebinds these two names to time all sampling
    calls = {"_session_seeds_np": 0, "_below_np": 0}
    for name in calls:
        original = getattr(harness, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    targets = pinned_targets()
    chunks = 3
    sessions = chunks * harness.SESSION_CHUNK
    for name, draws in (("chsh", 1), ("lowval_k2", 2)):
        target, behaviors, model = targets[name]
        before = dict(calls)
        estimate_acceptance(target, behaviors, model, sessions, 4)
        assert calls["_session_seeds_np"] - before["_session_seeds_np"] \
            == chunks
        assert calls["_below_np"] - before["_below_np"] == chunks * draws


def test_estimator_matches_sessions_exactly():
    behaviors = best_chsh_behaviors()
    record = estimate_acceptance(chsh(), behaviors, NO_LEAK, 500, 13)
    accepted = sum(
        run_session(chsh(), behaviors, NO_LEAK,
                    seed=session_seed(13, i)).verdict
        for i in range(500))
    assert record.accepted == accepted


def count_plays(monkeypatch):
    """Record each question cell run_session plays: (x, y) for a game,
    (e, pos) for a csp."""
    played = []
    for name in ("_play_game", "_play_csp"):
        original = getattr(harness, name)

        def play(*args, original=original):
            played.append(args[3:])
            return original(*args)
        monkeypatch.setattr(harness, name, play)
    return played


def test_scalar_estimator_plays_each_session(monkeypatch):
    # fast=False is the reference: each session is one run_session and no
    # verdict table is built; run_session plays a cell at its first
    # session only, so 50 sessions and 50 more play CHSH's four cells once
    runs = []
    original = harness.run_session

    def run(*args):
        runs.append(args[3])
        return original(*args)

    def vector(*args):
        raise AssertionError("fast=False called _count_np")
    monkeypatch.setattr(harness, "run_session", run)
    monkeypatch.setattr(harness, "_count_np", vector)
    played = count_plays(monkeypatch)
    behaviors = best_chsh_behaviors()
    record = estimate_acceptance(chsh(), behaviors, NO_LEAK, 50, 13,
                                 fast=False)
    seeds = [session_seed(13, i) for i in range(50)]
    assert runs == seeds
    sessions = [original(chsh(), behaviors, NO_LEAK, seed) for seed in seeds]
    cells = [(t.question_first, t.question_second) for t in sessions]
    assert played == list(dict.fromkeys(cells)) and len(played) == 4
    assert record.accepted == sum(t.verdict for t in sessions)


def fresh_copy(behaviors):
    """Equal behaviors, with nothing played yet."""
    return tuple(dataclasses.replace(b) for b in behaviors)


def test_sessions_play_each_cell_once_per_pair_target_and_model(monkeypatch):
    # a play is kept per (behavior pair, target, model): an equal target
    # reuses it, and another target, model or second behavior plays afresh;
    # every transcript is the one a pair with nothing kept would write
    played = count_plays(monkeypatch)
    behaviors = best_chsh_behaviors()
    other_second = behaviors_from_strategy_pair(
        StrategyPair((0, 0), (1, 1)))[1]
    g = helpers.random_game_exact(random.Random(4), 2, 2, 2, 2)
    c, planted = helpers.satisfiable_csp(random.Random(6))
    csp_pair = honest_csp_behaviors(c, planted)
    seeds = [session_seed(5, i) for i in range(40)]

    def sessions(target, pair, model):
        out = [run_session(target, pair, model, seed) for seed in seeds]
        plays = list(played)
        fresh = [run_session(target, fresh_copy(pair), model, seed)
                 for seed in seeds]
        assert [(t, t.to_json()) for t in out] == \
            [(t, t.to_json()) for t in fresh]
        played.clear()
        return out, plays

    def first_visits(transcripts, csp=False):
        return list(dict.fromkeys(
            (t.question_first, t.position if csp else t.question_second)
            for t in transcripts))

    steps = [(chsh(), behaviors, NO_LEAK, True),
             (chsh(), behaviors, NO_LEAK, False),  # an equal target
             (g, behaviors, NO_LEAK, True),
             (g, behaviors, one_way_ba(0), True),
             (g, (behaviors[0], other_second), one_way_ba(0), True),
             (g, behaviors, one_way_ba(0), True),  # one record is kept
             (c, csp_pair, NO_LEAK, True),
             (c, csp_pair, NO_LEAK, False)]
    for target, pair, model, fresh in steps:
        out, plays = sessions(target, pair, model)
        expected = first_visits(out, csp=target is c) if fresh else []
        assert plays == expected and (not fresh or len(plays) > 1)


def test_raising_behavior_raises_at_every_session_on_its_cell(monkeypatch):
    # nothing is kept for a cell whose play raised: each session drawn
    # there plays it again and raises again; the other cells are kept
    played = count_plays(monkeypatch)
    good = best_chsh_behaviors()
    bad = (ProverBehavior(lambda x, m: 99 if x == 1 else good[0]
                          .answer_rule(x, m), silent_rule, "first"),
           good[1])
    raised = 0
    for i in range(40):
        seed = session_seed(9, i)
        x = run_session(chsh(), good, NO_LEAK, seed).question_first
        played.clear()
        if x == 1:
            with pytest.raises(MalformedBehaviorError, match="out of range"):
                run_session(chsh(), bad, NO_LEAK, seed)
            assert len(played) == 1
            raised += 1
        else:
            assert run_session(chsh(), bad, NO_LEAK, seed) == \
                run_session(chsh(), good, NO_LEAK, seed)
    assert raised > 5
    assert len(bad[0].__dict__["_plays"][1]) == 2  # the two x = 0 cells


def answer_zero(_question, _bits):
    return 0


def answer_one(_question, _bits):
    return 1


def test_behaviors_pickle_and_compare_after_sessions():
    # the kept plays are no field: after sessions a pair of module-level
    # rules compares and hashes as before, and pickles without them, even
    # when the second behavior could not be pickled
    pair = (ProverBehavior(answer_zero, silent_rule, "first"),
            ProverBehavior(answer_one, silent_rule, "second"))
    before = (hash(pair), repr(pair), pickle.dumps(pair))
    transcripts = [run_session(chsh(), pair, NO_LEAK, seed)
                   for seed in range(20)]
    assert "_plays" in pair[0].__dict__
    assert (hash(pair), repr(pair), pickle.dumps(pair)) == before
    copy = pickle.loads(pickle.dumps(pair))
    assert copy == pair and hash(copy) == hash(pair)
    assert "_plays" not in copy[0].__dict__
    assert [run_session(chsh(), copy, NO_LEAK, seed)
            for seed in range(20)] == transcripts
    lone = ProverBehavior(lambda y, _m: 1, silent_rule, "second")
    run_session(chsh(), (pair[0], lone), NO_LEAK, 0)
    assert pickle.loads(pickle.dumps(pair[0])) == pair[0]


def test_estimator_certain_acceptance_has_zero_width():
    model = one_way_ab(1)
    _, witness = leaky_value_exact(chsh(), model)
    behaviors = behaviors_from_leaky_strategy(model, witness)
    record = estimate_acceptance(chsh(), behaviors, model, 10**4, 1)
    assert record.estimate == 1.0
    assert record.half_width == 0.0


def test_estimator_near_exact_value():
    behaviors = best_chsh_behaviors()
    passes = 0
    for master in range(20):
        record = estimate_acceptance(chsh(), behaviors, NO_LEAK, 10**4,
                                     master)
        if abs(record.estimate - 0.75) <= 4 * record.half_width:
            passes += 1
    assert passes >= 19


def test_record_bytes_deterministic():
    behaviors = best_chsh_behaviors()
    r1 = estimate_acceptance(chsh(), behaviors, NO_LEAK, 1000, 3)
    r2 = estimate_acceptance(chsh(), behaviors, NO_LEAK, 1000, 3)
    assert r1.to_json() == r2.to_json()
    assert r1.estimate_exact == Fraction(r1.accepted, 1000)


def test_record_validation():
    with pytest.raises(InvalidInputError):
        ExperimentRecord(10, 11, 1.1, 0.0, {}, 0)


def test_cheat_profile_through_harness():
    c, _ = helpers.satisfiable_csp(random.Random(21), num_vars=5,
                                   num_constraints=8)
    profile = CheatProfile((tuple([0] * 5), tuple([1] * 5)))
    exact = cheat_acceptance(c, profile)
    behaviors = behaviors_from_cheat_profile(c, profile)
    record = estimate_acceptance(c, behaviors, one_way_ab(1), 10**5, 17)
    assert abs(record.estimate - float(exact)) <= 3 * max(record.half_width,
                                                          1e-4)


def test_instance_id_distinguishes():
    assert instance_id(chsh()) != instance_id(
        helpers.random_game(random.Random(1), 2, 2, 2, 2))
    c1, _ = helpers.satisfiable_csp(random.Random(2))
    assert instance_id(c1).startswith("csp:")


def test_equal_targets_hash_equal_and_ids_are_pinned():
    # targets hash by their fields: equal targets built apart hash equal,
    # pickled copies too, and instance ids are those of the serialized text
    g1, g2 = (helpers.random_game_exact(random.Random(1), 5, 5, 3, 3)
              for _ in range(2))
    assert g1 == g2 and g1 is not g2
    assert hash(g1) == hash(g1) == hash(g2) == hash(pickle.loads(
        pickle.dumps(g1)))
    flipped = dataclasses.replace(g1, pred=(1 - g1.pred[0],) + g1.pred[1:])
    assert flipped != g1 and hash(flipped) != hash(g1)
    assert hash(repeat_game(g1, 2)) == hash(repeat_game(g2, 2))
    text = (FIXTURES / "lowval_k2.csp").read_text()
    c1, c2 = load_instance(text), load_instance(text)
    assert hash(c1) == hash(c2) == hash(pickle.loads(pickle.dumps(c1)))
    assert instance_id(g1) == "rand:5b7b18faf752"
    assert instance_id(chsh()) == "chsh:1a8e04a15fb9"
    assert instance_id(repeat_game(chsh(), 2)) == "chsh^2:53c14109277d"
    assert instance_id(c1) == "csp:a281118d0340"


def test_unhashable_targets_are_identified():
    # an id names a target by its text, not its hash: an unhashable Game
    # subclass gets its hashable twin's id, and plays and replays as it does
    class Unhashable(Game):
        __hash__ = None

    g = chsh()
    target = Unhashable(*(getattr(g, f.name) for f in dataclasses.fields(g)))
    assert instance_id(target) == instance_id(g)
    behaviors = best_chsh_behaviors()
    for seed in range(8):
        t = run_session(target, behaviors, NO_LEAK, seed)
        assert replay_verify(t, target) and replay_verify(t, g)
        assert t == run_session(g, best_chsh_behaviors(), NO_LEAK, seed)
    assert (estimate_acceptance(target, behaviors, NO_LEAK, 100, 1)
            == estimate_acceptance(g, behaviors, NO_LEAK, 100, 1))
    with pytest.raises(InvalidInputError, match="cannot identify tuple"):
        instance_id(("a", "tuple", "keeps", "nothing"))


def test_nested_repeated_game_plays_and_replays():
    # a repeated game's text is its base's behind "repeat N", at any depth;
    # a repeated game over a repeated game ended in an AttributeError
    rg = repeat_game(repeat_game(chsh(), 2), 1)
    assert instance_id(rg) == "chsh^2^1:877bd32d52f6"
    assert instance_id(rg) != instance_id(repeat_game(chsh(), 2))
    value, witness = classical_value(rg)
    assert value == Fraction(5, 8)
    behaviors = behaviors_from_strategy_pair(witness)
    verdicts = []
    for seed in range(64):
        t = run_session(rg, behaviors, NO_LEAK, seed)
        assert t.instance == instance_id(rg) and replay_verify(t, rg)
        verdicts.append(t.verdict)
    assert True in verdicts and False in verdicts
    record = estimate_acceptance(rg, behaviors, NO_LEAK, 4000, 2)
    assert abs(record.estimate - 5 / 8) <= record.half_width


def test_estimator_takes_numpy_integers():
    # both once ended in a bare OverflowError or TypeError on both paths
    for fast in (True, False):
        record = estimate_acceptance(chsh(), best_chsh_behaviors(), NO_LEAK,
                                     np.int64(300), np.uint8(7), fast=fast)
        assert record.to_json() == estimate_acceptance(
            chsh(), best_chsh_behaviors(), NO_LEAK, 300, 7).to_json()
    # a session seed is read as its int: np.int64 raised OverflowError, and
    # np.uint64 played with overflow warnings into an unserializable seed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (np.int64(5), np.uint64(5), np.uint64(2**64 - 1),
                     np.int8(-3)):
            t = run_session(chsh(), best_chsh_behaviors(), NO_LEAK, seed)
            twin = run_session(chsh(), best_chsh_behaviors(), NO_LEAK,
                               int(seed))
            assert type(t.seed) is int and t == twin
            assert t.to_json() == twin.to_json()


def test_refuses_unknown_roles_empty_estimates_and_other_objects():
    with pytest.raises(InvalidInputError, match="role must be"):
        ProverBehavior(lambda q, bits: 0, lambda q: "", "third")
    # both estimator paths refuse alike: a bool was a bare TypeError on the
    # vector path, and the scalar path returned a record with sessions=True
    for sessions in (0, -1, True, 1.5, 10.0):
        for fast in (True, False):
            with pytest.raises(InvalidInputError,
                               match="sessions out of range"):
                estimate_acceptance(chsh(), best_chsh_behaviors(), NO_LEAK,
                                    sessions, 1, fast=fast)
    # a float master seed ended in a bare TypeError on both paths, and a
    # bool was read as 1
    for seed in (1.5, "1", None, True):
        for fast in (True, False):
            with pytest.raises(InvalidInputError,
                               match="master_seed out of range"):
                estimate_acceptance(chsh(), best_chsh_behaviors(), NO_LEAK,
                                    10, seed, fast=fast)
        # a session's seed too: a bool played as seed 1
        with pytest.raises(InvalidInputError, match="^seed out of range"):
            run_session(chsh(), best_chsh_behaviors(), NO_LEAK, seed)

    class Thing:  # hashable, with a __dict__, but neither game nor csp
        pass

    with pytest.raises(InvalidInputError, match="cannot identify Thing"):
        instance_id(Thing())
    # sessions and estimates name the target before they read its weights
    for target in (Thing(), object(), 5):
        with pytest.raises(InvalidInputError, match="cannot identify"):
            run_session(target, best_chsh_behaviors(), NO_LEAK, 1)
        with pytest.raises(InvalidInputError, match="cannot identify"):
            estimate_acceptance(target, best_chsh_behaviors(), NO_LEAK, 10, 1)


def test_dropped_targets_are_freed():
    # a target's instance id and session support are kept on the target,
    # not in a cache outside it: sessions and estimates leave nothing that
    # holds a target alive once its caller drops it
    g = helpers.random_game_exact(random.Random(6), 3, 3, 2, 2)
    c, planted = helpers.satisfiable_csp(random.Random(6))
    targets = [(g, behaviors_from_strategy_pair(StrategyPair((0,) * 3,
                                                             (1,) * 3))),
               (c, honest_csp_behaviors(c, planted))]
    refs = [weakref.ref(target) for target, _ in targets]
    for target, behaviors in targets:
        transcript = run_session(target, behaviors, NO_LEAK, 3)
        assert replay_verify(transcript, target)
        estimate_acceptance(target, behaviors, NO_LEAK, 100, 3)
    assert "_instance_id" in g.__dict__ and "_support" in g.__dict__
    del g, c, target, targets
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_all_ones_game_estimate():
    ones = make_game("ones", 2, 2, 2, 2, [1, 1, 1, 1], lambda *_: True)
    behaviors = behaviors_from_strategy_pair(StrategyPair((0, 0), (0, 0)))
    record = estimate_acceptance(ones, behaviors, NO_LEAK, 5000, 0)
    assert record.estimate == 1.0 and record.half_width == 0.0
