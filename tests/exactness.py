"""The exactness sweep: one short digest per case of the exact solvers'
values and witnesses and of the CLI's exit codes, output and artifacts.

A case is one (input, solver) pair or one CLI call; its digest is the
sha256 of the repr of what it returned (or of the refusal it raised),
cut to 16 hex digits.  ``test_exactness.py`` recomputes every case and
names the first whose digest differs from the committed one.  A change
meant to move a value, witness or artifact rewrites the file with

    PYTHONPATH=src python tests/exactness.py

and says which cases moved and why.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from importlib import resources
from pathlib import Path

import helpers
from leakygames import cli, csp, games, harness, leakage
from leakygames.errors import BudgetExceededError, InvalidInputError
from leakygames.repetition import repeat_game, repeated_exact_value

DIGEST_PATH = Path(__file__).with_name("exactness_digests.txt")
FIXTURES = resources.files("leakygames") / "fixtures"
FOLD_CAPS = (games.FOLD_BYTES, 8, 40)  # one block, then prefixes walked
MODELS = (leakage.one_way_ab(1), leakage.one_way_ab(2), leakage.one_way_ba(1),
          leakage.one_way_ba(2), leakage.simultaneous(1, 1),
          leakage.simultaneous(2, 1))
# weight totals on both sides of each narrow fold type's edge, and past int64
EDGE_TOTALS = (127, 128, 2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1, 2**63)
CHEAT_SEEDS = range(24)
SESSION_SEEDS = range(40)


def _outcome(solve):
    """What ``solve()`` returned, dataclasses as plain tuples, or the
    refusal it raised."""
    try:
        result = solve()
    except (InvalidInputError, BudgetExceededError) as exc:
        return "refused", type(exc).__name__, str(exc)
    return tuple(dataclasses.astuple(part) if dataclasses.is_dataclass(part)
                 else part for part in result)


def _reweighted(g, weights):
    return games.make_game(g.name, g.x_size, g.y_size, g.a_size, g.b_size,
                           weights, g.wins)


def _game_cases(name, g):
    """g under the classical solver and every leaky model, each at every
    fold cap: the caps must agree, so one case holds all three."""
    solvers = [("classical", lambda: games.classical_value(g))]
    solvers += [(f"{m.kind.value}({m.bits_ab},{m.bits_ba})",
                 lambda m=m: leakage.leaky_value_exact(g, m)) for m in MODELS]
    for solver, solve in solvers:
        def at_every_cap(solve=solve):
            outcomes = []
            try:
                for cap in FOLD_CAPS:
                    games.FOLD_BYTES = cap
                    outcomes.append(_outcome(solve))
            finally:
                games.FOLD_BYTES = FOLD_CAPS[0]
            return outcomes
        yield f"{name} {solver}", at_every_cap


def _walk_cases():
    """Seed-0 games with 8 or 12 questions on a side, where the one-way
    label walk prunes, each at the default fold cap only; the 8x8 solve
    counts about 1.05e7 steps, so it runs at twice the default budget."""
    for (x, y), models in (((12, 2), (leakage.one_way_ab(2),
                                      leakage.one_way_ab(3))),
                           ((2, 12), (leakage.one_way_ba(2),
                                      leakage.one_way_ba(3))),
                           ((8, 8), (leakage.simultaneous(1, 2),))):
        g = helpers.random_game_exact(random.Random(0), x, y, 2, 2)
        for m in models:
            yield (f"{x}x{y}x2x2 {m.kind.value}({m.bits_ab},{m.bits_ba})",
                   lambda g=g, m=m: _outcome(
                       lambda: leakage.leaky_value_exact(
                           g, m, 2 * leakage.DEFAULT_LEAKY_BUDGET)))


def _cheat_cases():
    for seed in CHEAT_SEEDS:
        shape = 3 + seed % 3, 2 + seed // 3 % 2, 2 + seed // 6 % 2
        c, value = csp.find_low_value_instance(*shape, Fraction(1, 2), seed)
        yield f"csp seed {seed:02d}", lambda c=c, value=value: (
            csp.save_csp(c), value)
        for leak in range(4):
            yield f"cheat seed {seed:02d} leak {leak}", (
                lambda c=c, leak=leak: _outcome(
                    lambda: csp.optimal_cheat(c, leak)))
    lowval = csp.load_instance((FIXTURES / "lowval_k2.csp").read_text())
    for leak in range(4):  # leak 3 is past the default budget
        yield f"cheat lowval_k2 leak {leak}", (
            lambda leak=leak: _outcome(lambda: csp.optimal_cheat(lowval, leak)))


CLI_CALLS = (
    ["value", "chsh.game"],
    ["--format", "json", "value", "chsh.game"],
    ["leaky-value", "chsh.game", "--model", "one-way-ab", "--bits-ab", "1"],
    ["leaky-value", "chsh.game", "--model", "one-way-ba", "--bits-ba", "2"],
    ["leaky-value", "chsh.game", "--model", "simultaneous", "--bits-ab", "1",
     "--bits-ba", "1"],
    ["repeat", "chsh.game", "-n", "2"],
    ["csp-val", "lowval_k2.csp"],
    ["csp-val", "lowval_k2.csp", "--local-search", "--restarts", "3"],
    *(["cheat", "lowval_k2.csp", "--leak-bits", str(leak)]
      for leak in range(4)),
    ["run", "honest.json"],
    ["--seed", "3", "run", "cheat.json"],
    ["params", "--leak-bits", "2", "--answer-bits", "1", "--epsilon", "0.25",
     "-k", "4"],
    ["gen", "--kind", "game", "--sizes", "3", "2", "2", "3"],
    ["--seed", "5", "gen", "--kind", "csp", "--vars", "4"],
    ["gen", "--kind", "low-val-csp", "--vars", "4", "--alphabet", "3"],
    ["gen", "--kind", "low-val-csp", "--target", "-1", "--attempts", "2"],
    ["--budget", "0", "value", "chsh.game"],
    ["--budget", "5", "value", "chsh.game"],
    ["value", "missing.game"],
    ["cheat", "lowval_k2.csp", "--leak-bits", "-1"],
)


def _cli_cases(work: Path):
    """Each call runs in ``work`` with its own artifact directory; paths
    under ``work`` read as <work>, so the digests hold in any directory."""
    for name in ("chsh.game", "lowval_k2.csp"):
        (work / name).write_bytes((FIXTURES / name).read_bytes())
    for name, config in (
            ("honest.json", {"kind": "game", "behavior": "honest",
                             "path": str(work / "chsh.game"),
                             "sessions": 3000}),
            ("cheat.json", {"kind": "csp", "behavior": "cheat",
                            "path": str(work / "lowval_k2.csp"),
                            "sessions": 2000,
                            "model": {"kind": "one-way-ab", "bits_ab": 2}})):
        (work / name).write_text(json.dumps(config))

    def call(argv):
        out = work / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(["--out", str(out), *argv])
            except SystemExit as exc:
                code = exc.code
        files = sorted((p.name, p.read_bytes()) for p in out.glob("*"))
        shutil.rmtree(out, ignore_errors=True)
        return tuple(str(part).replace(str(work), "<work>") for part in
                     (code, stdout.getvalue(), stderr.getvalue(), files))

    for i, argv in enumerate(CLI_CALLS):
        yield f"cli {i:02d} {' '.join(argv)}", lambda argv=argv: call(
            [str(work / a) if (work / a).is_file() else a for a in argv])


def _session_targets():
    """(name, target, behaviors, model) for the scalar session cases."""
    pair = harness.behaviors_from_strategy_pair
    silent, ab1 = leakage.one_way_ab(0), leakage.one_way_ab(1)
    chsh = games.chsh()
    yield "chsh silent", chsh, pair(games.classical_value(chsh)[1]), silent
    g = helpers.random_game_exact(random.Random(33), 5, 5, 3, 3)
    yield "5533 one-way-ab(1)", g, harness.behaviors_from_leaky_strategy(
        ab1, leakage.leaky_value_exact(g, ab1)[1]), ab1
    first, second = harness.behaviors_from_leaky_strategy(
        ab1, leakage.leaky_value_exact(chsh, ab1)[1])
    over = harness.ProverBehavior(first.answer_rule,
                                  lambda x: first.leak_rule(x) + "0", "first")
    yield "chsh overflow", chsh, (over, second), ab1
    rg = repeat_game(chsh, 2)
    yield "chsh^2 silent", rg, pair(repeated_exact_value(rg)[1]), silent
    c = csp.load_instance((FIXTURES / "lowval_k2.csp").read_text())
    yield "lowval_k2 cheat leak 1", c, harness.behaviors_from_cheat_profile(
        c, csp.optimal_cheat(c, 1)[1]), ab1
    # weight total 2^63 + 1: about half of the first draws are rejected
    heavy = _reweighted(chsh, [2**61, 2**61, 2**61, 2**61 + 1])
    yield ("heavy chsh total 2^63+1", heavy,
           pair(games.classical_value(heavy)[1]), silent)


def _session_cases():
    """Each target's transcripts over fixed seeds, with their replays."""
    for name, target, behaviors, model in _session_targets():
        def play(target=target, behaviors=behaviors, model=model):
            out = []
            for seed in SESSION_SEEDS:
                t = harness.run_session(target, behaviors, model, seed)
                out.append((t.to_json(), harness.replay_verify(t, target)))
            return out
        yield f"transcripts {name}", play


def cases(work: Path):
    """(name, solve) for every case, in the committed order."""
    rng = random.Random(15)
    for i in range(130):
        g = helpers.random_game(rng, 5, 5, 3, 3)
        if i % 10 == 9:
            g = _reweighted(g, [rng.randint(0, 2**70) for _ in g.dist])
        yield from _game_cases(f"game {i:03d}", g)
    yield from _game_cases("chsh^2", repeat_game(games.chsh(), 2))
    rng = random.Random(16)
    for total in EDGE_TOTALS:
        g = helpers.random_game_exact(rng, 3, 3, 2, 2)
        weights = [1] + [rng.randrange(total // 9) for _ in range(7)]
        yield from _game_cases(f"total {total}", _reweighted(
            g, weights + [total - sum(weights)]))
    yield from _cheat_cases()
    yield from _cli_cases(work)
    yield from _session_cases()
    yield from _walk_cases()


def digest(result) -> str:
    text = repr(result)
    assert "np." not in text and "array(" not in text, text  # numpy-free
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests(work: Path) -> list[tuple[str, str]]:
    """(name, digest) for every case, in order."""
    return [(name, digest(solve())) for name, solve in cases(work)]


def read_digests() -> list[tuple[str, str]]:
    lines = DIGEST_PATH.read_text().splitlines()
    return [tuple(line.split(" ", 1)[::-1]) for line in lines]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        lines = [f"{d} {name}\n" for name, d in digests(Path(work))]
    DIGEST_PATH.write_text("".join(lines))
    print(f"{len(lines)} digests written to {DIGEST_PATH}", file=sys.stderr)
