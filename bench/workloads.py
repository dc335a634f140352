"""The four benchmark workloads: seeded inputs, timed ops and their checks.

Set-up builds every input from the workload seed, so the same seed gives
the same inputs, and every solve gets an instance of its own.  Ops come in
families: the same call on instances of one shape, at least three per
family, so that a family's median latency is a steady figure.  Op counts
are fixed for a run of ``REF_SECONDS`` at the seed commit and scale with
the requested length; a faster program does the same work in less time.
No op is longer than about a second, so that one slow phase of the machine
cannot carry a whole family.  Why each workload exists, and which layer it
stresses, is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from checks import CliResult

REF_SECONDS = 15


@dataclass
class Op:
    """One timed unit of user work: a solve or a session batch."""

    id: str
    kind: str  # "solve", "sessions" (estimator, CLI run) or "transcripts"
    family: str  # ops of one call on instances of one shape
    run: Callable[[], Any]
    check: Callable[[Any], None]
    sessions: int = 0


@dataclass
class Workload:
    ops: list[Op]
    probes: list[list[str]]  # CLI argv whose correct exit code is 3
    outputs: dict[str, Any] = field(default_factory=dict)


class Context:
    """Seeded input factory shared by the workload functions."""

    def __init__(self, lib, checker, seed: int, seconds: float, work: Path):
        self.lib = lib
        self.checker = checker
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.fixtures = Path(lib.pkg.__file__).parent / "fixtures"
        self.ops: list[Op] = []
        self.outputs: dict[str, Any] = {}

    def count(self, at_ref: int, heavy: bool = False) -> int:
        """Ops of one kind for this run length.

        Light kinds keep at least one op in short runs; heavy kinds drop
        out below their share of ``REF_SECONDS``.
        """
        exact = at_ref * self.seconds / REF_SECONDS
        return math.floor(exact + 1e-9) if heavy else math.ceil(exact - 1e-9)

    def rng(self, key: str) -> random.Random:
        return random.Random(f"{self.seed}:{key}")

    def game(self, key: str, shape: tuple[int, int, int, int]):
        """Random game: weights 0..3 (not all zero), uniform predicate."""
        x, y, a, b = shape
        rng = self.rng(key)
        weights = [rng.randint(0, 3) for _ in range(x * y)]
        if not any(weights):
            weights[0] = 1
        bits = [rng.getrandbits(1) for _ in range(x * y * a * b)]
        return self.lib.games.make_game(
            key, x, y, a, b, weights,
            lambda xx, yy, aa, bb: bits[((xx * y + yy) * a + aa) * b + bb])

    def write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text)
        return str(path)

    def cli(self, op_id: str, argv: list[str]) -> Callable[[], CliResult]:
        out = self.work / "out" / op_id
        main_module = self.lib.cli

        def run() -> CliResult:
            # the CLI prints its table; keep it off the benchmark's stdout
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main_module.main(["--out", str(out), *argv])
            return CliResult(rc, out)
        return run

    def add(self, op_id: str, kind: str, run, check, sessions: int = 0,
            family: str | None = None):
        """Add an op; its family defaults to the id up to its last '-'."""
        def recorded_run():
            result = run()
            self.outputs[op_id] = result
            return result
        self.ops.append(Op(op_id, kind, family or op_id.rsplit("-", 1)[0],
                           recorded_run, check, sessions))

    def workload(self, probes: list[list[str]]) -> Workload:
        return Workload(_interleave(self.ops), probes, self.outputs)


def _interleave(ops: list[Op]) -> list[Op]:
    """Round-robin over op families so slow phases of the machine are
    shared by all kinds."""
    families: dict[str, list[Op]] = {}
    for op in ops:
        families.setdefault(op.family, []).append(op)
    queues = list(families.values())
    out: list[Op] = []
    while queues:
        for queue in queues:
            out.append(queue.pop(0))
        queues = [q for q in queues if q]
    return out


def _tag(shape) -> str:
    return "".join(str(s) for s in shape)


# ---------------------------------------------------------------------------
# leaky-oneway: the one-way enumeration in `leakage` does nearly all work
# ---------------------------------------------------------------------------

# (shape, model, ops per REF_SECONDS, heavy), with the latency of one op at
# the seed commit on a 2-vCPU Xeon.  Shapes whose single op takes more than
# a second (ab2 and ba1 on 4x4x3x3 up, ab2 on 5x5x2x2) are left out.
LEAKY_SOLVES = [
    ((3, 3, 2, 2), "ab1", 15, False),  # 1 ms
    ((3, 3, 2, 2), "ab2", 15, False),  # 6 ms
    ((3, 3, 2, 2), "ba1", 15, False),  # 4 ms
    ((4, 4, 2, 2), "ab1", 15, False),  # 3 ms
    ((4, 4, 2, 2), "ab2", 9, False),   # 70 ms
    ((4, 4, 2, 2), "ba1", 9, False),   # 50 ms
    ((4, 4, 3, 3), "ab1", 12, False),  # 20 ms
    ((4, 4, 3, 3), "ab2", 9, True),    # 450 ms
    ((5, 5, 2, 2), "ab1", 12, False),  # 15 ms
    ((5, 5, 2, 2), "ba1", 3, True),    # 420 ms
    ((5, 5, 3, 3), "ab1", 18, False),  # 170 ms
]
LEAKY_UPPER_BOUNDS = 15   # leaky_value_upper_bound on 5x5x3x3 games
LEAKY_REPETITION = 6      # leaky_repetition_experiment, 2 copies, ab1
LEAKY_CLI = 9             # CLI leaky-value, ba1, on 4x4x2x2 game files
LEAKY_NAIVE = 2           # 3x3x2x2 1-bit ops per model checked naively


def _models(leakage):
    return {"ab1": leakage.one_way_ab(1), "ab2": leakage.one_way_ab(2),
            "ba1": leakage.one_way_ba(1)}


def _model_args(model) -> list[str]:
    return ["--model", model.kind.value, "--bits-ab", str(model.bits_ab),
            "--bits-ba", str(model.bits_ba)]


def leaky_oneway(ctx: Context) -> Workload:
    lib, chk = ctx.lib, ctx.checker
    models = _models(lib.leakage)
    for shape, name, per_ref, heavy in LEAKY_SOLVES:
        for i in range(ctx.count(per_ref, heavy)):
            op_id = f"leaky-{name}-{_tag(shape)}-{i}"
            g, m = ctx.game(op_id, shape), models[name]
            naive = (shape == (3, 3, 2, 2) and m.total_bits == 1
                     and i < LEAKY_NAIVE)
            ctx.add(op_id, "solve",
                    lambda g=g, m=m: lib.leakage.leaky_value_exact(g, m),
                    lambda out, g=g, m=m, naive=naive:
                        chk.leaky_solve(g, m, out, naive))
    for i in range(ctx.count(LEAKY_UPPER_BOUNDS)):
        op_id = f"upper-5533-{i}"
        g, bits = ctx.game(op_id, (5, 5, 3, 3)), 1 + i % 2
        ctx.add(op_id, "solve",
                lambda g=g, bits=bits:
                    lib.leakage.leaky_value_upper_bound(g, bits),
                lambda out, g=g, bits=bits: chk.upper_bound(g, bits, out))
    ab1 = models["ab1"]
    for i in range(ctx.count(LEAKY_REPETITION)):
        op_id = f"leakyrep-2222x2-ab1-{i}"
        base = lib.games.chsh() if i == 0 else ctx.game(op_id, (2, 2, 2, 2))
        rg = lib.repetition.repeat_game(base, 2)
        ctx.add(op_id, "solve",
                lambda base=base: lib.repetition.leaky_repetition_experiment(
                    base, 2, ab1),
                lambda out, rg=rg: chk.leaky_repetition(rg, ab1, out))
    for i in range(ctx.count(LEAKY_CLI)):
        op_id = f"cli-leaky-value-4422-{i}"
        g, m = ctx.game(op_id, (4, 4, 2, 2)), models["ba1"]
        path = ctx.write(f"{op_id}.game", lib.games.save_game(g))
        ctx.add(op_id, "solve",
                ctx.cli(op_id, ["leaky-value", path, *_model_args(m)]),
                lambda out, g=g, m=m: chk.cli_leaky_value(g, m, out))
    chsh_file = str(ctx.fixtures / "chsh.game")
    return ctx.workload([["leaky-value", chsh_file, "--model", "simultaneous",
                          "--bits-ab", "15", "--bits-ba", "15"]])


# ---------------------------------------------------------------------------
# classical-repeat: the `games` fold and the `repetition` tables dominate
# ---------------------------------------------------------------------------

# (shape, ops per REF_SECONDS) for classical_value and merged_prover_value;
# 8x8x3x3 takes about 130 ms, the others 0.2-30 ms
CLASSICAL = [((4, 4, 2, 2), 15), ((5, 5, 3, 3), 15), ((6, 6, 3, 3), 15),
             ((7, 7, 3, 3), 12), ((8, 8, 3, 3), 24)]
MERGED = [((8, 8, 3, 3), 15)]
# (base shape, ops per REF_SECONDS, heavy) for repeated_exact_value, N = 2;
# 2 and 50 ms.  3x2x2x2 (about 2 s an op) is left out.
REPEATED = [((2, 2, 2, 2), 15, False), ((2, 2, 3, 2), 12, False)]
# (shape, ops per REF_SECONDS, heavy) for leaky_value_exact, simultaneous(1,1);
# 390 and 700 ms
SIMULTANEOUS = [((3, 3, 3, 3), 6, False), ((4, 4, 2, 2), 3, True)]
CLASSICAL_CLI_VALUE = 9   # CLI value on 7x7x3x3 game files
CLASSICAL_CLI_REPEAT = 9  # CLI repeat -n 2 on 2x2x3x2 game files


def classical_repeat(ctx: Context) -> Workload:
    lib, chk = ctx.lib, ctx.checker
    for shape, per_ref in CLASSICAL:
        for i in range(ctx.count(per_ref)):
            op_id = f"classical-{_tag(shape)}-{i}"
            g = ctx.game(op_id, shape)
            naive = shape == (4, 4, 2, 2)
            ctx.add(op_id, "solve",
                    lambda g=g: lib.games.classical_value(g),
                    lambda out, g=g, naive=naive:
                        chk.classical_solve(g, out, naive))
    for shape, per_ref in MERGED:
        for i in range(ctx.count(per_ref)):
            op_id = f"merged-{_tag(shape)}-{i}"
            g = ctx.game(op_id, shape)
            ctx.add(op_id, "solve",
                    lambda g=g: lib.games.merged_prover_value(g),
                    lambda out, g=g: chk.merged(g, out))
    for shape, per_ref, heavy in REPEATED:
        for i in range(ctx.count(per_ref, heavy)):
            op_id = f"repeat-{_tag(shape)}x2-{i}"
            # CHSH^2 = 10/16 is the first op of the 2x2x2x2 family
            chsh = shape == (2, 2, 2, 2) and i == 0
            base = lib.games.chsh() if chsh else ctx.game(op_id, shape)
            rg = lib.repetition.repeat_game(base, 2)
            ctx.add(op_id, "solve",
                    lambda rg=rg: lib.repetition.repeated_exact_value(rg),
                    lambda out, rg=rg, chsh=chsh: chk.repeated(
                        rg, out, known=Fraction(10, 16) if chsh else None))
    model = lib.leakage.simultaneous(1, 1)
    for shape, per_ref, heavy in SIMULTANEOUS:
        for i in range(ctx.count(per_ref, heavy)):
            op_id = f"simultaneous-{_tag(shape)}-{i}"
            g = ctx.game(op_id, shape)
            ctx.add(op_id, "solve",
                    lambda g=g: lib.leakage.leaky_value_exact(g, model),
                    lambda out, g=g: chk.leaky_solve(g, model, out, False))
    for i in range(ctx.count(CLASSICAL_CLI_VALUE)):
        op_id = f"cli-value-7733-{i}"
        g = ctx.game(op_id, (7, 7, 3, 3))
        path = ctx.write(f"{op_id}.game", lib.games.save_game(g))
        ctx.add(op_id, "solve", ctx.cli(op_id, ["value", path]),
                lambda out, g=g: chk.cli_value(g, out))
    for i in range(ctx.count(CLASSICAL_CLI_REPEAT)):
        op_id = f"cli-repeat-2232x2-{i}"
        g = ctx.game(op_id, (2, 2, 3, 2))
        path = ctx.write(f"{op_id}.game", lib.games.save_game(g))
        rg = lib.repetition.repeat_game(g, 2)
        ctx.add(op_id, "solve", ctx.cli(op_id, ["repeat", path, "-n", "2"]),
                lambda out, rg=rg: chk.cli_repeat(rg, out))
    chsh_file = str(ctx.fixtures / "chsh.game")
    return ctx.workload([["repeat", chsh_file, "-n", "3"],
                         ["repeat", chsh_file, "-n", "22"]])


# ---------------------------------------------------------------------------
# cheat-csp: `csp` does all the work, `games` and `leakage` none
# ---------------------------------------------------------------------------

# (vars, alphabet, arity, constraints, target, instances per REF_SECONDS,
#  leak 2), with the time all ops on one instance take.  Set-up finds the
# instances; a 10-variable one takes about 60 ms to find.  Each instance gets
# a csp-value op and cheats at 0 and 1 leaked bits, plus a cheat at 2 bits
# where leak 2 is set.  Leak 2 scans (alphabet^vars)^4 profiles: about 30 ms
# at 16 assignments, 6-8 s at 81, so it runs on the 16-assignment shapes
# only.  The check re-scores every cheat with cheat_acceptance.
CSP_SHAPES = [
    (4, 2, 2, 16, Fraction(1, 2), 15, True),    # 28 ms
    (6, 2, 2, 24, Fraction(1, 2), 9, False),    # 5 ms
    (8, 2, 2, 32, Fraction(1, 2), 21, False),   # 25 ms
    (10, 2, 2, 40, Fraction(1, 2), 9, False),   # 180 ms
    (4, 3, 2, 32, Fraction(1, 3), 9, False),    # 9 ms
    (5, 3, 2, 30, Fraction(1, 3), 15, False),   # 23 ms
    (6, 3, 2, 36, Fraction(1, 3), 12, False),   # 110 ms
    (4, 2, 3, 16, Fraction(1, 2), 15, True),    # 36 ms
    (6, 2, 3, 24, Fraction(1, 2), 9, False),    # 5 ms
    (4, 3, 3, 24, Fraction(1, 3), 9, False),    # 7 ms
]
CSP_CLI = 9          # CLI csp-val and cheat --leak-bits 1, each
CSP_NAIVE_MAX = 64   # naive csp oracle on instances with <= 64 assignments


def _low_value_instance(ctx: Context, key, nv, alphabet, arity, m, target):
    seed = ctx.rng(key).getrandbits(32)
    return ctx.lib.csp.find_low_value_instance(
        nv, alphabet, arity, target, seed, num_constraints=m)


def cheat_csp(ctx: Context) -> Workload:
    lib, chk = ctx.lib, ctx.checker
    for nv, alphabet, arity, m, target, per_ref, leak2 in CSP_SHAPES:
        for i in range(ctx.count(per_ref)):
            shape = f"{nv}{alphabet}{arity}"
            c, certified = _low_value_instance(ctx, f"{shape}-{i}", nv,
                                               alphabet, arity, m, target)
            naive = alphabet ** nv <= CSP_NAIVE_MAX
            ctx.add(f"csp-value-{shape}-{i}", "solve",
                    lambda c=c: lib.csp.csp_value_exact(c),
                    lambda out, c=c, cert=certified, naive=naive:
                        chk.csp_value(c, cert, out, naive))
            for bits in [0, 1] + ([2] if leak2 else []):
                below = (f"csp-cheat{bits - 1}-{shape}-{i}" if bits
                         else f"csp-value-{shape}-{i}")
                ctx.add(f"csp-cheat{bits}-{shape}-{i}", "solve",
                        lambda c=c, bits=bits: lib.csp.optimal_cheat(c, bits),
                        lambda out, c=c, bits=bits, below=below:
                            chk.cheat(c, bits, out,
                                      ctx.outputs[below][0]))
    for i in range(ctx.count(CSP_CLI)):
        key = f"cli-csp-622-{i}"
        c, _ = _low_value_instance(ctx, key, 6, 2, 2, 24, Fraction(1, 2))
        path = ctx.write(f"{key}.csp", lib.csp.save_csp(c))
        ctx.add(f"cli-csp-val-{i}", "solve",
                ctx.cli(f"cli-csp-val-{i}", ["csp-val", path]),
                lambda out, c=c: chk.cli_csp_value(c, out))
        ctx.add(f"cli-cheat-{i}", "solve",
                ctx.cli(f"cli-cheat-{i}", ["cheat", path, "--leak-bits", "1"]),
                lambda out, c=c: chk.cli_cheat(c, 1, out))
    lowval = str(ctx.fixtures / "lowval_k2.csp")
    return ctx.workload([["cheat", lowval, "--leak-bits", str(bits)]
                         for bits in (4, 12, 16)])


# ---------------------------------------------------------------------------
# sessions: the `harness` estimator, scalar sessions and CLI run configs
# ---------------------------------------------------------------------------

ESTIMATES = 9               # estimator ops per target per REF_SECONDS
ESTIMATE_SESSIONS = 10**6   # sessions per estimator op (about 150 ms)
SCALAR_BATCHES = 24         # per target per REF_SECONDS
SCALAR_BATCH = 100          # run_session + replay_verify pairs per op
# CLI run ops per config per REF_SECONDS
RUN_CONFIGS = {"honest": 12, "leaky": 12, "cheat": 12}
RUN_SESSIONS = 10**6        # sessions per CLI run op (about 130 ms)


@dataclass
class Target:
    name: str
    target: Any
    behaviors: Any
    model: Any
    exact: Fraction


def _session_targets(ctx: Context) -> list[Target]:
    """Behaviours built from exact witnesses, one per session target."""
    lib = ctx.lib
    games, leakage, harness, csp = lib.games, lib.leakage, lib.harness, lib.csp
    silent = leakage.one_way_ab(0)
    chsh = games.chsh()
    value, pair = games.classical_value(chsh)
    targets = [Target("chsh", chsh, harness.behaviors_from_strategy_pair(pair),
                      silent, value)]
    g = ctx.game("sessions-5533", (5, 5, 3, 3))
    ab1 = leakage.one_way_ab(1)
    _, leaky = leakage.leaky_value_exact(g, ab1)
    targets.append(Target("leaky5533", g,
                          harness.behaviors_from_leaky_strategy(ab1, leaky),
                          ab1, leakage.leaky_strategy_value(g, ab1, leaky)))
    rg = lib.repetition.repeat_game(chsh, 2)
    value, pair = lib.repetition.repeated_exact_value(rg)
    targets.append(Target("chsh2", rg,
                          harness.behaviors_from_strategy_pair(pair),
                          silent, games.strategy_value(rg, pair)))
    c = csp.load_instance((ctx.fixtures / "lowval_k2.csp").read_text())
    _, profile = csp.optimal_cheat(c, 1)
    targets.append(Target("lowval", c,
                          harness.behaviors_from_cheat_profile(c, profile),
                          ab1, csp.cheat_acceptance(c, profile)))
    return targets


def sessions(ctx: Context) -> Workload:
    lib, chk = ctx.lib, ctx.checker
    harness = lib.harness
    for t in _session_targets(ctx):
        for i in range(ctx.count(ESTIMATES)):
            op_id = f"estimate-{t.name}-{i}"
            seed = ctx.rng(op_id).getrandbits(63)
            ctx.add(op_id, "sessions",
                    lambda t=t, seed=seed: harness.estimate_acceptance(
                        t.target, t.behaviors, t.model, ESTIMATE_SESSIONS,
                        seed),
                    lambda out, t=t, seed=seed, first=i == 0: chk.estimate(
                        t.target, t.behaviors, t.model, t.exact, seed, out,
                        compare_scalar=first),
                    sessions=ESTIMATE_SESSIONS)
        for i in range(ctx.count(SCALAR_BATCHES)):
            op_id = f"transcripts-{t.name}-{i}"
            seed = ctx.rng(op_id).getrandbits(63)
            ctx.add(op_id, "transcripts",
                    lambda t=t, seed=seed: _transcripts(harness, t, seed),
                    lambda out, t=t, seed=seed: chk.transcripts(
                        t.target, t.behaviors, t.model, seed, out),
                    sessions=SCALAR_BATCH)
    for config, exact in _run_configs(ctx, RUN_SESSIONS):
        path = ctx.write(f"{config['name']}.json", json.dumps(config))
        ctx.add(config["name"], "sessions",
                ctx.cli(config["name"], ["run", path]),
                lambda out, exact=exact: chk.cli_run(exact(), RUN_SESSIONS,
                                                     out),
                sessions=RUN_SESSIONS)
    return ctx.workload([])


def _transcripts(harness, t: Target, master_seed: int):
    """Scalar sessions i = 0.. of ``master_seed``, each replayed."""
    transcripts, replayed = [], []
    for i in range(SCALAR_BATCH):
        tr = harness.run_session(t.target, t.behaviors, t.model,
                                 harness.session_seed(master_seed, i))
        transcripts.append(tr)
        replayed.append(harness.replay_verify(tr, t.target))
    return transcripts, replayed


def _run_configs(ctx: Context, n_run: int):
    """CLI run configs, each on its own input, with a function giving the
    exact acceptance of the behaviour the config asks for (called by the
    check, so set-up never solves what the timed op solves)."""
    lib = ctx.lib
    games, leakage, csp = lib.games, lib.leakage, lib.csp
    for i in range(ctx.count(RUN_CONFIGS["honest"])):
        name = f"cli-run-honest-{i}"
        g = ctx.game(name, (3, 3, 2, 2))
        yield ({"name": name, "kind": "game", "sessions": n_run,
                "path": ctx.write(f"{name}.game", games.save_game(g)),
                "behavior": "honest", "seed": ctx.rng(name).getrandbits(63),
                "model": {"kind": "one-way-ab", "bits_ab": 0}},
               lambda g=g: games.classical_value(g)[0])
    for i in range(ctx.count(RUN_CONFIGS["leaky"])):
        name = f"cli-run-leaky-{i}"
        g = ctx.game(name, (4, 4, 3, 3))
        yield ({"name": name, "kind": "game", "sessions": n_run,
                "path": ctx.write(f"{name}.game", games.save_game(g)),
                "behavior": "leaky", "seed": ctx.rng(name).getrandbits(63),
                "model": {"kind": "one-way-ab", "bits_ab": 1}},
               lambda g=g: leakage.leaky_value_exact(
                   g, leakage.one_way_ab(1))[0])
    for i in range(ctx.count(RUN_CONFIGS["cheat"])):
        name = f"cli-run-cheat-{i}"
        c, _ = _low_value_instance(ctx, name, 4, 3, 2, 32, Fraction(1, 3))
        yield ({"name": name, "kind": "csp", "sessions": n_run,
                "path": ctx.write(f"{name}.csp", csp.save_csp(c)),
                "behavior": "cheat", "seed": ctx.rng(name).getrandbits(63),
                "model": {"kind": "one-way-ab", "bits_ab": 1}},
               lambda c=c: csp.optimal_cheat(c, 1)[0])


WORKLOADS = {
    "leaky-oneway": leaky_oneway,
    "classical-repeat": classical_repeat,
    "cheat-csp": cheat_csp,
    "sessions": sessions,
}
