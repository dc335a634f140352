"""Output checks run after the timed body.

Every check recomputes what it can through an evaluator that does not share
the solver's search: ``strategy_value``, ``leaky_strategy_value``,
``cheat_acceptance``, ``replay_verify`` or the naive enumerators in
``tests/oracles.py``.  A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import hashlib
import importlib
import io
import json
from fractions import Fraction
from pathlib import Path

# An estimate further than this many 99% half-widths from the exact value
# fails; a correct estimator trips it with probability far below 1e-6.
HALF_WIDTHS = 5
# Sessions compared draw for draw between the vectorised and scalar paths.
SCALAR_CHECK_SESSIONS = 2000


class CheckError(Exception):
    """An op's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclasses.dataclass(frozen=True)
class CliResult:
    """Exit code and artifact directory of one in-process CLI call."""

    rc: int
    out: Path

    def artifacts(self) -> dict[str, str]:
        if not self.out.is_dir():
            return {}
        return {p.name: p.read_text() for p in sorted(self.out.iterdir())}

    def row(self, command: str) -> dict[str, str]:
        """The single CSV row the command wrote."""
        require(self.rc == 0, f"{command} exited {self.rc}")
        text = self.artifacts().get(f"{command}.csv")
        require(text is not None, f"{command} wrote no artifact")
        rows = list(csv.DictReader(io.StringIO(text)))
        require(len(rows) == 1, f"{command} artifact has {len(rows)} rows")
        return rows[0]


def plain(obj):
    """JSON-ready form of an op output; Fractions become exact 'p/q'."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, enum.Enum):
        return obj.value
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, CliResult):
        return {"rc": obj.rc, "artifacts": obj.artifacts()}
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj) -> str:
    text = json.dumps(plain(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",")) if text else ()


class Checker:
    """Checks bound to one loaded library and its oracles module."""

    def __init__(self, lib):
        self.lib = lib
        self._classical: dict[int, Fraction] = {}

    @property
    def oracles(self):
        """``tests/oracles.py``, bound to the library loaded last."""
        return importlib.import_module("oracles")

    def classical(self, g) -> Fraction:
        key = id(g)
        if key not in self._classical:
            self._classical[key] = self.lib.games.classical_value(g)[0]
        return self._classical[key]

    # -- games -------------------------------------------------------------

    def classical_solve(self, g, out, naive: bool) -> None:
        value, witness = out
        games = self.lib.games
        require(games.strategy_value(g, witness) == value,
                "classical witness re-scores to another value")
        require(value <= games.merged_prover_value(g),
                "classical value above the merged-prover ceiling")
        if naive:
            oracle_value, oracle_pair = self.oracles.naive_classical_value(g)
            require(oracle_value == value, "classical value != naive oracle")
            require(oracle_pair == (witness.alice, witness.bob),
                    "classical witness != naive oracle witness")

    def merged(self, g, out) -> None:
        total = Fraction(0)
        for x in range(g.x_size):
            for y in range(g.y_size):
                if any(g.wins(x, y, a, b) for a in range(g.a_size)
                       for b in range(g.b_size)):
                    total += g.weight(x, y)
        require(out == total, "merged-prover value != direct sum")

    def repeated(self, rg, out, known: Fraction | None = None) -> None:
        value, witness = out
        require(self.lib.games.strategy_value(rg, witness) == value,
                "repeated witness re-scores to another value")
        base = self.classical(rg.base)
        require(base ** rg.copies <= value <= base,
                "repeated value outside base^N <= value <= base")
        if known is not None:
            require(value == known, f"repeated value {value} != {known}")

    # -- leakage -----------------------------------------------------------

    def leaky_solve(self, g, model, out, naive: bool) -> None:
        value, witness = out
        leakage = self.lib.leakage
        require(leakage.leaky_strategy_value(g, model, witness) == value,
                "leaky witness re-scores to another value")
        ceiling = min(self.lib.games.merged_prover_value(g),
                      leakage.leaky_value_upper_bound(g, model.total_bits))
        require(self.classical(g) <= value <= ceiling,
                "violates classical <= leaky <= min(merged, upper bound)")
        if naive:
            oracle_value, oracle_witness = self.oracles.naive_leaky_value(
                g, model)
            require(oracle_value == value, "leaky value != naive oracle")
            require(dataclasses.astuple(oracle_witness)
                    == dataclasses.astuple(witness),
                    "leaky witness != naive oracle witness")

    def upper_bound(self, g, bits: int, out) -> None:
        require(out == min(Fraction(1), (1 << bits) * self.classical(g)),
                "upper bound != min(1, 2^bits * classical)")

    def leaky_repetition(self, rg, model, out) -> None:
        require(out.exact, "leaky repetition fell back to the bound")
        require(self.lib.leakage.leaky_strategy_value(rg, model, out.witness)
                == out.value, "leaky repetition witness re-scores wrong")
        classical = self.classical(rg)
        require(classical <= out.value
                <= min(Fraction(1), (1 << model.total_bits) * classical),
                "leaky repetition value outside its bounds")

    def cli_leaky_value(self, g, model, out: CliResult) -> None:
        row = out.row("leaky-value")
        leakage = self.lib.leakage
        witness = leakage.LeakyStrategy(
            _ints(row["alice_msg"]), _ints(row["bob_msg"]),
            tuple(_ints(r) for r in row["alice_ans"].split(";")),
            tuple(_ints(r) for r in row["bob_ans"].split(";")))
        value = Fraction(row["value"])
        self.leaky_solve(g, model, (value, witness), naive=False)
        self.upper_bound(g, model.total_bits,
                         Fraction(row["upper_bound"]))

    def cli_value(self, g, out: CliResult) -> None:
        row = out.row("value")
        witness = self.lib.games.StrategyPair(_ints(row["alice"]),
                                              _ints(row["bob"]))
        self.classical_solve(g, (Fraction(row["value"]), witness),
                             naive=False)
        self.merged(g, Fraction(row["merged_value"]))

    def cli_repeat(self, rg, out: CliResult) -> None:
        row = out.row("repeat")
        witness = self.lib.games.StrategyPair(_ints(row["alice"]),
                                              _ints(row["bob"]))
        self.repeated(rg, (Fraction(row["value"]), witness))
        require(Fraction(row["base_value"]) == self.classical(rg.base),
                "repeat base value wrong")

    # -- csp ---------------------------------------------------------------

    def csp_value(self, c, certified: Fraction, out, naive: bool) -> None:
        value, assignment = out
        require(Fraction(c.satisfied_count(assignment), len(c.constraints))
                == value, "csp witness satisfies another fraction")
        require(value == certified, "csp value != certified search value")
        if naive:
            oracle_value, oracle_assignment = self.oracles.naive_csp_value(c)
            require(oracle_value == value, "csp value != naive oracle")
            require(oracle_assignment == assignment,
                    "csp witness != naive oracle witness")

    def cheat(self, c, leak_bits: int, out, below=None) -> None:
        value, profile = out
        require(profile.leak_bits == leak_bits, "profile has wrong length")
        require(self.lib.csp.cheat_acceptance(c, profile) == value,
                "cheat profile re-scores to another value")
        if below is not None:
            require(below <= value, "cheat value not monotone in leak bits")

    def cli_csp_value(self, c, out: CliResult) -> None:
        row = out.row("csp-val")
        value = Fraction(row["value"])
        require(Fraction(c.satisfied_count(_ints(row["assignment"])),
                         len(c.constraints)) == value,
                "csp-val witness satisfies another fraction")
        require(value == self.lib.csp.csp_value_exact(c)[0],
                "csp-val value wrong")

    def cli_cheat(self, c, leak_bits: int, out: CliResult) -> None:
        row = out.row("cheat")
        profile = self.lib.csp.CheatProfile(
            tuple(_ints(a) for a in row["profile"].split("|")))
        self.cheat(c, leak_bits, (Fraction(row["value"]), profile))

    # -- harness -----------------------------------------------------------

    def estimate(self, target, behaviors, model, exact: Fraction,
                 master_seed: int, record, compare_scalar: bool) -> None:
        """The estimate lies near the exact value; with ``compare_scalar``
        its first sessions also agree between the vectorised and the
        scalar path (about 0.5 s, so once per target)."""
        harness = self.lib.harness
        require(abs(record.estimate - float(exact))
                <= HALF_WIDTHS * record.half_width + 1e-12,
                f"estimate {record.estimate} is more than {HALF_WIDTHS} "
                f"half-widths from {float(exact)}")
        if not compare_scalar:
            return
        n = min(SCALAR_CHECK_SESSIONS, record.sessions)
        fast = harness.estimate_acceptance(target, behaviors, model, n,
                                           master_seed, fast=True)
        slow = harness.estimate_acceptance(target, behaviors, model, n,
                                           master_seed, fast=False)
        require(fast.accepted == slow.accepted,
                "vectorised and scalar estimators disagree")

    def transcripts(self, target, behaviors, model, master_seed: int,
                    out) -> None:
        transcripts, replayed = out
        require(all(replayed), "a transcript failed replay_verify")
        accepted = sum(t.verdict for t in transcripts)
        record = self.lib.harness.estimate_acceptance(
            target, behaviors, model, len(transcripts), master_seed)
        require(record.accepted == accepted,
                "scalar sessions disagree with the estimator")

    def cli_run(self, exact: Fraction, sessions: int, out: CliResult) -> None:
        row = out.row("run")
        require(int(row["sessions"]) == sessions, "run sessions wrong")
        estimate = float(row["estimate_float"])
        require(abs(estimate - float(exact))
                <= HALF_WIDTHS * float(row["half_width"]) + 1e-12,
                f"run estimate {estimate} too far from {float(exact)}")
