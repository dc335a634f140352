"""Span recorder for the traced benchmark pass.

Layer boundaries are traced from outside the library: each traced function
is rebound, in every loaded ``leakygames`` module that holds it, to a
wrapper that records one span per call.  Table methods are patched on the
class.  Spans stay in memory until the run ends; per-layer metrics are self
times (span duration minus the time its direct child spans cover) and
counts taken at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

SETUP_OP = "setup"


class SpanRecorder:
    """Spans as ``[name, start, end, parent_index, op_id]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = SETUP_OP
        self.counts: dict[str, int] = defaultdict(int)

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _wrap(rec: SpanRecorder, fn, label, count=None):
    """``label`` is a span name or ``f(args) -> name | None`` (None: no span).

    ``count(counts, args, result)`` runs after a call that returned.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = label(args) if callable(label) else label
        if name is None:
            return fn(*args, **kwargs)
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        rec.counts[name + ".calls"] += 1
        if count is not None:
            count(rec.counts, args, result)
        return result
    return wrapper


def _rebind_everywhere(modules, original, wrapper, undo) -> None:
    """Point every module-level name bound to ``original`` at ``wrapper``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))


def install(rec: SpanRecorder, lib) -> list:
    """Wrap every traced boundary of ``lib``; returns the undo list."""
    games, leakage, repetition = lib.games, lib.leakage, lib.repetition
    csp, harness, cli = lib.csp, lib.harness, lib.cli
    modules = [lib.pkg, games, leakage, repetition, csp, harness, cli]
    undo: list = []

    def leaky_label(args):
        kind = args[1].kind
        return ("leakage.simultaneous"
                if kind is leakage.LeakageKind.SIMULTANEOUS
                else "leakage.one_way")

    def leaky_outer(counts, args, _):
        counts[leaky_label(args) + ".outer"] += \
            leakage.leaky_enumeration_size(args[0], args[1])

    def pairs(counts, args, _):
        g = args[0]
        counts["games.classical_value.pairs"] += \
            g.a_size ** g.x_size * g.b_size ** g.y_size

    def assignments(counts, args, _):
        c = args[0]
        counts["csp.csp_value_exact.assignments"] += \
            c.alphabet_size ** c.num_vars
        if rec.current() == "csp.find_low_value_instance":
            counts["csp.find_low_value_instance.nested"] += 1

    def profiles(counts, args, _):
        c, leak_bits = args[0], args[1]
        counts["csp.optimal_cheat.profiles"] += \
            (c.alphabet_size ** c.num_vars) ** (1 << leak_bits)

    def exact(counts, _args, result):
        counts["repetition.leaky_repetition_experiment.exact"] += \
            int(result.exact)

    def sessions(counts, args, _):
        counts["harness.estimate_acceptance.sessions"] += args[3]

    def under_estimator(_args):
        return ("harness.verdict_table"
                if rec.current() == "harness.estimate_acceptance" else None)

    functions = [
        (games, "load_game", "games.load_game", None),
        (games, "classical_value", "games.classical_value", pairs),
        (games, "merged_prover_value", "games.merged_prover_value", None),
        (leakage, "leaky_value_exact", leaky_label, leaky_outer),
        (leakage, "leaky_value_upper_bound", "leakage.upper_bound", None),
        (repetition, "leaky_repetition_experiment",
         "repetition.leaky_repetition_experiment", exact),
        (csp, "load_instance", "csp.load_instance", None),
        (csp, "csp_value_exact", "csp.csp_value_exact", assignments),
        (csp, "find_low_value_instance", "csp.find_low_value_instance", None),
        (csp, "_score_matrix", "csp.score_matrix", None),
        (csp, "optimal_cheat", "csp.optimal_cheat", profiles),
        (csp, "best_response", "csp.best_response", None),
        (harness, "estimate_acceptance", "harness.estimate_acceptance",
         sessions),
        (harness, "_play_game", under_estimator, None),
        (harness, "_play_csp", under_estimator, None),
        (harness, "_session_seeds_np", "harness.sampling", None),
        (harness, "_below_np", "harness.sampling", None),
        (harness, "run_session", "harness.run_session", None),
        (harness, "instance_id", "harness.instance_id", None),
        (harness, "replay_verify", "harness.replay_verify", None),
        (cli, "main", "cli.main", None),
    ]
    for home, attr, label, count in functions:
        original = getattr(home, attr)
        _rebind_everywhere(modules, original,
                           _wrap(rec, original, label, count), undo)

    def cells(counts, args, _):
        g = args[0]
        counts["repetition.tables.cells"] += g.x_size * g.y_size

    def row_cells(counts, args, _):
        g = args[0]
        counts["repetition.tables.cells"] += g.x_size * g.y_size * g.a_size

    methods = [
        (games.Game, "int_weights", "games.tables", None),
        (games.Game, "win_rows", "games.tables", None),
        (repetition.RepeatedGame, "int_weights", "repetition.tables", cells),
        (repetition.RepeatedGame, "win_rows", "repetition.tables", row_cells),
    ]
    for cls, attr, label, count in methods:
        original = cls.__dict__[attr]
        setattr(cls, attr, _wrap(rec, original, label, count))
        undo.append((cls, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


SELF_MS = [
    "games.load_game", "games.tables", "games.classical_value",
    "games.merged_prover_value", "leakage.one_way", "leakage.simultaneous",
    "leakage.upper_bound", "repetition.tables",
    "repetition.leaky_repetition_experiment", "csp.load_instance",
    "csp.csp_value_exact", "csp.find_low_value_instance", "csp.score_matrix",
    "csp.optimal_cheat", "csp.best_response", "harness.estimate_acceptance",
    "harness.verdict_table", "harness.sampling", "harness.run_session",
    "harness.instance_id", "harness.replay_verify", "cli.main",
]
COUNTS = [
    "games.tables.calls", "games.classical_value.pairs",
    "leakage.one_way.outer", "leakage.simultaneous.outer",
    "repetition.tables.cells", "csp.csp_value_exact.assignments",
    "csp.optimal_cheat.profiles", "harness.estimate_acceptance.sessions",
    "harness.run_session.calls", "harness.instance_id.calls",
    "cli.main.calls",
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder, artifact_bytes: int,
                  overhead_s: float) -> dict[str, dict]:
    """Every per-layer metric of the benchmark, by name, with its unit."""
    self_s = rec.self_seconds()
    c = rec.counts
    out: dict[str, dict] = {}
    for name in SELF_MS:
        out[name + ".self_ms"] = {"value": self_s.get(name, 0.0) * 1e3,
                                  "unit": "ms"}
    for name in COUNTS:
        out[name] = {"value": c.get(name, 0), "unit": "count"}
    out["repetition.leaky_repetition_experiment.exact_ratio"] = {
        "value": _ratio(c.get("repetition.leaky_repetition_experiment.exact",
                              0),
                        c.get("repetition.leaky_repetition_experiment.calls",
                              0)),
        "unit": "ratio"}
    out["csp.find_low_value_instance.yield_ratio"] = {
        "value": _ratio(c.get("csp.find_low_value_instance.calls", 0),
                        c.get("csp.find_low_value_instance.nested", 0)),
        "unit": "ratio"}
    out["cli.artifact_bytes"] = {"value": artifact_bytes, "unit": "bytes"}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out
