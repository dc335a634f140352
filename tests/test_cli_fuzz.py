"""Fuzzed CLI inputs: garbage game, CSP and run-config files must end in a
documented exit code (0, 2, 3 or 4), never in a traceback.

Files are near-valid texts with random line edits, free token soup, or raw
bytes; each is run through every command that reads that kind of file.
Run configs stay under a few thousand sessions and at most two leaked
bits, so that every example tests the input handling rather than the
machine.
"""

from __future__ import annotations

import contextlib
import io
import json
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from leakygames.cli import (EXIT_BUDGET, EXIT_GENERATOR_CAP, EXIT_INVALID,
                            EXIT_OK, main)

FIXTURES = resources.files("leakygames") / "fixtures"
EXITS = {EXIT_OK, EXIT_INVALID, EXIT_BUDGET, EXIT_GENERATOR_CAP}
FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

TOKENS = st.one_of(
    st.sampled_from(["game", "csp", "dist", "pred", "con", "lc", "e", ":",
                     "#", "0", "1", "01", "0110", "-1", "1/2", "x", "10**9",
                     "99999999999999999999"]),
    st.integers(-2, 12).map(str),
    st.text(max_size=4))
JUNK_LINE = st.lists(TOKENS, max_size=8).map(" ".join)


@st.composite
def _edited(draw, lines: list[str]) -> str:
    """``lines`` with up to three lines dropped, replaced or inserted."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["drop", "replace", "insert"]))
        if op == "insert" or i == len(lines):
            lines.insert(i, draw(JUNK_LINE))
        elif op == "drop":
            del lines[i]
        else:
            lines[i] = draw(JUNK_LINE)
    return "\n".join(lines)


@st.composite
def _game_text(draw) -> str:
    x, y, a, b = draw(st.tuples(*[st.integers(1, 3)] * 4))
    weights = draw(st.lists(st.integers(0, 3), min_size=x * y,
                            max_size=x * y))
    rows = draw(st.lists(st.text("01", min_size=a * b, max_size=a * b),
                         min_size=x * y, max_size=x * y))
    return draw(_edited([f"game g {x} {y} {a} {b}", "dist",
                         " ".join(map(str, weights)), "pred", *rows]))


@st.composite
def _csp_text(draw) -> str:
    n, q, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), \
        draw(st.integers(1, 2))
    lines = [f"csp {n} {q} {k}"]
    for _ in range(draw(st.integers(1, 4))):
        scope = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
        tuples = draw(st.lists(st.text("".join(map(str, range(q))),
                                       min_size=k, max_size=k), max_size=3))
        lines.append(f"con {' '.join(map(str, scope))} : {' '.join(tuples)}")
    if draw(st.booleans()):  # a label-cover section over the same shape
        lines.append(f"lc 1 {n} {q} {q}")
        lines.append(f"e 0 0 : {' '.join(['0'] * q)}")
    return draw(_edited(lines))


def _contents(structured):
    return st.one_of(structured, JUNK_LINE, st.lists(JUNK_LINE).map(
        "\n".join), st.binary(max_size=40))


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _write(path, content) -> str:
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(content=_contents(_game_text()))
def test_garbage_game_files(work, content):
    path = _write(work / "fuzz.game", content)
    for argv in (["value", path], ["repeat", path, "-n", "2"],
                 ["leaky-value", path, "--bits-ab", "1"],
                 ["leaky-value", path, "--model", "one-way-ba",
                  "--bits-ba", "1"],
                 ["leaky-value", path, "--model", "simultaneous",
                  "--bits-ab", "1", "--bits-ba", "1"]):
        assert _run(argv) in EXITS, argv


@FUZZ
@given(content=_contents(_csp_text()))
def test_garbage_csp_files(work, content):
    path = _write(work / "fuzz.csp", content)
    for argv in (["csp-val", path], ["csp-val", path, "--local-search"],
                 ["cheat", path, "--leak-bits", "1"],
                 ["cheat", path, "--leak-bits", "2"]):
        assert _run(argv) in EXITS, argv


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3000), st.floats(),
    st.text(max_size=6), st.lists(st.integers(-1, 2), max_size=2),
    st.dictionaries(st.text(max_size=4), st.integers(-1, 2), max_size=2))


@st.composite
def _config(draw, game_path: str, csp_path: str) -> dict:
    """A well-formed config with up to two keys dropped or set to junk."""
    game = draw(st.booleans())
    model = draw(st.sampled_from(["one-way-ab", "one-way-ba", "simultaneous"]))
    bits = draw(st.integers(0, 2))
    config = {
        "kind": "game" if game else "csp",
        "path": draw(st.sampled_from(
            [game_path, str(FIXTURES / "chsh.game")] if game
            else [csp_path, str(FIXTURES / "lowval_k2.csp")])),
        "sessions": draw(st.integers(1, 3000)),
        "seed": draw(st.integers(0, 9)),
        "behavior": draw(st.sampled_from(
            ["honest", "leaky"] if game else ["honest", "cheat"])),
        "model": {"kind": model,
                  "bits_ab": 0 if model == "one-way-ba" else bits,
                  "bits_ba": 0 if model == "one-way-ab" else bits},
    }
    for key in draw(st.sets(st.sampled_from(sorted(config)), max_size=2)):
        if draw(st.booleans()):
            del config[key]
        else:
            config[key] = draw(JSON_VALUES)
    return config


@FUZZ
@given(data=st.data())
def test_garbage_run_configs(work, data):
    game = _write(work / "run.game", data.draw(_contents(_game_text())))
    csp = _write(work / "run.csp", data.draw(_contents(_csp_text())))
    config = data.draw(st.one_of(_config(game, csp), JSON_VALUES))
    text = data.draw(st.one_of(st.just(json.dumps(config)),
                               _contents(JUNK_LINE)))
    path = _write(work / "run.json", text)
    assert _run(["run", path]) in EXITS
