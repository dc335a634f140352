"""Command-line interface: dispatch, artifacts, exit codes, parameters."""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from leakygames import cli, games, harness, leakage
from leakygames.cli import (EXIT_BUDGET, EXIT_GENERATOR_CAP, EXIT_INVALID,
                            EXIT_OK, compute_params, main, parse_fraction)
from leakygames.csp import (CspInstance, load_instance, make_constraint,
                            optimal_cheat, save_csp)
from leakygames.errors import BudgetExceededError, InvalidInputError
from leakygames.games import make_game, save_game

FIXTURES = resources.files("leakygames") / "fixtures"
CHSH_PATH = str(FIXTURES / "chsh.game")
LOWVAL_PATH = str(FIXTURES / "lowval_k2.csp")
WIDE_PATH = "<wide game>"  # stands for the ``wide_game`` fixture's file


@pytest.fixture(scope="module")
def wide_game(tmp_path_factory) -> str:
    """A 20x20x8x2 game: 8^20 alice tables, past any exact budget."""
    path = tmp_path_factory.mktemp("wide") / "wide.game"
    path.write_text(save_game(make_game(
        "wide", 20, 20, 8, 2, [1] * 400,
        lambda x, y, a, b: (x + y + a + b) % 3 == 0)))
    return str(path)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_value_command(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "value", CHSH_PATH]) == EXIT_OK
    rows = read_rows(tmp_path / "value.csv")
    assert rows[0]["value"] == "3/4"
    assert rows[0]["value_float"] == "0.75"
    assert rows[0]["alice"] == "0,0" and rows[0]["bob"] == "0,0"
    assert "3/4" in capsys.readouterr().out


def test_value_reduces_each_game_once(tmp_path, monkeypatch):
    # a loaded game keeps the integer weights it parsed, reduced once by
    # their gcd, so neither its check on construction, the value, the
    # merged value nor the instance id recovers them from the Fractions
    calls = []
    reduce = games._over_common_denominator
    monkeypatch.setattr(games, "_over_common_denominator",
                        lambda weights: calls.append(1) or reduce(weights))
    assert main(["--out", str(tmp_path), "value", CHSH_PATH]) == EXIT_OK
    assert calls == []


def test_main_reuses_one_parser(tmp_path, capsys):
    # back-to-back calls on the kept parser, one of them an argparse error,
    # give the exit codes, stdout and artifacts of calls on fresh parsers
    calls = [["value", CHSH_PATH],
             ["cheat", LOWVAL_PATH, "--leak-bits", "1"],
             ["value"],  # no game file: argparse exits 2
             ["--format", "json", "--seed", "3", "leaky-value", CHSH_PATH,
              "--bits-ab", "1"],
             ["params", "--leak-bits", "1", "--answer-bits", "2",
              "--epsilon", "0.1", "-k", "2"],
             ["csp-val", LOWVAL_PATH]]

    def run(i, argv):
        out = tmp_path / str(i)
        try:
            code = main(["--out", str(out), *argv])
        except SystemExit as exc:
            code = exc.code
        files = ({p.name: p.read_bytes() for p in out.iterdir()}
                 if out.exists() else {})
        shutil.rmtree(out, ignore_errors=True)
        return code, capsys.readouterr().out, files

    fresh = []
    for i, argv in enumerate(calls):
        cli.build_parser.cache_clear()
        fresh.append(run(i, argv))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0, 0]
    assert cli.build_parser() is cli.build_parser()
    assert [run(i, argv) for i, argv in enumerate(calls)] == fresh


def test_value_csv_reproducible(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["--out", str(out1), "value", CHSH_PATH])
    main(["--out", str(out2), "value", CHSH_PATH])
    assert (out1 / "value.csv").read_bytes() == \
        (out2 / "value.csv").read_bytes()


def test_leaky_value_command(tmp_path):
    assert main(["--out", str(tmp_path), "leaky-value", CHSH_PATH,
                 "--model", "one-way-ab", "--bits-ab", "1"]) == EXIT_OK
    row = read_rows(tmp_path / "leaky-value.csv")[0]
    assert row["value"] == "1/1"
    assert row["upper_bound"] == "1/1"


def test_leaky_value_past_the_recursion_limit(tmp_path):
    # one-way-ba on 1200 alice questions: alice's one label string is as
    # long as her questions
    game = tmp_path / "tall.game"
    game.write_text(save_game(make_game("tall", 1200, 1, 1, 1, [1] * 1200,
                                        lambda *_: True)))
    assert main(["--out", str(tmp_path), "leaky-value", str(game),
                 "--model", "one-way-ba", "--bits-ba", "1"]) == EXIT_OK
    assert read_rows(tmp_path / "leaky-value.csv")[0]["value"] == "1/1"


def test_repeat_command(tmp_path):
    assert main(["--out", str(tmp_path), "repeat", CHSH_PATH,
                 "-n", "2"]) == EXIT_OK
    row = read_rows(tmp_path / "repeat.csv")[0]
    assert row["value"] == "5/8"
    assert row["product_lower"] == "9/16"
    assert row["base_value"] == "3/4"


def test_csp_val_command(tmp_path):
    assert main(["--out", str(tmp_path), "csp-val", LOWVAL_PATH]) == EXIT_OK
    row = read_rows(tmp_path / "csp-val.csv")[0]
    assert row["value"] == "7/32"


def test_cheat_command_bounded_by_cap(tmp_path):
    assert main(["--out", str(tmp_path), "cheat", LOWVAL_PATH,
                 "--leak-bits", "1"]) == EXIT_OK
    row = read_rows(tmp_path / "cheat.csv")[0]
    assert row["within_cap"] == "True"
    assert row["soundness_cap"] == "3/4"
    num, den = map(int, row["value"].split("/"))
    assert num * 4 <= den * 3  # value <= 3/4 exactly


def test_missing_file_no_partial_artifacts(tmp_path):
    out = tmp_path / "artifacts"
    assert main(["--out", str(out), "value",
                 str(tmp_path / "nope.game")]) == EXIT_INVALID
    assert not out.exists()


def test_files_past_the_character_cap_exit_invalid(monkeypatch, capsys):
    # /dev/zero was read until memory ran out
    size = len(Path(CHSH_PATH).read_text())
    monkeypatch.setattr(cli, "FILE_CHARS", size)
    assert main(["value", CHSH_PATH]) == EXIT_OK
    capsys.readouterr()
    for path, cap in ((CHSH_PATH, size - 1), ("/dev/zero", 1000)):
        monkeypatch.setattr(cli, "FILE_CHARS", cap)
        assert main(["value", path]) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error (invalid input): cannot read "
                                     f"{path}: more than {cap} characters\n")

    # under a memory limit, reading up to the cap can run out first
    class Unreadable(io.StringIO):
        def read(self, size=-1):
            raise MemoryError
    monkeypatch.setattr(cli, "open", lambda path: Unreadable(), raising=False)
    assert main(["value", CHSH_PATH]) == EXIT_INVALID
    assert capsys.readouterr().err == (f"error (invalid input): cannot read "
                                       f"{CHSH_PATH}: out of memory\n")


def test_malformed_file_exit_code(tmp_path):
    bad = tmp_path / "bad.game"
    bad.write_text("game g 2 2 2 2\ndist\n0 0\n0 0\npred\n")
    assert main(["value", str(bad)]) == EXIT_INVALID


MALFORMED_FILES = [
    ("csp-val", "csp 2 x 2\ncon 0 1 : 01\n", 1, "malformed header field 'x'"),
    ("csp-val", "# wide\ncsp 2 11 2\ncon 0 1 : 01\n", 2,
     "alphabet > 10 not representable as digits"),
    ("csp-val", "csp 2 2 2\nlc 1 1 2\ncon 0 1 : 01\n", 2,
     "expected 'lc <L> <R> <sigmaL> <sigmaR>'"),
    ("csp-val", "csp 2 2 2\n# no colon\ncon 0 1 01\n", 3,
     "con line missing ':'"),
    ("csp-val", "csp 2 2 2\nlc 1 1 2 2\ncon 0 1 : 00 11\ne 0 : 0 1\n", 4,
     "expected 'e <u> <v> : <phi values>'"),
    ("csp-val", "csp 2 2 2\ncon 0 1 : 01\n\nfoo 1\n", 4,
     "unknown directive 'foo'"),
    ("csp-val", "# header only\ncsp 2 2 2\n# end\n", 2, "no constraints"),
    ("value", "game g 2 1 2 2\ndist\n1\n-1\npred\n1001\n1001\n", 4,
     "negative weight"),
    ("value", "game g 1 1 2 2\ndist\n1\n# no pred\n", 3,
     "expected 'pred' section"),
]


@pytest.mark.parametrize("command, text, line, message", MALFORMED_FILES,
                         ids=[message for *_, message in MALFORMED_FILES])
def test_malformed_files_name_their_line(command, text, line, message,
                                         tmp_path, capsys):
    path = tmp_path / ("in.csp" if command == "csp-val" else "in.game")
    path.write_text(text)
    assert main([command, str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err == \
        f"error (invalid input): line {line}: {message}\n"


def test_budget_exit_code():
    assert main(["--budget", "5", "value", CHSH_PATH]) == EXIT_BUDGET


@pytest.mark.parametrize("argv", [
    ["--budget", "0", "value", CHSH_PATH],
    ["--budget", "-1", "value", CHSH_PATH],
    ["--budget", "0", "leaky-value", CHSH_PATH, "--bits-ab", "1"],
    ["--budget", "0", "csp-val", LOWVAL_PATH, "--local-search"],
    ["--budget", "-1", "gen", "--kind", "game"],
    ["gen", "--kind", "csp", "--constraints", "0"],
    ["gen", "--kind", "csp", "--constraints", "-3"],
    ["gen", "--kind", "low-val-csp", "--constraints", "0"],
    ["csp-val", LOWVAL_PATH, "--local-search", "--restarts", "-5"],
    ["csp-val", LOWVAL_PATH, "--local-search", "--restarts", "0"],
    ["gen", "--kind", "low-val-csp", "--attempts", "0"],
    ["params", "--leak-bits", "1", "--answer-bits", "1", "--epsilon", "0.1",
     "-k", "2", "--question-bits", "-3"],
])
def test_counts_below_one_exit_invalid(argv, tmp_path, capsys):
    # a budget of 0 once ran every solver at its default and one of -1
    # refused every solve; 0 constraints once wrote 4 * vars of them;
    # -5 restarts once ran one, 0 attempts exhausted the generator cap and
    # -3 question bits printed -6 repeated ones
    out = tmp_path / "x"
    assert main(["--out", str(out), *argv]) == EXIT_INVALID
    assert ("question_bits out of range" if "--question-bits" in argv
            else "must be >= 1") in capsys.readouterr().err
    assert not out.exists()


def test_budget_of_one_is_a_budget():
    # the smallest budget is honoured, not replaced by a default
    assert main(["--budget", "1", "value", CHSH_PATH]) == EXIT_BUDGET
    assert main(["--budget", "16", "value", CHSH_PATH]) == EXIT_OK


def test_generator_cap_exit_code(tmp_path):
    assert main(["--out", str(tmp_path), "gen", "--kind", "low-val-csp",
                 "--target", "-1", "--attempts", "3"]) == EXIT_GENERATOR_CAP


def test_gen_game_round_trips(tmp_path, capsys):
    assert main(["--seed", "5", "gen", "--kind", "game"]) == EXIT_OK
    text = capsys.readouterr().out
    from leakygames.games import load_game
    g = load_game(text)
    assert g.x_size == 2


@pytest.mark.parametrize("alphabet, arity", [(1, 2), (2, 2), (3, 3), (5, 1)])
def test_gen_csp_draws_match_listed_tuples(alphabet, arity, capsys):
    # allowed tuples are sampled by index: the draws of sampling the listed
    # tuples, so seeded files keep their bytes
    assert main(["--seed", "7", "gen", "--kind", "csp", "--vars", "3",
                 "--alphabet", str(alphabet), "--arity", str(arity)]) == EXIT_OK
    rng = random.Random(7)
    space = list(itertools.product(range(alphabet), repeat=arity))
    cons = []
    for _ in range(12):
        scope = tuple(rng.randrange(3) for _ in range(arity))
        cons.append(make_constraint(scope,
                                    rng.sample(space, min(2, len(space)))))
    assert capsys.readouterr().out == save_csp(
        CspInstance(3, alphabet, arity, tuple(cons)))


def test_gen_csp_lists_no_tuple_space(capsys):
    # 10^8 tuples of arity 8: listing them would take about 9 GB
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["--seed", "3", "gen", "--kind", "csp", "--vars", "3",
                     "--alphabet", "10", "--arity", "8", "--constraints",
                     "2"])
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and seconds < 2 and peak < 2**20
    assert len(load_instance(capsys.readouterr().out).constraints) == 2


@pytest.mark.parametrize("sizes", [
    ["--vars", "0", "--constraints", "3"], ["--alphabet", "0"],
    ["--arity", "-1"], ["--alphabet", "10", "--arity", "30"]])
@pytest.mark.parametrize("kind", ["csp", "low-val-csp"])
def test_gen_csp_bad_sizes_exit_invalid(kind, sizes):
    assert main(["gen", "--kind", kind, *sizes]) == EXIT_INVALID


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "game", "--sizes", "1000", "1000", "100", "100"],
    ["gen", "--kind", "csp", "--vars", "3", "--constraints", "1000000000"],
    ["--budget", "15", "gen", "--kind", "game"],
])
def test_gen_refuses_outputs_past_the_cell_cap(argv, tmp_path, capsys):
    # 10^10 predicate cells and 2 * 10^9 scope entries are refused before
    # any is drawn; --budget moves the cap, here below the 16 cells of a
    # 2x2x2x2 game
    out = tmp_path / "x"
    start = time.perf_counter()
    assert main(["--out", str(out), *argv]) == EXIT_BUDGET
    assert time.perf_counter() - start < 2
    assert "budget is" in capsys.readouterr().err and not out.exists()
    assert main(["--budget", "16", "gen", "--kind", "game"]) == EXIT_OK


@pytest.mark.parametrize("argv, code", [
    (["csp-val", LOWVAL_PATH, "--local-search", "--restarts", "1000000000"],
     EXIT_BUDGET),
    (["csp-val", LOWVAL_PATH, "--local-search"], EXIT_OK),
    (["--budget", "39", "csp-val", LOWVAL_PATH, "--local-search"],
     EXIT_BUDGET),
    (["--budget", "40", "csp-val", LOWVAL_PATH, "--local-search"], EXIT_OK),
])
def test_local_search_restarts_meet_the_cell_cap(argv, code, tmp_path):
    # 10^9 restarts once climbed until killed; every restart sweeps the
    # fixture's 4 variables, so the default 10 take at least 40 steps, and
    # --budget moves the cap
    out = tmp_path / "x"
    start = time.perf_counter()
    assert main(["--out", str(out), *argv]) == code
    assert time.perf_counter() - start < 2
    assert out.exists() == (code == EXIT_OK)


def test_local_search_cap_admits_generated_instances(tmp_path, monkeypatch):
    # a gen --kind csp instance the exact solver refuses, naming local
    # search as its fallback, passes the cap at the default restarts; a
    # stub stands in for the climb, which takes seconds
    assert main(["--out", str(tmp_path), "gen", "--kind", "csp",
                 "--vars", "300"]) == EXIT_OK
    path = str(tmp_path / "random-0.csp")
    assert main(["--out", str(tmp_path / "x"), "csp-val", path]) \
        == EXIT_BUDGET
    calls = []
    monkeypatch.setattr(cli.csp_mod, "csp_value_local_search",
                        lambda c, seed, restarts: calls.append(restarts)
                        or (Fraction(0), (0,) * c.num_vars))
    assert main(["--out", str(tmp_path / "y"), "csp-val", path,
                 "--local-search"]) == EXIT_OK
    assert calls == [10]


@pytest.mark.parametrize("sizes", [["0", "2", "2", "2"],
                                   ["-100000", "-100000", "0", "2"]])
def test_gen_game_bad_sizes_exit_invalid(sizes, capsys):
    # two negative sizes once drew 10^10 question weights
    assert main(["gen", "--kind", "game", "--sizes", *sizes]) == EXIT_INVALID
    assert "sizes out of range" in capsys.readouterr().err


def test_gen_low_val_csp(tmp_path):
    assert main(["--seed", "11", "--out", str(tmp_path), "gen",
                 "--kind", "low-val-csp", "--vars", "4", "--alphabet", "3",
                 "--constraints", "32"]) == EXIT_OK
    path = tmp_path / "lowval-11.csp"
    assert path.exists()
    assert "certified value" in path.read_text().splitlines()[0]


def test_run_command_game(tmp_path):
    config = {"kind": "game", "path": CHSH_PATH, "behavior": "honest",
              "sessions": 20000, "seed": 4}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["--out", str(tmp_path), "run", str(cfg_path)]) == EXIT_OK
    row = read_rows(tmp_path / "run.csv")[0]
    estimate = float(row["estimate_float"])
    assert abs(estimate - 0.75) < 0.02
    assert row["behavior"] == "best-classical"


def test_run_command_csp_honest(tmp_path):
    # build a satisfiable instance on disk, then drive it through run
    import random

    import helpers
    from leakygames.csp import save_csp
    c, _ = helpers.satisfiable_csp(random.Random(12))
    path = tmp_path / "sat.csp"
    path.write_text(save_csp(c))
    config = {"kind": "csp", "path": str(path), "behavior": "honest",
              "sessions": 5000, "seed": 1}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--out", str(tmp_path), "run", str(cfg)]) == EXIT_OK
    row = read_rows(tmp_path / "run.csv")[0]
    assert row["accepted"] == "5000"



@pytest.mark.parametrize("spec, model", [
    ({"kind": "one-way-ab", "bits_ab": 1}, leakage.one_way_ab(1)),
    ({"kind": "one-way-ba", "bits_ba": 1}, leakage.one_way_ba(1)),
    ({"kind": "simultaneous", "bits_ab": 1, "bits_ba": 1},
     leakage.simultaneous(1, 1)),
])
def test_run_command_game_leaky(spec, model, tmp_path):
    # the best leaky witness, played by the harness: the count is the
    # estimator's on that witness, and the artifact repeats byte for byte
    g = helpers.random_game_exact(random.Random(9), 3, 3, 2, 2)
    game = tmp_path / "g.game"
    game.write_text(save_game(g))
    value, witness = leakage.leaky_value_exact(g, model)
    assert value < 1
    config = {"kind": "game", "path": str(game), "behavior": "leaky",
              "model": spec, "sessions": 3000, "seed": 7}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    artifacts = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(["--out", str(out), "run", str(cfg)]) == EXIT_OK
        artifacts.append((out / "run.csv").read_bytes())
    assert artifacts[0] == artifacts[1]
    row = read_rows(tmp_path / "a" / "run.csv")[0]
    assert row["behavior"] == "best-leaky"
    record = harness.estimate_acceptance(
        g, harness.behaviors_from_leaky_strategy(model, witness), model,
        3000, 7)
    assert int(row["accepted"]) == record.accepted < 3000


def test_run_command_csp_cheat(tmp_path):
    # the optimal 2-bit cheat, played by the harness: its profile scan
    # prunes two slot levels above the pair leaf
    config = {"kind": "csp", "path": LOWVAL_PATH, "sessions": 2000,
              "behavior": "cheat",
              "model": {"kind": "one-way-ab", "bits_ab": 2}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    artifacts = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(["--out", str(out), "run", str(cfg)]) == EXIT_OK
        artifacts.append((out / "run.csv").read_bytes())
    assert artifacts[0] == artifacts[1]
    row = read_rows(tmp_path / "a" / "run.csv")[0]
    assert row["behavior"] == "optimal-cheat"
    c = load_instance(Path(LOWVAL_PATH).read_text())
    record = harness.estimate_acceptance(
        c, harness.behaviors_from_cheat_profile(c, optimal_cheat(c, 2)[1]),
        leakage.one_way_ab(2), 2000, 0)
    assert int(row["accepted"]) == record.accepted == 1719


@pytest.mark.parametrize("kind, path, behavior, message", [
    ("game", CHSH_PATH, "bogus", "unknown game behavior 'bogus'"),
    ("csp", LOWVAL_PATH, "leaky", "unknown csp behavior 'leaky'"),
    ("table", CHSH_PATH, "honest", "config kind must be 'game' or 'csp'"),
])
def test_run_refuses_unknown_kinds_and_behaviors(kind, path, behavior,
                                                 message, tmp_path, capsys):
    config = {"kind": kind, "path": path, "behavior": behavior,
              "sessions": 100, "seed": 4}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg)]) == EXIT_INVALID
    assert message in capsys.readouterr().err


def test_cheat_refuses_score_tables_past_the_cap(tmp_path, capsys):
    # 2^26 assignments x the generated constraints: refused before the
    # score table is built
    assert main(["--out", str(tmp_path), "gen", "--kind", "csp",
                 "--vars", "26"]) == EXIT_OK
    path = next(tmp_path.glob("*.csp"))
    assert main(["cheat", str(path), "--leak-bits", "0"]) == EXIT_BUDGET
    assert "cheat score table" in capsys.readouterr().err

def test_json_artifact(tmp_path):
    assert main(["--out", str(tmp_path), "--format", "json", "value",
                 CHSH_PATH]) == EXIT_OK
    doc = json.loads((tmp_path / "value.json").read_text())
    assert doc["command"] == "value"
    assert doc["rows"][0]["value"] == "3/4"


RUN_CONFIG = "<run config>"  # stands for a config file written by the test
ROW_COLUMNS = [
    (["value", CHSH_PATH],
     ["instance", "value", "value_float", "merged_value", "merged_float",
      "alice", "bob"]),
    (["leaky-value", CHSH_PATH, "--bits-ab", "1"],
     ["instance", "model", "bits_ab", "bits_ba", "value", "value_float",
      "upper_bound", "upper_bound_float", "alice_msg", "bob_msg",
      "alice_ans", "bob_ans"]),
    (["repeat", CHSH_PATH, "-n", "2"],
     ["instance", "copies", "value", "value_float", "base_value",
      "base_float", "product_lower", "product_lower_float", "alice", "bob"]),
    (["csp-val", LOWVAL_PATH],
     ["instance", "method", "value", "value_float", "assignment"]),
    (["cheat", LOWVAL_PATH],
     ["instance", "leak_bits", "value", "value_float", "soundness_cap",
      "soundness_cap_float", "within_cap", "profile"]),
    (["run", RUN_CONFIG],
     ["instance", "behavior", "model", "bits_ab", "bits_ba", "sessions",
      "accepted", "estimate", "estimate_float", "half_width",
      "master_seed"]),
    (["params", "--leak-bits", "1", "--answer-bits", "2", "--epsilon", "0.1",
      "-k", "2"],
     ["leak_bits", "answer_bits", "epsilon", "k_multiplier", "c_exp",
      "c_rate", "repetitions", "repeated_answer_bits",
      "repeated_question_bits", "pre_clamp", "soundness_claim", "vacuous"]),
]


@pytest.mark.parametrize("argv, columns", ROW_COLUMNS,
                         ids=[argv[0] for argv, _ in ROW_COLUMNS])
def test_row_commands_keep_their_columns(argv, columns, tmp_path, capsys):
    # a row's key order is its column order in the table, the csv header
    # and the json row, so these lists pin the artifact layout
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "game", "path": CHSH_PATH,
                               "sessions": 100}))
    argv = [str(cfg) if arg == RUN_CONFIG else arg for arg in argv]
    out = tmp_path / "out"
    for fmt in ("csv", "json"):
        assert main(["--out", str(out), "--format", fmt, *argv]) == EXIT_OK
        assert capsys.readouterr().out.split()[:len(columns)] == columns
    csv_lines = (out / f"{argv[0]}.csv").read_text().splitlines()
    assert csv_lines[0] == ",".join(columns) and len(csv_lines) == 2
    rows = json.loads((out / f"{argv[0]}.json").read_text())["rows"]
    assert len(rows) == 1 and sorted(rows[0]) == sorted(columns)


@pytest.mark.parametrize("argv", [["value", CHSH_PATH],
                                  ["gen", "--kind", "game"]],
                         ids=["value", "gen"])
def test_unwritable_out_exits_invalid(argv, tmp_path, capsys):
    # --out naming a file, a directory under one, or a NUL byte cannot be
    # created; the failed write prints no result
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub", tmp_path / "nul\0byte"):
        assert main(["--out", str(out), *argv]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error (invalid input): cannot write")
    assert blocker.read_text() == ""


def test_run_refuses_weight_totals_past_64_bits(tmp_path):
    # sessions draw residues of the weight total from 64-bit words, and for
    # a total of 2^64 + 2 their rejection limit is 0: a missing refusal
    # would hang, so the check runs in a child process a timeout can stop
    game = tmp_path / "big.game"
    game.write_text("game big 1 2 2 2\ndist\n18446744073709551617 1\n"
                    "pred\n1001\n0110\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "game", "path": str(game),
                               "sessions": 10}))
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "leakygames.cli", "run",
                           str(cfg)], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == EXIT_INVALID
    assert proc.stderr.startswith("error (invalid input): question weight")


def test_parse_fraction():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("0.25") == Fraction(1, 4)
    with pytest.raises(InvalidInputError):
        parse_fraction("zebra")


# -- parameter calculator ----------------------------------------------------


def test_params_zero_leakage_is_plain_bound():
    report = compute_params(0, 2, 0.25, 10)
    assert report["repetitions"] == 10
    assert report["pre_clamp"] == pytest.approx(
        (1 - 0.25) ** ((1 / 16) * 10 / 5))
    assert report["soundness_claim"] == report["pre_clamp"]  # 2^0 factor
    # the plug-in point: (1 - 1/4) ** (1 * 3 / 3), falling with every k
    curve = [compute_params(0, 1, 0.25, k, c_rate=1.0)["pre_clamp"]
             for k in range(1, 11)]
    assert curve[2] == 0.75
    assert all(x > y for x, y in zip(curve, curve[1:]))


def test_params_vacuous_flag():
    report = compute_params(3, 1, 0.25, 1)
    assert report["vacuous"]
    assert report["soundness_claim"] == 1.0
    big = compute_params(1, 1, 0.5, 400)
    assert not big["vacuous"]
    assert big["soundness_claim"] < 1.0


def test_params_answer_bits_scale():
    report = compute_params(2, 3, 0.25, 7, question_bits=5)
    assert report["repetitions"] == 14
    assert report["repeated_answer_bits"] == 42
    assert report["repeated_question_bits"] == 70


@settings(max_examples=60, deadline=None)
@given(leak=st.integers(0, 8), answer=st.integers(0, 6),
       eps=st.floats(0.01, 0.5), k=st.integers(1, 50))
def test_params_doubling_k_squares_the_decay(leak, answer, eps, k):
    single = compute_params(leak, answer, eps, k)
    double = compute_params(leak, answer, eps, 2 * k)
    factor = 2.0 ** leak
    decay_single = single["pre_clamp"] / factor
    decay_double = double["pre_clamp"] / factor
    assert math.isclose(decay_double, decay_single ** 2,
                        rel_tol=64 * sys.float_info.epsilon, abs_tol=1e-300)


def test_params_validation():
    with pytest.raises(InvalidInputError, match="epsilon"):
        compute_params(1, 2, 0.0, 3)
    with pytest.raises(InvalidInputError):
        compute_params(1, 2, 0.75, 3)
    with pytest.raises(InvalidInputError):
        compute_params(-1, 2, 0.25, 3)
    with pytest.raises(InvalidInputError):
        compute_params(1, 2, 0.25, 0)
    # a float k ran 2.5 repetitions, and a bool was read as 1 leak bit
    with pytest.raises(InvalidInputError, match="k_multiplier out of range"):
        compute_params(1, 1, 0.25, 2.5)
    with pytest.raises(InvalidInputError, match="leak_bits out of range"):
        compute_params(True, 1, 0.25, 1)
    with pytest.raises(InvalidInputError, match="answer_bits out of range"):
        compute_params(1, 1.0, 0.25, 1)
    with pytest.raises(InvalidInputError, match="question_bits out of range"):
        compute_params(1, 1, 0.25, 1, question_bits=False)


@pytest.mark.parametrize("argv, message", [
    # 2.0 ** 1024 overflows a float, and the decay exponent of 10^400
    # repetitions does too
    (["--leak-bits", "1024", "--answer-bits", "1", "--epsilon", "0.1",
      "-k", "1"], "out of float range"),
    (["--leak-bits", "1", "--answer-bits", "1", "--epsilon", "0.1",
      "-k", str(10**400)], "out of float range"),
    (["--leak-bits", "1", "--answer-bits", "1", "--epsilon", "0.1",
      "-k", "1", "--c-exp", "nan"], "positive and finite"),
    (["--leak-bits", "1", "--answer-bits", "1", "--epsilon", "0.1",
      "-k", "1", "--c-exp", "inf"], "positive and finite"),
    (["--leak-bits", "1", "--answer-bits", "1", "--epsilon", "0.1",
      "-k", "1", "--c-rate", "nan"], "positive and finite"),
    (["--leak-bits", "1", "--answer-bits", "1", "--epsilon", "0.1",
      "-k", "1", "--c-rate=-inf"], "positive and finite"),
], ids=["leak-1024", "k-10^400", "c-exp-nan", "c-exp-inf", "c-rate-nan",
        "c-rate-minus-inf"])
def test_params_refuses_claims_a_float_cannot_hold(argv, message, tmp_path,
                                                   capsys):
    assert main(["--out", str(tmp_path), "params", *argv]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == "" and message in err
    assert list(tmp_path.iterdir()) == []


def test_params_largest_leak_within_float_range():
    # 2^1023 times a decay below one: finite, clamped and vacuous
    report = compute_params(1023, 1, 0.1, 1)
    assert math.isfinite(report["pre_clamp"]) and report["pre_clamp"] > 1.0
    assert report["soundness_claim"] == 1.0 and report["vacuous"]


@pytest.mark.parametrize("argv", [
    ["--budget", "5", "repeat", CHSH_PATH, "-n", "2"],
    ["--budget", "5", "leaky-value", CHSH_PATH, "--bits-ab", "1"],
    ["--budget", "5", "cheat", LOWVAL_PATH],
    ["--budget", "5", "csp-val", LOWVAL_PATH],
])
def test_budget_honored_everywhere(argv, tmp_path):
    out = tmp_path / "x"
    assert main(["--out", str(out), *argv]) == EXIT_BUDGET
    assert not out.exists()  # graceful: nothing half-written


@pytest.mark.parametrize("argv", [
    ["leaky-value", WIDE_PATH, "--model", "simultaneous",
     "--bits-ab", "1", "--bits-ba", "1"],
    ["repeat", CHSH_PATH, "-n", "22"],
    ["cheat", LOWVAL_PATH, "--leak-bits", "12"],
    ["cheat", LOWVAL_PATH, "--leak-bits", "16"],
    ["cheat", LOWVAL_PATH, "--leak-bits", "24"],
    ["repeat", CHSH_PATH, "-n", "30"],
    ["leaky-value", CHSH_PATH, "--model", "simultaneous",
     "--bits-ab", "0", "--bits-ba", "30"],
])
def test_astronomical_requests_exit_budget(argv, wide_game, capsys):
    # the required count is far past the budget: reported as a power of two
    argv = [wide_game if arg == WIDE_PATH else arg for arg in argv]
    assert main(argv) == EXIT_BUDGET
    assert "needs about 2^" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["repeat", CHSH_PATH, "-n", "2000"],
    ["cheat", LOWVAL_PATH, "--leak-bits", "2000"],
])
def test_requests_past_float_range_exit_budget(argv, capsys):
    # log2 of the count no longer fits a float
    assert main(argv) == EXIT_BUDGET
    assert "needs more than 2^1024" in capsys.readouterr().err


def test_repeat_guard_builds_no_sizes():
    # 2^(10^9) questions per side: the guard compares float sizes, and
    # never builds the integer sizes of the repeated game
    assert main(["repeat", CHSH_PATH, "-n", "1000000000"]) == EXIT_BUDGET


def test_run_refuses_sessions_past_cap(tmp_path, capsys):
    config = {"kind": "game", "path": CHSH_PATH, "behavior": "honest",
              "sessions": 10**12, "seed": 4}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg)]) == EXIT_BUDGET
    assert "session sampling" in capsys.readouterr().err


def test_astronomical_simultaneous_request_on_wider_game(tmp_path, capsys):
    # 3 * 2^30 alice answer cells: refused from the log2 bound alone
    game = tmp_path / "g.game"
    game.write_text(save_game(
        helpers.random_game_exact(random.Random(5), 3, 3, 3, 3)))
    assert main(["leaky-value", str(game), "--model", "simultaneous",
                 "--bits-ab", "0", "--bits-ba", "30"]) == EXIT_BUDGET
    assert "needs about 2^" in capsys.readouterr().err


def test_simultaneous_leak_past_the_questions_solves(tmp_path):
    # 2^15 messages each way, but two questions per side leave two label
    # strings each: the witness's 2 x 2^15 answer cells dominate the count
    assert main(["--out", str(tmp_path), "leaky-value", CHSH_PATH,
                 "--model", "simultaneous", "--bits-ab", "15",
                 "--bits-ba", "15"]) == EXIT_OK
    row = read_rows(tmp_path / "leaky-value.csv")[0]
    assert row["value"] == "1/1"
    # bob leaks y, so alice answers x and y and alice's message stays 0
    assert row["alice_msg"] == "0,0" and row["bob_msg"] == "0,1"
    assert [len(r.split(",")) for r in row["alice_ans"].split(";")] == \
        [2**15, 2**15]


def test_budget_error_shows_a_count_past_64_bits_as_a_power():
    # a count passed without its log2 is shown by its bit length
    exc = BudgetExceededError(2**70 + 5, 10, "table", fallback="sampling")
    assert str(exc) == ("table needs about 2^70 steps, budget is 10; "
                        "fall back to sampling")
    assert exc.required == 2**70 + 5
    assert exc.log2_required == math.log2(2**70 + 5)
    small = BudgetExceededError(2**64 - 1, 10)
    assert str(small) == f"enumeration needs {2**64 - 1} steps, budget is 10"


@pytest.mark.parametrize("argv, fallback", [
    (["leaky-value", CHSH_PATH, "--bits-ab", "1"], "leaky_value_upper_bound"),
    (["csp-val", LOWVAL_PATH], "csp_value_local_search"),
    (["value", CHSH_PATH], "the Monte Carlo `run` harness"),
    (["repeat", CHSH_PATH, "-n", "2"], "the Monte Carlo `run` harness"),
    (["cheat", LOWVAL_PATH], "the Monte Carlo `run` harness"),
])
def test_budget_error_names_fallback(argv, fallback, capsys):
    assert main(["--budget", "5", *argv]) == EXIT_BUDGET
    out = capsys.readouterr()
    assert out.err.rstrip().endswith(f"; fall back to {fallback}")
    assert out.out == ""


def test_leaky_value_budget_covers_upper_bound(tmp_path):
    # a 4x4x4x4 game solves one-way in a few hundred steps, but its
    # classical upper bound needs 4^4 * 4^4 strategy pairs
    game = tmp_path / "g.game"
    game.write_text(save_game(
        helpers.random_game_exact(random.Random(3), 4, 4, 4, 4)))
    argv = ["leaky-value", str(game), "--bits-ab", "1"]
    assert main(["--budget", "10000", *argv]) == EXIT_BUDGET
    assert main(["--budget", "100000", *argv]) == EXIT_OK


def test_run_honors_budget(tmp_path):
    config = {"kind": "game", "path": CHSH_PATH, "behavior": "honest",
              "sessions": 100, "seed": 4}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--budget", "3", "run", str(cfg)]) == EXIT_BUDGET


@pytest.mark.parametrize("change", [
    {"seed": 1.5}, {"sessions": True}, {"sessions": 0},
], ids=["seed-float", "sessions-bool", "sessions-0"])
def test_run_refuses_bad_counts_before_the_solve(change, tmp_path, capsys):
    # the honest solve is over a budget of 3, so these once exited 3
    config = {"kind": "game", "path": CHSH_PATH, "behavior": "honest",
              "sessions": 100, "seed": 4, **change}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--budget", "3", "run", str(cfg)]) == EXIT_INVALID
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"seed": "x"}, {"seed": 1.5}, {"seed": True}, {"sessions": "abc"},
    {"sessions": 2.5}, {"model": {"kind": "bogus"}}, {"model": {"kind": []}},
    {"model": "one-way-ab"}, {"model": {"bits_ab": "1"}},
    {"model": {"kind": "simultaneous", "bits_ba": 0.5}}, {"path": 3},
])
def test_run_rejects_malformed_config(change, tmp_path, capsys):
    config = {"kind": "game", "path": CHSH_PATH, "behavior": "honest",
              "sessions": 100, "seed": 4, **change}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg)]) == EXIT_INVALID
    assert "error (invalid input)" in capsys.readouterr().err
