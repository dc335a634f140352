"""Smoke tests of the benchmark itself: ``python -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
for _path in (ROOT / "tests", ROOT / "src"):
    sys.path.insert(1, str(_path))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "0.5"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(
        run.workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.workloads.WORKLOADS))
def test_each_workload_at_tiny_length(workload):
    out = result(bench("--workload", workload, "--seed", "3",
                       "--seconds", TINY, "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    out = result(bench("--workload", "sessions", "--seed", "3",
                       "--seconds", TINY, "--trace", "1"))
    assert out["correct"]
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {name: m["value"] for name, m in out["metrics"].items()}
    # two instance_id calls per transcript: run_session and replay_verify
    assert metrics["harness.instance_id.calls"] >= \
        2 * metrics["harness.run_session.calls"] > 0
    assert metrics["harness.estimate_acceptance.self_ms"] > 0


def test_same_seed_same_inputs(tmp_path):
    lib = run.load_library()
    digests = []
    for i in range(2):
        ctx = run.workloads.Context(lib, checks.Checker(lib), 5, 0.5,
                                    tmp_path / str(i))
        ctx.work.mkdir()
        workload = run.workloads.cheat_csp(ctx)
        for op in workload.ops:
            op.run()
        digests.append({op.id: checks.digest(workload.outputs[op.id])
                        for op in workload.ops})
    assert digests[0] == digests[1]


def test_checker_rejects_corrupted_witnesses():
    lib = run.load_library()
    chk = checks.Checker(lib)
    g = lib.games.chsh()
    model = lib.leakage.one_way_ab(1)
    value, witness = lib.leakage.leaky_value_exact(g, model)
    chk.leaky_solve(g, model, (value, witness), naive=True)
    flipped = tuple((1 - row[0],) + row[1:] for row in witness.alice_ans)
    bad = lib.leakage.LeakyStrategy(witness.alice_msg, witness.bob_msg,
                                    flipped, witness.bob_ans)
    with pytest.raises(checks.CheckError):
        chk.leaky_solve(g, model, (value, bad), naive=False)

    cvalue, pair = lib.games.classical_value(g)
    with pytest.raises(checks.CheckError):
        chk.classical_solve(g, (cvalue + Fraction(1, 4), pair), naive=True)

    c = lib.csp.load_instance(
        (ROOT / "src/leakygames/fixtures/lowval_k2.csp").read_text())
    cheat_value, profile = lib.csp.optimal_cheat(c, 1)
    other = lib.csp.CheatProfile(tuple(
        tuple((v + 1) % c.alphabet_size for v in a)
        for a in profile.assignments))
    with pytest.raises(checks.CheckError):
        chk.cheat(c, 1, (cheat_value, other))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sessions", "--seed", "1", "--seconds", TINY,
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "attempted" not in proc.stdout
