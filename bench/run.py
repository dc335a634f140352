"""Benchmark for leakygames.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, runs its ops in this one
process and thread, checks every output, and prints one JSON object as the
last line of stdout.  With ``--trace 0`` it reports the end-to-end metrics
of an untraced run: ``op_cost``, the typical op measured against a fixed
calibration loop timed next to it, plus set-up time and peak memory.  With
``--trace 1`` it runs the workload untraced, then
again with a span at every layer boundary, and reports the per-layer
metrics of the traced run plus the tracing overhead.  Workloads, metrics
and the layer-to-end-to-end map are described in NOTES.md.

``--write-golden`` (seed 0 only) stores the digest of every op output in
``bench/golden/``; runs at seed 0 then compare against it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden"
GOLDEN_SEED = 0
SETUP_REPEATS = 9
# Calibration loops: fixed work, timed before every op.  Op latencies are
# divided by the median loop time of the ops within CAL_WINDOW places that
# use the same loop, so that the slow and fast phases of a shared machine
# cancel out of ``op_cost``.  The machine's phases slow interpreter-bound
# code far more than whole-array numpy passes, so each op kind is timed
# against a loop of its own sort of work (``CALIBRATION``).
CAL_WINDOW = 4
# interpreter loop: pure-Python integer steps, a best-response fold over
# answer tables and small numpy array operations, about 3-5 ms together
CAL_ITERATIONS = 12_000
CAL_FOLD_TABLES = 80
CAL_ARRAY_STEPS = 250
# array loop: arithmetic over a 10^6-element array, like the estimator's
# passes over 10^6 sessions, about 15 ms
CAL_ARRAY_ELEMENTS = 1_000_000
_fold_rng = random.Random(0)
# rows[x][y][a] = bitmask of winning b, and question weights, of a fixed
# 6x6x3x3 game that the fold scans
FOLD_ROWS = [[[_fold_rng.getrandbits(3) for _ in range(3)] for _ in range(6)]
             for _ in range(6)]
FOLD_WEIGHTS = [_fold_rng.randint(0, 3) for _ in range(36)]
LIB_MODULES = ("cli", "csp", "games", "harness", "leakage", "repetition")

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _library_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name in ("leakygames", "oracles")
            or name.startswith("leakygames.")}


def load_library() -> SimpleNamespace:
    """Import ``leakygames`` afresh from this checkout's ``src``."""
    for name in _library_modules():
        del sys.modules[name]
    pkg = importlib.import_module("leakygames")
    if Path(pkg.__file__).resolve().parent != (SRC / "leakygames").resolve():
        raise ImportError(f"leakygames imported from {pkg.__file__}")
    return SimpleNamespace(pkg=pkg, **{
        name: importlib.import_module(f"leakygames.{name}")
        for name in LIB_MODULES})


def set_up(name: str, seed: int, seconds: float, work: Path,
           recorder: spans.SpanRecorder | None = None):
    """Import, input generation, fixture writing and behaviour building.

    Returns the library, the workload, the set-up time and the undo list of
    the tracing wrappers (empty without a recorder).
    """
    start = time.perf_counter()
    lib = load_library()
    undo = spans.install(recorder, lib) if recorder else []
    work.mkdir(parents=True)
    ctx = workloads.Context(lib, checks.Checker(lib), seed, seconds, work)
    workload = workloads.WORKLOADS[name](ctx)
    return lib, workload, time.perf_counter() - start, undo


def interpreter_loop() -> float:
    """Seconds the interpreter calibration loop takes now."""
    import numpy
    up = numpy.arange(64, dtype=numpy.int64)
    down = up[::-1].copy()
    t0 = time.perf_counter()
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i % 7
    table = [0] * 6
    for _ in range(CAL_FOLD_TABLES):
        for y in range(6):
            best = -1
            for b in range(3):
                score = 0
                for x in range(6):
                    w = FOLD_WEIGHTS[x * 6 + y]
                    if w and (FOLD_ROWS[x][y][table[x]] >> b) & 1:
                        score += w
                best = max(best, score)
            total += best
        for pos in range(5, -1, -1):  # next table, last digit fastest
            table[pos] += 1
            if table[pos] < 3:
                break
            table[pos] = 0
    acc = up
    for _ in range(CAL_ARRAY_STEPS):
        acc = numpy.maximum(acc, down)
        total += int(acc.sum())
    return time.perf_counter() - t0


def array_loop() -> float:
    """Seconds the array calibration loop takes now."""
    import numpy
    t0 = time.perf_counter()
    values = numpy.arange(CAL_ARRAY_ELEMENTS, dtype=numpy.int64)
    int(((values * 3 + 7) % 11).sum())
    return time.perf_counter() - t0


# Estimator and CLI run ops spend their time in whole-array passes; solves
# and scalar transcript loops in the interpreter.
CALIBRATION = {"solve": interpreter_loop, "transcripts": interpreter_loop,
               "sessions": array_loop}


def run_body(workload: workloads.Workload,
             recorder: spans.SpanRecorder | None = None, hooks=None):
    """Time every op in order, each after a calibration loop.

    ``hooks`` maps an op index to a function run before that op; its time
    is left out of the wall time.  Returns wall time, op latencies,
    calibration times and errors.
    """
    latencies: dict[str, float] = {}
    cal: dict[str, float] = {}
    errors: dict[str, str] = {}
    hooks = hooks or {}
    gc.collect()
    start = time.perf_counter()
    for index, op in enumerate(workload.ops):
        if index in hooks:
            t0 = time.perf_counter()
            hooks[index]()
            gc.collect()
            start += time.perf_counter() - t0
        if recorder is not None:
            recorder.op = op.id
        cal[op.id] = CALIBRATION[op.kind]()
        t0 = time.perf_counter()
        try:
            op.run()
        except Exception as exc:  # an op that raises is a failed op
            errors[op.id] = f"raised {type(exc).__name__}: {exc}"[:300]
        latencies[op.id] = time.perf_counter() - t0
    return time.perf_counter() - start, latencies, cal, errors


def family_medians(workload: workloads.Workload, latencies, cal):
    """Per op family: median latency in ms, and median latency in
    calibration loops (each op over the median time of its loop near it)."""
    near: dict[str, float] = {}
    for loop in set(CALIBRATION.values()):
        ids = [op.id for op in workload.ops if CALIBRATION[op.kind] is loop]
        loops = [cal[i] for i in ids]
        for k, op_id in enumerate(ids):
            near[op_id] = statistics.median(
                loops[max(0, k - CAL_WINDOW):k + CAL_WINDOW + 1])
    families: dict[str, list[str]] = {}
    for op in workload.ops:
        families.setdefault(op.family, []).append(op.id)
    return {name: (statistics.median(latencies[i] * 1e3 for i in members),
                   statistics.median(latencies[i] / near[i]
                                     for i in members))
            for name, members in families.items()}


def check_outputs(workload: workloads.Workload, errors: dict[str, str],
                  golden: dict[str, str] | None):
    """Problems per failed op id, and the digest of every checked output."""
    problems = dict(errors)
    digests: dict[str, str] = {}
    for op in workload.ops:
        if op.id in problems:
            continue
        out = workload.outputs[op.id]
        try:
            op.check(out)
            digests[op.id] = checks.digest(out)
        except Exception as exc:  # a check that fails or breaks fails the op
            problems[op.id] = f"{type(exc).__name__}: {exc}"[:300]
            continue
        if golden is not None and golden.get(op.id, digests[op.id]) \
                != digests[op.id]:
            problems[op.id] = "output differs from the golden result"
    return problems, digests


def run_probes(lib, probes: list[list[str]]) -> list[dict]:
    """Budget-refusal probes: correct only when the CLI exits with 3."""
    results = []
    for argv in probes:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                outcome = f"exit {lib.cli.main(argv)}"
            except Exception as exc:  # the defect a probe exists to catch
                outcome = f"raised {type(exc).__name__}"
        results.append({
            "argv": " ".join(os.path.relpath(a, ROOT) if os.sep in a else a
                             for a in argv),
            "outcome": outcome, "ok": outcome == "exit 3",
            "seconds": time.perf_counter() - t0})
    return results


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _artifact_bytes(workload: workloads.Workload) -> int:
    return sum(len(text.encode())
               for out in workload.outputs.values()
               if isinstance(out, checks.CliResult)
               for text in out.artifacts().values())


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, workload: workloads.Workload) -> dict:
    import numpy
    kinds: dict[str, int] = {}
    for op in workload.ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "commit": _git_commit(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds,
            "ops_per_kind": kinds, "probes": len(workload.probes)}


def workload_metrics(workload: workloads.Workload, latencies, problems,
                     probes) -> dict:
    """The metrics named per workload kind; absent where not exercised."""
    out: dict[str, dict] = {}
    solves = [latencies[op.id] * 1e3 for op in workload.ops
              if op.kind == "solve"]
    if solves:
        out["solve_ms_p50"] = {"value": statistics.median(solves),
                               "unit": "ms"}
        out["solve_ms_p90"] = {"value": _p90(solves), "unit": "ms"}
        out["solve_samples"] = {"value": len(solves), "unit": "count"}
    for kind, name in (("sessions", "sessions_per_s"),
                       ("transcripts", "transcripts_per_s")):
        ops = [op for op in workload.ops if op.kind == kind]
        if ops:
            out[name] = {"value": sum(op.sessions for op in ops)
                         / sum(latencies[op.id] for op in ops),
                         "unit": "1/s"}
    failed = len(problems) + sum(not p["ok"] for p in probes)
    out["failed_ratio"] = {"value": failed / (len(workload.ops) + len(probes)),
                           "unit": "1"}
    return out


def _load_golden(name: str, seed: int) -> dict[str, str] | None:
    path = GOLDEN / f"{name}.json"
    if seed != GOLDEN_SEED or not path.is_file():
        return None
    return json.loads(path.read_text())["digests"]


def measure(args, work: Path) -> tuple[dict, dict]:
    """Run one benchmark invocation; returns the result and its detail."""
    golden = _load_golden(args.workload, args.seed)
    if not args.trace:
        # The first set-up builds the workload that runs; the others are
        # spread over the body, so that their median is not the speed of
        # one moment of the machine, and then thrown away.
        lib, workload, seconds, _ = set_up(args.workload, args.seed,
                                           args.seconds, work / "s0")
        setups = [seconds]

        def set_up_again(i: int) -> None:
            kept = _library_modules()
            setups.append(set_up(args.workload, args.seed, args.seconds,
                                 work / f"s{i}")[2])
            sys.modules.update(kept)

        n = len(workload.ops)
        hooks = {n * i // SETUP_REPEATS: functools.partial(set_up_again, i)
                 for i in range(1, SETUP_REPEATS)}
        wall, latencies, cal, errors = run_body(workload, hooks=hooks)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        families = family_medians(workload, latencies, cal)
        metrics = {
            "op_cost": {"value": statistics.geometric_mean(
                cost for _, cost in families.values()), "unit": "cal"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        timing = {
            "wall_s": wall,
            "op_ms": statistics.geometric_mean(
                ms for ms, _ in families.values()),
            "cal_ms": {loop.__name__: statistics.median(
                cal[op.id] for op in workload.ops
                if CALIBRATION[op.kind] is loop) * 1e3
                for loop in {CALIBRATION[op.kind] for op in workload.ops}},
            "setups_s": setups,
            "families": {name: {"ms": ms, "cal": cost}
                         for name, (ms, cost) in families.items()},
        }
        t0 = time.perf_counter()
        problems, digests = check_outputs(workload, errors, golden)
        check_s = time.perf_counter() - t0
    else:
        lib, plain_run, _, _ = set_up(args.workload, args.seed, args.seconds,
                                      work / "plain")
        plain_wall, _, _, plain_errors = run_body(plain_run)
        plain = {op.id: checks.digest(plain_run.outputs[op.id])
                 for op in plain_run.ops if op.id not in plain_errors}
        del plain_run
        recorder = spans.SpanRecorder()
        lib, workload, _, undo = set_up(args.workload, args.seed,
                                        args.seconds, work / "traced",
                                        recorder)
        wall, latencies, _, errors = run_body(workload, recorder)
        timing = {"wall_s": wall}
        spans.uninstall(undo)
        t0 = time.perf_counter()
        problems, digests = check_outputs(workload, errors, golden)
        check_s = time.perf_counter() - t0
        for op_id, value in digests.items():
            if plain.get(op_id) != value:
                problems.setdefault(op_id, "traced output differs from "
                                           "the untraced run")
        metrics = spans.layer_metrics(recorder, _artifact_bytes(workload),
                                      wall - plain_wall)
        OUT.mkdir(exist_ok=True)
        recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    probes = run_probes(lib, workload.probes)
    detail = provenance(args, workload)
    detail["metrics"] = workload_metrics(workload, latencies, problems,
                                         probes)
    detail["timing"] = timing
    detail["check_s"] = check_s
    detail["problems"] = problems
    detail["probes"] = probes
    if args.write_golden and not problems:
        GOLDEN.mkdir(exist_ok=True)
        (GOLDEN / f"{args.workload}.json").write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "digests": digests}, indent=1, sort_keys=True) + "\n")
    result = {"correct": not problems, "attempted": len(workload.ops),
              "failed": len(problems), "metrics": metrics}
    return result, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.write_golden and args.seed != GOLDEN_SEED:
        parser.error(f"--write-golden needs --seed {GOLDEN_SEED}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "leakygames" / "__init__.py",
                           TESTS / "oracles.py") if not p.is_file()]
    if missing:
        print(f"bench: missing {', '.join(map(str, missing))}; run from a "
              f"leakygames checkout", file=sys.stderr)
        return 2
    for path in (TESTS, SRC):
        if str(path) not in sys.path:
            sys.path.insert(1, str(path))
    work = OUT / f"work-{os.getpid()}"
    try:
        result, detail = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"# leakygames bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    shown = dict(result["metrics"])
    if not args.trace:
        shown.update(detail["metrics"])
    for name, metric in shown.items():
        print(f"{name:<52} {metric['value']:>16.6f} {metric['unit']}")
    for name, family in detail["timing"].get("families", {}).items():
        print(f"family {name:<45} {family['ms']:>13.3f} ms "
              f"{family['cal']:>10.3f} cal")
    for probe in detail["probes"]:
        print(f"probe {probe['argv']!r}: {probe['outcome']}"
              f"{'' if probe['ok'] else ' (expected exit 3)'}")
    for op_id, problem in detail["problems"].items():
        print(f"FAILED {op_id}: {problem}")
    print("detail " + json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
