"""Command-line front end: solver dispatch, experiment runs, fixtures,
and the repetition-count parameter calculator.

Each command but ``gen`` returns one row; ``main`` prints it as a table
and, with --out, writes it as a machine-readable artifact (CSV or JSON per
--format) whose columns are the row's keys in order.  Artifacts are byte
reproducible from (arguments, seed): no timestamps, fixed column order,
rationals rendered as p/q next to a float column.

Exit codes: 0 ok, 2 invalid input, 3 budget exceeded, 4 generator cap
exhausted.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import functools
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import csp as csp_mod
from . import games, harness, leakage, repetition
from .errors import (BudgetExceededError, GeneratorCapError,
                     InvalidInputError, check_budget, check_range)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_GENERATOR_CAP = 4
# Bytes read from one input file; past it the file is refused.  Files
# ``gen`` writes at its default caps stay below it.
FILE_BYTES = 2**28


# ---------------------------------------------------------------------------
# parameter calculator
# ---------------------------------------------------------------------------


def compute_params(leak_bits: int, answer_bits: int, epsilon: float,
                   k_multiplier: int, c_exp: float = 1.0,
                   c_rate: float = 1.0 / 16.0,
                   question_bits: int | None = None) -> dict:
    """The ``params`` row: repetition-count arithmetic for a leakage-robust
    protocol, a pure function of its inputs, each checked here.

    Repeating a base game k*max(leak_bits, 1) times multiplies question and
    answer sizes by the repetition count, and the claimed soundness is
    2^leak_bits times the heuristic decay curve at that count.  ``vacuous``
    flags claims that the clamp made meaningless.  Theory leaves the decay
    curve's exponent constants open: the defaults (1, 1/16) make it
    illustrative, not a claim about any concrete game."""
    if not 0 < epsilon <= 0.5:
        raise InvalidInputError("epsilon must be in (0, 1/2]")
    check_range((leak_bits,), math.inf, "leak_bits")
    check_range((answer_bits,), math.inf, "answer_bits")
    check_range((k_multiplier,), math.inf, "k_multiplier", low=1)
    if question_bits is not None:
        check_range((question_bits,), math.inf, "question_bits")
    if not (0 < c_exp < math.inf and 0 < c_rate < math.inf):
        raise InvalidInputError(
            "exponent constants must be positive and finite")
    reps = k_multiplier * max(leak_bits, 1)
    try:
        pre = (2.0 ** leak_bits) * (1.0 - epsilon ** c_exp) ** (
            c_rate * reps / (2 * answer_bits + 1))
    except OverflowError:  # 2^leak_bits or the decay exponent
        raise InvalidInputError(
            f"soundness claim at {leak_bits} leak bits and {reps} "
            f"repetitions is out of float range") from None
    return {"leak_bits": leak_bits, "answer_bits": answer_bits,
            "epsilon": epsilon, "k_multiplier": k_multiplier,
            "c_exp": c_exp, "c_rate": c_rate, "repetitions": reps,
            "repeated_answer_bits": reps * answer_bits,
            "repeated_question_bits": (reps * question_bits
                                       if question_bits is not None else None),
            "pre_clamp": pre, "soundness_claim": min(1.0, pre),
            "vacuous": pre >= 1.0}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidInputError(f"cannot parse fraction {text!r}") from None


def _read_file(path: str) -> str:
    try:
        with open(path, "rb") as file:
            data = file.read(FILE_BYTES + 1)
        if len(data) <= FILE_BYTES:
            return data.decode()
    except (OSError, ValueError) as exc:  # ValueError: bad utf-8, NUL byte
        raise InvalidInputError(f"cannot read {path}: {exc}") from None
    except MemoryError:  # the read and its decoding take twice the cap
        raise InvalidInputError(f"cannot read {path}: out of memory") from None
    raise InvalidInputError(
        f"cannot read {path}: more than {FILE_BYTES} bytes")


def _frac_cols(value: Fraction) -> tuple[str, str]:
    return f"{value.numerator}/{value.denominator}", repr(float(value))


def _seq(values) -> str:
    return ",".join(str(v) for v in values)


def _load_csp(path: str) -> csp_mod.CspInstance:
    """A CSP file as an instance; a label cover as its k=2 embedding."""
    inst = csp_mod.load_instance(_read_file(path))
    return inst.to_csp() if isinstance(inst, csp_mod.LabelCover) else inst


def _build_model(name, bits_ab: int, bits_ba: int) -> leakage.LeakageModel:
    kind = next((k for k in leakage.LeakageKind if k.value == name), None)
    if kind is None:
        raise InvalidInputError(f"unknown model kind {name!r}")
    return leakage.LeakageModel(kind, bits_ab, bits_ba)


def _write(out: str, name: str, text: str) -> Path:
    path = Path(out) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except (OSError, ValueError) as exc:  # ValueError: NUL byte in the path
        raise InvalidInputError(f"cannot write {path}: {exc}") from None
    return path


def _emit(args, command: str, row: dict) -> None:
    """With --out, write ``row`` as the artifact; then print it as a table,
    so a failed write leaves stdout empty."""
    if args.out:
        if args.format == "csv":
            buf = io.StringIO()
            writer = csv_mod.DictWriter(buf, fieldnames=list(row),
                                        lineterminator="\n")
            writer.writeheader()
            writer.writerow(row)
            text = buf.getvalue()
        else:
            text = json.dumps({"command": command, "rows": [row]},
                              sort_keys=True, indent=2) + "\n"
        _write(args.out, f"{command}.{args.format}", text)
    widths = [max(len(c), len(str(v))) for c, v in row.items()]
    header = "  ".join(c.ljust(w) for c, w in zip(row, widths))
    print(header)
    print("-" * len(header))
    print("  ".join(str(v).ljust(w) for v, w in zip(row.values(), widths)))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _budget(args) -> dict:
    """``budget=`` for a solver when --budget was given: else its default."""
    return {} if args.budget is None else {"budget": args.budget}


def cmd_value(args) -> dict:
    g = games.load_game(_read_file(args.game))
    value, witness = games.classical_value(g, **_budget(args))
    merged = games.merged_prover_value(g)
    pq, fl = _frac_cols(value)
    mq, mf = _frac_cols(merged)
    return {"instance": harness.instance_id(g), "value": pq,
            "value_float": fl, "merged_value": mq, "merged_float": mf,
            "alice": _seq(witness.alice), "bob": _seq(witness.bob)}


def cmd_leaky_value(args) -> dict:
    g = games.load_game(_read_file(args.game))
    model = _build_model(args.model, args.bits_ab, args.bits_ba)
    value, witness = leakage.leaky_value_exact(g, model, **_budget(args))
    cap = leakage.leaky_value_upper_bound(g, model.total_bits,
                                          **_budget(args))
    pq, fl = _frac_cols(value)
    cq, cf = _frac_cols(cap)
    return {"instance": harness.instance_id(g), "model": args.model,
            "bits_ab": model.bits_ab, "bits_ba": model.bits_ba,
            "value": pq, "value_float": fl, "upper_bound": cq,
            "upper_bound_float": cf,
            "alice_msg": _seq(witness.alice_msg),
            "bob_msg": _seq(witness.bob_msg),
            "alice_ans": ";".join(_seq(r) for r in witness.alice_ans),
            "bob_ans": ";".join(_seq(r) for r in witness.bob_ans)}


def cmd_repeat(args) -> dict:
    g = games.load_game(_read_file(args.game))
    rg = repetition.repeat_game(g, args.copies)
    value, witness = repetition.repeated_exact_value(rg, **_budget(args))
    base_value, base_witness = games.classical_value(g, **_budget(args))
    lower = base_value ** args.copies
    pq, fl = _frac_cols(value)
    lq, lf = _frac_cols(lower)
    bq, bf = _frac_cols(base_value)
    return {"instance": harness.instance_id(rg), "copies": args.copies,
            "value": pq, "value_float": fl,
            "base_value": bq, "base_float": bf,
            "product_lower": lq, "product_lower_float": lf,
            "alice": _seq(witness.alice), "bob": _seq(witness.bob)}


def cmd_csp_val(args) -> dict:
    c = _load_csp(args.csp)
    if args.local_search:
        # every restart sweeps every variable at least once; one step's
        # arrays are bounded by the instance already loaded
        check_budget(args.budget or repetition.DEFAULT_TABLE_CELLS,
                     "local search",
                     lambda: math.log2(args.restarts) + math.log2(c.num_vars),
                     lambda: args.restarts * c.num_vars)
        value, witness = csp_mod.csp_value_local_search(
            c, args.seed, args.restarts)
        method = "local-search"
    else:
        value, witness = csp_mod.csp_value_exact(c, **_budget(args))
        method = "exact"
    pq, fl = _frac_cols(value)
    return {"instance": harness.instance_id(c), "method": method,
            "value": pq, "value_float": fl, "assignment": _seq(witness)}


def cmd_cheat(args) -> dict:
    c = _load_csp(args.csp)
    value, profile = csp_mod.optimal_cheat(c, args.leak_bits, **_budget(args))
    cap = 1 - Fraction(1, 2 * c.arity)
    pq, fl = _frac_cols(value)
    cq, cf = _frac_cols(cap)
    return {"instance": harness.instance_id(c), "leak_bits": args.leak_bits,
            "value": pq, "value_float": fl,
            "soundness_cap": cq, "soundness_cap_float": cf,
            "within_cap": value <= cap,
            "profile": "|".join(_seq(a) for a in profile.assignments)}


def _behaviors_for_run(config: dict, target, model, budget: dict):
    behavior = config.get("behavior", "honest")
    if isinstance(target, csp_mod.CspInstance):
        if behavior == "honest":
            value, witness = csp_mod.csp_value_exact(target, **budget)
            if value != 1:
                raise InvalidInputError(
                    "honest csp behavior needs a satisfiable instance")
            return harness.honest_csp_behaviors(target, witness), "honest"
        if behavior == "cheat":
            _, profile = csp_mod.optimal_cheat(target, model.bits_ab,
                                               **budget)
            return (harness.behaviors_from_cheat_profile(target, profile),
                    "optimal-cheat")
        raise InvalidInputError(f"unknown csp behavior {behavior!r}")
    if behavior == "honest":
        _, witness = games.classical_value(target, **budget)
        return harness.behaviors_from_strategy_pair(witness), "best-classical"
    if behavior == "leaky":
        _, witness = leakage.leaky_value_exact(target, model, **budget)
        return (harness.behaviors_from_leaky_strategy(model, witness),
                "best-leaky")
    raise InvalidInputError(f"unknown game behavior {behavior!r}")


def cmd_run(args) -> dict:
    text = _read_file(args.config)
    try:
        config = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ints past 4300 digits too
        raise InvalidInputError(f"bad config json: {exc}") from None
    if not isinstance(config, dict):
        raise InvalidInputError("config must be a json object")
    for key in ("kind", "path", "sessions"):
        if key not in config:
            raise InvalidInputError(f"config missing {key!r}")
    if not isinstance(config["path"], str):
        raise InvalidInputError("config path must be a string")
    model_spec = config.get("model", {})
    if not isinstance(model_spec, dict):
        raise InvalidInputError("config model must be a json object")
    model = _build_model(model_spec.get("kind", "one-way-ab"),
                         model_spec.get("bits_ab", 0),
                         model_spec.get("bits_ba", 0))
    if config["kind"] == "game":
        target = games.load_game(_read_file(config["path"]))
    elif config["kind"] == "csp":
        target = _load_csp(config["path"])
    else:
        raise InvalidInputError("config kind must be 'game' or 'csp'")
    n, seed = harness._check_estimate(  # before the behaviors' solve
        target, model, config["sessions"], config.get("seed", args.seed))
    behaviors, label = _behaviors_for_run(config, target, model,
                                          _budget(args))
    record = harness.estimate_acceptance(target, behaviors, model, n, seed)
    pq, _ = _frac_cols(record.estimate_exact)
    return {"instance": harness.instance_id(target), "behavior": label,
            "model": model.kind.value, "bits_ab": model.bits_ab,
            "bits_ba": model.bits_ba, "sessions": record.sessions,
            "accepted": record.accepted, "estimate": pq,
            "estimate_float": repr(record.estimate),
            "half_width": repr(record.half_width),
            "master_seed": record.master_seed}


def cmd_params(args) -> dict:
    row = compute_params(args.leak_bits, args.answer_bits, args.epsilon,
                         args.k, args.c_exp, args.c_rate, args.question_bits)
    return row | {"pre_clamp": repr(row["pre_clamp"]),
                  "soundness_claim": repr(row["soundness_claim"])}


def cmd_gen(args) -> None:
    """Write a fixture file to --out, or its text to stdout; no row."""
    rng = random.Random(args.seed)
    cap = args.budget or repetition.DEFAULT_TABLE_CELLS
    if args.kind == "game":
        x, y, a, b = args.sizes
        # before the budget check: two negative sizes multiply to a count
        check_range(args.sizes, math.inf, "sizes", low=1)
        check_budget(cap, "predicate table",
                     lambda: sum(map(math.log2, args.sizes)),
                     lambda: x * y * a * b)
        weights = [rng.randrange(1, 4) for _ in range(x * y)]
        bits = [rng.randrange(2) for _ in range(x * y * a * b)]
        text = games.save_game(games._from_int_weights(
            f"random-{args.seed}", args.sizes, weights, bits))
        name = f"random-{args.seed}.game"
    elif args.kind == "csp":
        # bad sizes are refused before the budget check reads them
        csp_mod.tuple_count(args.vars, args.alphabet, args.arity)
        m = args.constraints or 4 * args.vars
        check_budget(cap, "constraint scopes",
                     lambda: math.log2(m) + math.log2(args.arity),
                     lambda: m * args.arity)
        text = csp_mod.save_csp(csp_mod.random_instance(
            rng, args.vars, args.alphabet, args.arity, m, lambda: 2))
        name = f"random-{args.seed}.csp"
    else:  # low-val-csp
        target = parse_fraction(args.target)
        instance, value = csp_mod.find_low_value_instance(
            args.vars, args.alphabet, args.arity, target, args.seed,
            num_constraints=args.constraints, attempts=args.attempts,
            **_budget(args))
        text = (f"# certified value {value.numerator}/{value.denominator}"
                f" <= {args.target}\n") + csp_mod.save_csp(instance)
        name = f"lowval-{args.seed}.csp"

    if args.out:
        print(_write(args.out, name, text))
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="leakygames",
        description="Exact values and leakage robustness for two-prover "
                    "one-round games at desk scale.")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (default 0)")
    parser.add_argument("--budget", type=int, default=None,
                        help="enumeration budget override, at least 1")
    parser.add_argument("--out", default=None, help="artifact directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="artifact format (default csv)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("value", help="exact classical value of a game")
    p.add_argument("game")
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("leaky-value", help="exact value under a leakage model")
    p.add_argument("game")
    p.add_argument("--model", default="one-way-ab",
                   choices=("one-way-ab", "one-way-ba", "simultaneous"))
    p.add_argument("--bits-ab", type=int, default=0)
    p.add_argument("--bits-ba", type=int, default=0)
    p.set_defaults(func=cmd_leaky_value)

    p = sub.add_parser("repeat", help="exact value of the N-fold repetition")
    p.add_argument("game")
    p.add_argument("-n", "--copies", type=int, required=True)
    p.set_defaults(func=cmd_repeat)

    p = sub.add_parser("csp-val", help="exact or local-search CSP value")
    p.add_argument("csp")
    p.add_argument("--local-search", action="store_true")
    p.add_argument("--restarts", type=int, default=10)
    p.set_defaults(func=cmd_csp_val)

    p = sub.add_parser("cheat", help="optimal one-way-leakage cheat value")
    p.add_argument("csp")
    p.add_argument("--leak-bits", type=int, default=1)
    p.set_defaults(func=cmd_cheat)

    p = sub.add_parser("run", help="Monte Carlo protocol sessions from a "
                                   "JSON config")
    p.add_argument("config")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("params", help="repetition-count parameter calculator")
    p.add_argument("--leak-bits", type=int, required=True)
    p.add_argument("--answer-bits", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--c-exp", type=float, default=1.0)
    p.add_argument("--c-rate", type=float, default=1.0 / 16.0)
    p.add_argument("--question-bits", type=int, default=None)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("gen", help="generate fixture files")
    p.add_argument("--kind", choices=("game", "csp", "low-val-csp"),
                   required=True)
    p.add_argument("--sizes", type=int, nargs=4, default=(2, 2, 2, 2),
                   metavar=("X", "Y", "A", "B"))
    p.add_argument("--vars", type=int, default=6)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--constraints", type=int, default=None)
    p.add_argument("--target", default="1/4")
    p.add_argument("--attempts", type=int, default=200)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("budget", "constraints", "restarts", "attempts"):
            value = getattr(args, flag, None)  # counts, when given
            if value is not None and value < 1:
                raise InvalidInputError(f"--{flag} must be >= 1, got {value}")
        row = args.func(args)
        if row is not None:
            _emit(args, args.command, row)
        return EXIT_OK
    except BudgetExceededError as exc:
        print(f"error (budget): {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GeneratorCapError as exc:
        print(f"error (generator cap): {exc}", file=sys.stderr)
        return EXIT_GENERATOR_CAP
    except InvalidInputError as exc:
        print(f"error (invalid input): {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
