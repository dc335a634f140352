"""Session-level simulation of verifier-prover protocols with metered leakage.

Sessions run in-process with an explicit ordered message schedule.  The
channel meters every bit a prover attempts to send; overflow attempts are
recorded, rejected, and force the session verdict to reject.  Behaviors are
deterministic functions of (own question, received bits), so acceptance per
question cell is a pure quantity and Monte Carlo estimation reduces to
seeded question sampling.

Randomness comes from SplitMix64 used as a counter-based generator: output
j of the stream keyed by ``seed`` is mix(seed + (j+1)*golden), so streams
are splittable (sessions get independent 64-bit seeds derived from the
master seed and the session index) and reproducible across platforms.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from bisect import bisect_right
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from .csp import CheatProfile, CspInstance, LabelCover, best_response, save_csp, save_label_cover
from .errors import BudgetExceededError, InvalidInputError, check_range
from .games import Game, StrategyPair, kept, save_game
from .leakage import LeakageKind, LeakageModel, LeakyStrategy
from .repetition import RepeatedGame

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile
SESSION_CAP = 10**9     # most sessions estimate_acceptance samples
SESSION_CHUNK = 2**16   # sessions per numpy chunk; longest residue table


class MalformedBehaviorError(InvalidInputError):
    """A behavior produced a payload or answer outside its contract."""


class IdentifierMismatchError(InvalidInputError):
    """A transcript was replayed against a different game or instance."""


# ---------------------------------------------------------------------------
# counter-based RNG (SplitMix64)
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(seed: int, counter: int) -> int:
    """The counter-th 64-bit output of the SplitMix64 stream keyed by seed."""
    z = (seed + _GOLDEN * (counter + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def session_seed(master_seed: int, index: int) -> int:
    """Split the master stream: independent 64-bit seed per session."""
    return splitmix64(master_seed & _MASK64, index)


def _below(seed: int, counter: int, n: int) -> tuple[int, int]:
    """Unbiased uniform draw in [0, n) by rejection, from output ``counter``
    of the stream keyed by seed on: (residue, the next unread counter)."""
    limit = (1 << 64) - (1 << 64) % n
    while True:
        value = splitmix64(seed, counter)
        counter += 1
        if value < limit:
            return value % n, counter


def _mix_np(z: np.ndarray, tmp=None) -> np.ndarray:
    """The SplitMix64 finalizer, in place in ``z``; ``tmp`` is scratch."""
    tmp = np.empty_like(z) if tmp is None else tmp
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= np.right_shift(z, np.uint64(shift), out=tmp)
        z *= np.uint64(mult)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _splitmix64_np(seeds: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64; bit-identical to the scalar version."""
    return _mix_np((counters + np.uint64(1)) * np.uint64(_GOLDEN) + seeds)


def _below_np(seeds: np.ndarray, draw: int, n: int, out=None, tmp=None,
              extra=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Each session's draw-th _below(seed, ., n), into ``out``, with the
    same draws and rejections.  Streams sit at counter ``draw`` (one scalar
    add) plus ``extra[i]``, session i's earlier rejected draws; ``extra`` is
    None until a rejection and is returned with the residues.  A power of
    two n rejects nothing and takes its residue as one mask."""
    tmp = np.empty_like(seeds) if tmp is None else tmp
    step = np.uint64(_GOLDEN * (draw + 1) & _MASK64)
    draws = _mix_np(np.add(seeds, step, out=out), tmp)
    if extra is not None:
        late = np.flatnonzero(extra)
        draws[late] = _splitmix64_np(seeds[late], draw + extra[late])
    if n & (n - 1) == 0:
        return np.bitwise_and(draws, np.uint64(n - 1), out=draws), extra
    limit = np.uint64((1 << 64) - (1 << 64) % n)
    redo = np.flatnonzero(draws >= limit) if draws.max() >= limit else []
    if len(redo) and extra is None:
        extra = np.zeros(len(draws), dtype=np.uint64)
    while len(redo):
        extra[redo] += np.uint64(1)
        draws[redo] = _splitmix64_np(seeds[redo], draw + extra[redo])
        redo = redo[draws[redo] >= limit]
    np.floor_divide(draws, np.uint64(n), out=tmp)  # faster than numpy's %
    tmp *= np.uint64(n)
    return np.subtract(draws, tmp, out=draws), extra


# ---------------------------------------------------------------------------
# channel and behaviors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelEvent:
    """One send attempt.  Payload is the only information that crosses."""

    direction: str  # "ab" or "ba"
    payload: str    # bit-string


class MeteredChannel:
    """Per-direction bit budgets with cumulative metering.

    ``send`` delivers the payload only while the direction's budget holds;
    an overflow attempt is recorded in ``rejected``, flags the channel, and
    delivers nothing.  Spent counters never exceed the budgets.
    """

    def __init__(self, budget_ab: int, budget_ba: int):
        self.budget_ab = budget_ab
        self.budget_ba = budget_ba
        self.spent_ab = 0
        self.spent_ba = 0
        self.events: list[ChannelEvent] = []
        self.rejected: list[ChannelEvent] = []
        self.overflowed = False

    def send(self, direction: str, payload: str) -> str | None:
        if direction not in ("ab", "ba"):
            raise InvalidInputError(f"unknown direction {direction!r}")
        if not isinstance(payload, str) or payload.strip("01"):
            raise MalformedBehaviorError(
                f"leak payload must be a bit-string, got {payload!r}")
        if not payload:
            return ""  # nothing crossed; nothing to meter or log
        event = ChannelEvent(direction, payload)
        spent = self.spent_ab if direction == "ab" else self.spent_ba
        budget = self.budget_ab if direction == "ab" else self.budget_ba
        if spent + len(payload) > budget:
            self.rejected.append(event)
            self.overflowed = True
            return None
        if direction == "ab":
            self.spent_ab += len(payload)
        else:
            self.spent_ba += len(payload)
        self.events.append(event)
        return payload


@dataclass(frozen=True)
class ProverBehavior:
    """Deterministic per-session behavior of one prover.

    ``answer_rule(own_question, received_bits)`` returns the answer (an int
    for games; a tuple of ints for the first prover in CSP sessions).
    ``leak_rule(own_question)`` returns the bit-string to send.  Rules must
    be pure; all session randomness lives in question sampling.  Purity
    lets run_session play each question cell once per (behavior pair,
    target, model), unseen by any transcript: the first behavior keeps the
    plays, keyed by the target's instance id.  Kept there, not on the
    target, they hold no target alive and leave targets picklable; a
    behavior's own pickle leaves them out.
    """

    answer_rule: Callable[[int, str], Any]
    leak_rule: Callable[[int], str]
    role: str  # "first" or "second"

    def __post_init__(self):
        if self.role not in ("first", "second"):
            raise InvalidInputError("role must be 'first' or 'second'")

    def __getstate__(self):
        # the kept plays hold the second behavior, which may not pickle
        return {k: v for k, v in self.__dict__.items() if k != "_plays"}


def _bits_to_int(bits: str) -> int:
    return int(bits, 2) if bits else 0


def _int_to_bits(value: int, width: int) -> str:
    return format(value, f"0{width}b") if width else ""


def silent_rule(_question: int) -> str:
    return ""


def behaviors_from_strategy_pair(s: StrategyPair
                                 ) -> tuple[ProverBehavior, ProverBehavior]:
    """Zero-leakage behaviors playing a fixed deterministic strategy pair."""
    first = ProverBehavior(lambda x, _m: s.alice[x], silent_rule, "first")
    second = ProverBehavior(lambda y, _m: s.bob[y], silent_rule, "second")
    return first, second


def behaviors_from_leaky_strategy(model: LeakageModel, s: LeakyStrategy
                                  ) -> tuple[ProverBehavior, ProverBehavior]:
    """Behaviors realizing a leaky strategy under its model."""
    first = ProverBehavior(
        lambda x, m: s.alice_ans[x][_bits_to_int(m)],
        lambda x: _int_to_bits(s.alice_msg[x], model.bits_ab),
        "first")
    second = ProverBehavior(
        lambda y, m: s.bob_ans[y][_bits_to_int(m)],
        lambda y: _int_to_bits(s.bob_msg[y], model.bits_ba),
        "second")
    return first, second


def behaviors_from_cheat_profile(c: CspInstance, profile: CheatProfile
                                 ) -> tuple[ProverBehavior, ProverBehavior]:
    """Cheating prover pair: first prover plays its exact best response,
    leaking the chosen message; second prover answers from the assignment
    selected by the received message."""
    response = best_response(c, profile)
    bits = profile.leak_bits
    first = ProverBehavior(
        lambda e, _m: response[e][1],
        lambda e: _int_to_bits(response[e][0], bits),
        "first")
    second = ProverBehavior(
        lambda var, m: profile.assignments[_bits_to_int(m)][var],
        silent_rule,
        "second")
    return first, second


def honest_csp_behaviors(c: CspInstance, assignment: tuple[int, ...]
                         ) -> tuple[ProverBehavior, ProverBehavior]:
    """Honest provers answering one global assignment, leaking nothing."""
    scopes = [con.scope for con in c.constraints]
    first = ProverBehavior(
        lambda e, _m: tuple(assignment[v] for v in scopes[e]),
        silent_rule, "first")
    second = ProverBehavior(
        lambda var, _m: assignment[var], silent_rule, "second")
    return first, second


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transcript:
    """One session: questions, leakage, answers, verdict.  Replayable."""

    seed: int
    instance: str
    protocol: str  # "game" or "csp"
    question_first: int
    question_second: int
    position: int | None  # csp only: sampled scope position
    leaks: tuple[ChannelEvent, ...]
    rejected: tuple[ChannelEvent, ...]
    answer_first: Any
    answer_second: int
    overflow: bool
    verdict: bool

    def to_json(self) -> str:
        doc = asdict(self)
        for key in ("leaks", "rejected"):
            doc[key] = [[e.direction, e.payload] for e in getattr(self, key)]
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def instance_id(target) -> str:
    """Stable identifier, kept on the target: name plus serialization hash."""
    try:  # every session and replay reads it: once kept, check nothing
        return target.__dict__["_instance_id"]
    except (AttributeError, KeyError):
        pass
    name, text = _identity(target)
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    return kept(target, "_instance_id", lambda: f"{name}:{digest}")


def _identity(target) -> tuple[str, str]:
    """(name, text) of a target; a repeated game's text wraps its base's."""
    if isinstance(target, Game):
        return target.name, save_game(target)
    if isinstance(target, CspInstance):
        return "csp", save_csp(target)
    if isinstance(target, LabelCover):
        return "label-cover", save_label_cover(target)
    if isinstance(target, RepeatedGame):
        text = _identity(target.base)[1]
        return target.name, f"repeat {target.copies}\n{text}"
    raise InvalidInputError(f"cannot identify {type(target).__name__}")


def _check_answer(value, size: int, what: str) -> int:
    # not check_range: a replay refuses a behavior's answer as malformed,
    # not as invalid input; an exact int skips both isinstance calls
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, int)):
        raise MalformedBehaviorError(f"{what} must be an int, got {value!r}")
    if not 0 <= value < size:
        raise MalformedBehaviorError(f"{what} {value} out of range")
    return value


def _accepts(target, x: int, y: int, pos: int | None, a, b,
             overflow: bool) -> bool:
    """The verifier, for sessions and replays.  It refuses answers outside
    the target's sizes, rejects an overflow, and otherwise accepts when the
    game's predicate holds or, on a CSP, when constraint x allows the tuple
    a and a agrees with the second answer b at scope position pos."""
    if isinstance(target, CspInstance):
        if not isinstance(a, tuple) or len(a) != target.arity:
            raise MalformedBehaviorError("first answer must be a k-tuple")
        for value in a + (b,):
            _check_answer(value, target.alphabet_size, "csp answer")
        return ((not overflow) and a in target.constraints[x].allowed
                and a[pos] == b)
    _check_answer(a, target.a_size, "first answer")
    _check_answer(b, target.b_size, "second answer")
    return (not overflow) and target.wins(x, y, a, b)


def _game_support(g) -> tuple[tuple, tuple, int]:
    """Support cells, cumulative integer weights and the weight total, kept
    like the instance id.  Sessions draw the total's residues from 64-bit
    words, so a total of 2^64 or more is refused."""
    try:  # every session and replay reads it: once kept, build no closure
        return g.__dict__["_support"]
    except KeyError:
        pass

    def build():
        weights, total = g.int_weights()
        if total >= 1 << 64:
            raise InvalidInputError(f"question weight total needs "
                                    f"{total.bit_length()} bits, over 64")
        support = np.flatnonzero(weights)
        xs, ys = np.divmod(support, g.y_size)
        cums = np.cumsum(weights.ravel()[support]).tolist()  # Python ints
        return tuple(zip(xs.tolist(), ys.tolist())), tuple(cums), total
    return kept(g, "_support", build)


def _check_session(target, behaviors, model: LeakageModel) -> None:
    """Refuse, once per call, behaviors out of (first, second) order, a
    label cover, which instance_id names but no session can play, and a
    CSP under any leakage but one-way ab."""
    if behaviors[0].role != "first" or behaviors[1].role != "second":
        raise InvalidInputError("behaviors must be (first, second)")
    if isinstance(target, LabelCover):
        raise InvalidInputError("a label cover plays as its games or to_csp()")
    if (isinstance(target, CspInstance) and model.total_bits
            and model.kind is not LeakageKind.ONE_WAY_AB):
        raise InvalidInputError("csp sessions support one-way ab leakage only")


def _play_game(g, behaviors, model: LeakageModel, x: int, y: int):
    """Play one game question pair: (a, b, channel, verdict)."""
    return _play(g, behaviors, model, model.kind, x, y, None)


def _play_csp(c: CspInstance, behaviors, model: LeakageModel,
              e: int, pos: int):
    """Constraint-sampling verifier: the first prover answers constraint e
    and may leak, the second answers the variable at scope position pos."""
    return _play(c, behaviors, model, LeakageKind.ONE_WAY_AB,
                 e, c.constraints[e].scope[pos], pos)


def _play(target, behaviors, model: LeakageModel, kind: LeakageKind,
          x: int, y: int, pos: int | None):
    """The one message schedule: each prover that ``kind`` lets speak sends
    from its own question (x, or y), ab before ba; then both answer what was
    delivered to them, "" when nothing was or the send overflowed."""
    first, second = behaviors
    channel = MeteredChannel(model.bits_ab, model.bits_ba)
    to_first = to_second = ""
    if kind is not LeakageKind.ONE_WAY_BA:
        to_second = channel.send("ab", first.leak_rule(x)) or ""
    if kind is not LeakageKind.ONE_WAY_AB:
        to_first = channel.send("ba", second.leak_rule(y)) or ""
    a = first.answer_rule(x, to_first)
    b = second.answer_rule(y, to_second)
    return a, b, channel, _accepts(target, x, y, pos, a, b, channel.overflowed)


def run_session(target, behaviors, model: LeakageModel, seed: int
                ) -> Transcript:
    """One protocol session, deterministic given the seed.

    Games sample (x, y) from the question distribution; CSP instances
    sample a uniform constraint and a uniform scope position.  Budget
    overflow flags the transcript and forces the verdict to reject.  Rules
    are pure, so a question cell is played once per (behavior pair, target,
    model), kept on the first behavior (see ProverBehavior), and no
    transcript can tell; a behavior that raises keeps nothing, and raises
    again at the next session on that cell.
    """
    if type(seed) is not int:  # an exact int pays one test, no call
        check_range((seed,), math.inf, "seed", low=-math.inf)
        seed = int(seed)  # numpy ints too
    _check_session(target, behaviors, model)
    iid = instance_id(target)
    if isinstance(target, CspInstance):
        x, counter = _below(seed, 0, len(target.constraints))
        pos = _below(seed, counter, target.arity)[0]
        y = target.constraints[x].scope[pos]
        cell = x * target.arity + pos
    else:
        cells, cum, total = _game_support(target)
        cell = bisect_right(cum, _below(seed, 0, total)[0])
        (x, y), pos = cells[cell], None
    # one record, ((instance id, second behavior, model), plays), replaced
    # when any key part differs; plays[cell] holds the transcript's fields
    # from leaks to verdict
    first, key = behaviors[0], (iid, behaviors[1], model)
    record = first.__dict__.get("_plays")
    if record is None or record[0] != key:
        record = (key, {})
        object.__setattr__(first, "_plays", record)
    play = record[1].get(cell)
    if play is None:
        a, b, channel, verdict = (
            _play_game(target, behaviors, model, x, y) if pos is None
            else _play_csp(target, behaviors, model, x, pos))
        play = record[1][cell] = (tuple(channel.events),
                                  tuple(channel.rejected), a, b,
                                  channel.overflowed, verdict)
    # the frozen __init__'s object.__setattr__ per field is a session's
    # costliest step; its dict filled in field order is the same transcript
    t = object.__new__(Transcript)
    d = t.__dict__
    d["seed"], d["instance"], d["protocol"] = (
        seed, iid, "game" if pos is None else "csp")
    d["question_first"], d["question_second"], d["position"] = x, y, pos
    (d["leaks"], d["rejected"], d["answer_first"], d["answer_second"],
     d["overflow"], d["verdict"]) = play
    return t


def replay_verify(t: Transcript, target) -> bool:
    """Recompute the verdict from the stored questions and answers, refusing
    a transcript that no session of the target could produce."""
    if instance_id(target) != t.instance:
        raise IdentifierMismatchError(
            f"transcript is for {t.instance}, got {instance_id(target)}")
    x, y, pos = t.question_first, t.question_second, t.position
    if isinstance(target, CspInstance):
        _check_answer(x, len(target.constraints), "constraint")
        _check_answer(pos, target.arity, "position")
        if y != target.constraints[x].scope[pos]:
            raise MalformedBehaviorError(f"variable {y} is not at {pos}")
    else:
        _check_answer(x, target.x_size, "first question")
        _check_answer(y, target.y_size, "second question")
        cells = _game_support(target)[0]  # sorted: (x, y) is the last <= it
        if cells[bisect_right(cells, (x, y)) - 1] != (x, y):
            raise MalformedBehaviorError(f"question pair ({x}, {y}) has "
                                         f"zero weight")
    return t.verdict == _accepts(target, x, y, pos, t.answer_first,
                                 t.answer_second, t.overflow)


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentRecord:
    """Aggregated acceptance statistics for one behavior pair."""

    sessions: int
    accepted: int
    estimate: float
    half_width: float  # 99% normal-approximation half-width
    config: dict
    master_seed: int

    def __post_init__(self):
        if self.accepted > self.sessions:
            raise InvalidInputError("accepted cannot exceed sessions")

    @property
    def estimate_exact(self) -> Fraction:
        return Fraction(self.accepted, self.sessions)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


def estimate_acceptance(target, behaviors, model: LeakageModel,
                        sessions: int, master_seed: int,
                        fast: bool = True) -> ExperimentRecord:
    """Acceptance estimate over independent seeded sessions.

    Session i is ``run_session(..., session_seed(master_seed, i))``; with
    ``fast=False`` each is played so, which is the reference the vector
    path must match count for count.  Counts above SESSION_CAP are refused
    before anything is allocated.  A negative master seed is read mod 2**64.
    """
    sessions, master_seed = _check_estimate(sessions, master_seed)
    _check_session(target, behaviors, model)
    config = {"protocol": "csp" if isinstance(target, CspInstance) else "game",
              "instance": instance_id(target), "model": model.kind.value,
              "bits_ab": model.bits_ab, "bits_ba": model.bits_ba,
              "sessions": sessions}
    if fast:
        accepted = _count_np(target, behaviors, model, sessions, master_seed)
    else:
        accepted = sum(run_session(target, behaviors, model,
                                   session_seed(master_seed, i)).verdict
                       for i in range(sessions))
    p = accepted / sessions
    return ExperimentRecord(sessions, accepted, p,
                            Z_99 * math.sqrt(p * (1.0 - p) / sessions),
                            config, master_seed)


def _check_estimate(sessions, master_seed) -> tuple[int, int]:
    """Checked sessions and master seed as ints; CLI run calls it first."""
    check_range((sessions,), math.inf, "sessions", low=1)
    check_range((master_seed,), math.inf, "master_seed", low=-math.inf)
    sessions, master_seed = int(sessions), int(master_seed)  # numpy ints too
    if sessions > SESSION_CAP:
        raise BudgetExceededError(sessions, SESSION_CAP, "session sampling")
    return sessions, master_seed


def _count_np(target, behaviors, model: LeakageModel, sessions: int,
              master_seed: int) -> int:
    """The estimator's vector path: its accepted count.  Behaviors are
    deterministic, so verdicts are computed once per question cell, or per
    residue when a game's weight total is at most SESSION_CHUNK.  Sessions
    are drawn SESSION_CHUNK at a time, draw for draw as run_session: a table
    of golden-ratio steps turns each chunk's seeds, and each draw, into one
    scalar add and the finalizer.  The chunks are dealt round-robin to one
    worker per usable CPU and chunk, the caller and threads joined before
    it returns, each with its own buffers (numpy releases the GIL in the
    finalizer's passes); counts are summed, so workers change nothing."""
    chunk = min(sessions, SESSION_CHUNK)
    csp = isinstance(target, CspInstance)
    if csp:  # cell e*k + position
        m, k = len(target.constraints), target.arity
        table = np.array([_play_csp(target, behaviors, model, e, pos)[3]
                          for e in range(m) for pos in range(k)], dtype=bool)

        def cells_np(seeds, out, tmp, second):  # constraint, then position
            cells, extra = _below_np(seeds, 0, m, out, tmp)
            cells *= np.uint64(k)
            cells += _below_np(seeds, 1, k, second, tmp, extra)[0]
            return cells
    else:
        support, cums, total = _game_support(target)
        table = np.array([_play_game(target, behaviors, model, x, y)[3]
                          for x, y in support], dtype=bool)
        dense = total <= SESSION_CHUNK  # one verdict per residue
        if dense:
            table = np.repeat(table, np.diff(cums, prepend=0))
        else:
            bounds = np.array(cums, dtype=np.uint64)

        def cells_np(seeds, out, tmp):
            r = _below_np(seeds, 0, total, out, tmp)[0]
            return r if dense else np.searchsorted(bounds, r, side="right")

    starts = range(0, sessions, chunk)
    workers = min(_cpu_count(), len(starts))
    steps = np.arange(1, chunk + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    # per worker: seeds, draws, scratch and a csp's second draws
    buffers = np.empty((workers, 3 + csp, chunk), dtype=np.uint64)
    counts = [0] * workers
    errors: list[BaseException] = []

    def work(w):  # every workers-th chunk from the w-th, until an error
        try:
            for start in starts[w::workers]:
                if errors:
                    return
                n = min(chunk, sessions - start)
                rows = buffers[w, :, :n]
                _session_seeds_np(master_seed, start, steps[:n], rows[0],
                                  rows[2])
                cells = cells_np(*rows)
                counts[w] += int(np.count_nonzero(
                    table[cells.view(np.int64)]))
        except BaseException as exc:  # an interrupt too: re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,))
               for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return sum(counts)


def _cpu_count() -> int:
    """CPUs this process may run on: the estimator's most workers."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _session_seeds_np(master_seed: int, start: int, steps: np.ndarray,
                      out=None, tmp=None) -> np.ndarray:
    """session_seed(master_seed, start + i) for each i < len(steps), into
    ``out``, given steps[i] = golden * (i + 1) mod 2^64: one scalar add."""
    offset = np.uint64((master_seed + _GOLDEN * start) & _MASK64)
    return _mix_np(np.add(steps, offset, out=out), tmp)
