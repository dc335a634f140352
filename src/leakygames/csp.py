"""Constraint systems, label cover, verifier games, and optimal leaky cheating.

A CSP instance is a list of arity-k constraints over a finite alphabet,
each given by an explicit set of allowed tuples.  Label cover is the k=2
projection special case and embeds into the generic machinery for value
computations.  This module also builds the two standard game forms of a
label cover (endpoint game and consistency-test game) and computes the
exact optimum a pair of provers can reach against the constraint-sampling
verifier when the first prover may leak a bounded number of bits to the
second.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import (RUN_FALLBACK, BudgetExceededError, FormatError,
                     GeneratorCapError, InvalidInputError, check_budget,
                     check_range)
from .games import Game, _content_lines, _index_to_tuple, kept, make_game

DEFAULT_ASSIGNMENT_BUDGET = 10**7
DEFAULT_CHEAT_BUDGET = 10**8
PROFILE_CELLS = 2**20  # values in a cheat profile: 2^bits x num_vars


@dataclass(frozen=True)
class Constraint:
    """One arity-k constraint: variable scope plus allowed value tuples.

    ``allowed`` is kept sorted for deterministic iteration; it may be
    empty, in which case the constraint is never satisfied.  Repeated
    variables in a scope are legal and are treated as distinct positions.
    """

    scope: tuple[int, ...]
    allowed: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CspInstance:
    num_vars: int
    alphabet_size: int
    arity: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        if self.num_vars < 1 or self.alphabet_size < 1 or self.arity < 1:
            raise InvalidInputError("num_vars, alphabet, arity must be >= 1")
        if not self.constraints:
            raise InvalidInputError("constraint list must be non-empty")
        for con in self.constraints:
            if len(con.scope) != self.arity:
                raise InvalidInputError("scope length must equal arity")
            if any(v < 0 or v >= self.num_vars for v in con.scope):
                raise InvalidInputError("scope variable out of range")
            if list(con.allowed) != sorted(set(con.allowed)):
                raise InvalidInputError("allowed tuples must be sorted, unique")
            for t in con.allowed:
                if len(t) != self.arity:
                    raise InvalidInputError("allowed tuple length != arity")
                if any(v < 0 or v >= self.alphabet_size for v in t):
                    raise InvalidInputError("allowed tuple value out of range")

    def __hash__(self) -> int:  # kept: it reads every allowed tuple
        return kept(self, "_hash", lambda: hash(self.constraints))

    def satisfied_count(self, assignment: tuple[int, ...]) -> int:
        return sum(tuple(assignment[v] for v in con.scope) in con.allowed
                   for con in self.constraints)


def make_constraint(scope, allowed) -> Constraint:
    """Normalize (sort, dedup) and build a constraint."""
    return Constraint(tuple(scope), tuple(sorted(set(map(tuple, allowed)))))


@dataclass(frozen=True)
class LabelCover:
    """Bipartite projection CSP: phi_e maps left labels to right labels.

    Edges must be distinct (u, v) pairs so a question pair identifies its
    edge; parallel edges would make the endpoint game's predicate
    ambiguous.
    """

    num_left: int
    num_right: int
    sigma_left: int
    sigma_right: int
    edges: tuple[tuple[int, int], ...]
    projections: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if min(self.num_left, self.num_right,
               self.sigma_left, self.sigma_right) < 1:
            raise InvalidInputError("label cover sizes must be >= 1")
        if not self.edges:
            raise InvalidInputError("edge set must be non-empty")
        if len(set(self.edges)) != len(self.edges):
            raise InvalidInputError("parallel edges are not allowed")
        if len(self.projections) != len(self.edges):
            raise InvalidInputError("one projection per edge required")
        for (u, v), phi in zip(self.edges, self.projections):
            if not (0 <= u < self.num_left and 0 <= v < self.num_right):
                raise InvalidInputError("edge endpoint out of range")
            if len(phi) != self.sigma_left:
                raise InvalidInputError("projection must cover sigma_left")
            if any(t < 0 or t >= self.sigma_right for t in phi):
                raise InvalidInputError("projection value out of range")

    def to_csp(self) -> CspInstance:
        """Embed as a k=2 CSP: left block first, right block offset.

        The shared alphabet is max(sigma_left, sigma_right); labels outside
        a side's range simply satisfy nothing.
        """
        cons = []
        for (u, v), phi in zip(self.edges, self.projections):
            allowed = tuple(sorted((s, phi[s]) for s in range(self.sigma_left)))
            cons.append(Constraint((u, self.num_left + v), allowed))
        return CspInstance(self.num_left + self.num_right,
                           max(self.sigma_left, self.sigma_right),
                           2, tuple(cons))


# The exact solvers count the scope positions where each allowed tuple agrees
# with an assignment: the most are its cheating score, and k satisfy the
# constraint.  Digits take the smallest signed dtype holding the alphabet,
# tuples padded with -1 (agreeing nowhere), and counts the smallest unsigned
# one holding k, so 8-bit while they fit.  No alphabet**arity table is built.
AGREEMENT_CELLS = 2**20  # cells of one block's [m, T_max, rows] counter
SCORE_CELLS = 2**16  # cells of the [rows, m] best agreements an instance keeps


def _agreement(c: CspInstance):
    """(agree, allowed): agree maps digits [num_vars, rows] to counts
    [m, T_max, rows] of the positions where allowed[e, t], constraint e's
    t-th allowed tuple, agrees with column r, one scope position at a time.
    The padded allowed and scope arrays are kept on c, read-only."""
    def pack():
        sizes = [len(con.allowed) for con in c.constraints]
        t_max, pad = max(1, *sizes), ((-1,) * c.arity,)
        allowed = np.array([con.allowed + pad * (t_max - size)
                            for con, size in zip(c.constraints, sizes)],
                           dtype=np.min_scalar_type(-c.alphabet_size))
        scopes = np.array([con.scope for con in c.constraints])
        allowed.flags.writeable = scopes.flags.writeable = False
        return allowed, scopes
    allowed, scopes = kept(c, "_packed", pack)

    def agree(digits: np.ndarray) -> np.ndarray:
        counts = np.zeros(allowed.shape[:2] + digits.shape[1:],
                          dtype=np.min_scalar_type(c.arity))
        for p in range(c.arity):  # position p's digits [m, 1, rows]
            counts += (digits.take(scopes[:, p], axis=0)[:, None]
                       == allowed[:, :, p, None])
        return counts
    return agree, allowed


def _agreement_blocks(c: CspInstance):
    """Yield (start, best) per block of assignments in ``itertools.product``
    order, best[r, e] the most positions any allowed tuple of e agrees on
    with assignment start + r.  A block fixes the leading variables and takes
    the trailing ones, as many as fit AGREEMENT_CELLS, from ``np.indices``.
    When one block covers every assignment in at most SCORE_CELLS cells, c
    keeps best itself, read-only, and later calls yield it unscored."""
    if "_scores" in vars(c):
        yield 0, c._scores
        return
    agree, allowed = _agreement(c)
    a, n, cells = c.alphabet_size, c.num_vars, allowed[..., 0].size
    tail = 0  # a single-letter alphabet needs no table: one row
    while tail < n and 1 < a and a ** (tail + 1) * cells <= AGREEMENT_CELLS:
        tail += 1
    lead, rows = n - tail, a ** tail
    whole = (a == 1 or not lead) and rows * len(c.constraints) <= SCORE_CELLS
    digits = np.zeros((n, rows), dtype=allowed.dtype)  # first block: prefix 0
    digits[lead:] = np.indices((a,) * tail, allowed.dtype).reshape(tail, rows)
    if whole:
        def score() -> np.ndarray:
            best = np.ascontiguousarray(agree(digits).max(axis=1).T)
            best.flags.writeable = False
            return best
        yield 0, kept(c, "_scores", score)
        return
    for block, prefix in enumerate(itertools.product(range(a), repeat=lead)):
        if lead:
            digits[:lead] = np.array(prefix)[:, None]
        yield block * rows, agree(digits).max(axis=1).T


def _row_sums(table: np.ndarray, most: int) -> np.ndarray:
    """Sums of the rows of table, each at most ``most``, in the smallest
    dtype holding it: einsum sums byte rows about twice as fast as
    ``sum(axis=1)``."""
    return np.einsum("re->r", table, dtype=np.min_scalar_type(most))


def csp_value_exact(c: CspInstance,
                    budget: int = DEFAULT_ASSIGNMENT_BUDGET
                    ) -> tuple[Fraction, tuple[int, ...]]:
    """Max satisfied-constraint fraction, exact, with lex-smallest witness."""
    check_budget(budget, "assignment enumeration",
                 lambda: c.num_vars * math.log2(c.alphabet_size),
                 lambda: c.alphabet_size ** c.num_vars,
                 "csp_value_local_search")
    best, witness = -1, 0
    for start, agreement in _agreement_blocks(c):
        counts = _row_sums(agreement == c.arity, len(c.constraints))
        i = int(counts.argmax())  # first maximum: lex-smallest in the block
        if counts[i] > best:
            best, witness = int(counts[i]), start + i
    return (Fraction(best, len(c.constraints)),
            _index_to_tuple(witness, c.alphabet_size, c.num_vars))


def csp_value_local_search(c: CspInstance, seed: int, restarts: int = 10
                           ) -> tuple[Fraction, tuple[int, ...]]:
    """Greedy hill-climbing lower bound on the value; deterministic per seed.

    Each restart begins from a random assignment and sweeps the variables
    in order, moving a variable to its best value (smallest on ties) until
    a full sweep makes no improvement.  Returns the best assignment found;
    its value is always a valid lower bound.
    """
    if restarts < 1:
        raise InvalidInputError(f"restarts must be >= 1, got {restarts}")
    rng = random.Random(seed)
    agree, _ = _agreement(c)
    best_sat, best = -1, ()
    for _ in range(restarts):
        current = np.array([rng.randrange(c.alphabet_size)
                            for _ in range(c.num_vars)])
        improved = True
        while improved:
            improved = False
            for var in range(c.num_vars):
                trials = np.repeat(current[:, None], c.alphabet_size, axis=1)
                trials[var] = np.arange(c.alphabet_size)
                counts = (agree(trials).max(axis=1) == c.arity).sum(axis=0)
                val = int(counts.argmax())  # smallest best value
                if counts[val] > counts[current[var]]:
                    current[var], improved = val, True
        sat = c.satisfied_count(tuple(current.tolist()))
        if sat > best_sat:
            best_sat, best = sat, tuple(current.tolist())
    return Fraction(best_sat, len(c.constraints)), best


def tuple_count(num_vars: int, alphabet_size: int, arity: int) -> int:
    """alphabet_size**arity, the tuples a generator samples by lex index
    (the same draws as sampling the listed tuples, without listing them),
    once the sizes are checked."""
    if min(num_vars, alphabet_size, arity) < 1:
        raise InvalidInputError("num_vars, alphabet, arity must be >= 1")
    if arity * math.log2(alphabet_size) >= 63:
        raise InvalidInputError("alphabet**arity must be below 2**63")
    return alphabet_size ** arity


def random_instance(rng: random.Random, num_vars: int, alphabet_size: int,
                    arity: int, count: int, allowed_size: Callable[[], int]
                    ) -> CspInstance:
    """``count`` constraints: i.i.d. uniform scope variables, then
    ``allowed_size()`` distinct tuples (all, if fewer) drawn by lex index."""
    tuples = tuple_count(num_vars, alphabet_size, arity)
    return CspInstance(num_vars, alphabet_size, arity, tuple(make_constraint(
        [rng.randrange(num_vars) for _ in range(arity)],  # before the size
        [_index_to_tuple(i, alphabet_size, arity) for i in
         rng.sample(range(tuples), min(allowed_size(), tuples))])
        for _ in range(count)))


def find_low_value_instance(num_vars: int, alphabet_size: int, arity: int,
                            target: Fraction, seed: int, *,
                            num_constraints: int | None = None,
                            allowed_sizes: tuple[int, ...] = (1,),
                            attempts: int = 200,
                            budget: int = DEFAULT_ASSIGNMENT_BUDGET
                            ) -> tuple[CspInstance, Fraction]:
    """Seeded random search for an instance with certified value <= target.

    Samples constraints with i.i.d. uniform scope positions and uniformly
    chosen allowed sets of the requested sizes, then certifies the value
    with the exact solver.  Raises GeneratorCapError after ``attempts``
    misses, or before any draw for a target below 0; callers should relax
    the parameters.
    """
    target = Fraction(target)
    rng = random.Random(seed)
    m = num_constraints if num_constraints is not None else 8 * num_vars
    tuple_count(num_vars, alphabet_size, arity)  # bad sizes: before any draw
    for _ in range(attempts if target >= 0 else 0):  # no value is below 0
        candidate = random_instance(
            rng, num_vars, alphabet_size, arity, m,
            lambda: allowed_sizes[rng.randrange(len(allowed_sizes))])
        value, _ = csp_value_exact(candidate, budget)
        if value <= target:
            return candidate, value
    raise GeneratorCapError(
        f"no instance with value <= {target} in {attempts} attempts")


# ---------------------------------------------------------------------------
# label cover -> game conversions
# ---------------------------------------------------------------------------


def edge_game(lc: LabelCover) -> Game:
    """Endpoint game: sample an edge, send one endpoint to each prover.

    Alice answers a left label, Bob a right label; accept iff the pair
    satisfies the edge's projection.  Its classical value equals the label
    cover value (every strategy pair is an assignment pair and vice versa).
    """
    proj = {e: phi for e, phi in zip(lc.edges, lc.projections)}
    weights = [1 if (u, v) in proj else 0
               for u in range(lc.num_left) for v in range(lc.num_right)]

    def accept(u, v, s, t):
        phi = proj.get((u, v))
        return phi is not None and phi[s] == t

    return make_game("edge-game", lc.num_left, lc.num_right,
                     lc.sigma_left, lc.sigma_right, weights, accept)


def consistency_game(lc: LabelCover) -> Game:
    """Consistency-test game: Alice gets an edge and answers both endpoint
    labels; Bob gets one endpoint (uniformly) and answers its label.

    Accept iff Alice's pair satisfies the projection and Bob agrees on the
    shared vertex.  Bob's questions index left vertices first, then right
    vertices offset by num_left; his answer alphabet is the larger label
    set, with out-of-range labels for the asked side never accepted.
    """
    n_edges = len(lc.edges)
    y_size = lc.num_left + lc.num_right
    a_size = lc.sigma_left * lc.sigma_right
    b_size = max(lc.sigma_left, lc.sigma_right)

    weights = [0] * (n_edges * y_size)
    for e, (u, v) in enumerate(lc.edges):
        weights[e * y_size + u] = 1
        weights[e * y_size + lc.num_left + v] = 1

    def accept(e, w, ans, b):
        u, v = lc.edges[e]
        s, t = divmod(ans, lc.sigma_right)
        if lc.projections[e][s] != t:
            return False
        if w == u:
            return b == s
        if w == lc.num_left + v:
            return b == t
        return False

    return make_game("consistency-game", n_edges, y_size, a_size, b_size,
                     weights, accept)


# ---------------------------------------------------------------------------
# constraint-sampling verifier and optimal bounded-leakage cheating
# ---------------------------------------------------------------------------
#
# The verifier samples a constraint uniformly, asks the first prover for
# values at all k scope positions, samples a position uniformly, and asks
# the second prover for that variable alone.  It accepts iff the first
# prover's tuple satisfies the constraint and agrees with the second
# prover's value at the sampled position.
#
# Against one-way leakage the second prover's strategy, after each of the
# 2^bits possible messages, is a plain assignment.  The first prover knows
# the constraint and picks the message, so its best response decomposes
# per constraint: send the message m and satisfying tuple maximizing the
# number of positions that agree with the m-th assignment.  Enumerating
# second-prover profiles with this closed-form response is therefore an
# exact optimum over all deterministic one-way cheats.  (Shared randomness
# cannot help: acceptance is affine in the provers' behavioral mixture.)


@dataclass(frozen=True)
class CheatProfile:
    """One assignment per possible leaked message (2^bits of them)."""

    assignments: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.assignments)
        if n < 1 or n & (n - 1):
            raise InvalidInputError("profile length must be a power of two")

    @property
    def leak_bits(self) -> int:
        return len(self.assignments).bit_length() - 1

    def check_shapes(self, c: CspInstance) -> None:
        # a padded profile repeats its assignment objects: check each object
        # once; a dedupe by value would take (0, True) for (0, 1) unchecked
        for a in {id(a): a for a in self.assignments}.values():
            if len(a) != c.num_vars:
                raise InvalidInputError("assignment length != num_vars")
            check_range(a, c.alphabet_size, "assignment value")


def best_response(c: CspInstance, profile: CheatProfile
                  ) -> list[tuple[int, tuple[int, ...], int]]:
    """First prover's optimal per-constraint (message, tuple, agreement).

    Ties prefer the smallest message, then the lexicographically smallest
    satisfying tuple; constraints with empty allowed sets get message 0,
    the all-zero tuple, and agreement 0.
    """
    profile.check_shapes(c)
    first = {}  # each distinct assignment at its smallest message
    for message, assignment in enumerate(profile.assignments):
        first.setdefault(tuple(assignment), message)
    messages = list(first.values())
    counts = _agreement(c)[0](np.array(list(first)).T)
    # per constraint, (message, tuple) pairs in lex order: message major
    per_con = counts.transpose(0, 2, 1).reshape(len(c.constraints), -1)
    out = []
    for con, row in zip(c.constraints, per_con):
        pick = int(row.argmax())  # first maximum; padding agrees nowhere
        slot, t = divmod(pick, counts.shape[1])
        out.append((messages[slot], con.allowed[t], int(row[pick]))
                   if con.allowed else (0, (0,) * c.arity, 0))
    return out


def cheat_acceptance(c: CspInstance, profile: CheatProfile) -> Fraction:
    """Exact verifier acceptance with the first prover best-responding."""
    total = sum(agree for _, _, agree in best_response(c, profile))
    return Fraction(total, c.arity * len(c.constraints))


def _score_matrix(c: CspInstance) -> np.ndarray:
    """scores[i, e]: agreement of the i-th assignment (lex order) with
    constraint e's best satisfying tuple (0 when e has none); the kept
    table itself when c keeps one."""
    blocks = [agreement for _, agreement in _agreement_blocks(c)]
    return (np.concatenate(blocks) if len(blocks) > 1
            else np.ascontiguousarray(blocks[0]))


# The last two cheat slots are scored as one matrix product.  Scores are
# integers 0..k, so max(a, b) = sum_{t<k} (1 - [a<=t][b<=t]): a pair of rows
# totals k*m minus the dot product of their 0/1 rows [s <= t] over (t, e).
PAIR_CELLS = 2**15  # output cells of one block of the pair product


def _thresholds(scores: np.ndarray, k: int) -> np.ndarray:
    """[rows, k*m] 0/1 rows [scores[r, e] <= t], t-major, in float32 while
    k*m < 2**24: BLAS sums of at most k*m ones are exact there."""
    rows, m = scores.shape
    below = scores[:, None] <= np.arange(k)[:, None]  # [rows, k, m]
    return below.reshape(rows, k * m).astype(
        np.float32 if k * m < 2**24 else np.float64)


def _pair_scan(table, mask, start, bound, best_total):
    """Lex-first (i, j), start <= i <= j, whose total with the fixed slots,
    sum_e max(fixed maxima_e, S[i, e], S[j, e]), beats best_total: returns
    (total, [i, j]), or (best_total, []) when no pair beats it.  ``mask`` is
    the fixed slots' threshold row (None for no fixed slot), ``bound`` their
    node's bound row from row start on."""
    n, km = table.shape
    # the bound never rises with the row: rows start to end can beat it
    end = start + int(np.count_nonzero(bound > best_total))
    # [max(p, s) <= t] = [p <= t][s <= t]: masked rows take the maxima in
    rows = table[start:end] if mask is None else table[start:end] * mask
    product = np.empty(min((end - start) * (n - start),  # any block's cells
                           max(PAIR_CELLS, n - start)), rows.dtype)
    best, r0 = [], start
    while r0 < end:
        h, w = min(max(1, PAIR_CELLS // (n - r0)), end - r0), n - r0
        # A pair (i, j < i) totals the same as (j, i), a kept row's pair
        # that comes first in row-major order.
        dots = np.matmul(rows[r0 - start:r0 - start + h], table[r0:].T,
                         out=product[:h * w].reshape(h, w))
        p, q = divmod(int(dots.argmin()), w)  # row-major: lex-first
        if km - int(dots[p, q]) > best_total:
            best_total, best = km - int(dots[p, q]), [r0 + p, r0 + q]
        r0 += h
    return best_total, best


def _tuples(n: int, slots: int) -> int:
    """C(n + r - 1, r): nondecreasing r-tuples over n items, r = min(slots, n)
    (a profile holds at most n distinct assignments)."""
    return math.comb(n + min(slots, n) - 1, min(slots, n))


def _log2_tuples(n: float, slots: float) -> float:
    """log2 _tuples(n, slots); at least k*log2((n+slots-1)/k),
    k = min(slots, n-1), if lgamma cancels."""
    slots = min(slots, n)
    k = min(slots, n - 1)
    exact = (math.lgamma(n + slots) - math.lgamma(slots + 1)
             - math.lgamma(n)) / math.log(2)
    return max(exact, k * math.log2((n + slots - 1) / max(k, 1)))


def optimal_cheat(c: CspInstance, leak_bits: int,
                  budget: int = DEFAULT_CHEAT_BUDGET
                  ) -> tuple[Fraction, CheatProfile]:
    """Exact max acceptance over all 2^leak_bits-tuples of assignments.

    The witness profile is the lexicographically smallest maximizer (an
    ordered tuple of assignments, one per message value).  Slots are
    interchangeable, so a sorted maximizer is no larger in lex order: only
    nondecreasing index tuples are scanned, in lex order, on a stack of one
    node per slot and the last two slots scored as one blocked matrix
    product.  A slot's row i is bounded by the per-constraint maxima over
    the slots before it and every assignment from i on, summed: that never
    rises with i, so each slot stops at its first failing row.  Its node
    holds that bound row, the maxima and their threshold row, built once.

    Only r = min(2^bits, n) slots are scanned (and budgeted): the other
    slots repeat the witness's first index, keeping it the lex-first maximizer.
    """
    if leak_bits < 0:
        raise InvalidInputError("leak_bits must be non-negative")
    check_budget(budget, "cheat-profile enumeration",
                 lambda: _log2_tuples(float(c.alphabet_size) ** c.num_vars,
                                      2.0 ** leak_bits),
                 lambda: _tuples(c.alphabet_size ** c.num_vars,
                                 1 << leak_bits), RUN_FALLBACK)
    slots, n = 1 << leak_bits, c.alphabet_size ** c.num_vars
    m = len(c.constraints)
    if slots * c.num_vars > PROFILE_CELLS:
        raise BudgetExceededError(slots * c.num_vars, PROFILE_CELLS,
                                  "cheat profile")
    if n * m > 5 * 10**7:
        raise BudgetExceededError(n * m, 5 * 10**7, "cheat score table",
                                  fallback=RUN_FALLBACK)

    scores, r = _score_matrix(c), min(slots, n)
    totals = _row_sums(scores, c.arity * m)
    best_total, best = int(totals.max()), [int(totals.argmax())]
    if r > 1:  # r slots reach the best row's total: start just below it
        best_total, best = best_total - 1, []
        suffix_max = np.maximum.accumulate(scores[::-1])[::-1]
        table, km = _thresholds(scores, c.arity), c.arity * m

        def node(start, maxima, mask):  # row i's bound is bound[i - start]
            return start, maxima, mask, _row_sums(
                np.maximum(maxima, suffix_max[start:]), km)
        nodes, i = [node(0, np.zeros(m, dtype=scores.dtype), None)], 0
        while True:
            start, maxima, mask, bound = nodes[-1]
            if len(nodes) == r - 1:  # the last two slots: pairs from start on
                best_total, pair = _pair_scan(table, mask, start, bound,
                                              best_total)
                best = [nd[0] for nd in nodes[1:]] + pair if pair else best
            elif i < n and bound[i - start] > best_total:  # a slot at i
                row = table[i] if mask is None else mask * table[i]
                nodes.append(node(i, np.maximum(maxima, scores[i]), row))
                continue
            if len(nodes) == 1:
                break
            i = nodes.pop()[0] + 1
    witness = [_index_to_tuple(j, c.alphabet_size, c.num_vars) for j in best]
    profile = CheatProfile(tuple(witness[:1] * (slots - r) + witness))
    return Fraction(best_total, c.arity * m), profile


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------
#
#   csp <num_vars> <alphabet> <arity>
#   con <v1> ... <vk> : <t1> <t2> ...     tuples as base-alphabet digit strings
#
# Label cover files additionally carry the split sizes and projections:
#
#   lc <num_left> <num_right> <sigma_left> <sigma_right>
#   e <u> <v> : <phi(0)> <phi(1)> ...
#
# and their con lines are exactly the induced projection constraints (the
# loader cross-checks).  All formats round-trip exactly.


def _parse_int(no: int, tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(no, f"malformed {what} {tok!r}") from None


def load_instance(text: str) -> CspInstance | LabelCover:
    """Parse a CSP file; returns a LabelCover when an ``lc`` line is present."""
    lines = _content_lines(text)
    if not lines:
        raise FormatError(1, "empty csp file")

    no, header = lines[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "csp":
        raise FormatError(no, "expected header 'csp <vars> <alphabet> <arity>'")
    num_vars, alphabet, arity = (_parse_int(no, p, "header field")
                                 for p in parts[1:])
    if alphabet > 10:
        raise FormatError(no, "alphabet > 10 not representable as digits")

    lc_dims = None
    cons: list[Constraint] = []
    edges: list[tuple[int, int]] = []
    projections: list[tuple[int, ...]] = []
    for no, line in lines[1:]:
        toks = line.split()
        if toks[0] == "lc":
            if len(toks) != 5:
                raise FormatError(no, "expected 'lc <L> <R> <sigmaL> <sigmaR>'")
            lc_dims = tuple(_parse_int(no, t, "lc field") for t in toks[1:])
        elif toks[0] == "con":
            if ":" not in toks:
                raise FormatError(no, "con line missing ':'")
            sep = toks.index(":")
            scope = tuple(_parse_int(no, t, "variable") for t in toks[1:sep])
            if len(scope) != arity:
                raise FormatError(no, f"scope must list {arity} variables")
            allowed = []
            for t in toks[sep + 1:]:
                if len(t) != arity or any(ch not in "0123456789" for ch in t):
                    raise FormatError(no, f"malformed tuple {t!r}")
                tup = tuple(int(ch) for ch in t)
                if any(v >= alphabet for v in tup):
                    raise FormatError(no, f"tuple {t!r} outside alphabet")
                allowed.append(tup)
            cons.append(make_constraint(scope, allowed))
        elif toks[0] == "e":
            if ":" not in toks or toks.index(":") != 3:
                raise FormatError(no, "expected 'e <u> <v> : <phi values>'")
            u = _parse_int(no, toks[1], "vertex")
            v = _parse_int(no, toks[2], "vertex")
            phi = tuple(_parse_int(no, t, "projection value")
                        for t in toks[4:])
            edges.append((u, v))
            projections.append(phi)
        else:
            raise FormatError(no, f"unknown directive {toks[0]!r}")

    if not cons:
        raise FormatError(lines[-1][0], "no constraints")
    instance = CspInstance(num_vars, alphabet, arity, tuple(cons))
    if lc_dims is None:
        if edges:
            raise FormatError(lines[-1][0], "'e' lines require an 'lc' line")
        return instance

    lc = LabelCover(*lc_dims, tuple(edges), tuple(projections))
    if lc.to_csp() != instance:
        raise FormatError(lines[-1][0],
                          "con lines disagree with projections")
    return lc


def save_csp(c: CspInstance) -> str:
    if c.alphabet_size > 10:
        raise InvalidInputError("alphabet > 10 not representable as digits")
    # one %-format per line: the scope, then one digit string per tuple
    scope, digits = "con" + " %d" * c.arity + " :", " " + "%d" * c.arity
    lines = [f"csp {c.num_vars} {c.alphabet_size} {c.arity}"]
    lines += [(scope + digits * len(con.allowed))
              % (*con.scope, *itertools.chain.from_iterable(con.allowed))
              for con in c.constraints]
    return "\n".join(lines) + "\n"


def save_label_cover(lc: LabelCover) -> str:
    body = save_csp(lc.to_csp()).splitlines()
    out = [body[0],
           f"lc {lc.num_left} {lc.num_right} {lc.sigma_left} {lc.sigma_right}"]
    out.extend(body[1:])
    for (u, v), phi in zip(lc.edges, lc.projections):
        out.append(f"e {u} {v} : " + " ".join(str(t) for t in phi))
    return "\n".join(out) + "\n"
