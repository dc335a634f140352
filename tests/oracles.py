"""Independent naive reference implementations used as test oracles.

Everything here enumerates the full search space directly, with its own
value accumulation, and is kept deliberately separate from the library's
solvers (which use best-response decompositions and accelerated scans).
Only usable at sizes where the full product space is small.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from leakygames.csp import CheatProfile, _score_matrix
from leakygames.errors import BudgetExceededError
from leakygames.games import (Game, _index_to_tuple, best_tables,
                              gain_tensor)
from leakygames.leakage import LeakageModel, LeakyStrategy
from leakygames.repetition import DEFAULT_TABLE_CELLS


def _weight_table(g):
    """Integer weights and their total, derived from the Fraction table."""
    fracs = [g.weight(x, y) for x in range(g.x_size) for y in range(g.y_size)]
    denom = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom) for f in fracs]
    support = [(x, y, ints[x * g.y_size + y])
               for x in range(g.x_size) for y in range(g.y_size)
               if ints[x * g.y_size + y]]
    return support, denom


def materialize(rg, max_cells: int = DEFAULT_TABLE_CELLS) -> Game:
    """Explicit product Game of a RepeatedGame, cell by cell from ``wins``."""
    pred_cells = rg.x_size * rg.y_size * rg.a_size * rg.b_size
    if pred_cells > max_cells:
        raise BudgetExceededError(pred_cells, max_cells, "product table")
    dist = tuple(rg.weight(x, y)
                 for x in range(rg.x_size) for y in range(rg.y_size))
    bits = tuple(int(rg.wins(x, y, a, b))
                 for x in range(rg.x_size) for y in range(rg.y_size)
                 for a in range(rg.a_size) for b in range(rg.b_size))
    return Game(rg.name, rg.x_size, rg.y_size, rg.a_size, rg.b_size,
                dist, bits)


def naive_classical_value(g):
    """Full scan over every (alice, bob) table pair, smallest argmax first."""
    support, denom = _weight_table(g)
    best = -1
    best_pair = None
    for alice in itertools.product(range(g.a_size), repeat=g.x_size):
        for bob in itertools.product(range(g.b_size), repeat=g.y_size):
            num = 0
            for x, y, w in support:
                if g.wins(x, y, alice[x], bob[y]):
                    num += w
            if num > best:
                best = num
                best_pair = (alice, bob)
    return Fraction(best, denom), best_pair


def per_subset_tables(c):
    """The library fold once per subset xs of the questions x, by bitmask:
    ``best_tables(c[xs])``, (value, alice on xs, bob on every y)."""
    return [best_tables(c[[x for x in range(c.shape[0]) if mask >> x & 1]])
            for mask in range(1 << c.shape[0])]


def naive_group_subset_tables(c, width):
    """Every alice table in lex order against every subset of the groups of
    ``width`` consecutive y, by bitmask: the largest total over the
    subset's y, summed with Python integers, the first alice table reaching
    it, and bob's smallest best answer at each of the subset's y."""
    x_size, a_size, y_size, b_size = c.shape
    best = [(-1, (), ())] * (1 << (y_size // width))
    for alice in itertools.product(range(a_size), repeat=x_size):
        scores = [[sum(int(c[x, a, y, b]) for x, a in enumerate(alice))
                   for b in range(b_size)] for y in range(y_size)]
        for mask in range(len(best)):
            ys = [y for y in range(y_size) if mask >> (y // width) & 1]
            total = sum(max(scores[y]) for y in ys)
            if total > best[mask][0]:
                best[mask] = (total, alice, tuple(
                    scores[y].index(max(scores[y])) for y in ys))
    return best


def naive_best_partition(value, n, k):
    """Every partition of range(n) into at most k nonempty blocks, built by
    putting each element into an existing block or a new one: the largest
    sum of block values, ``value`` indexed by bitmask."""
    def partitions(i, blocks):
        if i == n:
            yield blocks
            return
        for j in range(len(blocks)):
            yield from partitions(i + 1, blocks[:j] + [blocks[j] | 1 << i]
                                  + blocks[j + 1:])
        if len(blocks) < k:
            yield from partitions(i + 1, blocks + [1 << i])
    return max(sum(value[b] for b in blocks) for blocks in partitions(0, []))


def label_strings(n, k, prefix=()):
    """Length-n strings over <= k labels, new blocks taking the next label,
    in lex order, one recursion level per position."""
    if len(prefix) == n:
        yield prefix
    else:
        for label in range(min(max(prefix, default=-1) + 2, k)):
            yield from label_strings(n, k, prefix + (label,))


def first_best_string(values, n, k):
    """The first of ``label_strings(n, k)`` whose nonempty blocks' values,
    indexed by bitmask, sum to the best total, with that total."""
    def total(labels):
        masks = [0] * k
        for i, v in enumerate(labels):
            masks[v] |= 1 << i
        return sum(values[mask] for mask in masks if mask)
    strings = list(label_strings(n, k))
    totals = [total(s) for s in strings]
    return max(totals), strings[totals.index(max(totals))]


def iter_leaky_strategies(g, m: LeakageModel):
    """Every deterministic leaky strategy for the model, lex order."""
    m1, m2 = m.msgs_ab, m.msgs_ba
    for alice_msg in itertools.product(range(m1), repeat=g.x_size):
        for bob_msg in itertools.product(range(m2), repeat=g.y_size):
            for aflat in itertools.product(range(g.a_size),
                                           repeat=g.x_size * m2):
                alice_ans = tuple(aflat[x * m2:(x + 1) * m2]
                                  for x in range(g.x_size))
                for bflat in itertools.product(range(g.b_size),
                                               repeat=g.y_size * m1):
                    bob_ans = tuple(bflat[y * m1:(y + 1) * m1]
                                    for y in range(g.y_size))
                    yield LeakyStrategy(alice_msg, bob_msg, alice_ans,
                                        bob_ans)


def naive_leaky_value(g, m: LeakageModel):
    """Full scan over every leaky strategy, smallest argmax first."""
    support, denom = _weight_table(g)
    best = -1
    best_s = None
    for s in iter_leaky_strategies(g, m):
        num = 0
        for x, y, w in support:
            a = s.alice_ans[x][s.bob_msg[y]]
            b = s.bob_ans[y][s.alice_msg[x]]
            if g.wins(x, y, a, b):
                num += w
        if num > best:
            best = num
            best_s = s
    return Fraction(best, denom), best_s


def generic_simultaneous_value(g, m: LeakageModel):
    """Every (alice_msg, bob_msg) pair in lex order, each leaving a classical
    game (alice answers (x, bob's message), bob answers (y, alice's
    message)) solved by the library fold; the first strict maximum wins."""
    c, denom = gain_tensor(g)
    m1, m2 = m.msgs_ab, m.msgs_ba
    best_num, best = -1, None
    for alice_msg in itertools.product(range(m1), repeat=g.x_size):
        to_bob = np.equal.outer(alice_msg, range(m1))  # [x, bob hears]
        for bob_msg in itertools.product(range(m2), repeat=g.y_size):
            to_alice = np.equal.outer(range(m2), bob_msg)  # [alice hears, y]
            eff = (c[:, None, :, :, None, :]
                   * to_alice[None, :, None, :, None, None]
                   * to_bob[:, None, None, None, :, None])
            num, alice, bob = best_tables(eff.reshape(
                g.x_size * m2, g.a_size, g.y_size * m1, g.b_size))
            if num > best_num:
                best_num = num
                best = LeakyStrategy(
                    alice_msg, bob_msg,
                    tuple(alice[i:i + m2] for i in range(0, len(alice), m2)),
                    tuple(bob[i:i + m1] for i in range(0, len(bob), m1)))
    return Fraction(best_num, denom), best


def informed_bob_value(g):
    """Optimum when bob sees both questions: max over a: X->A, b: XxY->B."""
    support, denom = _weight_table(g)
    best = -1
    for alice in itertools.product(range(g.a_size), repeat=g.x_size):
        for bflat in itertools.product(range(g.b_size),
                                       repeat=g.x_size * g.y_size):
            num = 0
            for x, y, w in support:
                if g.wins(x, y, alice[x], bflat[x * g.y_size + y]):
                    num += w
            if num > best:
                best = num
    return Fraction(best, denom)


def naive_csp_value(c):
    """Full assignment scan with direct per-constraint membership checks."""
    best = -1
    best_a = None
    for assignment in itertools.product(range(c.alphabet_size),
                                        repeat=c.num_vars):
        sat = 0
        for con in c.constraints:
            if tuple(assignment[v] for v in con.scope) in con.allowed:
                sat += 1
        if sat > best:
            best = sat
            best_a = assignment
    return Fraction(best, len(c.constraints)), best_a


def verifier_tensor(c):
    """The constraint-sampling verifier as a gain tensor, and its
    denominator m * k: x is a constraint e, a indexes e's allowed tuples
    (padded to the longest list; padding gains nothing), y is a variable v
    and b a value.  c'[e, t, v, b] counts the scope positions p of e with
    scope[p] = v and t[p] = b, so a repeated scope variable counts twice."""
    t_max = max(1, *(len(con.allowed) for con in c.constraints))
    gains = np.zeros((len(c.constraints), t_max, c.num_vars,
                      c.alphabet_size), dtype=np.int64)
    for e, con in enumerate(c.constraints):
        for t, tup in enumerate(con.allowed):
            for v, b in zip(con.scope, tup):
                gains[e, t, v, b] += 1
    return gains, len(c.constraints) * c.arity


def naive_label_cover_value(lc):
    """Direct scan over (left assignment, right assignment) pairs."""
    best = -1
    for left in itertools.product(range(lc.sigma_left), repeat=lc.num_left):
        for right in itertools.product(range(lc.sigma_right),
                                       repeat=lc.num_right):
            sat = 0
            for (u, v), phi in zip(lc.edges, lc.projections):
                if phi[left[u]] == right[v]:
                    sat += 1
            if sat > best:
                best = sat
    return Fraction(best, len(lc.edges))


def naive_best_response(c, profile):
    """Per constraint, the first (message, allowed tuple) pair in message
    order, then allowed order, agreeing on the most scope positions with
    the message's assignment; (0, all-zero tuple, 0) with nothing allowed.
    Every slot is scored, repeated assignments too."""
    out = []
    for con in c.constraints:
        best = (-1, 0, (0,) * c.arity)
        for message, assignment in enumerate(profile.assignments):
            for tup in con.allowed:
                agree = sum(assignment[var] == value
                            for var, value in zip(con.scope, tup))
                if agree > best[0]:
                    best = (agree, message, tup)
        out.append((best[1], best[2], max(best[0], 0)))
    return out


def naive_optimal_cheat(c, leak_bits: int):
    """Scan every (first-prover behavior, second-prover profile) pair.

    A first-prover behavior assigns each constraint a (message, answer
    tuple) with the tuple ranging over the whole alphabet power, not just
    satisfying tuples.  Acceptance is averaged over constraints and scope
    positions directly.  Only for tiny instances.
    """
    slots = 1 << leak_bits
    assignments = list(itertools.product(range(c.alphabet_size),
                                         repeat=c.num_vars))
    tuples = list(itertools.product(range(c.alphabet_size), repeat=c.arity))
    choices = [(m, t) for m in range(slots) for t in tuples]
    m_cons = len(c.constraints)
    best = -1
    for profile in itertools.product(assignments, repeat=slots):
        for behavior in itertools.product(choices, repeat=m_cons):
            num = 0
            for e, con in enumerate(c.constraints):
                msg, tup = behavior[e]
                if tup not in con.allowed:
                    continue
                for pos, var in enumerate(con.scope):
                    if tup[pos] == profile[msg][var]:
                        num += 1
            if num > best:
                best = num
    return Fraction(best, m_cons * c.arity)


def reference_optimal_cheat(c, leak_bits: int):
    """The per-row leaf scan the pair scan replaced, without budget guards:
    nondecreasing index tuples in lex order, prefixes pruned by the
    column-max bound, and the last slot scored one prefix row at a time.
    Returns (value, CheatProfile) like ``csp.optimal_cheat``."""
    slots, n = 1 << leak_bits, c.alphabet_size ** c.num_vars
    scores = _score_matrix(c).astype(np.int64)
    suffix_max = np.maximum.accumulate(scores[::-1])[::-1]
    best_total, best = -1, []
    idx = [0] * slots
    maxes = [np.zeros(len(c.constraints), dtype=scores.dtype)] * slots
    depth, i = 0, 0  # idx[:depth] is fixed; i is the candidate for slot depth
    while True:
        if depth == slots - 1:  # every last index from i on, at once
            sums = np.maximum(maxes[depth], scores[i:]).sum(axis=1)
            last = int(sums.argmax())  # first maximum: lex-smallest
            if sums[last] > best_total:
                best_total, best = int(sums[last]), idx[:depth] + [i + last]
        if depth == slots - 1 or i == n:
            depth -= 1
            if depth < 0:
                break
            i = idx[depth] + 1
            continue
        child = np.maximum(maxes[depth], scores[i])
        if np.maximum(child, suffix_max[i]).sum() > best_total:
            idx[depth], maxes[depth + 1] = i, child
            depth += 1  # the next slot starts at i: tuples are nondecreasing
        else:
            i += 1
    profile = CheatProfile(tuple(
        _index_to_tuple(j, c.alphabet_size, c.num_vars) for j in best))
    return Fraction(best_total, c.arity * len(c.constraints)), profile


def naive_score_matrix(c):
    """scores[i][e]: the most scope positions any allowed tuple of
    constraint e agrees on with the i-th assignment in lex order (0 when e
    allows nothing), one assignment at a time."""
    return [[max((sum(assignment[var] == value
                      for var, value in zip(con.scope, tup))
                  for tup in con.allowed), default=0)
             for con in c.constraints]
            for assignment in itertools.product(range(c.alphabet_size),
                                                repeat=c.num_vars)]


def naive_local_search(c, seed: int, restarts: int = 10):
    """``csp.csp_value_local_search`` with every trial value scored by
    ``satisfied_count``: the same random draws, sweeps and tie rules."""
    rng = random.Random(seed)
    best_sat, best = -1, ()
    for _ in range(restarts):
        current = [rng.randrange(c.alphabet_size) for _ in range(c.num_vars)]
        improved = True
        while improved:
            improved = False
            for var in range(c.num_vars):
                counts = [c.satisfied_count(tuple(
                    current[:var] + [value] + current[var + 1:]))
                    for value in range(c.alphabet_size)]
                value = counts.index(max(counts))  # smallest best value
                if counts[value] > counts[current[var]]:
                    current[var], improved = value, True
        sat = c.satisfied_count(tuple(current))
        if sat > best_sat:
            best_sat, best = sat, tuple(current)
    return Fraction(best_sat, len(c.constraints)), best


def naive_save_csp(c):
    """``csp.save_csp`` by generator joins, one per scope and per tuple."""
    out = [f"csp {c.num_vars} {c.alphabet_size} {c.arity}"]
    for con in c.constraints:
        scope = " ".join(str(v) for v in con.scope)
        tuples = " ".join("".join(str(d) for d in t) for t in con.allowed)
        out.append(f"con {scope} : {tuples}".rstrip())
    return "\n".join(out) + "\n"
