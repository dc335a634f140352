"""Seeded random generators shared by the test modules."""

from __future__ import annotations

import random

from leakygames.csp import CspInstance, LabelCover, make_constraint
from leakygames.games import Game, StrategyPair, make_game
from leakygames.leakage import LeakyStrategy


def random_game(rng: random.Random, max_x=3, max_y=3, max_a=3, max_b=3,
                name="rand") -> Game:
    return random_game_exact(rng, rng.randint(1, max_x), rng.randint(1, max_y),
                             rng.randint(1, max_a), rng.randint(1, max_b),
                             name=name)


def random_game_exact(rng: random.Random, x: int, y: int, a: int, b: int,
                      name="rand") -> Game:
    while True:
        weights = [rng.randint(0, 3) for _ in range(x * y)]
        if sum(weights):
            break
    bits = [rng.randint(0, 1) for _ in range(x * y * a * b)]
    return make_game(name, x, y, a, b, weights,
                     lambda xx, yy, aa, bb: bits[((xx * y + yy) * a + aa) * b
                                                 + bb])


def random_label_cover(rng: random.Random, max_left=3, max_right=3,
                       max_sigma_left=3, max_sigma_right=3,
                       max_edges=4) -> LabelCover:
    nl = rng.randint(1, max_left)
    nr = rng.randint(1, max_right)
    sl = rng.randint(1, max_sigma_left)
    sr = rng.randint(1, max_sigma_right)
    all_pairs = [(u, v) for u in range(nl) for v in range(nr)]
    n_edges = rng.randint(1, min(max_edges, len(all_pairs)))
    edges = tuple(sorted(rng.sample(all_pairs, n_edges)))
    projections = tuple(tuple(rng.randrange(sr) for _ in range(sl))
                        for _ in edges)
    return LabelCover(nl, nr, sl, sr, edges, projections)


def satisfiable_label_cover(rng: random.Random, **kwargs) -> LabelCover:
    """Random label cover forced to value 1 by planting an assignment."""
    lc = random_label_cover(rng, **kwargs)
    left = [rng.randrange(lc.sigma_left) for _ in range(lc.num_left)]
    right = [rng.randrange(lc.sigma_right) for _ in range(lc.num_right)]
    projections = []
    for (u, v), phi in zip(lc.edges, lc.projections):
        fixed = list(phi)
        fixed[left[u]] = right[v]
        projections.append(tuple(fixed))
    return LabelCover(lc.num_left, lc.num_right, lc.sigma_left,
                      lc.sigma_right, lc.edges, tuple(projections))


def satisfiable_csp(rng: random.Random, num_vars=6, alphabet=2, arity=2,
                    num_constraints=12) -> tuple[CspInstance, tuple[int, ...]]:
    """Random instance with a planted satisfying assignment."""
    planted = tuple(rng.randrange(alphabet) for _ in range(num_vars))
    cons = []
    for _ in range(num_constraints):
        scope = tuple(rng.randrange(num_vars) for _ in range(arity))
        allowed = {tuple(planted[v] for v in scope)}
        while rng.random() < 0.3:
            allowed.add(tuple(rng.randrange(alphabet) for _ in range(arity)))
        cons.append(make_constraint(scope, allowed))
    return CspInstance(num_vars, alphabet, arity, tuple(cons)), planted


def from_strategy_pair(s: StrategyPair) -> LeakyStrategy:
    """Embed a plain strategy pair as a zero-message leaky strategy."""
    return LeakyStrategy(
        alice_msg=tuple(0 for _ in s.alice),
        bob_msg=tuple(0 for _ in s.bob),
        alice_ans=tuple((a,) for a in s.alice),
        bob_ans=tuple((b,) for b in s.bob))
