"""Seeded request generation for the three benchmark workloads.

A run is a sequence of rounds.  A round holds a fixed quota of requests per
(group, kind), so its length and cost barely depend on the seed; the seed and
the round index pick the inputs inside each (group, kind) and the order.
Inside a round the inputs are drawn without replacement where the space
allows, so that one round does not happen to draw the costliest inputs twice.
Because every round has the same composition, a percentile taken at a fixed
fraction lands in the same (group, kind) however many rounds fit in the
measured time.

``space(workload)`` lists every request a round can draw.  The reference
digests in ``refs.json`` are recorded over that whole space, so every request
of every seed is checked byte for byte.
"""

from __future__ import annotations

import random

EPSILON = "epsilon-cli"
CHARTABLE = "chartable-cli"
VERIFY = "verify-session"
WORKLOADS = (EPSILON, CHARTABLE, VERIFY)

# Cuspidal orbit representatives (smallest exponent of each Frobenius orbit),
# fixed by (q, r); the setup probe checks them against list_cuspidals.
ORBIT_REPS = {
    (3, 1): (0, 1),
    (5, 1): (0, 1, 2, 3),
    (7, 1): (0, 1, 2, 3, 4, 5),
    (2, 2): (1,),
    (3, 2): (1, 2, 5),
    (4, 2): (1, 2, 3, 6, 7, 11),
    (5, 2): (1, 2, 3, 4, 7, 8, 9, 13, 14, 19),
    (2, 3): (1, 3),
    (3, 3): (1, 2, 4, 5, 7, 8, 14, 17),
    (2, 4): (1, 3, 7),
}

# epsilon-cli: (distinct pairs, equal pairs with nontrivial t) per round.
# GL_2(F_5) (m = 120, the mixed 5 x 24 case) carries most of the time, and its
# distinct pairs hold the tail percentile in their middle.  The small groups
# give the median enough samples: there the CLI start-up is most of a request.
# The cost of a GL_2(F_5) pair depends mostly on which cuspidals it holds
# (from 1.5 s for (9, 3) to 3.1 s for (13, 1)), so each orbit representative
# is drawn about equally often as theta1 and as theta2.
EPSILON_QUOTAS = {(3, 2): (6, 2), (4, 2): (3, 2), (2, 3): (3, 2), (5, 2): (8, 1)}
T1_CHOICES = ("1/3", "1/4", "3/8", "-1")
T2_CHOICES = ("1", "2/3")

# chartable-cli: requests per round.  GL_2(F_q) with q >= 7 is left out: its
# character values make it a cyclotomic workload.
CHARTABLE_QUOTAS = {(2, 3): 2, (3, 3): 5, (2, 4): 1}
FORMATS = ("json", "csv")

# verify-session: (suite, group) in suite order inside each group block.
# The seed shuffles the blocks, not the suites inside a block: caches are per
# group, so each request meets the same cache state whatever the seed.
VERIFY_BLOCKS = (
    ((2, 2), ("glq", "cusp", "bessel", "epsilon")),
    ((3, 2), ("glq", "cusp", "bessel", "realization", "vanishing", "epsilon")),
    ((4, 2), ("glq", "cusp", "epsilon")),
    ((5, 2), ("glq", "cusp")),
    ((2, 3), ("glq", "cusp", "bessel", "realization", "vanishing", "epsilon")),
    ((3, 1), ("epsilon",)),
    ((5, 1), ("epsilon",)),
    ((7, 1), ("epsilon",)),
    (None, ("transfer",)),
    (None, ("cyclo",)),
)
VERIFY_SEEDS = (11, 22, 33, 44)

# Groups whose construction and cuspidal list make up each workload's set-up.
SETUP_GROUPS = {
    EPSILON: tuple(EPSILON_QUOTAS),
    CHARTABLE: tuple(CHARTABLE_QUOTAS),
    VERIFY: tuple(g for g, _ in VERIFY_BLOCKS if g is not None),
}


def _group_args(q: int, r: int) -> list[str]:
    return ["--q", str(q), "--r", str(r)]


def _epsilon_requests(q: int, r: int, equal: bool) -> list[list[str]]:
    reps = ORBIT_REPS[(q, r)]
    out = []
    for a in reps:
        for b in reps:
            if (a == b) != equal:
                continue
            ts = [(t1, t2) for t1 in T1_CHOICES for t2 in T2_CHOICES] if equal else [("1", "1")]
            out += [_epsilon_request(q, r, a, b, t1, t2) for t1, t2 in ts]
    return out


def _spread(rng: random.Random, items, n: int) -> list:
    """n items in seeded order, each used once before any is used again."""
    out: list = []
    while len(out) < n:
        out += rng.sample(items, len(items))
    return out[:n]


def _distinct_pairs(rng: random.Random, reps, n: int) -> list[tuple[int, int]]:
    """n ordered pairs a != b of orbit representatives, balanced by ``_spread``
    on each side."""
    while True:
        pairs = list(zip(_spread(rng, reps, n), _spread(rng, reps, n)))
        if all(a != b for a, b in pairs):
            return pairs


def _epsilon_request(q: int, r: int, a: int, b: int, t1: str, t2: str) -> list[str]:
    return ["epsilon", *_group_args(q, r), "--theta1", str(a), "--theta2", str(b),
            "--t1", t1, "--t2", t2, "--oracle"]


def _chartable_requests(q: int, r: int) -> list[list[str]]:
    return [
        ["cuspidals", *_group_args(q, r), "--format", fmt, "--a", str(a)]
        for fmt in FORMATS
        for a in range(q - 1)
    ]


def _verify_request(suite: str, group, seed: int) -> list[str]:
    argv = ["verify", "--suite", suite]
    if group is not None:
        argv += _group_args(*group)
    return argv + ["--seed", str(seed)]


def space(workload: str) -> list[list[str]]:
    """Every request a round of ``workload`` can contain."""
    if workload == EPSILON:
        return [
            argv
            for (q, r) in EPSILON_QUOTAS
            for equal in (False, True)
            for argv in _epsilon_requests(q, r, equal)
        ]
    if workload == CHARTABLE:
        return [argv for (q, r) in CHARTABLE_QUOTAS for argv in _chartable_requests(q, r)]
    if workload == VERIFY:
        return [
            _verify_request(suite, group, s)
            for group, suites in VERIFY_BLOCKS
            for suite in suites
            for s in VERIFY_SEEDS
        ]
    raise ValueError(f"unknown workload {workload!r}")


def make_round(workload: str, seed: int, index: int = 0) -> list[list[str]]:
    """The request list of round ``index``, as argv lists for ``cuspeps``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == EPSILON:
        reqs = []
        for (q, r), (n_distinct, n_equal) in EPSILON_QUOTAS.items():
            reps = ORBIT_REPS[(q, r)]
            reqs += [_epsilon_request(q, r, a, b, "1", "1")
                     for a, b in _distinct_pairs(rng, reps, n_distinct)]
            reqs += [_epsilon_request(q, r, a, a, rng.choice(T1_CHOICES), rng.choice(T2_CHOICES))
                     for a in _spread(rng, reps, n_equal)]
        rng.shuffle(reqs)
        return reqs
    if workload == CHARTABLE:
        reqs = [
            rng.choice(_chartable_requests(q, r))
            for (q, r), n in CHARTABLE_QUOTAS.items()
            for _ in range(n)
        ]
        rng.shuffle(reqs)
        return reqs
    if workload == VERIFY:
        blocks = list(VERIFY_BLOCKS)
        rng.shuffle(blocks)
        return [
            _verify_request(suite, group, rng.choice(VERIFY_SEEDS))
            for group, suites in blocks
            for suite in suites
        ]
    raise ValueError(f"unknown workload {workload!r}")
