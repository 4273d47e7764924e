"""Seeded input generation for the benchmark workloads.

Everything here is plain data: the program under test never sees a seed,
only the lists these functions return.  The same seed always gives the same
inputs; the module imports nothing from ``sodcheck``.
"""

from __future__ import annotations

import itertools
import random
from math import prod

WORKLOADS = ("verify-all", "euler-sweep", "ext-queries")

# --------------------------------------------------------------------------
# euler-sweep: random irreducible bundles, criterion 3's space mix

#: factor name -> (k, n) of Gr(k, n)
FACTORS = {"P3": (1, 4), "Gr23": (2, 3), "Gr24": (2, 4)}

#: space -> (factors, bundles per child) in the 2:2:2:1 proportions of the
#: acceptance suite's cross-engine sweep
SWEEP_PLAN = {
    "P3": (("P3",), 40),
    "Gr23": (("Gr23",), 40),
    "Gr24": (("Gr24",), 40),
    "Gr24xP3": (("Gr24", "P3"), 20),
}

#: weight entries range over [-WEIGHT_BOUND, WEIGHT_BOUND], as in criterion 3
WEIGHT_BOUND = 5


def _weyl_dim(weight) -> int:
    n = len(weight)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return (prod(weight[i] - weight[j] + j - i for i, j in pairs)
            // prod(j - i for i, j in pairs))


def _dominant(rank: int) -> list[tuple[int, ...]]:
    values = range(WEIGHT_BOUND, -WEIGHT_BOUND - 1, -1)
    return list(itertools.combinations_with_replacement(values, rank))


def factor_pairs(factor: str) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (sub, quot) dominant pair on one factor, by representation rank.

    The Chern-character cost of a bundle grows with the rank of its
    representation, so sorting by rank lets the sweep stratify its draws.
    """
    k, n = FACTORS[factor]
    pairs = [(s, q) for s in _dominant(k) for q in _dominant(n - k)]
    pairs.sort(key=lambda sq: (_weyl_dim(sq[0]) * _weyl_dim(sq[1]), sq))
    return pairs


def _stratified(rng: random.Random, pairs, count: int):
    """``count`` draws, exactly one from each of ``count`` rank strata.

    Plain uniform draws make the batch's cost swing by tens of percent from
    seed to seed (a few huge representations dominate); one draw per
    stratum keeps the cost of every seed's batch nearly the same while the
    bundles themselves stay random.
    """
    order = list(range(count))
    rng.shuffle(order)
    out = []
    for s in order:
        lo = len(pairs) * s // count
        hi = len(pairs) * (s + 1) // count
        out.append(pairs[rng.randrange(lo, hi)])
    return out


def sweep_inputs(seed: int) -> list[list]:
    """[space, [[sub, quot], ...per factor]] for every bundle of the sweep."""
    rng = random.Random(f"euler-sweep/{seed}")
    pools = {f: factor_pairs(f) for f in FACTORS}
    bundles = []
    for space, (factors, count) in SWEEP_PLAN.items():
        columns = [_stratified(rng, pools[f], count) for f in factors]
        for row in zip(*columns):
            bundles.append([space, [[list(s), list(q)] for s, q in row]])
    rng.shuffle(bundles)
    return bundles


# --------------------------------------------------------------------------
# ext-queries: single graded-Ext queries against the seven catalog varieties

#: labels per variety; every ordered pair is answered without error and
#: every label has a lattice class, so ``Variety.chi`` can cross-check
LABEL_POOLS = {
    "P3": ["O", "O(h)", "O(-h)", "O(2h)", "O(-2h)", "O(3h)", "O(-3h)",
           "O(-4h)", "O(4h)"],
    "Gr23": ["O", "O(g)", "O(-g)", "U", "Uv", "U(g)", "V/U", "V/Uv",
             "S2U", "S2Uv(-g)"],
    "Gr24": ["O", "O(g)", "O(-g)", "O(-2g)", "U", "Uv", "U(g)", "V/U",
             "V/Uv(-g)", "S2U(-g)", "S3U", "S2Uv"],
    "Gr24xP3": ["O", "O(h)", "O(-h)", "O(g)", "O(-g)", "O(g-h)", "U",
                "Uv(h)", "V/U(-h)", "S2U(-g)", "O(-g-h)", "O(2h)"],
    "net_fourfold": ["O", "O(h)", "O(-h)", "O(g)", "O(-g)", "O(h-g)", "V/U",
                     "V/U(-g)", "Cliff_0", "Cliff_1", "Cliff_2(-g)",
                     "Cliff_3", "O_Pl1", "O_Pl1(-1)", "O_Pl2(-1)",
                     "O_Pl3(1)"],
    "blown_p3": ["O", "O(h)", "O(-h)", "O(2h)", "O(-e1)", "O(e1)", "O(-e2)",
                 "O(h-e1)", "O(H)", "O(-H)", "O(2h-e)", "O_E1", "O_E2(-1)",
                 "O_E3(1)", "O_E1(-2)"],
    "double_cover_blowup": ["O", "O(h)", "O(-h)", "O(-e1)", "O(e2)", "O(-H)",
                            "O(H)", "O(h-e3)", "O_Q1", "O_Q2(1,0)",
                            "O_Q1(-1,-1)"],
}

#: queries per child: QUERY_ROUNDS rounds, one query per variety each
QUERY_ROUNDS = 500


def ext_inputs(seed: int) -> list[list[str]]:
    """[variety, a, b] queries; each round asks every variety once.

    Each variety deals its ordered label pairs from a shuffled deck, so
    every pair is asked once before any is asked again.  Independent draws
    let the share of the costly CHI-ONLY answers swing by 15% from seed to
    seed, and the batch's cost with it.
    """
    rng = random.Random(f"ext-queries/{seed}")
    names = list(LABEL_POOLS)
    decks: dict[str, list[list[str]]] = {name: [] for name in names}
    queries = []
    for _ in range(QUERY_ROUNDS):
        rng.shuffle(names)
        for name in names:
            if not decks[name]:
                pool = LABEL_POOLS[name]
                decks[name] = [[a, b] for a in pool for b in pool]
                rng.shuffle(decks[name])
            queries.append([name, *decks[name].pop()])
    return queries


def make_inputs(workload: str, seed: int) -> list:
    """The generated inputs of one workload; verify-all has none."""
    if workload == "euler-sweep":
        return sweep_inputs(seed)
    if workload == "ext-queries":
        return ext_inputs(seed)
    if workload == "verify-all":
        return []
    raise ValueError(f"unknown workload {workload!r}")
