"""Acceptance gate: one end-to-end check per criterion, one verdict line each.

Every check is exact (integer arithmetic throughout); the timed criteria
assert their wall-clock budgets.  Run with ``pytest tests/test_acceptance.py
-v`` for one pass/fail line per criterion, or add ``-s`` to also see the
CRITERION verdict lines and timings.
"""

import random
import time
from pathlib import Path

from sodcheck.bbw import GR23, GR24, P3, cohomology, irr, line
from sodcheck.chow import (
    ch_bundle,
    chi,
    ring_gr23,
    ring_gr24,
    ring_gr24_p3,
    ring_p3,
)
from sodcheck.cli import _move, _random_class, main as cli_main
from sodcheck.kmut import (
    AmbientLattice,
    gram,
    is_exceptional,
    is_unitriangular,
    mutate_left,
    mutate_right,
)
from sodcheck.replay import SCENARIOS, load_scenario, run_all
from sodcheck.varieties import (
    check_split_certificate,
    double_cover_check,
    get_variety,
    projection_shadow_report,
    plane_cohomology,
)


def verdict(num: int, ok: bool, detail: str, started: float,
            limit: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    line = (f"CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}"
            f" [{elapsed:.2f}s]")
    print(line, flush=True)
    assert ok, line
    if limit is not None:
        assert elapsed < limit, (
            f"criterion {num} exceeded its {limit:.0f}s budget: "
            f"{elapsed:.2f}s"
        )


def gr_bundle(sub, quot=(0, 0), twist=0):
    b = irr((GR24,), [(tuple(sub), tuple(quot))])
    return b.twist((twist,)) if twist else b


# 1 -------------------------------------------------------------------------

def test_criterion_1_cohomology_anchors():
    t0 = time.perf_counter()
    gr = get_variety("Gr24")
    checks = [
        # rank-2 sub bundle squared, twisted down once: C in degree 2
        cohomology(gr_bundle((0, -2), twist=-1)).dims() == {2: 1},
        # its cube untwisted: the four-dimensional dual space in degree 2
        cohomology(gr_bundle((0, -3))).dims() == {2: 4},
        # negative half of the index-zero window
        cohomology(line((GR24,), (-1,))).is_zero,
        # the same value through the labelled-variety oracle
        gr.ext("O", "S2U(-g)").graded == {2: 1},
        gr.ext("O", "O(-g)").is_zero,
        # distinguished-plane restrictions
        plane_cohomology(line((GR24,), (0,))).dims() == {0: 1},
        plane_cohomology(line((GR24,), (-2,))).dims() == {},
        plane_cohomology(gr_bundle((-2, -3))).dims() == {},
        plane_cohomology(line((GR24,), (-1,))).dims() == {},
    ]
    verdict(1, all(checks),
            f"{len(checks)} weight-staircase anchors, all exact", t0,
            limit=1.0)


# 2 -------------------------------------------------------------------------

def test_criterion_2_fourfold_hypercohomology():
    t0 = time.perf_counter()
    m = get_variety("net_fourfold")
    cases = [
        ("O(-h)", "O(-2g)", {}),
        ("O(-h)", "O(-g)", {1: 1}),
        ("O(-h)", "V/U(-g)", {}),
        ("Uv(g)", "O(h-g)", {}),
        ("O(g)", "O(h-g)", {}),
    ]
    ok = True
    for src, dst, want in cases:
        ans = m.ext(src, dst)
        # a determinate staircase is required: no indeterminate tables
        if not (ans.determinate and ans.graded == want
                and ans.tag == "BBW"):
            ok = False
    verdict(2, ok, "5 graded Ext values on the fourfold, "
            "all with determinate staircases", t0, limit=5.0)


# 3 -------------------------------------------------------------------------

def _random_sub_quot(rng, space):
    out = []
    for f in space:
        sub = tuple(sorted((rng.randrange(-5, 6) for _ in range(f.k)),
                           reverse=True))
        quot = tuple(sorted((rng.randrange(-5, 6) for _ in range(f.n - f.k)),
                            reverse=True))
        out.append((sub, quot))
    return out


def test_criterion_3_cross_engine_euler():
    t0 = time.perf_counter()
    plans = [
        ((P3,), ring_p3(), 200),
        ((GR23,), ring_gr23(), 200),
        ((GR24,), ring_gr24(), 200),
        ((GR24, P3), ring_gr24_p3(), 100),
    ]
    total = 0
    ok = True
    for space, ring, rounds in plans:
        rng = random.Random(1000 + sum(f.n for f in space))
        for _ in range(rounds):
            b = irr(space, _random_sub_quot(rng, space))
            if cohomology(b).euler() != chi(ring, ch_bundle(ring, b)):
                ok = False
            total += 1
    verdict(3, ok, f"weight staircase vs Riemann-Roch on {total} "
            "random bundles", t0, limit=30.0)


# 4 -------------------------------------------------------------------------

LAT_P3 = AmbientLattice(ring_p3())
LAT_GR = AmbientLattice(ring_gr24())


def p3_line(t):
    return ch_bundle(LAT_P3.ring, line((P3,), (t,)))


def gr_line(t):
    return ch_bundle(LAT_GR.ring, line((GR24,), (t,)))


GR_QUOT = ch_bundle(LAT_GR.ring, irr((GR24,), [((0, 0), (0, -1))]))
EXC_P3 = [p3_line(t) for t in range(-3, 4)]
EXC_GR = (
    [gr_line(t) for t in range(-3, 4)]
    + [GR_QUOT * gr_line(t) for t in range(-2, 3)]
)
BEILINSON = [p3_line(t) for t in range(4)]
GRASS6 = [
    gr_line(-2), gr_line(-1), GR_QUOT * gr_line(-1),
    gr_line(0), GR_QUOT, gr_line(1),
]


def test_criterion_4_mutation_properties():
    t0 = time.perf_counter()
    ok = True

    # involutivity: the left and right mutations invert each other on the
    # orthogonal of the pivot
    rng = random.Random(201)
    for _ in range(100):
        lat = rng.choice([LAT_P3, LAT_GR])
        pool = EXC_P3 if lat is LAT_P3 else EXC_GR
        e = rng.choice(pool)
        f = mutate_right(lat, e, _random_class(rng, pool, lat))
        if mutate_right(lat, e, mutate_left(lat, e, f)) != f:
            ok = False
        g = mutate_left(lat, e, _random_class(rng, pool, lat))
        if mutate_left(lat, e, mutate_right(lat, e, g)) != g:
            ok = False

    # unitriangularity is preserved by collection moves
    rng = random.Random(202)
    moves = 0
    for lat, start in ((LAT_P3, BEILINSON), (LAT_GR, GRASS6)):
        for _ in range(40):
            col = list(start)
            for _ in range(rng.randint(1, 3)):
                col = _move(lat, col, rng.randrange(len(col) - 1),
                            rng.choice(["left", "right"]))
                if not is_unitriangular(gram(lat, col)):
                    ok = False
                if not all(is_exceptional(lat, c) for c in col):
                    ok = False
                moves += 1
    assert moves >= 100

    # braid relation on adjacent slots of exceptional triples
    rng = random.Random(203)
    for _ in range(100):
        lat, base = rng.choice(((LAT_P3, BEILINSON), (LAT_GR, GRASS6)))
        col = list(base)
        for _ in range(rng.randint(0, 2)):
            col = _move(lat, col, rng.randrange(len(col) - 1),
                        rng.choice(["left", "right"]))
        k = rng.randrange(len(col) - 2)
        triple = col[k:k + 3]

        def s1(c):
            return _move(lat, c, 0, "left")

        def s2(c):
            return _move(lat, c, 1, "left")

        if s1(s2(s1(triple))) != s2(s1(s2(triple))):
            ok = False

    # mutation commutes with twisting by a line bundle
    rng = random.Random(204)
    for _ in range(100):
        lat = rng.choice([LAT_P3, LAT_GR])
        pool = EXC_P3 if lat is LAT_P3 else EXC_GR
        lb = (p3_line if lat is LAT_P3 else gr_line)(rng.randint(-2, 2))
        e = rng.choice(pool)
        f = _random_class(rng, pool, lat)
        if mutate_left(lat, e, f) * lb != mutate_left(lat, e * lb, f * lb):
            ok = False
        if mutate_right(lat, e, f) * lb != mutate_right(lat, e * lb,
                                                        f * lb):
            ok = False

    verdict(4, ok, "involutivity, unitriangularity preservation, braid, "
            "and twist commutation at 100+ rounds each", t0)


# 5 -------------------------------------------------------------------------

EXPECTED_IMPORTS = {
    "blown-p3-doubling": {"orlov_blowup_sod"},
    "gr-to-clifford": {"orlov_blowup_sod", "clifford_modules",
                       "clifford_pushforward_vanishing"},
    "enriques-split": {"orlov_blowup_sod", "clifford_modules",
                       "enriques_ten_orthogonal", "enriques_image_plane",
                       "quadric_net_sod"},
    "cover-blowup-reorder": {"orlov_blowup_sod"},
}

#: the recorded ``verify-all`` stdout
VERIFY_ALL = (
    Path(__file__).resolve().parents[1] / "bench" / "expected"
    / "verify_all.txt"
)


def test_criterion_5_scenario_replays(capsys):
    t0 = time.perf_counter()
    ok = True
    results = run_all()
    for res in results:
        if not res.passed:
            ok = False
        if res.axioms_used != EXPECTED_IMPORTS[res.name]:
            ok = False
        # evidence soundness: every certified line carries BBW or RULE,
        # with AXIOM appearing only through enumerated imports
        for ln in res.transcript:
            if "[CHI-ONLY]" in ln or "[UNCHECKED]" in ln:
                ok = False
        sc = load_scenario(res.name)
        if not res.axioms_used <= sc.allowed:
            ok = False
    code = cli_main(["verify-all"])
    table = capsys.readouterr().out
    # the verify-all table is the recorded one, byte for byte
    if code != 0 or table != VERIFY_ALL.read_text():
        ok = False
    with capsys.disabled():
        verdict(5, ok, f"{len(results)} replays exact class-by-class and "
                "verify-all prints the recorded table", t0, limit=60.0)


# 6 -------------------------------------------------------------------------

def test_criterion_6_split_certificate():
    t0 = time.perf_counter()
    rep = check_split_certificate()
    ok = (
        rep.passed
        and rep.certificate == [1, -1, 1, 1]
        and [found for _, found in rep.leave_one_out] == [False] * 4
    )
    verdict(6, ok, "relation membership certified; each of the 4 "
            "leave-one-out runs breaks it", t0)


# 7 -------------------------------------------------------------------------

def test_criterion_7_double_cover_checks():
    t0 = time.perf_counter()
    ok = True
    for base, pol, collection in (
        ("P3", "O(2h)", ["O(-h)", "O"]),
        ("blown_p3", "O(H)",
         ["O(-h)"] + [f"O(-e{i})" for i in range(1, 11)] + ["O"]),
    ):
        rep = double_cover_check(base, pol, collection, nodes=10)
        if not rep.passed:
            ok = False
        names = [name for name, passed, _ in rep.items if passed]
        # the doubling identity chi_cover(x, y) = chi(x, y) + chi(x, y(-H))
        # must be re-derived by an engine independent of the pairing
        if "cover pairing matches an independent Euler route" not in names:
            ok = False
    verdict(7, ok, "cover doubling certified on the three-space and the "
            "ten-node blowup, pairing identity on all pairs", t0)


# 8 -------------------------------------------------------------------------

def test_criterion_8_projection_shadow():
    t0 = time.perf_counter()
    rep = projection_shadow_report()
    ok = rep.passed and len(rep.rows) == 6
    values = ", ".join(str(lhs) for _, lhs, _, _ in rep.rows)
    verdict(8, ok, f"6 basis bundles, matching Euler numbers ({values})",
            t0)
