"""Tests for the labelled varieties, their Ext oracles, and the reports.

Anchor values are frozen from independent computations: weight staircases
for the homogeneous pieces, projection/peeling formulas for the blowups,
and hand-reduced Smith forms for the class-lattice memberships.
"""

import itertools
import random
from collections import Counter
from math import comb
from operator import delitem, setitem

import pytest

from sodcheck import varieties
from sodcheck.bbw import GR24, P3, GradedSpace, Indeterminate, irr, line
from sodcheck.kmut import gram
from sodcheck.replay import twist_class
from sodcheck.varieties import (
    AXIOMS,
    VARIETY_NAMES,
    _euler_sum,
    axiom_statement,
    check_split_certificate,
    double_cover_check,
    get_variety,
    ideal_twisted_cohomology,
    incidence_koszul,
    line_euler_by_peeling,
    projection_shadow_report,
    plane_cohomology,
    plane_koszul,
    surface_cohomology,
    surface_ideal_complex,
    surface_structure_complex,
)

M = get_variety("net_fourfold")
Y = get_variety("blown_p3", nodes=10)
X = get_variety("double_cover_blowup", nodes=10)


def gr_line(t):
    return line((GR24,), (t,))


def gr_sub(t=0):
    return irr((GR24,), [((t, t - 1), (0, 0))])


# ------------------------------------------------------------- registry

def test_registry_builds_every_listed_variety():
    dims = {
        "P3": 3, "Gr23": 2, "Gr24": 4, "Gr24xP3": 7,
        "net_fourfold": 4, "blown_p3": 3, "double_cover_blowup": 3,
    }
    for name in VARIETY_NAMES:
        v = get_variety(name, nodes=10)
        assert v.name == name
        assert v.dim == dims[name]


def test_registry_rejects_unknown_names():
    with pytest.raises(KeyError):
        get_variety("P4")


def test_axiom_registry():
    assert sorted(AXIOMS) == [
        "clifford_modules",
        "clifford_pushforward_vanishing",
        "enriques_image_plane",
        "enriques_ten_orthogonal",
        "orlov_blowup_sod",
        "quadric_net_sod",
    ]
    for name in AXIOMS:
        assert isinstance(axiom_statement(name), str)
        assert axiom_statement(name)
    with pytest.raises(KeyError):
        axiom_statement("unknown_axiom")


def test_graded_euler_sum_stays_an_integer_in_negative_degrees():
    euler = _euler_sum({-1: 45, 2: 3})
    assert type(euler) is int and euler == -42


# ----------------------------------------------------- resolution builders

def test_incidence_koszul_has_exterior_power_ranks():
    cx = incidence_koszul()
    assert cx.ranks() == {p: comb(6, p) for p in range(7)}


def test_surface_structure_complex_shape():
    cx = surface_structure_complex()
    assert {p: b.rank() for p, b in cx.slots.items()} == {0: 1, 1: 4, 2: 3}


def test_surface_ideal_complex_drops_trivial_slot():
    cx = surface_ideal_complex()
    assert {p: b.rank() for p, b in cx.slots.items()} == {0: 4, 1: 3}


def test_surface_invariants():
    h = surface_cohomology(gr_line(0))
    assert h.determinate and h.dims() == {0: 1}
    # degree of the polarized surface: chi of the restricted line bundle
    tw = surface_cohomology(gr_line(1))
    assert tw.determinate
    assert sum((-1) ** k * d for k, d in tw.dims().items()) == 6


@pytest.mark.parametrize("build", [
    incidence_koszul, surface_structure_complex, surface_ideal_complex,
    plane_koszul,
])
def test_constant_complexes_are_shared_and_immutable(build):
    cx = build()
    assert build() is cx
    with pytest.raises(AttributeError):
        cx.slots = {}
    with pytest.raises(AttributeError):
        cx.space = ()
    with pytest.raises(TypeError):
        cx.slots[9] = cx.slots[0]
    with pytest.raises(TypeError):
        del cx.slots[0]
    assert 9 not in build().slots and 0 in build().slots


def test_plane_restriction_values():
    assert plane_cohomology(gr_line(0)).dims() == {0: 1}
    assert plane_cohomology(gr_line(-1)).dims() == {}
    assert plane_cohomology(gr_line(-2)).dims() == {}
    assert plane_cohomology(gr_sub(-2)).dims() == {}


def test_half_twist_orthogonality_staircases():
    # no Ext from the ambient generators into the half-twisted ideal sheaf
    assert ideal_twisted_cohomology(gr_line(1)).dims() == {}
    assert ideal_twisted_cohomology(
        gr_sub().tensor(gr_line(1))
    ).dims() == {}


# ------------------------------------------------- net fourfold Ext oracle

FOURFOLD_DETERMINATE = [
    ("O(-h)", "O(-2g)", {}),
    ("O(-h)", "O(-g)", {1: 1}),
    ("O(-h)", "V/U(-g)", {}),
    ("Uv(g)", "O(-g+h)", {}),
    ("O(g)", "O(-g+h)", {}),
]


@pytest.mark.parametrize("src,dst,graded", FOURFOLD_DETERMINATE)
def test_fourfold_staircase_exts(src, dst, graded):
    ans = M.ext(src, dst)
    assert ans.tag == "BBW"
    assert ans.determinate and ans.graded == graded
    # the staircase Euler number must match the Riemann-Roch lattice
    # (the class lattice cannot name Uv, so skip the cross-check there)
    if "Uv" not in src and "Uv" not in dst:
        assert ans.chi == M.chi(src, dst)


def test_fourfold_clifford_halves():
    def written(label):
        return {M.format(k): c for k, c in M.kclass(label).coeffs.items()}

    assert written("Cliff_0(-g)") == {"O(-g)": 1, "O(-h)": 1}
    assert written("Cliff_1") == {"V/U": 1}
    assert written("Cliff_2(-g)") == {"O(-g+h)": 1, "O": 1}
    assert M.resolve_axioms("Cliff_2(-g)") == ("clifford_modules",)
    assert M.resolve_axioms("O(-h)") == ()


def test_fourfold_bundle_pair_chi_only_return():
    # the Koszul staircase of O(-2g-2h) -> O keeps terms in adjacent
    # degrees that a differential could cancel, so only the Euler number is
    # certified, and it matches Riemann-Roch
    ans = M.ext("O(-2g-2h)", "O")
    assert not ans.determinate and ans.graded is None
    assert ans.tag == "CHI-ONLY"
    assert ans.route == "staircase Euler characteristic"
    assert ans.chi == 160 == M.chi("O(-2g-2h)", "O")
    assert ans.table is not None and not ans.table.determinate
    assert ans.axioms == ()


def test_fourfold_axiom_tagged_vanishing():
    ans = M.ext("O(-h)", "Cliff_2(-g)")
    assert ans.is_zero and ans.chi == 0
    assert ans.tag == "AXIOM"
    assert ans.axioms == (
        "clifford_modules", "clifford_pushforward_vanishing",
    )


def test_fourfold_clifford_self_exts():
    for label, tag in [
        ("Cliff_0(-g)", "RULE"),
        ("Cliff_1(-g)", "BBW"),
        ("Cliff_-1(-g)", "BBW"),
        ("Cliff_2(-g)", "RULE"),
    ]:
        ans = M.ext(label, label)
        assert ans.graded == {0: 1}, label
        assert ans.tag == tag, label


def test_fourfold_plane_sheaf_answers():
    gone = M.ext("O(g-h)", "O_Pl1")
    assert gone.is_zero and gone.tag == "RULE"
    gone = M.ext("O(g)", "O_Pl1")
    assert gone.is_zero and gone.tag == "RULE"
    # the reverse-twist direction is certified only at the Euler level
    part = M.ext("O(-g+h)", "O_Pl1")
    assert not part.determinate
    assert part.tag == "CHI-ONLY"
    assert part.chi == 3 == M.chi("O(-g+h)", "O_Pl1")


def test_fourfold_label_algebra():
    assert M.canon("O(h-g)") == "O(-g+h)"
    assert M.serre_label("O(-h)") == "O(-g-2h)"
    assert M.twist_label("Cliff_0(-g)", "O(g)") == "Cliff_0"
    assert M.twist_label("O(-h)", "O(g)") == "O(g-h)"
    # the projective-space direction is trivial on a plane fiber
    assert M.twist_label("O_Pl2(-1)", "O(g+3h)") == "O_Pl2"
    assert M.serre_label("O_Pl2") == "O_Pl2(-1)"
    with pytest.raises(ValueError, match="line-bundle label"):
        M.twist_label("O", "V/U")


def test_homogeneous_serre_twist_is_the_canonical_bundle():
    # a Serre wrap is a twist by these two line bundles; on an ambient
    # lattice that is multiplication by their characters
    cases = [
        ("P3", 10, "O(-4h)", "O(4h)"), ("Gr23", 10, "O(-3g)", "O(3g)"),
        ("Gr24", 10, "O(-4g)", "O(4g)"),
        ("Gr24xP3", 10, "O(-4g-4h)", "O(4g+4h)"),
    ] + [("blown_p3", n, "O(-4h+2e)", "O(4h-2e)") for n in (1, 4, 10, 11)]
    for name, nodes, omega, inverse in cases:
        v = get_variety(name, nodes)
        assert v.serre == (omega, inverse)
        assert v.serre_label("O") == omega
        assert v.serre_label("O", inverse=True) == inverse
        assert v.kclass(omega) == v.ring.canonical_ch
        assert v.kclass(omega) * v.kclass(inverse) == v.ring.one()


@pytest.mark.parametrize("name", ["net_fourfold", "double_cover_blowup"])
def test_formal_serre_twists_are_mutually_inverse(name):
    # on a formal lattice a twist renames generators, as a replay does
    v = get_variety(name)

    def twist(cls, by):
        return v.lattice.combo({
            v.twist(g, v._line(by)): c for g, c in cls.coeffs.items()
        })

    pool = ["O", "O(-h)", "O(h)"] + (
        ["O(-g)", "V/U", "Cliff_1", "Cliff_2(-g)", "O_Pl1", "O_Pl3(1)"]
        if name == "net_fourfold" else
        ["O(-e1)", "O(H)", "O(h-e3)", "O_Q1", "O_Q2(1,0)"]
    )
    rng = random.Random(31)
    for _ in range(40):
        cls = v.lattice.zero()
        for _ in range(rng.randrange(1, 4)):
            cls = cls + v.kclass(rng.choice(pool)).scale(rng.randrange(-3, 4))
        there = twist(cls, v.serre[0])
        assert twist(there, v.serre[1]) == cls
        assert twist(twist(cls, v.serre[1]), v.serre[0]) == cls


def test_fourfold_serre_pairing_symmetry():
    labels = ["O(-h)", "O(-g)", "V/U(-g)", "O", "V/U", "O(g)", "O(-g+h)"]
    for a in labels:
        for b in labels:
            # chi(A, B) == chi(B, A x omega) on a fourfold
            assert M.chi(a, b) == M.chi(b, M.serre_label(a))


@pytest.mark.parametrize("written, canon", [
    ("S1U", "U"), ("S1Uv(g)", "Uv(g)"), ("S0U", "O"), ("S0Uv(-g)", "O(-g)"),
    ("S02U", "S2U"), ("S003Uv(2g)", "S3Uv(2g)"), ("S2U", "S2U"),
])
def test_symmetric_power_kinds_have_one_written_form(written, canon):
    gr = get_variety("Gr24")
    assert gr.canon(written) == canon
    assert M.canon(written) == canon
    assert gr.parse(written) == gr.parse(canon)


def fresh_plane_staircase(kind, g, c):
    """The staircase of Ext(bundle of ``kind`` twisted g, plane sheaf
    twisted c), built from scratch: the bundle with its own twist, dualised
    and tensored with the plane's line bundle."""
    return plane_cohomology(
        varieties._gr_bundle(kind, g).dual().tensor(
            varieties._gr_bundle("O", c)
        )
    )


def staircase_form(res):
    """What a staircase result reports, for comparing two routes."""
    if res.determinate:
        return True, dict(res.dims()), res.euler()
    return False, res.entries, res.collisions, res.euler()


@pytest.mark.parametrize("kind", ["O", "U", "Uv", "V/U", "V/Uv", "S2U"])
def test_plane_euler_matches_the_plane_restriction_route(kind):
    # the shared staircase reads only (kind, c - g); a fresh one restricts
    # the bundle with its own twist to the twisted plane, and the Ext route
    # to the plane answers from the shared one
    for s in range(-6, 7):
        for g, h in ((0, 0), (2, -1), (-3, 4)):
            shared = varieties._plane_staircase(kind, s)
            fresh = fresh_plane_staircase(kind, g, g + s)
            assert staircase_form(shared) == staircase_form(fresh), (
                kind, s, g
            )
            ans = M.ext(("bundle", kind, g, h), ("plane", 3, g + s))
            assert ans.chi == fresh.euler(), (kind, s, g)


def test_fourfold_pair_oracle_plane_branches_match_the_staircase():
    for kind in ("O", "V/U"):
        for g, h, c in ((0, 0, 0), (1, -2, 0), (-2, 1, 3), (0, 3, -4)):
            bundle = ("bundle", kind, g, h)
            plane = ("plane", 5, c)
            assert M._pair_oracle(bundle, plane) == fresh_plane_staircase(
                kind, g, c
            ).euler()
            assert M._pair_oracle(plane, bundle) == fresh_plane_staircase(
                kind, g, c - 1
            ).euler()


def test_shared_plane_staircases_reject_mutation():
    graded = varieties._plane_staircase("O", 0)
    table = varieties._plane_staircase("O", 1)
    assert isinstance(graded, GradedSpace) and dict(graded.dims()) == {0: 1}
    assert isinstance(table, Indeterminate)
    # the Ext route to a plane and the pair oracle read the same objects
    assert M.ext("O", "O_Pl2").graded == {0: 1}
    assert M.ext("O", "O_Pl2(1)").table is table
    assert M.chi("O", "O_Pl2(1)") == table.euler() == 3
    assert not hasattr(GradedSpace, "add")
    assert not hasattr(GradedSpace, "describe")
    for res in (graded, table):
        with pytest.raises(AttributeError):
            res.space = ()
    key = next(iter(graded.layers[0]))
    for poke in (
        lambda: setitem(graded.dims(), 0, 2),
        lambda: delitem(graded.dims(), 0),
        lambda: setitem(graded.layers, 1, {}),
        lambda: setitem(graded.layers[0], key, 5),
    ):
        with pytest.raises(TypeError):
            poke()
    assert type(table.entries) is tuple and type(table.collisions) is tuple
    assert all(type(cell) is tuple for cell in table.entries)
    # a graded space keeps its own copy of the layers it was built from
    layers = {0: {key: 1}}
    built = GradedSpace((GR24,), layers)
    layers[0][key] = 7
    layers[1] = {key: 1}
    assert dict(built.dims()) == {0: 1}


# ----------------------------------------------------- blown projective 3-space

def test_blowup_label_algebra():
    assert Y.canon("O(-H)") == "O(-2h+e)"
    assert Y.canon("O(-h-H)") == "O(-3h+e)"
    assert Y.canon("O(-H-e3)") == "O(-2h+e1+e2+e4+e5+e6+e7+e8+e9+e10)"
    assert Y.serre_label("O_E3(1)") == "O_E3(-1)"
    assert Y.serre_label("O(-h)") == "O(-5h+2e)"
    assert Y.parse("O(-2h+e)") == ("line", -2, (1,) * 10)


def test_blowup_exceptional_plane_exts():
    ans = Y.ext("O_E1(-1)", "O(-2h)")
    assert ans.graded == {1: 1} and ans.tag == "RULE"
    assert ans.chi == -1 == Y.chi("O_E1(-1)", "O(-2h)")
    ans = Y.ext("O_E1(-1)", "O(-h)")
    assert ans.graded == {1: 1}
    assert Y.ext("O", "O_E1").graded == {0: 1}
    assert Y.ext("O(-2h+e)", "O_E1(-1)").graded == {0: 1}


def test_blowup_self_exts_by_route():
    for label, route in [
        ("O(-h)", "blowdown projection formula"),
        ("O(-e1)", "blowdown projection formula"),
        ("O_E3", "exceptional-plane self-extensions"),
        ("O_E2(1)", "exceptional-plane self-extensions"),
    ]:
        ans = Y.ext(label, label)
        assert ans.graded == {0: 1}, label
        assert ans.tag == "RULE" and ans.route == route


def test_blowup_final_collection_is_numerically_exceptional():
    labels = (
        ["O(-h-H)"] + [f"O(-H-e{i})" for i in range(1, 11)]
        + ["O(-H)", "O(-h)"] + [f"O(-e{i})" for i in range(1, 11)] + ["O"]
    )
    parity = [0] + [1] * 10 + [0, 0] + [1] * 10 + [0]
    cls = [Y.kclass(l).scale(-1 if p else 1) for l, p in zip(labels, parity)]
    assert len(cls) == 24
    for i in range(24):
        for j in range(24):
            val = Y.lattice.pair(cls[i], cls[j])
            if i == j:
                assert val == 1, (i, labels[i])
            elif i > j:
                assert val == 0, (i, j, labels[i], labels[j])


# --------------------------------------------------- line Euler by peeling

def _line_label(dh, de):
    parts = [f"{dh}h"] if dh else []
    for i, a in enumerate(de, start=1):
        if a:
            parts.append(f"{a:+d}e{i}")
    if not parts:
        return "O"
    text = "".join(parts)
    return f"O({text.lstrip('+')})"


def test_peeling_anchors():
    assert line_euler_by_peeling(0, [0] * 10) == 1
    assert line_euler_by_peeling(-2, [1] * 10) == 0
    assert line_euler_by_peeling(3, [-1] * 10) == 10


def test_peeling_matches_lattice_chi():
    rng = random.Random(2024)
    base = get_variety("blown_p3", nodes=4)
    for _ in range(60):
        dh = rng.randint(-4, 4)
        de = [rng.randint(-2, 2) for _ in range(4)]
        label = _line_label(dh, de)
        assert line_euler_by_peeling(dh, de) == base.chi("O", label), (
            label
        )


# ------------------------------------------------ line-cohomology kernels

def projective_line(n, t):
    """Closed form: H^*(P^n, O(t)) by the binomial dimension counts."""
    if t >= 0:
        return {0: comb(t + n, n)}
    if t <= -n - 1:
        return {n: comb(-t - 1, n)}
    return {}


def quadric_line(a, b):
    """Closed form on P1 x P1: the Kuenneth product of two P1 answers."""
    out = {}
    for i, di in projective_line(1, a).items():
        for j, dj in projective_line(1, b).items():
            out[i + j] = out.get(i + j, 0) + di * dj
    return out


@pytest.mark.parametrize("space, closed_form", [
    ((P3,), lambda t: projective_line(3, t)),
    ((varieties.P2,), lambda t: projective_line(2, t)),
    ((varieties.P1, varieties.P1), quadric_line),
], ids=["P3", "P2", "P1xP1"])
def test_line_cohomology_kernels_are_read_only_memos(space, closed_form):
    kernel = varieties._line_cohomology
    rng = random.Random(2303)
    for _ in range(40):
        args = tuple(rng.randint(-7, 7) for _ in range(len(space)))
        fresh = kernel.__wrapped__(space, args)
        first = kernel(space, args)
        hits = kernel.cache_info().hits
        assert kernel(space, args) is first
        assert kernel.cache_info().hits == hits + 1
        assert dict(first) == dict(fresh) == closed_form(*args)
        # every route shares the cached map, so no caller may change it
        with pytest.raises(TypeError):
            first[9] = 1
        with pytest.raises(TypeError):
            del first[next(iter(first), 0)]
        assert dict(kernel(space, args)) == closed_form(*args)


def shifted(graded):
    """A graded answer moved up one degree."""
    return {t + 1: d for t, d in graded.items()}


def test_plane_restriction_routes_match_the_closed_form():
    # the Serre and twist relations of tests/test_ext_consistency.py run
    # both of their sides through these routes, so a shift of any route's
    # degrees shows only against the surface's own cohomology
    rest = (0,) * (Y.nodes - 1)
    for h, beta in itertools.product((0, 2), range(-3, 4)):
        # h restricts trivially to every surface over a node
        lb = ("line", h, (beta,) + rest)
        for c in range(-5, 4):
            # Ext(O(beta e1), O_E1(c)) = H^*(P2, O(c + beta))
            ans = Y.ext(lb, ("eplane", 1, c))
            assert ans.graded == projective_line(2, c + beta), (h, beta, c)
            # Ext^t(O_E1(c), O(beta e1)) is dual to
            # H^(3-t)(P2, O(c + beta - 2)); Serre duality on the plane,
            # canonical bundle O(-3), makes it H^(t-1)(P2, O(-c - beta - 1))
            ans = Y.ext(("eplane", 1, c), lb)
            assert ans.graded == shifted(
                projective_line(2, -c - beta - 1)
            ), (h, beta, c)
        for c, d in itertools.product(range(-3, 3), repeat=2):
            # Ext(O(beta e1), O_Q1(c,d)) = H^*(P1 x P1, O(c + beta, d + beta))
            ans = X.ext(lb, ("quad", 1, c, d))
            assert ans.graded == quadric_line(c + beta, d + beta), (
                h, beta, c, d
            )
            # Ext^t(O_Q1(c,d), O(beta e1)) is dual to
            # H^(3-t)(P1 x P1, O(c + beta - 1, d + beta - 1)); Serre duality
            # on the quadric, canonical bundle O(-2,-2), makes it
            # H^(t-1)(P1 x P1, O(-c - beta - 1, -d - beta - 1))
            ans = X.ext(("quad", 1, c, d), lb)
            assert ans.graded == shifted(
                quadric_line(-c - beta - 1, -d - beta - 1)
            ), (h, beta, c, d)
    tally, shapes = Counter(), set()
    for a in range(-3, 4):
        for c in range(-5, 4):
            # Ext(O(ag), O_Pl2(c)) = H^*(P2, O(c - a)), where determinate
            ans = M.ext(("bundle", "O", a, 0), ("plane", 2, c))
            tally[ans.determinate] += 1
            if ans.determinate:
                assert ans.graded == projective_line(2, c - a), (a, c)
                shapes.add(tuple(ans.graded))
    assert tally == {True: 27, False: 36}
    assert shapes == {(), (0,), (2,)}  # the top degree is reached


def test_grassmannian_bundles_are_shared_and_immutable():
    b = varieties._gr_bundle("S2U", -1)
    assert varieties._gr_bundle("S2U", -1) is b
    assert repr(b) == repr(varieties._gr_bundle.__wrapped__("S2U", -1))
    with pytest.raises(AttributeError):
        b.terms = ()
    with pytest.raises(AttributeError):
        b.terms[0].mult = 2


# --------------------------------------------------------- cover blowup

def test_cover_blowup_relations_identify_quadric_classes():
    lat = X.lattice
    for i in range(1, 11):
        diff = X.kclass(f"O_Q{i}") - X.kclass("O")
        assert lat.eq(diff, X.kclass(f"O(-e{i})").scale(-1))
    # without the exceptional line the difference is NOT in the span
    assert not lat.eq(X.kclass("O_Q2") - X.kclass("O"), lat.zero())


def test_cover_relations_pair_to_zero_on_both_sides():
    # each relation O - O(-e_i) - O_Q_i names the zero class, so the
    # pairing is well defined only if it pairs to zero with every class,
    # from either side
    pool = [
        "O", "O(h)", "O(-h)", "O(H)", "O(-H)", "O(-e1)", "O(e2)", "O(-h+e3)",
        "O_Q1", "O_Q1(-1,0)", "O_Q3(2,-1)", "O_Q2(1,0)", "O_Q5(0,-2)",
        "O_Q10", "O_Q10(1,1)", "O_Q7(-1,-1)", "O_Q4(0,1)",
    ]
    classes = [X.kclass(label) for label in pool]
    for i in range(1, X.nodes + 1):
        rel = X.kclass("O") - X.kclass(f"O(-e{i})") - X.kclass(f"O_Q{i}")
        assert X.lattice.eq(rel, X.lattice.zero())
        for label, cls in zip(pool, classes):
            assert X.lattice.pair(rel, cls) == 0, (i, label)
            assert X.lattice.pair(cls, rel) == 0, (i, label)


def test_formal_lattices_pair_compare_and_twist_without_label_text(
        monkeypatch):
    # fresh varieties, so no pairing is cached yet: classes are named by
    # text first, and from then on no label may be parsed or written
    fourfold, cover = varieties.NetFourfold(), varieties.CoverBlowup(10)
    cases = []
    for v, labels in (
        (fourfold, ["O", "O(-h)", "V/U", "Cliff_1", "Cliff_2(-g)",
                    "O_Pl1(-1)", "O_Pl3"]),
        (cover, ["O", "O(-e1)", "O(H)", "O(h-e3)", "O_Q1", "O_Q2(1,0)"]),
    ):
        ref = get_variety(v.name)
        expected = gram(ref.lattice, [ref.kclass(lbl) for lbl in labels])
        classes = [v.kclass(lbl) for lbl in labels]
        mix = classes[0].scale(2) - classes[-1] + classes[2].scale(-3)
        serre = [v._line(lbl) for lbl in v.serre]
        cases.append((v, classes + [mix], serre, expected))
    related = [
        (cover.kclass(f"O_Q{i}") - cover.kclass("O"),
         cover.kclass(f"O(-e{i})").scale(-1))
        for i in range(1, 11)
    ]
    unrelated = cover.kclass("O_Q2") - cover.kclass("O")

    def forbidden(*args):
        raise AssertionError("label text on a lattice path")

    for v in (fourfold, cover, cover.base):
        for name in ("parse", "format", "ext"):
            monkeypatch.setattr(v, name, forbidden)

    for v, classes, (omega, inverse), expected in cases:
        assert gram(v.lattice, classes[:-1]) == expected
        for cls in classes:
            there = twist_class(v, cls, omega)
            assert there != cls
            assert twist_class(v, there, inverse) == cls
            assert twist_class(v, twist_class(v, cls, inverse), omega) == cls
    for diff, line_class in related:
        assert cover.lattice.eq(diff, line_class)
    assert not cover.lattice.eq(unrelated, cover.lattice.zero())


def test_cover_blowup_ext_anchors():
    assert X.ext("O_Q1", "O_Q2(-1,0)").is_zero
    assert X.ext("O_Q1", "O_Q1(-1,0)").is_zero
    assert X.ext("O", "O_Q1").graded == {0: 1}
    assert X.ext("O_Q1(-1,0)", "O_Q1").graded == {0: 2}
    ans = X.ext("O(-e1)", "O(-e1)")
    assert ans.graded == {0: 1}
    assert ans.route == "cover doubling + exceptional-layer peeling"


def test_cover_blowup_serre_label():
    assert X.serre_label("O(-h)") == "O(-3h+e)"


# ------------------------------------------------------------ the reports

def test_split_certificate_report():
    rep = check_split_certificate()
    assert rep.passed
    assert rep.certificate == [1, -1, 1, 1]
    assert rep.leave_one_out == [(0, False), (1, False), (2, False),
                                 (3, False)]
    assert all(ok for _, ok, _ in rep.side_conditions)
    assert "PASS" in rep.describe()


#: the split-certificate report, as written before graded answers became
#: read-only mappings; the side-condition details print as plain dicts
SPLIT_CERTIFICATE_TEXT = """\
certificate PASS: coefficients [1, -1, 1, 1]
without relation 1: fails as required
without relation 2: fails as required
without relation 3: fails as required
without relation 4: fails as required
PASS plane structure cohomology is one-dimensional: {0: 1}
PASS plane cohomology of O(-2) vanishes: {}
PASS plane cohomology of U(-2) vanishes: {}
PASS no Ext from O(g) to the half-twist: {}
PASS no Ext from Uv(g) to the half-twist: {}"""


def test_split_certificate_text_is_pinned():
    rep = check_split_certificate()
    assert rep.describe() == SPLIT_CERTIFICATE_TEXT
    assert [d for _, _, d in rep.side_conditions] == [
        "{0: 1}", "{}", "{}", "{}", "{}"
    ]


def test_double_cover_check_on_p3():
    rep = double_cover_check("P3", "O(2h)", ["O(-h)", "O"])
    assert rep.passed
    assert len(rep.items) == 5
    names = [name for name, _, _ in rep.items]
    assert "cover pairing matches an independent Euler route" in names


def test_double_cover_check_on_blowup():
    collection = ["O(-h)"] + [f"O(-e{i})" for i in range(1, 5)] + ["O"]
    rep = double_cover_check("blown_p3", "O(H)", collection, nodes=4)
    assert rep.passed
    assert len(rep.items) == 5
    detail = dict((n, d) for n, _, d in rep.items)
    assert "peeling" in detail["cover pairing matches an independent "
                              "Euler route"]


def test_double_cover_check_detects_wrong_polarization():
    rep = double_cover_check("P3", "O(h)", ["O(-h)", "O"])
    assert not rep.passed
    assert not rep.items[0][1]  # canonical-class item must fail


_COVER_NAMES = (
    "canonical class is minus twice the polarization",
    "doubled collection is numerically exceptional on the base",
    "cover pairing is unitriangular on the collection",
    "cover pairing satisfies cover Serre duality",
    "cover pairing matches an independent Euler route",
)
_SERRE_DETAIL = "chi(A,B) = (-1)^3 chi(B, A x inverse polarization)"


def _cover_items(oks, pol, doubled, detail, objects, route):
    """The five (name, ok, detail) items of a double-cover report."""
    details = (
        f"H = {pol}", f"{doubled} classes, {detail}", f"{objects} objects",
        _SERRE_DETAIL, f"doubling identity re-derived by {route} on all pairs",
    )
    return list(zip(_COVER_NAMES, oks, details))


def _blowup_collection(nodes):
    return ["O(-h)"] + [f"O(-e{i})" for i in range(1, nodes + 1)] + ["O"]


def test_double_cover_items_on_p3():
    rep = double_cover_check("P3", "O(2h)", ["O(-h)", "O"])
    assert rep.items == _cover_items(
        (True,) * 5, "O(2h)", 4, "graded", 2, "weight staircase"
    )


@pytest.mark.parametrize("nodes", [1, 4, 10, 11])
def test_double_cover_items_on_blowup(nodes):
    collection = _blowup_collection(nodes)
    rep = double_cover_check("blown_p3", "O(H)", collection, nodes=nodes)
    assert rep.items == _cover_items(
        (True,) * 5, "O(H)", 2 * (nodes + 2), "chi-level", nodes + 2,
        "exceptional-layer peeling",
    )


def test_cover_memo_leaves_the_independent_route_checked(monkeypatch):
    # the pairings kept for the later items must not stand in for the
    # independent route: a peeling off by one at the single P3 twist 1,
    # which only some pairs reach, fails item 5 alone
    real = varieties._p3_euler
    monkeypatch.setattr(varieties, "_p3_euler",
                        lambda t: real(t) + (t == 1))
    rep = double_cover_check("blown_p3", "O(H)", _blowup_collection(10),
                             nodes=10)
    assert rep.items == _cover_items(
        (True, True, True, True, False), "O(H)", 24, "chi-level", 12,
        "exceptional-layer peeling",
    )


def test_double_cover_wrong_polarization_on_blowup():
    rep = double_cover_check("blown_p3", "O(h)", _blowup_collection(4),
                             nodes=4)
    assert rep.items == _cover_items(
        (False, False, False, False, True), "O(h)", 12, "chi-level", 6,
        "exceptional-layer peeling",
    )


def test_double_cover_reversed_collection():
    rep = double_cover_check("P3", "O(2h)", ["O", "O(-h)"])
    assert rep.items == _cover_items(
        (True, False, False, True, True), "O(2h)", 4, "graded", 2,
        "weight staircase",
    )
    rep = double_cover_check("blown_p3", "O(H)", ["O", "O(-h)"], nodes=4)
    assert [ok for _, ok, _ in rep.items] == [True, False, False, True, True]


def test_double_cover_rejects_a_plane_polarization():
    with pytest.raises(ValueError, match="can only twist by a line-bundle"):
        double_cover_check("blown_p3", "O_E1", _blowup_collection(4),
                           nodes=4)


@pytest.mark.parametrize("collection", [["O_E1", "O"], ["O(-h)", "O_E1"]])
def test_double_cover_rejects_a_plane_member(collection):
    with pytest.raises(ValueError, match="expected a line-bundle label"):
        double_cover_check("blown_p3", "O(H)", collection, nodes=4)


def test_double_cover_rejects_unparsable_labels():
    with pytest.raises(ValueError, match="P3 cannot parse label 'O_E1'"):
        double_cover_check("P3", "O(2h)", ["O_E1"])
    with pytest.raises(ValueError, match="only carries line-bundle labels"):
        double_cover_check("P3", "S2U", ["O"])


def test_projection_shadow_report():
    rep = projection_shadow_report()
    assert rep.passed
    assert [(label, lhs, rhs) for label, lhs, rhs, _ in rep.rows] == [
        ("O", 4, 4),
        ("Uv", 16, 16),
        ("O(g)", 24, 24),
        ("S2Uv", 39, 39),
        ("Uv(g)", 76, 76),
        ("O(2g)", 70, 70),
    ]
