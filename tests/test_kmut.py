"""Smith normal form, relation membership, lattices, and mutations."""

import math
import random
from fractions import Fraction as F

import pytest

from sodcheck import kmut
from sodcheck.bbw import GR24, P3, irr, line
from sodcheck.chow import ChowClass, ch_bundle, ring_gr24, ring_p3
from sodcheck.kmut import (
    AmbientLattice,
    FormalLattice,
    gram,
    is_exceptional,
    is_unitriangular,
    mutate_left,
    mutate_right,
    relation_membership,
    smith_normal_form,
)


# --------------------------------------------------------------------------
# Smith normal form

def mat_mul(a, b):
    return [
        [sum(row[k] * b[k][j] for k in range(len(b)))
         for j in range(len(b[0]))]
        for row in a
    ]


def mat_det(a) -> int:
    """Integer determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(a)
    m = [list(map(int, row)) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def test_mat_det_hand_examples():
    assert mat_det([[2, 1], [7, 4]]) == 1
    assert mat_det([[0, 1], [1, 0]]) == -1
    assert mat_det([[1, 2], [2, 4]]) == 0
    assert mat_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert mat_det([[0, 2, 1], [1, 0, 0], [0, 1, 1]]) == -1


def _check_snf(a):
    diag, u, v = smith_normal_form(a)
    m, n = len(a), len(a[0])
    d = mat_mul(mat_mul(u, a), v)
    for i in range(m):
        for j in range(n):
            expect = diag[i] if i == j and i < len(diag) else 0
            assert d[i][j] == expect
    for i in range(len(diag) - 1):
        if diag[i + 1]:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        assert diag[i] >= 0
    assert abs(mat_det(u)) == 1
    assert abs(mat_det(v)) == 1
    return diag


def test_snf_hand_examples():
    diag, _, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    assert diag == [2, 6, 12]
    # invariant factors via gcds of minors: gcd of entries 2, gcd of 2x2
    # minors 4, |det| = 624 -> 2, 2, 156
    diag, _, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert diag == [2, 2, 156]
    diag, _, _ = smith_normal_form([[1, 0], [0, 1]])
    assert diag == [1, 1]
    diag, _, _ = smith_normal_form([[0, 0], [0, 0]])
    assert diag == [0, 0]
    diag, _, _ = smith_normal_form([[6, 10, 15]])
    assert diag == [1]


def test_snf_random():
    rng = random.Random(41)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        _check_snf(a)


def test_snf_rank_deficient():
    a = [[2, 4], [4, 8], [6, 12]]
    diag = _check_snf(a)
    assert diag == [2, 0]


def test_memoised_factorisation_matches_a_fresh_run():
    rng = random.Random(43)
    for _ in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        key = tuple(map(tuple, a))
        fresh = kmut._smith_factor.__wrapped__(key)
        first = _check_snf(a)
        hits = kmut._smith_factor.cache_info().hits
        diag, u, v = smith_normal_form(a)
        assert kmut._smith_factor.cache_info().hits == hits + 1
        assert diag == first == list(fresh[0])
        assert u == [list(r) for r in fresh[1]]
        assert v == [list(r) for r in fresh[2]]


def test_smith_results_are_fresh_lists():
    a = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    diag, u, v = smith_normal_form(a)
    expect = ([list(diag)], [list(r) for r in u], [list(r) for r in v])
    diag.append(99)
    u[0][0] += 5
    v[1] = [0, 0, 0]
    again = smith_normal_form(a)
    assert ([again[0]], again[1], again[2]) == expect
    assert again[0] == [2, 6, 12]


def test_corrupted_factorisation_fails_the_certificate_check(monkeypatch):
    # unimodular relations: every invariant factor is 1, so no divisibility
    # test can reject the target, and only the certificate check is left
    rels = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    target = [1, 2, 1]
    assert relation_membership(rels, target) == (True, [1, 1, 0])
    real = kmut._smith_factor

    def corrupted(matrix):
        diag, u, v = real(matrix)
        bad = [list(r) for r in v]
        bad[0][0] += 1
        return diag, u, tuple(map(tuple, bad))

    monkeypatch.setattr(kmut, "_smith_factor", corrupted)
    assert relation_membership(rels, target) == (False, None)


def test_membership_basic():
    rels = [[2, 0, 0], [0, 3, 0]]
    ok, cert = relation_membership(rels, [4, -3, 0])
    assert ok and cert == [2, -1]
    ok, cert = relation_membership(rels, [1, 0, 0])
    assert not ok and cert is None  # 1 is not a multiple of 2
    ok, cert = relation_membership(rels, [0, 0, 1])
    assert not ok  # outside the span entirely
    ok, cert = relation_membership(rels, [0, 0, 0])
    assert ok and cert == [0, 0]
    ok, cert = relation_membership([], [0, 0])
    assert ok and cert == []
    ok, cert = relation_membership([], [1, 0])
    assert not ok


def test_membership_random_positive_and_negative():
    rng = random.Random(42)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(m, 6)
        rels = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        y = [rng.randint(-4, 4) for _ in range(m)]
        target = [sum(y[i] * rels[i][j] for i in range(m)) for j in range(n)]
        ok, cert = relation_membership(rels, target)
        assert ok
        recon = [sum(cert[i] * rels[i][j] for i in range(m)) for j in range(n)]
        assert recon == target
        # every row of the doubled system lies in 2Z^n, so a target with one
        # odd coordinate cannot be an integer combination
        doubled = [[2 * x for x in row] for row in rels]
        bad = [2 * t for t in target]
        bad[rng.randrange(n)] += 1
        ok2, _ = relation_membership(doubled, bad)
        assert not ok2


# --------------------------------------------------------------------------
# shared fixtures: ambient lattices and class pools

RING_P3 = ring_p3()
RING_GR = ring_gr24()
LAT_P3 = AmbientLattice(RING_P3)
LAT_GR = AmbientLattice(RING_GR)


def p3_line(t):
    return ch_bundle(RING_P3, line((P3,), (t,)))


def gr_line(t):
    return ch_bundle(RING_GR, line((GR24,), (t,)))


def gr_ch(sub, quot=(0, 0), mult=1):
    return ch_bundle(RING_GR, irr((GR24,), [(tuple(sub), tuple(quot))], mult))


# quotient bundle V/U and S^2(dual tautological) on the Grassmannian factor
GR_QUOT = gr_ch((0, 0), (0, -1))
GR_S2UV = gr_ch((2, 0))

# pools of exceptional classes used to drive the property loops
EXC_P3 = [p3_line(t) for t in range(-3, 4)]
EXC_GR = (
    [gr_line(t) for t in range(-3, 4)]
    + [gr_ch((1, 0)) * gr_line(t) for t in range(-2, 3)]  # dual tautological
    + [GR_QUOT * gr_line(t) for t in range(-2, 3)]
    + [GR_S2UV * gr_line(t) for t in range(-1, 2)]
)


def random_class(rng, lat):
    basis = EXC_P3 if lat is LAT_P3 else EXC_GR
    picks = rng.sample(range(len(basis)), rng.randint(1, 3))
    out = lat.zero()
    for i in picks:
        out = out + basis[i].scale(rng.randint(-3, 3))
    return out


def test_exceptional_pools_really_are():
    for c in EXC_P3:
        assert is_exceptional(LAT_P3, c)
    for c in EXC_GR:
        assert is_exceptional(LAT_GR, c)


# --------------------------------------------------------------------------
# mutation formulas and single anchors

def test_mutation_formula_anchor():
    o, o1 = p3_line(0), p3_line(1)
    # chi(O, O(1)) = 4 on the three-space
    left = mutate_left(LAT_P3, o, o1)
    assert left == o1 - o.scale(4)
    right = mutate_right(LAT_P3, o1, o)
    assert right == o - o1.scale(4)


def _lowest_terms(v):
    return v.den > 0 and all(v.nums.values()) and math.gcd(
        v.den, *v.nums.values()) == 1


def test_fused_mutation_step_matches_scale_then_subtract():
    # f.minus(e, k) builds F - k E as one vector; it must be the class
    # f - e.scale(k) builds in two, in lowest terms, on both lattices
    rng = random.Random(2602)
    ks = [0, 1, -1, 2, -3, 4, 12, -60]
    checked = 0
    for lat in (LAT_P3, LAT_GR):
        ring = lat.ring
        for _ in range(20):
            e, f = (
                ChowClass(ring, [
                    F(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 12]))
                    if rng.random() < 0.7 else 0
                    for _ in ring.basis
                ])
                for _ in range(2)
            )
            for k in ks + [f.den, -e.den]:
                got = f.minus(e, k)
                assert got == f - e.scale(k) and _lowest_terms(got)
                checked += 1
        for _ in range(20):
            e, f = rng.choice(EXC_P3 if lat is LAT_P3 else EXC_GR), \
                random_class(rng, lat)
            assert mutate_left(lat, e, f) == f - e.scale(lat.pair(e, f))
            assert mutate_right(lat, e, f) == f - e.scale(lat.pair(f, e))
    lat = FormalLattice("demo", lambda a, b: (len(a) * len(b)) % 5 - 2)
    gens = ["a", "bb", "ccc", "dddd"]
    for _ in range(40):
        e, f = (
            lat.combo({g: rng.randint(-4, 4) for g in rng.sample(gens, 2)})
            for _ in range(2)
        )
        for k in ks:
            got = f.minus(e, k)
            assert got == f - e.scale(k) and _lowest_terms(got)
            assert got.den == 1 and type(got) is type(f)
            checked += 1
        assert mutate_left(lat, e, f) == f - e.scale(lat.pair(e, f))
        assert mutate_right(lat, e, f) == f - e.scale(lat.pair(f, e))
    assert f.minus(f, 1).is_zero()
    with pytest.raises(ValueError):
        f.minus(EXC_P3[0], 1)
    assert checked == 2 * 20 * 10 + 40 * 8


def test_exceptional_detection():
    assert is_exceptional(LAT_GR, gr_line(0))
    assert is_exceptional(LAT_GR, gr_line(-3))
    assert not is_exceptional(LAT_GR, gr_line(0).scale(2))
    assert not is_exceptional(LAT_GR, gr_line(0) + gr_line(1))


def test_gram_twists_of_projective_space():
    classes = [p3_line(t) for t in range(4)]
    g = gram(LAT_P3, classes)
    assert g == [
        [1, 4, 10, 20],
        [0, 1, 4, 10],
        [0, 0, 1, 4],
        [0, 0, 0, 1],
    ]
    assert is_unitriangular(g)
    assert not is_unitriangular([[1, 0], [1, 1]])
    assert not is_unitriangular([[2]])


def test_mutations_land_in_numerical_orthogonals():
    rng = random.Random(11)
    for _ in range(60):
        lat = rng.choice([LAT_P3, LAT_GR])
        pool = EXC_P3 if lat is LAT_P3 else EXC_GR
        e = rng.choice(pool)
        f = random_class(rng, lat)
        assert lat.pair(e, mutate_left(lat, e, f)) == 0
        assert lat.pair(mutate_right(lat, e, f), e) == 0


def test_involutivity_on_projected_domains():
    rng = random.Random(12)
    for _ in range(120):
        lat = rng.choice([LAT_P3, LAT_GR])
        pool = EXC_P3 if lat is LAT_P3 else EXC_GR
        e = rng.choice(pool)
        f = random_class(rng, lat)
        # R_E projects into the left orthogonal of E, where L_E inverts it
        f_left_orth = mutate_right(lat, e, f)
        assert lat.pair(f_left_orth, e) == 0
        assert mutate_right(lat, e, mutate_left(lat, e, f_left_orth)) == f_left_orth
        # L_E projects into the right orthogonal of E, where R_E inverts it
        f_right_orth = mutate_left(lat, e, f)
        assert lat.pair(e, f_right_orth) == 0
        assert mutate_left(lat, e, mutate_right(lat, e, f_right_orth)) == f_right_orth


def _collection_move(lat, col, i, direction):
    """Mutate the adjacent pair (col[i], col[i+1]) inside the collection."""
    col = list(col)
    a, b = col[i], col[i + 1]
    if direction == "left":
        col[i], col[i + 1] = mutate_left(lat, a, b), a
    else:
        col[i], col[i + 1] = b, mutate_right(lat, b, a)
    return col


BEILINSON = [p3_line(t) for t in range(4)]
GRASS6 = [
    gr_line(-2),
    gr_line(-1),
    GR_QUOT * gr_line(-1),
    gr_line(0),
    GR_QUOT,
    gr_line(1),
]


def _sample_collection(rng):
    """A numerically exceptional collection: a seed collection scrambled by
    a few mutation moves (which preserve exceptionality)."""
    lat, base = rng.choice(((LAT_P3, BEILINSON), (LAT_GR, GRASS6)))
    col = list(base)
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(col) - 1)
        col = _collection_move(lat, col, i, rng.choice(["left", "right"]))
    return lat, col


def test_gram_stays_unitriangular_under_collection_moves():
    assert is_unitriangular(gram(LAT_P3, BEILINSON))
    assert is_unitriangular(gram(LAT_GR, GRASS6))
    rng = random.Random(13)
    checked = 0
    # many short independent walks: mutation coefficients grow fast, so one
    # long walk would drown in enormous integers without testing more
    for lat, start in ((LAT_P3, BEILINSON), (LAT_GR, GRASS6)):
        for _ in range(60):
            col = list(start)
            for _ in range(rng.randint(1, 4)):
                i = rng.randrange(len(col) - 1)
                direction = rng.choice(["left", "right"])
                col = _collection_move(lat, col, i, direction)
                assert is_unitriangular(gram(lat, col))
                checked += 1
            for c in col:
                assert is_exceptional(lat, c)
    assert checked >= 100


def test_collection_moves_invert_each_other():
    # inside an exceptional collection (chi(later, earlier) = 0) the left
    # and right moves at a slot are mutually inverse
    rng = random.Random(14)
    for _ in range(110):
        lat, col = _sample_collection(rng)
        i = rng.randrange(len(col) - 1)
        assert _collection_move(lat, _collection_move(lat, col, i, "left"),
                                i, "right") == col
        assert _collection_move(lat, _collection_move(lat, col, i, "right"),
                                i, "left") == col


def test_braid_relation_on_triples():
    # adjacent moves braid: s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1} on
    # exceptional triples (the identity genuinely needs chi(C_j, C_i) = 0
    # for i < j; it fails on random non-collections)
    rng = random.Random(15)
    for _ in range(110):
        lat, col = _sample_collection(rng)
        k = rng.randrange(len(col) - 2)
        triple = col[k:k + 3]

        def s1(c):
            return _collection_move(lat, c, 0, "left")

        def s2(c):
            return _collection_move(lat, c, 1, "left")

        assert s1(s2(s1(triple))) == s2(s1(s2(triple)))


def test_twist_commutes_with_mutation():
    rng = random.Random(16)
    for _ in range(110):
        lat = rng.choice([LAT_P3, LAT_GR])
        pool = EXC_P3 if lat is LAT_P3 else EXC_GR
        if lat is LAT_P3:
            lb = p3_line(rng.randint(-2, 2))
        else:
            lb = gr_line(rng.randint(-2, 2))
        e = rng.choice(pool)
        f = random_class(rng, lat)
        # T_L R_E = R_{E o L} T_L and likewise on the left
        assert mutate_right(lat, e, f) * lb == mutate_right(lat, e * lb, f * lb)
        assert mutate_left(lat, e, f) * lb == mutate_left(lat, e * lb, f * lb)


# --------------------------------------------------------------------------
# formal lattices

def _orthonormal_oracle(a, b):
    return 1 if a == b else 0


def test_formal_orthonormal_family():
    lat = FormalLattice("ten-planes", _orthonormal_oracle)
    classes = [lat.cls(f"P{i}") for i in range(10)]
    g = gram(lat, classes)
    assert g == [[1 if i == j else 0 for j in range(10)] for i in range(10)]
    assert is_unitriangular(g)
    for c in classes:
        assert is_exceptional(lat, c)
    # mutation between orthogonal classes is a no-op on classes
    assert mutate_left(lat, classes[0], classes[1]) == classes[1]


def test_formal_arithmetic_and_repr():
    lat = FormalLattice("demo", _orthonormal_oracle)
    a, b = lat.cls("a"), lat.cls("b")
    c = a + b.scale(2) - a
    assert c == b.scale(2)
    assert (a - a).is_zero()
    assert repr(a + b.scale(-1)) == "[a] - [b]"
    assert lat.pair(a + b, a + b) == 2


def test_formal_unknown_pair_raises():
    def oracle(a, b):
        return None if "x" in (a, b) else 1

    lat = FormalLattice("partial", oracle)
    with pytest.raises(LookupError):
        lat.pair(lat.cls("x"), lat.cls("y"))
    assert lat.pair(lat.cls("y"), lat.cls("y")) == 1


def test_formal_relations_equality():
    # D - (D - e) - Q = 0: the structure sheaf of a divisor as a difference
    rels = [{"O": 1, "O(-e)": -1, "Q": -1}]
    lat = FormalLattice("with-relations", _orthonormal_oracle, relations=rels)
    lhs = lat.cls("O") - lat.cls("O(-e)")
    assert lat.eq(lhs, lat.cls("Q"))
    assert not lat.eq(lhs, lat.cls("O"))
    ok, cert = lat.membership(lhs - lat.cls("Q"))
    assert ok and cert == [1]
    # doubling the relation target leaves the span
    ok, _ = lat.membership((lhs - lat.cls("Q")) + lat.cls("O"))
    assert not ok


def test_membership_builds_the_relation_matrix_once(monkeypatch):
    rels = [{"O": 1, "O(-e)": -1, "Q": -1}]
    lat = FormalLattice("with-relations", _orthonormal_oracle, relations=rels)
    asked = []

    def recording(rows, target):
        asked.append((rows, list(target)))
        return relation_membership(rows, target)

    monkeypatch.setattr(kmut, "relation_membership", recording)
    lhs = lat.cls("O") - lat.cls("O(-e)")
    # a generator that no relation names: outside the span, rejected
    # before any factorisation, and the matrix keeps its width
    outside = lhs - lat.cls("Q") + lat.cls("R")
    assert lat.membership(outside) == (False, None)
    assert not lat.eq(lat.cls("R"), lat.zero())
    assert not lat.eq(lhs, lat.cls("Q") - lat.cls("R"))
    assert asked == []
    assert lat.membership(lhs - lat.cls("Q")) == (True, [1])
    assert lat.eq(lhs, lat.cls("Q"))
    assert [target for _, target in asked] == [[1, -1, -1], [1, -1, -1]]
    assert asked[0][0] == ((1, -1, -1),)
    assert asked[0][0] is asked[1][0]


