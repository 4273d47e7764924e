"""Chow rings, characters, Todd classes, Euler pairings.

The Grassmannian tables are generated from the Pieri rule at build time;
this file freezes the classical values (hand-checked against the standard
Schubert calculus on Gr(2,4)) plus the pairing anchors, and cross-checks the
Riemann-Roch route against the Bott route on random bundles.
"""

import random
from fractions import Fraction as F

import pytest

from sodcheck.bbw import GR23, GR24, P3, cohomology, irr, line
from sodcheck.chow import (
    blowup_line_ch,
    blowup_plane_ch,
    ch_bundle,
    _log_todd,
    ch_from_chern,
    chi,
    euler_pairing,
    ring_blowup,
    ring_gr23,
    ring_gr24,
    ring_gr24_p3,
    ring_p3,
)


# ----------------------------------------------------------- ring structure

def test_ring_caches():
    assert ring_p3() is ring_p3()
    assert ring_gr24() is ring_gr24()
    assert ring_blowup(10) is ring_blowup(10)
    assert ring_blowup(3) is not ring_blowup(4)


def test_gr24_schubert_table_frozen():
    g = ring_gr24()

    def mul(a, b):
        prod = g.monomial(a) * g.monomial(b)
        return {
            g.basis[i]: c for i, c in enumerate(prod.coeffs) if c
        }

    assert mul("s1", "s1") == {"s2": 1, "s11": 1}
    assert mul("s1", "s2") == {"s21": 1}
    assert mul("s1", "s11") == {"s21": 1}
    assert mul("s2", "s2") == {"s22": 1}
    assert mul("s11", "s11") == {"s22": 1}
    assert mul("s2", "s11") == {}
    assert mul("s1", "s21") == {"s22": 1}
    assert mul("s2", "s21") == {}
    assert mul("s21", "s21") == {}
    assert mul("s22", "s1") == {}
    assert mul("1", "s21") == {"s21": 1}


def test_gr24_table_symmetric_and_associative():
    g = ring_gr24()
    classes = [g.monomial(lbl) for lbl in g.basis]
    for a in classes:
        for b in classes:
            assert (a * b).coeffs == (b * a).coeffs
    rng = random.Random(3)
    for _ in range(50):
        a, b, c = (rng.choice(classes) for _ in range(3))
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs


def test_gr23_is_a_plane():
    g = ring_gr23()
    s1 = g.monomial("s1")
    assert (s1 * s1).coeffs == g.monomial("s11").coeffs
    assert (s1 * s1 * s1).is_zero()
    assert chi(g, g.one()) == 1


def test_degree_functional():
    g = ring_gr24()
    assert g.monomial("s22").degree() == 1
    assert g.monomial("s21").degree() == 0
    assert (g.monomial("s2") * g.monomial("s2")).degree() == 1
    s1 = g.monomial("s1")
    assert (s1 * s1 * s1 * s1).degree() == 2  # sigma_1^4 = 2 points


# ------------------------------------------------------------- Todd classes

def test_p3_todd_frozen():
    r = ring_p3()
    assert r.todd.coeffs == (F(1), F(2), F(11, 6), F(1))


def test_gr24_todd_frozen():
    g = ring_gr24()
    coeffs = dict(zip(g.basis, g.todd.coeffs))
    assert coeffs == {
        "1": F(1),
        "s1": F(2),
        "s2": F(23, 12),
        "s11": F(23, 12),
        "s21": F(7, 3),
        "s22": F(1),
    }


def test_structure_sheaf_chi_is_one_everywhere():
    for ring in (ring_p3(), ring_gr23(), ring_gr24(), ring_gr24_p3(),
                 ring_blowup(0), ring_blowup(10)):
        assert chi(ring, ring.one()) == 1


# --------------------------------------------------------- Chern characters

def test_ch_pluecker_line():
    g = ring_gr24()
    got = dict(zip(g.basis, ch_bundle(g, line((GR24,), (1,))).coeffs))
    assert got == {
        "1": F(1), "s1": F(1), "s2": F(1, 2), "s11": F(1, 2),
        "s21": F(1, 3), "s22": F(1, 12),
    }


def test_ch_taut_sub():
    g = ring_gr24()
    got = dict(zip(g.basis, ch_bundle(
        g, irr((GR24,), [((0, -1), (0, 0))])).coeffs))
    assert got == {
        "1": F(2), "s1": F(-1), "s2": F(1, 2), "s11": F(-1, 2),
        "s21": F(1, 6), "s22": F(0),
    }


def test_ch_sym_square_sub():
    g = ring_gr24()
    got = dict(zip(g.basis, ch_bundle(
        g, irr((GR24,), [((0, -2), (0, 0))])).coeffs))
    assert got["1"] == 3 and got["s1"] == -3
    assert got["s2"] == F(5, 2) and got["s11"] == F(-3, 2)


def test_ch_additive_and_multiplicative():
    # the Jacobi-Trudi characters against the Clebsch-Gordan split of the
    # tensor product on both rank-2 factors
    g = ring_gr24()
    pairs = [(((1, 0), (0, 0)), ((0, -1), (0, 0)))]
    rng = random.Random(24)

    def weight():
        return tuple(sorted((rng.randint(-3, 3) for _ in range(2)),
                            reverse=True))

    pairs += [((weight(), weight()), (weight(), weight()))
              for _ in range(30)]
    for pa, pb in pairs:
        a, b = irr((GR24,), [pa]), irr((GR24,), [pb])
        ch_sum = ch_bundle(g, a + b)
        assert ch_sum == ch_bundle(g, a) + ch_bundle(g, b)
        ch_prod = ch_bundle(g, a.tensor(b))
        assert ch_prod == ch_bundle(g, a) * ch_bundle(g, b)


def test_ch_tangent_p3_euler_sequence():
    # T = U-dual x Q: a rank-3 quotient factor with a determinant twist;
    # 0 -> O -> O(1)^4 -> T -> 0 gives ch T = 4 exp(h) - 1
    r = ring_p3()
    tangent = irr((P3,), [((1,), (0, 0, -1))])
    assert ch_bundle(r, tangent) == \
        r.monomial("h").exp().scale(4) - r.one()


def test_ch_from_chern_matches_schur_route():
    g = ring_gr24()
    s1, s11 = g.monomial("s1"), g.monomial("s11")
    u = irr((GR24,), [((0, -1), (0, 0))])
    assert ch_from_chern(g, [-s1, s11]) == ch_bundle(g, u)


def test_ch_respects_duality():
    rng = random.Random(8)
    ring = ring_gr24()
    for _ in range(40):
        sub = tuple(sorted((rng.randrange(-3, 4) for _ in range(2)),
                           reverse=True))
        quot = tuple(sorted((rng.randrange(-3, 4) for _ in range(2)),
                            reverse=True))
        b = irr((GR24,), [(sub, quot)])
        assert ch_bundle(ring, b.dual()) == ch_bundle(ring, b).dual()


def test_ch_shifted_term_changes_sign():
    g = ring_gr24()
    b = line((GR24,), (1,))
    assert ch_bundle(g, b.shifted(1)) == -ch_bundle(g, b)


@pytest.mark.parametrize("make, space, pairs", [
    (ring_p3, (P3,), [((1,), (0, 0, -1))]),  # the tangent bundle
    (ring_p3, (P3,), [((0,), (0, -1, -1))]),
    (ring_gr24, (GR24,), [((1, 0), (0, -1))]),  # the tangent bundle
    (ring_gr24, (GR24,), [((2, 0), (0, 0))]),
    (ring_gr24, (GR24,), [((0, 0), (0, -3))]),
])
def test_ch_counts_term_multiplicity(make, space, pairs):
    # a term of multiplicity 3 in degree 1 is three copies of the bundle,
    # shifted once: -3 times its character, and its chi is the staircase's
    ring = make()
    once = ch_bundle(ring, irr(space, pairs))
    thrice = irr(space, pairs, mult=3, shift=1)
    assert ch_bundle(ring, thrice) == once.scale(-3)
    assert chi(ring, ch_bundle(ring, thrice)) == cohomology(thrice).euler()
    assert cohomology(thrice).euler() == -3 * chi(ring, once) != 0


# ------------------------------------------------- Todd by its logarithm

@pytest.mark.parametrize("make, space, gen", [
    (ring_p3, (P3,), "h"),
    (ring_gr24, (GR24,), "s1"),
])
def test_log_todd_of_a_line_bundle_is_the_closed_form(make, space, gen):
    # td(O(1)) = x / (1 - e^-x) = 1 + x/2 + x^2/12 - x^4/720; the x^4
    # term reaches B_4 (zero on P3, where x^4 = 0)
    ring = make()
    x = ring.monomial(gen)
    got = _log_todd(ring, ch_bundle(ring, line(space, (1,)))).exp()
    x2 = x * x
    assert got == (ring.one() + x.scale(F(1, 2)) + x2.scale(F(1, 12))
                   - (x2 * x2).scale(F(1, 720)))


def test_log_todd_of_the_product_tangent_is_the_factor_product():
    # dimension 7 reaches B_6; log td is additive, so the summed tangent
    # characters give the kept product of the factor Todd classes, whose
    # degree is the Todd genus chi(O) = 1
    ring = ring_gr24_p3()
    flat_gr, flat_p3 = ((0, 0), (0, 0)), ((0,), (0, 0, 0))
    t_gr = irr((GR24, P3), [((1, 0), (0, -1)), flat_p3])
    t_p3 = irr((GR24, P3), [flat_gr, ((1,), (0, 0, -1))])
    tangent = ch_bundle(ring, t_gr) + ch_bundle(ring, t_p3)
    td = _log_todd(ring, tangent).exp()
    assert td == ring.todd
    assert td.degree() == 1


@pytest.mark.parametrize("n", [1, 10, 11])
def test_blowup_plane_character_by_restriction_matches_the_closed_form(n):
    # reference: e_i - (j + 1/2) e_i^2 + (j^2/2 + j/2 + 1/6) pt, by
    # Grothendieck-Riemann-Roch for the plane, where O(e_i) restricts to
    # O(-1)
    y = ring_blowup(n)
    for i in range(1, n + 1):
        for j in range(-6, 7):
            want = (y.monomial(f"e{i}") - y.monomial(f"e{i}2").scale(
                F(2 * j + 1, 2)) + y.monomial("pt").scale(
                F(3 * j * j + 3 * j + 1, 6)))
            assert blowup_plane_ch(y, i, j) == want


# ------------------------------------------------------------ chi anchors

def test_chi_anchors():
    assert chi(ring_p3(), ch_bundle(ring_p3(), line((P3,), (1,)))) == 4
    assert chi(ring_gr24(), ch_bundle(ring_gr24(), line((GR24,), (1,)))) == 6
    assert chi(ring_gr23(), ch_bundle(ring_gr23(), line((GR23,), (1,)))) == 3
    assert chi(ring_gr24(), ch_bundle(
        ring_gr24(), irr((GR24,), [((0, -1), (0, 0))]))) == 0


def test_chi_integrality_guard():
    g = ring_gr24()
    bad = g.monomial("s22").scale(F(1, 2))
    with pytest.raises(ArithmeticError):
        chi(g, bad)


# ------------------------------------------------------------ blowup ring

def test_blowup_zero_points_is_plain():
    y = ring_blowup(0)
    assert chi(y, blowup_line_ch(y, 1, [])) == 4
    big = y.monomial("h").scale(2)  # H = 2h when N = 0
    assert (big * big * big).degree() == 8


def test_blowup_intersection_numbers():
    y = ring_blowup(10)
    h = y.monomial("h")
    e1, e2 = y.monomial("e1"), y.monomial("e2")
    assert (h * e1).is_zero()
    assert (e1 * e2).is_zero()
    assert (e1 * e1 * e1).degree() == 1
    assert (h * h * h).degree() == 1
    big = h.scale(2) - sum(
        (y.monomial(f"e{i}") for i in range(1, 11)), y.zero()
    )
    assert (big * big * big).degree() == 8 - 10


def test_blowup_chi_pins():
    y = ring_blowup(10)
    assert chi(y, y.one()) == 1
    for i in (1, 4, 10):
        es = [0] * 10
        es[i - 1] = -1
        assert chi(y, blowup_line_ch(y, 0, es)) == 0
    assert chi(y, blowup_line_ch(y, 1, [0] * 10)) == 4
    assert chi(y, blowup_line_ch(y, -1, [0] * 10)) == 0


def test_blowup_point_limit():
    y = ring_blowup(11)
    assert len(set(y.basis)) == len(y.basis)
    assert chi(y, y.one()) == 1
    for n in (12, -1):
        with pytest.raises(ValueError, match="0 to 11 points"):
            ring_blowup(n)


def test_blowup_plane_character_frozen():
    y = ring_blowup(2)
    got = blowup_plane_ch(y, 1, 0)
    want = (y.monomial("e1") - y.monomial("e12").scale(F(1, 2))
            + y.monomial("pt").scale(F(1, 6)))
    assert got == want
    got = blowup_plane_ch(y, 1, -1)
    want = (y.monomial("e1") + y.monomial("e12").scale(F(1, 2))
            + y.monomial("pt").scale(F(1, 6)))
    assert got == want


def test_blowup_plane_pairing_anchor():
    y = ring_blowup(10)
    a = blowup_plane_ch(y, 1, -1)
    b = blowup_line_ch(y, -2, [0] * 10)
    assert euler_pairing(y, a, b) == -1
    assert euler_pairing(y, y.one(), blowup_plane_ch(y, 1, -1)) == 0


# ----------------------------------------------------------- Serre symmetry

def _random_ch(rng, ring, space):
    sub_quot = []
    for f in space:
        sub = tuple(sorted((rng.randrange(-4, 5) for _ in range(f.k)),
                           reverse=True))
        quot = tuple(sorted(
            (rng.randrange(-4, 5) for _ in range(f.n - f.k)), reverse=True))
        sub_quot.append((sub, quot))
    return ch_bundle(ring, irr(space, sub_quot))


@pytest.mark.parametrize("make,space", [
    (ring_p3, (P3,)),
    (ring_gr24, (GR24,)),
    (ring_gr23, (GR23,)),
])
def test_numerical_serre_symmetry(make, space):
    ring = make()
    rng = random.Random(101)
    d = ring.dim
    for _ in range(60):
        a = _random_ch(rng, ring, space)
        b = _random_ch(rng, ring, space)
        lhs = euler_pairing(ring, a, b)
        rhs = euler_pairing(ring, b, a * ring.canonical_ch)
        assert lhs == (-1) ** d * rhs


def test_numerical_serre_symmetry_blowup():
    y = ring_blowup(5)
    rng = random.Random(55)
    for _ in range(60):
        a = blowup_line_ch(
            y, rng.randrange(-3, 4), [rng.randrange(-2, 3) for _ in range(5)])
        b = blowup_line_ch(
            y, rng.randrange(-3, 4), [rng.randrange(-2, 3) for _ in range(5)])
        assert euler_pairing(y, a, b) == -euler_pairing(
            y, b, a * y.canonical_ch)


# ------------------------------------------------------- cross-engine check

@pytest.mark.parametrize("make,space", [
    (ring_p3, (P3,)),
    (ring_gr23, (GR23,)),
    (ring_gr24, (GR24,)),
])
def test_cross_engine_euler_match(make, space):
    ring = make()
    rng = random.Random(sum(f.n for f in space))
    for _ in range(60):
        sub_quot = []
        for f in space:
            sub = tuple(sorted((rng.randrange(-5, 6) for _ in range(f.k)),
                               reverse=True))
            quot = tuple(sorted(
                (rng.randrange(-5, 6) for _ in range(f.n - f.k)),
                reverse=True))
            sub_quot.append((sub, quot))
        b = irr(space, sub_quot)
        assert cohomology(b).euler() == chi(ring, ch_bundle(ring, b))


def test_cross_engine_euler_match_product():
    ring = ring_gr24_p3()
    space = (GR24, P3)
    rng = random.Random(424)
    for _ in range(25):
        sub_quot = []
        for f in space:
            sub = tuple(sorted((rng.randrange(-4, 5) for _ in range(f.k)),
                               reverse=True))
            quot = tuple(sorted(
                (rng.randrange(-4, 5) for _ in range(f.n - f.k)),
                reverse=True))
            sub_quot.append((sub, quot))
        b = irr(space, sub_quot)
        assert cohomology(b).euler() == chi(ring, ch_bundle(ring, b))
