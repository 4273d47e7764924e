"""The Riemann-Roch pairing core against the textbook formula.

``chi`` and ``euler_pairing`` evaluate integer forms built once per ring and
weight.  Here they are compared with deg(a . td) and deg(a-dual . b . td)
taken by plain ring products, on integer combinations of genuine characters
(bundles on the homogeneous rings; line bundles and exceptional-plane
sheaves on the blowups), together with bilinearity, Serre duality, the
closed-form blowup line characters, the fourfold's single Koszul-weight
form, the integer form each class stores (cross-checked against plain
`Fraction` arithmetic on the dense coefficient vectors), the image P.b each
class keeps per form, the nonzero columns each form keeps (against the
double sum on basis classes and on seeded classes with nearly every entry
nonzero), and the integrality guard on every route, on first and later
calls.  Property runs are derandomized, so the suite stays
deterministic.
"""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sodcheck.bbw import irr
from sodcheck.chow import (
    ChowClass,
    IntegralityError,
    blowup_line_ch,
    blowup_plane_ch,
    ch_bundle,
    chi,
    euler_pairing,
    ring_blowup,
    ring_gr23,
    ring_gr24,
    ring_gr24_p3,
    ring_p3,
)
from sodcheck.varieties import get_variety

BLOWUP_POINTS = (0, 1, 5, 10, 11)

RINGS = {
    "P3": ring_p3,
    "Gr23": ring_gr23,
    "Gr24": ring_gr24,
    "Gr24xP3": ring_gr24_p3,
    **{f"BlP3[{n}]": (lambda n=n: ring_blowup(n)) for n in BLOWUP_POINTS},
}

PROPERTY = settings(
    derandomize=True, database=None, deadline=None, max_examples=15
)


def reference_chi(ring, x):
    return (x * ring.todd).degree()


def reference_pairing(ring, a, b):
    return ((a.dual() * b) * ring.todd).degree()


def _weight(size):
    return st.lists(st.integers(-2, 2), min_size=size, max_size=size).map(
        lambda w: tuple(sorted(w, reverse=True))
    )


def _generator(draw, ring):
    """A genuine character: a random irreducible bundle on a homogeneous
    ring, a line bundle or an exceptional-plane sheaf on a blowup."""
    if ring.factors:
        pairs = [
            (draw(_weight(f.k)), draw(_weight(f.n - f.k)))
            for f in ring.factors
        ]
        return ch_bundle(ring, irr(ring.factors, pairs))
    n = (len(ring.basis) - 4) // 2
    if n and draw(st.booleans()):
        return blowup_plane_ch(
            ring, draw(st.integers(1, n)), draw(st.integers(-3, 3))
        )
    return blowup_line_ch(
        ring,
        draw(st.integers(-3, 3)),
        draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
    )


def _combination(draw, ring):
    total = ring.zero()
    for _ in range(draw(st.integers(1, 3))):
        total = total + _generator(draw, ring).scale(draw(st.integers(-3, 3)))
    return total


@pytest.mark.parametrize("name", list(RINGS))
@PROPERTY
@given(data=st.data())
def test_core_matches_textbook_formula(name, data):
    ring = RINGS[name]()
    a, b, c = (_combination(data.draw, ring) for _ in range(3))
    k = data.draw(st.integers(-3, 3))
    ab = euler_pairing(ring, a, b)
    assert chi(ring, a) == reference_chi(ring, a)
    assert ab == reference_pairing(ring, a, b)
    # bilinear in both arguments
    assert euler_pairing(ring, a.scale(k) + c, b) == (
        k * ab + euler_pairing(ring, c, b)
    )
    assert euler_pairing(ring, a, b.scale(k) + c) == (
        k * ab + euler_pairing(ring, a, c)
    )
    # Serre duality
    assert ab == (-1) ** ring.dim * euler_pairing(
        ring, b, a * ring.canonical_ch
    )


# ------------------------------------------------- closed-form characters

def _exp_series(div):
    """exp of a divisor on a threefold, by ring products."""
    square = div * div
    return (div.ring.one() + div + square.scale(F(1, 2))
            + (square * div).scale(F(1, 6)))


def test_blowup_line_ch_closed_form_matches_exp():
    rng = random.Random(1500)
    checked = 0
    for n in BLOWUP_POINTS:
        ring = ring_blowup(n)
        for _ in range(70):
            b = rng.randint(-6, 6)
            cs = [rng.randint(-6, 6) for _ in range(n)]
            div = ring.monomial("h", b)
            for i, c in enumerate(cs, start=1):
                div = div + ring.monomial(f"e{i}", c)
            assert blowup_line_ch(ring, b, cs) == _exp_series(div)
            checked += 1
    assert checked == 350


def test_fourfold_form_matches_slot_sum():
    # one pairing against sum_p (-1)^p ch(slot_p) equals the Koszul sum of
    # one ambient pairing per slot
    four = get_variety("net_fourfold")
    amb = four.ambient_ring
    slots = {p: ch_bundle(amb, b) for p, b in four._om.slots.items()}
    keys = [
        ("bundle", kind, g, h)
        for kind in ("O", "V/U")
        for g in range(-2, 3)
        for h in range(-2, 3)
    ]
    chs = [ch_bundle(amb, four._bundle(key)) for key in keys]
    shifted = [{p: s * y for p, s in slots.items()} for y in chs]
    for ka, x in zip(keys, chs):
        for kb, sy in zip(keys, shifted):
            want = sum(
                (-1) ** p * euler_pairing(amb, x, s) for p, s in sy.items()
            )
            assert four._ambient_chi(ka, kb) == want


# ---------------------------------------------- the stored integer form

def _lcm_form(cls):
    den = math.lcm(*(c.denominator for c in cls.coeffs))
    return tuple(int(c * den) for c in cls.coeffs), den


def _seeded_classes(rng, ring, count):
    """Rational combinations of basis monomials, denominators up to 12."""
    out = []
    for _ in range(count):
        coeffs = [
            F(rng.randint(-9, 9), rng.randint(1, 12))
            if rng.random() < 0.6 else F(0)
            for _ in ring.basis
        ]
        out.append(ChowClass(ring, coeffs))
    return out


def _ref_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _ref_scale(k, x):
    return tuple(F(k) * a for a in x)


def _ref_mul(ring, x, y):
    out = [F(0)] * len(ring.basis)
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in enumerate(y):
            if not b:
                continue
            for k, c in ring.mul_basis(i, j).items():
                out[k] += a * b * c
    return tuple(out)


def _ref_dual(ring, x):
    return tuple(-c if ring.codim[i] % 2 else c for i, c in enumerate(x))


def _ref_adams(ring, x, k):
    return tuple(c * k ** ring.codim[i] for i, c in enumerate(x))


def _ref_exp(ring, x):
    out = power = ring.one().coeffs
    fact = 1
    for n in range(1, ring.dim + 1):
        power = _ref_mul(ring, power, x)
        fact *= n
        out = _ref_add(out, _ref_scale(F(1, fact), power))
    return out


def _lowest_terms(cls):
    nums, den = cls.numerators()
    return den > 0 and math.gcd(den, *nums) == 1 and (nums, den) == _lcm_form(
        cls
    )


@pytest.mark.parametrize("name", sorted(RINGS))
def test_integer_arithmetic_matches_fraction_reference(name):
    ring = RINGS[name]()
    rng = random.Random(1600)
    classes = _seeded_classes(rng, ring, 8)
    for a, b in zip(classes, classes[1:] + classes[:1]):
        x, y = a.coeffs, b.coeffs
        k = F(rng.randint(-6, 6), rng.randint(1, 4))
        m = rng.randint(-6, 6)
        nilpotent = ChowClass(
            ring, [c if ring.codim[i] else 0 for i, c in enumerate(x)]
        )
        got_want = [
            (a * b, _ref_mul(ring, x, y)),
            (a + b, _ref_add(x, y)),
            (a - b, _ref_add(x, _ref_scale(-1, y))),
            (a.scale(k), _ref_scale(k, x)),
            (a.scale(m), _ref_scale(m, x)),
            (a.dual(), _ref_dual(ring, x)),
            (nilpotent.exp(), _ref_exp(ring, nilpotent.coeffs)),
        ]
        got_want += [(a.adams(j), _ref_adams(ring, x, j)) for j in (-2, 0, 3)]
        for got, want in got_want:
            assert got.coeffs == want
            assert _lowest_terms(got)
            assert got == ChowClass(ring, got.coeffs)
            assert hash(got) == hash(ChowClass(ring, got.coeffs))


@pytest.mark.parametrize("name", sorted(RINGS))
def test_pairing_keeps_each_class_numerators(name):
    ring = RINGS[name]()
    rng = random.Random(1515)
    for a, b in zip(*(_seeded_classes(rng, ring, 12) for _ in range(2))):
        a_copy, b_copy = ChowClass(ring, a.coeffs), ChowClass(ring, b.coeffs)
        stored = a.numerators()
        assert stored == _lcm_form(a) and b.numerators() == _lcm_form(b)
        nums, den = stored
        assert type(nums) is tuple and type(den) is int
        assert all(type(x) is int for x in nums)
        try:
            first = euler_pairing(ring, a, b)
        except IntegralityError:
            first = None  # random rationals rarely pair to an integer
        try:
            second = euler_pairing(ring, a, b)
        except IntegralityError:
            second = None
        assert a.numerators() == stored  # pairing leaves a class unchanged
        assert first == second
        # an equal class built afresh pairs the same
        try:
            fresh = euler_pairing(ring, a_copy, b_copy)
        except IntegralityError:
            fresh = None
        assert fresh == first


def _form_den(ring):
    chi(ring, ring.one())  # builds the form against 1
    return ring._forms[None].den


@pytest.mark.parametrize("name", sorted(RINGS))
def test_kept_numerators_pair_like_the_textbook_formula(name):
    ring = RINGS[name]()
    rng = random.Random(1516)
    classes = _seeded_classes(rng, ring, 6)
    # scale each class by the product of its denominators' lcm and the
    # form's, so every pairing is integral, then pair twice
    ints = [x.scale(_lcm_form(x)[1] * _form_den(ring)) for x in classes]
    for a in ints:
        assert chi(ring, a) == reference_chi(ring, a) == chi(ring, a)
        for b in ints:
            want = reference_pairing(ring, a, b)
            assert euler_pairing(ring, a, b) == want
            assert euler_pairing(ring, a, b) == want


# ------------------------------------------------------- the kept image

def _integral_classes(ring, seed, count):
    """Seeded classes scaled so that every pairing of two is integral."""
    classes = _seeded_classes(random.Random(seed), ring, count)
    return [x.scale(_lcm_form(x)[1] * _form_den(ring)) for x in classes]


@pytest.mark.parametrize("name", sorted(RINGS))
def test_kept_image_pairs_like_the_textbook_formula(name):
    ring = RINGS[name]()
    lefts = _integral_classes(ring, 2001, 6)
    rights = _integral_classes(ring, 2002, 6)
    want = {(i, j): reference_pairing(ring, a, b)
            for i, a in enumerate(lefts) for j, b in enumerate(rights)}
    # one b against many a's: the first pairing stores b's image, the
    # rest and a second round read it
    for j, b in enumerate(rights):
        assert not hasattr(b, "_images")
        for _ in range(2):
            for i, a in enumerate(lefts):
                assert euler_pairing(ring, a, b) == want[i, j]
        assert list(b._images) == [ring._forms[None]]
    # one a against many b's, each b fresh, then again with images kept
    fresh = [ChowClass(ring, b.coeffs) for b in rights]
    for i, a in enumerate(lefts):
        for _ in range(2):
            for j, b in enumerate(fresh):
                assert euler_pairing(ring, a, b) == want[i, j]


@pytest.mark.parametrize("name", sorted(RINGS))
def test_pairing_leaves_equality_and_hash_alone(name):
    ring = RINGS[name]()
    classes = _integral_classes(ring, 2003, 4)
    copies = [ChowClass(ring, x.coeffs) for x in classes]
    hashes = [hash(x) for x in classes]
    for a in classes:
        for b in classes:
            euler_pairing(ring, a, b)
    for x, copy, h in zip(classes, copies, hashes):
        assert hasattr(x, "_images") and not hasattr(copy, "_images")
        assert x == copy and copy == x and hash(x) == hash(copy) == h
    assert {x: k for k, x in enumerate(classes)}[copies[-1]] == 3


# ------------------------------------------------------ integrality guard

@pytest.mark.parametrize("make,point", [
    (ring_gr24_p3, "s22|h3"),
    (lambda: ring_blowup(10), "pt"),
])
def test_integrality_guard_on_every_route(make, point):
    ring = make()
    half = ring.monomial(point, F(1, 2))
    one = ring.one()
    assert euler_pairing(ring, one, one) == 1  # stores one's image
    with pytest.raises(IntegralityError):
        chi(ring, half)
    # twice each way: the second call reads the image the first stored
    for _ in range(2):
        with pytest.raises(IntegralityError):
            euler_pairing(ring, one, half)
        with pytest.raises(IntegralityError):
            euler_pairing(ring, half, one)
    assert hasattr(half, "_images")


def test_integrality_guard_on_the_fourfold_form():
    # chi(O) = 1 on the fourfold, so half the structure sheaf is not integral
    four = get_variety("net_fourfold")
    amb, weight = four.ambient_ring, four._om_weight
    half = amb.one().scale(F(1, 2))
    one = amb.one()
    assert chi(amb, one, weight=weight) == 1
    with pytest.raises(IntegralityError):
        chi(amb, half, weight=weight)
    for _ in range(2):
        with pytest.raises(IntegralityError):
            euler_pairing(amb, one, half, weight=weight)
        with pytest.raises(IntegralityError):
            euler_pairing(amb, half, one, weight=weight)
    assert list(half._images) == [amb._forms[weight]]


# ------------------------------------------------- the sparse columns

def _dense_classes(rng, ring, sizes):
    """Seeded classes with exactly ``size`` nonzero entries each, at random
    positions, denominators up to 12."""
    out = []
    for size in sizes:
        coeffs = [F(0)] * len(ring.basis)
        for i in rng.sample(range(len(ring.basis)), size):
            coeffs[i] = F(rng.choice([-1, 1]) * rng.randint(1, 9),
                          rng.randint(1, 12))
        out.append(ChowClass(ring, coeffs))
    return out


def _check_columns(ring, weight, reference, nonzero):
    """The form's columns hold exactly the nonzero entries of the textbook
    double sum on basis classes, and pair seeded dense classes like it."""
    form = ring._forms[weight]
    basis = [ring.monomial(lbl) for lbl in ring.basis]
    want = {
        (i, j): reference(ring, x, y) * form.den
        for i, x in enumerate(basis) for j, y in enumerate(basis)
    }
    assert all(v.denominator == 1 for v in want.values())
    got = {}
    for j, col in enumerate(form.cols):
        assert type(col) is tuple
        for i, p in col:
            assert type(p) is int and p and (i, j) not in got
            got[i, j] = p
    assert got == {ij: v for ij, v in want.items() if v}
    assert len(got) == nonzero.get(ring.name, len(got))
    n = len(ring.basis)
    sizes = [n, n - 1, n - 2, max(1, n // 2), 1]
    rng = random.Random(2600 + n)
    lefts, rights = (
        [x.scale(_lcm_form(x)[1] * form.den)
         for x in _dense_classes(rng, ring, sizes)]
        for _ in range(2)
    )
    assert len(lefts[2].nums) == n - 2
    for a in lefts:
        for b in rights:
            assert euler_pairing(ring, a, b, weight=weight) == reference(
                ring, a, b
            )


#: nonzero entries of the pairing matrix, of len(basis)^2
NONZERO = {"BlP3[10]": 80, "Gr24xP3": 200}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_sparse_columns_match_the_textbook_double_sum(name):
    ring = RINGS[name]()
    chi(ring, ring.one())  # builds the form against 1
    _check_columns(ring, None, reference_pairing, NONZERO)


def test_sparse_columns_of_the_fourfold_form():
    four = get_variety("net_fourfold")
    amb, weight = four.ambient_ring, four._om_weight
    chi(amb, amb.one(), weight=weight)

    def weighted(ring, a, b):
        return ((a.dual() * b) * weight * ring.todd).degree()

    _check_columns(amb, weight, weighted, {amb.name: 84})
