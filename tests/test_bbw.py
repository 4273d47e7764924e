"""Bott-algorithm engine: factor anchors, duality, products, staircases.

Anchor values were computed by hand from the weight algorithm (add the
staircase, kill repeats, count inversions) before being frozen here; the
Serre-duality sweep then exercises the same code on thousands of weights.
"""

import random

import pytest

from sodcheck.bbw import (
    GR23,
    GR24,
    P3,
    EquivariantBundle,
    Indeterminate,
    Term,
    TermComplex,
    _dual_pairs,
    _tensor_weights,
    bott_factor,
    cohomology,
    hypercohomology,
    irr,
    line,
    pushforward_complex,
)
from sodcheck.gl_weights import Weight


# ---------------------------------------------------------------- factors

def test_factor_basics():
    assert P3.dim == 3 and GR23.dim == 2 and GR24.dim == 4
    assert P3.canonical_twist == -4
    assert GR23.canonical_twist == -3
    assert GR24.canonical_twist == -4
    assert GR24.rho == (3, 2, 1, 0)


# ------------------------------------------------- frozen cohomology anchors

def sub_quot(factor, sub, quot, twist=0, mult=1):
    b = irr((factor,), [(sub, quot)], mult=mult)
    return b.twist((twist,)) if twist else b


def test_anchor_s2u_twisted_once():
    # S^2 U (-1) on Gr(2,4): one-dimensional, degree 2
    h = cohomology(sub_quot(GR24, (0, -2), (0, 0), twist=-1))
    assert h.dims() == {2: 1}
    assert h.weights(2) == [((Weight((-1, -1, -1, -1)),), 1)]


def test_anchor_s3u():
    # S^3 U on Gr(2,4): the dual of the defining representation, degree 2
    h = cohomology(sub_quot(GR24, (0, -3), (0, 0)))
    assert h.dims() == {2: 4}
    assert h.weights(2) == [((Weight((0, -1, -1, -1)),), 1)]


def test_anchor_pluecker_negative():
    assert cohomology(line((GR24,), (-1,))).is_zero


def test_anchor_s2u_det_twist():
    h = cohomology(sub_quot(GR24, (0, -2), (0, 0), twist=-1))
    h2 = cohomology(
        irr((GR24,), [((-1, -3), (0, 0))])
    )  # same bundle written with the twist folded in
    assert h.dims() == h2.dims() == {2: 1}


def test_anchor_p3_canonical():
    h = cohomology(line((P3,), (-4,)))
    assert h.dims() == {3: 1}


def test_anchor_structure_sheaves():
    for f in (P3, GR23, GR24):
        assert cohomology(line((f,), (0,))).dims() == {0: 1}


def test_taut_sub_has_no_cohomology():
    # U on Gr(2,3) and on Gr(2,4)
    for f in (GR23, GR24):
        assert cohomology(sub_quot(f, (0, -1), (0,) * (f.n - 2))).is_zero


def test_bott_factor_repeat_kills():
    assert bott_factor(GR24, Weight((-1, -1)), Weight((0, 0))) is None
    res = bott_factor(GR24, Weight((-1, -3)), Weight((0, 0)))
    assert res == (2, Weight((-1, -1, -1, -1)))


# ------------------------------------------------------------ Serre duality

def _random_bundle(rng, factor):
    sub = tuple(
        sorted((rng.randrange(-6, 7) for _ in range(factor.k)), reverse=True)
    )
    quot = tuple(
        sorted(
            (rng.randrange(-6, 7) for _ in range(factor.n - factor.k)),
            reverse=True,
        )
    )
    return irr((factor,), [(sub, quot)])


@pytest.mark.parametrize("factor", [P3, GR23, GR24], ids=lambda f: f.name)
def test_serre_duality_sweep(factor):
    # H^t(B) dual to H^{dim - t}(B-dual tensor canonical), 500 samples/factor
    rng = random.Random(hash((factor.k, factor.n)) & 0xFFFF)
    for _ in range(500):
        b = _random_bundle(rng, factor)
        left = cohomology(b).dims()
        tw = b.dual().twist((factor.canonical_twist,))
        right = cohomology(tw).dims()
        assert left == {factor.dim - t: d for t, d in right.items()}


def test_at_most_one_degree_per_irreducible():
    rng = random.Random(2718)
    for _ in range(300):
        factor = rng.choice([P3, GR23, GR24])
        h = cohomology(_random_bundle(rng, factor))
        assert len(h.dims()) <= 1


# ------------------------------------------------------- products / Kuenneth

def test_product_structure_sheaf():
    h = cohomology(line((GR24, P3), (0, 0)))
    assert h.dims() == {0: 1}


def test_product_canonical_bundle():
    h = cohomology(line((GR24, P3), (-4, -4)))
    assert h.dims() == {7: 1}
    assert h.weights(7) == [
        ((Weight((-2, -2, -2, -2)), Weight((-1, -1, -1, -1))), 1)
    ]


def test_product_dead_factor_kills():
    assert cohomology(line((GR24, P3), (-1, 3))).is_zero
    assert cohomology(line((GR24, P3), (-3, -3))).is_zero


def test_kuenneth_dims_multiply():
    rng = random.Random(11)
    for _ in range(200):
        a = _random_bundle(rng, GR24)
        b = _random_bundle(rng, P3)
        prod = irr(
            (GR24, P3), [a.terms[0].pairs[0], b.terms[0].pairs[0]]
        )
        da = cohomology(a).dims()
        db = cohomology(b).dims()
        expect = {}
        for t1, d1 in da.items():
            for t2, d2 in db.items():
                expect[t1 + t2] = expect.get(t1 + t2, 0) + d1 * d2
        assert cohomology(prod).dims() == expect


# ------------------------------------------------------------ bundle algebra

def test_tensor_endomorphisms_of_sub():
    u_dual = sub_quot(GR24, (1, 0), (0, 0))
    u = sub_quot(GR24, (0, -1), (0, 0))
    end = u_dual.tensor(u)
    assert end.rank() == 4
    assert cohomology(end).dims() == {0: 1}


def test_tensor_line_bundles_add_twists():
    a = line((GR24, P3), (2, -1))
    b = line((GR24, P3), (-3, 1))
    c = a.tensor(b)
    assert c.rank() == 1
    assert cohomology(c).dims() == cohomology(line((GR24, P3), (-1, 0))).dims()


def test_dual_and_twist_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        f = rng.choice([P3, GR23, GR24])
        b = _random_bundle(rng, f)
        assert cohomology(b.dual().dual()).dims() == cohomology(b).dims()
        t = rng.randrange(-3, 4)
        assert (
            cohomology(b.twist((t,)).twist((-t,))).dims()
            == cohomology(b).dims()
        )


def test_rank2_tensor_rank_multiplies():
    rng = random.Random(77)
    for _ in range(80):
        a = _random_bundle(rng, GR24)
        b = _random_bundle(rng, GR24)
        assert a.tensor(b).rank() == a.rank() * b.rank()


def test_shift_moves_cohomology():
    b = line((GR24,), (0,)).shifted(1)
    assert cohomology(b).dims() == {-1: 1}


def test_mult_scales_dimension():
    b = sub_quot(GR24, (0, -3), (0, 0), mult=5)
    assert cohomology(b).dims() == {2: 20}


# ------------------------------------------------------------- staircases

def koszul_plane(tw=0):
    """Zero locus of a section of U-dual on Gr(2,4): O(-1) -> U -> O."""
    space = (GR24,)
    slots = {
        0: line(space, (0,)),
        1: irr(space, [((0, -1), (0, 0))]),
        2: line(space, (-1,)),
    }
    cx = TermComplex(space, slots)
    return cx.twist((tw,)) if tw else cx


def test_hypercohomology_plane_structure_sheaf():
    h = hypercohomology(koszul_plane())
    assert h.determinate and h.dims() == {0: 1}


def test_hypercohomology_single_slot_matches_cohomology():
    rng = random.Random(13)
    for _ in range(50):
        b = _random_bundle(rng, GR24)
        h = hypercohomology(TermComplex((GR24,), {0: b}))
        assert h.determinate and h.dims() == cohomology(b).dims()


def test_hypercohomology_detects_r1_clash():
    # [O -> O] could be an isomorphism or zero: the table cannot tell
    cx = TermComplex((GR24,), {0: line((GR24,), (0,)), 1: line((GR24,), (0,))})
    res = hypercohomology(cx)
    assert not res.determinate
    assert res.collisions and res.collisions[0][2] == 1


def test_hypercohomology_detects_r2_clash():
    # cells (p=2, q=0) and (p=0, q=1) admit a second-stage differential
    middle = irr((GR23,), [((1, -2), (0,))])  # has H^1 of dimension 6
    assert cohomology(middle).dims() == {1: 6}
    cx = TermComplex((GR23,), {2: line((GR23,), (0,)), 0: middle})
    res = hypercohomology(cx)
    assert not res.determinate
    assert any(r == 2 for _, _, r in res.collisions)


def test_indeterminate_reports_table():
    cx = TermComplex((GR24,), {0: line((GR24,), (0,)), 1: line((GR24,), (0,))})
    res = hypercohomology(cx)
    assert [(p, q, d) for p, q, d in res.entries] == [(0, 0, 1), (1, 0, 1)]
    assert not res.is_zero and "indeterminate" in res.describe()


# ------------------------------------------------------------- pushforward

def quadric_line_koszul_twisted():
    """Koszul complex of the relative-lines locus, twisted by O(h):
    slots O(h), S^2 U, S^2 U(-g-h), O(-3g-2h) on Gr(2,4) x P^3."""
    space = (GR24, P3)
    s2u = ((0, -2), (0, 0, 0))
    return TermComplex(
        space,
        {
            0: line(space, (0, 1)),
            1: irr(space, [((0, -2), (0, 0)), ((0,), (0, 0, 0))]),
            2: irr(space, [((-1, -3), (0, 0)), ((-1,), (0, 0, 0))]),
            3: line(space, (-3, -2)),
        },
    )


def test_pushforward_twisted_lines_complex():
    out = pushforward_complex(quadric_line_koszul_twisted(), along=1)
    assert isinstance(out, TermComplex)
    assert out.space == (GR24,)
    assert out.ranks() == {0: 4, 1: 3}
    h0 = cohomology(out.slots[0])
    assert h0.dims() == {0: 4}
    assert cohomology(out.slots[1]).dims() == {}  # S^2 U is acyclic


def test_pushforward_trivial_graph():
    cx = TermComplex((GR24, P3), {0: line((GR24, P3), (0, 0))})
    out = pushforward_complex(cx, along=1)
    assert out.ranks() == {0: 1}
    assert hypercohomology(out).dims() == {0: 1}


def test_pushforward_r2_clash_flagged():
    # pushed-factor degrees 0 (slot 2) and 1 (slot 0) admit an r = 2 arrow
    middle = irr((GR24, P3), [((0, -1), (1, 0)), ((0,), (0, 0, 0))])
    assert cohomology(irr((GR24,), [((0, -1), (1, 0))])).dims() == {1: 1}
    cx = TermComplex(
        (GR24, P3), {2: line((GR24, P3), (0, 0)), 0: middle}
    )
    res = pushforward_complex(cx, along=0)
    assert not res.determinate


def test_pushforward_index_checks():
    cx = TermComplex((GR24,), {0: line((GR24,), (0,))})
    with pytest.raises(ValueError):
        pushforward_complex(cx, along=1)
    with pytest.raises(ValueError):
        pushforward_complex(cx, along=0)  # would leave no factor


# ------------------------------------------------------------- kernel memos

def uncached_staircase(factor, sub, quot):
    """Reference: add rho, kill a repeat, sort, count inversions."""
    v = [a + r for a, r in zip(tuple(sub) + tuple(quot), factor.rho)]
    if len(set(v)) < len(v):
        return None
    inversions = sum(
        1 for i in range(len(v)) for j in range(i + 1, len(v)) if v[i] < v[j]
    )
    lam = [x - r for x, r in zip(sorted(v, reverse=True), factor.rho)]
    return inversions, Weight(lam)


def test_memoised_bott_factor_matches_uncached_staircase():
    rng = random.Random(5150)
    for _ in range(600):
        f = rng.choice([P3, GR23, GR24])
        sub = sorted((rng.randrange(-5, 6) for _ in range(f.k)), reverse=True)
        quot = sorted(
            (rng.randrange(-5, 6) for _ in range(f.n - f.k)), reverse=True
        )
        want = uncached_staircase(f, sub, quot)
        # asked twice: the second answer comes from the memo
        for _ in range(2):
            got = bott_factor(f, Weight(sub), Weight(quot))
            assert got == want
            if got is not None:
                assert got[1].dominant


def test_tensor_weights_returns_an_immutable_tuple():
    for rank, a, b in ((1, (2,), (-1,)), (2, (2, 0), (1, 0)),
                       (3, (1, 1, 1), (2, 0, -1))):
        out = _tensor_weights(rank, Weight(a), Weight(b))
        assert isinstance(out, tuple)
        assert out == _tensor_weights(rank, Weight(a), Weight(b))
    assert _tensor_weights(2, Weight((1, 0)), Weight((1, 0))) == (
        (Weight((1, 1)), 1), (Weight((2, 0)), 1))


def test_irr_still_rejects_non_dominant_and_wrong_rank():
    with pytest.raises(ValueError):
        irr((GR24,), [((0, 1), (0, 0))])
    with pytest.raises(ValueError):
        irr((GR24,), [((0, 0, 0), (0,))])
    with pytest.raises(ValueError):
        line((GR24,), (1, 2))


def _random_weight(rng, rank):
    return Weight(sorted((rng.randrange(-4, 5) for _ in range(rank)),
                         reverse=True))


def _random_term(rng, space):
    pairs = tuple((_random_weight(rng, f.k), _random_weight(rng, f.n - f.k))
                  for f in space)
    return Term(pairs, rng.randrange(1, 4), rng.randrange(-2, 3))


SPACES = [(P3,), (GR23,), (GR24,), (GR24, P3)]


def assert_frozen(value):
    """A cached value is built from tuples all the way down."""
    assert isinstance(value, tuple)
    for item in value:
        if not isinstance(item, int):
            assert_frozen(item)


def test_memoised_dual_pairs_match_a_fresh_run():
    rng = random.Random(2301)
    for _ in range(200):
        space = rng.choice(SPACES)
        t = _random_term(rng, space)
        fresh = _dual_pairs.__wrapped__(t.pairs)
        first = _dual_pairs(t.pairs)
        hits = _dual_pairs.cache_info().hits
        assert _dual_pairs(t.pairs) is first
        assert _dual_pairs.cache_info().hits == hits + 1
        assert first == fresh
        assert_frozen(first)
        assert all(isinstance(w, Weight) and w.dominant
                   for pair in first for w in pair)
        # the dual of the dual is the term itself
        assert _dual_pairs(first) == t.pairs


def test_trusted_terms_skip_the_checks_but_stay_immutable():
    t = Term._of(((Weight((1,)), Weight((0, 0, 0))),), 2, -1)
    assert (t.pairs, t.mult, t.shift) == (
        ((Weight((1,)), Weight((0, 0, 0))),), 2, -1)
    with pytest.raises(AttributeError):
        t.mult = 3
    with pytest.raises(ValueError):
        Term(t.pairs, 0)
    assert Term(t.pairs, "2", "-1").mult == 2


def test_euler_numbers_stay_integers_in_negative_degrees():
    # H^0 of this term is 15-dimensional; three copies shifted by one sit
    # in degree -1, where (-1) ** -1 is a float
    res = cohomology(irr((P3,), [((1,), (0, 0, -1))], mult=3, shift=1))
    assert min(res.dims()) < 0
    assert type(res.euler()) is int and res.euler() == -45
    table = Indeterminate((P3,), [(2, 1, 5), (0, 1, 3)], [])
    assert type(table.euler()) is int and table.euler() == -8
