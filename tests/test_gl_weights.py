"""Weight combinatorics: dimension formula, duality, GL(2) tensor products.

The dimension formula is cross-checked against an independent oracle
(brute-force semistandard tableau enumeration) on small shapes, then frozen
anchors keep the fast path honest.
"""

import itertools
import random
from fractions import Fraction

import pytest

from sodcheck.bbw import GR24, P3, bott_factor
from sodcheck.gl_weights import (
    Weight,
    dualize,
    tensor_rank2,
    weight_multiset,
    weyl_dim,
)


def ssyt_count(n, shape):
    """Oracle: count semistandard Young tableaux of the given shape, entries 1..n.

    Row-by-row enumeration with weakly increasing rows and strictly increasing
    columns.  Exponential, fine for the small shapes used here.
    """
    shape = [s for s in shape if s > 0]
    if not shape:
        return 1

    def rows_for(length, lower):
        # weakly increasing rows of given length, entrywise > lower (strict in
        # columns), entries <= n
        def rec(i, minval):
            if i == length:
                yield ()
                return
            lo = max(minval, lower[i] + 1) if i < len(lower) else minval
            for v in range(lo, n + 1):
                for rest in rec(i + 1, v):
                    yield (v,) + rest

        return rec(0, 1)

    def count_from(rowidx, prev):
        if rowidx == len(shape):
            return 1
        total = 0
        for row in rows_for(shape[rowidx], prev):
            total += count_from(rowidx + 1, row)
        return total

    return count_from(0, [0] * shape[0])


def test_weyl_dim_anchors():
    assert weyl_dim(4, (1, 0, 0, 0)) == 4
    assert weyl_dim(2, (2, 0)) == 3
    # independently recounted by the tableau oracle below
    assert weyl_dim(4, (1, 1, 0, 0)) == 6
    assert ssyt_count(4, (1, 1)) == 6


def test_weyl_dim_matches_tableau_oracle():
    rng = random.Random(20240811)
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        parts = sorted((rng.randrange(0, 4) for _ in range(n)), reverse=True)
        assert weyl_dim(n, parts) == ssyt_count(n, parts)


def test_weyl_dim_det_twist_invariance():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        parts = sorted((rng.randrange(0, 5) for _ in range(n)), reverse=True)
        w = Weight(parts)
        t = rng.randrange(-6, 7)
        assert weyl_dim(n, w) == weyl_dim(n, w.twist(t))


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dim(2, (0, 1))
    with pytest.raises(ValueError):
        weyl_dim(3, (1, 2, 0))


def test_dualize_anchors():
    assert dualize((2, 0)) == Weight((0, -2))
    assert dualize((1, 1)) == Weight((-1, -1))
    assert dualize((3, 1)) == Weight((-1, -3))


def test_dualize_involution_and_dimension():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.choice([1, 2, 3, 4])
        parts = sorted((rng.randrange(-4, 5) for _ in range(n)), reverse=True)
        w = Weight(parts)
        assert dualize(dualize(w)) == w
        assert w.dominant and dualize(w).dominant
        assert weyl_dim(n, w) == weyl_dim(n, dualize(w))


def test_tensor_rank2_anchors():
    out = tensor_rank2((1, 0), (1, 0))
    assert out == ((Weight((1, 1)), 1), (Weight((2, 0)), 1))
    # a determinant power just shifts
    out = tensor_rank2((3, 3), (2, 0))
    assert out == ((Weight((5, 3)), 1),)
    out = tensor_rank2((2, 0), (2, 0))
    assert out == (
        (Weight((2, 2)), 1), (Weight((3, 1)), 1), (Weight((4, 0)), 1)
    )


def _dominant_gl2(lo, hi):
    for a1 in range(lo, hi + 1):
        for a2 in range(lo, a1 + 1):
            yield (a1, a2)


def test_tensor_rank2_dimension_multiplicative_exhaustive():
    # every dominant pair with entries in [-4, 4]
    weights = list(_dominant_gl2(-4, 4))
    for a, b in itertools.product(weights, repeat=2):
        out = tensor_rank2(a, b)
        total = sum(m * weyl_dim(2, w) for w, m in out)
        assert total == weyl_dim(2, a) * weyl_dim(2, b)
        # all summands dominant, multiplicity-free for GL(2)
        assert all(w.dominant and m == 1 for w, m in out)


def test_tensor_rank2_commutes():
    rng = random.Random(4242)
    for _ in range(100):
        a = tuple(sorted((rng.randrange(-5, 6) for _ in range(2)), reverse=True))
        b = tuple(sorted((rng.randrange(-5, 6) for _ in range(2)), reverse=True))
        assert tensor_rank2(a, b) == tensor_rank2(b, a)


def test_tensor_rank2_rejects_non_dominant():
    with pytest.raises(ValueError):
        tensor_rank2((0, 1), (1, 0))


def test_weight_multiset_sizes_and_det_degree():
    rng = random.Random(31337)
    for _ in range(60):
        r = rng.choice([1, 2, 3])
        parts = sorted((rng.randrange(-3, 4) for _ in range(r)), reverse=True)
        ms = weight_multiset(parts)
        assert len(ms) == weyl_dim(r, parts)
        # every weight of the irreducible has the same coordinate sum
        assert {sum(v) for v in ms} == {sum(parts)}


def test_weight_multiset_rank3_anchor():
    ms = weight_multiset((1, 0, 0))
    assert sorted(ms) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert len(weight_multiset((2, 1, 0))) == weyl_dim(3, (2, 1, 0)) == 8


# ------------------------------------------------- integer kernel, trusted path

def fraction_weyl_dim(ent):
    """Reference: the Weyl product as exact rationals, factor by factor."""
    n = len(ent)
    res = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            res *= Fraction(ent[i] - ent[j] + j - i, j - i)
    assert res.denominator == 1
    return int(res)


def test_integer_weyl_dim_matches_fraction_formula():
    rng = random.Random(1409)
    for _ in range(400):
        n = rng.choice([1, 2, 3, 4])
        parts = sorted((rng.randrange(-5, 6) for _ in range(n)), reverse=True)
        assert weyl_dim(n, parts) == fraction_weyl_dim(parts)
        assert weyl_dim(n, Weight(parts)) == fraction_weyl_dim(parts)


def test_weyl_dim_checks_rank_and_dominance_even_when_memoised():
    assert weyl_dim(2, (1, 0)) == 2
    with pytest.raises(ValueError):
        weyl_dim(3, (1, 0))
    with pytest.raises(ValueError):
        weyl_dim(2, (0, 1))
    with pytest.raises(ValueError):
        weyl_dim(2, Weight((0, 1)))


def test_trusted_weight_behaves_like_a_checked_one():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.choice([1, 2, 3, 4])
        ent = tuple(rng.randrange(-5, 6) for _ in range(n))
        other = tuple(rng.randrange(-5, 6) for _ in range(n))
        fast, checked = Weight._of(ent), Weight(ent)
        assert fast == checked and hash(fast) == hash(checked)
        assert fast.dominant == checked.dominant == (
            list(ent) == sorted(ent, reverse=True))
        assert (fast < Weight(other)) == (checked < Weight(other))
        assert (Weight._of(other) < fast) == (Weight(other) < checked)


def test_engine_built_weights_carry_the_dominant_flag():
    w = Weight((2, 0))
    assert (w + Weight((0, 3))).dominant is False
    assert (w + Weight((1, 1))).dominant is True
    assert w.twist(-3) == Weight((-1, -3)) and w.twist(-3).dominant
    assert dualize(w).dominant and not dualize(Weight((0, 2))).dominant
    assert all(s.dominant for s, _ in tensor_rank2((3, 0), (2, 1)))


# ------------------------------------------------------ tuple-backed Weight

def test_weight_addition_is_entrywise_never_concatenation():
    rng = random.Random(2304)
    for _ in range(100):
        n = rng.choice([1, 2, 3, 4])
        a = [rng.randrange(-5, 6) for _ in range(n)]
        b = [rng.randrange(-5, 6) for _ in range(n)]
        total = Weight(a) + Weight(b)
        assert type(total) is Weight and len(total) == n
        assert total == Weight([x + y for x, y in zip(a, b)])
    with pytest.raises(ValueError):
        Weight((1, 0)) + Weight((1, 0, 0))
    with pytest.raises(ValueError):
        Weight((1, 0)) + (1, 0, 0)


def test_weight_entries_are_a_plain_tuple_that_concatenates():
    w = Weight((2, 0))
    assert type(w.entries) is tuple and w.entries == (2, 0)
    assert w.entries + Weight((1,)).entries == (2, 0, 1)
    # a weight is its tuple of entries
    assert w == (2, 0) and Weight((1, 0)) == (1, 0)
    assert hash(w) == hash((2, 0)) and w != (2, 0, 0)


def test_weight_has_no_settable_attributes():
    w = Weight((3, 1))
    for name, value in (("entries", (0, 0)), ("dominant", False),
                        ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(w, name, value)
    assert w == (3, 1) and w.dominant


def test_weight_checks_its_input():
    assert Weight(["2", 1.0]) == (2, 1)
    assert all(type(e) is int for e in Weight(["2", 1.0]))
    with pytest.raises(ValueError):
        Weight(())
    with pytest.raises(ValueError):
        Weight(("x",))


def test_weight_dominance_hash_and_order_follow_the_entries():
    rng = random.Random(2305)
    for _ in range(200):
        n = rng.choice([1, 2, 3, 4])
        ent = tuple(rng.randrange(-5, 6) for _ in range(n))
        other = tuple(rng.randrange(-5, 6) for _ in range(n))
        w = Weight(ent)
        assert w.dominant == (list(ent) == sorted(ent, reverse=True))
        assert hash(w) == hash(ent) == hash(Weight._of(ent))
        assert (w < Weight(other)) == (ent < other)
        assert sorted([Weight(other), w]) == sorted([other, ent])
        assert repr(w) == f"Weight{ent}"


def test_bott_factor_still_concatenates_sub_and_quot():
    # O(-1) on P3: sub (-1,) ++ quot (0, 0, 0) + rho (3, 2, 1, 0) has the
    # repeat 2, 2; an entrywise sum would not even have the right length
    assert bott_factor(P3, Weight((-1,)), Weight((0, 0, 0))) is None
    assert bott_factor(P3, Weight((-4,)), Weight((0, 0, 0))) == (
        3, Weight((-1, -1, -1, -1)))
    assert bott_factor(GR24, Weight((1, 0)), Weight((0, 0))) == (
        0, Weight((1, 0, 0, 0)))
