"""Integer weights of general linear groups and their basic combinatorics.

A weight of GL(r) is an r-tuple of integers; it is dominant when the entries
are non-increasing.  Dominant weights index the irreducible representations
(Schur functors of the standard representation, twisted by determinant
powers), and everything downstream -- cohomology of homogeneous bundles,
Chern characters, tensor decompositions -- reduces to arithmetic on these
tuples.  All arithmetic is exact.

Validation sits at the boundary.  ``Weight(...)`` and the public functions
convert their input with ``int()``, and ``weyl_dim``, ``tensor_rank2`` and
``weight_multiset`` reject a wrong rank or a non-dominant weight with
``ValueError``.  Weights the engine builds itself from ints (sums,
twists, duals, tensor summands, Bott results) go through the trusted
constructor ``Weight._of``, which skips the conversion; ``dominant`` is
read off the entries whenever it is asked for.

A ``Weight`` is a ``tuple`` subclass, so the memos keyed by weights (here
and in ``bbw`` and ``chow``) hash and compare them in C.  The memoised
kernels of this module: the Weyl dimension of a dominant entry tuple
(``_weyl_dim``), a pure integer function in a bounded ``lru_cache``.
Bundles, complexes and Ext answers are not memoised in this module or in
``bbw``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, ge
from typing import Iterable

#: entries per kernel memo (here and in ``bbw``): the catalog's Ext queries
#: meet at most a few hundred distinct arguments per kernel, and the bound
#: caps the memory that arbitrary inputs can pin
KERNEL_CACHE = 4096


class Weight(tuple):
    """An integer weight of GL(r), r = len(entries).

    A ``tuple`` of ints, so hashing, equality, ordering, ``len`` and
    indexing run in C, and ``Weight((1, 0)) == (1, 0)`` is true.  ``+`` is
    entrywise addition, never concatenation; ``entries`` is the same
    integers as a plain tuple, which concatenates.  Immutable: there are no
    settable attributes.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[int]):
        w = tuple.__new__(cls, [int(e) for e in entries])
        if not w:
            raise ValueError("weight needs at least one entry")
        return w

    @classmethod
    def _of(cls, ent: Iterable[int]) -> "Weight":
        """Trusted constructor: ``ent`` is a non-empty sequence of ints."""
        return tuple.__new__(cls, ent)

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def dominant(self) -> bool:
        return all(map(ge, self, self[1:]))

    def __repr__(self) -> str:
        return f"Weight{tuple.__repr__(self)}"

    def __add__(self, other: "Weight") -> "Weight":
        if len(other) != len(self):
            raise ValueError("rank mismatch")
        return Weight._of(map(add, self, other))

    def twist(self, t: int) -> "Weight":
        """Add the determinant character t times (entrywise shift)."""
        return Weight._of([a + t for a in self])


def _as_entries(w) -> tuple[int, ...]:
    if isinstance(w, Weight):
        return w
    return tuple(int(e) for e in w)


def weyl_dim(n: int, w) -> int:
    """Dimension of the irreducible GL(n) representation with highest weight w.

    Weyl dimension formula: the product over i < j of
    (w_i - w_j + j - i) / (j - i).  Requires a dominant weight of length n.
    """
    ent = _as_entries(w)
    if len(ent) != n:
        raise ValueError(f"weight has length {len(ent)}, expected {n}")
    if not all(map(ge, ent, ent[1:])):
        raise ValueError(f"weight {ent} is not dominant")
    return _weyl_dim(ent)


@lru_cache(maxsize=KERNEL_CACHE)
def _weyl_dim(ent: tuple[int, ...]) -> int:
    """The Weyl dimension of a dominant entry tuple: one exact division of
    the integer numerator product by the denominator product."""
    n = len(ent)
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= ent[i] - ent[j] + j - i
            den *= j - i
    res, rem = divmod(num, den)
    assert rem == 0 and res > 0
    return res


def dualize(w) -> Weight:
    """Highest weight of the dual representation: reverse and negate."""
    if not isinstance(w, Weight):
        w = Weight(w)
    return Weight._of([-e for e in reversed(w)])


def tensor_rank2(a, b) -> tuple[tuple[Weight, int], ...]:
    """Decompose the tensor product of two irreducible GL(2) representations.

    Clebsch--Gordan for GL(2): with a = (a1, a2), b = (b1, b2) dominant,
    the product is multiplicity-free,

        sum over i = 0 .. min(a1 - a2, b1 - b2) of (a1 + b1 - i, a2 + b2 + i),

    returned as ``(weight, 1)`` pairs in increasing weight order.  Raises
    on non-dominant input.
    """
    ea, eb = _as_entries(a), _as_entries(b)
    if len(ea) != 2 or len(eb) != 2:
        raise ValueError("tensor_rank2 needs GL(2) weights")
    if ea[0] < ea[1] or eb[0] < eb[1]:
        raise ValueError("weights must be dominant")
    top = min(ea[0] - ea[1], eb[0] - eb[1])
    return tuple(
        (Weight._of((ea[0] + eb[0] - i, ea[1] + eb[1] + i)), 1)
        for i in range(top, -1, -1)
    )


def weight_multiset(w) -> list[tuple[int, ...]]:
    """All weights (with multiplicity) of the irreducible with highest weight w.

    Used to assemble characters and Chern characters.  Supported ranks:
      r = 1: the single weight;
      r = 2: the string (a1 - i, a2 + i), i = 0 .. a1 - a2;
      r = 3: Gelfand--Tsetlin patterns.
    Entries may be negative (determinant twists shift every weight entrywise).
    """
    ent = _as_entries(w)
    if any(x < y for x, y in zip(ent, ent[1:])):
        raise ValueError(f"weight {ent} is not dominant")
    r = len(ent)
    if r == 1:
        return [ent]
    if r == 2:
        a1, a2 = ent
        return [(a1 - i, a2 + i) for i in range(a1 - a2 + 1)]
    if r == 3:
        # Gelfand-Tsetlin: pick (m1, m2) interlacing (a1, a2, a3), then k in
        # [m2, m1]; weight entries are successive row-sum differences.
        a1, a2, a3 = ent
        out = []
        for m1 in range(a2, a1 + 1):
            for m2 in range(a3, a2 + 1):
                for k in range(m2, m1 + 1):
                    s2 = m1 + m2
                    out.append((k, s2 - k, a1 + a2 + a3 - s2))
        return out
    raise NotImplementedError(f"weight_multiset: rank {r} not needed/supported")
