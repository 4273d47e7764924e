"""Cohomology of equivariant bundles on products of Grassmannian factors.

A factor is Gr(k, n) with tautological subbundle U of rank k and quotient
Q = V/U of rank n - k.  An equivariant bundle is a finite direct sum of
terms, each term a product over the factors of

    (irreducible with highest weight ``sub`` applied to U-dual)
  x (irreducible with highest weight ``quot`` applied to Q-dual).

With that bookkeeping the Bott algorithm is pure weight arithmetic: the full
weight is sub ++ quot; add the staircase rho = (n-1, ..., 1, 0); a repeated
entry kills the term; otherwise sorting decreasingly with ell inversions puts
all cohomology of the term in degree ell, equal to the irreducible ambient
representation with highest weight (sorted - rho).

Complexes of such bundles (resolutions, Koszul complexes) are evaluated by
their cohomology table: each term lands in a cell (position p, degree q), and
the answer is the direct sum over cells of homological degree q - p PROVIDED
no possible connecting differential joins two occupied cells.  A differential
of the r-th stage moves (p, q) -> (p - r, q + r - 1):

  * ``hypercohomology`` insists on determinacy for every r >= 1 and otherwise
    returns an :class:`Indeterminate` describing the clash -- it never
    guesses;
  * ``pushforward_complex`` collapses one factor only; there the r = 1
    arrows between adjacent cells are the differentials OF the resulting
    complex (they survive into the output), so only r >= 2 clashes make the
    output indeterminate.

Example conventions for a factor Gr(2, n): O(t) is sub-weight (t, t);
U = sub (0, -1); U-dual = sub (1, 0); S^2 U = sub (0, -2); Q-dual = quot
(1, 0).  On the projective-space factor Gr(1, 4), O(t) is sub-weight (t,).
Everything is exact integer arithmetic.

Weights are validated once, where they enter: ``irr`` and ``line`` go
through ``_pair``, which converts with ``int()`` and rejects a wrong rank or
a non-dominant weight, and ``Term(...)`` checks its multiplicity.  Every
weight and term the engine derives from those (duals, twists, shifts,
tensor summands, pushforwards, Bott results) is built by the trusted
``Weight._of`` and ``Term._of``.

Three kernels are pure functions of immutable weight data and are
memoised in bounded ``lru_cache``s, each returning tuples so that a cached
value cannot be mutated: ``bott_factor`` on (factor, sub, quot),
``_tensor_weights`` on (rank, a, b) and ``_dual_pairs`` on a term's weight
pairs.  The weight assembly of a product of two terms is not memoised: it
is a few tuple concatenations over ``_tensor_weights`` hits.  Bundles,
complexes and answers are not memoised here.  Terms, bundles, complexes
and answers are immutable (read-only mappings and tuples), so any of them
can be shared: the constant complexes of the catalog (the incidence Koszul
complex, the surface structure and ideal complexes, the plane Koszul
complex, the fourfold's structure-sheaf complex), the fourfold's plane
staircases and the Hom bundle and tensored Koszul complex of each pair of
bundle kinds are built once, in ``varieties``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Sequence

from .gl_weights import KERNEL_CACHE, Weight, dualize, tensor_rank2, weyl_dim


class HomFactor:
    """The Grassmannian Gr(k, n) of k-dimensional subspaces, as a factor."""

    __slots__ = ("k", "n", "name")

    def __init__(self, k: int, n: int, name: str):
        if not 0 < k < n:
            raise ValueError("need 0 < k < n")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("HomFactor is immutable")

    @property
    def dim(self) -> int:
        return self.k * (self.n - self.k)

    @property
    def rho(self) -> tuple[int, ...]:
        return tuple(range(self.n - 1, -1, -1))

    @property
    def canonical_twist(self) -> int:
        """omega = O(canonical_twist) in units of the Pluecker generator."""
        return -self.n

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomFactor)
            and (self.k, self.n) == (other.k, other.n)
        )

    def __hash__(self) -> int:
        return hash((self.k, self.n))


#: the three factor types in actual use
P3 = HomFactor(1, 4, "P3")
GR23 = HomFactor(2, 3, "Gr23")
GR24 = HomFactor(2, 4, "Gr24")


def _pair(factor: HomFactor, sub, quot) -> tuple[Weight, Weight]:
    sw = sub if isinstance(sub, Weight) else Weight(sub)
    qw = quot if isinstance(quot, Weight) else Weight(quot)
    if len(sw) != factor.k or len(qw) != factor.n - factor.k:
        raise ValueError(f"weight ranks do not match {factor!r}")
    if not (sw.dominant and qw.dominant):
        raise ValueError("term weights must be dominant")
    return (sw, qw)


class Term:
    """One irreducible summand: per-factor (sub, quot) weights, an integer
    multiplicity, and a formal homological shift."""

    __slots__ = ("pairs", "mult", "shift")

    def __init__(self, pairs, mult: int = 1, shift: int = 0):
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "mult", int(mult))
        object.__setattr__(self, "shift", int(shift))
        if self.mult <= 0:
            raise ValueError("multiplicity must be positive")

    @classmethod
    def _of(cls, pairs: tuple, mult: int, shift: int) -> "Term":
        """Trusted constructor for the terms the engine derives itself:
        ``pairs`` is a tuple of checked weight pairs, ``mult`` a positive
        int and ``shift`` an int."""
        t = object.__new__(cls)
        object.__setattr__(t, "pairs", pairs)
        object.__setattr__(t, "mult", mult)
        object.__setattr__(t, "shift", shift)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Term is immutable")

    def rank(self, space: Sequence[HomFactor]) -> int:
        r = self.mult
        for f, (sw, qw) in zip(space, self.pairs):
            r *= weyl_dim(f.k, sw) * weyl_dim(f.n - f.k, qw)
        return r

    def __repr__(self) -> str:
        body = " x ".join(
            f"({tuple(s)}|{tuple(q)})" for s, q in self.pairs
        )
        extra = (f" mult={self.mult}" if self.mult != 1 else "") + (
            f" shift={self.shift}" if self.shift else ""
        )
        return f"Term[{body}{extra}]"


class EquivariantBundle:
    """A direct sum of terms on a fixed product of factors."""

    __slots__ = ("space", "terms")

    def __init__(self, space, terms: Iterable[Term]):
        object.__setattr__(self, "space", tuple(space))
        object.__setattr__(self, "terms", tuple(terms))
        for t in self.terms:
            if len(t.pairs) != len(self.space):
                raise ValueError("term does not match the factor count")

    def __setattr__(self, name, value):
        raise AttributeError("EquivariantBundle is immutable")

    def rank(self) -> int:
        return sum(t.rank(self.space) for t in self.terms)

    def dual(self) -> "EquivariantBundle":
        return EquivariantBundle(
            self.space,
            (Term._of(_dual_pairs(t.pairs), t.mult, -t.shift)
             for t in self.terms),
        )

    def twist(self, twists: Sequence[int]) -> "EquivariantBundle":
        """Tensor with the line bundle O(twists) (one Pluecker twist per factor)."""
        if len(twists) != len(self.space):
            raise ValueError("one twist per factor")
        out = []
        for t in self.terms:
            pairs = tuple(
                (s.twist(tw), q) for (s, q), tw in zip(t.pairs, twists)
            )
            out.append(Term._of(pairs, t.mult, t.shift))
        return EquivariantBundle(self.space, out)

    def tensor(self, other: "EquivariantBundle") -> "EquivariantBundle":
        if self.space != other.space:
            raise ValueError("tensor needs matching factor spaces")
        out: list[Term] = []
        for a in self.terms:
            for b in other.terms:
                out.extend(_tensor_terms(self.space, a, b))
        return EquivariantBundle(self.space, out)

    def shifted(self, s: int) -> "EquivariantBundle":
        return EquivariantBundle(
            self.space,
            (Term._of(t.pairs, t.mult, t.shift + s) for t in self.terms),
        )

    def __add__(self, other: "EquivariantBundle") -> "EquivariantBundle":
        if self.space != other.space:
            raise ValueError("direct sum needs matching factor spaces")
        return EquivariantBundle(self.space, self.terms + other.terms)

    def __repr__(self) -> str:
        return f"EquivariantBundle({list(self.terms)!r})"


def line(space, twists: Sequence[int]) -> EquivariantBundle:
    """The line bundle O(t_1, ..., t_m), t_i the Pluecker twist on factor i."""
    space = tuple(space)
    if len(twists) != len(space):
        raise ValueError("one twist per factor")
    pairs = []
    for f, t in zip(space, twists):
        pairs.append(_pair(f, (t,) * f.k, (0,) * (f.n - f.k)))
    return EquivariantBundle(space, [Term(pairs)])


def irr(space, pairs, mult: int = 1, shift: int = 0) -> EquivariantBundle:
    """A single irreducible term; ``pairs`` is one (sub, quot) per factor."""
    space = tuple(space)
    checked = tuple(_pair(f, s, q) for f, (s, q) in zip(space, pairs))
    if len(checked) != len(space):
        raise ValueError("one weight pair per factor")
    return EquivariantBundle(space, [Term(checked, mult, shift)])


@lru_cache(maxsize=KERNEL_CACHE)
def _tensor_weights(rank: int, a: Weight, b: Weight):
    """Decompose the GL(rank) product of two irreducibles as a tuple of
    (weight, mult) pairs.

    Full decompositions are implemented for rank <= 2; in rank 3 one side
    must be a power of the determinant (all catalog data keeps within this).
    """
    if rank == 1:
        return ((a + b, 1),)
    if rank == 2:
        return tensor_rank2(a, b)
    det_a = len(set(a.entries)) == 1
    det_b = len(set(b.entries)) == 1
    if det_a or det_b:
        return ((a + b, 1),)
    raise NotImplementedError(
        f"GL({rank}) tensor of two non-determinant weights is not needed"
    )


@lru_cache(maxsize=KERNEL_CACHE)
def _dual_pairs(pairs):
    """The weight pairs of a term's dual, as a tuple."""
    return tuple((dualize(s), dualize(q)) for s, q in pairs)


def _tensor_terms(space, a: Term, b: Term) -> list[Term]:
    partial: list[tuple[tuple[tuple[Weight, Weight], ...], int]] = [((), 1)]
    for f, (sa, qa), (sb, qb) in zip(space, a.pairs, b.pairs):
        subs = _tensor_weights(f.k, sa, sb)
        quots = _tensor_weights(f.n - f.k, qa, qb)
        nxt = []
        for pairs, m in partial:
            for sw, sm in subs:
                for qw, qm in quots:
                    nxt.append((pairs + ((sw, qw),), m * sm * qm))
        partial = nxt
    mult, shift = a.mult * b.mult, a.shift + b.shift
    return [Term._of(pairs, mult * m, shift) for pairs, m in partial]


@lru_cache(maxsize=KERNEL_CACHE)
def bott_factor(factor: HomFactor, sub: Weight, quot: Weight):
    """Bott's algorithm on one factor.

    Returns None when all cohomology vanishes, else (degree, ambient_weight)
    where ambient_weight is the dominant GL(n) highest weight of the (unique)
    nonzero cohomology group, sitting in the returned degree.
    """
    full = sub.entries + quot.entries
    rho = factor.rho
    v = tuple(a + r for a, r in zip(full, rho))
    if len(set(v)) < len(v):
        return None
    inversions = 0
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            if v[i] < v[j]:
                inversions += 1
    lam = tuple(x - r for x, r in zip(sorted(v, reverse=True), rho))
    return inversions, Weight._of(lam)


class GradedSpace:
    """Graded vector space with ambient-weight labels: degree -> {key: mult}.

    Keys are tuples of per-factor ambient weights, so the answer remembers
    not just dimensions but which representation showed up (e.g. the dual of
    the defining representation).  Immutable like a ``TermComplex``: its
    layers and dimensions are read-only mappings, computed once.
    """

    __slots__ = ("space", "layers", "_dims")
    determinate = True

    def __init__(self, space, layers):
        space = tuple(space)
        cells, dims = {}, {}
        for deg in sorted(layers):
            cell = cells[deg] = MappingProxyType(dict(layers[deg]))
            d = sum(m * _key_dim(space, k) for k, m in cell.items())
            if d:
                dims[deg] = d
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "layers", MappingProxyType(cells))
        object.__setattr__(self, "_dims", MappingProxyType(dims))

    def __setattr__(self, name, value):
        raise AttributeError("GradedSpace is immutable")

    def dims(self) -> MappingProxyType:
        """Degree -> dimension, zeros dropped, by degree; read-only."""
        return self._dims

    def weights(self, degree: int) -> list[tuple[tuple[Weight, ...], int]]:
        return sorted(
            self.layers.get(degree, {}).items(),
            key=itemgetter(0),
        )

    @property
    def is_zero(self) -> bool:
        return not self._dims

    def euler(self) -> int:
        return sum(-d if deg % 2 else d for deg, d in self._dims.items())

    def __repr__(self) -> str:
        return f"GradedSpace({dict(self._dims)!r})"


def _key_dim(space, key: tuple[Weight, ...]) -> int:
    d = 1
    for f, w in zip(space, key):
        d *= weyl_dim(f.n, w)
    return d


class Indeterminate:
    """A cohomology table whose total answer is not forced by the staircase.

    ``entries`` lists the occupied cells (position, degree, dimension);
    ``collisions`` the pairs joined by a possible differential.  This is a
    first-class result: callers decide what to do, nothing is guessed.
    Immutable (both are tuples), so a table can be shared.
    """

    __slots__ = ("space", "entries", "collisions")
    determinate = False

    def __init__(self, space, entries, collisions):
        object.__setattr__(self, "space", tuple(space))
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "collisions", tuple(collisions))

    def __setattr__(self, name, value):
        raise AttributeError("Indeterminate is immutable")

    @property
    def is_zero(self) -> bool:
        return False

    def euler(self) -> int:
        """Alternating sum by q - p: exact, as no differential changes it."""
        return sum(-d if (q - p) % 2 else d for p, q, d in self.entries)

    def describe(self) -> str:
        cells = ", ".join(f"(p={p}, q={q}, dim={d})" for p, q, d in self.entries)
        return f"indeterminate table [{cells}]"

    def __repr__(self) -> str:
        return f"Indeterminate({self.describe()})"


class TermComplex:
    """A finite complex of equivariant bundles; slot p maps to slot p - 1.

    Immutable, like its bundles (``slots`` is a read-only mapping), so one
    complex can be shared by every caller.
    """

    __slots__ = ("space", "slots")

    def __init__(self, space, slots: dict[int, EquivariantBundle]):
        object.__setattr__(self, "space", tuple(space))
        object.__setattr__(self, "slots", MappingProxyType(
            {int(p): b for p, b in slots.items() if b.terms}
        ))
        for b in self.slots.values():
            if b.space != self.space:
                raise ValueError("all slots must live on the complex's space")

    def __setattr__(self, name, value):
        raise AttributeError("TermComplex is immutable")

    def twist(self, twists: Sequence[int]) -> "TermComplex":
        return TermComplex(
            self.space, {p: b.twist(twists) for p, b in self.slots.items()}
        )

    def tensor(self, bundle: EquivariantBundle) -> "TermComplex":
        return TermComplex(
            self.space, {p: b.tensor(bundle) for p, b in self.slots.items()}
        )

    def ranks(self) -> dict[int, int]:
        return {p: b.rank() for p, b in sorted(self.slots.items())}

    def __repr__(self) -> str:
        return f"TermComplex(positions {sorted(self.slots)})"


def cohomology(bundle: EquivariantBundle) -> GradedSpace:
    """Sheaf cohomology of a single equivariant bundle (always determinate)."""
    layers: dict[int, dict[tuple[Weight, ...], int]] = {}
    for term in bundle.terms:
        res = _term_cohomology(bundle.space, term)
        if res is None:
            continue
        degree, key = res
        cell = layers.setdefault(degree - term.shift, {})
        cell[key] = cell.get(key, 0) + term.mult
    return GradedSpace(bundle.space, layers)


def _term_cohomology(space, term: Term):
    degree = 0
    key = []
    for f, (sw, qw) in zip(space, term.pairs):
        r = bott_factor(f, sw, qw)
        if r is None:
            return None
        degree += r[0]
        key.append(r[1])
    return degree, tuple(key)


def _cell_table(cx: TermComplex):
    """E_1-style table: {(p, q): {key: mult}} plus per-cell dimensions."""
    cells: dict[tuple[int, int], dict[tuple[Weight, ...], int]] = {}
    for p, bundle in cx.slots.items():
        for term in bundle.terms:
            res = _term_cohomology(cx.space, term)
            if res is None:
                continue
            q, key = res
            cell = cells.setdefault((p, q - term.shift), {})
            cell[key] = cell.get(key, 0) + term.mult
    return cells


def _collisions(cells, min_r: int):
    found = []
    occupied = sorted(cells)
    for p1, q1 in occupied:
        for p2, q2 in occupied:
            r = p1 - p2
            if r >= min_r and q2 - q1 == r - 1:
                found.append(((p1, q1), (p2, q2), r))
    return found


def _cell_entries(space, cells):
    return [
        (p, q, sum(m * _key_dim(space, k) for k, m in cell.items()))
        for (p, q), cell in sorted(cells.items())
    ]


def hypercohomology(cx: TermComplex):
    """Total cohomology of the complex, or Indeterminate.

    Determinate exactly when no possible differential (any stage r >= 1)
    connects two occupied cells; then the table collapses by degree q - p.
    """
    cells = _cell_table(cx)
    clashes = _collisions(cells, min_r=1)
    if clashes:
        return Indeterminate(cx.space, _cell_entries(cx.space, cells), clashes)
    layers: dict[int, dict[tuple[Weight, ...], int]] = {}
    for (p, q), cell in cells.items():
        layer = layers.setdefault(q - p, {})
        for key, m in cell.items():
            layer[key] = layer.get(key, 0) + m
    return GradedSpace(cx.space, layers)


def pushforward_complex(cx: TermComplex, along: int):
    """Collapse one factor of the complex by its cohomology.

    The result is a complex on the remaining factors: a term in slot p whose
    ``along``-factor cohomology sits in degree q lands in slot p - q, with
    multiplicity scaled by the dimension of that cohomology representation.
    Differentials between adjacent output slots are the r = 1 arrows of the
    table, so those do not obstruct; a possible r >= 2 arrow does, and then
    Indeterminate is returned instead.
    """
    space = cx.space
    if not 0 <= along < len(space):
        raise ValueError("factor index out of range")
    rest = tuple(f for i, f in enumerate(space) if i != along)
    if not rest:
        raise ValueError("pushforward must leave at least one factor")
    factor = space[along]

    cells: dict[tuple[int, int], list[Term]] = {}
    for p, bundle in cx.slots.items():
        for term in bundle.terms:
            sw, qw = term.pairs[along]
            res = bott_factor(factor, sw, qw)
            if res is None:
                continue
            q, lam = res
            rest_pairs = tuple(
                pr for i, pr in enumerate(term.pairs) if i != along
            )
            mult = term.mult * weyl_dim(factor.n, lam)
            cells.setdefault((p, q), []).append(
                Term._of(rest_pairs, mult, term.shift)
            )

    dim_cells = {
        pq: {(): sum(t.mult for t in ts)} for pq, ts in cells.items()
    }
    clashes = _collisions(dim_cells, min_r=2)
    if clashes:
        entries = [
            (p, q, sum(t.rank(rest) for t in ts))
            for (p, q), ts in sorted(cells.items())
        ]
        return Indeterminate(space, entries, clashes)

    slots: dict[int, list[Term]] = {}
    for (p, q), ts in cells.items():
        slots.setdefault(p - q, []).extend(ts)
    return TermComplex(
        rest, {pos: EquivariantBundle(rest, ts) for pos, ts in slots.items()}
    )
