"""Integral Chow rings, Chern characters and exact Euler pairings.

Each ring is a finite free Z-module with a fixed basis of cycle classes, a
sparse multiplication table, and a degree functional on the top codimension.
Classes carry `fractions.Fraction` coefficients -- Chern characters and Todd
classes are honestly rational.

Euler characteristics go through one core: Hirzebruch-Riemann-Roch as a
bilinear form on A(X)_Q (Fulton, Intersection Theory, Sec. 15).  For a
weight class w (1 for plain chi) a ring builds, on first use, the linear
form T_k = deg(b_k . w . td) and the pairing matrix
P_ij = sum_m mul(i, j)[m] T_m, both as integers over one denominator, and
caches them.  chi(x) is T.x and chi(a, b) is sum (-1)^codim(i) a_i P_ij b_j,
evaluated on each class's integer numerators over their lcm.  The final
rational is asserted to be an integer (`IntegralityError` otherwise), which
is a real consistency check of the tables.  A class computes those integer
numerators the first time it is paired and keeps them: classes never change
after construction, so the same class is paired again at integer cost.

Two kinds of rings are provided:

* homogeneous rings for the Grassmannian factors (and their products), which
  also carry the Chern characters of the tautological bundles.  The Chern
  character of any equivariant bundle is evaluated in the ring itself: Adams
  operations on those characters give the power sums of the roots, Newton's
  identities the complete classes, and the Jacobi-Trudi determinant the
  Schur functor (Fulton-Harris, Representation Theory, App. A; Macdonald,
  Symmetric Functions and Hall Polynomials, I.2-I.3);
* the blowup of projective 3-space in N points, with exceptional divisor
  square classes, line-bundle characters in closed form and the pushforward
  characters of sheaves on the exceptional planes.

The Grassmannian multiplication tables are generated from the Pieri rule at
build time; the test suite freezes the resulting values.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .bbw import GR23, GR24, P3, EquivariantBundle, HomFactor, irr

Frac = Fraction


class ChowClass:
    """An element of a ChowRing: a coefficient vector over the cycle basis.

    A class is immutable; ``numerators`` keeps its integer form once asked.
    """

    __slots__ = ("ring", "coeffs", "_numerators")

    def __init__(self, ring: "ChowRing", coeffs: Sequence[Frac]):
        self.ring = ring
        self.coeffs = tuple(
            c if type(c) is Frac else Frac(c) for c in coeffs
        )
        if len(self.coeffs) != len(ring.basis):
            raise ValueError("coefficient vector does not match the basis")
        self._numerators = None

    def numerators(self) -> tuple[tuple[int, ...], int]:
        """``(nums, den)``: the coefficients as integers over their lcm,
        computed on first use and kept with the class."""
        got = self._numerators
        if got is None:
            den = math.lcm(*(c.denominator for c in self.coeffs))
            got = self._numerators = (
                tuple(c.numerator * (den // c.denominator)
                      for c in self.coeffs),
                den,
            )
        return got

    def __add__(self, other: "ChowClass") -> "ChowClass":
        self._same(other)
        return ChowClass(
            self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        self._same(other)
        return ChowClass(
            self.ring, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "ChowClass":
        return ChowClass(self.ring, [-a for a in self.coeffs])

    def scale(self, k) -> "ChowClass":
        k = Frac(k)
        return ChowClass(self.ring, [k * a for a in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, ChowClass):
            return self.scale(other)
        self._same(other)
        ring = self.ring
        out = [Frac(0)] * len(ring.basis)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                for k, c in ring.mul_basis(i, j).items():
                    out[k] += a * b * c
        return ChowClass(ring, out)

    __rmul__ = __mul__

    def _same(self, other: "ChowClass") -> None:
        if self.ring is not other.ring:
            raise ValueError("classes live in different rings")

    def component(self, codim: int) -> "ChowClass":
        return ChowClass(
            self.ring,
            [
                c if self.ring.codim[i] == codim else Frac(0)
                for i, c in enumerate(self.coeffs)
            ],
        )

    def rank(self) -> Frac:
        """The codimension-zero coefficient (virtual rank of a K-class)."""
        return sum(
            (c for i, c in enumerate(self.coeffs) if self.ring.codim[i] == 0),
            Frac(0),
        )

    def dual(self) -> "ChowClass":
        """Chern character of the derived dual: negate odd codimensions."""
        return ChowClass(
            self.ring,
            [
                -c if self.ring.codim[i] % 2 else c
                for i, c in enumerate(self.coeffs)
            ],
        )

    def adams(self, k: int) -> "ChowClass":
        """Adams operation psi^k on a Chern character: the codimension-d
        part scaled by k^d (psi^-1 is the dual)."""
        return ChowClass(
            self.ring,
            [c * k ** self.ring.codim[i] for i, c in enumerate(self.coeffs)],
        )

    def degree(self) -> Frac:
        return sum(
            (c * d for c, d in zip(self.coeffs, self.ring.deg)), Frac(0)
        )

    def exp(self) -> "ChowClass":
        """exp of a class with zero rank part (nilpotent), e.g. a divisor."""
        if self.rank() != 0:
            raise ValueError("exp needs a rank-zero (nilpotent) class")
        out = self.ring.one()
        power = self.ring.one()
        fact = 1
        for n in range(1, self.ring.dim + 1):
            power = power * self
            fact *= n
            out = out + power.scale(Frac(1, fact))
        return out

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChowClass)
            and self.ring is other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self.coeffs))

    def __repr__(self) -> str:
        parts = [
            (f"{c}*{lbl}" if c != 1 or lbl == "1" else lbl)
            for lbl, c in zip(self.ring.basis, self.coeffs)
            if c
        ]
        return " + ".join(parts) if parts else "0"


class ChowRing:
    """Finite-rank graded ring with a sparse basis multiplication table."""

    def __init__(self, name, dim, basis, codim, table, deg):
        self.name = name
        self.dim = dim
        self.basis = tuple(basis)
        self.codim = tuple(codim)
        self._table = table  # {(i, j) i<=j: {k: Frac}}
        self.deg = tuple(Frac(d) for d in deg)
        self.index = {lbl: i for i, lbl in enumerate(self.basis)}
        # optional equipment, set by builders:
        self.factors: tuple[HomFactor, ...] = ()
        self._taut: list[tuple[ChowClass, ChowClass]] = []  # ch(U), ch(Q)
        self.todd: ChowClass | None = None
        self.canonical_ch: ChowClass | None = None
        self._ch_cache: dict = {}
        self._forms: dict = {}  # weight coefficients -> PairingForm

    def mul_basis(self, i: int, j: int) -> dict[int, Frac]:
        if i > j:
            i, j = j, i
        return self._table.get((i, j), {})

    def zero(self) -> ChowClass:
        return ChowClass(self, [Frac(0)] * len(self.basis))

    def one(self) -> ChowClass:
        units = [i for i, cd in enumerate(self.codim) if cd == 0]
        assert len(units) == 1
        vec = [Frac(0)] * len(self.basis)
        vec[units[0]] = Frac(1)
        return ChowClass(self, vec)

    def monomial(self, label: str, coeff=1) -> ChowClass:
        vec = [Frac(0)] * len(self.basis)
        vec[self.index[label]] = Frac(coeff)
        return ChowClass(self, vec)

    def __repr__(self) -> str:
        return f"ChowRing({self.name}, dim={self.dim}, rank={len(self.basis)})"


# --------------------------------------------------------------------------
# Chern characters of Schur bundles

def _ch_rep(ring, weight, ch_e):
    """Chern character of the irreducible Schur bundle with highest weight
    ``weight`` applied to the DUAL of the bundle E with character ``ch_e``.

    Write weight = lam + t(1, ..., 1) with lam a partition.  With x_i the
    Chern roots of E, the character is s_weight(y) for y_i = exp(-x_i), so:

    * the power sums p_k(y) are the Adams operations psi^k ch(E-dual), the
      degree-d part of ch(E) scaled by (-k)^d (Fulton-Harris, App. A);
    * Newton's identities m h_m = sum_i p_i h_{m-i} give the complete
      classes h_m(y), and the Jacobi-Trudi determinant det(h_{lam_i-i+j})
      gives s_lam(y) (Macdonald, Symmetric Functions, I.2-I.3);
    * the twist (y_1 ... y_r)^t is exp(-t c_1(E)).
    """
    t = weight[-1]
    lam = [w - t for w in weight if w != t]
    n = len(lam)
    top = lam[0] + n - 1 if lam else 0  # the largest h_m the matrix uses
    p = [None] + [ch_e.adams(-k) for k in range(1, top + 1)]
    h = [ring.one()]
    for m in range(1, top + 1):
        acc = ring.zero()
        for i in range(1, m + 1):
            acc = acc + p[i] * h[m - i]
        h.append(acc.scale(Frac(1, m)))
    out = ring.zero()
    for perm in itertools.permutations(range(n)):
        idx = [lam[i] - i + j for i, j in enumerate(perm)]
        if min(idx, default=0) < 0:
            continue
        term = ring.one()
        for k in idx:
            term = term * h[k]
        inversions = sum(
            perm[a] > perm[b] for a, b in itertools.combinations(range(n), 2)
        )
        out = out + (-term if inversions % 2 else term)
    if t:
        out = out * ch_e.component(1).scale(-t).exp()
    return out


def ch_bundle(ring: ChowRing, bundle: EquivariantBundle) -> ChowClass:
    """Chern character of an equivariant bundle in the matching ring."""
    if tuple(bundle.space) != ring.factors:
        raise ValueError(
            f"bundle lives on {bundle.space}, ring carries {ring.factors}"
        )
    total = ring.zero()
    for term in bundle.terms:
        val = ring.one()
        for fi, (sw, qw) in enumerate(term.pairs):
            key = (fi, sw.entries, qw.entries)
            got = ring._ch_cache.get(key)
            if got is None:
                ch_sub, ch_quot = ring._taut[fi]
                part = _ch_rep(ring, sw, ch_sub) * _ch_rep(ring, qw, ch_quot)
                ring._ch_cache[key] = part
                got = part
            val = val * got
        sign = -1 if term.shift % 2 else 1
        total = total + val.scale(sign * term.mult)
    return total


# --------------------------------------------------------------------------
# Newton's identities between Chern classes and characters; Todd polynomial

def ch_from_chern(ring: ChowRing, c: list[ChowClass]) -> ChowClass:
    """Chern character of a bundle of rank len(c) from its Chern classes
    c_1..c_r, the power sums of the roots by Newton's identities."""
    e = [ring.one()] + list(c) + [ring.zero()] * ring.dim
    p: list = [None]  # power sums, 1-indexed
    ch = ring.one().scale(len(c))
    fact = 1
    for m in range(1, ring.dim + 1):
        acc = e[m].scale(m if m % 2 else -m)
        for i in range(1, m):
            term = e[i] * p[m - i]
            acc = acc + (term if i % 2 else -term)
        p.append(acc)
        fact *= m
        ch = ch + acc.scale(Frac(1, fact))
    return ch


def chern_from_ch(ring: ChowRing, ch: ChowClass) -> list[ChowClass]:
    """c_1..c_dim from a Chern character via Newton's identities."""
    p = [None]  # power sums, 1-indexed
    fact = 1
    for m in range(1, ring.dim + 1):
        fact *= m
        p.append(ch.component(m).scale(fact))
    e: list[ChowClass] = [ring.one()]
    for m in range(1, ring.dim + 1):
        acc = ring.zero()
        for i in range(1, m + 1):
            term = e[m - i] * p[i]
            acc = acc + (term if i % 2 else -term)
        e.append(acc.scale(Frac(1, m)))
    return e[1:]


def _equip_homogeneous(ring, factors, taut):
    """Attach the tautological characters, converted once from the Chern
    classes in ``taut`` (one (c(U), c(Q)) pair per factor), and compute the
    Todd class from the equivariant tangent bundle (U-dual tensor quotient
    on each factor)."""
    ring.factors = tuple(factors)
    ring._taut = [
        (ch_from_chern(ring, cu), ch_from_chern(ring, cq)) for cu, cq in taut
    ]
    td = ring.one()
    c1_total = ring.zero()
    for fi, f in enumerate(ring.factors):
        sub = (1,) + (0,) * (f.k - 1)
        quot = (0,) * (f.n - f.k - 1) + (-1,)
        pairs = [
            ((0,) * f.k, (0,) * (f.n - f.k)) for _ in ring.factors
        ]
        pairs[fi] = (sub, quot)
        tangent = irr(ring.factors, pairs)
        ch_t = ch_bundle(ring, tangent)
        cs = chern_from_ch(ring, ch_t)
        # factor Todd via the universal polynomial within this factor's span
        td_f = _todd_any_dim(ring, cs, f.dim)
        td = td * td_f
        c1_total = c1_total + cs[0]
    ring.todd = td
    ring.canonical_ch = (-c1_total).exp()


def _todd_any_dim(ring, c, degcap):
    """Todd class from Chern classes, valid through total degree 4; the
    factor dimensions in the catalog never exceed 4."""
    if degcap > 4:
        raise ValueError("factor dimension above 4 is not supported")
    c = list(c) + [ring.zero()] * (4 - len(c))
    c1, c2, c3, c4 = c[0], c[1], c[2], c[3]
    parts = [
        ring.one(),
        c1.scale(Frac(1, 2)),
        (c1 * c1 + c2).scale(Frac(1, 12)),
        (c1 * c2).scale(Frac(1, 24)),
        (
            (c1 * c1 * c2).scale(4)
            + (c1 * c3)
            + (c2 * c2).scale(3)
            - (c1 * c1 * c1 * c1)
            - c4
        ).scale(Frac(1, 720)),
    ]
    out = ring.zero()
    for d, part in enumerate(parts):
        if d <= degcap:
            out = out + part
    return out


# --------------------------------------------------------------------------
# ring builders

_CACHE: dict = {}


def _table_from_products(basis, products):
    index = {lbl: i for i, lbl in enumerate(basis)}
    table = {}
    for (a, b), res in products.items():
        i, j = index[a], index[b]
        if i > j:
            i, j = j, i
        cell = {index[lbl]: Frac(c) for lbl, c in res.items() if c}
        prev = table.get((i, j))
        if prev is not None and prev != cell:
            raise AssertionError(
                f"inconsistent products for {a}.{b}: {prev} vs {cell}"
            )
        if cell:
            table[(i, j)] = cell
    return table


def ring_p3() -> ChowRing:
    """Projective 3-space: basis 1, h, h^2, h^3."""
    if "P3" in _CACHE:
        return _CACHE["P3"]
    basis = ("1", "h", "h2", "h3")
    codim = (0, 1, 2, 3)
    products = {}
    labels = {0: "1", 1: "h", 2: "h2", 3: "h3"}
    for a in range(4):
        for b in range(a, 4):
            if a + b <= 3:
                products[(labels[a], labels[b])] = {labels[a + b]: 1}
    ring = ChowRing("P3", 3, basis, codim,
                    _table_from_products(basis, products),
                    (0, 0, 0, 1))
    h = ring.monomial("h")
    h2, h3 = ring.monomial("h2"), ring.monomial("h3")
    _equip_homogeneous(ring, (P3,), [([-h], [h, h2, h3])])
    _CACHE["P3"] = ring
    return ring


def _pieri_2rows(lam, p, box):
    """Multiply a Schur class by sigma_p on a 2-row Grassmannian: add a
    horizontal p-strip, staying inside the box."""
    a, b = lam
    out = []
    for add_top in range(p + 1):
        na, nb = a + add_top, b + p - add_top
        if nb > a:  # strip condition: new second row cannot pass old first
            continue
        if na >= nb >= 0 and na <= box[0] and nb <= box[1]:
            out.append((na, nb))
    return out


def _schur_label(lam):
    if lam == (0, 0):
        return "1"
    if lam[1] == 0:
        return f"s{lam[0]}"
    return f"s{lam[0]}{lam[1]}"


def _build_grassmannian(name, box, dimension):
    partitions = [
        (a, b)
        for a in range(box[0] + 1)
        for b in range(min(a, box[1]) + 1)
    ]
    partitions.sort(key=lambda t: (t[0] + t[1], t))
    basis = tuple(_schur_label(p) for p in partitions)
    codim = tuple(a + b for a, b in partitions)

    def pieri_vec(vec, p):
        # multiply by the complete class h_p = sigma_(p); h_0 = identity
        if p < 0:
            return {}
        if p == 0:
            return dict(vec)
        out = {}
        for lam, c in vec.items():
            for nl in _pieri_2rows(lam, p, box):
                out[nl] = out.get(nl, Frac(0)) + c
        return out

    def schur_times(lam, mu):
        # Jacobi-Trudi: sigma_(a,b) = h_a h_b - h_{a+1} h_{b-1}, evaluated
        # against sigma_mu by Pieri moves (valid in the quotient ring)
        a, b = lam
        start = {mu: Frac(1)}
        plus = pieri_vec(pieri_vec(start, b), a)
        minus = pieri_vec(pieri_vec(start, b - 1), a + 1)
        out = {}
        for k, c in plus.items():
            out[k] = out.get(k, Frac(0)) + c
        for k, c in minus.items():
            out[k] = out.get(k, Frac(0)) - c
        return {k: c for k, c in out.items() if c}

    products = {}
    for lam in partitions:
        for mu in partitions:
            products[(_schur_label(lam), _schur_label(mu))] = {
                _schur_label(nl): c for nl, c in schur_times(lam, mu).items()
            }
    deg = tuple(1 if cd == dimension else 0 for cd in codim)
    ring = ChowRing(name, dimension, basis, codim,
                    _table_from_products(basis, products), deg)
    return ring, partitions


def ring_gr24() -> ChowRing:
    """Gr(2,4): six Schur classes in the 2x2 box."""
    if "Gr24" in _CACHE:
        return _CACHE["Gr24"]
    ring, _ = _build_grassmannian("Gr24", (2, 2), 4)
    s1 = ring.monomial("s1")
    s2, s11 = ring.monomial("s2"), ring.monomial("s11")
    _equip_homogeneous(ring, (GR24,), [([-s1, s11], [s1, s2])])
    _CACHE["Gr24"] = ring
    return ring


def ring_gr23() -> ChowRing:
    """Gr(2,3): Schur classes in the 2x1 box (a projective plane)."""
    if "Gr23" in _CACHE:
        return _CACHE["Gr23"]
    ring, _ = _build_grassmannian("Gr23", (1, 1), 2)
    s1, s11 = ring.monomial("s1"), ring.monomial("s11")
    _equip_homogeneous(ring, (GR23,), [([-s1, s11], [s1])])
    _CACHE["Gr23"] = ring
    return ring


def ring_product(a: ChowRing, b: ChowRing, name=None) -> ChowRing:
    """External product: basis pairs, multiplication componentwise."""
    name = name or f"{a.name}x{b.name}"
    if name in _CACHE:
        return _CACHE[name]
    basis = []
    codim = []
    deg = []
    for i, la in enumerate(a.basis):
        for j, lb in enumerate(b.basis):
            basis.append(f"{la}|{lb}")
            codim.append(a.codim[i] + b.codim[j])
            deg.append(a.deg[i] * b.deg[j])
    nb = len(b.basis)

    table = {}
    for (i1, j1) in itertools.product(range(len(a.basis)), range(nb)):
        for (i2, j2) in itertools.product(range(len(a.basis)), range(nb)):
            x, y = i1 * nb + j1, i2 * nb + j2
            if x > y:
                continue
            cell = {}
            for k1, c1 in a.mul_basis(i1, i2).items():
                for k2, c2 in b.mul_basis(j1, j2).items():
                    cell[k1 * nb + k2] = c1 * c2
            if cell:
                table[(x, y)] = cell
    ring = ChowRing(name, a.dim + b.dim, basis, codim, table, deg)

    def embed(side: ChowRing, cls: ChowClass) -> ChowClass:
        vec = [Frac(0)] * len(basis)
        for idx, c in enumerate(cls.coeffs):
            if not c:
                continue
            if side is a:
                vec[idx * nb + b.index["1"]] = c
            else:
                vec[a.index["1"] * nb + idx] = c
        return ChowClass(ring, vec)

    ring.factors = a.factors + b.factors
    ring._taut = [
        (embed(side, cu), embed(side, cq))
        for side in (a, b) for cu, cq in side._taut
    ]
    ring.todd = embed(a, a.todd) * embed(b, b.todd)
    ring.canonical_ch = embed(a, a.canonical_ch) * embed(b, b.canonical_ch)
    _CACHE[name] = ring
    return ring


def ring_gr24_p3() -> ChowRing:
    return ring_product(ring_gr24(), ring_p3())


def ring_blowup(n: int) -> ChowRing:
    """Blowup of projective 3-space in n general points.

    Basis 1, h, e_1..e_n, h^2, e_1^2..e_n^2, pt with relations
    h.e_i = 0, e_i.e_j = 0 (i != j), h^3 = pt, e_i^3 = pt.
    The second Chern class of the tangent bundle is pinned by requiring
    chi(O) = 1 and chi(O(-e_i)) = 0.  At most 11 points: from 12 on, the
    label of e_12 would be that of e_1^2.
    """
    if not 0 <= n <= 11:
        raise ValueError(
            f"the blowup of P3 supports 0 to 11 points, got {n}"
        )
    key = ("blowup", n)
    if key in _CACHE:
        return _CACHE[key]
    basis = ["1", "h"] + [f"e{i}" for i in range(1, n + 1)]
    basis += ["h2"] + [f"e{i}2" for i in range(1, n + 1)] + ["pt"]
    codim = [0, 1] + [1] * n + [2] + [2] * n + [3]
    products = {
        ("1", lbl): {lbl: 1} for lbl in basis
    }
    products[("h", "h")] = {"h2": 1}
    products[("h", "h2")] = {"pt": 1}
    for i in range(1, n + 1):
        products[(f"e{i}", f"e{i}")] = {f"e{i}2": 1}
        products[(f"e{i}", f"e{i}2")] = {"pt": 1}
        products[("h", f"e{i}")] = {}
        products[("h2", f"e{i}")] = {}
        products[("h", f"e{i}2")] = {}
        for j in range(i + 1, n + 1):
            products[(f"e{i}", f"e{j}")] = {}
            products[(f"e{i}", f"e{j}2")] = {}
            products[(f"e{j}", f"e{i}2")] = {}
        for j in range(1, n + 1):
            if j != i:
                products[(f"e{i}2", f"e{j}2")] = {}
        products[(f"e{i}2", f"e{i}2")] = {}
    products[("h2", "h2")] = {}
    deg = [0] * len(basis)
    deg[basis.index("pt")] = 1
    ring = ChowRing(
        f"BlP3[{n}]", 3, basis, codim,
        _table_from_products(basis, products), deg
    )
    h = ring.monomial("h")
    esum = ring.zero()
    for i in range(1, n + 1):
        esum = esum + ring.monomial(f"e{i}")
    c1 = h.scale(4) - esum.scale(2)
    c2 = ring.monomial("h2", 6)
    ring.todd = _todd_any_dim(ring, [c1, c2], 3)
    ring.canonical_ch = (-c1).exp()
    _CACHE[key] = ring
    return ring


def blowup_line_ch(ring: ChowRing, h_coeff: int, e_coeffs) -> ChowClass:
    """ch O(D) for D = b h + sum c_i e_i on the blowup ring, in closed form.

    Since h.e_i = 0 and e_i.e_j = 0 (i != j), D^2 = b^2 h^2 + sum c_i^2 e_i^2
    and D^3 = (b^3 + sum c_i^3) pt, so
    ch = 1 + D + (b^2 h^2 + sum c_i^2 e_i^2)/2 + (b^3 + sum c_i^3) pt/6.
    """
    vec = [Frac(0)] * len(ring.basis)
    idx = ring.index
    vec[idx["1"]] = Frac(1)
    vec[idx["h"]] = Frac(h_coeff)
    vec[idx["h2"]] = Frac(h_coeff * h_coeff, 2)
    cubes = h_coeff ** 3
    for i, c in enumerate(e_coeffs, start=1):
        if c:
            vec[idx[f"e{i}"]] = Frac(c)
            vec[idx[f"e{i}2"]] = Frac(c * c, 2)
            cubes += c ** 3
    vec[idx["pt"]] = Frac(cubes, 6)
    return ChowClass(ring, vec)


def blowup_plane_ch(ring: ChowRing, i: int, j: int) -> ChowClass:
    """ch of the pushforward of O(j) from the i-th exceptional plane.

    With O(e_i) restricting to O(-1) on the plane:
    e_i - (j + 1/2) e_i^2 + (j^2/2 + j/2 + 1/6) pt.
    """
    return (
        ring.monomial(f"e{i}")
        - ring.monomial(f"e{i}2", 1).scale(Frac(2 * j + 1, 2))
        + ring.monomial("pt").scale(
            Frac(j * j, 2) + Frac(j, 2) + Frac(1, 6)
        )
    )


# --------------------------------------------------------------------------
# pairings

class IntegralityError(ArithmeticError):
    """A non-integral Euler characteristic: the ring data (multiplication
    table, degree functional, Todd class) and the character disagree.  An
    internal fault, never an input error."""


class PairingForm:
    """Riemann-Roch against one weight class w as integer forms.

    ``linear[k]`` is D T_k with T_k = deg(b_k . w . td), and ``rows[i]``
    holds the nonzero D (-1)^codim(i) P_ij with P_ij = sum_m mul(i, j)[m] T_m,
    all over the one denominator ``den`` = D.
    """

    __slots__ = ("ring", "den", "linear", "rows")

    def __init__(self, ring: ChowRing, weight: ChowClass | None):
        wtd = ring.todd if weight is None else weight * ring.todd
        size = len(ring.basis)
        top = [
            sum(
                wtd.coeffs[m] * c * ring.deg[k]
                for m in range(size)
                for k, c in ring.mul_basis(i, m).items()
            )
            for i in range(size)
        ]
        mat = [
            [sum(c * top[m] for m, c in ring.mul_basis(i, j).items())
             for j in range(size)]
            for i in range(size)
        ]
        den = math.lcm(
            *(x.denominator for x in top),
            *(x.denominator for row in mat for x in row),
        )
        self.ring = ring
        self.den = den
        self.linear = [int(x * den) for x in top]
        self.rows = [
            [(j, int(x * den) * (-1) ** ring.codim[i])
             for j, x in enumerate(row) if x]
            for i, row in enumerate(mat)
        ]

    def _integer(self, num: int, den: int) -> int:
        val, rest = divmod(num, den)
        if rest:
            raise IntegralityError(
                f"non-integral Euler characteristic {Frac(num, den)} in "
                f"{self.ring.name}; the ring data and the character disagree"
            )
        return val

    def chi(self, x: ChowClass) -> int:
        nums, den = x.numerators()
        total = sum(t * n for t, n in zip(self.linear, nums) if n)
        return self._integer(total, den * self.den)

    def pair(self, a: ChowClass, b: ChowClass) -> int:
        na, da = a.numerators()
        nb, db = b.numerators()
        total = 0
        for x, row in zip(na, self.rows):
            if x:
                total += x * sum(p * nb[j] for j, p in row)
        return self._integer(total, da * db * self.den)


def _form(ring: ChowRing, weight: ChowClass | None) -> PairingForm:
    """The ring's Riemann-Roch form against ``weight`` (None for 1), built on
    first use and cached on the ring."""
    key = None if weight is None else weight.coeffs
    form = ring._forms.get(key)
    if form is None:
        form = ring._forms[key] = PairingForm(ring, weight)
    return form


def chi(ring: ChowRing, ch: ChowClass, weight: ChowClass | None = None) -> int:
    """Euler characteristic deg(ch . w . td) of a K-class given by its
    Chern character, against the weight w (1 when omitted)."""
    return _form(ring, weight).chi(ch)


def euler_pairing(ring: ChowRing, a: ChowClass, b: ChowClass,
                  weight: ChowClass | None = None) -> int:
    """chi(A, B) = integral of ch(A)-dual . ch(B) . w . td (w = 1 when
    omitted)."""
    return _form(ring, weight).pair(a, b)
