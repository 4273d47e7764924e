"""Integral Chow rings, Chern characters and exact Euler pairings.

Each ring is a finite free Z-module with a fixed basis of cycle classes, a
sparse integer multiplication table, and an integer degree functional on the
top codimension.  A class is stored in one form, `IntVector`: integer
numerators keyed by basis index over one positive denominator, in lowest
terms.  Chern characters and Todd classes are honestly rational, but all
arithmetic on them is integer arithmetic on that form; `fractions.Fraction`
appears only where a class is built from or read as rationals.

Euler characteristics go through one core: Hirzebruch-Riemann-Roch as a
bilinear form on A(X)_Q (Fulton, Intersection Theory, Sec. 15).  For a
weight class w (1 for plain chi) a ring builds, on first use, the linear
form T_k = deg(b_k . w . td) and the pairing matrix
P_ij = sum_m mul(i, j)[m] T_m, both as integers over one denominator, read
off the nonzero cells of the multiplication table, and caches them.  The
matrix is mostly zeros (80 of 576 entries on the ten-point blowup), so it
is kept as one tuple of nonzero entries per column.  chi(x) is T.x and
chi(a, b) is a . (P.b): the image (P.b)_i = (-1)^codim(i) sum_j P_ij b_j
of the right argument is summed from the columns of its nonzero
numerators once per class and form and kept on the class, so a pairing is
one sparse dot product with a's numerators.  The final
rational is asserted to be an integer on every call (`IntegralityError`
otherwise), which is a real consistency check of the tables.

Two kinds of rings are provided:

* homogeneous rings for the Grassmannian factors (and their products), which
  also carry the Chern characters of the tautological bundles.  The Chern
  character of any equivariant bundle is evaluated in the ring itself: Adams
  operations on those characters give the power sums of the roots, Newton's
  identities the complete classes, and the Jacobi-Trudi determinant the
  Schur functor (Fulton-Harris, Representation Theory, App. A; Macdonald,
  Symmetric Functions and Hall Polynomials, I.2-I.3);
* the blowup of projective 3-space in N points, with exceptional divisor
  square classes and line-bundle characters in closed form.

Every other characteristic class comes from one standard identity:

* Todd class: log td is additive in the Chern roots,
  log td = ch_1/2 - sum_{k>=1} (B_2k / 2k) ch_2k with Bernoulli numbers B_2k
  (Hirzebruch, Topological Methods in Algebraic Geometry, Sec. 1), so
  td = exp(log td) of the tangent bundle, and ch(K) = exp(-c_1);
* tautological quotient: ch(Q) = n - ch(U), from 0 -> U -> V -> Q -> 0;
* sheaves on an exceptional plane E_i of the blowup: restriction,
  0 -> O(-(j+1) e_i) -> O(-j e_i) -> O_E_i(j) -> 0.

The Grassmannian multiplication tables are generated from the Pieri rule at
build time; the test suite freezes the resulting values.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from . import InputError
from .bbw import GR23, GR24, P3, EquivariantBundle, HomFactor, irr

Frac = Fraction


class IntVector:
    """Integer numerators over one positive denominator, in lowest terms.

    ``nums`` maps each key with a nonzero coefficient to its numerator and
    ``den`` is the common denominator, sharing no factor with all of them,
    so equal vectors store equal forms.  ``home`` is the ring or lattice
    the vector lives in.  `ChowClass` (keys are basis indices) and
    `kmut.FormalClass` (keys are generators, for a variety its own keys)
    share this arithmetic.  A vector never changes after construction.
    """

    __slots__ = ("home", "nums", "den")

    @classmethod
    def _build(cls, home, nums: dict, den: int = 1):
        """A vector from any form over a positive ``den``: zero entries are
        dropped and common factors cancelled, in one pass (zeros leave the
        gcd unchanged)."""
        g = math.gcd(den, *nums.values()) if den != 1 else 1
        if g == 1:
            nums = {k: v for k, v in nums.items() if v}
        else:
            nums = {k: v // g for k, v in nums.items() if v}
            den //= g
        new = object.__new__(cls)
        new.home, new.nums, new.den = home, nums, den
        return new

    def _like(self, nums: dict, den: int | None = None):
        """A vector in the same home, over ``den`` (default: this one's)."""
        return self._build(self.home, nums, self.den if den is None else den)

    def _same(self, other: "IntVector") -> None:
        if self.home is not other.home:
            raise ValueError("classes live in different rings or lattices")

    def _combine(self, other: "IntVector", k: int):
        """self + k . other for an int k, built once."""
        self._same(other)
        if self.den == other.den:
            den, ma, mb = self.den, 1, k
        else:
            den = math.lcm(self.den, other.den)
            ma, mb = den // self.den, k * (den // other.den)
        out = dict(self.nums) if ma == 1 else {
            g: ma * v for g, v in self.nums.items()
        }
        get = out.get
        if mb == 1:
            for g, v in other.nums.items():
                out[g] = get(g, 0) + v
        else:
            for g, v in other.nums.items():
                out[g] = get(g, 0) + mb * v
        return self._build(self.home, out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def minus(self, other: "IntVector", k: int):
        """self - k . other for an int k, one vector built (what a mutation
        needs: F - chi . E)."""
        return self._combine(other, -k)

    def __neg__(self):
        return self._like({k: -v for k, v in self.nums.items()})

    def scale(self, k, over: int = 1):
        """Multiply by the rational k / over, for a positive int ``over``
        and ``k`` an int or any rational (such as a `Fraction`)."""
        if type(k) is not int:
            k = Frac(k)
            k, over = k.numerator, k.denominator * over
        return self._like({g: k * v for g, v in self.nums.items()},
                          self.den * over)

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntVector)
            and self.home is other.home
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((id(self.home), frozenset(self.nums.items()), self.den))


class ChowClass(IntVector):
    """An element of a ChowRing: an `IntVector` keyed by basis index.

    The constructor takes a dense vector of rationals over the basis, and
    ``coeffs`` reads one back as `Fraction`s; everything else works on the
    integer form.  ``_images`` maps each `PairingForm` the class has been
    the right argument of to its image under that form; it is set on first
    use and takes no part in equality or hashing.
    """

    __slots__ = ("_images",)

    def __init__(self, ring: "ChowRing", coeffs: Sequence):
        coeffs = [c if type(c) is Frac else Frac(c) for c in coeffs]
        if len(coeffs) != len(ring.basis):
            raise ValueError("coefficient vector does not match the basis")
        den = math.lcm(*(c.denominator for c in coeffs))
        self.home = ring
        self.nums = {
            i: c.numerator * (den // c.denominator)
            for i, c in enumerate(coeffs) if c
        }
        self.den = den

    @property
    def ring(self) -> "ChowRing":
        return self.home

    @property
    def coeffs(self) -> tuple[Frac, ...]:
        """The coefficients over the basis as `Fraction`s."""
        nums, den = self.numerators()
        return tuple(Frac(n, den) for n in nums)

    def numerators(self) -> tuple[tuple[int, ...], int]:
        """``(nums, den)``: the stored numerators as a dense tuple over the
        basis, and the stored denominator."""
        get = self.nums.get
        return tuple(get(i, 0) for i in range(len(self.ring.basis))), self.den

    def __mul__(self, other):
        if not isinstance(other, ChowClass):
            return self.scale(other)
        self._same(other)
        cell_of = self.ring._table.get
        out: dict[int, int] = {}
        theirs = other.nums.items()
        for i, a in self.nums.items():
            for j, b in theirs:
                cell = cell_of((i, j))
                if cell:
                    ab = a * b
                    for k, c in cell.items():
                        out[k] = out.get(k, 0) + ab * c
        return self._like(out, self.den * other.den)

    __rmul__ = __mul__

    def component(self, codim: int) -> "ChowClass":
        cd = self.ring.codim
        return self._like({i: v for i, v in self.nums.items()
                           if cd[i] == codim})

    def rank(self) -> Frac:
        """The codimension-zero coefficient (virtual rank of a K-class)."""
        cd = self.ring.codim
        return Frac(
            sum(v for i, v in self.nums.items() if cd[i] == 0), self.den
        )

    def dual(self) -> "ChowClass":
        """Chern character of the derived dual: negate odd codimensions."""
        cd = self.ring.codim
        return self._like({i: -v if cd[i] % 2 else v
                           for i, v in self.nums.items()})

    def adams(self, k: int) -> "ChowClass":
        """Adams operation psi^k on a Chern character: the codimension-d
        part scaled by k^d (psi^-1 is the dual)."""
        cd = self.ring.codim
        return self._like({i: v * k ** cd[i] for i, v in self.nums.items()})

    def degree(self) -> Frac:
        deg = self.ring.deg
        return Frac(sum(v * deg[i] for i, v in self.nums.items()), self.den)

    def exp(self) -> "ChowClass":
        """exp of a class with zero rank part (nilpotent), e.g. a divisor."""
        cd = self.ring.codim
        if any(cd[i] == 0 for i in self.nums):
            raise ValueError("exp needs a rank-zero (nilpotent) class")
        out = power = self.ring.one()
        fact = 1
        for n in range(1, self.ring.dim + 1):
            power = power * self
            fact *= n
            out = out + power.scale(1, fact)
        return out

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
        # {(i, j): {k: int}} given for i <= j, stored for both orders
        self._table = {**table, **{(j, i): c for (i, j), c in table.items()}}
        self.deg = tuple(deg)
        self.index = {lbl: i for i, lbl in enumerate(self.basis)}
        # optional equipment, set by builders:
        self.factors: tuple[HomFactor, ...] = ()
        self._taut: list[tuple[ChowClass, ChowClass]] = []  # ch(U), ch(Q)
        self.todd: ChowClass | None = None
        self.canonical_ch: ChowClass | None = None
        self._ch_cache: dict = {}
        self._forms: dict = {}  # weight class (None for 1) -> PairingForm

    def mul_basis(self, i: int, j: int) -> dict[int, int]:
        return self._table.get((i, j), {})

    def zero(self) -> ChowClass:
        return ChowClass._build(self, {})

    def one(self) -> ChowClass:
        units = [i for i, cd in enumerate(self.codim) if cd == 0]
        assert len(units) == 1
        return ChowClass._build(self, {units[0]: 1})

    def monomial(self, label: str, coeff=1) -> ChowClass:
        return ChowClass._build(self, {self.index[label]: 1}).scale(coeff)

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
        h.append(acc.scale(1, m))
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
            key = (fi, sw, qw)
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
# characteristic classes from standard identities

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
        ch = ch + acc.scale(1, fact)
    return ch


def _bernoulli(n: int) -> list[Frac]:
    """B_0..B_n (B_1 = -1/2) from sum_{k<=m} C(m+1, k) B_k = 0."""
    b = [Frac(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def _log_todd(ring: ChowRing, ch: ChowClass) -> ChowClass:
    """log td of a bundle with Chern character ``ch``.

    Summed over the Chern roots, log(x / (1 - e^-x)) =
    x/2 - sum_{k>=1} B_2k x^2k / (2k (2k)!), that is
    ch_1/2 - sum_{k>=1} (B_2k / 2k) ch_2k = ch_1/2 - ch_2/12 + ch_4/120 - ...
    (Hirzebruch, Topological Methods in Algebraic Geometry, Sec. 1).
    """
    bern = _bernoulli(ring.dim)
    out = ch.component(1).scale(1, 2)
    for k in range(2, ring.dim + 1, 2):
        out = out - ch.component(k).scale(bern[k] / k)
    return out


def _equip(ring: ChowRing, ch_tangent: ChowClass) -> None:
    """Todd and canonical classes from the tangent bundle's character:
    td = exp(log td) and ch(K) = exp(-c_1)."""
    ring.todd = _log_todd(ring, ch_tangent).exp()
    ring.canonical_ch = (-ch_tangent.component(1)).exp()


def _equip_homogeneous(ring, factor: HomFactor, c_sub) -> None:
    """Attach the tautological characters of 0 -> U -> V -> Q -> 0: ch(U)
    from its Chern classes ``c_sub`` and ch(Q) = n - ch(U); then equip the
    ring from the tangent bundle U-dual tensor Q."""
    ring.factors = (factor,)
    ch_sub = ch_from_chern(ring, c_sub)
    ring._taut = [(ch_sub, ring.one().scale(factor.n) - ch_sub)]
    sub = (1,) + (0,) * (factor.k - 1)
    quot = (0,) * (factor.n - factor.k - 1) + (-1,)
    _equip(ring, ch_bundle(ring, irr(ring.factors, [(sub, quot)])))


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
        cell = {index[lbl]: c for lbl, c in res.items() if c}
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
    _equip_homogeneous(ring, P3, [-ring.monomial("h")])
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
                out[nl] = out.get(nl, 0) + c
        return out

    def schur_times(lam, mu):
        # Jacobi-Trudi: sigma_(a,b) = h_a h_b - h_{a+1} h_{b-1}, evaluated
        # against sigma_mu by Pieri moves (valid in the quotient ring)
        a, b = lam
        start = {mu: 1}
        plus = pieri_vec(pieri_vec(start, b), a)
        minus = pieri_vec(pieri_vec(start, b - 1), a + 1)
        out = {}
        for k, c in plus.items():
            out[k] = out.get(k, 0) + c
        for k, c in minus.items():
            out[k] = out.get(k, 0) - c
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
    s1, s11 = ring.monomial("s1"), ring.monomial("s11")
    _equip_homogeneous(ring, GR24, [-s1, s11])
    _CACHE["Gr24"] = ring
    return ring


def ring_gr23() -> ChowRing:
    """Gr(2,3): Schur classes in the 2x1 box (a projective plane)."""
    if "Gr23" in _CACHE:
        return _CACHE["Gr23"]
    ring, _ = _build_grassmannian("Gr23", (1, 1), 2)
    s1, s11 = ring.monomial("s1"), ring.monomial("s11")
    _equip_homogeneous(ring, GR23, [-s1, s11])
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
        if side is a:
            nums = {i * nb + b.index["1"]: v for i, v in cls.nums.items()}
        else:
            nums = {a.index["1"] * nb + j: v for j, v in cls.nums.items()}
        return ChowClass._build(ring, nums, cls.den)

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


#: the most points a blowup ring takes: from 12 on, the label of e_12 would
#: be that of e_1^2
BLOWUP_MAX_POINTS = 11


def ring_blowup(n: int) -> ChowRing:
    """Blowup of projective 3-space in n general points.

    Basis 1, h, e_1..e_n, h^2, e_1^2..e_n^2, pt with relations
    h.e_i = 0, e_i.e_j = 0 (i != j), h^3 = pt, e_i^3 = pt.
    The second Chern class of the tangent bundle is pinned by requiring
    chi(O) = 1 and chi(O(-e_i)) = 0.  At most `BLOWUP_MAX_POINTS` points.
    """
    if not 0 <= n <= BLOWUP_MAX_POINTS:
        raise InputError(
            f"the blowup of P3 supports 0 to {BLOWUP_MAX_POINTS} points, "
            f"got {n}"
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
    for i in range(1, n + 1):  # every product not listed is zero
        products[(f"e{i}", f"e{i}")] = {f"e{i}2": 1}
        products[(f"e{i}", f"e{i}2")] = {"pt": 1}
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
    # ch(T) = 3 + c1 + (c1^2 - 2 c2)/2: log td has no odd term past degree
    # 1, so ch_3 is not needed on a threefold
    ch2 = (c1 * c1 - c2.scale(2)).scale(1, 2)
    _equip(ring, ring.one().scale(3) + c1 + ch2)
    _CACHE[key] = ring
    return ring


def blowup_line_ch(ring: ChowRing, h_coeff: int, e_coeffs) -> ChowClass:
    """ch O(D) for D = b h + sum c_i e_i on the blowup ring, in closed form.

    Since h.e_i = 0 and e_i.e_j = 0 (i != j), D^2 = b^2 h^2 + sum c_i^2 e_i^2
    and D^3 = (b^3 + sum c_i^3) pt, so
    ch = 1 + D + (b^2 h^2 + sum c_i^2 e_i^2)/2 + (b^3 + sum c_i^3) pt/6.
    """
    idx = ring.index
    sixfold = {idx["1"]: 6, idx["h"]: 6 * h_coeff, idx["h2"]: 3 * h_coeff ** 2}
    cubes = h_coeff ** 3
    for i, c in enumerate(e_coeffs, start=1):
        if c:
            sixfold[idx[f"e{i}"]] = 6 * c
            sixfold[idx[f"e{i}2"]] = 3 * c * c
            cubes += c ** 3
    sixfold[idx["pt"]] = cubes
    return ChowClass._build(ring, sixfold, 6)


def blowup_plane_ch(ring: ChowRing, i: int, j: int) -> ChowClass:
    """ch of the pushforward of O(j) from the i-th exceptional plane E_i.

    O(-e_i) restricts to O(1) on E_i, so restricting to E_i gives
    0 -> O(-(j+1) e_i) -> O(-j e_i) -> O_E_i(j) -> 0.
    """
    pad = [0] * (i - 1)
    return (blowup_line_ch(ring, 0, pad + [-j])
            - blowup_line_ch(ring, 0, pad + [-(j + 1)]))


# --------------------------------------------------------------------------
# pairings

class IntegralityError(ArithmeticError):
    """A non-integral Euler characteristic: the ring data (multiplication
    table, degree functional, Todd class) and the character disagree.  An
    internal fault, never an input error."""


class PairingForm:
    """Riemann-Roch against one weight class w as sparse integer forms.

    ``linear[k]`` is D T_k with T_k = deg(b_k . w . td), and ``cols[j]``
    holds the nonzero entries of column j of the signed pairing matrix as
    ``(i, D (-1)^codim(i) P_ij)`` pairs, with P_ij = sum_m mul(i, j)[m] T_m,
    all over the one denominator ``den`` = D, in lowest terms.  Both are
    read off the nonzero cells of the multiplication table.  ``pair(a, b)``
    is a . (P.b): the image P.b, a dense integer list over the basis summed
    from the columns of b's nonzero entries, is kept on b per form, so
    pairing many classes against one b builds it once.
    """

    __slots__ = ("ring", "den", "linear", "cols")

    def __init__(self, ring: ChowRing, weight: ChowClass | None):
        wtd = ring.todd if weight is None else weight * ring.todd
        deg, weights = ring.deg, wtd.nums
        cells = ring._table.items()  # both orders, so every (i, j) once
        # the numerators of T and P over wtd.den, then cancelled
        top = [0] * len(ring.basis)
        for (i, m), cell in cells:
            v = weights.get(m)
            if v:
                top[i] += v * sum(c * deg[k] for k, c in cell.items())
        mat = {}
        for ij, cell in cells:
            x = sum(c * top[k] for k, c in cell.items())
            if x:
                mat[ij] = x
        g = math.gcd(wtd.den, *top, *mat.values())
        cols = [[] for _ in ring.basis]
        for (i, j), x in mat.items():
            cols[j].append((i, -(x // g) if ring.codim[i] % 2 else x // g))
        self.ring = ring
        self.den = wtd.den // g
        self.linear = [x // g for x in top]
        self.cols = tuple(map(tuple, cols))

    def _integer(self, num: int, den: int) -> int:
        val, rest = divmod(num, den)
        if rest:
            raise IntegralityError(
                f"non-integral Euler characteristic {Frac(num, den)} in "
                f"{self.ring.name}; the ring data and the character disagree"
            )
        return val

    def chi(self, x: ChowClass) -> int:
        linear = self.linear
        total = 0
        for i, v in x.nums.items():
            total += linear[i] * v
        return self._integer(total, x.den * self.den)

    def image(self, b: ChowClass) -> list[int]:
        """P.b on b's numerators, kept on b under this form."""
        try:
            return b._images[self]
        except AttributeError:
            b._images = {}
        except KeyError:
            pass
        img = [0] * len(self.cols)
        cols = self.cols
        for j, y in b.nums.items():
            for i, p in cols[j]:
                img[i] += p * y
        b._images[self] = img
        return img

    def pair(self, a: ChowClass, b: ChowClass) -> int:
        try:
            img = b._images[self]
        except (AttributeError, KeyError):
            img = self.image(b)
        total = 0
        for i, x in a.nums.items():
            total += x * img[i]
        return self._integer(total, a.den * b.den * self.den)


def _form(ring: ChowRing, weight: ChowClass | None) -> PairingForm:
    """The ring's Riemann-Roch form against ``weight`` (None for 1), built on
    first use and cached on the ring under the weight class itself."""
    form = ring._forms.get(weight)
    if form is None:
        form = ring._forms[weight] = PairingForm(ring, weight)
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
