"""Geometry catalog: spaces, sheaf labels, and exact Ext oracles.

Each space of interest is wrapped in a :class:`Variety` that knows how to

* parse the human-readable labels used in semiorthogonal decompositions
  (``"O(-2g)"``, ``"V/U(-g-h)"``, ``"Cliff_2(-g)"``, ``"O_Pl3(-1)"``,
  ``"O_E2(-1)"``, ``"O_Q1(-1,0)"``, ...),
* map a label to its class in the numerical Grothendieck lattice, and
* compute graded Ext groups between two labels in exact integer
  arithmetic, with an explicit confidence tag:

  ========== =========================================================
  BBW        forced by the Borel-Weil-Bott weight staircase alone
  RULE       exact reduction (restriction to a known subvariety,
             Serre duality, projection formula, two-step splicing)
             bottoming out in the weight staircase
  AXIOM      imported from the registered statement list ``AXIOMS``
  CHI-ONLY   only the Euler characteristic is certified
  UNCHECKED  nothing certified
  ========== =========================================================

Label contract.  A variety parses a label once into a hashable key (a
tuple; ``O(-2h+e)`` on the blowup is ``("line", -2, (1, .., 1))``), and its
``format`` is the only place label text is written.  Twists, the Serre
twist and K-classes act on keys, so ``canon``, ``ext``, ``kclass``,
``twist_label`` and ``serre_label`` are written once on :class:`Variety`
and take and return text only at the boundary; ``ext``, the one entry
point for Ext answers, takes a key in place of a label as well.  Each
object has one written form: symmetric powers are ``S<p>U``/``S<p>Uv``
with p >= 2 and no leading zeros (``S1U`` is ``U`` and ``S0U`` is ``O``),
and on the N-point blowups the exceptional symbols are exactly
``e1 .. eN`` besides ``h``, ``e`` and ``H`` (``e01`` is an unknown symbol).

The catalog covers the ambient homogeneous spaces (projective 3-space,
the two Grassmannians of planes, and the mixed product), the
net-of-quadrics fourfold carved inside that product, and the N-point
blowup of projective 3-space and its blown-up double cover, which share
one rule for the sheaves on the surfaces over the nodes (exceptional
planes, contracted quadrics) and read one line-cohomology kernel.
Alongside the varieties live the shared complex builders (the big
incidence Koszul complex, the structure-sheaf resolutions it induces, the
plane Koszul complex, and each bundle-kind pair's Hom bundle and the
fourfold's Koszul complex tensored with it) and the three standalone
verification routines: the split-certificate check, the double-cover
lattice check, and the ideal-sheaf shadow check, each returning a
:class:`Check`.
"""

from __future__ import annotations

import re
from functools import cache, lru_cache
from math import comb
from operator import sub
from types import MappingProxyType
from typing import NamedTuple

from . import InputError
from .bbw import (
    GR23,
    GR24,
    KERNEL_CACHE,
    P3,
    EquivariantBundle,
    HomFactor,
    Indeterminate,
    TermComplex,
    cohomology,
    hypercohomology,
    irr,
    line,
    pushforward_complex,
)
from .chow import (
    blowup_line_ch,
    blowup_plane_ch,
    ch_bundle,
    chi as ring_chi,
    euler_pairing,
    ring_blowup,
    ring_gr23,
    ring_gr24,
    ring_gr24_p3,
    ring_p3,
)
from .kmut import (
    AmbientLattice,
    FormalLattice,
    gram,
    is_unitriangular,
    relation_membership,
)

P2 = HomFactor(1, 3, "P2")
P1 = HomFactor(1, 2, "P1")

BBW = "BBW"
RULE = "RULE"
AXIOM = "AXIOM"
CHI_ONLY = "CHI-ONLY"
UNCHECKED = "UNCHECKED"

#: blowup point count when none is given
DEFAULT_NODES = 10


def node_count(text: str) -> int:
    """A node count as written on the command line or on a scenario's
    ``nodes`` line: a positive integer, else ValueError."""
    try:
        nodes = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if nodes < 1:
        raise ValueError(f"must be at least 1, got {nodes}")
    return nodes


# --------------------------------------------------------------------------
# answers

def format_graded(graded: dict[int, int] | None) -> str:
    if graded is None:
        return "chi-only"
    if not graded:
        return "0"
    return " + ".join(
        (f"C^{d}[{t}]" if d > 1 else f"C[{t}]")
        for t, d in sorted(graded.items())
    )


class ExtAnswer:
    """A graded Ext computation: dimensions, Euler number, confidence.

    ``graded`` maps degree -> dimension (zeros dropped); ``None`` means the
    grading is not certified and only ``chi`` is reliable.  ``chi`` is the
    alternating sum; it is exact even when the grading is not pinned down,
    except for tag UNCHECKED where it may be ``None``.  ``axioms`` lists the
    ids of imported statements the answer depends on.
    """

    __slots__ = ("graded", "chi", "tag", "route", "axioms", "table")

    def __init__(self, graded, chi, tag, route, axioms=(), table=None):
        if graded is not None:
            graded = {int(t): int(d) for t, d in graded.items() if d}
        self.graded = graded
        self.chi = None if chi is None else int(chi)
        self.tag = tag
        self.route = route
        self.axioms = tuple(sorted(set(axioms)))
        self.table = table

    @property
    def determinate(self) -> bool:
        return self.graded is not None

    @property
    def is_zero(self) -> bool:
        return self.graded == {}

    def describe(self) -> str:
        body = format_graded(self.graded)
        ax = f"; imports {','.join(self.axioms)}" if self.axioms else ""
        return f"{body} chi={self.chi} [{self.tag}: {self.route}{ax}]"

    def __repr__(self) -> str:
        return f"ExtAnswer({self.describe()})"


def _euler_sum(graded: dict[int, int]) -> int:
    return sum(-d if t % 2 else d for t, d in graded.items())


def _from_graded(graded, tag, route, axioms=()) -> ExtAnswer:
    return ExtAnswer(graded, _euler_sum(graded), tag, route, axioms)


def _merge(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for t, d in b.items():
        out[t] = out.get(t, 0) + d
    return out


def _shift(graded: dict[int, int], s: int) -> dict[int, int]:
    return {t + s: d for t, d in graded.items()}


def _flip(graded: dict[int, int], n: int) -> dict[int, int]:
    """Serre-dual grading on an n-dimensional variety (dims are self-dual)."""
    return {n - t: d for t, d in graded.items()}


def _from_staircase(res, tag, route, euler_route) -> ExtAnswer:
    """A staircase result as an answer: graded under ``tag`` if determinate,
    else its Euler number under CHI-ONLY with the table attached."""
    if res.determinate:
        return _from_graded(res.dims(), tag, route)
    return ExtAnswer(None, res.euler(), CHI_ONLY, euler_route, table=res)


def _serre_dual(inner: ExtAnswer, n: int) -> ExtAnswer:
    """Serre duality on an n-fold: Ext^t(A, B) is dual to Ext^(n-t) of
    ``inner`` = Ext(B, A x omega).  A certified grading flips under RULE;
    otherwise the inner tag stays."""
    route = f"Serre duality; {inner.route}"
    chi = (-1) ** n * inner.chi
    if not inner.determinate:
        return ExtAnswer(None, chi, inner.tag, route, inner.axioms)
    return ExtAnswer(_flip(inner.graded, n), chi, RULE, route, inner.axioms)


# --------------------------------------------------------------------------
# twist/label grammar

_TWIST_TERM = re.compile(r"([+-]?)(\d*)([A-Za-z]+\d*)")
_SYM_POWER = re.compile(r"^S(\d+)(Uv|U)$")
_CLIFF = re.compile(r"^Cliff_(-?\d+)(?:\((.*)\))?$")
_PLANE = re.compile(r"^O_Pl(\d+)(?:\((-?\d+)\))?$")
_EPLANE = re.compile(r"^O_E(\d+)(?:\((-?\d+)\))?$")
_QUAD = re.compile(r"^O_Q(\d+)(?:\((-?\d+),(-?\d+)\))?$")


def parse_twist(text: str, symbols) -> dict[str, int]:
    """Parse a twist expression like ``-2g+h`` or ``-H-e1`` to coefficients.

    ``symbols`` is the set of allowed symbol names.
    """
    text = text.replace(" ", "")
    if not text:
        return {}
    out: dict[str, int] = {}
    pos, end = 0, len(text)
    while pos < end:
        m = _TWIST_TERM.match(text, pos)
        if not m:
            raise InputError(f"cannot parse twist {text!r} at {text[pos:]!r}")
        sign, digits, sym = m.groups()
        if pos and not sign:
            raise InputError(f"missing sign between terms in twist {text!r}")
        if sym not in symbols:
            raise InputError(f"unknown twist symbol {sym!r} in {text!r}")
        coeff = int(digits) if digits else 1
        out[sym] = out.get(sym, 0) + (-coeff if sign == "-" else coeff)
        pos = m.end()
    return {s: c for s, c in out.items() if c}


def _split_twist(label: str) -> tuple[str, str]:
    label = label.strip()
    if label.endswith(")"):
        i = label.find("(")
        if i < 0:
            raise InputError(f"unbalanced parentheses in {label!r}")
        return label[:i], label[i + 1:-1]
    return label, ""


def _wrap(head: str, text: str) -> str:
    """``head(text)``, or the bare head when the twist text is empty."""
    return f"{head}({text})" if text else head


def _fmt_term(coeff: int, sym: str) -> str:
    if coeff == 1:
        return sym
    if coeff == -1:
        return f"-{sym}"
    return f"{coeff}{sym}"


def _fmt_twist(pairs) -> str:
    """Format [(coeff, sym), ...] dropping zeros; '' when everything is 0."""
    parts = []
    for coeff, sym in pairs:
        if not coeff:
            continue
        term = _fmt_term(coeff, sym)
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts)


def kind_pairs(factor: HomFactor, kind: str):
    """(sub, quot) weight pair of a named bundle kind on one factor."""
    k, n = factor.k, factor.n
    sub = [0] * k
    quot = [0] * (n - k)
    if kind == "O":
        pass
    elif kind == "U":
        sub[-1] = -1
    elif kind == "Uv":
        sub[0] = 1
    elif kind == "V/U":
        quot[-1] = -1
    elif kind == "V/Uv":
        quot[0] = 1
    else:
        m = _SYM_POWER.match(kind)
        if not m:
            raise ValueError(f"unknown bundle kind {kind!r}")
        p = int(m.group(1))
        if m.group(2) == "U":
            sub[-1] = -p
        else:
            sub[0] = p
    return tuple(sub), tuple(quot)


_BUNDLE_KINDS = ("O", "U", "Uv", "V/U", "V/Uv")


def _bundle_kind(kind: str) -> str | None:
    """The one written form of a bundle kind, or None for a non-kind.

    Symmetric powers lose leading zeros, ``S1U``/``S1Uv`` become
    ``U``/``Uv`` and ``S0U``/``S0Uv`` become ``O``.
    """
    if kind in _BUNDLE_KINDS:
        return kind
    m = _SYM_POWER.match(kind)
    if not m:
        return None
    p, which = int(m.group(1)), m.group(2)
    return "O" if p == 0 else which if p == 1 else f"S{p}{which}"


# --------------------------------------------------------------------------
# shared complexes

_PRODUCT = (GR24, P3)
_DOUBLE_GR = (GR24, GR24)


def _kind_bundle(space, kind: str, twists=()) -> EquivariantBundle:
    """A bundle kind on the first factor of ``space`` (O on the others),
    twisted by one Pluecker twist per factor."""
    pairs = [kind_pairs(space[0], kind)]
    pairs += [kind_pairs(f, "O") for f in space[1:]]
    b = irr(space, pairs)
    return b.twist(twists) if any(twists) else b


@lru_cache(maxsize=KERNEL_CACHE)
def _gr_bundle(kind: str, twist: int = 0) -> EquivariantBundle:
    """A bundle kind on the Grassmannian, twisted; built once per
    argument (bundles are immutable, so shared)."""
    return _kind_bundle((GR24,), kind, (twist,))


def _product_bundle(kind: str, g: int = 0, h: int = 0) -> EquivariantBundle:
    return _kind_bundle(_PRODUCT, kind, (g, h))


@lru_cache(maxsize=KERNEL_CACHE)
def _hom_kinds(space, kind_a: str, kind_b: str) -> EquivariantBundle:
    """Hom(K_a, K_b) = K_a^dual x K_b of two untwisted bundle kinds.

    Hom(K_a(t_a), K_b(t_b)) is this bundle twisted by t_b - t_a, so one
    immutable bundle per kind pair serves the Ext queries between all
    twists of the two kinds: each passes the twist to the staircase.
    """
    return _kind_bundle(space, kind_a).dual().tensor(
        _kind_bundle(space, kind_b)
    )


def _twist_difference(ta, tb) -> tuple[int, ...]:
    return tuple(map(sub, tb, ta))


def _double_bundle(kind_a, ga, kind_b, gb) -> EquivariantBundle:
    b = irr(_DOUBLE_GR, [kind_pairs(GR24, kind_a), kind_pairs(GR24, kind_b)])
    return b.twist((ga, gb)) if (ga or gb) else b


@cache
def incidence_koszul() -> TermComplex:
    """Koszul resolution of the incidence structure sheaf on Gr x Gr.

    The rank-6 bundle cutting out the incidence locus splits each exterior
    power into irreducible summands; slot p must have total rank C(6, p),
    which is asserted.  Built once and shared, like the four constant
    complexes below (a ``TermComplex`` is immutable).
    """
    slots = {
        0: _double_bundle("O", 0, "O", 0),
        1: _double_bundle("S2U", 0, "U", 0),
        2: (
            _double_bundle("S2U", -1, "S2U", 0)
            + _double_bundle("S4U", 0, "O", -1)
            + _double_bundle("O", -2, "O", -1)
        ),
        3: (
            _double_bundle("O", -3, "S3U", 0)
            + _double_bundle("S4U", -1, "U", -1)
            + _double_bundle("S2U", -2, "U", -1)
        ),
        4: (
            _double_bundle("S2U", -3, "S2U", -1)
            + _double_bundle("S4U", -2, "O", -2)
            + _double_bundle("O", -4, "O", -2)
        ),
        5: _double_bundle("S2U", -4, "U", -2),
        6: _double_bundle("O", -6, "O", -3),
    }
    cx = TermComplex(_DOUBLE_GR, slots)
    for p, r in cx.ranks().items():
        if r != comb(6, p):
            raise ArithmeticError(
                f"incidence Koszul slot {p} has rank {r}, expected {comb(6, p)}"
            )
    return cx


@cache
def surface_structure_complex() -> TermComplex:
    """Three-term complex on the Grassmannian equivalent to the structure
    sheaf of the degeneracy surface, obtained by collapsing the second
    factor of the incidence Koszul complex."""
    pushed = pushforward_complex(incidence_koszul(), along=1)
    if isinstance(pushed, Indeterminate):
        raise ArithmeticError("incidence pushforward is obstructed")
    return pushed


@cache
def surface_ideal_complex() -> TermComplex:
    """Two-term complex equivalent to the (twisted-back) ideal sheaf of the
    degeneracy surface: drop the trivial slot of the structure complex."""
    cx = surface_structure_complex()
    slots = {p - 1: b for p, b in cx.slots.items() if p >= 1}
    return TermComplex(cx.space, slots)


@cache
def fourfold_structure_complex() -> TermComplex:
    """Four-term Koszul resolution of the net fourfold's structure sheaf on
    the product of the Grassmannian and projective 3-space."""
    return TermComplex(
        _PRODUCT,
        {
            0: _product_bundle("O"),
            1: _product_bundle("S2U", 0, -1),
            2: _product_bundle("S2U", -1, -2),
            3: _product_bundle("O", -3, -3),
        },
    )


@lru_cache(maxsize=KERNEL_CACHE)
def _koszul_hom(kind_a: str, kind_b: str) -> TermComplex:
    """The fourfold's structure-sheaf Koszul complex tensored with
    Hom(K_a, K_b) on the ambient product, once per kind pair; twisted by
    t_b - t_a (in the staircase) it is the complex of any two twists of
    the kinds."""
    return fourfold_structure_complex().tensor(
        _hom_kinds(_PRODUCT, kind_a, kind_b)
    )


@cache
def plane_koszul() -> TermComplex:
    """Koszul resolution of the distinguished plane inside the Grassmannian
    (the sub-Grassmannian of planes through the marked subspace)."""
    return TermComplex(
        (GR24,),
        {
            0: _gr_bundle("O"),
            1: _gr_bundle("U"),
            2: _gr_bundle("O", -1),
        },
    )


def plane_cohomology(bundle: EquivariantBundle):
    """Cohomology on the distinguished plane of an ambient restriction."""
    return hypercohomology(plane_koszul().tensor(bundle))


def surface_cohomology(bundle: EquivariantBundle):
    """Cohomology on the degeneracy surface of an ambient restriction."""
    return hypercohomology(surface_structure_complex().tensor(bundle))


def ideal_twisted_cohomology(bundle: EquivariantBundle):
    """Cohomology of (ideal sheaf of the surface, twisted back) x bundle."""
    return hypercohomology(surface_ideal_complex().tensor(bundle))


@lru_cache(maxsize=KERNEL_CACHE)
def _line_cohomology(space, twists) -> MappingProxyType:
    """Graded cohomology of the line bundle O(twists) on ``space``
    (projective 3-space, the plane or P1 x P1), read-only."""
    return cohomology(line(space, twists)).dims()


# --------------------------------------------------------------------------
# variety base

class Variety:
    """A space with labelled objects, a class lattice, and an Ext oracle.

    A subclass supplies ``parse`` (label text to a hashable key),
    ``format`` (key to label text, the only writer of labels),
    ``is_line``, ``twist`` (key twisted by a line-bundle key), ``_class``
    and ``_ext`` on keys, and ``serre``, the line-bundle labels of the
    canonical bundle and its inverse.  Everything that takes label text
    is written here once on top of those; ``ext`` takes keys too.
    """

    name: str
    dim: int
    serre: tuple[str, str]

    def parse(self, label: str):
        raise NotImplementedError

    def format(self, key) -> str:
        raise NotImplementedError

    def is_line(self, key) -> bool:
        raise NotImplementedError

    def twist(self, key, line_key):
        raise NotImplementedError

    def _class(self, key):
        raise NotImplementedError

    def _ext(self, pa, pb) -> ExtAnswer:
        raise NotImplementedError

    def canon(self, label: str) -> str:
        return self.format(self.parse(label))

    def kclass(self, label: str):
        return self._class(self.parse(label))

    def ext(self, a, b) -> ExtAnswer:
        """The one entry point for Ext answers; each side is a label,
        parsed here, or a key."""
        return self._ext(self.parse(a) if isinstance(a, str) else a,
                         self.parse(b) if isinstance(b, str) else b)

    def chi(self, a: str, b: str) -> int:
        return self.lattice.pair(self.kclass(a), self.kclass(b))

    def _line(self, label: str):
        """The key of a line-bundle label, the only thing one twists by."""
        key = self.parse(label)
        if not self.is_line(key):
            raise InputError("can only twist by a line-bundle label")
        return key

    def twist_label(self, label: str, by: str) -> str:
        line_key = self._line(by)
        return self.format(self.twist(self.parse(label), line_key))

    def serre_label(self, label: str, inverse: bool = False) -> str:
        """Twist by the canonical bundle, or by its inverse."""
        return self.twist_label(label, self.serre[inverse])

    def _axioms(self, key) -> tuple[str, ...]:
        return ()

    def resolve_axioms(self, label: str) -> tuple[str, ...]:
        """Imported statements needed to even name this label's class."""
        return self._axioms(self.parse(label))

    def __repr__(self) -> str:
        return f"<variety {self.name}>"


# --------------------------------------------------------------------------
# homogeneous spaces

class HomogeneousVariety(Variety):
    """A product of weight-calculus factors; labels are equivariant bundles.

    Bundle kinds (U, Uv, S2U, ..., V/U) always refer to the first factor;
    line twists use one symbol per factor (``g`` for a Grassmannian
    factor, ``h`` for a projective-space factor).  Keys are
    ``(kind, twists)`` with one twist per factor.
    """

    def __init__(self, name, space, ring, symbols, grass_kinds):
        self.name = name
        self.space = tuple(space)
        self.ring = ring
        self.symbols = tuple(symbols)
        self._symbol_set = frozenset(self.symbols)
        self.grass_kinds = grass_kinds
        self.dim = sum(f.dim for f in self.space)
        self.lattice = AmbientLattice(ring, name)
        self._classes: dict = {}
        self._bundles: dict = {}
        self.serre = tuple(
            self.format(("O", tuple(sign * f.n for f in self.space)))
            for sign in (-1, 1)
        )

    def parse(self, label: str):
        written, twist_text = _split_twist(label)
        kind = _bundle_kind(written)
        if kind is None:
            raise InputError(f"{self.name} cannot parse label {label!r}")
        if kind != "O" and not self.grass_kinds:
            raise InputError(f"{self.name} only carries line-bundle labels")
        tw = parse_twist(twist_text, self._symbol_set)
        return kind, tuple([tw.get(s, 0) for s in self.symbols])

    def format(self, key) -> str:
        kind, twists = key
        return _wrap(kind, _fmt_twist(zip(twists, self.symbols)))

    def is_line(self, key) -> bool:
        return key[0] == "O"

    def twist(self, key, line_key):
        kind, twists = key
        return kind, tuple(t + o for t, o in zip(twists, line_key[1]))

    def _bundle(self, key) -> EquivariantBundle:
        if key not in self._bundles:  # bundles are immutable, so shared
            self._bundles[key] = _kind_bundle(self.space, *key)
        return self._bundles[key]

    def _class(self, key):
        if key not in self._classes:  # classes are immutable, so shared
            self._classes[key] = ch_bundle(self.ring, self._bundle(key))
        return self._classes[key]

    def _hom(self, pa, pb) -> tuple[EquivariantBundle, tuple[int, ...]]:
        """Hom(pa, pb) as the kind pair's kept bundle and the difference
        of the twists, which the staircase applies."""
        return (_hom_kinds(self.space, pa[0], pb[0]),
                _twist_difference(pa[1], pb[1]))

    def _ext(self, pa, pb) -> ExtAnswer:
        res = cohomology(*self._hom(pa, pb))
        return _from_graded(res.dims(), BBW, "weight staircase")


# --------------------------------------------------------------------------
# the net-of-quadrics fourfold

#: the fourfold's twist symbols
_FOURFOLD_SYMBOLS = frozenset(("g", "h"))


class NetFourfold(Variety):
    """The fourfold of pairs (plane, quadric-in-the-net containing it).

    It sits inside Gr x P3 with a four-term Koszul resolution of its
    structure sheaf, so Ext groups between pulled-back bundles reduce to
    staircase hypercohomology on the ambient product.  Beyond bundles it
    carries the even/odd Clifford sheaves ``Cliff_k`` (resolved by two line
    bundles, respectively a twist of the quotient bundle) and the ten plane
    sheaves ``O_Pl<i>(c)`` supported on the fibers over the distinguished
    points of the net.
    """

    name = "net_fourfold"
    dim = 4
    planes = 10
    serre = ("O(-g-h)", "O(g+h)")

    def __init__(self):
        self.ambient_ring = ring_gr24_p3()
        self._om = fourfold_structure_complex()
        # the Koszul weight sum_p (-1)^p ch(slot_p): chi on the fourfold of
        # pulled-back bundles is the ambient pairing against it
        self._om_weight = self.ambient_ring.zero()
        for p, bundle in self._om.slots.items():
            slot = ch_bundle(self.ambient_ring, bundle)
            self._om_weight += -slot if p % 2 else slot
        self._ambient_chs: dict = {}
        self._bundles: dict = {}
        self.lattice = FormalLattice(self.name, self._pair_oracle)

    # ---- labels

    def parse(self, label: str):
        label = label.strip()
        m = _PLANE.match(label)
        if m:
            i = int(m.group(1))
            if not 1 <= i <= self.planes:
                raise InputError(f"plane index out of range in {label!r}")
            return ("plane", i, int(m.group(2) or 0))
        m = _CLIFF.match(label)
        if m:
            tw = parse_twist(m.group(2) or "", _FOURFOLD_SYMBOLS)
            return ("cliff", int(m.group(1)), tw.get("g", 0), tw.get("h", 0))
        written, twist_text = _split_twist(label)
        kind = _bundle_kind(written)
        if kind is not None:
            tw = parse_twist(twist_text, _FOURFOLD_SYMBOLS)
            return ("bundle", kind, tw.get("g", 0), tw.get("h", 0))
        raise InputError(f"{self.name} cannot parse label {label!r}")

    def format(self, key) -> str:
        if key[0] == "plane":
            _, i, c = key
            return _wrap(f"O_Pl{i}", str(c) if c else "")
        head = f"Cliff_{key[1]}" if key[0] == "cliff" else key[1]
        return _wrap(head, _fmt_twist([(key[2], "g"), (key[3], "h")]))

    def is_line(self, key) -> bool:
        return key[0] == "bundle" and key[1] == "O"

    def twist(self, key, line_key):
        _, _, dg, dh = line_key
        if key[0] == "plane":
            # the projective-space direction is trivial on every plane fiber
            _, i, c = key
            return ("plane", i, c + dg)
        tag, kind, g, h = key
        return (tag, kind, g + dg, h + dh)

    def _axioms(self, key) -> tuple[str, ...]:
        return ("clifford_modules",) if key[0] == "cliff" else ()

    # ---- classes

    def _resolve(self, key) -> dict:
        """Expand a key into lattice-generator keys and coefficients."""
        key = self._odd_cliff_bundle(key)
        if key[0] == "cliff":
            sub, quo = self._cliff_halves(key)
            return {sub: 1, quo: 1}
        if key[0] == "bundle" and key[1] not in ("O", "V/U"):
            raise InputError(
                f"no lattice generator for bundle kind {key[1]!r}"
            )
        return {key: 1}

    def _class(self, key):
        return self.lattice.combo(self._resolve(key))

    # ---- pairing oracle: a bundle-bundle pair goes by Riemann-Roch against
    # the Koszul weight; a pair with a plane reads ``_plane_staircase``, the
    # same staircase the Ext route to a plane answers from

    def _ambient_ch(self, key):
        """ch of a pulled-back bundle on the ambient product, memoised."""
        if key not in self._ambient_chs:
            self._ambient_chs[key] = ch_bundle(
                self.ambient_ring, self._bundle(key)
            )
        return self._ambient_chs[key]

    def _ambient_chi(self, pa, pb) -> int:
        """chi of two pulled-back bundles: one ambient pairing against
        the Koszul weight."""
        return euler_pairing(
            self.ambient_ring, self._ambient_ch(pa), self._ambient_ch(pb),
            weight=self._om_weight,
        )

    def _pair_oracle(self, pa, pb):
        if pa[0] == "bundle" and pb[0] == "bundle":
            return self._ambient_chi(pa, pb)
        if pa[0] == "plane" and pb[0] == "plane":
            if pa[1] != pb[1]:
                return 0
            if pa[2] == pb[2]:
                return 1
            raise InputError(
                f"{self.name} cannot pair two twists of one plane: "
                f"{self.format(pa)!r}, {self.format(pb)!r}"
            )
        if pa[0] == "bundle" and pb[0] == "plane":
            return _plane_staircase(pa[1], pb[2] - pa[2]).euler()
        if pa[0] == "plane" and pb[0] == "bundle":
            # Serre duality on the fourfold against the plane twisted by -1;
            # even dimension keeps the sign
            return _plane_staircase(pb[1], pa[2] - 1 - pb[2]).euler()
        return None

    def _bundle(self, parsed) -> EquivariantBundle:
        if parsed not in self._bundles:  # bundles are immutable, so shared
            _, kind, g, h = parsed
            self._bundles[parsed] = _product_bundle(kind, g, h)
        return self._bundles[parsed]

    # ---- graded Ext

    def _ext(self, pa0, pb0) -> ExtAnswer:
        pa, pb = self._odd_cliff_bundle(pa0), self._odd_cliff_bundle(pb0)
        extra = [
            "clifford_modules" for p, p0 in ((pa, pa0), (pb, pb0)) if p != p0
        ]

        if pa[0] == "cliff":
            sub, quo = self._cliff_halves(pa)
            ans = self._cliff_splice(self._ext(quo, pb), self._ext(sub, pb))
        elif pb[0] == "cliff":
            sub, quo = self._cliff_halves(pb)
            ans = self._cliff_splice(self._ext(pa, sub), self._ext(pa, quo))
        elif pa[0] == "plane" and pb[0] == "plane":
            ans = self._ext_planes(pa, pb)
        elif pa[0] == "plane":
            ans = self._ext_from_plane(pa, pb)
        elif pb[0] == "plane":
            ans = self._ext_to_plane(pa, pb)
        else:
            ans = self._ext_bundles(pa, pb)

        if (
            not ans.determinate
            and pb0[0] == "cliff"
            and pb0[2] == -1
            and pa0[0] == "bundle"
            and pa0[1] == "O"
            and pa0[2] == 0
        ):
            # Projection to the net kills every Clifford sheaf twisted back
            # by the Grassmannian polarization, so Ext from any pure-h line
            # bundle vanishes outright.  The Euler characteristic computed
            # above must agree.
            if ans.chi not in (None, 0):
                raise ArithmeticError(
                    "pushforward-vanishing import contradicts the pairing: "
                    f"chi = {ans.chi}"
                )
            ans = ExtAnswer(
                {}, 0, AXIOM, "net-projection pushforward vanishing",
                ans.axioms + ("clifford_pushforward_vanishing",),
            )
        if extra:
            ans = ExtAnswer(
                ans.graded, ans.chi, ans.tag, ans.route,
                ans.axioms + tuple(extra), ans.table,
            )
        return ans

    def _hom_complex(self, pa, pb) -> tuple[TermComplex, tuple[int, ...]]:
        """The Koszul complex tensored with Hom(pa, pb) of two bundle
        keys, as the kind pair's kept complex and the difference of the
        twists, which the staircase applies."""
        return (_koszul_hom(pa[1], pb[1]),
                _twist_difference(pa[2:], pb[2:]))

    def _ext_bundles(self, pa, pb) -> ExtAnswer:
        return _from_staircase(
            hypercohomology(*self._hom_complex(pa, pb)), BBW,
            "structure-sheaf Koszul + weight staircase",
            "staircase Euler characteristic",
        )

    def _ext_to_plane(self, pa, pb) -> ExtAnswer:
        return _from_staircase(
            _plane_staircase(pa[1], pb[2] - pa[2]), RULE,
            "plane restriction + Koszul staircase",
            "plane restriction, Euler characteristic only",
        )

    def _ext_from_plane(self, pa, pb) -> ExtAnswer:
        """Serre duality: Ext^t(plane, T) = Ext^(4-t)(T, plane(-1))^dual."""
        return _serre_dual(
            self._ext(pb, ("plane", pa[1], pa[2] - 1)), self.dim
        )

    def _ext_planes(self, pa, pb) -> ExtAnswer:
        if pa[1] != pb[1]:
            return _from_graded({}, RULE, "disjoint plane supports")
        if pa[2] == pb[2]:
            return _from_graded(
                {0: 1}, AXIOM, "fully faithful plane image",
                axioms=("enriques_image_plane",),
            )
        return ExtAnswer(
            None, None, UNCHECKED,
            "same plane, different twists: no certified route",
        )

    @staticmethod
    def _odd_cliff_bundle(key):
        """An odd Clifford sheaf as the twisted quotient bundle it is."""
        if key[0] == "cliff" and key[1] % 2:
            _, k, g, h = key
            return ("bundle", "V/U", g, h + (k - 1) // 2)
        return key

    def _cliff_halves(self, pcliff):
        _, k, g, h = pcliff
        m = k // 2
        sub = ("bundle", "O", g, h + m)
        quo = ("bundle", "O", g + 1, h + m - 1)
        return sub, quo

    @staticmethod
    def _cliff_splice(ea: ExtAnswer, eb: ExtAnswer) -> ExtAnswer:
        """Splice the Ext groups of the two halves of an even Clifford sheaf.

        ``ea`` and ``eb`` are ordered as in the long exact sequence, whose
        connecting map runs from ``eb`` in degree t to ``ea`` in degree
        t+1; the grading is certified when every such map has a zero end.
        """
        chi = (
            None
            if ea.chi is None or eb.chi is None
            else ea.chi + eb.chi
        )
        axioms = ("clifford_modules",) + ea.axioms + eb.axioms
        if ea.determinate and eb.determinate:
            clear = all(
                not (eb.graded.get(t, 0) and ea.graded.get(t + 1, 0))
                for t in eb.graded
            )
            if clear:
                return ExtAnswer(
                    _merge(ea.graded, eb.graded), chi, RULE,
                    "Clifford two-step splice", axioms,
                )
        return ExtAnswer(
            None, chi, CHI_ONLY, "Clifford splice, Euler only", axioms
        )


@lru_cache(maxsize=KERNEL_CACHE)
def _plane_staircase(kind: str, s: int):
    """Staircase of Ext(bundle of ``kind``, plane sheaf twisted ``s`` past
    the bundle's Grassmannian twist) on the fourfold: restrict and twist.

    The projective-space direction is trivial on the plane, so only the
    Grassmannian part of the bundle survives restriction, and the answer
    depends on the kind and c - g only.  The result is immutable, so the
    Ext route to a plane and the lattice's pair oracle share it.
    """
    return plane_cohomology(_gr_bundle(kind).dual().twist((s,)))


# --------------------------------------------------------------------------
# the node blowups: the blown-up projective space and its double cover

class _NodeBlowup(Variety):
    """A threefold over projective 3-space with one surface S_i over each
    of N nodes: the blowup's exceptional planes or its double cover's
    contracted quadrics.

    Line bundles are ``O(D)``, D spanned by ``h`` and ``e1 .. eN`` (``e``
    is their sum, ``H`` the half-anticanonical ``2h - e``), keyed
    ``("line", h, (e1, .., eN))``; surface sheaves are ``O_E<i>(a)`` or
    ``O_Q<i>(a,b)``, keyed ``(tag, i, *twists)``.

    Every rule for a surface sheaf is written here once.  The class e_i
    restricts to S_i as its normal bundle, O(-1) or O(-1,-1), and S_i meets
    no other e_j and no other surface; the restriction sequence of a divisor
    and Serre duality (Huybrechts, *Fourier-Mukai Transforms*, 11.1) give

    * Ext(O(D), O_S(a)) = H^*(S, O(a + beta)), beta the e_i coefficient of D;
    * Ext^t(O_S(a), O(D)) dual to Ext^(3-t)(O(D), O_S(a) x omega);
    * Ext(O_S(a), O_S(b)) = H^*(S, O(b - a)) + H^*(S, O(b - a - 1))[-1];
    * no Ext between sheaves on two different surfaces.

    A subclass sets the surface's key tag, label head and pattern, its
    space, its words in errors and routes, and omega's h and e coefficients;
    it writes its lattice, ``_class`` and ``_line_ext`` (two line bundles).
    """

    dim = 3

    def __init__(self, nodes: int):
        self.nodes = nodes
        self._symbols = frozenset({"h", "e", "H"} | {
            f"e{i}" for i in range(1, nodes + 1)
        })
        h, e = self._canonical
        self._omega = ("line", h, (e,) * nodes)
        self.serre = (
            self.format(self._omega), self.format(_negate_line(self._omega))
        )

    # ---- labels

    def _divisor(self, twist_text: str):
        tw = parse_twist(twist_text, self._symbols)
        big_h = tw.pop("H", 0)
        h = tw.pop("h", 0) + 2 * big_h
        e = [tw.pop("e", 0) - big_h] * self.nodes
        for sym, c in tw.items():  # only e1 .. eN are left
            e[int(sym[1:]) - 1] += c
        return h, tuple(e)

    def parse(self, label: str):
        label = label.strip()
        m = self._label.match(label)
        if m:
            i, *twists = [int(g or 0) for g in m.groups()]
            if not 1 <= i <= self.nodes:
                raise InputError(
                    f"{self._words[0]} index out of range in {label!r}"
                )
            return (self._tag, i, *twists)
        kind, twist_text = _split_twist(label)
        if kind != "O":
            raise InputError(f"{self.name} cannot parse label {label!r}")
        h, e = self._divisor(twist_text)
        return ("line", h, e)

    def format(self, key) -> str:
        if key[0] == self._tag:
            twists = ",".join(map(str, key[2:])) if any(key[2:]) else ""
            return _wrap(f"{self._head}{key[1]}", twists)
        _, h, e = key
        pairs = [(h, "h")]
        if e and all(c == e[0] for c in e) and e[0]:
            pairs.append((e[0], "e"))
        else:
            pairs += [(c, f"e{i + 1}") for i, c in enumerate(e)]
        return _wrap("O", _fmt_twist(pairs))

    def is_line(self, key) -> bool:
        return key[0] == "line"

    def twist(self, key, line_key):
        _, dh, de = line_key
        if key[0] == self._tag:
            t = de[key[1] - 1]
            return key[:2] + tuple(a - t for a in key[2:])
        _, h, e = key
        return ("line", h + dh, tuple(x + y for x, y in zip(e, de)))

    # ---- graded Ext

    def _ext(self, pa, pb) -> ExtAnswer:
        if pa[0] == "line" and pb[0] == "line":
            return self._line_ext(pa, pb)
        _, surface, surfaces = self._words
        if pa[0] == "line":
            beta = pa[2][pb[1] - 1]
            twists = tuple(t + beta for t in pb[2:])
            graded = _line_cohomology(self._surface, twists)
            return _from_graded(graded, RULE, f"{surface} restriction")
        if pb[0] == "line":
            return _serre_dual(
                self._ext(pb, self.twist(pa, self._omega)), self.dim
            )
        if pa[1] != pb[1]:
            return _from_graded({}, RULE, f"disjoint {surfaces}")
        d = _twist_difference(pa[2:], pb[2:])
        normal = tuple(t - 1 for t in d)
        graded = _merge(
            _line_cohomology(self._surface, d),
            _shift(_line_cohomology(self._surface, normal), 1),
        )
        return _from_graded(graded, RULE, f"{surface} self-extensions")


class BlownProjectiveSpace(_NodeBlowup):
    """Projective 3-space blown up in N general points; the surfaces are
    the exceptional planes, keyed ``("eplane", i, a)``.  The class lattice
    is the ambient Chow lattice."""

    name = "blown_p3"
    _tag, _head, _label = "eplane", "O_E", _EPLANE
    _surface, _canonical = (P2,), (-4, 2)
    _words = ("plane", "exceptional-plane", "exceptional planes")

    def __init__(self, nodes: int):
        super().__init__(nodes)
        self.ring = ring_blowup(nodes)
        self.lattice = AmbientLattice(self.ring, self.name)
        self._classes: dict = {}

    # ---- classes

    def _class(self, key):
        if key not in self._classes:  # classes are immutable, so shared
            make = blowup_plane_ch if key[0] == "eplane" else blowup_line_ch
            self._classes[key] = make(self.ring, key[1], key[2])
        return self._classes[key]

    # ---- graded Ext

    def line_graded(self, dh: int, de) -> MappingProxyType | None:
        """Graded cohomology of O(dh + sum de_i e_i), when forced.

        Peeling one exceptional layer gives the sequence
        0 -> O(D - e_i) -> O(D) -> O_{E_i}(-a_i) -> 0, and the plane
        sheaves O_{E_i}(-1), O_{E_i}(-2) have no cohomology at all; so as
        long as every exceptional coefficient sits in [0, 2] the answer
        equals the blowdown's.  Outside that window return None.
        """
        if all(0 <= a <= 2 for a in de):
            return _line_cohomology((P3,), (dh,))
        return None

    def _line_ext(self, pa, pb) -> ExtAnswer:
        dh = pb[1] - pa[1]
        de = tuple(x - y for x, y in zip(pb[2], pa[2]))
        graded = self.line_graded(dh, de)
        if graded is not None:
            return _from_graded(graded, RULE, (
                "exceptional-layer peeling" if any(de)
                else "blowdown projection formula"
            ))
        return ExtAnswer(
            None,
            euler_pairing(self.ring, self._class(pa), self._class(pb)),
            CHI_ONLY, "ambient Riemann-Roch Euler characteristic",
        )


class CoverBlowup(_NodeBlowup):
    """Double cover of the blown-up projective space, node quadrics resolved.

    Line bundles are pullbacks from the base ``blown_p3``; the surfaces are
    the contracted quadrics, keyed ``("quad", i, a, b)``.  The lattice is
    formal, with one relation per node tying the quadric's structure sheaf
    to the two neighbouring line bundles, and the line-line pairing doubles
    through the cover.
    """

    name = "double_cover_blowup"
    _tag, _head, _label = "quad", "O_Q", _QUAD
    _surface, _canonical = (P1, P1), (-2, 1)
    _words = ("quadric", "contracted-quadric", "contracted quadrics")

    def __init__(self, nodes: int):
        super().__init__(nodes)
        self.base = BlownProjectiveSpace(nodes)
        flat = (0,) * nodes
        relations = [
            {("line", 0, flat): 1,
             ("line", 0, flat[:i] + (-1,) + flat[i + 1:]): -1,
             ("quad", i + 1, 0, 0): -1}
            for i in range(nodes)
        ]
        self.lattice = FormalLattice(
            self.name, self._pair_oracle, relations=relations
        )

    # ---- classes and their pairing oracle

    def _class(self, key):
        return self.lattice.cls(key)

    def _pair_oracle(self, pa, pb):
        return self._ext(pa, pb).chi

    # ---- graded Ext

    def _line_line_chi(self, pa, pb) -> int:
        dh = pb[1] - pa[1]
        de = tuple(x - y for x, y in zip(pb[2], pa[2]))
        top = self.base._class(("line", dh, de))
        down = self.base._class(("line", dh - 2, tuple(c + 1 for c in de)))
        return ring_chi(self.base.ring, top) + ring_chi(self.base.ring, down)

    def _line_ext(self, pa, pb) -> ExtAnswer:
        dh = pb[1] - pa[1]
        de = tuple(x - y for x, y in zip(pb[2], pa[2]))
        top = self.base.line_graded(dh, de)
        down = self.base.line_graded(dh - 2, tuple(c + 1 for c in de))
        if top is not None and down is not None:
            return _from_graded(
                _merge(top, down), RULE,
                "cover doubling + exceptional-layer peeling",
            )
        return ExtAnswer(
            None, self._line_line_chi(pa, pb), CHI_ONLY,
            "double-cover doubling, Euler characteristic",
        )


# --------------------------------------------------------------------------
# imported statements

AXIOMS: dict[str, str] = {
    "orlov_blowup_sod": (
        "Blowup decomposition (Orlov): the derived category of a blowup "
        "along a smooth center splits into the base category and shifted "
        "copies of the center's category supported on the exceptional "
        "divisor; for point centers these are the exceptional-plane sheaves."
    ),
    "enriques_ten_orthogonal": (
        "Ten orthogonal sheaves (Zube): on an Enriques surface the ten "
        "multiple-fiber line bundles of the isotropic pencil degenerations "
        "form a completely orthogonal exceptional sequence."
    ),
    "enriques_image_plane": (
        "Plane images: the fully faithful functor from the Enriques surface "
        "to the net fourfold sends those ten line bundles to the twisted "
        "plane sheaves O_Pl<i>(-1); full faithfulness transports their Ext "
        "algebras, so each plane image is exceptional."
    ),
    "clifford_modules": (
        "Clifford sheaves (Kuznetsov): the even Clifford sheaf Cliff_{2m} "
        "is an extension of O(g+(m-1)h) by O(mh), the odd one Cliff_{2m+1} "
        "is the quotient bundle twisted by O(mh), consecutive quadruples "
        "are exceptional, and they generate the quadric-fibration component."
    ),
    "clifford_pushforward_vanishing": (
        "Pushforward vanishing: the projection of the net fourfold to the "
        "net of quadrics kills every Clifford sheaf twisted back by the "
        "Grassmannian polarization, so pullbacks from the net have no Ext "
        "into Cliff_k(-g+*h)."
    ),
    "quadric_net_sod": (
        "Net decomposition: the derived category of the net fourfold "
        "decomposes into two line bundles, a copy of the derived category "
        "of the associated double solid (via its Clifford algebra), and "
        "the residual component; this is the comparison target for the "
        "mutation chain."
    ),
}


def axiom_statement(name: str) -> str:
    return AXIOMS[name]


# --------------------------------------------------------------------------
# catalog

VARIETY_NAMES = (
    "P3",
    "Gr23",
    "Gr24",
    "Gr24xP3",
    "net_fourfold",
    "blown_p3",
    "double_cover_blowup",
)

_VARIETY_CACHE: dict[tuple[str, int], Variety] = {}


def get_variety(name: str, nodes: int = DEFAULT_NODES) -> Variety:
    key = (name, nodes)
    if key in _VARIETY_CACHE:
        return _VARIETY_CACHE[key]
    if name == "P3":
        v = HomogeneousVariety("P3", (P3,), ring_p3(), ("h",), False)
    elif name == "Gr23":
        v = HomogeneousVariety("Gr23", (GR23,), ring_gr23(), ("g",), True)
    elif name == "Gr24":
        v = HomogeneousVariety("Gr24", (GR24,), ring_gr24(), ("g",), True)
    elif name == "Gr24xP3":
        v = HomogeneousVariety(
            "Gr24xP3", (GR24, P3), ring_gr24_p3(), ("g", "h"), True
        )
    elif name == "net_fourfold":
        v = NetFourfold()
    elif name == "blown_p3":
        v = BlownProjectiveSpace(nodes)
    elif name == "double_cover_blowup":
        v = CoverBlowup(nodes)
    else:
        raise KeyError(f"unknown variety {name!r}")
    _VARIETY_CACHE[key] = v
    return v


# --------------------------------------------------------------------------
# the check record

class Check(NamedTuple):
    """One verdict: a name, whether it passed, a one-line detail and the
    sub-checks it stands on; ``verify-all`` prints one row per check."""

    name: str
    passed: bool
    detail: str
    items: tuple = ()

    @classmethod
    def all_of(cls, name: str, detail: str, items) -> "Check":
        """A check that passes exactly when every one of ``items`` does."""
        items = tuple(items)
        return cls(name, all(c.passed for c in items), detail, items)


# --------------------------------------------------------------------------
# the split certificate

def check_split_certificate() -> Check:
    """Verify the class-level certificate behind the split identification.

    Nine named classes, four exact-sequence relations, and the target
    combination asserting that the plane image, the residual Clifford
    piece, and the half-twist line bundle assemble the same class as the
    tautological-bundle side.  Membership is decided by Smith reduction;
    the four leave-one-out runs must all fail, showing each relation is
    load-bearing.  The graded side conditions are computed by restriction
    staircases only.  Returns a ``Check`` of three: the certificate, the
    leave-one-out runs and the side conditions; its detail is the
    certificate's, or "certificate failed" when any of the three fails.
    """
    generators = [
        "plane_pullback",     # structure pull-push of the distinguished plane
        "O(2g)",
        "Uv(g)",
        "O(g)",
        "plane_image(-1)",    # the twisted plane sheaf on the fourfold
        "residual_twist",     # the complementary summand of the pull-push
        "even_clifford(g)",   # the twisted even Clifford sheaf
        "clifford_residual",  # its summand away from the plane
        "O(h-g)",
    ]
    idx = {g: i for i, g in enumerate(generators)}

    def vec(coeffs: dict[str, int]):
        v = [0] * len(generators)
        for g, c in coeffs.items():
            v[idx[g]] = c
        return v

    relations = [
        {"plane_pullback": 1, "O(2g)": -1, "Uv(g)": 1, "O(g)": -1},
        {"plane_pullback": 1, "plane_image(-1)": -1, "residual_twist": -1},
        {"even_clifford(g)": 1, "clifford_residual": -1,
         "residual_twist": -1},
        {"O(2g)": 1, "O(h-g)": -1, "even_clifford(g)": -1},
    ]
    target = {
        "plane_image(-1)": 1, "O(h-g)": -1, "clifford_residual": -1,
        "Uv(g)": 1, "O(g)": -1,
    }

    rows = [vec(r) for r in relations]
    tvec = vec(target)
    ok, certificate = relation_membership(rows, tvec)
    found = Check("certificate", ok,
                  f"coefficients {certificate if ok else None}")

    dropped = []
    for drop in range(len(rows)):
        held, _ = relation_membership(rows[:drop] + rows[drop + 1:], tvec)
        dropped.append(Check(
            f"without relation {drop + 1}", not held,
            "UNEXPECTEDLY holds" if held else "fails as required",
        ))

    # graded side conditions, all by restriction staircases
    sides = []
    for desc, res, expect in (
        ("plane structure cohomology is one-dimensional",
         plane_cohomology(_gr_bundle("O")), {0: 1}),
        ("plane cohomology of O(-2) vanishes",
         plane_cohomology(_gr_bundle("O", -2)), {}),
        ("plane cohomology of U(-2) vanishes",
         plane_cohomology(_gr_bundle("U", -2)), {}),
        ("no Ext from O(g) to the half-twist",
         ideal_twisted_cohomology(_gr_bundle("O", 1)), {}),
        ("no Ext from Uv(g) to the half-twist",
         ideal_twisted_cohomology(_gr_bundle("U").tensor(
             _gr_bundle("O", 1))), {}),
    ):
        sides.append(Check(desc, res.determinate and res.dims() == expect,
                           repr(dict(res.dims()) if res.determinate else res)))

    parts = (
        found,
        Check.all_of("leave-one-out", f"{len(dropped)} relations", dropped),
        Check.all_of("side conditions", f"{len(sides)} conditions", sides),
    )
    passed = all(c.passed for c in parts)
    return Check("split certificate for the surface block", passed,
                 found.detail if passed else "certificate failed", parts)


# --------------------------------------------------------------------------
# the double-cover lattice check

def double_cover_check(base_name: str, polarization: str, collection,
                       nodes: int = DEFAULT_NODES) -> Check:
    """Numerical certificate for pulling a collection through a double cover.

    Checks, on the base: (i) the canonical class is minus twice the given
    polarization; (ii) the collection doubled by its (-polarization) twist
    is numerically exceptional in the doubled order (graded, when the base
    is homogeneous); (iii) the cover-side pairing defined by doubling is
    unitriangular on the collection and satisfies cover Serre duality;
    (iv) an independent Euler route re-derives the cover pairing.  The
    labels are parsed once; twists, pairings and Ext queries act on keys.
    Each cover pairing is computed once and kept for the items that ask
    for it again; every item still checks every pair.  Returns the
    ``Check`` "double-cover doubling on <base>" of the five items.
    """
    base = get_variety(base_name, nodes)
    pol = base._line(polarization)
    keys = [base.parse(c) for c in collection]
    for key in keys:
        _negate_line(key)  # every member must be a line bundle
    neg = _negate_line(pol)
    items = []

    # (i) canonical class equals the inverse square of the polarization
    ok = base.ring.canonical_ch == base._class(
        _negate_line(base.twist(pol, pol))
    )
    items.append(Check(
        "canonical class is minus twice the polarization", ok,
        f"H = {polarization}",
    ))

    # (ii) doubled collection on the base
    doubled = [base.twist(k, neg) for k in keys] + keys
    graded_ok = True
    detail = "chi-level"
    if isinstance(base, HomogeneousVariety):
        detail = "graded"
        for j in range(len(doubled)):
            for i in range(j, len(doubled)):  # Ext from the later one
                ans = base.ext(doubled[i], doubled[j])
                if ans.graded != ({0: 1} if i == j else {}):
                    graded_ok = False
    gram_ok = is_unitriangular(
        gram(base.lattice, [base._class(k) for k in doubled])
    )
    items.append(Check(
        "doubled collection is numerically exceptional on the base",
        graded_ok and gram_ok, f"{len(doubled)} classes, {detail}",
    ))

    # (iii) cover-side pairing by doubling
    cover: dict = {}

    def cover_chi(x, y) -> int:
        val = cover.get((x, y))
        if val is None:
            direct = base.lattice.pair(base._class(x), base._class(y))
            down = base.lattice.pair(
                base._class(x), base._class(base.twist(y, neg))
            )
            val = cover[(x, y)] = direct + down
        return val

    tri_ok = is_unitriangular([[cover_chi(x, y) for y in keys] for x in keys])
    items.append(Check(
        "cover pairing is unitriangular on the collection", tri_ok,
        f"{len(collection)} objects",
    ))

    serre_ok = True
    sign = (-1) ** base.dim
    for x in keys:
        for y in keys:
            lhs = cover_chi(x, y)
            rhs = sign * cover_chi(y, base.twist(x, neg))
            if lhs != rhs:
                serre_ok = False
    items.append(Check(
        "cover pairing satisfies cover Serre duality", serre_ok,
        f"chi(A,B) = (-1)^{base.dim} chi(B, A x inverse polarization)",
    ))

    # (iv) the doubling identity re-derived by an engine that never touches
    # the intersection-theory pairing
    if isinstance(base, BlownProjectiveSpace):
        route = "exceptional-layer peeling"

        def indep_chi(x, y) -> int:
            _, dh, de = base.twist(y, _negate_line(x))
            return line_euler_by_peeling(dh, de)
    else:
        route = "weight staircase"
        trivial = ("O", (0,) * len(base.space))

        def indep_chi(x, y) -> int:
            return base.ext(trivial, base.twist(y, _negate_line(x))).chi

    ident_ok = True
    for x in keys:
        for y in keys:
            indep = indep_chi(x, y) + indep_chi(x, base.twist(y, neg))
            if indep != cover_chi(x, y):
                ident_ok = False
    items.append(Check(
        "cover pairing matches an independent Euler route", ident_ok,
        f"doubling identity re-derived by {route} on all pairs",
    ))

    return Check.all_of(f"double-cover doubling on {base_name}",
                        f"{len(items)} items", items)


def line_euler_by_peeling(dh: int, de) -> int:
    """Euler characteristic of a line bundle on the blowup, by layer peeling.

    Independent of the intersection-theory route: peels the exceptional
    layers one at a time through the restriction sequence
    ``0 -> O(D - e_i) -> O(D) -> O_{E_i}(-a_i) -> 0`` (additive in Euler
    characteristics), reducing to weight-staircase computations on the
    underlying projective space and on the exceptional planes.  Peeling
    a coefficient a > 0 down to 0 adds chi(P2, O(-k)) for k = 1..a;
    raising a < 0 up to 0 subtracts chi(P2, O(-k-1)) for k = a..-1.
    """
    total = _p3_euler(dh)
    for a in de:
        if a > 0:
            total += sum(_p2_euler(-k) for k in range(1, a + 1))
        elif a < 0:
            total -= sum(_p2_euler(-k - 1) for k in range(a, 0))
    return total


def _p2_euler(t: int) -> int:
    """chi(O(t)) on the projective plane, by the weight staircase."""
    return _euler_sum(_line_cohomology((P2,), (t,)))


def _p3_euler(t: int) -> int:
    """chi(O(t)) on projective 3-space, by the weight staircase."""
    return _euler_sum(_line_cohomology((P3,), (t,)))


def _negate_line(key):
    """The key of the inverse line bundle, on a homogeneous space or the
    blowup."""
    if key[0] == "O":
        return "O", tuple(-t for t in key[1])
    if key[0] == "line":
        _, h, e = key
        return "line", -h, tuple(-c for c in e)
    raise InputError("expected a line-bundle label")


# --------------------------------------------------------------------------
# the ideal-sheaf shadow

def projection_shadow_report() -> Check:
    """Check that the half-twist pushforward matches the surface ideal.

    For every irreducible summand T of the Grassmannian's tautological
    generator (the six Schur twists fitting in the 2x2 box), the Euler
    characteristic of O(h) x T on the fourfold must equal that of
    (ideal sheaf of the degeneracy surface)(3g) x T on the Grassmannian.
    Both sides are computed twice: by the Riemann-Roch lattice and by the
    weight staircase, and all four numbers must agree.  Returns a ``Check``
    with one item per summand, whose detail is the Riemann-Roch pair.
    """
    fourfold = get_variety("net_fourfold")
    gr_ring = ring_gr24()
    amb = fourfold.ambient_ring

    schur = [
        ("O", (0, 0)),
        ("Uv", (1, 0)),
        ("O(g)", (1, 1)),
        ("S2Uv", (2, 0)),
        ("Uv(g)", (2, 1)),
        ("O(2g)", (2, 2)),
    ]

    items = []
    for label, (la, lb) in schur:
        T_gr = irr((GR24,), [((la, lb), (0, 0))])
        T_amb = irr(_PRODUCT, [((la, lb), (0, 0)), kind_pairs(P3, "O")])
        twisted = T_amb.twist((0, 1))  # T x O(h)

        # fourfold side, Riemann-Roch
        lhs = ring_chi(
            amb, ch_bundle(amb, twisted), weight=fourfold._om_weight
        )
        # fourfold side, staircase
        lhs_bbw = hypercohomology(fourfold._om.tensor(twisted)).euler()

        # ideal side: [ideal(3g)] = 4[O] - [S2U]
        chT = ch_bundle(gr_ring, T_gr)
        rhs = 4 * ring_chi(gr_ring, chT) - ring_chi(
            gr_ring, ch_bundle(gr_ring, _gr_bundle("S2U").tensor(T_gr))
        )
        # ideal side, staircase on the two-term complex twisted by 3g
        rhs_bbw = hypercohomology(
            surface_ideal_complex().twist((3,)).tensor(T_gr)
        ).euler()

        items.append(Check(label, lhs == rhs == lhs_bbw == rhs_bbw,
                           f"fourfold {lhs}, ideal {rhs}"))
    return Check.all_of("projection shadow of the surface ideal",
                        f"{len(items)} basis bundles", items)
