"""K-theory lattices, Smith normal form, and the mutation calculus.

Two lattice flavors share one interface (``pair``, ``eq``, ``zero``):

* an ambient lattice presented by a Chow ring -- classes are Chern
  characters and the pairing is the exact Euler pairing;
* a formal lattice on hashable generators (a variety's own keys) -- the
  pairing is supplied by an oracle (typically backed by cohomology rules)
  and optional integral relations identify classes.

Mutations are the universal K-class formulas

    left:   [L_E F] = [F] - chi(E, F) [E]
    right:  [R_E F] = [F] - chi(F, E) [E]

valid over either lattice.  L_E and R_E are mutually inverse exactly between
the numerical orthogonals (chi(-, E) = 0 resp. chi(E, -) = 0); the property
tests sample those domains by projecting with the opposite mutation first.

Membership of a class in the integer span of a relation set is decided by
Smith normal form over the integers, and every positive answer carries a
certificate (the integer combination) that is re-verified by multiplication.
Each matrix is factorised once: ``_smith_factor`` keeps (diag, U, V) as
tuples in a bounded ``lru_cache`` keyed by the matrix.  Membership reads
those tuples as they are, and ``smith_normal_form`` hands fresh lists to
other callers; a formal lattice builds its relation matrix once.  The
certificate is still rebuilt and re-checked against the relations on
every membership call.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Hashable, Iterable, Sequence

from .chow import IntVector, euler_pairing
from .gl_weights import KERNEL_CACHE


# --------------------------------------------------------------------------
# integer matrices / Smith normal form

def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """U * A * V = D with U, V unimodular and D in Smith normal form.

    Returns (diag, U, V) where diag is the list of diagonal entries of D
    (nonnegative, each dividing the next, zeros at the end).  The lists are
    fresh copies of the memoised factorisation, so callers may change them.
    """
    diag, u, v = _smith_factor(tuple(tuple(map(int, row)) for row in matrix))
    return list(diag), [list(row) for row in u], [list(row) for row in v]


@lru_cache(maxsize=KERNEL_CACHE)
def _smith_factor(matrix: tuple[tuple[int, ...], ...]):
    """The Smith factorisation of one matrix, as immutable tuples."""
    a = [list(row) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    u = _identity(m)
    v = _identity(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        # find a nonzero pivot of minimal absolute value
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (
                    pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        while True:
            # clear column t; a nonzero remainder is smaller than the pivot,
            # so promote it and restart the pass
            restart = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            # clear row t
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # enforce divisibility of the remaining block by the pivot
            culprit = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            row_op(t, culprit, -1)  # add the offending row to the pivot row

        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    diag = tuple(a[i][i] for i in range(min(m, n)))
    return diag, tuple(map(tuple, u)), tuple(map(tuple, v))


def relation_membership(relations: Sequence[Sequence[int]],
                        target: Sequence[int]):
    """Is ``target`` an integer combination of the relation rows?

    Returns (True, certificate) with certificate . relations == target
    (re-verified exactly before returning), or (False, None).  The
    factorisation is read from the memo as it is kept, never copied.
    """
    target = list(map(int, target))
    rows = tuple(tuple(map(int, r)) for r in relations)
    if not rows:
        return (not any(target), [] if not any(target) else None)
    n = len(rows[0])
    if len(target) != n:
        raise ValueError("target length does not match relation width")

    diag, u, v = _smith_factor(rows)
    m = len(rows)
    # y . A = t  <=>  (y U^-1) D = t V; w := y U^-1
    tv = [0] * n
    for t, v_row in zip(target, v):
        if t:
            for j, x in enumerate(v_row):
                tv[j] += t * x
    w = [0] * m
    for j in range(n):
        d = diag[j] if j < len(diag) else 0
        if d:
            if tv[j] % d:
                return (False, None)
            if j < m:
                w[j] = tv[j] // d
        elif tv[j]:
            return (False, None)
    cert = [0] * m
    for c, u_row in zip(w, u):
        if c:
            for j, x in enumerate(u_row):
                cert[j] += c * x
    # exact verification of the certificate
    check = [0] * n
    for c, row in zip(cert, rows):
        if c:
            for j, x in enumerate(row):
                check[j] += c * x
    if check != target:
        return (False, None)
    return (True, cert)


# --------------------------------------------------------------------------
# lattices

class AmbientLattice:
    """K-classes as Chern characters over a Chow ring."""

    def __init__(self, ring, name: str | None = None):
        self.ring = ring
        self.name = name or ring.name

    def pair(self, a, b) -> int:
        return euler_pairing(self.ring, a, b)

    def eq(self, a, b) -> bool:
        return a == b

    def zero(self):
        return self.ring.zero()

    def __repr__(self) -> str:
        return f"AmbientLattice({self.name})"


class FormalClass(IntVector):
    """Integer combination of generators of a formal lattice: an
    `IntVector` keyed by generator, over denominator 1 (a lattice scales
    its classes by integer pairings only)."""

    __slots__ = ()

    def __init__(self, lattice: "FormalLattice",
                 coeffs: dict[Hashable, int]):
        self.home = lattice
        self.nums = {g: int(c) for g, c in coeffs.items() if c}
        self.den = 1
        for g in self.nums:
            lattice.ensure(g)

    @property
    def coeffs(self) -> dict[Hashable, int]:
        """Generator -> nonzero integer coefficient."""
        return self.nums

    def __repr__(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for g, c in sorted(self.nums.items()):
            if c == 1:
                parts.append(f"[{g}]")
            elif c == -1:
                parts.append(f"-[{g}]")
            else:
                parts.append(f"{c}[{g}]")
        return " + ".join(parts).replace("+ -", "- ")


class FormalLattice:
    """Free module on hashable generators with an oracle-backed pairing.

    ``pair_oracle(a, b)`` must return the Euler pairing of two generators
    (or None when genuinely unknown, which raises at use).  Optional
    ``relations`` (dicts generator -> coefficient) define identifications;
    class equality is then membership of the difference in their span,
    decided by Smith normal form.
    """

    def __init__(self, name: str,
                 pair_oracle: Callable[[Hashable, Hashable], int | None],
                 relations: Iterable[dict[Hashable, int]] = ()):
        self.name = name
        self.generators: list[Hashable] = []
        self._index: dict[Hashable, int] = {}
        self._oracle = pair_oracle
        self.relations: list[dict] = [dict(r) for r in relations]
        self._pair_cache: dict[tuple[Hashable, Hashable], int] = {}
        for r in self.relations:
            for g in r:
                self.ensure(g)
        # the relations name the first generators: one fixed row each
        self._rows = tuple(
            tuple(r.get(g, 0) for g in self.generators)
            for r in self.relations
        )

    def ensure(self, gen: Hashable) -> None:
        if gen not in self._index:
            self._index[gen] = len(self.generators)
            self.generators.append(gen)

    def cls(self, gen: Hashable) -> FormalClass:
        return FormalClass(self, {gen: 1})

    def combo(self, coeffs: dict[Hashable, int]) -> FormalClass:
        return FormalClass(self, coeffs)

    def zero(self) -> FormalClass:
        return FormalClass(self, {})

    def gen_pair(self, a: Hashable, b: Hashable) -> int:
        key = (a, b)
        if key not in self._pair_cache:
            val = self._oracle(a, b)
            if val is None:
                raise LookupError(
                    f"pairing oracle of {self.name} cannot pair "
                    f"({a!r}, {b!r})"
                )
            self._pair_cache[key] = int(val)
        return self._pair_cache[key]

    def pair(self, a: FormalClass, b: FormalClass) -> int:
        total = 0
        for g, c in a.nums.items():
            for h, d in b.nums.items():
                total += c * d * self.gen_pair(g, h)
        return total

    def eq(self, a: FormalClass, b: FormalClass) -> bool:
        diff = a - b
        if diff.is_zero():
            return True
        ok, _ = self.membership(diff)
        return ok

    def membership(self, target: FormalClass):
        """Certificate for target lying in the span of the relations; a
        target on a generator no relation names is rejected unfactorised."""
        width = len(self._rows[0]) if self._rows else 0
        vec = [0] * width
        for g, c in target.nums.items():
            i = self._index[g]
            if i >= width:
                return (False, None)
            vec[i] = c
        return relation_membership(self._rows, vec)

    def __repr__(self) -> str:
        return f"FormalLattice({self.name}, {len(self.generators)} generators)"


# --------------------------------------------------------------------------
# mutations

def mutate_left(lattice, e, f):
    """[L_E F] = [F] - chi(E, F) [E]."""
    return f.minus(e, lattice.pair(e, f))


def mutate_right(lattice, e, f):
    """[R_E F] = [F] - chi(F, E) [E]."""
    return f.minus(e, lattice.pair(f, e))


def is_exceptional(lattice, c) -> bool:
    return lattice.pair(c, c) == 1


def gram(lattice, classes: Sequence) -> list[list[int]]:
    """G[i][j] = chi(classes[i], classes[j])."""
    return [[lattice.pair(a, b) for b in classes] for a in classes]


def is_unitriangular(matrix: Sequence[Sequence[int]]) -> bool:
    """Unit diagonal, zeros strictly below: the numerical shadow of an
    exceptional collection."""
    n = len(matrix)
    for i in range(n):
        if matrix[i][i] != 1:
            return False
        for j in range(i):
            if matrix[i][j] != 0:
                return False
    return True

