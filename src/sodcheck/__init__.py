"""Exact-arithmetic verification of exceptional collections and their mutations.

The package machine-checks the linear-algebra shadow of semiorthogonal
decompositions on a small catalog of varieties: sheaf cohomology of
equivariant bundles on Grassmannian factors (Borel--Weil--Bott), Euler
pairings on integral Chow rings (Riemann--Roch), and a replayable mutation
calculus over K-theory lattices.  Everything is integer/rational arithmetic;
there are no floats anywhere.
"""

__version__ = "0.1.0"


class InputError(ValueError):
    """Input the program cannot take (the command line exits 2 on it)."""
