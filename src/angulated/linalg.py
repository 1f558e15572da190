"""The elimination kernel: exact rank, solve and nullspace, in integers.

Every system in this package is tiny (a handful of unknowns) and its
entries are mostly 0 and +-1.  Each row is scaled to integers by the lcm
of its denominators, and one fraction-free Gauss-Jordan elimination (each
updated row divided by the gcd of its entries, so integers stay small)
serves `rank`, `solve` and `nullspace`.  Only the entries these return
become `Fraction(numerator, pivot)`.  The reduced row echelon form is
unique, so every result equals the one elimination over `Fraction` gives.
Matrices are lists of rows of `int` or `Fraction` entries; an empty list
is the unique matrix with zero rows.  Functions that cannot infer the number of
columns from the data take it explicitly.  A system with no unknowns is
solvable exactly when its right side vanishes, so `solve` answers it
without an elimination.  No matrix product lives here:
`compose` and the Hom-exactness test share the masked product `core._cells`.
"""

from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[Fraction]]

_ZERO = Fraction(0)


def _reduce(rows: Matrix) -> tuple[list[list[int]], list[int]]:
    """Integer Gauss-Jordan form of `rows` and its pivot columns.

    Row k of the result has its pivot in column pivots[k] and zeros in
    every other pivot column; dividing the row by its pivot entry gives
    row k of the reduced row echelon form.  `rows` is left untouched.
    """
    work = []
    for row in rows:
        dens = [x.denominator for x in row]
        den = lcm(*dens)
        if den == 1:  # the common integral row needs no rescaling
            work.append([x.numerator for x in row])
        else:
            work.append([x.numerator * (den // q) for x, q in zip(row, dens)])
    nrows = len(work)
    pivots = []
    r = 0
    for c in range(len(work[0]) if work else 0):
        for i in range(r, nrows):
            if work[i][c]:
                break
        else:
            continue  # no pivot in this column
        work[r], work[i] = work[i], work[r]
        prow = work[r]
        pv = prow[c]
        for i, row in enumerate(work):
            a = row[c]
            if a and i != r:
                new = [pv * x - a * y for x, y in zip(row, prow)]
                g = gcd(*new)
                work[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots


def rank(rows: Matrix) -> int:
    return len(_reduce(rows)[1])


def solve(rows: Matrix, rhs: list[Fraction], nunknowns: int) -> list[Fraction] | None:
    """One solution of rows * x = rhs, or None if inconsistent.

    Free variables are set to zero.  `rows` may be empty (no constraints).
    A system with no unknowns is solvable exactly when its right side
    vanishes; it is answered from `rhs` alone, with no elimination.
    """
    if len(rows) != len(rhs):
        raise ValueError("rhs length must match the number of rows")
    if not nunknowns:
        return None if any(rhs) else []
    red, pivots = _reduce([[*r, b] for r, b in zip(rows, rhs)])
    if nunknowns in pivots:
        return None  # pivot in the constant column: 0 = 1
    sol = [_ZERO] * nunknowns
    for row, c in zip(red, pivots):
        sol[c] = Fraction(row[-1], row[c])
    return sol


def nullspace(rows: Matrix, nunknowns: int) -> list[list[Fraction]]:
    """Basis of the solution space of rows * x = 0, one vector per free column."""
    red, pivots = _reduce(rows)
    basis = []
    for f in range(nunknowns):
        if f in pivots:
            continue
        v = [Fraction(0)] * nunknowns
        v[f] = Fraction(1)
        for row, c in zip(red, pivots):
            v[c] = Fraction(-row[f], row[c])
        basis.append(v)
    return basis
