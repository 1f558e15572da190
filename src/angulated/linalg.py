"""Dense exact linear algebra over the rationals.

Every system in this package is tiny (a handful of unknowns), so plain
Gaussian elimination on lists of Fractions is both fast enough and free of
rounding concerns.  Matrices are lists of rows; an empty list is the unique
matrix with zero rows.  Functions that cannot infer the number of columns
from the data take it explicitly.
"""

from fractions import Fraction

Matrix = list[list[Fraction]]


def _echelon(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Row-reduce a copy of `rows`; return the echelon form and pivot columns."""
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = Fraction(1) / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def rank(rows: Matrix) -> int:
    return len(_echelon(rows)[1])


def solve(rows: Matrix, rhs: list[Fraction], nunknowns: int) -> list[Fraction] | None:
    """One solution of rows * x = rhs, or None if inconsistent.

    Free variables are set to zero.  `rows` may be empty (no constraints).
    """
    if len(rows) != len(rhs):
        raise ValueError("rhs length must match the number of rows")
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = _echelon(aug)
    if nunknowns in pivots:
        return None  # pivot in the constant column: 0 = 1
    sol = [Fraction(0)] * nunknowns
    for row, c in zip(red, pivots):
        sol[c] = row[-1]
    return sol


def nullspace(rows: Matrix, nunknowns: int) -> list[list[Fraction]]:
    """Basis of the solution space of rows * x = 0."""
    red, pivots = _echelon(rows)
    free = [c for c in range(nunknowns) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * nunknowns
        v[f] = Fraction(1)
        for row, c in zip(red, pivots):
            v[c] = -row[f]
        basis.append(v)
    return basis


def mat_mul(a: Matrix, b: Matrix, b_ncols: int) -> Matrix:
    """Product a*b where b has `b_ncols` columns (needed when b is empty)."""
    out = []
    for arow in a:
        out.append([
            sum((arow[k] * b[k][j] for k in range(len(b))), Fraction(0))
            for j in range(b_ncols)
        ])
    return out


def is_zero(rows: Matrix) -> bool:
    return all(x == 0 for row in rows for x in row)
