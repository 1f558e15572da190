"""The exact kernel against sympy as an independent oracle.

`rank`, `solve` and `nullspace` are compared with sympy's `Matrix.rank`,
`gauss_jordan_solve` (free parameters set to zero) and `nullspace` on
small random rational matrices.  The reduced row echelon form is unique,
so the "free variables = 0" solution and the nullspace basis (one vector
per free column, that column set to one) must agree entry for entry.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from angulated.linalg import nullspace, rank, solve

entries_st = st.builds(
    Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3])
)


@st.composite
def matrices(draw):
    nrows = draw(st.integers(0, 4))
    ncols = draw(st.integers(0, 5))
    rows = [
        [draw(entries_st) for _ in range(ncols)] for _ in range(nrows)
    ]
    if nrows >= 2 and draw(st.booleans()):  # force a dependent last row
        coeffs = [draw(entries_st) for _ in range(nrows - 1)]
        rows[-1] = [
            sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0))
            for j in range(ncols)
        ]
    return rows, ncols


def _sym(rows, ncols) -> sympy.Matrix:
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(x.numerator, x.denominator)
                                           for row in rows for x in row])


def _frac(r) -> Fraction:
    r = sympy.Rational(r)
    return Fraction(int(r.p), int(r.q))


def _sympy_solve(rows, rhs, ncols):
    a = _sym(rows, ncols)
    b = sympy.Matrix(len(rhs), 1, [sympy.Rational(x.numerator, x.denominator) for x in rhs])
    try:
        sol, params = a.gauss_jordan_solve(b)
    except ValueError:  # inconsistent
        return None
    sol = sol.subs({t: 0 for t in params})
    return [_frac(x) for x in sol]


class TestAgainstSympy:
    @settings(deadline=None)
    @given(matrices())
    def test_rank(self, mat):
        rows, ncols = mat
        assert rank(rows) == _sym(rows, ncols).rank()

    @settings(deadline=None)
    @given(matrices(), st.data())
    def test_solve(self, mat, data):
        rows, ncols = mat
        if data.draw(st.booleans()):  # consistent by construction
            x = [data.draw(entries_st) for _ in range(ncols)]
            rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
        else:
            rhs = [data.draw(entries_st) for _ in rows]
        got = solve(rows, rhs, ncols)
        assert got == _sympy_solve(rows, rhs, ncols)
        if got is not None:
            assert all(type(v) is Fraction for v in got)

    @settings(deadline=None)
    @given(matrices())
    def test_nullspace(self, mat):
        rows, ncols = mat
        got = nullspace(rows, ncols)
        want = [[_frac(x) for x in v] for v in _sym(rows, ncols).nullspace()]
        assert got == want
        assert all(type(x) is Fraction for v in got for x in v)


class TestEdgeCases:
    def test_empty_matrix(self):
        assert rank([]) == 0
        assert solve([], [], 3) == [0, 0, 0]
        assert solve([], [], 0) == []
        assert nullspace([], 2) == [[1, 0], [0, 1]]

    def test_one_empty_row(self):
        assert rank([[]]) == 0
        assert solve([[]], [Fraction(0)], 0) == []
        assert solve([[]], [Fraction(1)], 0) is None
        assert nullspace([[]], 0) == []

    def test_zero_columns(self):
        rows = [[], [], []]
        assert rank(rows) == 0
        assert solve(rows, [Fraction(0)] * 3, 0) == []
        assert solve(rows, [Fraction(0), Fraction(2, 3), Fraction(0)], 0) is None
        assert nullspace(rows, 0) == []

    def test_inconsistent(self):
        rows = [[Fraction(1), Fraction(1, 2)], [Fraction(2), Fraction(1)]]
        assert solve(rows, [Fraction(1), Fraction(3)], 2) is None
        assert solve(rows, [Fraction(1), Fraction(2)], 2) == [1, 0]

    def test_rhs_length_mismatch(self):
        with pytest.raises(ValueError):
            solve([[Fraction(1)]], [], 1)
        with pytest.raises(ValueError):
            solve([], [Fraction(1)], 1)

    def test_fractional_pivots(self):
        rows = [[Fraction(2, 3), Fraction(1, 3)], [Fraction(-1, 2), Fraction(3, 2)]]
        assert rank(rows) == 2
        sol = solve(rows, [Fraction(1), Fraction(1)], 2)
        assert sol == [1, 1]
        assert nullspace(rows, 2) == []

    def test_inputs_untouched(self):
        rows = [[Fraction(2), Fraction(4)], [Fraction(1, 2), Fraction(1)]]
        copy = [list(r) for r in rows]
        rank(rows)
        solve(rows, [Fraction(1), Fraction(1, 4)], 2)
        nullspace(rows, 2)
        assert rows == copy
