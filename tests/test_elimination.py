"""Differential tests of the elimination kernel.

Every entry point that reads ``Matrix.rref`` (rref, rank, nullspace,
solve, solve_matrix, inverse) is compared with the independent dense
elimination in ``oracle.py`` over GF(7) and Q, and over Q also with
sympy's ``Matrix.rref``.  Inputs are random sparse and dense systems up
to about 12 x 15, tall and wide, with zero and duplicated rows mixed in.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracle  # noqa: E402
from hopfkit.fields import PrimeField, Rationals  # noqa: E402
from hopfkit.linalg import Matrix  # noqa: E402

FIELDS = {"gf7": (PrimeField(7), 7), "q": (Rationals(), None)}

CHECK = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _value(p, x):
    return x % p if p else Fraction(x)


@st.composite
def integer_rows(draw, nrows=None, ncols=None):
    """Integer rows, dense, half zero or mostly zero, with some rows
    replaced by zero rows or by copies of other rows."""
    m = nrows if nrows is not None else draw(st.integers(1, 12))
    n = ncols if ncols is not None else draw(st.integers(1, 15))
    zeros = draw(st.sampled_from((0, 7, 30)))
    entry = st.sampled_from([0] * zeros + [-3, -2, -1, 1, 2, 3, 5])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 3))):
        source = draw(st.integers(-1, m - 1))
        rows[draw(st.integers(0, m - 1))] = [0] * n if source < 0 else list(rows[source])
    return rows


def _matrix(field_key, rows):
    field, p = FIELDS[field_key]
    values = [[_value(p, x) for x in r] for r in rows]
    return Matrix(field, values), p, values


fields = pytest.mark.parametrize("field_key", sorted(FIELDS))


@fields
@CHECK
@given(rows=integer_rows())
def test_rref_rank_nullspace_match_oracle(field_key, rows):
    M, p, values = _matrix(field_key, rows)
    R, pivots = M.rref()
    o_rows, o_pivots = oracle.rref(p, values)
    assert pivots == tuple(o_pivots)
    assert R.rows == o_rows
    assert M.rank() == oracle.rank(p, values)
    assert M.nullspace() == oracle.nullspace(p, values)


@fields
@CHECK
@given(data=st.data())
def test_solve_and_solve_matrix_match_oracle(field_key, data):
    rows = data.draw(integer_rows())
    M, p, values = _matrix(field_key, rows)
    # one column in the column space, the others random
    x = data.draw(st.lists(st.integers(-3, 3), min_size=M.ncols, max_size=M.ncols))
    consistent = M.apply([_value(p, c) for c in x])
    k = data.draw(st.integers(0, 3))
    cols = [consistent] + [
        [_value(p, c) for c in data.draw(st.lists(st.integers(-3, 3), min_size=M.nrows,
                                                   max_size=M.nrows))]
        for _ in range(k)]
    expected = [oracle.solve(p, values, col) for col in cols]
    assert expected[0] is not None
    for col, want in zip(cols, expected):
        assert M.solve(col) == want
    X = M.solve_matrix(Matrix.from_columns(M.field, cols))
    if any(want is None for want in expected):
        assert X is None
    else:
        assert [X.column(j) for j in range(len(cols))] == expected


@fields
@CHECK
@given(data=st.data())
def test_inverse_matches_oracle(field_key, data):
    n = data.draw(st.integers(1, 12))
    M, p, values = _matrix(field_key, data.draw(integer_rows(nrows=n, ncols=n)))
    inv = M.inverse()
    if oracle.rank(p, values) < n:
        assert inv is None
        return
    unit = [[_value(p, int(i == j)) for j in range(n)] for i in range(n)]
    expected = [oracle.solve(p, values, [unit[i][j] for i in range(n)]) for j in range(n)]
    assert [inv.column(j) for j in range(n)] == expected
    assert M @ inv == Matrix.identity(M.field, n)


@CHECK
@given(rows=integer_rows())
def test_rref_matches_sympy_over_q(rows):
    sympy = pytest.importorskip("sympy")
    M, _p, _values = _matrix("q", rows)
    R, pivots = M.rref()
    s_rref, s_pivots = sympy.Matrix(rows).rref()
    assert pivots == tuple(s_pivots)
    assert R.rows == [[Fraction(int(c.p), int(c.q)) for c in s_rref.row(i)]
                      for i in range(s_rref.rows)]
