"""Differential tests of the elimination kernel.

Every entry point that reads ``Matrix.rref`` (rref, rank, nullspace,
solve, solve_matrix, inverse) is compared with the independent dense
elimination in ``oracle.py`` over GF(7) and Q, and over Q also with
sympy's ``Matrix.rref``.  Inputs are random sparse and dense systems up
to about 12 x 15, tall and wide, with zero and duplicated rows mixed in.
The sparse solve reader ``solve_rows`` is compared with ``Matrix.solve``
over GF(7), Q and Q(z_3), and with the oracle where it has the field.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracle  # noqa: E402
from hopfkit.fields import CyclotomicField, PrimeField, Rationals  # noqa: E402
from hopfkit.linalg import Matrix, solve_rows  # noqa: E402

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


# ----------------------------------------------------------------------
# the sparse solve reader
# ----------------------------------------------------------------------

SOLVE_FIELDS = dict(FIELDS, qz3=(CyclotomicField(3), None))
solve_fields = pytest.mark.parametrize("field_key", sorted(SOLVE_FIELDS))


def _solve_value(field_key, x):
    """An integer as a value of the field; over Q(z_3) it is
    x + (x mod 3 - 1) z, which is zero only at x = 0."""
    field, p = SOLVE_FIELDS[field_key]
    if field_key != "qz3":
        return _value(p, x)
    if x == 0:
        return field.zero
    return (Fraction(x), Fraction(x % 3 - 1))


def _augmented(field, rows, rhs):
    """Sparse rows of [rows | rhs], right-hand side in column len(rows[0])."""
    n = len(rows[0]) if rows else 0
    out = []
    for r, b in zip(rows, rhs):
        row = {j: a for j, a in enumerate(r) if not field.is_zero(a)}
        if not field.is_zero(b):
            row[n] = b
        out.append(row)
    return out


def _assert_solve_agrees(field_key, values, rhs):
    field, p = SOLVE_FIELDS[field_key]
    M = Matrix(field, values)
    n = M.ncols
    got = solve_rows(field, _augmented(field, values, rhs), n)
    want = M.solve(rhs)
    if field_key != "qz3":
        assert want == oracle.solve(p, values, rhs)
    if want is None:
        assert got is None
        return None
    assert all(0 <= j < n and not field.is_zero(a) for j, a in got.items())
    assert [got.get(j, field.zero) for j in range(n)] == want
    assert M.apply(want) == list(rhs)
    return got


@solve_fields
@CHECK
@given(data=st.data())
def test_solve_rows_matches_solve(field_key, data):
    field, _p = SOLVE_FIELDS[field_key]
    rows = data.draw(integer_rows())
    values = [[_solve_value(field_key, x) for x in r] for r in rows]
    m, n = len(values), len(values[0])
    kind = data.draw(st.sampled_from(["consistent", "random", "rhs only"]))
    if kind == "consistent":
        x = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        rhs = Matrix(field, values).apply([_solve_value(field_key, c) for c in x])
    else:
        rhs = [_solve_value(field_key, c)
               for c in data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))]
    if kind == "rhs only":
        # a zero row with a nonzero right-hand side: no solution
        r = data.draw(st.integers(0, m - 1))
        values[r] = [field.zero] * n
        rhs[r] = _solve_value(field_key, data.draw(st.sampled_from([-2, -1, 1, 2])))
    got = _assert_solve_agrees(field_key, values, rhs)
    if kind == "consistent":
        assert got is not None
    if kind == "rhs only":
        assert got is None


@solve_fields
def test_solve_rows_empty_rhs_only_and_inconsistent_rows(field_key):
    field, _p = SOLVE_FIELDS[field_key]
    one = field.one
    two = field.add(one, one)
    zero = field.zero
    # no rows at all, and rows with no entry: every unknown is free
    assert solve_rows(field, [], 3) == {}
    assert solve_rows(field, [{}, {}], 3) == {}
    # a homogeneous system has the zero solution, which is the empty dict
    assert solve_rows(field, [{0: one, 1: two}, {}], 3) == {}
    # a row holding only a right-hand side has no solution
    assert solve_rows(field, [{0: one, 3: two}, {3: one}], 3) is None
    # x0 = 1 and x0 = 2 have no common solution
    assert solve_rows(field, [{0: one, 3: one}, {0: one, 3: two}], 3) is None
    # x0 + x1 = 2, x1 = 1; the free x2 is 0 and left out
    assert solve_rows(field, [{0: one, 1: one, 3: two}, {}, {1: one, 3: one}], 3) == \
        {0: one, 1: one}
    # and Matrix.solve agrees on each of them
    cases = [
        ([[zero] * 3] * 2, [zero, zero]),
        ([[one, two, zero], [zero] * 3], [zero, zero]),
        ([[one, zero, zero], [zero] * 3], [two, one]),
        ([[one, zero, zero], [one, zero, zero]], [one, two]),
        ([[one, one, zero], [zero] * 3, [zero, one, zero]], [two, zero, one]),
    ]
    for values, rhs in cases:
        _assert_solve_agrees(field_key, values, rhs)
