"""Exact linear algebra over the hopfkit fields.

Matrices are dense row-major grids of canonical field values; elimination
is sparse.  ``eliminate`` is the one elimination routine, a Gauss-Jordan
over rows held as {column: nonzero} dicts that takes the sparsest
candidate as pivot row; ``solve_rows`` reads one solution of an
augmented system off it and ``nullspace_rows`` the canonical nullspace
basis.  Callers with a large sparse system (the antipode, the
regular-representation inverse in H (x) H, the center, coinvariant and
skew-primitive systems) build its rows as dicts and call these
directly, never a dense matrix.  The
pivot columns are taken in increasing order (lowest column index
first), so the RREF, its pivot tuple and the quotient bases, nullspaces
and subspace normal forms read off it are deterministic and
reproducible.  ``Matrix.rref``, ``solve``, ``solve_matrix`` and
``nullspace`` are thin dense wrappers of the three; ``inverse`` reads
``solve_matrix``.

The structure maps (Hopf morphisms, antipodes, quotient sections, the
comparison map F) are ``SparseMatrix`` values, held as their sparse
columns [(row, value)] and nothing else; their rank, nullspace, solve
and inverse hand the rows straight to the same elimination, so no dense
grid of such a map is built.
"""

from __future__ import annotations

from .errors import UsageError
from .fields import Field


def vec_is_zero(field, u):
    return all(field.is_zero(a) for a in u)


def unit_vector(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


def sparse_rows(field, rows):
    """Rows, dense or as {column: value} dicts, as {column: nonzero} dicts."""
    is_zero = field.is_zero
    return [{j: a for j, a in (r.items() if isinstance(r, dict) else enumerate(r))
             if not is_zero(a)} for r in rows]


def eliminate(field, rows):
    """Sparse Gauss-Jordan on rows held as {column: nonzero} dicts, which
    it reduces in place; returns the reduced pivot rows in pivot order
    and the pivot column tuple.

    Pivot columns are taken in increasing order, so the RREF, which is
    unique, and its pivots do not depend on the choice of pivot row.  Of
    the unused rows with a nonzero in the pivot column, the one with the
    fewest nonzeros is taken, which keeps fill-in low (Markowitz-style,
    as in LaMacchia-Odlyzko 1990).  A column -> rows index means only
    rows with a nonzero in the pivot column are touched.
    """
    f = field
    where = {}
    for i, row in enumerate(rows):
        for j in row:
            where.setdefault(j, set()).add(i)
    used = {}  # pivot row -> pivot column, in pivot order
    for pc in sorted(where):
        cands = where[pc].difference(used)
        if not cands:
            continue
        p = min(cands, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        # inverted even when it is one: one inv per pivot, so the
        # field-op counts do not depend on which row is the pivot
        inv = f.inv(prow[pc])
        if not f.is_one(inv):
            prow = rows[p] = {j: f.mul(inv, a) for j, a in prow.items()}
        for i in where[pc] - {p}:
            row = rows[i]
            c = f.neg(row[pc])
            for j, a in prow.items():
                x = row.get(j)
                if x is None:
                    row[j] = f.mul(c, a)
                    where[j].add(i)
                    continue
                x = f.add(x, f.mul(c, a))
                if f.is_zero(x):
                    del row[j]
                    where[j].discard(i)
                else:
                    row[j] = x
        used[p] = pc
        if len(used) == len(rows):
            break
    return [rows[p] for p in used], tuple(used.values())


def solve_rows(field, rows, n):
    """One solution of the augmented system whose sparse rows hold the
    right-hand side in column n, as {column: nonzero value} with free
    variables 0, or None if the system is inconsistent."""
    prows, pivots = eliminate(field, rows)
    if pivots and pivots[-1] >= n:
        return None
    return {pc: row[n] for row, pc in zip(prows, pivots) if n in row}


def nullspace_rows(field, rows, n):
    """Canonical nullspace basis of the system whose sparse rows have n
    columns, read off one ``eliminate``: one dense vector per free column
    in increasing order, with that coordinate one and each pivot
    coordinate the negated entry of its pivot row in that column."""
    f = field
    prows, pivots = eliminate(f, rows)
    pivot_set = set(pivots)
    basis = {fc: unit_vector(f, n, fc) for fc in range(n) if fc not in pivot_set}
    for row, pc in zip(prows, pivots):
        for j, a in row.items():
            if j != pc:
                basis[j][pc] = f.neg(a)
    return list(basis.values())


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "rows", "_rref")

    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise UsageError("ragged matrix rows")
        self._rref = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls(field, [[field.zero] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    @classmethod
    def from_columns(cls, field, cols):
        if not cols:
            return cls(field, [])
        return cls(field, [[col[i] for col in cols] for i in range(len(cols[0]))])

    # -- basics ----------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"

    def row(self, i):
        return list(self.rows[i])

    def column(self, j):
        return [r[j] for r in self.rows]

    def transpose(self):
        return Matrix(self.field, [self.column(j) for j in range(self.ncols)])

    def is_zero(self):
        return all(vec_is_zero(self.field, r) for r in self.rows)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        self._check_same(other)
        f = self.field
        return Matrix(f, [[f.add(x, y) for x, y in zip(a, b)]
                          for a, b in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._check_same(other)
        f = self.field
        return Matrix(f, [[f.sub(x, y) for x, y in zip(a, b)]
                          for a, b in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix(self.field, [[self.field.neg(a) for a in r] for r in self.rows])

    def scale(self, c):
        return Matrix(self.field, [[self.field.mul(c, a) for a in r] for r in self.rows])

    def _check_same(self, other):
        if self.field != other.field or self.shape != other.shape:
            raise UsageError("matrix shape/field mismatch")

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise UsageError(f"cannot multiply {self.shape} by {other.shape}")
        f = self.field
        ot = other.rows
        out = []
        for r in self.rows:
            row = [f.zero] * other.ncols
            for k, a in enumerate(r):
                if f.is_zero(a):
                    continue
                ok_row = ot[k]
                for j in range(other.ncols):
                    b = ok_row[j]
                    if not f.is_zero(b):
                        row[j] = f.add(row[j], f.mul(a, b))
            out.append(row)
        return Matrix(f, out)

    def apply(self, vec):
        """Matrix times column vector."""
        if len(vec) != self.ncols:
            raise UsageError("vector length mismatch")
        f = self.field
        out = []
        for r in self.rows:
            acc = f.zero
            for a, x in zip(r, vec):
                if not (f.is_zero(a) or f.is_zero(x)):
                    acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return out

    def kron(self, other):
        """Kronecker product under the flat-index convention
        (i, j) -> i * other.dim + j on both rows and columns."""
        f = self.field
        out = Matrix.zeros(f, self.nrows * other.nrows, self.ncols * other.ncols)
        for i in range(self.nrows):
            for k in range(self.ncols):
                a = self.rows[i][k]
                if f.is_zero(a):
                    continue
                for j in range(other.nrows):
                    orow = other.rows[j]
                    trow = out.rows[i * other.nrows + j]
                    for l in range(other.ncols):
                        b = orow[l]
                        if not f.is_zero(b):
                            trow[k * other.ncols + l] = f.mul(a, b)
        return out

    # -- elimination -------------------------------------------------------

    def rref(self):
        """Reduced row-echelon form and the pivot column tuple, read off
        ``eliminate``: pivot rows first, then zero rows."""
        if self._rref is not None:
            return self._rref
        f = self.field
        prows, pivots = eliminate(f, sparse_rows(f, self.rows))
        out = [[f.zero] * self.ncols for _ in range(self.nrows)]
        for r, row in enumerate(prows):
            for j, a in row.items():
                out[r][j] = a
        self._rref = (Matrix(f, out), pivots)
        return self._rref

    def rank(self):
        return len(self.rref()[1])

    def nullspace(self):
        """Canonical nullspace basis, one vector per free column in
        increasing column order (free coordinate set to one)."""
        return nullspace_rows(self.field, sparse_rows(self.field, self.rows), self.ncols)

    def solve_matrix(self, rhs: "Matrix"):
        """One exact solution of ``self @ X = rhs`` (free variables 0), read
        off one elimination of [self | rhs]; None if some column is
        inconsistent."""
        if rhs.nrows != self.nrows:
            raise UsageError(f"right-hand side has {rhs.nrows} rows, the matrix {self.nrows}")
        f = self.field
        n = self.ncols
        prows, pivots = eliminate(f, sparse_rows(f, [a + b for a, b in zip(self.rows, rhs.rows)]))
        if pivots and pivots[-1] >= n:
            return None
        X = Matrix.zeros(f, n, rhs.ncols)
        for row, pc in zip(prows, pivots):
            X.rows[pc] = [row.get(j, f.zero) for j in range(n, n + rhs.ncols)]
        return X

    def solve(self, rhs):
        """One exact solution of ``self @ x = rhs`` or None (free vars 0)."""
        if len(rhs) != self.nrows:
            raise UsageError(f"right-hand side has {len(rhs)} entries, the matrix {self.nrows} rows")
        f = self.field
        n = self.ncols
        sol = solve_rows(f, sparse_rows(f, [r + [b] for r, b in zip(self.rows, rhs)]), n)
        return None if sol is None else [sol.get(j, f.zero) for j in range(n)]

    def inverse(self):
        if self.nrows != self.ncols:
            raise UsageError("inverse of a non-square matrix")
        return self.solve_matrix(Matrix.identity(self.field, self.nrows))


class SparseMatrix:
    """An nrows x ncols matrix held as its sparse columns: columns[j] lists
    the (row, value) of the nonzero entries of column j by increasing row.

    It reads like a Matrix (shape, column, rows, apply, ==, @, transpose,
    kron, rank, nullspace, solve_matrix, inverse); a Matrix compares equal
    to it by its entries.  The eliminations take its rows as
    {column: value} dicts, so no dense grid is formed."""

    __slots__ = ("field", "nrows", "ncols", "columns")

    def __init__(self, field: Field, nrows, columns):
        self.field = field
        self.nrows = nrows
        self.columns = columns
        self.ncols = len(columns)

    # -- constructors ---------------------------------------------------

    @classmethod
    def of(cls, M):
        """M itself if it is a SparseMatrix, else the columns of the Matrix M."""
        if isinstance(M, SparseMatrix):
            return M
        is_zero = M.field.is_zero
        columns = [[] for _ in range(M.ncols)]
        for i, row in enumerate(M.rows):
            for j, a in enumerate(row):
                if not is_zero(a):
                    columns[j].append((i, a))
        return cls(M.field, M.nrows, columns)

    @classmethod
    def from_columns(cls, field, nrows, cols):
        """The matrix whose column j is cols[j], a dict row -> value."""
        is_zero = field.is_zero
        return cls(field, nrows, [sorted((i, a) for i, a in col.items() if not is_zero(a))
                                  for col in cols])

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, [[(i, field.one)] for i in range(n)])

    # -- reading -----------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def column(self, j):
        out = [self.field.zero] * self.nrows
        for i, a in self.columns[j]:
            out[i] = a
        return out

    @property
    def rows(self):
        """The dense rows, formed on each read."""
        out = [[self.field.zero] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.columns):
            for i, a in col:
                out[i][j] = a
        return out

    def row_dicts(self):
        """The rows as {column: nonzero value} dicts, the eliminations' input."""
        rows = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self.columns):
            for i, a in col:
                rows[i][j] = a
        return rows

    def apply(self, vec):
        """Matrix times column vector, dense in and out."""
        if len(vec) != self.ncols:
            raise UsageError("vector length mismatch")
        f = self.field
        out = [f.zero] * self.nrows
        for x, col in zip(vec, self.columns):
            if not f.is_zero(x):
                for i, a in col:
                    out[i] = f.add(out[i], f.mul(a, x))
        return out

    def __eq__(self, other):
        if isinstance(other, Matrix):
            other = SparseMatrix.of(other)
        return (isinstance(other, SparseMatrix) and self.shape == other.shape
                and self.columns == other.columns)

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols} over {self.field!r})"

    # -- arithmetic -------------------------------------------------------

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise UsageError(f"cannot multiply {self.shape} by {other.shape}")
        f = self.field
        mul, add = f.mul, f.add
        left = self.columns
        cols = []
        for terms in other.columns:
            acc = {}
            for k, b in terms:
                for i, a in left[k]:
                    cur = acc.get(i)
                    x = mul(a, b)
                    acc[i] = x if cur is None else add(cur, x)
            cols.append(acc)
        return SparseMatrix.from_columns(f, self.nrows, cols)

    def transpose(self):
        return SparseMatrix(self.field, self.ncols,
                            [sorted(row.items()) for row in self.row_dicts()])

    def kron(self, other):
        """Kronecker product under the flat-index convention
        (i, j) -> i * other.dim + j on both rows and columns."""
        mul = self.field.mul
        n = other.nrows
        return SparseMatrix(self.field, self.nrows * n, [
            [(i * n + j, mul(a, b)) for i, a in col for j, b in ocol]
            for col in self.columns for ocol in other.columns])

    # -- elimination -------------------------------------------------------

    def rank(self):
        return len(eliminate(self.field, self.row_dicts())[1])

    def nullspace(self):
        """Canonical nullspace basis, as Matrix.nullspace gives it."""
        return nullspace_rows(self.field, self.row_dicts(), self.ncols)

    def solve_matrix(self, rhs: "SparseMatrix"):
        """One exact solution X of ``self @ X = rhs`` (free variables 0),
        read off one elimination of [self | rhs]; None if some column is
        inconsistent."""
        if rhs.nrows != self.nrows:
            raise UsageError(f"right-hand side has {rhs.nrows} rows, the matrix {self.nrows}")
        n = self.ncols
        rows = self.row_dicts()
        for j, col in enumerate(rhs.columns):
            for i, a in col:
                rows[i][n + j] = a
        prows, pivots = eliminate(self.field, rows)
        if pivots and pivots[-1] >= n:
            return None
        cols = [[] for _ in range(rhs.ncols)]
        for row, pc in zip(prows, pivots):  # pivot columns increase
            for j, a in row.items():
                if j >= n:
                    cols[j - n].append((pc, a))
        return SparseMatrix(self.field, n, cols)

    def inverse(self):
        if self.nrows != self.ncols:
            raise UsageError("inverse of a non-square matrix")
        return self.solve_matrix(SparseMatrix.identity(self.field, self.nrows))


class Subspace:
    """Subspace of k^ambient with a canonical RREF row basis.

    The canonical basis makes membership, equality and quotient
    complements deterministic.
    """

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field, ambient, vectors):
        self.field = field
        self.ambient = ambient
        mat = Matrix(field, [list(v) for v in vectors]) if vectors else Matrix(field, [])
        if vectors:
            R, pivots = mat.rref()
            rows = [R.rows[i] for i in range(len(pivots))]
        else:
            rows, pivots = [], ()
        self.basis = Matrix(field, rows) if rows else Matrix.zeros(field, 0, ambient)
        self.pivots = tuple(pivots)

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, [])

    @classmethod
    def full(cls, field, ambient):
        return cls(field, ambient, Matrix.identity(field, ambient).rows)

    @property
    def dim(self):
        return self.basis.nrows

    def vectors(self):
        return [list(r) for r in self.basis.rows]

    def reduce(self, vec):
        """Residual of vec modulo the subspace (zero iff vec is a member)."""
        f = self.field
        v = list(vec)
        for r, pc in enumerate(self.pivots):
            c = v[pc]
            if not f.is_zero(c):
                row = self.basis.rows[r]
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return vec_is_zero(self.field, self.reduce(vec))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def add(self, other):
        return Subspace(self.field, self.ambient, self.vectors() + other.vectors())

    def intersect(self, other):
        """Intersection via the nullspace of the stacked coordinate system."""
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient)
        f = self.field
        # columns: coefficients on self.basis then other.basis
        cols = self.dim + other.dim
        rows = []
        for coord in range(self.ambient):
            row = [self.basis.rows[i][coord] for i in range(self.dim)]
            row += [f.neg(other.basis.rows[j][coord]) for j in range(other.dim)]
            rows.append(row)
        coeffs = [sol[:self.dim] for sol in Matrix(f, rows).nullspace()]
        vectors = (Matrix(f, coeffs) @ self.basis).rows if coeffs else []
        return Subspace(f, self.ambient, vectors)

    def complement_indices(self):
        """Coordinate indices not used as pivots; they index a complement."""
        pivot_set = set(self.pivots)
        return [j for j in range(self.ambient) if j not in pivot_set]

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient})"
