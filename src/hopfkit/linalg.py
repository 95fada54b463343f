"""Dense exact linear algebra over the hopfkit fields.

Matrices are dense row-major grids of canonical field values.  The RREF
pivot rule is fixed (first nonzero entry in a row-major scan, i.e. lowest
column index first) so that quotient bases, nullspaces and subspace
normal forms are deterministic and reproducible.
"""

from __future__ import annotations

from .errors import UsageError
from .fields import Field


def vec_add(field, u, v):
    return [field.add(a, b) for a, b in zip(u, v)]


def vec_sub(field, u, v):
    return [field.sub(a, b) for a, b in zip(u, v)]


def vec_scale(field, c, u):
    return [field.mul(c, a) for a in u]


def vec_is_zero(field, u):
    return all(field.is_zero(a) for a in u)


def unit_vector(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


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
        return Matrix(
            self.field,
            [vec_add(self.field, a, b) for a, b in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        self._check_same(other)
        return Matrix(
            self.field,
            [vec_sub(self.field, a, b) for a, b in zip(self.rows, other.rows)],
        )

    def __neg__(self):
        return Matrix(self.field, [[self.field.neg(a) for a in r] for r in self.rows])

    def scale(self, c):
        return Matrix(self.field, [vec_scale(self.field, c, r) for r in self.rows])

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
        """Reduced row-echelon form and the pivot column tuple."""
        if self._rref is not None:
            return self._rref
        f = self.field
        rows = [list(r) for r in self.rows]
        pivots = []
        pr = 0
        for pc in range(self.ncols):
            sel = None
            for i in range(pr, len(rows)):
                if not f.is_zero(rows[i][pc]):
                    sel = i
                    break
            if sel is None:
                continue
            rows[pr], rows[sel] = rows[sel], rows[pr]
            inv = f.inv(rows[pr][pc])
            if not f.is_one(rows[pr][pc]):
                rows[pr] = vec_scale(f, inv, rows[pr])
            for i in range(len(rows)):
                if i != pr and not f.is_zero(rows[i][pc]):
                    c = rows[i][pc]
                    rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(rows[i], rows[pr])]
            pivots.append(pc)
            pr += 1
            if pr == len(rows):
                break
        self._rref = (Matrix(f, rows), tuple(pivots))
        return self._rref

    def rank(self):
        return len(self.rref()[1])

    def nullspace(self):
        """Canonical nullspace basis, one vector per free column in
        increasing column order (free coordinate set to one)."""
        f = self.field
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis = []
        for fc in free:
            v = [f.zero] * self.ncols
            v[fc] = f.one
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(R.rows[r][fc])
            basis.append(v)
        return basis

    def solve(self, rhs):
        """One exact solution of ``self @ x = rhs`` or None (free vars 0)."""
        f = self.field
        aug = Matrix(f, [row + [b] for row, b in zip(self.rows, rhs)])
        R, pivots = aug.rref()
        if pivots and pivots[-1] == self.ncols:
            return None
        x = [f.zero] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = R.rows[r][self.ncols]
        return x

    def solve_matrix(self, rhs: "Matrix"):
        """Solve ``self @ X = rhs`` column by column; None if inconsistent."""
        cols = []
        for j in range(rhs.ncols):
            x = self.solve(rhs.column(j))
            if x is None:
                return None
            cols.append(x)
        return Matrix.from_columns(self.field, cols)

    def inverse(self):
        if self.nrows != self.ncols:
            raise UsageError("inverse of a non-square matrix")
        if self.rank() != self.nrows:
            return None
        return self.solve_matrix(Matrix.identity(self.field, self.nrows))


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
        vectors = []
        for sol in Matrix(f, rows).nullspace():
            combo = [f.zero] * self.ambient
            for i in range(self.dim):
                combo = vec_add(f, combo, vec_scale(f, sol[i], self.basis.rows[i]))
            vectors.append(combo)
        return Subspace(f, self.ambient, vectors)

    def complement_indices(self):
        """Coordinate indices not used as pivots; they index a complement."""
        pivot_set = set(self.pivots)
        return [j for j in range(self.ambient) if j not in pivot_set]

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient})"
