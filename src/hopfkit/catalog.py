"""Named Hopf algebra builders: group algebras, the 4-dimensional
self-dual example with a skew-primitive (sweedler), its p^2-dimensional
generalization (taft), duals, tensor products, doubles, twists and
quotients.

Every builder output passes verify_hopf; incompatible parameters raise
BuilderError naming the violated constraint.  Each builder gives its
algebra's generators: g for a cyclic group, the transpositions for S_n,
a and x for sweedler and Taft; a tensor product, a double and a quotient
take them from their parts, and a group given by its table or a dual has
them searched for (algebra.algebra_generators).
"""

from __future__ import annotations

from .algebra import AlgebraPresentation
from .errors import BuilderError, UsageError
from .fields import Field, parse_int, parse_scalars
from .hopf import HopfAlgebra, dual_hopf, tensor_hopf, verify_hopf
from .linalg import SparseMatrix
from .tensors import SparseTensor3


def group_algebra(field: Field, table, names=None, generators=None) -> HopfAlgebra:
    """Group algebra from a Cayley table (table[i][j] = index of g_i g_j).

    The identity must be the element at index 0.  Group-likes diagonal,
    counit one, antipode permutes to inverses.  generators lists indices
    of group elements that generate the group; without them the algebra's
    generators are searched for when a verifier needs them.
    """
    n = len(table)
    if n == 0:
        raise BuilderError("Cayley table is empty")
    for row in table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise BuilderError("Cayley table is not square with valid indices")
    if any(table[0][j] != j or table[j][0] != j for j in range(n)):
        raise BuilderError("Cayley table must have the identity at index 0")
    inverses = [None] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == 0:
                inverses[i] = j
        if inverses[i] is None:
            raise BuilderError(f"element {i} has no inverse; not a group table")
    f = field
    mul = SparseTensor3(f, (n, n, n))
    for i in range(n):
        for j in range(n):
            mul.set(i, j, table[i][j], f.one)
    comul = SparseTensor3(f, (n, n, n))
    for i in range(n):
        comul.set(i, i, i, f.one)
    unit = [f.one if i == 0 else f.zero for i in range(n)]
    counit = [f.one] * n
    S = SparseMatrix(f, n, [[(inverses[j], f.one)] for j in range(n)])
    names = list(names) if names else [f"g{i}" for i in range(n)]
    if generators is not None:
        generators = [{i: f.one} for i in generators]
    alg = AlgebraPresentation(f, n, mul, unit, names, generators)
    return HopfAlgebra(alg, comul, counit, S, names)


def cyclic_table(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def cyclic_group_algebra(field: Field, n: int) -> HopfAlgebra:
    names = ["1"] + [f"g^{k}" if k > 1 else "g" for k in range(1, n)]
    return group_algebra(field, cyclic_table(n), names, [1] if n > 1 else [])


def _perm_compose(p, q):
    # (p after q): apply q first
    return tuple(p[q[i]] for i in range(len(p)))


def _permutations(n: int):
    """The permutations of range(n), the identity first, then sorted."""
    import itertools

    perms = sorted(itertools.permutations(range(n)))
    identity = tuple(range(n))
    perms.remove(identity)
    return [identity] + perms


def symmetric_table(n: int):
    perms = _permutations(n)
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[_perm_compose(p, q)] for q in perms] for p in perms]
    names = ["e"] + ["".join(str(x) for x in p) for p in perms[1:]]
    return table, names


def symmetric_group_algebra(field: Field, n: int) -> HopfAlgebra:
    table, names = symmetric_table(n)
    # the transpositions, which generate S_n
    transpositions = [i for i, p in enumerate(_permutations(n))
                      if sum(x != y for x, y in enumerate(p)) == 2]
    return group_algebra(field, table, names, transpositions)


def sweedler(field: Field) -> HopfAlgebra:
    """The 4-dimensional Hopf algebra generated by a group-like a and a
    skew-primitive x with a^2 = 1, x^2 = 0, xa = -ax; basis 1, a, x, ax.
    Needs characteristic != 2; the antipode is computed by convolution
    inversion."""
    f = field
    if getattr(f, "characteristic", 0) == 2:
        raise BuilderError("sweedler needs characteristic different from 2")
    names = ["1", "a", "x", "ax"]
    one, a, x, ax = range(4)
    mul = SparseTensor3(f, (4, 4, 4))
    table = {
        (one, one): [(one, 1)], (one, a): [(a, 1)], (one, x): [(x, 1)], (one, ax): [(ax, 1)],
        (a, one): [(a, 1)], (a, a): [(one, 1)], (a, x): [(ax, 1)], (a, ax): [(x, 1)],
        (x, one): [(x, 1)], (x, a): [(ax, -1)], (x, x): [], (x, ax): [],
        (ax, one): [(ax, 1)], (ax, a): [(x, -1)], (ax, x): [], (ax, ax): [],
    }
    for (i, j), terms in table.items():
        for k, c in terms:
            mul.set(i, j, k, f.from_int(c))
    comul = SparseTensor3(f, (4, 4, 4))
    comul.set(one, one, one, f.one)
    comul.set(a, a, a, f.one)
    comul.set(x, x, a, f.one)
    comul.set(x, one, x, f.one)
    comul.set(ax, ax, one, f.one)
    comul.set(ax, a, ax, f.one)
    unit = [f.one, f.zero, f.zero, f.zero]
    counit = [f.one, f.one, f.zero, f.zero]
    alg = AlgebraPresentation(f, 4, mul, unit, names, [{a: f.one}, {x: f.one}])
    return HopfAlgebra(alg, comul, counit, None, names)


def taft(field: Field, p: int, omega) -> HopfAlgebra:
    """Dimension p^2 algebra on a^i x^j with a^p = 1, x^p = 0, xa = w a x
    for a primitive p-th root of unity w; Delta(a) = a (x) a and
    Delta(x) = x (x) a + 1 (x) x."""
    f = field
    if p < 2:
        raise BuilderError("taft needs p >= 2")
    if isinstance(omega, str):
        omega = f.parse(omega)
    if f.is_zero(omega) or f.is_one(omega):
        raise BuilderError("omega must be a primitive p-th root of unity, not 0 or 1")
    order = f.multiplicative_order(omega, bound=4 * p)
    if order != p:
        raise BuilderError(
            f"omega must have multiplicative order {p}, got order {order}"
        )
    d = p * p

    def idx(i, j):
        return i * p + j

    names = []
    for i in range(p):
        for j in range(p):
            parts = []
            if i:
                parts.append("a" if i == 1 else f"a^{i}")
            if j:
                parts.append("x" if j == 1 else f"x^{j}")
            names.append("*".join(parts) if parts else "1")
    mul = SparseTensor3(f, (d, d, d))
    for i in range(p):
        for j in range(p):
            for k in range(p):
                for l in range(p):
                    if j + l >= p:
                        continue
                    coef = f.pow(omega, j * k)
                    mul.set(idx(i, j), idx(k, l), idx((i + k) % p, j + l), coef)
    # comultiplication via the quantum binomial expansion of
    # (x (x) a + 1 (x) x)^j conjugated by (a (x) a)^i
    comul = SparseTensor3(f, (d, d, d))
    qb = _gauss_binomials(f, omega, p)
    for i in range(p):
        for j in range(p):
            for m in range(j + 1):
                # term: a^i x^m (x) a^(i+m mod p... careful: group part stays a^i a^m)
                left = idx(i, m)
                right = idx((i + m) % p, j - m)
                comul.set(idx(i, j), left, right, qb[j][m])
    unit = [f.zero] * d
    unit[idx(0, 0)] = f.one
    counit = [f.one if j == 0 else f.zero for i in range(p) for j in range(p)]
    alg = AlgebraPresentation(f, d, mul, unit, names, [{idx(1, 0): f.one}, {idx(0, 1): f.one}])
    return HopfAlgebra(alg, comul, counit, None, names)


def _gauss_binomials(field, q, p):
    """qb[n][k] = Gaussian binomial coefficient for BA = qAB expansions."""
    qb = [[field.one]]
    qpow = [field.one]
    for _ in range(p):
        qpow.append(field.mul(qpow[-1], q))
    for n in range(1, p + 1):
        row = [field.one]
        for k in range(1, n):
            row.append(field.add(qb[n - 1][k - 1], field.mul(qpow[k], qb[n - 1][k])))
        row.append(field.one)
        qb.append(row)
    return qb


def trivial_hopf(field: Field) -> HopfAlgebra:
    return group_algebra(field, [[0]], ["1"], [])


_BUILDERS = ("group_algebra", "cyclic", "symmetric", "sweedler", "taft",
             "dual", "tensor", "double", "twist", "quotient", "trivial")

_NAMED_GROUPS = {
    "Z2": lambda f: cyclic_group_algebra(f, 2),
    "Z3": lambda f: cyclic_group_algebra(f, 3),
    "Z4": lambda f: cyclic_group_algebra(f, 4),
    "S3": lambda f: symmetric_group_algebra(f, 3),
}


def build_catalog(field: Field, spec) -> HopfAlgebra:
    """Dispatch a builder expression (dict, see README schema) and verify
    the result.  Known shorthand strings: Z2, Z3, Z4, S3, sweedler."""
    return build_verified(field, spec)[0]


def build_verified(field: Field, spec, parts=None):
    """build_catalog's result and the passing verify_hopf report it was
    checked with, for callers that report the axioms themselves.  A dict
    ``parts`` receives the verified operands of a top-level tensor
    ("left", "right") or double ("of"), so they are not built again."""
    H = _build(field, spec, parts)
    rep = verify_hopf(H)
    if not rep.ok:
        bad = rep.first_failure()
        raise BuilderError(f"builder output failed verification at {bad.name!r}")
    return H, rep


def _arg(spec, key, integer=False):
    """The value of ``key`` in a builder expression, an int when
    ``integer``; a missing key or a non-integer is an error naming the
    builder and the key."""
    builder = spec["builder"]
    if key not in spec:
        raise BuilderError(f"builder {builder!r} needs key {key!r}")
    if integer:
        return parse_int(spec[key], f"key {key!r} of builder {builder!r}")
    return spec[key]


def _build(field: Field, spec, parts=None) -> HopfAlgebra:
    if isinstance(spec, str):
        if spec in _NAMED_GROUPS:
            return _NAMED_GROUPS[spec](field)
        if spec == "sweedler":
            return sweedler(field)
        if spec == "trivial":
            return trivial_hopf(field)
        raise BuilderError(f"unknown builder name {spec!r}")
    if not isinstance(spec, dict) or "builder" not in spec:
        raise UsageError("builder expression must be a name or a dict with 'builder'")
    kind = spec["builder"]
    if kind not in _BUILDERS:
        raise BuilderError(f"unknown builder {kind!r}")
    if kind == "group_algebra":
        if "group" in spec:
            name = spec["group"]
            if not isinstance(name, str) or name not in _NAMED_GROUPS:
                raise BuilderError(f"unknown named group {name!r}")
            return _NAMED_GROUPS[name](field)
        if "table" not in spec:
            raise BuilderError("group_algebra needs 'table' or 'group'")
        table = spec["table"]
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise BuilderError(f"key 'table' of builder 'group_algebra' must be a list of rows, "
                               f"got {table!r}")
        return group_algebra(field, [[parse_int(x, f"Cayley table entry {x!r}") for x in row]
                                     for row in table])
    if kind == "cyclic":
        return cyclic_group_algebra(field, _arg(spec, "n", integer=True))
    if kind == "symmetric":
        return symmetric_group_algebra(field, _arg(spec, "n", integer=True))
    if kind == "sweedler":
        return sweedler(field)
    if kind == "trivial":
        return trivial_hopf(field)
    if kind == "taft":
        omega = _arg(spec, "omega")
        if not isinstance(omega, str):
            raise BuilderError(f"key 'omega' of builder 'taft' must be a scalar string, "
                               f"got {omega!r}")
        return taft(field, _arg(spec, "p", integer=True), omega)
    if kind == "dual":
        return dual_hopf(build_catalog(field, _arg(spec, "of")))
    if kind == "tensor":
        left = build_catalog(field, _arg(spec, "left"))
        right = build_catalog(field, _arg(spec, "right"))
        if parts is not None:
            parts.update(left=left, right=right)
        return tensor_hopf(left, right)
    if kind == "double":
        from .qt import drinfeld_double

        inner = build_catalog(field, _arg(spec, "of"))
        if parts is not None:
            parts["of"] = inner
        return drinfeld_double(inner).hopf
    if kind == "twist":
        from .qt import TensorSquareElement, apply_twist, verify_twist

        inner = build_catalog(field, _arg(spec, "of"))
        j_elem = TensorSquareElement.from_triples(inner, _arg(spec, "j"))
        twist = verify_twist(inner, j_elem)
        if not twist.verified:
            raise BuilderError("the supplied twist failed verification")
        twisted, _ = apply_twist(inner, twist)
        return twisted
    if kind == "quotient":
        from .hopf import quotient_by_coideal
        from .linalg import Subspace

        inner = build_catalog(field, _arg(spec, "of"))
        rows = _arg(spec, "coideal")
        if not isinstance(rows, list) or not all(
                isinstance(row, list) and len(row) == inner.dim for row in rows):
            raise BuilderError(f"key 'coideal' of builder 'quotient' must be a list of "
                               f"vectors of length {inner.dim}, got {rows!r}")
        vectors = [parse_scalars(field, row, row) for row in rows]
        L = Subspace(field, inner.dim, vectors)
        return quotient_by_coideal(inner, L).quotient
    raise BuilderError(f"unhandled builder {kind!r}")
