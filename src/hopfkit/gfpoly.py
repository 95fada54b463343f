"""Univariate polynomials over GF(p) and deterministic Berlekamp factorization.

Polynomials are ascending coefficient lists of ints in [0, p); [] is the
zero polynomial.  Factorization uses squarefree decomposition followed by
Berlekamp subalgebra splitting with a full scan over GF(p), which is
deterministic and exact at the small characteristics this package targets.
"""

from __future__ import annotations

from .errors import UsageError
from .fields import PrimeField
from .linalg import Matrix


def trim(f):
    while f and f[-1] % 1 == 0 and f[-1] == 0:
        f.pop()
    return f


def normalize(p, f):
    return trim([c % p for c in f])


def degree(f):
    return len(f) - 1 if f else -1


def add(p, f, g):
    n = max(len(f), len(g))
    return trim([((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % p for i in range(n)])


def sub(p, f, g):
    n = max(len(f), len(g))
    return trim([((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % p for i in range(n)])


def mul(p, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


def divmod_poly(p, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    inv_lead = pow(g[-1], p - 2, p)
    while len(f) >= len(g) and trim(f):
        k = len(f) - len(g)
        c = (f[-1] * inv_lead) % p
        q[k] = c
        for i, b in enumerate(g):
            f[k + i] = (f[k + i] - c * b) % p
        trim(f)
    return trim(q), f


def mod(p, f, g):
    return divmod_poly(p, f, g)[1]


def gcd(p, f, g):
    while g:
        f, g = g, mod(p, f, g)
    return monic(p, f)


def monic(p, f):
    if not f:
        return []
    inv = pow(f[-1], p - 2, p)
    return [(c * inv) % p for c in f]


def pow_mod(p, f, e, m):
    acc, base = [1], mod(p, f, m)
    while e:
        if e & 1:
            acc = mod(p, mul(p, acc, base), m)
        base = mod(p, mul(p, base, base), m)
        e >>= 1
    return acc


def derivative(p, f):
    return trim([(i * c) % p for i, c in enumerate(f)][1:])


def _pth_root(p, f):
    # f is a polynomial in x^p; coefficients fixed by Frobenius on GF(p)
    return trim([f[i] for i in range(0, len(f), p)])


def squarefree_decomposition(p, f):
    """List of (monic squarefree factor, multiplicity), f monic."""
    out = []
    mult = 1
    while degree(f) > 0:
        d = derivative(p, f)
        if not d:
            f = _pth_root(p, f)
            mult *= p
            continue
        c = gcd(p, f, d)
        w = divmod_poly(p, f, c)[0]
        i = 1
        while degree(w) > 0:
            y = gcd(p, w, c)
            z = divmod_poly(p, w, y)[0]
            if degree(z) > 0:
                out.append((monic(p, z), i * mult))
            w = y
            if degree(y) >= 0:
                c = divmod_poly(p, c, y)[0]
            i += 1
        f = c
    return out


def _berlekamp_split(p, f):
    """Irreducible factors of a monic squarefree f, deterministic order."""
    n = degree(f)
    if n <= 1:
        return [f]
    # Q matrix: column j holds x^(j*p) mod f
    field = PrimeField(p)
    cols = [pow_mod(p, [0, 1], j * p, f) for j in range(n)]
    rows = []
    for i in range(n):
        rows.append([(cols[j][i] if i < len(cols[j]) else 0) for j in range(n)])
    Q = Matrix(field, rows)
    null = (Q - Matrix.identity(field, n)).nullspace()
    r = len(null)
    if r == 1:
        return [monic(p, f)]
    factors = [monic(p, f)]
    for v in null:
        b = trim(list(v))
        if degree(b) < 1:
            continue
        next_factors = []
        for g in factors:
            if degree(g) == 1:
                next_factors.append(g)
                continue
            pieces = []
            rem = g
            for c in range(p):
                h = gcd(p, rem, sub(p, b, [c]))
                if 0 < degree(h) < degree(rem):
                    pieces.append(h)
                    rem = divmod_poly(p, rem, h)[0]
                if degree(rem) == 0:
                    break
            if degree(rem) > 0:
                pieces.append(rem)
            next_factors.extend(monic(p, piece) for piece in pieces)
        factors = next_factors
        if len(factors) == r:
            break
    return sorted(factors, key=lambda g: (degree(g), tuple(reversed(g))))


def factor(p, f):
    """Factor f over GF(p) into monic irreducibles with multiplicities.

    Returns (leading_unit, [(factor, multiplicity), ...]) with the factor
    list sorted by degree then coefficients.
    """
    f = normalize(p, list(f))
    if not f:
        raise UsageError("cannot factor the zero polynomial")
    unit = f[-1]
    f = monic(p, f)
    out = []
    for sq, m in squarefree_decomposition(p, f):
        for irr in _berlekamp_split(p, sq):
            out.append((irr, m))
    out.sort(key=lambda t: (degree(t[0]), tuple(reversed(t[0]))))
    return unit, out


def factor_primefield_poly(field: PrimeField, coeffs):
    """Spec surface: factorization of a GF(p) polynomial given as an
    ascending coefficient list of canonical scalars."""
    unit, factors = factor(field.p, list(coeffs))
    return unit, factors


def roots(p, f):
    """All roots in GF(p) with multiplicity, via full factorization."""
    _, factors = factor(p, f)
    out = []
    for g, m in factors:
        if degree(g) == 1:
            out.append(((-g[0]) % p, m))
    out.sort()
    return out
