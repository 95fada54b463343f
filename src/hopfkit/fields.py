"""Exact ground fields: rationals, prime fields GF(p), and cyclotomic quotients.

A field object owns the arithmetic; scalars are plain immutable Python
values in a canonical form that is unique per field element:

* rationals        -- ``int`` when integral, else a reduced
                      ``fractions.Fraction`` with denominator > 1,
* GF(p)            -- ``int`` in ``[0, p)``,
* cyclotomic(n)    -- tuple of length deg(Phi_n) of rationals in the
                      same form as above (``int`` when integral, else a
                      reduced ``Fraction``), the coefficients of the
                      residue mod the n-th cyclotomic polynomial, lowest
                      degree first.

All operations are pure and never leave canonical form, so ``==`` on raw
values is exact equality in the field.  A rational is an ``int`` where it
can be because structure constants over Q and Q(z_n) are almost all 0 or
+-1, and ``int`` arithmetic on them is many times faster than
``Fraction`` arithmetic; an ``int`` and the equal ``Fraction`` compare,
hash and print the same, so nothing shown, hashed or stored depends on
which one is held.

Inside, the cyclotomic arithmetic runs on integers: a product convolves
the integer numerators of its operands over their common denominators
and reduces by an integer table of x^k mod Phi_n, and an inverse is the
product of the Galois conjugates over the norm.  Only the result is
divided by its denominator, coordinate by coordinate, so the values, and
everything shown, hashed or stored from them, are the same as with
``Fraction`` arithmetic throughout.

Scalars read from JSON are strings, and a document repeats a handful of
them many times over (the 81-dimensional D(D(kZ3)) certificate over
GF(p) holds 30,051 scalar strings and 3 distinct ones).  So a field
parses each distinct scalar string once per instance: ``parse_scalar``
and its row form ``parse_scalars`` keep every successful parse in a
memo held by the field, keyed by the exact string.  A string that fails
to parse is never stored and raises the same ``UsageError`` each time.
Fields are built per document by ``field_from_json``, so the memo lives
as long as the document and holds its distinct strings.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import UsageError


# Miller-Rabin with the prime bases 2..41 decides primality exactly below
# this bound (Sorenson & Webster, "Strong pseudoprimes to twelve prime
# bases", 2015)
MILLER_RABIN_BOUND = 3317044064679887385961981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Exact primality for n < MILLER_RABIN_BOUND by deterministic
    Miller-Rabin; a UsageError above it, never a probable verdict."""
    if n >= MILLER_RABIN_BOUND:
        raise UsageError(f"cannot decide exactly whether {n} is prime: "
                         f"p must be below {MILLER_RABIN_BOUND}")
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ----------------------------------------------------------------------
# rational polynomial helpers (ascending coefficient lists of Fraction),
# used only to build the cyclotomic moduli
# ----------------------------------------------------------------------

def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(a, b):
    a = list(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b) and _poly_trim(a):
        k = len(a) - len(b)
        f = a[-1] * inv_lead
        q[k] = f
        for i, bi in enumerate(b):
            a[k + i] -= f * bi
        _poly_trim(a)
    return _poly_trim(q), a


_CYCLOTOMIC_CACHE: dict[int, list] = {}


# the largest n of Q(z_n): building Phi_n divides by Phi_d for every
# divisor d of n, at a cost that grows as n^2 (a quarter of a second at
# n = 1000 on a 2-core x86 VM under Python 3.11), and the field's
# powers of x take up to n * phi(n) coordinates
CYCLOTOMIC_MAX_N = 1000


def cyclotomic_polynomial(n: int):
    """Coefficients of Phi_n over the rationals, ascending, via the
    recursive division x^n - 1 = prod_{d | n} Phi_d; an n outside
    1..CYCLOTOMIC_MAX_N is a UsageError, raised before anything is built."""
    if n < 1:
        raise UsageError("cyclotomic index must be >= 1")
    if n > CYCLOTOMIC_MAX_N:
        raise UsageError(f"cyclotomic index must be at most {CYCLOTOMIC_MAX_N}, got {n}")
    if n in _CYCLOTOMIC_CACHE:
        return list(_CYCLOTOMIC_CACHE[n])
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod(num, cyclotomic_polynomial(d))
            if r:
                raise AssertionError("cyclotomic division left a remainder")
            num = q
    _CYCLOTOMIC_CACHE[n] = list(num)
    return num


class Field:
    """Common interface for the exact ground fields."""

    kind = "abstract"

    def __init__(self):
        # scalar string -> value, filled by parse_scalar and parse_scalars
        self._parsed = {}

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero

    def is_one(self, a) -> bool:
        return a == self.one

    def sum(self, values):
        acc = self.zero
        for v in values:
            acc = self.add(acc, v)
        return acc

    def from_int(self, k: int):
        return self.mul_int(self.one, k)

    def mul_int(self, a, k: int):
        if k == 0:
            return self.zero
        acc = self.zero
        neg = k < 0
        for _ in range(abs(k)):
            acc = self.add(acc, a)
        return self.neg(acc) if neg else acc

    def pow(self, a, k: int):
        if k < 0:
            return self.pow(self.inv(a), -k)
        acc, base = self.one, a
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def multiplicative_order(self, a, bound: int = 10000):
        """Order of a in the multiplicative group, or None past the bound."""
        if self.is_zero(a):
            raise UsageError("zero has no multiplicative order")
        acc = a
        for k in range(1, bound + 1):
            if self.is_one(acc):
                return k
            acc = self.mul(acc, a)
        return None

    def to_json(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self.to_json() == other.to_json()

    def __hash__(self):
        return hash(tuple(sorted(self.to_json().items())))


def _rational(c):
    """The rational c (an ``int`` or a ``Fraction``) in canonical form:
    the ``int`` when it is integral."""
    if type(c) is int or c.denominator != 1:
        return c
    return c.numerator


class Rationals(Field):
    """Q.  A value is an ``int`` when it is integral and a reduced
    ``Fraction`` with denominator > 1 otherwise; ``from_rational`` puts
    any rational into that form."""

    kind = "rationals"
    characteristic = 0

    def __init__(self):
        super().__init__()
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        c = a + b
        if type(c) is int or c.denominator != 1:
            return c
        return c.numerator

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return a == 0

    def mul(self, a, b):
        c = a * b
        if type(c) is int or c.denominator != 1:
            return c
        return c.numerator

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in the rationals")
        return self.from_rational(Fraction(1) / a)

    def from_rational(self, q):
        """q, an ``int``, a ``Fraction`` or a string that ``Fraction``
        reads, as a value of this field."""
        return _rational(Fraction(q))

    def parse(self, text: str):
        try:
            return self.from_rational(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational scalar {text!r}: {exc}") from None

    def show(self, a) -> str:
        return str(a)

    def to_json(self):
        return {"kind": "rationals"}

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    def __init__(self, p: int):
        if not is_prime(p):
            raise UsageError(f"{p} is not prime")
        super().__init__()
        self.p = p
        self.zero = 0
        self.one = 1 % p

    kind = "prime_field"

    @property
    def characteristic(self):
        return self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def parse(self, text: str):
        text = text.strip()
        m = re.fullmatch(r"(-?\d+)\s*/\s*(-?\d+)", text)
        try:
            if m:
                return self.div(int(m.group(1)) % self.p, int(m.group(2)) % self.p)
            return int(text) % self.p
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad GF({self.p}) scalar {text!r}: {exc}") from None

    def show(self, a) -> str:
        return str(a)

    def elements(self):
        return range(self.p)

    def to_json(self):
        return {"kind": "prime_field", "p": self.p}

    def __repr__(self):
        return f"GF({self.p})"


def _integer_terms(terms):
    """(common denominator D, [(i, D * x)]) for sparse rational terms
    [(i, x)], so that every D * x is an integer."""
    if all(type(x) is int for _, x in terms):
        return 1, terms
    den = math.lcm(*[x.denominator for _, x in terms])
    return den, [(i, x.numerator * (den // x.denominator)) for i, x in terms]


def _parse_cyclo_term(raw: str):
    """One additive term: rational, z, z^k, or rational [*] z[^k]."""
    t = raw.strip()
    sign = 1
    while t and t[0] in "+-":
        if t[0] == "-":
            sign = -sign
        t = t[1:].strip()
    if not t:
        raise UsageError(f"empty cyclotomic scalar term {raw!r}")
    if "z" in t:
        coef_part, _, tail = t.partition("z")
        coef_part = coef_part.strip()
        if coef_part.endswith("*"):
            coef_part = coef_part[:-1].strip()
        coef = Fraction(coef_part) if coef_part else Fraction(1)
        tail = tail.strip()
        if tail.startswith("^"):
            exp = int(tail[1:])
        elif tail:
            raise UsageError(f"bad cyclotomic scalar term {raw!r}")
        else:
            exp = 1
        return sign * coef, exp
    return sign * Fraction(t), 0


class CyclotomicField(Field):
    """Q[z] / (Phi_n(z)); ``z`` is a primitive n-th root of unity.

    A coordinate is an ``int`` when it is integral and a reduced
    ``Fraction`` with denominator > 1 otherwise; ``from_rational`` puts
    any rational into that form.  Phi_n is monic with integer
    coefficients, so x^k mod Phi_n is an integer vector and a product of
    two numerator vectors reduces without a fraction; each result
    coordinate is num // den when den divides num, else one
    ``Fraction(num, den)``.  ``mul`` by a zero or one operand returns at
    once.
    """

    kind = "cyclotomic"
    characteristic = 0

    def __init__(self, n: int):
        self.modulus = cyclotomic_polynomial(n)
        super().__init__()
        self.n = n
        self.degree = d = len(self.modulus) - 1
        self.zero = (0,) * d
        self.one = (1,) + self.zero[1:]
        # x^k mod Phi_n as sparse integer vectors [(i, c)], for every k a
        # product (k <= 2d - 2) or a Galois conjugate (k < n) can reach
        phi = [int(c) for c in self.modulus]
        cur = [1] + [0] * (d - 1)
        self._xpow = []
        for _ in range(max(n, 2 * d - 1)):
            self._xpow.append([(i, c) for i, c in enumerate(cur) if c])
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                cur = [c - lead * p for c, p in zip(cur, phi)]
        # the Galois group is k in (Z/n)^x acting by z -> z^k; all but k = 1
        self._units = [k for k in range(2, n) if math.gcd(k, n) == 1]

    @property
    def generator(self):
        if self.degree == 1:
            # Phi_1 = x - 1 or Phi_2 = x + 1: z is rational
            return (-int(self.modulus[0]),)
        g = [0] * self.degree
        g[1] = 1
        return tuple(g)

    def add(self, a, b):
        zero = self.zero
        if a is zero:
            return b
        if b is zero:
            return a
        return tuple(_rational(x + y) if x and y else x or y for x, y in zip(a, b))

    def sub(self, a, b):
        zero = self.zero
        if b is zero:
            return a
        if a is zero:
            return self.neg(b)
        return tuple(_rational(x - y) if y else x for x, y in zip(a, b))

    def neg(self, a):
        if a is self.zero:
            return a
        return tuple(-x if x else x for x in a)

    def is_zero(self, a) -> bool:
        return a is self.zero or not any(a)

    def mul(self, a, b):
        zero = self.zero
        if a is zero or b is zero:
            return zero
        one = self.one
        if a == one:
            return b
        if b == one:
            return a
        sa = [(i, x) for i, x in enumerate(a) if x]
        sb = [(j, y) for j, y in enumerate(b) if y]
        if not sa or not sb:
            return zero
        if len(sa) == 1 and not sa[0][0]:
            q = sa[0][1]
            return tuple(_rational(y * q) if y else y for y in b)
        if len(sb) == 1 and not sb[0][0]:
            q = sb[0][1]
            return tuple(_rational(x * q) if x else x for x in a)
        da, na = _integer_terms(sa)
        db, nb = _integer_terms(sb)
        return self._from_integers(self._int_mul(na, nb), da * db)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError(f"division by zero in Q(z_{self.n})")
        # a^-1 = prod_{k != 1} sigma_k(a) / N(a), with N(a) = prod_k sigma_k(a)
        # rational; on the numerators A = da * a this is da * P / (A * P)
        da, na = _integer_terms([(i, x) for i, x in enumerate(a) if x])
        prod = [(0, 1)]
        for k in self._units:
            prod = [(i, c) for i, c in enumerate(self._int_mul(prod, self._conjugate(na, k))) if c]
        norm = self._int_mul(na, prod)[0]
        nums = [0] * self.degree
        for i, c in prod:
            nums[i] = c * da
        return self._from_integers(nums, norm)

    def _int_mul(self, na, nb):
        """Product of two sparse integer vectors [(i, c)], reduced mod
        Phi_n to a dense integer list of length degree."""
        d = self.degree
        conv = [0] * (na[-1][0] + nb[-1][0] + 1)
        for i, p in na:
            for j, q in nb:
                conv[i + j] += p * q
        out = conv[:d] + [0] * (d - len(conv))
        xpow = self._xpow
        for k in range(d, len(conv)):
            c = conv[k]
            if c:
                for i, r in xpow[k]:
                    out[i] += c * r
        return out

    def _conjugate(self, na, k):
        """sigma_k: z -> z^k on a sparse integer vector, as a sparse one."""
        out = {}
        for i, c in na:
            for j, r in self._xpow[i * k % self.n]:
                out[j] = out.get(j, 0) + c * r
        return sorted(out.items())

    def _from_integers(self, nums, den):
        """The element with coordinates nums[i] / den (den a nonzero int)."""
        if den == 1:
            return tuple(nums)
        return tuple(c // den if not c % den else Fraction(c, den) for c in nums)

    def from_rational(self, q):
        """q, an ``int``, a ``Fraction`` or a string that ``Fraction``
        reads, as a value of this field."""
        return (_rational(Fraction(q)),) + self.zero[1:]

    def parse(self, text: str):
        text = text.strip().replace("-", "+-")
        if text.startswith("+"):
            text = text[1:]
        acc = self.zero
        for raw in text.split("+"):
            if not raw.strip():
                continue
            try:
                coef, exp = _parse_cyclo_term(raw)
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"bad cyclotomic scalar term {raw!r}: {exc}") from None
            term = self.from_rational(coef)
            if exp:
                term = self.mul(term, self.pow(self.generator, exp))
            acc = self.add(acc, term)
        return acc

    def show(self, a) -> str:
        parts = []
        for i, c in enumerate(a):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "z" if i == 1 else f"z^{i}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}*{var}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f"+{p}" if not p.startswith("-") else p
        return out

    def roots_of_unity(self):
        """All elements +/- z^j; contains every root of unity of the field."""
        out = []
        cur = self.one
        for _ in range(self.n):
            out.append(cur)
            out.append(self.neg(cur))
            cur = self.mul(cur, self.generator)
        seen, uniq = set(), []
        for v in out:
            if v not in seen:
                seen.add(v)
                uniq.append(v)
        return uniq

    def to_json(self):
        return {"kind": "cyclotomic", "n": self.n}

    def __repr__(self):
        return f"Q(z_{self.n})"


def parse_scalar(field: Field, value, entry):
    """field.parse(value) for a scalar read from JSON, where scalars are
    always strings; otherwise a UsageError naming the JSON entry that
    holds the value.

    The field parses each distinct string once: the memo it holds is read
    first, and only a successful parse is stored in it, so a bad string
    raises the same UsageError every time it is read."""
    parsed = field._parsed
    try:
        return parsed[value]
    except (KeyError, TypeError):
        pass
    if not isinstance(value, str):
        raise UsageError(f"scalar {value!r} in entry {entry!r} must be a string")
    out = parsed[value] = field.parse(value)
    return out


def parse_scalars(field: Field, values, entry):
    """[parse_scalar(field, v, entry) for v in values]: a JSON list of
    scalars read through the field's memo in one pass.  On a miss or a
    non-string it falls back to the item-by-item path, which parses each
    new string once and gives the same diagnostics."""
    parsed = field._parsed
    try:
        return [parsed[v] for v in values]
    except (KeyError, TypeError):
        return [parse_scalar(field, v, entry) for v in values]


def parse_int(value, entry):
    """An integer read from JSON: an int or a string of one, not a bool or
    a float; otherwise a UsageError naming the entry that holds it."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise UsageError(f"{entry} must be an integer, got {value!r}")


def field_from_json(data: dict) -> Field:
    if not isinstance(data, dict) or "kind" not in data:
        raise UsageError(f"bad field description {data!r}")
    kind = data["kind"]
    extra = set(data) - {"kind", "p", "n"}
    if extra:
        raise UsageError(f"unknown field keys {sorted(extra)}")
    if kind == "rationals":
        return Rationals()
    if kind in ("prime_field", "gfp"):
        if "p" not in data:
            raise UsageError("prime_field needs key 'p'")
        return PrimeField(parse_int(data["p"], f"key 'p' of field {kind!r}"))
    if kind == "cyclotomic":
        if "n" not in data:
            raise UsageError("cyclotomic needs key 'n'")
        return CyclotomicField(parse_int(data["n"], "key 'n' of field 'cyclotomic'"))
    raise UsageError(f"unknown field kind {kind!r}")
