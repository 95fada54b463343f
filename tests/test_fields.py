import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit.cli import execute, parse_jobspec
from hopfkit.errors import UsageError
from hopfkit.fields import (
    MILLER_RABIN_BOUND,
    CyclotomicField,
    PrimeField,
    Rationals,
    cyclotomic_polynomial,
    field_from_json,
    is_prime,
)
from hopfkit.report import dumps_stable


def test_gf7_inverse_matches_scan():
    gf7 = PrimeField(7)
    # oracle: scan x with 3x = 1 mod 7
    expected = [x for x in range(7) if (3 * x) % 7 == 1][0]
    assert expected == 5
    assert gf7.inv(3) == expected


def test_rational_add():
    q = Rationals()
    assert q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_cyclotomic_square_of_generator():
    c3 = CyclotomicField(3)
    z = c3.generator
    # z^2 reduced mod z^2 + z + 1 is -1 - z
    assert c3.mul(z, z) == c3.parse("-1-z")
    assert c3.show(c3.mul(z, z)) == "-1-z"


def test_cyclotomic_polynomials():
    def coeffs(n):
        return [int(c) for c in cyclotomic_polynomial(n)]

    assert coeffs(1) == [-1, 1]
    assert coeffs(2) == [1, 1]
    assert coeffs(3) == [1, 1, 1]
    assert coeffs(4) == [1, 0, 1]
    assert coeffs(6) == [1, -1, 1]
    assert coeffs(12) == [1, 0, -1, 0, 1]


def test_prime_field_rejects_composite():
    with pytest.raises(UsageError):
        PrimeField(6)


def test_division_by_zero():
    for field in (Rationals(), PrimeField(5), CyclotomicField(4)):
        with pytest.raises(ZeroDivisionError):
            field.inv(field.zero)


def _random_element(field, rng):
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    if isinstance(field, Rationals):
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(field.degree)]
    return tuple(coeffs)


@pytest.mark.parametrize("field", [Rationals(), PrimeField(7), CyclotomicField(3), CyclotomicField(4)])
def test_field_axioms_on_random_triples(field):
    rng = random.Random(20240801)
    for _ in range(40):
        a, b, c = (_random_element(field, rng) for _ in range(3))
        assert field.add(a, field.add(b, c)) == field.add(field.add(a, b), c)
        assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero
        if not field.is_zero(a):
            assert field.mul(a, field.inv(a)) == field.one
        assert field.mul(field.one, a) == a
        assert field.add(field.zero, a) == a


@pytest.mark.parametrize("field,texts", [
    (Rationals(), ["0", "5", "-3/2", "7/3"]),
    (PrimeField(7), ["0", "3", "6"]),
    (CyclotomicField(3), ["0", "1", "-1-z", "1/2+2*z", "z"]),
    (CyclotomicField(5), ["z^3", "-z^2+1/3"]),
])
def test_parse_show_roundtrip(field, texts):
    for t in texts:
        v = field.parse(t)
        assert field.parse(field.show(v)) == v


def test_gfp_fraction_parsing():
    gf7 = PrimeField(7)
    assert gf7.parse("1/2") == gf7.inv(2)
    assert gf7.parse("-1") == 6


def test_multiplicative_order():
    gf7 = PrimeField(7)
    assert gf7.multiplicative_order(2) == 3
    assert gf7.multiplicative_order(3) == 6
    c3 = CyclotomicField(3)
    assert c3.multiplicative_order(c3.generator) == 3


def test_field_from_json_and_equality():
    assert field_from_json({"kind": "rationals"}) == Rationals()
    assert field_from_json({"kind": "gfp", "p": 7}) == PrimeField(7)
    assert field_from_json({"kind": "cyclotomic", "n": 3}) == CyclotomicField(3)
    assert PrimeField(5) != PrimeField(7)
    with pytest.raises(UsageError):
        field_from_json({"kind": "gfp", "p": 7, "bogus": 1})
    with pytest.raises(UsageError):
        field_from_json({"kind": "septimal"})


@pytest.mark.parametrize("n", [5, 8, 12])
def test_cyclotomic_inverses_random(n):
    field = CyclotomicField(n)
    rng = random.Random(n * 31337)
    for _ in range(25):
        v = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(field.degree))
        if field.is_zero(v):
            continue
        assert field.mul(v, field.inv(v)) == field.one


def test_cyclotomic_generator_is_primitive_root():
    for n in (3, 4, 5, 8, 12):
        field = CyclotomicField(n)
        z = field.generator
        assert field.is_one(field.pow(z, n))
        for k in range(1, n):
            assert not field.is_one(field.pow(z, k))


# ----------------------------------------------------------------------
# the integer kernel of CyclotomicField against a schoolbook reference
# ----------------------------------------------------------------------

CYCLOTOMIC_INDICES = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15]
_CYCLOTOMIC_FIELDS = {n: CyclotomicField(n) for n in CYCLOTOMIC_INDICES}


def _canonical(q):
    """The Fraction q as the field stores it: an int when integral."""
    return q.numerator if q.denominator == 1 else q


@st.composite
def _cyclotomic_operands(draw, indices=CYCLOTOMIC_INDICES, extra_kinds=()):
    """(field, a, b, c): operands that are the field's zero object, a
    fresh zero tuple, rational, monomial or dense with mixed denominators,
    and, when ``extra_kinds`` names them, the field's one object ("one")
    or an equal tuple built separately ("fresh one").  Every coordinate is
    in canonical form: an int when integral, else a reduced Fraction."""
    field = _CYCLOTOMIC_FIELDS[draw(st.sampled_from(indices))]
    d = field.degree
    coeff = st.fractions(min_value=-50, max_value=50, max_denominator=12).map(_canonical)

    def element():
        kind = draw(st.sampled_from(["zero", "fresh zero", "rational", "monomial", "dense",
                                     *extra_kinds]))
        if kind == "zero":
            return field.zero
        if kind == "one":
            return field.one
        if kind == "fresh one":
            return tuple(int(i == 0) for i in range(d))
        v = [0] * d
        if kind == "rational":
            v[0] = draw(coeff)
        elif kind == "monomial":
            v[draw(st.integers(0, d - 1))] = draw(coeff)
        elif kind == "dense":
            v = [draw(coeff) for _ in range(d)]
        return tuple(v)

    return field, element(), element(), element()


def _schoolbook_mul(n, a, b):
    """Fraction polynomial product, then long division by Phi_n."""
    prod = [Fraction(0)] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    modulus = cyclotomic_polynomial(n)
    d = len(modulus) - 1
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        for i in range(d + 1):
            prod[k - d + i] -= c * modulus[i]
    return tuple(prod[:d])


def _assert_canonical(field, v):
    """A tuple of degree coordinates, each an int or a reduced Fraction
    with denominator > 1."""
    assert isinstance(v, tuple) and len(v) == field.degree
    for x in v:
        if type(x) is not int:
            assert type(x) is Fraction
            assert x.denominator > 1 and math.gcd(x.numerator, x.denominator) == 1


def _same_value(field, got, want):
    _assert_canonical(field, got)
    assert [(x.numerator, x.denominator) for x in got] == \
        [(y.numerator, y.denominator) for y in want]


_KERNEL_SETTINGS = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@_KERNEL_SETTINGS
@given(_cyclotomic_operands())
def test_cyclotomic_kernel_matches_schoolbook(operands):
    field, a, b, _ = operands
    _same_value(field, field.mul(a, b), _schoolbook_mul(field.n, a, b))
    _same_value(field, field.add(a, b), [x + y for x, y in zip(a, b)])
    _same_value(field, field.sub(a, b), [x - y for x, y in zip(a, b)])
    _same_value(field, field.neg(a), [-x for x in a])
    assert field.is_zero(a) == all(x == 0 for x in a)


@_KERNEL_SETTINGS
@given(_cyclotomic_operands())
def test_cyclotomic_kernel_inverse(operands):
    field, a, b, c = operands
    for x in (a, b, c):
        if field.is_zero(x):
            with pytest.raises(ZeroDivisionError):
                field.inv(x)
            continue
        inv = field.inv(x)
        _assert_canonical(field, inv)
        assert field.mul(x, inv) == field.one
        assert field.mul(inv, x) == field.one


@_KERNEL_SETTINGS
@given(_cyclotomic_operands())
def test_cyclotomic_kernel_matches_sympy(operands):
    sympy = pytest.importorskip("sympy")
    field, a, b, _ = operands
    x = sympy.Symbol("x")
    phi = sympy.cyclotomic_poly(field.n, x)

    def poly(v):
        return sum(sympy.Rational(c.numerator, c.denominator) * x ** i for i, c in enumerate(v))

    def coords(expr):
        p = sympy.Poly(expr, x, domain="QQ").all_coeffs()[::-1]
        p += [0] * (field.degree - len(p))
        return [Fraction(int(sympy.numer(c)), int(sympy.denom(c))) for c in p]

    _same_value(field, field.mul(a, b), coords(sympy.rem(poly(a) * poly(b), phi, x)))
    if not field.is_zero(a):
        _same_value(field, field.inv(a), coords(sympy.invert(poly(a), phi, x)))


# the differential tests above again, with one operands mixed in
_WITH_ONE = _cyclotomic_operands(indices=[1, 2, 3, 5, 12], extra_kinds=("one", "fresh one"))


@_KERNEL_SETTINGS
@given(_WITH_ONE)
def test_cyclotomic_kernel_matches_schoolbook_with_one_operands(operands):
    test_cyclotomic_kernel_matches_schoolbook.hypothesis.inner_test(operands)


@_KERNEL_SETTINGS
@given(_WITH_ONE)
def test_cyclotomic_kernel_inverse_with_one_operands(operands):
    test_cyclotomic_kernel_inverse.hypothesis.inner_test(operands)


@_KERNEL_SETTINGS
@given(_WITH_ONE)
def test_cyclotomic_kernel_matches_sympy_with_one_operands(operands):
    test_cyclotomic_kernel_matches_sympy.hypothesis.inner_test(operands)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12])
def test_cyclotomic_one_shortcut_returns_the_operand(n):
    field = CyclotomicField(n)
    a = field.parse("1/2+z^3")
    fresh_one = tuple(Fraction(int(i == 0)) for i in range(field.degree))
    assert fresh_one == field.one and fresh_one is not field.one
    for one in (field.one, fresh_one):
        assert field.mul(one, a) is a
        assert field.mul(a, one) is a
        assert field.mul(one, field.zero) is field.zero
        assert field.mul(one, one) == field.one


def test_cyclotomic_zero_shortcuts_return_the_operand():
    field = CyclotomicField(5)
    a = field.parse("1/2+z^3")
    assert field.add(field.zero, a) is a
    assert field.add(a, field.zero) is a
    assert field.sub(a, field.zero) is a
    assert field.neg(field.zero) is field.zero
    assert field.mul(field.zero, a) is field.zero


# Digests of whole reports over Q(z_n), taken before the integer kernel
# replaced the Fraction loops; every byte of these reports must stay.
REPORT_DIGESTS = {
    ("obstruct", 5): "2d00e13ef277f78b40556b8795dd357ccc07901ff62f2e0dd91b06a0df22b1cc",
    ("analyze", 5): "c8e15fb07f8b85b37e50901e83d00b9a07637936309b687cf681446d000b2376",
    ("obstruct", 3): "2ac0a1aaf98b51f35cdbb993c8e902e1b314ec279cad1cdb41819cb5d85de51f",
}


@pytest.mark.parametrize("task,n", sorted(REPORT_DIGESTS))
def test_taft_cyclotomic_report_golden(task, n):
    job = {"schema_version": 2, "field": {"kind": "cyclotomic", "n": n},
           "object": {"builder": "taft", "p": n, "omega": "z"}, "tasks": [task]}
    report, code, _ = execute(parse_jobspec(json.dumps(job)))
    assert code == 0
    digest = hashlib.sha256(dumps_stable(report).encode("utf-8")).hexdigest()
    assert digest == REPORT_DIGESTS[(task, n)]


# ----------------------------------------------------------------------
# primality of p: deterministic Miller-Rabin below its proven bound
# ----------------------------------------------------------------------

def test_is_prime_matches_a_sieve_below_200000():
    n = 200_000
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for d in range(2, math.isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytearray(len(range(d * d, n, d)))
    assert [m for m in range(n) if is_prime(m)] == [m for m in range(n) if sieve[m]]


@pytest.mark.parametrize("n", [
    # the least strong pseudoprimes to the first 4, 5, 6, 8 and 11 prime bases
    3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051,
    # Carmichael numbers
    561, 41041,
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=MILLER_RABIN_BOUND - 1))
def test_is_prime_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    assert is_prime(n) == sympy.isprime(n)
    p = sympy.nextprime(n)
    if p < MILLER_RABIN_BOUND:
        assert is_prime(p)


def test_primes_past_the_bound_are_an_input_error():
    assert is_prime(2 ** 61 - 1) and not is_prime(MILLER_RABIN_BOUND - 2)
    # the bound is the least composite that passes all thirteen bases
    for n in (MILLER_RABIN_BOUND, (2 ** 31 - 1) * (2 ** 61 - 1), 10 ** 30 + 57):
        with pytest.raises(UsageError, match="cannot decide exactly"):
            PrimeField(n)
