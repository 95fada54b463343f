"""The value rule of the rationals: an integral value is held as an
``int``, any other as a reduced ``Fraction`` with denominator > 1.

Every operation of ``Rationals`` is compared with plain ``Fraction``
arithmetic on drawn values, and every result is checked against the
rule.  The rule is also checked on every scalar of the 256-dimensional
double D(D(H4)) over Q: its structure constants, antipode, R and R^-1.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hopfkit import drinfeld_double  # noqa: E402
from hopfkit.fields import Rationals  # noqa: E402

QQ = Rationals()

CHECK = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _obeys_rule(x):
    if type(x) is int:
        return True
    return (type(x) is Fraction and x.denominator > 1
            and math.gcd(x.numerator, x.denominator) == 1)


def _agrees(got, want):
    """got is the canonical value of the Fraction want."""
    return got == want and _obeys_rule(got) and (type(got) is int) == (want.denominator == 1)


@st.composite
def values(draw):
    """Values of Q in canonical form, mostly integral and small, as the
    structure constants of the catalog are."""
    q = Fraction(draw(st.integers(-12, 12)), draw(st.sampled_from((1, 1, 1, 2, 3, 4, 6))))
    return q.numerator if q.denominator == 1 else q


@CHECK
@given(a=values(), b=values())
def test_binary_operations_match_fraction(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert _obeys_rule(a) and _obeys_rule(b)
    assert _agrees(QQ.add(a, b), fa + fb)
    assert _agrees(QQ.sub(a, b), fa - fb)
    assert _agrees(QQ.mul(a, b), fa * fb)
    if b != 0:
        assert _agrees(QQ.div(a, b), fa / fb)
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, b)


@CHECK
@given(a=values(), k=st.integers(-4, 4))
def test_unary_operations_match_fraction(a, k):
    fa = Fraction(a)
    assert _agrees(QQ.neg(a), -fa)
    if a != 0:
        assert _agrees(QQ.inv(a), 1 / fa)
    if a != 0 or k >= 0:
        assert _agrees(QQ.pow(a, k), fa ** k)
    assert QQ.is_zero(a) == (fa == 0)
    assert QQ.is_one(a) == (fa == 1)
    assert QQ.show(a) == str(fa)


@CHECK
@given(xs=st.lists(values(), max_size=8))
def test_sum_matches_fraction(xs):
    assert _agrees(QQ.sum(xs), sum((Fraction(x) for x in xs), Fraction(0)))


@CHECK
@given(num=st.integers(-30, 30), den=st.integers(1, 12), pad=st.sampled_from(("", " ")))
def test_parse_matches_fraction(num, den, pad):
    want = Fraction(num, den)
    for text in (f"{num}/{den}", str(want), f"{pad}{num}/{den}{pad}"):
        got = QQ.parse(text)
        assert _agrees(got, want)
        assert QQ.show(got) == str(want)


def test_zero_one_and_inverse_of_zero():
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)
    # an int never turns into a float
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert _agrees(QQ.parse("1.5"), Fraction(3, 2))
    assert _agrees(QQ.parse("-4/2"), Fraction(-2))


def _hopf_scalars(H):
    yield from H.mul.entries.values()
    yield from H.unit
    yield from H.comul.entries.values()
    yield from H.counit
    for row in H.antipode.rows:
        yield from row


def test_every_scalar_of_the_256_dim_double_obeys_the_rule(double_h4):
    DD = drinfeld_double(double_h4.hopf)
    assert DD.hopf.dim == 256 and DD.verified
    scalars = list(_hopf_scalars(DD.hopf))
    scalars += list(DD.R.coeffs.values()) + list(DD.R_inv.coeffs.values())
    scalars += list(_hopf_scalars(double_h4.hopf)) + list(double_h4.R.coeffs.values())
    assert scalars
    bad = [x for x in scalars if not _obeys_rule(x)]
    assert not bad, bad[:5]
