import random

import pytest

from hopfkit import gfpoly
from hopfkit.errors import UsageError
from hopfkit.fields import PrimeField
from hopfkit.gfpoly import factor, factor_primefield_poly, roots


def _horner(p, f, x):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def _root_scan(p, f):
    return sorted(x for x in range(p) if _horner(p, f, x) == 0)


def test_cubic_minus_one_over_gf7():
    # oracle: root scan over GF(7)
    f = [6, 0, 0, 1]  # x^3 - 1
    assert _root_scan(7, f) == [1, 2, 4]
    unit, factors = factor(7, f)
    assert unit == 1
    assert sorted(factors) == sorted([([6, 1], 1), ([5, 1], 1), ([3, 1], 1)])
    # (x - 1)(x - 2)(x - 4): constants are -1, -2, -4 mod 7
    assert sorted((-g[0]) % 7 for g, _ in factors) == [1, 2, 4]


def test_quadratic_over_gf5():
    f = [1, 0, 1]  # x^2 + 1 over GF(5)
    assert _root_scan(5, f) == [2, 3]
    _, factors = factor(5, f)
    assert sorted((-g[0]) % 5 for g, _ in factors) == [2, 3]


def test_linear_over_gf3():
    _, factors = factor(3, [0, 1])
    assert factors == [([0, 1], 1)]


def test_zero_polynomial_rejected():
    with pytest.raises(UsageError):
        factor(5, [0, 0])


def test_multiplicities():
    # (x - 1)^2 (x + 1) over GF(5)
    f = gfpoly.mul(5, gfpoly.mul(5, [4, 1], [4, 1]), [1, 1])
    _, factors = factor(5, f)
    assert sorted(factors) == sorted([([4, 1], 2), ([1, 1], 1)])
    assert roots(5, f) == [(1, 2), (4, 1)]


def test_frobenius_power_factorization():
    # x^p - x splits into all linear factors over GF(p)
    for p in (3, 5):
        f = [0] * (p + 1)
        f[1] = p - 1
        f[p] = 1
        _, factors = factor(p, f)
        assert all(gfpoly.degree(g) == 1 for g, _ in factors)
        assert len(factors) == p


def test_irreducible_detection():
    # x^2 + 1 is irreducible over GF(3)
    _, factors = factor(3, [1, 0, 1])
    assert factors == [([1, 0, 1], 1)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_refactor_multiplies_back(p):
    rng = random.Random(p * 1009)
    for _ in range(15):
        deg = rng.randint(1, 6)
        f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        unit, factors = factor(p, f)
        prod = [unit]
        for g, m in factors:
            for _ in range(m):
                prod = gfpoly.mul(p, prod, g)
        assert prod == gfpoly.normalize(p, f)
        for g, _ in factors:
            # irreducibility spot check: no roots for degree > 1 pieces of degree <= 3
            if 1 < gfpoly.degree(g) <= 3:
                assert _root_scan(p, g) == []


def test_factor_primefield_poly_surface():
    gf7 = PrimeField(7)
    unit, factors = factor_primefield_poly(gf7, [6, 0, 0, 1])
    assert unit == 1 and len(factors) == 3


try:
    import sympy
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st
except ImportError:  # the sympy comparison below is skipped
    sympy = None


def _sympy_factors(p, coeffs):
    """(unit, sorted [(ascending monic coefficients, multiplicity)]) from
    sympy's factor_list over GF(p)."""
    x = sympy.Symbol("x")
    expr = sum(c * x ** k for k, c in enumerate(coeffs))
    unit, factors = sympy.factor_list(expr, x, modulus=p)
    out = []
    for g, m in factors:
        asc = [int(c) % p for c in reversed(sympy.Poly(g, x, modulus=p).all_coeffs())]
        lead = asc[-1]
        if lead != 1:  # a factor sympy leaves non-monic moves its leading coefficient to the unit
            inv = pow(lead, -1, p)
            asc = [c * inv % p for c in asc]
            unit = unit * pow(lead, m)
        out.append((asc, m))
    return int(unit) % p, sorted(out)


@pytest.mark.skipif(sympy is None, reason="needs sympy and hypothesis")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # raised inside sympy's factor_list
def test_factorization_matches_sympy():
    polys = st.sampled_from((2, 3, 5, 7, 11, 13)).flatmap(
        lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p - 1), min_size=2, max_size=9)))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(polys)
    def check(case):
        p, coeffs = case
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        assume(len(coeffs) >= 2)
        unit, factors = factor_primefield_poly(PrimeField(p), coeffs)
        assert (unit, sorted(factors)) == _sympy_factors(p, coeffs), (p, coeffs)

    check()
