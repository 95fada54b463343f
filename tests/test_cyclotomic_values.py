"""The value rule of the cyclotomic fields: a coordinate is held as an
``int`` when it is integral, else as a reduced ``Fraction`` with
denominator > 1, the rule ``tests/test_rational_values.py`` checks for Q.

Results that cancel to an integer must come back as ``int``; every scalar
of Taft(5) over Q(z_5), its solved antipode included, obeys the rule; and
the reports of the Taft(5) ``verify`` job and of a split / check-cert
round trip over Q(z_5) keep the bytes they had when every coordinate was
a ``Fraction``.
"""

import hashlib
import json
import math
from fractions import Fraction

import pytest

from hopfkit.catalog import taft
from hopfkit.cli import main
from hopfkit.fields import CyclotomicField

C5 = CyclotomicField(5)
HALF = Fraction(1, 2)


def _obeys_rule(x):
    if type(x) is int:
        return True
    return (type(x) is Fraction and x.denominator > 1
            and math.gcd(x.numerator, x.denominator) == 1)


def _canonical(v):
    return isinstance(v, tuple) and len(v) == C5.degree and all(_obeys_rule(x) for x in v)


def _ints(v):
    """v is canonical and all its coordinates are ints."""
    return _canonical(v) and all(type(x) is int for x in v)


def test_zero_one_and_generator_are_ints():
    for n in (1, 2, 3, 5, 12):
        field = CyclotomicField(n)
        for v in (field.zero, field.one, field.generator):
            assert all(type(x) is int for x in v), (n, v)


def test_cancellations_come_back_as_int():
    z = C5.generator
    half_z = (0, HALF, 0, 0)
    assert _ints(C5.add(half_z, half_z)) and C5.add(half_z, half_z) == z
    assert _ints(C5.sub((1, Fraction(3, 2), 0, 0), half_z))
    assert C5.sub((1, Fraction(3, 2), 0, 0), half_z) == (1, 1, 0, 0)
    # the scalar shortcut of mul, both ways round
    assert _ints(C5.mul((HALF, 0, 0, 0), (0, 2, 0, 0)))
    assert _ints(C5.mul((0, 2, 0, 0), (HALF, 0, 0, 0)))
    assert C5.mul((HALF, 0, 0, 0), (0, 2, 0, 0)) == z
    # the integer kernel: (z/2)(2z) = z^2, over a common denominator 2
    assert C5.mul(half_z, (0, 2, 0, 0)) == (0, 0, 1, 0)
    assert _ints(C5.mul(half_z, (0, 2, 0, 0)))
    # the inverse of a unit: z^-1 = z^4 = -1 - z - z^2 - z^3
    assert C5.inv(z) == (-1, -1, -1, -1) and _ints(C5.inv(z))
    assert _ints(C5.inv((HALF, 0, 0, 0))) and C5.inv((HALF, 0, 0, 0)) == (2, 0, 0, 0)
    assert _ints(C5.neg(z))
    assert C5.parse("2/2+z") == (1, 1, 0, 0) and _ints(C5.parse("2/2+z"))
    assert C5.parse("-2/2*z^2") == (0, 0, -1, 0) and _ints(C5.parse("-2/2*z^2"))
    assert C5.from_rational(Fraction(4, 2)) == (2, 0, 0, 0)
    assert _ints(C5.from_rational(Fraction(4, 2)))


def test_non_integral_results_stay_reduced_fractions():
    third = C5.inv((3, 0, 0, 0))
    assert third == (Fraction(1, 3), 0, 0, 0) and _canonical(third)
    assert type(third[0]) is Fraction and type(third[1]) is int
    inv = C5.inv((1, 1, 0, 0))
    assert _canonical(inv) and C5.mul(inv, (1, 1, 0, 0)) == C5.one
    # an int and the equal Fraction show and hash the same
    assert C5.show((2, HALF, 0, -1)) == C5.show((Fraction(2), HALF, Fraction(0), Fraction(-1)))
    assert hash((1, 0, 0, 0)) == hash((Fraction(1), Fraction(0), Fraction(0), Fraction(0)))


def _hopf_scalars(H):
    yield from H.mul.entries.values()
    yield from H.unit
    yield from H.comul.entries.values()
    yield from H.counit
    for row in H.antipode.rows:
        yield from row


@pytest.mark.parametrize("omega", ["z", "z^2"])
def test_every_scalar_of_taft5_obeys_the_rule(omega):
    H = taft(C5, 5, omega)
    assert H.antipode is not None and H.antipode_source == "computed"
    scalars = list(_hopf_scalars(H))
    assert len(scalars) > 625
    bad = [v for v in scalars if not _canonical(v)]
    assert not bad, bad[:5]


# sha256 of the report files, taken while every cyclotomic coordinate was
# a Fraction; the value rule must not change a byte of them
CYC5 = {"kind": "cyclotomic", "n": 5}
SPLIT_C5 = {"field": CYC5, "object": {"builder": "tensor", "left": "sweedler", "right": "Z2"},
            "r": [[0, 0, "1/2"], [0, 2, "1/2"], [2, 0, "1/2"], [2, 2, "-1/2"],
                  [4, 4, "-2/2"], [4, 6, "-2/2"], [6, 6, "-2/2"], [6, 4, "2/2"]],
            "pi": "tensor_first"}
REPORT_DIGESTS = {
    "verify z": "07ec62d110e3c81681ad5c5ee3ba9ae425139c2fb321cea91342a421c187dae7",
    "verify z^2": "82c04d821f16824925a55eef3b16b8db7894682cdaa996a40c6cfaa63b852e04",
    "split": "084594f7dd11c87dbea13736c4ccc8a8b966da91fe7c04f79379919ab1e2f929",
    "check-cert": "70cc77232774166d5eb70b5aa041028029bbbf99875e0dcc74b851176d27703a",
}


def _report(tmp_path, verb, doc):
    inp, out = tmp_path / f"{verb}.in.json", tmp_path / f"{verb}.out.json"
    inp.write_text(json.dumps(doc), encoding="utf-8")
    assert main([verb, "--in", str(inp), "--out", str(out)]) == 0
    return out.read_bytes()


def _digest(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("omega", ["z", "z^2"])
def test_taft5_verify_report_golden(tmp_path, omega):
    doc = {"field": CYC5, "object": {"builder": "taft", "p": 5, "omega": omega}}
    assert _digest(_report(tmp_path, "verify", doc)) == REPORT_DIGESTS[f"verify {omega}"]


def test_split_c5_round_trip_golden(tmp_path):
    split = _report(tmp_path, "split", SPLIT_C5)
    assert _digest(split) == REPORT_DIGESTS["split"]
    cert = json.loads(split)["tasks"][0]["certificate"]
    assert _digest(_report(tmp_path, "check-cert", cert)) == REPORT_DIGESTS["check-cert"]
