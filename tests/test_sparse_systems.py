"""The d^2-sized linear systems, the antipode solve, the
regular-representation inverse in H (x) H and the center, coinvariant
and skew-primitive systems, are built as sparse rows: no dense system
is ever made, and the inverse found without a closed-form candidate is
the one the candidates give."""

import json
from pathlib import Path

import pytest

from hopfkit import HopfMorphism, TensorSquareElement, taft
from hopfkit.algebra import center
from hopfkit.fields import CyclotomicField, Rationals
from hopfkit.hopf import coinvariant_space, skew_primitive_space, solve_antipode, tt_mul, tt_unit
from hopfkit.linalg import Matrix
from hopfkit.qt import antipode_leg_candidates
from hopfkit.report import hopf_from_json

DSWEEDLER_RAW = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "dsweedler_raw.json"


@pytest.fixture
def matrix_shapes(monkeypatch):
    """The shape of every Matrix made while the test runs."""
    shapes = []
    real = Matrix.__init__

    def recording(self, field, rows):
        real(self, field, rows)
        shapes.append((self.nrows, self.ncols))

    monkeypatch.setattr(Matrix, "__init__", recording)
    return shapes


def test_taft5_antipode_solve_builds_no_dense_system(matrix_shapes):
    H = taft(CyclotomicField(5), 5, "z")
    assert H.antipode_source is None
    del matrix_shapes[:]
    S = solve_antipode(H)
    assert S is not None and S.shape == (25, 25)
    assert matrix_shapes
    assert max(r for r, _ in matrix_shapes) <= 25
    assert max(c for _, c in matrix_shapes) <= 25


def test_raw_double_r_inverse_builds_no_dense_system(matrix_shapes):
    doc = json.loads(DSWEEDLER_RAW.read_text(encoding="utf-8"))
    H = hopf_from_json(Rationals(), doc["object"]["structure"])
    R = TensorSquareElement.from_triples(H, doc["r"])
    assert H.dim == 16 and H.antipode_source is None
    del matrix_shapes[:]
    inv = R.inverse()
    assert inv is not None
    assert all(r <= H.dim and c <= H.dim for r, c in matrix_shapes)
    one = tt_unit(H)
    assert tt_mul(H, R.coeffs, inv.coeffs) == one
    assert tt_mul(H, inv.coeffs, R.coeffs) == one


def _fallback_equals_candidate(H, R):
    cand = next(antipode_leg_candidates(H, R))
    assert R.inverse(candidates=[cand]) is cand
    solved = R.inverse()
    assert solved is not None and solved is not cand
    assert solved == cand
    assert solved.coeffs == cand.coeffs


def test_fallback_inverse_equals_candidate_on_the_double(double_h4):
    _fallback_equals_candidate(double_h4.hopf, double_h4.R)


def test_fallback_inverse_equals_candidate_on_fullrank_sweedler_r(h4, h4_r_fullrank):
    assert h4_r_fullrank.full_rank
    _fallback_equals_candidate(h4, h4_r_fullrank.R)


def test_fallback_inverse_of_a_singular_element_is_none(h4, double_h4):
    f = h4.field
    # (1 + a) (x) 1 is a zero divisor: (1 + a)(1 - a) = 0
    zero_divisor = TensorSquareElement(h4, {(0, 0): f.one, (1, 0): f.one})
    assert zero_divisor.inverse() is None
    assert TensorSquareElement(h4, {}).inverse() is None
    assert TensorSquareElement(double_h4.hopf, {}).inverse() is None


def test_center_coinvariants_and_skew_primitives_build_no_dense_system(matrix_shapes, double_h4):
    H = double_h4.hopf
    f = H.field
    d = H.dim
    assert d == 16
    pi = HopfMorphism(H, H, Matrix.identity(f, d))
    del matrix_shapes[:]
    assert center(H.algebra).dim >= 1
    for side in ("right", "left"):
        assert coinvariant_space(f, d, H.basis_comul, pi, side).dim == 1
    assert skew_primitive_space(H, H.unit, H.unit).dim == 0
    assert matrix_shapes
    assert max(r for r, _ in matrix_shapes) <= d
