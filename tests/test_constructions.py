"""Golden digests of the constructions built from structure constants.

The digests were computed with the earlier dense-loop implementations
of double_hopf, braided_dual and transmute; the sparse versions must
reproduce them bit for bit.
"""

import hashlib

import pytest

from hopfkit import braided_dual, drinfeld_double, symmetric_group_algebra, transmute
from hopfkit.qt import double_hopf
from hopfkit.report import dumps_stable, matrix_to_json, structure_hash, tensor3_to_json


def _sha(obj):
    return hashlib.sha256(dumps_stable(obj).encode("utf-8")).hexdigest()


DOUBLE_HASHES = {
    "kz2": "dcb264ce7a26b7e76ffd05570a1933bf844366fd924cf638e7666a4cbb29ec3e",
    "kz3_gf7": "8f86eeccae201e2abd542b11a3548e2c171b6a1243ee19dea0924dacd4bb9423",
    "ks3": "fbeed1e1927168e58eb3798c4ddaefde0b4108c5da6f42c49e8a76206050f7b4",
    "h4": "4746744099386bad2fb60d331bf47e7a303f4926bb800430f7b2612569f42861",
    "taft37": "1c8d9c44578053ce9a4741973d832316ada1ed5f02ff7f49eda5d4d50a9f8dbd",
    "double_kz2": "dd303cd458150dc8833261eac5031ff35058344d1ce5a1d429cc607faca41082",
    "double_kz3_gf7": "cb0476475753673e735b4f53d0f3ed0176ffee64cba55e1c6a67be29b2261848",
}


@pytest.mark.parametrize("name", sorted(DOUBLE_HASHES))
def test_double_hopf_golden(request, QQ, name):
    if name == "ks3":
        K = symmetric_group_algebra(QQ, 3)
    else:
        K = request.getfixturevalue(name)
        K = getattr(K, "hopf", K)
    assert structure_hash(double_hopf(K)) == DOUBLE_HASHES[name]


BRAIDED_HASHES = {
    "double_kz2": (
        "1b65a716f6e8a1c39a9aa41b106c8386f3e08e23313ee8278a64e0c7b6147f5f",
        "93da3272c602db21711a8a9c56a269cac333c074019f73bc383950ed295b9725",
    ),
    "double_h4": (
        "b2fbea46391eb79816b10ee8958675b6bf4fbbdd4872002f9219c672f64f16a3",
        "f0a0a1213f3aa69effe8b0e44a82e7a2e53b14de99667e52699bbde6294c432f",
    ),
    "h4_r_fullrank": (
        "13cfeb267925c43ac2e1d1f83bd75af7590a7842aa5d0566a2cde621e6524149",
        "4410a81cbd39686fba47451531274642fc82bdbc294d152360a19e6db9d0d674",
    ),
}


@pytest.mark.parametrize("name", sorted(BRAIDED_HASHES))
def test_braided_structures_golden(request, name):
    Q = request.getfixturevalue(name)
    dual_hash, transmute_hash = BRAIDED_HASHES[name]
    bd = braided_dual(Q)
    assert bd.report.ok
    assert _sha({"product": tensor3_to_json(bd.product),
                 "antipode": matrix_to_json(bd.antipode)}) == dual_hash
    bh = transmute(Q)
    assert bh.report.ok
    assert _sha({"braided_comul": tensor3_to_json(bh.braided_comul),
                 "braided_antipode": matrix_to_json(bh.braided_antipode)}) == transmute_hash


@pytest.mark.slow
def test_double_of_double_h4_dim256(double_h4):
    Q = drinfeld_double(double_h4.hopf)
    assert Q.hopf.dim == 256
    assert Q.verified and Q.factorizable


def test_theorem_twist_needs_the_inverse_of_r(split_input):
    from hopfkit import PreconditionError, QTStructure, tensor_hopf
    from hopfkit.splitting import theorem_twist

    Q, pi = split_input
    without_inverse = QTStructure(Q.hopf, Q.R, Q.report, Q.verified)
    with pytest.raises(PreconditionError, match="inverse of R"):
        theorem_twist(tensor_hopf(pi.target, pi.target), without_inverse, pi, pi)
