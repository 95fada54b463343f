"""The braided product against the oracle's schoolbook product.

(u (x) v)(w (x) z) = sum_R u ad_{R_i}(w) (x) ad'_{R^i}(v) z is the
product that the multiplicativity of the braided coproduct is checked
for.  The oracle forms it from the raw structure constants, with its own
adjoint action h_(1) v S(h_(2)) and no braiding table; the library's
product must agree with it entry by entry on every pair of braided
coproducts, and multiplicativity_failure must report the oracle's first
failing pair when one entry of one image is changed."""

from fractions import Fraction

import pytest

import oracle
from hopfkit import check_braided_projection, transmute
from hopfkit.algebra import multiplicativity_failure, pairwise_row
from hopfkit.hopf import comul_dict, tt_apply
import hopfkit.qt as qt


def _nonzero(vec):
    return {k: v for k, v in vec.items() if v != 0}


def _dense(vec, dh, dk):
    out = [0] * (dh * dk)
    for (a, b), v in vec.items():
        out[a * dk + b] = v
    return out


def _sparse(vec, d):
    return {divmod(x, d): v for x, v in enumerate(vec) if v != 0}


def _case_double_h4(double_h4):
    """The braided coproducts of D(H4) over Q, multiplied in D(H4) (x) D(H4)."""
    H = double_h4.hopf
    bh = transmute(double_h4)
    raw = oracle.export_hopf(H)
    ad = oracle.adjoint_action(raw, oracle.export_antipode(H))
    # the library holds the same adjoint action
    assert [[dict(col) for col in row] for row in bh.action] == ad
    images = [comul_dict(bh.basis_braided_comul, t) for t in range(H.dim)]
    product = qt.braided_product(H.algebra, H.algebra, double_h4.R, bh.action, bh.action)
    expected = lambda x, y: oracle.braided_product(raw, raw, double_h4.R.coeffs, ad, ad, x, y)
    return H, H.dim, images, product, expected


def _case_split(split_input, monkeypatch):
    """The braided coproducts of H4 (x) kZ2 pushed onto H4, multiplied in
    (H4 (x) kZ2) (x) H4 by the product that check_braided_projection uses."""
    Q, pi = split_input
    H, K = Q.hopf, pi.target
    made = []
    real = qt.braided_product

    def recorded(left, right, *args):
        made.append((left, right, real(left, right, *args)))
        return made[-1][2]

    monkeypatch.setattr(qt, "braided_product", recorded)
    assert check_braided_projection(Q, pi).ok
    ((_, _, product),) = [m for m in made if m[0] is H.algebra and m[1] is K.algebra]

    raw_h, raw_k = oracle.export_hopf(H), oracle.export_hopf(K)
    ad_h = oracle.adjoint_action(raw_h, oracle.export_antipode(H))
    P = [[Fraction(v) for v in row] for row in pi.matrix.rows]
    ad_k = oracle.action_through(raw_h["p"], P, oracle.adjoint_action(raw_k, oracle.export_antipode(K)))
    bh = transmute(Q)
    images = [tt_apply(H.field, comul_dict(bh.basis_braided_comul, t), None, pi.matrix)
              for t in range(H.dim)]
    expected = lambda x, y: oracle.braided_product(raw_h, raw_k, Q.R.coeffs, ad_h, ad_k, x, y)
    return H, K.dim, images, product, expected


@pytest.fixture(params=["double_h4", "split"])
def case(request, monkeypatch):
    if request.param == "double_h4":
        return _case_double_h4(request.getfixturevalue("double_h4"))
    return _case_split(request.getfixturevalue("split_input"), monkeypatch)


def test_braided_product_matches_the_oracle_on_every_pair(case):
    _, _, images, product, expected = case
    for x in images:
        for y in images:
            assert _nonzero(product(x, y)) == expected(x, y)


def test_multiplicativity_witnesses_of_changed_images_match_the_oracle(case):
    H, dk, images, product, expected = case
    f = H.field
    raw = oracle.export_hopf(H)
    dense_product = lambda u, v: _dense(expected(_sparse(u, dk), _sparse(v, dk)), H.dim, dk)
    assert multiplicativity_failure(
        f, H.mul.pair_index(), images, pairwise_row(images, product)) is None
    seen = set()
    for k in (0, 1, H.dim // 2, H.dim - 1):
        keys = sorted(images[k])
        # raise the first and the last entry, and set one entry outside the support
        absent = next((a, b) for a in range(H.dim) for b in range(dk) if (a, b) not in images[k])
        for key in (keys[0], keys[-1], absent):
            changed = list(images)
            changed[k] = dict(images[k])
            changed[k][key] = f.add(changed[k].get(key, f.zero), f.one)
            bad = oracle.first_unmultiplicative_pair(
                raw, [_dense(x, H.dim, dk) for x in changed], dense_product)
            assert bad is not None
            assert multiplicativity_failure(
                f, H.mul.pair_index(), changed, pairwise_row(changed, product)) == bad
            seen.add(bad)
    # the changed images reach more than one failing pair
    assert len(seen) > 1
