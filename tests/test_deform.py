"""The slice kernel of the deformation layer against the nested-loop formula.

`reference_deformed_table` (conftest) evaluates sigma(a1, b1) a2 b2
sigma^{-1}(a3, b3), and the one-sided sigma(a_(-1), b_(-1)) a_(0) b_(0), one
basis pair at a time.  The kernel factors each form into slices and contracts
every basis element's legs once; its tables must equal the reference entry
for entry, also for forms that are not of sigma's shape.
"""

import random

import pytest

from conftest import random_scalar, reference_deformed_table
from uqcomod.cli import _zoo_tuples
from uqcomod.comodzoo import build_family, deform_family
from uqcomod.hopfcore import (
    ConvForm,
    _Products,
    _slice_table,
    _two_sided_legs,
    deform_comodule_algebra,
    deform_hopf,
    factor_form,
    regular_comodule_algebra,
)
from uqcomod.uqsl2 import (
    build_gr_uq,
    build_sigma,
    build_sigma_inverse,
    build_uq,
    monomial_index,
)


@pytest.mark.parametrize("N", [3, 5])
def test_deform_hopf_matches_the_nested_loop(N):
    H, sigma, inv = build_gr_uq(N), build_sigma(N), build_sigma_inverse(N)
    want = reference_deformed_table(H, sigma, inv)
    assert dict(deform_hopf(H, sigma, inv).algebra.mul) == want
    assert dict(build_uq(N).algebra.mul) == want


@pytest.mark.parametrize("N", [3, 5])
def test_deformed_family_members_match_the_nested_loop(N):
    for p in _zoo_tuples(N, small=N == 3):
        want = reference_deformed_table(build_family(p), build_sigma(N))
        assert dict(deform_family(p).algebra.mul) == want, p.label()


def _perturbed_forms(N):
    """sigma and sigma^{-1} of gr(u_q) with a few coordinates changed: some
    rows stop being multiples of their slice, one row gains an entry off
    its slice's support, and two new rows overlap the supports of the
    others, so beta supports overlap and no slice is one row per n."""
    H = build_gr_uq(N)
    fld = H.field
    rng = random.Random(7)
    out = []
    for form in (build_sigma(N), build_sigma_inverse(N)):
        coords = dict(form.coords)
        keys = sorted(coords)
        for key in rng.sample(keys, 4):
            coords[key] = coords[key] + random_scalar(fld, rng) + fld.one
        x, xg = monomial_index(N, 1, 0, 0), monomial_index(N, 1, 0, 1)
        y2 = monomial_index(N, 0, 2, 0)
        coords[(xg, y2)] = fld.q_power(1)
        yg = monomial_index(N, 0, 1, 1)
        coords[(yg, y2)] = fld.from_rational(3)
        coords[(yg, monomial_index(N, 0, 1, 0))] = fld.q_power(2)
        coords[(x, yg)] = fld.from_rational(-2)
        out.append(ConvForm(H, 2, coords))
    return out


def test_factorisation_reproduces_any_form():
    for form in _perturbed_forms(3) + [build_sigma(3), build_sigma(5)]:
        alpha, beta, count = factor_form(form)
        got = {}
        for h1, fa in alpha.items():
            for h2, fb in beta.items():
                c = None
                for n, a in fa:
                    for m, b in fb:
                        if n == m:
                            c = a * b if c is None else c + a * b
                if c is not None and not c.is_zero():
                    got[(h1, h2)] = c
        assert got == dict(form.coords)
        assert count <= len({h1 for h1, _ in form.coords})
    # sigma's rows fall into N slices, one per power of x
    assert factor_form(build_sigma(5))[2] == 5


def test_kernel_matches_the_nested_loop_on_forms_of_another_shape():
    H = build_gr_uq(3)
    sigma, inv = _perturbed_forms(3)
    assert factor_form(sigma)[2] > 3
    want = reference_deformed_table(H, sigma, inv)
    # deform_hopf would also solve for an antipode, which these forms need
    # not allow, so the two-sided kernel is run on its own
    times = _Products(H.field)
    left, right = _two_sided_legs(H, sigma, inv, times)
    assert _slice_table(H.algebra.mul, left, right, times) == want
    R = regular_comodule_algebra(H)
    assert dict(deform_comodule_algebra(R, sigma, H).algebra.mul) \
        == reference_deformed_table(R, sigma)


def test_deformation_rejects_a_form_that_is_not_bilinear():
    H = build_gr_uq(3)
    R = regular_comodule_algebra(H)
    with pytest.raises(ValueError, match="bilinear"):
        deform_comodule_algebra(R, ConvForm.unit(H, 1), H)
    with pytest.raises(ValueError, match="bilinear"):
        deform_hopf(H, build_sigma(3), ConvForm.unit(H, 3))
    with pytest.raises(TypeError):
        deform_hopf(H, build_sigma(3), "not a form")
