"""Polynomial identities feeding the minimal-polynomial machinery."""

import random
from fractions import Fraction

import pytest

from uqcomod.cyclofield import field
from uqcomod.exactlinalg import Poly
from uqcomod.polyid import (
    MultiPoly,
    min_poly_coefficient,
    phi_polynomial,
    power_sum_P,
    product_identity_sides,
    verify_chebyshev_identity,
    verify_min_pol_formula_consistency,
)


def rational_multipoly_oracle(fld, names, table):
    terms = {e: fld.from_rational(c) for e, c in table.items()}
    return MultiPoly(fld, names, terms)


def test_power_sums_frozen_oracles():
    fld = field(1)
    names = ("s", "t")
    # P_3 = s^3 - 3st, P_4 = s^4 - 4 s^2 t + 2 t^2, P_5 = s^5 - 5 s^3 t + 5 s t^2
    assert power_sum_P(3, fld) == rational_multipoly_oracle(
        fld, names, {(3, 0): 1, (1, 1): -3})
    assert power_sum_P(4, fld) == rational_multipoly_oracle(
        fld, names, {(4, 0): 1, (2, 1): -4, (0, 2): 2})
    assert power_sum_P(5, fld) == rational_multipoly_oracle(
        fld, names, {(5, 0): 1, (3, 1): -5, (1, 2): 5})


def test_power_sum_specializes_to_actual_power_sums():
    fld = field(5)
    u = fld.q_power(1)
    v = fld.q_power(2) + fld.one
    for n in range(1, 16):
        P = power_sum_P(n, fld)
        got = P.eval_scalars(u + v, u * v)
        assert got == u ** n + v ** n, n


def test_min_poly_coefficients_are_integers():
    for n in range(1, 13):
        for k in range(n // 2 + 1):
            c = min_poly_coefficient(n, k)
            assert isinstance(c, Fraction)
            assert c.denominator == 1, (n, k)
    assert min_poly_coefficient(3, 1) == 3
    assert min_poly_coefficient(5, 1) == 5
    assert min_poly_coefficient(5, 2) == 5
    with pytest.raises(ValueError):
        min_poly_coefficient(4, 3)


def test_phi_polynomial_frozen_oracles():
    # N = 3: phi = T^3 + 3c T - xi with c = alpha beta / (q^2 - 1)
    fld = field(3)
    alpha, beta, xi = fld.one, fld.q_power(1), fld.from_rational(2)
    c = alpha * beta / (fld.q_power(2) - fld.one)
    phi = phi_polynomial(alpha, beta, xi, 3)
    assert phi == Poly(fld, [-xi, c * 3, fld.zero, fld.one])

    # N = 5: phi = T^5 + 5c T^3 + 5c^2 T - xi
    fld5 = field(5)
    a5, b5 = fld5.from_rational(2), fld5.q_power(3)
    xi5 = fld5.one
    c5 = a5 * b5 / (fld5.q_power(2) - fld5.one)
    phi5 = phi_polynomial(a5, b5, xi5, 5)
    assert phi5 == Poly(
        fld5, [-xi5, c5 * c5 * 5, fld5.zero, c5 * 5, fld5.zero, fld5.one])


def test_phi_accepts_plain_rationals():
    phi = phi_polynomial(0, 0, 1, 3)
    fld = phi.field
    assert phi == Poly.from_rationals(fld, [-1, 0, 0, 1])


def test_product_identity_small_orders():
    for n in range(2, 8):
        assert verify_chebyshev_identity(n), n


def test_consistency_for_odd_orders():
    assert verify_min_pol_formula_consistency(3)
    assert verify_min_pol_formula_consistency(5)


def test_product_identity_rejects_non_primitive_root():
    with pytest.raises(ArithmeticError, match="primitive"):
        product_identity_sides(4, field(4), 2)  # q^2 has order 2, not 4


def test_compose_into_other_variables():
    fld = field(1)
    P3 = power_sum_P(3, fld)
    names = ("u", "v")
    u = MultiPoly.variable(fld, names, "u")
    v = MultiPoly.variable(fld, names, "v")
    got = P3.compose([u + v, u * v])
    assert got == u ** 3 + v ** 3


def test_compose_with_scalars():
    fld = field(1)
    P2 = power_sum_P(2, fld)
    two = fld.from_rational(2)
    got = P2.compose([two, fld.one])
    assert got == MultiPoly.constant(fld, ("s", "t"), 2)


def test_compose_agrees_with_evaluation_at_scalar_points():
    # P(f(u, v), g(u, v)) at (a, b) is P evaluated at (f(a, b), g(a, b));
    # P has gaps in its exponents and reuses powers across terms
    fld = field(5)
    q = fld.q
    rng = random.Random(5)
    names = ("u", "v")
    u = MultiPoly.variable(fld, names, "u")
    v = MultiPoly.variable(fld, names, "v")
    P = MultiPoly(fld, ("s", "t"), {
        (0, 0): fld.from_rational(-2), (1, 0): q, (4, 0): fld.one,
        (2, 3): q * 3 - 1, (0, 5): fld.from_rational(Fraction(1, 7)),
        (3, 1): q.inverse()})
    for vals in ([u + v * q, u * v - 2], [u * u, fld.one], [v, u + v + q]):
        composed = P.compose(vals)
        assert composed.names == names
        for _ in range(4):
            a = fld.element([rng.randint(-5, 5) for _ in range(fld.degree)])
            b = fld.from_rational(Fraction(rng.randint(-9, 9), 4))
            at = [w.eval_scalars(a, b) if isinstance(w, MultiPoly) else w
                  for w in vals]
            assert composed.eval_scalars(a, b) == P.eval_scalars(*at)
    assert P.compose([u, v]) == MultiPoly(fld, names, P.terms)
