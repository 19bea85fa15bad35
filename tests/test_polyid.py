"""Polynomial identities feeding the minimal-polynomial machinery."""

import random
from fractions import Fraction

import pytest

from uqcomod.cyclofield import field
from uqcomod.exactlinalg import Poly
from uqcomod.polyid import (
    min_poly_coefficient,
    phi_polynomial,
    power_sum_P,
    product_identity_sides,
    verify_chebyshev_identity,
    verify_min_pol_formula_consistency,
)


def rational_multipoly_oracle(fld, names, table):
    terms = {e: fld.from_rational(c) for e, c in table.items()}
    return Poly(fld, terms, names)


def test_power_sums_frozen_oracles():
    fld = field(1)
    names = ("s", "t")
    s = Poly.variable(fld, names, "s")
    t = Poly.variable(fld, names, "t")
    # P_3 = s^3 - 3st, P_4 = s^4 - 4 s^2 t + 2 t^2, P_5 = s^5 - 5 s^3 t + 5 s t^2
    assert power_sum_P(3, s, t) == rational_multipoly_oracle(
        fld, names, {(3, 0): 1, (1, 1): -3})
    assert power_sum_P(4, s, t) == rational_multipoly_oracle(
        fld, names, {(4, 0): 1, (2, 1): -4, (0, 2): 2})
    assert power_sum_P(5, s, t) == rational_multipoly_oracle(
        fld, names, {(5, 0): 1, (3, 1): -5, (1, 2): 5})


def test_power_sum_specializes_to_actual_power_sums():
    fld = field(5)
    u = fld.q_power(1)
    v = fld.q_power(2) + fld.one
    for n in range(1, 16):
        assert power_sum_P(n, u + v, u * v) == u ** n + v ** n, n


def test_power_sum_polynomial_agrees_with_the_recursion_on_scalars():
    # P_n on variables, evaluated term by term at (a, b), against the
    # recursion run on the field scalars a and b themselves
    fld = field(5)
    names = ("s", "t")
    s = Poly.variable(fld, names, "s")
    t = Poly.variable(fld, names, "t")
    rng = random.Random(11)
    points = [(fld.element([rng.randint(-5, 5) for _ in range(fld.degree)]),
               fld.from_rational(Fraction(rng.randint(-9, 9), 4)))
              for _ in range(3)]
    for n in range(1, 12):
        P = power_sum_P(n, s, t)
        for a, b in points:
            at = fld.zero
            for (i, j), c in P.terms.items():
                for _ in range(i):
                    c = c * a
                for _ in range(j):
                    c = c * b
                at = at + c
            assert at == power_sum_P(n, a, b), (n, str(a), str(b))


def test_cancelled_terms_leave_no_zero_coefficient():
    # sums and products drop the terms that cancel as they sum, so no
    # zero coefficient survives in terms
    fld = field(5)
    names = ("u", "v")
    u = Poly.variable(fld, names, "u")
    v = Poly.variable(fld, names, "v")
    p = u * fld.q + v * 3 - 2
    diff = (u + v) * (u - v)
    for got, want in ((p + (-p), {}), (p - p, {}),
                      (diff, {(2, 0): fld.one, (0, 2): -fld.one}),
                      (diff - u * u + v * v, {}),
                      ((u + v) * (u - v) * (u * u + v * v),
                       {(4, 0): fld.one, (0, 4): -fld.one})):
        assert got.terms == want
        assert not any(c.is_zero() for c in got.terms.values())
    assert (p + (-p)).is_zero() and p + (-p) == 0


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
    assert phi == Poly.from_coeffs(fld, [-xi, c * 3, fld.zero, fld.one])

    # N = 5: phi = T^5 + 5c T^3 + 5c^2 T - xi
    fld5 = field(5)
    a5, b5 = fld5.from_rational(2), fld5.q_power(3)
    xi5 = fld5.one
    c5 = a5 * b5 / (fld5.q_power(2) - fld5.one)
    phi5 = phi_polynomial(a5, b5, xi5, 5)
    assert phi5 == Poly.from_coeffs(
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
