"""The cyclotomic coefficient field: construction, arithmetic, q-combinatorics."""

import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqcomod.cyclofield import (
    CyclotomicField,
    CyclotomicNumber,
    cyclotomic_polynomial,
    field,
    q_binomial,
    q_factorial,
    q_int,
)

from conftest import random_scalar


# hand-checked cyclotomic polynomials, ascending coefficients
PHI_ORACLE = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomial_small_orders():
    for n, coeffs in PHI_ORACLE.items():
        assert cyclotomic_polynomial(n) == coeffs


def test_cyclotomic_polynomial_rejects_bad_order():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_field_is_cached_and_sized():
    f = field(7)
    assert f is field(7)
    assert f.degree == 6
    assert field(9).degree == 6
    assert field(1).degree == 1


def test_basic_identities_at_order_three():
    f = field(3)
    q = f.q
    # q^3 = 1 and 1 + q + q^2 = 0
    assert q ** 3 == f.one
    assert (f.one + q + q * q).is_zero()
    # (q + 1)(q^2 + 1) = q^3 + q^2 + q + 1 = 1
    assert (q + f.one) * (q * q + f.one) == f.one


def test_rational_subfield_matches_fractions():
    f = field(1)
    a = f.from_rational(Fraction(3, 4))
    b = f.from_rational(Fraction(-2, 5))
    assert a * b == Fraction(-3, 10)
    assert a + b == Fraction(7, 20)


def test_division_and_inverse():
    f = field(5)
    rng = random.Random(5)
    for _ in range(25):
        a = random_scalar(f, rng)
        if a.is_zero():
            continue
        assert a * a.inverse() == f.one
        assert (a / a) == f.one
    with pytest.raises(ZeroDivisionError):
        f.zero.inverse()


def test_inverse_rejects_a_factor_shared_with_the_modulus():
    f = CyclotomicField(3)  # a private copy, not the cached field(3)
    f.modulus = (-1, 0, 1)  # t^2 - 1 = (t - 1)(t + 1) is reducible
    with pytest.raises(ZeroDivisionError):
        (f.q - f.one).inverse()


def test_q_power_normalisation():
    f = field(5)
    assert f.q_power(7) == f.q_power(2)
    assert f.q_power(-1) == f.q_power(4)
    assert f.q_power(0) == f.one
    for a in range(-6, 7):
        for b in range(-6, 7):
            assert f.q_power(a) * f.q_power(b) == f.q_power(a + b)


def test_parse_and_str_round_trip_examples():
    f = field(5)
    for text in ("0", "1", "-1", "1/2", "q", "-q^3", "1/2 - 3*q + q^2",
                 "2 + q^4", "-2/7 + q - q^2"):
        v = f.parse(text)
        assert f.parse(str(v)) == v
    assert str(f.parse("q^7")) == str(f.q_power(2))
    assert f.parse("q^-1") == f.q_power(-1)
    assert f.parse("2*q^-1") == 2 * f.q_power(-1)
    assert f.parse("1 - q^-2") == f.one - f.q_power(-2)


@pytest.mark.parametrize("text", ["1/0", "q + 3/0*q^2"])
def test_parse_rejects_a_zero_denominator(text):
    with pytest.raises(ValueError, match="zero denominator"):
        field(5).parse(text)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                min_size=4, max_size=4))
def test_str_parse_round_trip_property(coeffs):
    f = field(5)
    v = f.element(coeffs)
    assert f.parse(str(v)) == v


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-40, max_value=40),
       st.integers(min_value=-40, max_value=40))
def test_q_power_law_property(a, b):
    f = field(7)
    assert f.q_power(a) * f.q_power(b) == f.q_power(a + b)


def test_hash_agrees_with_equality():
    assert {field(5).one: 1}.get(1) == 1
    half = Fraction(1, 2)
    assert hash(field(7).from_rational(half)) == hash(half)
    assert {half: "h"}[field(7).from_rational(half)] == "h"
    f = field(5)
    assert hash(f.parse("1/2 + q")) == hash(f.q + half)


def test_field_mismatch_is_rejected():
    with pytest.raises(ValueError):
        field(3).one + field(5).one


def test_q_int_and_factorial_values():
    f = field(3)
    q2 = f.q_power(2)
    # (m)_lambda = 1 + lambda + ... + lambda^(m-1)
    assert q_int(0, q2).is_zero()
    assert q_int(1, q2) == f.one
    assert q_int(2, q2) == f.one + q2
    # (3)_{q^2} = 1 + q^2 + q^4 = 0 at N = 3
    assert q_int(3, q2).is_zero()
    assert q_factorial(3, q2).is_zero()
    assert q_factorial(2, q2) == f.one + q2


def test_gaussian_binomial_vanishing_at_top_row():
    for N in (3, 5, 7):
        f = field(N)
        q2 = f.q_power(2)
        for k in range(1, N):
            assert q_binomial(N, k, q2).is_zero(), (N, k)
        assert q_binomial(N, 0, q2) == f.one
        assert q_binomial(N, N, q2) == f.one


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=8))
def test_gaussian_binomial_pascal_property(m, r):
    # binom(m, r) = binom(m-1, r-1) + lambda^r binom(m-1, r), with
    # out-of-range entries read as zero
    f = field(5)
    lam = f.q_power(2)

    def b(mm, rr):
        if rr < 0 or rr > mm:
            return f.zero
        return q_binomial(mm, rr, lam)

    assert b(m, r) == b(m - 1, r - 1) + (lam ** r) * b(m - 1, r)


def test_gaussian_binomial_rejects_out_of_range():
    lam = field(3).q_power(2)
    with pytest.raises(ValueError):
        q_binomial(2, 3, lam)
    with pytest.raises(ValueError):
        q_binomial(-1, 0, lam)


def test_gaussian_binomial_specialises_to_binomial():
    from math import comb
    f = field(1)
    one = f.one
    for m in range(7):
        for r in range(m + 1):
            assert q_binomial(m, r, one) == comb(m, r)


# -- reference arithmetic: integer polynomials modulo PHI_ORACLE ------------

REF_ORDERS = (1, 2, 3, 4, 5, 6, 7, 9, 12)


def ref_reduce(nums, phi):
    """Remainder of an integer polynomial modulo the monic phi, padded to
    deg(phi) coefficients."""
    d = len(phi) - 1
    out = list(nums) + [0] * max(d - len(nums), 0)
    for m in range(len(out) - 1, d - 1, -1):
        c = out[m]
        if c:
            for i, p in enumerate(phi):
                out[m - d + i] -= c * p
    return out[:d]


def ref_mul(a, b):
    (na, da), (nb, db) = a, b
    out = [0] * max(len(na) + len(nb) - 1, 0)
    for i, x in enumerate(na):
        for j, y in enumerate(nb):
            out[i + j] += x * y
    return out, da * db


def ref_add(a, b, sign=1):
    (na, da), (nb, db) = a, b
    n = max(len(na), len(nb))
    na = list(na) + [0] * (n - len(na))
    nb = list(nb) + [0] * (n - len(nb))
    return [x * db + sign * y * da for x, y in zip(na, nb)], da * db


def ref_coeffs(a, phi):
    nums, den = a
    return tuple(Fraction(c, den) for c in ref_reduce(nums, phi))


@st.composite
def operands(draw, fld):
    """A field element built through the public constructors, paired with
    (integer numerators, denominator) for the reference."""
    kind = draw(st.sampled_from(("zero", "rational", "monomial", "dense")))
    den = draw(st.integers(min_value=1, max_value=30))
    small = st.integers(min_value=-99, max_value=99)
    if kind == "zero":
        return fld.zero, ([], 1)
    if kind == "rational":
        c = draw(small)
        return fld.from_rational(Fraction(c, den)), ([c], den)
    if kind == "monomial":
        c = draw(small.filter(bool))
        k = draw(st.integers(min_value=0, max_value=fld.order - 1))
        return fld.q_power(k) * Fraction(c, den), ([0] * k + [c], den)
    nums = draw(st.lists(small, min_size=fld.degree, max_size=fld.degree))
    return fld.element([Fraction(c, den) for c in nums]), (nums, den)


def assert_normal_form(v, fld):
    assert len(v.num) == fld.degree
    assert all(type(c) is int for c in v.num) and type(v.den) is int
    assert v.den > 0 and gcd(v.den, *v.num) == 1
    assert fld.parse(str(v)) == v


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_arithmetic_matches_integer_reference(data):
    order = data.draw(st.sampled_from(REF_ORDERS))
    fld, phi = field(order), PHI_ORACLE[order]
    a, ra = data.draw(operands(fld))
    b, rb = data.draw(operands(fld))
    assert a.coeffs == ref_coeffs(ra, phi)
    results = (
        (a * b, ref_mul(ra, rb)),
        (a + b, ref_add(ra, rb)),
        (a - b, ref_add(ra, rb, -1)),
        (-a, ([-c for c in ra[0]], ra[1])),
    )
    for got, want in results:
        assert_normal_form(got, fld)
        assert got.coeffs == ref_coeffs(want, phi)
        assert got == fld.element(got.coeffs)
    if not a.is_zero():
        inv = a.inverse()
        assert_normal_form(inv, fld)
        one = (1,) + (0,) * (fld.degree - 1)
        assert ref_coeffs(ref_mul(ra, (inv.num, inv.den)), phi) == one


@pytest.mark.parametrize("order", range(1, 13))
def test_rational_inverse_matches_euclid_and_fraction(order):
    # a rational element skips extended Euclid; (1 + q) times it is not a
    # monomial at degree > 1, so ((1 + q) a)^-1 (1 + q) runs Euclid for the
    # same inverse
    fld = field(order)
    for value in (Fraction(1), Fraction(-1), Fraction(3), Fraction(-3),
                  Fraction(2, 3), Fraction(-2, 3), Fraction(6, 35),
                  Fraction(-14, 9), Fraction(35, 6)):
        a = fld.from_rational(value)
        inv = a.inverse()
        assert_normal_form(inv, fld)
        assert inv.coeffs == (1 / value,) + (0,) * (fld.degree - 1)
        if fld.degree > 1:
            b = fld.one + fld.q
            assert (b * a).inverse() * b == inv


# 105 is the least order whose reduction rows carry a coefficient of
# magnitude 2, so the least that tests the kernel's scaled terms
KERNEL_ORDERS = (*range(1, 41), 105)


@pytest.mark.parametrize("order", KERNEL_ORDERS)
def test_monomial_inverse_matches_integer_reference(order):
    # (c/den) q^k is inverted as (den/c) q^-k, without extended Euclid
    fld, phi = field(order), cyclotomic_polynomial(order)
    one = (1,) + (0,) * (fld.degree - 1)
    for k in range(fld.degree):
        for c in (1, -1, 3, -3, 7):
            for den in (1, 2, 5):
                a = fld.element([0] * k + [Fraction(c, den)])
                inv = a.inverse()
                assert_normal_form(inv, fld)
                got = ref_mul(([0] * k + [c], den), (inv.num, inv.den))
                assert ref_coeffs(got, phi) == one, (k, c, den)


# -- the compiled product ----------------------------------------------------


@pytest.mark.parametrize("order", KERNEL_ORDERS)
def test_compiled_product_matches_integer_reference(order):
    fld, phi = field(order), cyclotomic_polynomial(order)
    rng = random.Random(order)

    def draw():
        # dense or sparse numerators, integral or over a denominator
        den = rng.choice((1, rng.randint(2, 30)))
        density = rng.choice((1.0, 0.2))
        nums = [rng.randint(-99, 99) if rng.random() < density else 0
                for _ in range(fld.degree)]
        return fld.element([Fraction(c, den) for c in nums]), (nums, den)

    for _ in range(12):
        (a, ra), (b, rb) = draw(), draw()
        got = a * b
        assert_normal_form(got, fld)
        assert got.coeffs == ref_coeffs(ref_mul(ra, rb), phi)


@pytest.mark.parametrize("order", KERNEL_ORDERS)
def test_a_unit_factor_returns_the_other_operand(order):
    # any one, whichever object holds it, returns the other operand itself;
    # a rational with numerators of one over a denominator is not a one
    fld, phi = field(order), cyclotomic_polynomial(order)
    rng = random.Random(order)
    ones = (fld.one, fld.from_rational(1), fld.element([1]), 1, Fraction(1))
    half = fld.from_rational(Fraction(1, 2))
    for _ in range(6):
        den = rng.choice((1, rng.randint(2, 30)))
        nums = [rng.randint(-99, 99) for _ in range(fld.degree)]
        x, rx = fld.element([Fraction(c, den) for c in nums]), (nums, den)
        want = ref_coeffs(ref_mul(rx, ([1], 1)), phi)
        for u in ones:
            assert x * u is x and u * x is x
            assert (x * u).coeffs == (u * x).coeffs == want
        for got in (x * half, half * x):
            assert_normal_form(got, fld)
            assert got.coeffs == ref_coeffs(ref_mul(rx, ([1], 2)), phi)


def test_subtraction_is_addition_of_the_negative():
    # dense, monomial and rational operands over different denominators,
    # and int and Fraction on either side
    fld = field(5)
    rng = random.Random(37)
    dense = fld.element([Fraction(rng.randint(-9, 9), 6)
                         for _ in range(fld.degree)])
    integral = fld.element([rng.randint(-9, 9) for _ in range(fld.degree)])
    monomial = fld.q_power(3) * Fraction(-2, 9)
    rational = fld.from_rational(Fraction(5, 4))
    scalars = (dense, integral, monomial, rational)
    for a in scalars:
        for b in scalars + (3, Fraction(-7, 10)):
            got = a - b
            assert_normal_form(got, fld)
            assert got == a + (-b)
            bc = b.coeffs if isinstance(b, CyclotomicNumber) \
                else fld.from_rational(b).coeffs
            assert got.coeffs == tuple(x - y for x, y in zip(a.coeffs, bc))
        for r in (3, Fraction(-7, 10)):
            got = r - a
            assert_normal_form(got, fld)
            assert got == r + (-a) == -(a - r)


def test_field_pickles_as_the_cached_field():
    q = pickle.loads(pickle.dumps(field(5).q))
    assert q.field is field(5) and q == field(5).q
    assert pickle.loads(pickle.dumps(CyclotomicField(7))) is field(7)


def test_uncached_field_multiplies_like_the_cached_one():
    own, cached = CyclotomicField(7), field(7)
    assert own is not cached
    rng = random.Random(7)
    for _ in range(40):
        a, b = random_scalar(cached, rng, 9), random_scalar(cached, rng, 9)
        got = own.element(a.coeffs) * own.element(b.coeffs) / 3
        want = a * b / 3
        assert got.field is own and (got.num, got.den) == (want.num, want.den)
