"""Polynomial identities behind the semisimplicity analysis.

Two ingredients:

* P_n(s, t), the power-sum polynomials with P_n(u+v, uv) = u^n + v^n,
* the degree-N minimal polynomial
      phi(T) = sum_k (N/(N-k)) C(N-k, k) (alpha beta / (q^2-1))^k T^{N-2k} - xi
  together with the factorisation
      prod_{k=0}^{n-1} (z - (u w^k + v w^{-k}))
        = sum_k (n/(n-k)) C(n-k, k) (-uv)^k z^{n-2k} - u^n - v^n
  for any primitive n-th root of unity w, which is what makes phi compute
  minimal polynomials of alpha*Et + beta*F + gamma*Kinv type elements.

Both are exactlinalg.Poly values: phi in T, the identity's sides in u, v
and z.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .cyclofield import CyclotomicField, CyclotomicNumber, field
from .exactlinalg import Poly


def _powers(p: Poly, n: int) -> list[Poly]:
    """[1, p, p^2, ..., p^n], each power one product from the last."""
    out = [Poly.constant(p.field, p.names, 1)]
    for _ in range(n):
        out.append(out[-1] * p)
    return out


def power_sum_P(n: int, s, t):
    """P_n(s, t), with P_n(u + v, uv) = u^n + v^n, by the recursion
    P_0 = 2, P_1 = s, P_n = s P_{n-1} - t P_{n-2} in the ring of s and t:
    Poly variables give the polynomial P_n, (u + v, uv) the sum
    u^n + v^n, and field scalars its value."""
    if n < 1:
        raise ValueError("power sums start at n = 1")
    prev, cur = 2, s
    for _ in range(n - 1):
        prev, cur = cur, s * cur - t * prev
    return cur


def min_poly_coefficient(n: int, k: int) -> Fraction:
    """The coefficient n/(n-k) * C(n-k, k) (an integer for 0 <= 2k <= n)."""
    if not 0 <= 2 * k <= n:
        raise ValueError(f"no coefficient at n = {n}, k = {k}")
    return Fraction(n, n - k) * comb(n - k, k)


def phi_polynomial(alpha, beta, xi, N: int) -> Poly:
    """phi(T) = sum_k (N/(N-k)) C(N-k,k) (alpha beta/(q^2-1))^k T^{N-2k} - xi.

    Monic of degree N over Q(q); its image of the distinguished generator
    cuts out the deformed family with parameters (alpha, beta, xi).
    """
    fld = alpha.field if isinstance(alpha, CyclotomicNumber) else field(N)
    alpha, beta = (x if isinstance(x, CyclotomicNumber)
                   else fld.from_rational(x) for x in (alpha, beta))
    c = alpha * beta / (fld.q_power(2) - fld.one)
    terms, ck = {}, fld.one
    for k in range(N // 2 + 1):
        terms[(N - 2 * k,)] = ck * min_poly_coefficient(N, k)
        ck = ck * c
    return Poly(fld, terms) - xi


def product_identity_sides(n: int, fld: CyclotomicField, omega_power: int):
    """Both sides of the root-of-unity product identity, as Poly values.

    omega = q^omega_power must be a primitive n-th root of unity in fld.
    Left:  prod_{k<n} (z - (u omega^k + v omega^{-k}))
    Right: sum_k (n/(n-k)) C(n-k,k) (-uv)^k z^{n-2k} - u^n - v^n
    """
    names = ("u", "v", "z")
    u = Poly.variable(fld, names, "u")
    v = Poly.variable(fld, names, "v")
    z = Poly.variable(fld, names, "z")
    # primitivity of omega
    if len({fld.q_power(omega_power * k) for k in range(n)}) != n:
        raise ArithmeticError("omega is not a primitive n-th root of unity")

    lhs = Poly.constant(fld, names, 1)
    for k in range(n):
        wk = fld.q_power(omega_power * k)
        wmk = fld.q_power(-omega_power * k)
        lhs = lhs * (z - (u * wk + v * wmk))

    z_pow = _powers(z, n)
    muv_pow = _powers(-(u * v), n // 2)
    rhs = Poly.constant(fld, names, 0)
    for k in range(n // 2 + 1):
        rhs = rhs + z_pow[n - 2 * k] * muv_pow[k] \
            * min_poly_coefficient(n, k)
    rhs = rhs - u ** n - v ** n
    return lhs, rhs


def verify_chebyshev_identity(n: int) -> bool:
    """Product identity over Q(omega) with omega = q (primitive n-th root)."""
    if n < 2:
        raise ValueError("the product identity needs n >= 2")
    lhs, rhs = product_identity_sides(n, field(n), 1)
    return lhs == rhs


def verify_min_pol_formula_consistency(N: int) -> bool:
    """Product identity over Q(q) with omega = q^2, the form used by phi."""
    if N < 3 or N % 2 == 0:
        raise ValueError("the order N must be odd and at least 3")
    lhs, rhs = product_identity_sides(N, field(N), 2)
    return lhs == rhs
