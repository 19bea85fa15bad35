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
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add

from .cyclofield import CyclotomicField, CyclotomicNumber, field
from .exactlinalg import Poly, vec_add_into


class MultiPoly:
    """Sparse polynomial in a fixed small tuple of variables.

    terms maps exponent tuples to nonzero field coefficients.
    """

    __slots__ = ("field", "names", "terms")

    def __init__(self, fld: CyclotomicField, names, terms: dict):
        self.field = fld
        self.names = tuple(names)
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    @classmethod
    def _clean(cls, fld, names: tuple, terms: dict):
        """The polynomial of terms that hold no zero coefficient, kept as
        given: vec_add_into drops every term that cancels."""
        out = object.__new__(cls)
        out.field, out.names, out.terms = fld, names, terms
        return out

    @classmethod
    def constant(cls, fld, names, value):
        if not isinstance(value, CyclotomicNumber):
            value = fld.from_rational(value)
        zero_exp = (0,) * len(names)
        return cls(fld, names, {zero_exp: value})

    @classmethod
    def variable(cls, fld, names, name):
        idx = tuple(names).index(name)
        e = tuple(1 if i == idx else 0 for i in range(len(names)))
        return cls(fld, names, {e: fld.one})

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.names != self.names:
                raise ValueError("polynomials in different variables")
            return other
        return MultiPoly.constant(self.field, self.names, other)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in self._coerce(other).terms.items():
            vec_add_into(out, e, c)
        return MultiPoly._clean(self.field, self.names, out)

    def __neg__(self):
        return MultiPoly._clean(self.field, self.names,
                                {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            c = other if isinstance(other, CyclotomicNumber) \
                else self.field.from_rational(other)
            return MultiPoly(self.field, self.names,
                             {e: c * v for e, v in self.terms.items()})
        other = self._coerce(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                vec_add_into(out, tuple(map(add, e1, e2)), c1 * c2)
        return MultiPoly._clean(self.field, self.names, out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.constant(self.field, self.names, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            other = self._coerce(other)
        return self.names == other.names and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        def key(e):
            return (-sum(e), tuple(-x for x in e))
        parts = []
        for e in sorted(self.terms, key=key):
            c = self.terms[e]
            mono = "*".join(
                (n if x == 1 else f"{n}^{x}")
                for n, x in zip(self.names, e) if x)
            cs = str(c)
            if mono:
                cs = f"({cs})*{mono}" if ("+" in cs or " - " in cs
                                          or cs.startswith("-")) else \
                    (mono if cs == "1" else f"{cs}*{mono}")
            parts.append(cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self})"


def _powers(p: MultiPoly, n: int) -> list[MultiPoly]:
    """[1, p, p^2, ..., p^n], each power one product from the last."""
    out = [MultiPoly.constant(p.field, p.names, 1)]
    for _ in range(n):
        out.append(out[-1] * p)
    return out


def power_sum_P(n: int, s, t):
    """P_n(s, t), with P_n(u + v, uv) = u^n + v^n, by the recursion
    P_0 = 2, P_1 = s, P_n = s P_{n-1} - t P_{n-2} in the ring of s and t:
    MultiPoly variables give the polynomial P_n, (u + v, uv) the sum
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
    if not isinstance(alpha, CyclotomicNumber):
        alpha = fld.from_rational(alpha)
    if not isinstance(beta, CyclotomicNumber):
        beta = fld.from_rational(beta)
    if not isinstance(xi, CyclotomicNumber):
        xi = fld.from_rational(xi)
    c = alpha * beta / (fld.q_power(2) - fld.one)
    coeffs = [fld.zero] * (N + 1)
    ck = fld.one
    for k in range(N // 2 + 1):
        coeffs[N - 2 * k] = fld.from_rational(min_poly_coefficient(N, k)) * ck
        ck = ck * c
    coeffs[0] = coeffs[0] - xi
    return Poly(fld, coeffs)


def product_identity_sides(n: int, fld: CyclotomicField, omega_power: int):
    """Both sides of the root-of-unity product identity, as MultiPoly values.

    omega = q^omega_power must be a primitive n-th root of unity in fld.
    Left:  prod_{k<n} (z - (u omega^k + v omega^{-k}))
    Right: sum_k (n/(n-k)) C(n-k,k) (-uv)^k z^{n-2k} - u^n - v^n
    """
    names = ("u", "v", "z")
    u = MultiPoly.variable(fld, names, "u")
    v = MultiPoly.variable(fld, names, "v")
    z = MultiPoly.variable(fld, names, "z")
    # primitivity of omega
    if len({fld.q_power(omega_power * k) for k in range(n)}) != n:
        raise ArithmeticError("omega is not a primitive n-th root of unity")

    lhs = MultiPoly.constant(fld, names, 1)
    for k in range(n):
        wk = fld.q_power(omega_power * k)
        wmk = fld.q_power(-omega_power * k)
        lhs = lhs * (z - (u * wk + v * wmk))

    z_pow = _powers(z, n)
    muv_pow = _powers(-(u * v), n // 2)
    rhs = MultiPoly.constant(fld, names, 0)
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
