"""Polynomial identities behind the semisimplicity analysis.

Three ingredients:

* P_n(s, t), the power-sum polynomials with P_n(u+v, uv) = u^n + v^n,
* Chebyshev polynomials of the first kind (sanity anchor for P_n),
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

from .cyclofield import CyclotomicField, CyclotomicNumber, field
from .exactlinalg import Poly


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
            assert other.names == self.names
            return other
        return MultiPoly.constant(self.field, self.names, other)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly(self.field, self.names, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.field, self.names,
                         {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

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
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e)
                s = c1 * c2 if s is None else s + c1 * c2
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly(self.field, self.names, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        assert n >= 0
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

    def compose(self, values) -> "MultiPoly":
        """Substitute a MultiPoly (or scalar) for every variable.

        The substituted polynomials may live over a different variable
        tuple than this one; they only have to agree with each other, and
        the result is expressed in their variables."""
        vals = list(values)
        assert len(vals) == len(self.names)
        names = self.names
        for v in vals:
            if isinstance(v, MultiPoly):
                names = v.names
                break
        vals = [v if isinstance(v, MultiPoly)
                else MultiPoly.constant(self.field, names, v) for v in vals]
        assert all(v.names == names for v in vals)
        out = MultiPoly(self.field, names, {})
        for e, c in self.terms.items():
            term = MultiPoly.constant(self.field, names, c)
            for v, exp in zip(vals, e):
                if exp:
                    term = term * (v ** exp)
            out = out + term
        return out

    def eval_scalars(self, *values) -> CyclotomicNumber:
        assert len(values) == len(self.names)
        vals = [v if isinstance(v, CyclotomicNumber)
                else self.field.from_rational(v) for v in values]
        out = self.field.zero
        for e, c in self.terms.items():
            term = c
            for v, exp in zip(vals, e):
                for _ in range(exp):
                    term = term * v
            out = out + term
        return out

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


def power_sum_P(n: int, fld=None) -> MultiPoly:
    """P_n(s, t) with P_n(u+v, uv) = u^n + v^n; P_1 = s, P_2 = s^2 - 2t."""
    assert n >= 1
    if fld is None:
        fld = field(1)
    names = ("s", "t")
    s = MultiPoly.variable(fld, names, "s")
    t = MultiPoly.variable(fld, names, "t")
    if n == 1:
        return s
    prev, cur = s, s * s - t * 2
    for _ in range(n - 2):
        prev, cur = cur, s * cur - t * prev
    return cur


def chebyshev_T(n: int, fld=None) -> Poly:
    """Chebyshev polynomial of the first kind, exact coefficients.

    Returns the closed form (n/2) sum_k (-1)^k/(n-k) C(n-k,k) (2z)^{n-2k}
    after checking it against the three-term recurrence (ArithmeticError
    if they disagree).
    """
    assert n >= 0
    if fld is None:
        fld = field(1)
    two = fld.from_rational(2)
    t0 = Poly.from_rationals(fld, [1])
    t1 = Poly.from_rationals(fld, [0, 1])
    if n == 0:
        return t0
    cur, prev = t1, t0
    z = t1
    for _ in range(n - 1):
        prev, cur = cur, z * cur * two - prev
    coeffs = [fld.zero] * (n + 1)
    for k in range(n // 2 + 1):
        c = Fraction(n, 2) * Fraction((-1) ** k, n - k) * comb(n - k, k) \
            * Fraction(2) ** (n - 2 * k)
        coeffs[n - 2 * k] = fld.from_rational(c)
    closed = Poly(fld, coeffs)
    if closed != cur:
        raise ArithmeticError(
            f"Chebyshev closed form disagrees with the recurrence at n={n}")
    return closed


def min_poly_coefficient(n: int, k: int) -> Fraction:
    """The coefficient n/(n-k) * C(n-k, k) (an integer for 0 <= 2k <= n)."""
    assert 0 <= 2 * k <= n
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
    seen = set()
    for k in range(n):
        w = fld.q_power(omega_power * k)
        seen.add(str(w))
    if len(seen) != n:
        raise ArithmeticError("omega is not a primitive n-th root of unity")

    lhs = MultiPoly.constant(fld, names, 1)
    for k in range(n):
        wk = fld.q_power(omega_power * k)
        wmk = fld.q_power(-omega_power * k)
        lhs = lhs * (z - (u * wk + v * wmk))

    rhs = MultiPoly.constant(fld, names, 0)
    minus_uv = -(u * v)
    for k in range(n // 2 + 1):
        rhs = rhs + (z ** (n - 2 * k)) * (minus_uv ** k) \
            * min_poly_coefficient(n, k)
    rhs = rhs - u ** n - v ** n
    return lhs, rhs


def verify_chebyshev_identity(n: int) -> bool:
    """Product identity over Q(omega) with omega = q (primitive n-th root)."""
    assert n >= 2
    lhs, rhs = product_identity_sides(n, field(n), 1)
    return lhs == rhs


def verify_min_pol_formula_consistency(N: int) -> bool:
    """Product identity over Q(q) with omega = q^2, the form used by phi."""
    assert N >= 3 and N % 2 == 1
    lhs, rhs = product_identity_sides(N, field(N), 2)
    return lhs == rhs
