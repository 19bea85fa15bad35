"""Exact arithmetic in cyclotomic fields Q(q) = Q[t]/(Phi_N(t)).

The generator q is the class of t, a primitive N-th root of unity.  An
element is stored as phi(N) integer numerators over one positive integer
denominator, the layout of FLINT/ANTIC's nf_elem: the value is
sum(num[i] * q^i) / den.  The pair is kept in normal form, den > 0 and
gcd(den, *num) = 1, so equality is a plain comparison of integers and zero is
((0, ..., 0), 1).  Phi_N is monic with integer coefficients, so reducing a
product modulo Phi_N never leaves the integers: a product is one integer
convolution, one integer reduction and one gcd.  Field elements are
immutable; the only mutable state in this module is memoisation.

Order 1 is allowed (Phi_1 = t - 1, the field is plain Q); the odd-order
convention for quantum-group work is enforced by the callers that need it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub

_Q0 = Fraction(0)


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n // 2 + 1) if n % d == 0]
    out.append(n)
    return out


def _int_poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # den is monic; the division is exact by construction
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact cyclotomic division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n(t), ascending degree, as integers.

    Computed by the division recursion Phi_n = (t^n - 1) / prod_{d|n, d<n} Phi_d.
    """
    if n < 1:
        raise ValueError("cyclotomic polynomial needs n >= 1")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        num = _int_poly_div_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


_TERM_RE = re.compile(
    r"^(?:(?P<rat>-?\d+(?:/\d+)?)(?:\*(?P<qa>q(?:\^(?P<ea>-?\d+))?))?"
    r"|(?P<sign>-?)(?P<qb>q(?:\^(?P<eb>-?\d+))?))$"
)
# split a literal before each sign that starts a term; a '-' right after
# '^' belongs to a negative exponent
_TERM_SPLIT_RE = re.compile(r"\+|(?<!\^)(?=-)")


class CyclotomicField:
    """Q[t]/(Phi_N(t)); its elements are integer numerators over one denominator.

    ``_red[m]`` lists the nonzero coefficients of t^(degree+m) mod Phi_N as
    (index, integer) pairs, one row per power a product or a raw q-power can
    reach.
    """

    __slots__ = ("order", "modulus", "degree", "_red", "_qpow", "zero", "one")

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("field order must be >= 1")
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.degree = len(self.modulus) - 1
        self._red: list[tuple[tuple[int, int], ...]] = []
        self._build_reductions()
        self.zero = CyclotomicNumber(self, (0,) * self.degree, 1)
        self.one = self.from_rational(1)
        self._qpow: dict[int, CyclotomicNumber] = {}

    def _build_reductions(self) -> None:
        d = self.degree
        # t^d = -(lower part of modulus); modulus is monic
        base = [-c for c in self.modulus[:d]]
        row = base
        rows = [row]
        # each next power: shift and reduce the overflow coefficient;
        # enough rows for both products of reduced elements and raw
        # q-powers up to t^(order-1) (the degree can be much smaller
        # than the order, e.g. phi(6) = 2)
        for _ in range(max(d, self.order) - 1):
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [row[i] + top * base[i] for i in range(d)]
            rows.append(row)
        self._red = [tuple((i, c) for i, c in enumerate(r) if c) for r in rows]

    # -- constructors ---------------------------------------------------

    def element(self, coeffs) -> "CyclotomicNumber":
        """The element sum(coeffs[i] * q^i); coefficients are anything
        Fraction accepts, and lists longer than the degree are reduced."""
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        num = [c.numerator * (den // c.denominator) for c in cs]
        if len(num) > self.degree:
            num = self._reduce(num)
        num.extend([0] * (self.degree - len(num)))
        return _normalised(self, num, den)

    def from_rational(self, c) -> "CyclotomicNumber":
        rest = (0,) * (self.degree - 1)
        if isinstance(c, int):
            return CyclotomicNumber(self, (int(c),) + rest, 1)
        c = Fraction(c)
        return CyclotomicNumber(self, (c.numerator,) + rest, c.denominator)

    def q_power(self, k: int) -> "CyclotomicNumber":
        """q^k with the exponent normalised into [0, N)."""
        k %= self.order
        got = self._qpow.get(k)
        if got is None:
            got = self.element([0] * k + [1])
            self._qpow[k] = got
        return got

    @property
    def q(self) -> "CyclotomicNumber":
        return self.q_power(1)

    def _reduce(self, cs: list[int]) -> list[int]:
        d = self.degree
        out = cs[:d]
        out.extend([0] * (d - len(out)))
        red = self._red
        for m in range(d, len(cs)):
            c = cs[m]
            if c:
                for i, r in red[m - d]:
                    out[i] += c * r
        return out

    # -- parsing --------------------------------------------------------

    def parse(self, text: str) -> "CyclotomicNumber":
        """Inverse of str(): accepts e.g. "1/2 - 3*q + q^2" and "2*q^-1"."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty cyclotomic literal")
        parts = [p for p in _TERM_SPLIT_RE.split(s) if p]
        coeffs = [_Q0] * max(self.degree, self.order)
        for part in parts:
            m = _TERM_RE.match(part)
            if m is None:
                raise ValueError(f"bad term {part!r} in cyclotomic literal {text!r}")
            if m.group("rat") is not None:
                c = Fraction(m.group("rat"))
                if m.group("qa") is not None:
                    e = int(m.group("ea") or 1)
                else:
                    e = 0
            else:
                c = Fraction(-1 if m.group("sign") == "-" else 1)
                e = int(m.group("eb") or 1)
            coeffs[e % self.order] += c
        return self.element(coeffs)

    # -- misc -----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.order == self.order

    def __hash__(self):
        return hash(("CyclotomicField", self.order))

    def __repr__(self):
        return f"CyclotomicField({self.order})"


@lru_cache(maxsize=None)
def field(order: int) -> CyclotomicField:
    return CyclotomicField(order)


def _normalised(fld: CyclotomicField, num: list[int], den: int) -> "CyclotomicNumber":
    # den > 0 on entry; divide out the common factor of den and all numerators
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return CyclotomicNumber(fld, tuple(num), den)


class CyclotomicNumber:
    """An element of a CyclotomicField; immutable and hashable.

    ``num`` is a tuple of phi(N) ints and ``den`` a positive int, with
    gcd(den, *num) = 1; the constructor trusts its caller to pass that
    normal form.  ``coeffs`` gives the same value as a tuple of Fractions.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, fld: CyclotomicField, num: tuple, den: int):
        self.field = fld
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates on 1, q, ..., q^(phi(N)-1) as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.field.order != self.field.order:
                raise ValueError("mixing elements of different cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def is_zero(self) -> bool:
        return not any(self.num)

    def as_rational(self) -> Fraction:
        if any(self.num[1:]):
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        # an operand of the same field object needs no coercion
        o = other if (type(other) is CyclotomicNumber
                      and other.field is self.field) else self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            if da == 1:
                # integral sums need no gcd: every table and coproduct
                # coefficient of gr(u_q) and u_q at N = 5 is integral
                return CyclotomicNumber(self.field,
                                        tuple(map(add, self.num, o.num)), 1)
            return _normalised(self.field,
                               [x + y for x, y in zip(self.num, o.num)], da)
        g = gcd(da, db)
        sa, sb = db // g, da // g
        return _normalised(self.field,
                           [x * sa + y * sb for x, y in zip(self.num, o.num)],
                           da * sa)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.field, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        o = other if (type(other) is CyclotomicNumber
                      and other.field is self.field) else self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            if da == 1:
                return CyclotomicNumber(self.field,
                                        tuple(map(sub, self.num, o.num)), 1)
            return _normalised(self.field,
                               [x - y for x, y in zip(self.num, o.num)], da)
        g = gcd(da, db)
        sa, sb = db // g, da // g
        return _normalised(self.field,
                           [x * sa - y * sb for x, y in zip(self.num, o.num)],
                           da * sa)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if (type(other) is CyclotomicNumber
                      and other.field is self.field) else self._coerce(other)
        if o is None:
            return NotImplemented
        fld = self.field
        b = o.num
        conv = [0] * (2 * fld.degree - 1)
        for i, ai in enumerate(self.num):
            if ai:
                for j, bj in enumerate(b, i):
                    conv[j] += ai * bj
        return _normalised(fld, fld._reduce(conv), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        # extended Euclid in Z[t] against the monic modulus, keeping
        # s * num = r (mod Phi_N) for both pairs; pseudo-division and
        # content removal keep every coefficient an integer.  A rational
        # element is already a constant r1 and skips the loop.
        fld = self.field
        r0, s0 = list(fld.modulus), []
        r1, s1 = _poly_trim(list(self.num)), [1]
        while len(r1) > 1:
            lead = r1[-1]
            while len(r0) >= len(r1):
                g = gcd(lead, r0[-1])
                a, b = lead // g, r0[-1] // g
                shift = len(r0) - len(r1)
                r0 = _poly_trim(_poly_axpy(a, r0, b, r1, shift))
                s0 = _poly_axpy(a, s0, b, s1, shift)
            if not r0:
                raise ZeroDivisionError(
                    f"{self} shares a factor with the modulus {fld.modulus}")
            g = gcd(*r0, *s0)
            r0, r1 = r1, [x // g for x in r0]
            s0, s1 = s1, [x // g for x in s0]
        # s1 * num = r1[0] (mod Phi_N), so 1/self = den * s1 / r1[0]; the
        # cofactor s1 has degree below phi(N)
        c = r1[0]
        scale = self.den if c > 0 else -self.den
        out = [scale * x for x in _poly_trim(s1)]
        out.extend([0] * (fld.degree - len(out)))
        return _normalised(fld, out, abs(c))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        out = self.field.one
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        o = other if (type(other) is CyclotomicNumber
                      and other.field is self.field) else self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        # a rational element equals its int or Fraction, so hashes like it
        if any(self.num[1:]):
            return hash((self.field.order, self.num, self.den))
        return hash(Fraction(self.num[0], self.den))

    # -- canonical serialization --------------------------------------------

    def __str__(self):
        parts = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if e == 0:
                body = str(mag)
            else:
                v = "q" if e == 1 else f"q^{e}"
                body = v if mag == 1 else f"{mag}*{v}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self} in Q(q_{self.field.order})>"


def _poly_trim(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_axpy(a: int, p: list[int], b: int, r: list[int], shift: int) -> list[int]:
    """a * p - b * t^shift * r, on ascending integer coefficient lists."""
    out = [a * x for x in p]
    out.extend([0] * (len(r) + shift - len(out)))
    for i, x in enumerate(r, shift):
        out[i] -= b * x
    return out


# ---------------------------------------------------------------------------
# q-combinatorics
# ---------------------------------------------------------------------------

_BINOM_MEMO: dict = {}


def q_int(m: int, lam: CyclotomicNumber) -> CyclotomicNumber:
    """(m)_lam = 1 + lam + ... + lam^(m-1); (0)_lam = 0."""
    if m < 0:
        raise ValueError("q_int needs m >= 0")
    out = lam.field.zero
    p = lam.field.one
    for _ in range(m):
        out = out + p
        p = p * lam
    return out


def q_factorial(m: int, lam: CyclotomicNumber) -> CyclotomicNumber:
    """(m)_lam! = (1)_lam (2)_lam ... (m)_lam; (0)_lam! = 1."""
    if m < 0:
        raise ValueError("q_factorial needs m >= 0")
    out = lam.field.one
    for i in range(1, m + 1):
        out = out * q_int(i, lam)
    return out


def q_binomial(m: int, r: int, lam: CyclotomicNumber) -> CyclotomicNumber:
    """Gaussian binomial via the Pascal recursion.

    binom(m,r) = binom(m-1,r-1) + lam^r * binom(m-1,r).  The recursion stays
    well defined when q-integers vanish, which a factorial quotient does not.
    """
    if m < 0 or r < 0:
        raise ValueError("q_binomial needs m, r >= 0")
    if r > m:
        raise ValueError("q_binomial needs r <= m")
    if r == 0 or r == m:
        return lam.field.one
    key = (m, r, lam)
    got = _BINOM_MEMO.get(key)
    if got is None:
        got = q_binomial(m - 1, r - 1, lam) + lam ** r * q_binomial(m - 1, r, lam)
        _BINOM_MEMO[key] = got
    return got
