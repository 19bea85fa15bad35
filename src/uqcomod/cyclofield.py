"""Exact arithmetic in cyclotomic fields Q(q) = Q[t]/(Phi_N(t)).

The generator q is the class of t, a primitive N-th root of unity.  An
element is stored as phi(N) integer numerators over one positive integer
denominator, the layout of FLINT/ANTIC's nf_elem: the value is
sum(num[i] * q^i) / den.  The pair is kept in normal form, den > 0 and
gcd(den, *num) = 1, so equality is a plain comparison of integers and zero is
((0, ..., 0), 1).  Phi_N is monic with integer coefficients, so reducing a
product modulo Phi_N never leaves the integers: a product is one integer
convolution, one integer reduction and one gcd.  Each field compiles the
convolution and the reduction of its own degree into one straight-line
function of the two numerator tuples when it is built (CyclotomicField), so
a product runs no loop in Python.  Field elements are immutable; the only
mutable state in this module is memoisation (_ValueIndex).

Order 1 is allowed (Phi_1 = t - 1, the field is plain Q); the odd-order
convention for quantum-group work is enforced by the callers that need it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add

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

    ``_mul(a, b)`` is the product of two numerator tuples, reduced, as a
    tuple.  It is generated from ``_red`` alone (see _compile_product) and
    compiled once per field; ``field(order)`` caches the field, so each
    order compiles once per process.  Order 3, where t^2 = -1 - t, gets::

        def mul(a, b):
            a0, a1, = a
            b0, b1, = b
            c2 = a1*b1
            return (a0*b0 - c2, a0*b1 + a1*b0 - c2,)

    ``interned`` is the field's one value index (_ValueIndex); ``zero``,
    ``one`` and every ``q_power`` are its canonical objects.

    A field pickles as ``field(order)``: the generated function cannot be
    pickled, and an unpickled element then shares the cached field.
    """

    __slots__ = ("order", "modulus", "degree", "_red", "_mul", "_qpow",
                 "zero", "one", "interned")

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("field order must be >= 1")
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.degree = len(self.modulus) - 1
        self._red: list[tuple[tuple[int, int], ...]] = []
        self._build_reductions()
        self._mul = _compile_product(self.degree, self._red)
        self.zero = CyclotomicNumber(self, (0,) * self.degree, 1)
        self.one = self.from_rational(1)
        self.interned = _ValueIndex(self.zero, self.one)
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
            got = self._qpow[k] = self.interned.canonical(
                self.element([0] * k + [1]))
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
                try:
                    c = Fraction(m.group("rat"))
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in term {part!r} of "
                                     f"cyclotomic literal {text!r}") from None
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

    def __reduce__(self):
        return field, (self.order,)

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.order == self.order

    def __hash__(self):
        return hash(("CyclotomicField", self.order))

    def __repr__(self):
        return f"CyclotomicField({self.order})"


@lru_cache(maxsize=None)
def field(order: int) -> CyclotomicField:
    return CyclotomicField(order)


class _ValueIndex:
    """The values of one field by index (CyclotomicField.interned), each
    keyed on its exact (num, den), so index equality is value equality.

    values[i] is the canonical object of index i: zero has index 0 and one
    index 1, so an index is true unless zero.  ids maps the id() of each
    canonical object, which values keeps alive, to its index; any other
    object is looked up by value.  products[i][j] and sums[i][j], each
    stored under both orders, are the indices of values[i] * values[j] and
    values[i] + values[j], filled on a miss.  The memos map values to values
    only, so no verdict carries from one check to the next.  The builders
    sum on sums (add), as they need canonical ids.

    The checks sum packed integer images (Kronecker substitution), so none
    of their partial sums enters the index.  The image of num/den is
    sum_t (num_t * scale // den) << (width * t): scale is the lcm of every
    den held and width - 64 bounds the bit length of every scaled
    coefficient.  A sum of fewer than 2^63 images is the image of its
    slotwise sums, each below 2^(width - 1) in absolute value, which the
    integer determines (decoded); so equal sums are equal values and a sum
    of 0 is zero.  images() packs on first call, and then of() packs each
    new value; one that does not fit repacks every image in place, with a
    new scale or a wider width (from 96 bits, in steps of 32), and bumps
    layout.  A check decides again whatever it summed while layout moved."""

    __slots__ = ("values", "index", "ids", "products", "sums", "packed",
                 "scale", "width", "layout")

    def __init__(self, zero, one):
        self.values, self.products, self.sums = [], [], []
        self.index, self.ids = {}, {}  # by (num, den), by id(canonical)
        self.packed, self.scale, self.width, self.layout = None, 1, 96, 0
        self.of(zero)
        self.of(one)

    def of(self, v) -> int:
        i = self.ids.get(id(v))
        if i is None:
            key = (v.num, v.den)
            i = self.index.get(key)
            if i is None:
                i = self.index[key] = self.ids[id(v)] = len(self.values)
                self.values.append(v)
                self.products.append({})
                self.sums.append({})
                if self.packed is not None:
                    self.packed.append(self._image(v))
                    if self.packed[-1] is None:
                        self._repack()
        return i

    def images(self) -> list:
        """The packed image of each value, by index."""
        if self.packed is None:
            self.packed = []
            self._repack()
        return self.packed

    def _image(self, v):
        """v's image in the current layout, or None if v does not fit it."""
        s, r = divmod(self.scale, v.den)
        cs = [c * s for c in v.num]
        if r or max(cs, key=abs).bit_length() > self.width - 64:
            return None
        return sum(c << (self.width * t) for t, c in enumerate(cs))

    def _repack(self) -> None:
        self.scale = lcm(*(v.den for v in self.values))
        top = max(abs(c) * (self.scale // v.den)
                  for v in self.values for c in v.num).bit_length()
        self.width = max(96, -(-(top + 64) // 32) * 32)
        self.packed[:] = map(self._image, self.values)
        self.layout += 1

    def decoded(self, side: dict) -> dict:
        """The values {k: v} of a side {k: sum of images}, without its
        zeros, in the current layout."""
        w, fld = self.width, self.values[0].field
        mask, half = (1 << w) - 1, 1 << (w - 1)
        out = {}
        for k, x in side.items():
            if x:
                num = []
                for _ in range(fld.degree):
                    num.append(((x + half) & mask) - half)
                    x = (x - num[-1]) >> w
                out[k] = _normalised(fld, num, self.scale)
        return out

    @staticmethod
    def same(lhs: dict, rhs: dict) -> bool:
        """Whether two sides of summed images are equal; a sum that cancels
        is 0 and compares as absent."""
        return lhs == rhs or ({k: x for k, x in lhs.items() if x}
                              == {k: x for k, x in rhs.items() if x})

    def canonical(self, v):
        """The canonical object equal to v."""
        return self.values[self.of(v)]

    def product(self, i: int, j: int) -> int:
        p = self.products[i].get(j)
        if p is None:
            p = self.products[i][j] = self.products[j][i] = self.of(
                self.values[i] * self.values[j])
        return p

    def total(self, i: int, j: int) -> int:
        t = self.sums[i][j] = self.sums[j][i] = self.of(
            self.values[i] + self.values[j])
        return t

    def times(self, a, b):
        """a * b, as the canonical object, through the memo."""
        return self.values[self.product(self.of(a), self.of(b))]

    def add(self, out: dict, key, v: int) -> None:
        """out[key] += values[v] on indices; a sum that cancels stays as
        index 0, so readers drop the zero indices."""
        got = out.get(key)
        if got is None:
            out[key] = v
        else:
            t = self.sums[got].get(v)
            out[key] = self.total(got, v) if t is None else t


def add_image(out: dict, key, x: int) -> None:
    """out[key] += x on packed images; a sum is never started from 0, so
    no first term is copied."""
    got = out.get(key)
    out[key] = x if got is None else got + x


def _compile_product(d: int, red):
    """The product of two d-tuples of integers modulo Phi_N, compiled from
    the reduction rows red of a field of degree d into one function.

    Coefficient k < d of the result is the convolution term
    sum_{i+j=k} a_i b_j plus, for each overflow power d + m of the
    convolution, its coefficient c_{d+m} times entry k of red[m].  Only the
    integers of red and index names enter the source.
    """
    def conv(k):
        return " + ".join(f"a{i}*b{k - i}"
                          for i in range(max(0, k - d + 1), min(k, d - 1) + 1))

    out = [conv(k) for k in range(d)]
    lines = ["def mul(a, b):",
             "    " + "".join(f"a{i}, " for i in range(d)) + "= a",
             "    " + "".join(f"b{i}, " for i in range(d)) + "= b"]
    for m in range(d - 1):
        c = f"c{d + m}"
        lines.append(f"    {c} = {conv(d + m)}")
        for k, r in red[m]:
            term = c if abs(r) == 1 else f"{abs(r)}*{c}"
            out[k] += f" - {term}" if r < 0 else f" + {term}"
    lines.append("    return (" + "".join(f"{e}, " for e in out).rstrip()
                 + ")")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<cyclotomic product>", "exec"), namespace)
    return namespace["mul"]


def _normalised(fld: CyclotomicField, num, den: int) -> "CyclotomicNumber":
    # num is a list or tuple of ints and den > 0 on entry; divide out the
    # common factor of den and all numerators
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
        return self + (-o)

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
        # a factor equal to one, whichever object holds it, returns the
        # other operand: most products of the Loewy, minimal-polynomial and
        # power-sum code have such a factor
        one = fld.one.num
        if o.den == 1 and o.num == one:
            return self
        if self.den == 1 and self.num == one and o.field is fld:
            return o
        return _normalised(fld, fld._mul(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        num = self.num
        zeros = num.count(0)
        if zeros == len(num):
            raise ZeroDivisionError("division by zero in cyclotomic field")
        fld = self.field
        if zeros == len(num) - 1:
            # a monomial (c/den) q^k, a rational at k = 0, has the inverse
            # (den/c) q^-k, in normal form as it stands: gcd(c, den) = 1,
            # and the integral numerators of the unit q^-k have content 1
            # (a content g > 1 would put 1/g in Z[q])
            k = 0
            while not num[k]:
                k += 1
            c = num[k]
            scale = self.den if c > 0 else -self.den
            if not k:
                return CyclotomicNumber(fld, (scale, *num[1:]), abs(c))
            return CyclotomicNumber(
                fld, tuple([scale * x for x in fld.q_power(-k).num]), abs(c))
        # extended Euclid in Z[t] against the monic modulus, keeping
        # s * num = r (mod Phi_N) for both pairs; pseudo-division and
        # content removal keep every coefficient an integer
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


@lru_cache(maxsize=None)
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
    return q_binomial(m - 1, r - 1, lam) + lam ** r * q_binomial(m - 1, r, lam)
