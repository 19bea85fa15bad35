"""Exact linear algebra over a cyclotomic field.

One sparse-vector layer: vectors are dicts {key: coeff} with no zero
coefficients, a linear map is the list of its basis images, and one
incremental echelon serves RREF, rank, solve, kernels, canonical subspaces
and minimal polynomials.  One sparse polynomial class, Poly, keys its
terms by exponent tuples in the same way: in one variable it serves
minimal polynomials, division, gcd and squarefree tests, in several the
power sums and product identity of polyid.  Everything is exact; no pivot
thresholds.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from types import MappingProxyType

from .cyclofield import CyclotomicNumber


class SparseEchelon:
    """An incremental reduced echelon basis on sparse vectors {key: coeff}.

    Each row is keyed by its pivot, the smallest key it holds; it has 1
    there and 0 at every other pivot, so the rows in pivot order are the
    canonical RREF basis.  Rows are replaced, never changed in place, so
    an echelon made from another's ``rows`` is a snapshot of its span.
    """

    __slots__ = ("field", "rows")

    def __init__(self, fld, rows=None):
        self.field = fld
        self.rows = dict(rows or {})  # pivot -> row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: dict) -> dict:
        """v less its part along the rows: empty exactly when v is in the
        span.  Zero coefficients in v are dropped."""
        return _reduce(self.rows, v)

    def add(self, v: dict):
        """Add v to the span; the new row, or None when v was in the span."""
        r = self.reduce(v)
        if not r:
            return None
        p = min(r)
        inv = r.pop(p).inverse()
        row = {k: c * inv for k, c in r.items()}
        row[p] = self.field.one
        rows = self.rows
        for q, old in rows.items():
            f = old.get(p)
            if f is not None:
                old = dict(old)
                _sub_row(old, f, row, p)
                rows[q] = old
        rows[p] = row
        return row

    def subspace(self, ambient_dim: int) -> "Subspace":
        """The span, on keys 0 .. ambient_dim - 1, as a canonical Subspace."""
        return Subspace(self.field, ambient_dim, self.rows)


def vec_add_into(acc: dict, key, c) -> None:
    # zero tests read the numerators directly: is_zero() is a method call
    got = acc.get(key)
    if got is None:
        if any(c.num):
            acc[key] = c
    else:
        s = got + c
        if any(s.num):
            acc[key] = s
        else:
            del acc[key]


def _reduce(rows, v: dict) -> dict:
    # one pass suffices: a row is 0 at every other pivot
    out = {k: c for k, c in v.items() if not c.is_zero()}
    for p, f in list(out.items()):
        row = rows.get(p)
        if row is not None:
            _sub_row(out, f, row, p)
    return out


def _sub_row(out: dict, f, row: dict, pivot) -> None:
    # out -= f * row in place, where out[pivot] == f and row[pivot] == 1
    del out[pivot]
    nf = -f
    for k, c in row.items():
        if k != pivot:
            vec_add_into(out, k, nf * c)


def _check_keys(v: dict, n: int) -> None:
    for k in v:
        if k not in range(n):
            raise ValueError(f"key {k!r} of a vector in F^{n}")


def _echelon(fld, vectors) -> SparseEchelon:
    ech = SparseEchelon(fld)
    for v in vectors:
        ech.add(v)
    return ech


def _tagged_echelon(fld, columns):
    """One echelon of the columns of the map e_j -> columns[j], columns as
    dicts keyed by any hashable row label: column j, keyed (0, label
    number), is tagged with (1, j): 1.  Image keys sort before tags, so a
    row whose pivot is a tag has no image part.  Returns the echelon and
    the label numbering."""
    labels: dict = {}
    ech = SparseEchelon(fld)
    for j, col in enumerate(columns):
        v = {(0, labels.setdefault(k, len(labels))): c for k, c in col.items()}
        v[(1, j)] = fld.one
        ech.add(v)
    return ech, labels


# rref and kernel have no caller in the package: they are kept, as thin
# delegations, because perfbench/tracer.py wraps them by name.

def rref(fld, vectors):
    """The canonical RREF rows of the span of the vectors, in pivot order,
    and their pivots."""
    rows = _echelon(fld, vectors).rows
    pivots = tuple(sorted(rows))
    return [rows[p] for p in pivots], pivots


def kernel(fld, columns, ncols) -> "Subspace":
    """Kernel of the map e_j -> columns[j]; see kernel_of_sparse_columns."""
    return kernel_of_sparse_columns(fld, columns, ncols)


def rank(fld, vectors) -> int:
    return _echelon(fld, vectors).rank


def solve(fld, columns, b: dict) -> dict | None:
    """One x with sum_j x[j] columns[j] = b, as a sparse vector, or None.

    b, reduced on the tagged echelon of the columns, keeps an image part
    exactly when it is not in their span; otherwise its tags are -x."""
    ech, labels = _tagged_echelon(fld, columns)
    v = {}
    for k, c in b.items():
        if k not in labels:
            if c.is_zero():
                continue
            return None
        v[(0, labels[k])] = c
    r = ech.reduce(v)
    if any(tag == 0 for tag, _ in r):
        return None
    return {j: -c for (_, j), c in r.items()}


def kernel_of_sparse_columns(fld, columns, ncols) -> "Subspace":
    """Kernel of the map e_j -> columns[j], columns as dicts keyed by any
    hashable row label: the rows of the tagged echelon whose pivot is a tag
    are kernel vectors, and together they are the kernel's RREF basis,
    each row read-only."""
    ech, _ = _tagged_echelon(fld, columns)
    rows = {p[1]: MappingProxyType({j: c for (_, j), c in row.items()})
            for p, row in ech.rows.items() if p[0] == 1}
    return Subspace(fld, ncols, rows)


class Subspace:
    """A subspace of F^n held by its canonical RREF rows, sparse vectors
    keyed by pivot: a frozen SparseEchelon snapshot.  The mapping is
    read-only, and rows are shared, never changed in place."""

    __slots__ = ("field", "ambient_dim", "rows")

    def __init__(self, fld, ambient_dim, rows):
        self.field = fld
        self.ambient_dim = ambient_dim
        self.rows = MappingProxyType(dict(rows))  # pivot -> row, canonical

    @classmethod
    def from_vectors(cls, fld, ambient_dim, vectors):
        ech = SparseEchelon(fld)
        for v in vectors:
            _check_keys(v, ambient_dim)
            ech.add(v)
        return ech.subspace(ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple:
        """The canonical rows in pivot order."""
        return tuple(self.rows[p] for p in sorted(self.rows))

    def contains(self, vec: dict) -> bool:
        _check_keys(vec, self.ambient_dim)
        return not _reduce(self.rows, vec)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, tuple(sorted(self.rows))))

    def __repr__(self):
        return f"<Subspace dim {self.dim} of F^{self.ambient_dim}>"


# ---------------------------------------------------------------------------
# polynomials over the field
# ---------------------------------------------------------------------------

class Poly:
    """A sparse polynomial over the field in the variables names (one
    variable, T, unless given): terms maps exponent tuples to nonzero
    coefficients.  The ring operations take any names; coeffs, divmod,
    monic, derivative and eval need exactly one variable."""

    __slots__ = ("field", "names", "terms")

    def __init__(self, fld, terms: dict, names=("T",)):
        self.field = fld
        self.names = tuple(names)
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    @classmethod
    def _clean(cls, fld, names: tuple, terms: dict):
        """The polynomial of terms as given, which hold no zero coefficient."""
        out = object.__new__(cls)
        out.field, out.names, out.terms = fld, names, terms
        return out

    @classmethod
    def from_coeffs(cls, fld, coeffs):
        """The univariate polynomial with coeffs, lowest degree first."""
        return cls(fld, {(e,): c for e, c in enumerate(coeffs)})

    @classmethod
    def from_rationals(cls, fld, coeffs):
        return cls.from_coeffs(fld, [fld.from_rational(c) for c in coeffs])

    @classmethod
    def constant(cls, fld, names, value):
        if not isinstance(value, CyclotomicNumber):
            value = fld.from_rational(value)
        return cls(fld, {(0,) * len(names): value}, names)

    @classmethod
    def variable(cls, fld, names, name):
        idx = tuple(names).index(name)
        e = tuple(1 if i == idx else 0 for i in range(len(names)))
        return cls(fld, {e: fld.one}, names)

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.names != self.names:
                raise ValueError("polynomials in different variables")
            return other
        return Poly.constant(self.field, self.names, other)

    def _univariate(self) -> None:
        if len(self.names) != 1:
            raise ValueError(f"not univariate: a polynomial in {self.names}")

    @property
    def degree(self) -> int:
        """The total degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    @property
    def coeffs(self) -> tuple:
        """The dense coefficients, lowest degree first."""
        self._univariate()
        z, terms = self.field.zero, self.terms
        return tuple(terms.get((e,), z) for e in range(self.degree + 1))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in self._coerce(other).terms.items():
            vec_add_into(out, e, c)
        return Poly._clean(self.field, self.names, out)

    def __neg__(self):
        return Poly._clean(self.field, self.names,
                           {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                vec_add_into(out, tuple(map(add, e1, e2)), c1 * c2)
        return Poly._clean(self.field, self.names, out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out, base = Poly.constant(self.field, self.names, 1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = Poly.constant(self.field, self.names, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self.names == other.names and self.terms == other.terms

    def divmod(self, other):
        """Quotient and remainder of long division by other."""
        self._univariate()
        other._univariate()
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        dd = other.degree
        inv, quo, rem = other.terms[(dd,)].inverse(), {}, dict(self.terms)
        for top in range(self.degree, dd - 1, -1):
            c = rem.get((top,))
            if c is not None:
                f = quo[(top - dd,)] = c * inv
                for (e,), d in other.terms.items():
                    vec_add_into(rem, (top - dd + e,), -(f * d))
        return (Poly._clean(self.field, self.names, quo),
                Poly._clean(self.field, self.names, rem))

    def monic(self) -> "Poly":
        self._univariate()
        if self.is_zero():
            return self
        return self * self.terms[(self.degree,)].inverse()

    def derivative(self) -> "Poly":
        self._univariate()
        return Poly(self.field,
                    {(e - 1,): c * e for (e,), c in self.terms.items() if e})

    def eval(self, x: CyclotomicNumber) -> CyclotomicNumber:
        out = self.field.zero
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __str__(self):
        """Terms by falling total degree, then falling exponents; a
        coefficient of several terms prints in parentheses."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (-sum(e), [-x for x in e])):
            cs = str(self.terms[e])
            if len(cs.split()) > 1:
                cs = f"({cs})"
            mono = "*".join(n if x == 1 else f"{n}^{x}"
                            for n, x in zip(self.names, e) if x)
            if not mono:
                body = cs
            elif cs in ("1", "-1"):
                body = cs[:-1] + mono
            else:
                body = f"{cs}*{mono}"
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append(f"- {body[1:]}")
            else:
                parts.append(f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"<Poly {self}>"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    a._univariate()
    b._univariate()
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic()


def squarefree_check(p: Poly) -> bool:
    """True when p has no repeated roots (gcd with its derivative is 1)."""
    p._univariate()
    if p.is_zero():
        raise ValueError("squarefree_check of the zero polynomial")
    if p.degree == 0:
        return True
    g = poly_gcd(p, p.derivative())
    return g.degree == 0


def minimal_polynomial_of_element(alg, w: dict) -> Poly:
    """Monic minimal polynomial of w in a finite-dimensional algebra.

    alg must expose field, dim, unit_vec() and mul_vec(a, b) on sparse dicts.
    Found as the first linear dependence among 1, w, w^2, ...: w^k, keyed
    (0, i) and tagged with (1, k): 1, is reduced against the earlier powers,
    and once only tags are left they are the coefficients, 1 at T^k.
    """
    fld = alg.field
    ech = SparseEchelon(fld)
    p = alg.unit_vec()
    for k in range(alg.dim + 1):
        v = {(0, i): c for i, c in p.items()}
        v[(1, k)] = fld.one
        r = ech.reduce(v)
        if min(r)[0] == 1:
            return Poly(fld, {(j,): c for (_, j), c in r.items()})
        ech.add(r)
        p = alg.mul_vec(p, w)
    raise ArithmeticError("no dependence found below dim+1 powers")
