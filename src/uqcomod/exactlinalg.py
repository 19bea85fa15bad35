"""Exact linear algebra over a cyclotomic field.

One sparse-vector layer: vectors are dicts {key: coeff} with no zero
coefficients, a linear map is the list of its basis images, and one
incremental echelon serves RREF, rank, solve, kernels, canonical subspaces
and minimal polynomials.  Univariate polynomials serve squarefree work.
Everything is exact; no pivot thresholds.
"""

from __future__ import annotations

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
# univariate polynomials over the field (variable printed as T)
# ---------------------------------------------------------------------------

class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, fld, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = fld
        self.coeffs = tuple(cs)

    @classmethod
    def from_rationals(cls, fld, coeffs):
        return cls(fld, [fld.from_rational(c) for c in coeffs])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return Poly(self.field, [x + y for x, y in zip(a, b)])

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CyclotomicNumber):
            return Poly(self.field, [c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly(self.field, [])
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dd = other.degree
        lead = other.coeffs[-1]
        q = [self.field.zero] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if not c.is_zero():
                f = c / lead
                q[i - dd] = f
                for j, oc in enumerate(other.coeffs):
                    rem[i - dd + j] = rem[i - dd + j] - f * oc
        return Poly(self.field, q), Poly(self.field, rem[:dd])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = self.coeffs[-1].inverse()
        return Poly(self.field, [c * inv for c in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly(
            self.field,
            [c * i for i, c in enumerate(self.coeffs)][1:],
        )

    def eval(self, x: CyclotomicNumber) -> CyclotomicNumber:
        out = self.field.zero
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c.is_zero():
                continue
            cs = str(c)
            neg = cs.startswith("-") and "+" not in cs and "- " not in cs[1:]
            mono = "1" if e == 0 else ("T" if e == 1 else f"T^{e}")
            if e == 0:
                body = cs if len(cs.split()) == 1 else f"({cs})"
            elif cs == "1":
                body = mono
            elif cs == "-1":
                body = f"-{mono}"
            elif len(cs.split()) == 1:
                body = f"{cs}*{mono}"
            else:
                body = f"({cs})*{mono}"
            if not parts:
                parts.append(body)
            elif body.startswith("-") and not body.startswith("(-"):
                parts.append(f"- {body[1:]}")
            else:
                parts.append(f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"<Poly {self}>"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic()


def squarefree_check(p: Poly) -> bool:
    """True when p has no repeated roots (gcd with its derivative is 1)."""
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
            return Poly(fld, [r.get((1, j), fld.zero) for j in range(k + 1)])
        ech.add(r)
        p = alg.mul_vec(p, w)
    raise ArithmeticError("no dependence found below dim+1 powers")
