"""Exact linear algebra over a cyclotomic field.

Dense matrices, one incremental sparse echelon behind RREF, rank, solve,
kernels, canonical subspaces and minimal polynomials, and univariate
polynomials for squarefree work.  Everything is exact; no pivot thresholds.
"""

from __future__ import annotations

from .cyclofield import CyclotomicField, CyclotomicNumber


class Matrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, fld: CyclotomicField, entries):
        self.field = fld
        self.entries = [list(r) for r in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged matrix")

    @classmethod
    def zeros(cls, fld, rows, cols):
        z = fld.zero
        return cls(fld, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, fld, n):
        m = cls.zeros(fld, n, n)
        for i in range(n):
            m.entries[i][i] = fld.one
        return m

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.entries == other.entries
            and self.field == other.field
        )

    def __repr__(self):
        return f"<Matrix {self.rows}x{self.cols} over Q(q_{self.field.order})>"


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
        out = {k: c for k, c in v.items() if not c.is_zero()}
        rows = self.rows
        for p, f in list(out.items()):
            row = rows.get(p)
            if row is not None:
                _sub_row(out, f, row, p)
        return out

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
        z = self.field.zero
        basis = []
        for p in sorted(self.rows):
            dense = [z] * ambient_dim
            for k, c in self.rows[p].items():
                dense[k] = c
            basis.append(tuple(dense))
        return Subspace(self.field, ambient_dim, tuple(basis))


def vec_add_into(acc: dict, key, c) -> None:
    got = acc.get(key)
    if got is None:
        if not c.is_zero():
            acc[key] = c
    else:
        s = got + c
        if s.is_zero():
            del acc[key]
        else:
            acc[key] = s


def _sub_row(out: dict, f, row: dict, pivot) -> None:
    # out -= f * row in place, where out[pivot] == f and row[pivot] == 1
    del out[pivot]
    nf = -f
    for k, c in row.items():
        if k != pivot:
            vec_add_into(out, k, nf * c)


def _row_echelon(fld, ncols, rows) -> SparseEchelon:
    ech = SparseEchelon(fld)
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"vector of length {len(row)} in F^{ncols}")
        ech.add(dict(enumerate(row)))
    return ech


def rref(m: Matrix):
    """The reduced row echelon form of m, zero rows last, and its pivots."""
    ech = _row_echelon(m.field, m.cols, m.entries)
    basis = list(ech.subspace(m.cols).basis)
    basis += [[m.field.zero] * m.cols] * (m.rows - len(basis))
    return Matrix(m.field, basis), tuple(sorted(ech.rows))


def rank(m: Matrix) -> int:
    return _row_echelon(m.field, m.cols, m.entries).rank


def kernel(m: Matrix) -> "Subspace":
    """Right kernel {x : m x = 0} as a canonical subspace of F^cols."""
    return kernel_of_sparse_columns(
        m.field, [dict(enumerate(col)) for col in zip(*m.entries)], m.cols)


def solve(m: Matrix, b) -> list | None:
    """One solution of m x = b (free variables set to 0), or None."""
    n = m.cols
    rows = _row_echelon(m.field, n + 1,
                        [list(r) + [bv] for r, bv in zip(m.entries, b)]).rows
    if n in rows:
        return None
    x = [m.field.zero] * n
    for p, row in rows.items():
        x[p] = row.get(n, x[p])
    return x


def kernel_of_sparse_columns(fld, columns, ncols) -> "Subspace":
    """Kernel of the map e_j -> columns[j], columns as dicts keyed by any
    hashable row label.

    Each column, keyed (0, label number), is tagged with (1, j): 1 and
    added to one echelon.  A row whose pivot is a tag has no image part, so
    it is a kernel vector, and those rows are the kernel's RREF basis.
    """
    labels: dict = {}
    ech = SparseEchelon(fld)
    for j, col in enumerate(columns):
        v = {(0, labels.setdefault(k, len(labels))): c for k, c in col.items()}
        v[(1, j)] = fld.one
        ech.add(v)
    rows = {p[1]: {j: c for (_, j), c in row.items()}
            for p, row in ech.rows.items() if p[0] == 1}
    return SparseEchelon(fld, rows).subspace(ncols)


class Subspace:
    """A subspace of F^n held by its canonical (RREF) basis."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, fld, ambient_dim, canonical_basis):
        self.field = fld
        self.ambient_dim = ambient_dim
        self.basis = canonical_basis  # tuple of tuples, already RREF

    @classmethod
    def from_vectors(cls, fld, ambient_dim, vectors):
        return _row_echelon(fld, ambient_dim, vectors).subspace(ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        return _row_echelon(self.field, self.ambient_dim,
                            self.basis + (tuple(vec),)).rank == self.dim

    def contains_subspace(self, other) -> bool:
        return all(self.contains(row) for row in other.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

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
