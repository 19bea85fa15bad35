"""Exact linear algebra over a cyclotomic field.

Dense matrices with CyclotomicNumber entries, reduced row echelon form,
kernels, canonical subspaces, univariate polynomials (for minimal-polynomial
and squarefree work).  Everything is exact; no pivot thresholds.
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
        for r in self.entries:
            assert len(r) == self.cols, "ragged matrix"

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


def _rref_rows(fld, rows):
    """In-place RREF on a list of row lists; returns pivot column tuple."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if not rows[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [e * inv for e in rows[r]]
        for i in range(nrows):
            if i != r:
                f = rows[i][c]
                if not f.is_zero():
                    ri, rr = rows[i], rows[r]
                    rows[i] = [a - f * b for a, b in zip(ri, rr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(pivots)


def rref(m: Matrix):
    rows = [list(r) for r in m.entries]
    pivots = _rref_rows(m.field, rows)
    return Matrix(m.field, rows), pivots


def rank(m: Matrix) -> int:
    _, pivots = rref(m)
    return len(pivots)


def kernel(m: Matrix) -> "Subspace":
    """Right kernel {x : m x = 0} as a canonical subspace of F^cols."""
    red, pivots = rref(m)
    fld = m.field
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [fld.zero] * m.cols
        v[fc] = fld.one
        for r, pc in enumerate(pivots):
            e = red.entries[r][fc]
            if not e.is_zero():
                v[pc] = -e
        basis.append(v)
    return Subspace.from_vectors(fld, m.cols, basis)


def solve(m: Matrix, b) -> list | None:
    """One solution of m x = b (free variables set to 0), or None."""
    fld = m.field
    rows = [list(r) + [bv] for r, bv in zip(m.entries, b)]
    if not rows:
        return []
    pivots = _rref_rows(fld, rows)
    if m.cols in pivots:
        return None
    x = [fld.zero] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][m.cols]
    return x


class Subspace:
    """A subspace of F^n held by its canonical (RREF) basis."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, fld, ambient_dim, canonical_basis):
        self.field = fld
        self.ambient_dim = ambient_dim
        self.basis = canonical_basis  # tuple of tuples, already RREF

    @classmethod
    def from_vectors(cls, fld, ambient_dim, vectors):
        rows = [list(v) for v in vectors]
        for r in rows:
            assert len(r) == ambient_dim
        if rows:
            _rref_rows(fld, rows)
        rows = [tuple(r) for r in rows if any(not e.is_zero() for e in r)]
        return cls(fld, ambient_dim, tuple(rows))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        v = list(vec)
        assert len(v) == self.ambient_dim
        for row in self.basis:
            pc = next(i for i, e in enumerate(row) if not e.is_zero())
            f = v[pc]
            if not f.is_zero():
                v = [a - f * b for a, b in zip(v, row)]
        return all(e.is_zero() for e in v)

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


def kernel_of_sparse_columns(fld, columns, ncols) -> Subspace:
    """Kernel of the map e_j -> columns[j], columns as dicts keyed by any
    hashable row label.  Only rows that actually occur are materialised."""
    used = sorted({k for col in columns for k in col}, key=repr)
    index = {k: i for i, k in enumerate(used)}
    z = fld.zero
    entries = [[z] * ncols for _ in used]
    for j, col in enumerate(columns):
        for k, c in col.items():
            entries[index[k]][j] = c
    if not used:
        return Subspace.from_vectors(
            fld, ncols, [[fld.one if i == j else z for i in range(ncols)] for j in range(ncols)]
        )
    return kernel(Matrix(fld, entries))


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
        assert not other.is_zero(), "division by zero polynomial"
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
    Found as the first linear dependence among 1, w, w^2, ...
    """
    fld = alg.field
    dim = alg.dim
    echelon = []  # (pivot index, dense row, combination)
    p = alg.unit_vec()
    for k in range(dim + 1):
        v = [fld.zero] * dim
        for i, c in p.items():
            v[i] = c
        combo = [fld.zero] * (k + 1)
        combo[k] = fld.one
        for pc, row, cb in echelon:
            f = v[pc]
            if not f.is_zero():
                v = [a - f * b for a, b in zip(v, row)]
                combo = [
                    a - f * (cb[i] if i < len(cb) else fld.zero)
                    for i, a in enumerate(combo)
                ]
        pivot = next((i for i, e in enumerate(v) if not e.is_zero()), None)
        if pivot is None:
            return Poly(fld, combo)  # monic: leading coefficient untouched
        inv = v[pivot].inverse()
        echelon.append(
            (pivot, [e * inv for e in v], [c * inv for c in combo])
        )
        p = alg.mul_vec(p, w)
    raise AssertionError("no dependence found below dim+1 powers")
