"""Exact linear algebra: rank, kernel, subspaces, polynomials, minimal polys."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqcomod.cyclofield import field
from uqcomod.exactlinalg import (
    Poly,
    SparseEchelon,
    Subspace,
    kernel,
    kernel_of_sparse_columns,
    minimal_polynomial_of_element,
    poly_gcd,
    rank,
    rref,
    solve,
    squarefree_check,
)

from conftest import dense, dense_rref, random_scalar, sparse


def vec(fld, row):
    """A row of rationals as a sparse vector."""
    return sparse([fld.from_rational(c) for c in row])


def test_rank_oracles():
    f = field(3)
    q = f.q
    assert rank(f, [vec(f, [1, 0]), vec(f, [0, 1])]) == 2
    assert rank(f, [vec(f, [0, 0]), {}]) == 0
    # [[1, q], [q^2, 1]] has determinant 1 - q^3 = 0
    assert rank(f, [{0: f.one, 1: q}, {0: q * q, 1: f.one}]) == 1


def test_solve_and_kernel():
    f = field(1)
    # the columns of [[1, 2], [3, 4]]
    cols = [vec(f, [1, 3]), vec(f, [2, 4])]
    b = vec(f, [5, 11])
    x = solve(f, cols, b)
    assert x is not None
    got = {}
    for j, c in x.items():
        for k, d in cols[j].items():
            got[k] = got.get(k, f.zero) + c * d
    assert got == b
    # inconsistent system: [[1, 1], [1, 1]] x = (1, 0)
    cols2 = [vec(f, [1, 1]), vec(f, [1, 1])]
    assert solve(f, cols2, {0: f.one}) is None
    assert solve(f, cols2, {5: f.one}) is None  # a row no column touches
    assert solve(f, cols2, {}) == {}
    ker = kernel(f, cols2, 2)
    assert ker.dim == 1
    v = ker.basis[0]
    assert (v.get(0, f.zero) + v.get(1, f.zero)).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2 ** 30))
def test_rank_nullity_property(nr, nc, seed):
    f = field(3)
    rng = random.Random(seed)
    rows = [[random_scalar(f, rng, span=2) for _ in range(nc)]
            for _ in range(nr)]
    cols = [sparse(col) for col in zip(*rows)]
    assert rank(f, map(sparse, rows)) + kernel(f, cols, nc).dim == nc
    assert rank(f, cols) == rank(f, map(sparse, rows))


def test_subspace_canonical_and_contains():
    f = field(1)
    vecs = [vec(f, row) for row in ([1, 2, 3], [2, 4, 6], [0, 1, 1])]
    s = Subspace.from_vectors(f, 3, vecs)
    assert s.dim == 2
    # canonicalisation is idempotent
    s2 = Subspace.from_vectors(f, 3, s.basis)
    assert s == s2 and hash(s) == hash(s2)
    assert s.contains(vec(f, [1, 3, 4]))
    assert not s.contains(vec(f, [0, 0, 1]))
    assert s.contains({})
    assert s.contains_subspace(s2)
    assert s != Subspace.from_vectors(f, 3, vecs[:2])
    # rows are read-only
    with pytest.raises(TypeError):
        s.rows[0] = {0: f.one}


def test_subspace_rejects_vectors_of_the_wrong_length():
    f = field(1)
    with pytest.raises(ValueError):
        Subspace.from_vectors(f, 3, [{0: f.one, 3: f.one}])
    with pytest.raises(ValueError):
        Subspace.from_vectors(f, 3, [{-1: f.one}])
    s = Subspace.from_vectors(f, 2, [{0: f.one}])
    with pytest.raises(ValueError):
        s.contains({2: f.one})
    with pytest.raises(ValueError):
        s.contains({(0, 1): f.one})


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=6),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2 ** 30))
def test_sparse_echelon_matches_dense_rref(nr, nc, seed):
    f = field(3)
    rng = random.Random(seed)
    vecs = []
    for _ in range(nr):
        if vecs and rng.random() < 0.3:  # a combination of earlier rows
            a, b = rng.choice(vecs), rng.choice(vecs)
            c = random_scalar(f, rng, span=2)
            vecs.append([x + c * y for x, y in zip(a, b)])
        else:
            vecs.append([random_scalar(f, rng, span=1)
                         if rng.random() < 0.6 else f.zero
                         for _ in range(nc)])
    def as_dense(space):
        return tuple(dense(row, nc, f) for row in space.basis)

    ech = SparseEchelon(f)
    snapshots, added = [], 0
    for i, v in enumerate(vecs):
        snapshots.append((SparseEchelon(f, ech.rows), dense_rref(vecs[:i])))
        row = ech.add(sparse(v))
        if row is not None:
            added += 1
            assert row[min(row)] == f.one
    want = dense_rref(vecs)
    assert as_dense(ech.subspace(nc)) == want
    assert ech.rank == len(want) == added
    for snap, span in snapshots:
        assert as_dense(snap.subspace(nc)) == span
    S = Subspace.from_vectors(f, nc, map(sparse, vecs))
    assert as_dense(S) == want
    red, pivots = rref(f, map(sparse, vecs))
    assert tuple(dense(row, nc, f) for row in red) == want
    assert pivots == tuple(min(i for i, e in enumerate(row)
                               if not e.is_zero()) for row in want)
    K = kernel(f, [sparse(col) for col in zip(*vecs)] if vecs
               else [{}] * nc, nc)
    assert K.dim + len(want) == nc
    assert as_dense(K) == dense_rref(as_dense(K))
    for x in K.basis:
        for row in vecs:
            assert sum((row[j] * c for j, c in x.items()), f.zero).is_zero()
    probe = [random_scalar(f, rng, span=1) for _ in range(nc)]
    for v in vecs + [probe]:
        in_span = len(dense_rref(vecs + [v])) == len(want)
        assert (not ech.reduce(sparse(v))) == in_span
        assert S.contains(sparse(v)) == in_span
        # v is solvable against the rows as columns exactly in the span
        x = solve(f, map(sparse, vecs), sparse(v))
        assert (x is not None) == in_span
        if x is not None:
            got = [sum((vecs[j][k] * c for j, c in x.items()), f.zero)
                   for k in range(nc)]
            assert got == list(v)


def test_kernel_of_sparse_columns_with_odd_labels():
    f = field(1)
    cols = [{("a", 0): f.one, ("b", 1): f.one},
            {("a", 0): f.from_rational(2), ("b", 1): f.from_rational(2)},
            {}]
    ker = kernel_of_sparse_columns(f, cols, 3)
    # column 2 is zero and col1 = 2 col0
    assert ker.dim == 2
    for v in ker.basis:
        assert (v.get(0, f.zero)
                + f.from_rational(2) * v.get(1, f.zero)).is_zero()


def test_poly_divmod_and_gcd():
    f = field(1)
    p = Poly.from_rationals(f, [-1, 0, 1])          # t^2 - 1
    d = Poly.from_rationals(f, [1, 1])              # t + 1
    quo, rem = p.divmod(d)
    assert rem.is_zero()
    assert quo == Poly.from_rationals(f, [-1, 1])
    g = poly_gcd(p, d)
    assert g == Poly.from_rationals(f, [1, 1])


def test_out_of_range_key_and_zero_divisor_raise():
    f = field(1)
    with pytest.raises(ValueError, match="F\\^2"):
        Subspace.from_vectors(f, 2, [{0: f.one}, {2: f.one}])
    with pytest.raises(ZeroDivisionError):
        Poly.from_rationals(f, [1, 1]).divmod(Poly(f, []))


def test_squarefree_check_oracles():
    f = field(1)
    # (t+1)^2 (t-2) = t^3 - 3t - 2
    p = Poly.from_rationals(f, [-2, -3, 0, 1])
    assert not squarefree_check(p)
    assert squarefree_check(Poly.from_rationals(f, [-1, 0, 0, 1]))
    with pytest.raises(ValueError):
        squarefree_check(Poly(f, []))


class _TruncatedPowerAlgebra:
    """k[w]/(w^n) presented through the duck interface used by the
    minimal-polynomial routine."""

    def __init__(self, fld, n):
        self.field = fld
        self.dim = n

    def unit_vec(self):
        return {0: self.field.one}

    def mul_vec(self, a, b):
        out = {}
        for i, c in a.items():
            for j, d in b.items():
                if i + j < self.dim:
                    k = i + j
                    out[k] = out.get(k, self.field.zero) + c * d
        return {k: v for k, v in out.items() if not v.is_zero()}


def test_minimal_polynomial_nilpotent_and_unit():
    f = field(3)
    alg = _TruncatedPowerAlgebra(f, 4)
    w = {1: f.one}
    p = minimal_polynomial_of_element(alg, w)
    assert p == Poly.from_rationals(f, [0, 0, 0, 0, 1])  # T^4
    u = {0: f.one}
    p = minimal_polynomial_of_element(alg, u)
    assert p == Poly.from_rationals(f, [-1, 1])  # T - 1
    # w shifted by 1: min poly (T-1)^4
    v = {0: f.one, 1: f.one}
    p = minimal_polynomial_of_element(alg, v)
    shifted = Poly.from_rationals(f, [-1, 1])
    expect = Poly.from_rationals(f, [1])
    for _ in range(4):
        expect = expect * shifted
    assert p == expect


def test_rref_reports_pivots():
    f = field(1)
    red, pivots = rref(f, [vec(f, [0, 1, 2]), vec(f, [0, 2, 4])])
    assert list(pivots) == [1]
    assert red == [vec(f, [0, 1, 2])]
