import random

import pytest

from uqcomod.cyclofield import field
from uqcomod.exactlinalg import vec_add_into
from uqcomod.uqsl2 import build_gr_uq, build_sigma, build_sigma_inverse, build_uq


@pytest.fixture(scope="session")
def f3():
    return field(3)


@pytest.fixture(scope="session")
def gr3():
    return build_gr_uq(3)


@pytest.fixture(scope="session")
def uq3():
    return build_uq(3)


@pytest.fixture(scope="session")
def sigma3():
    return build_sigma(3)


@pytest.fixture(scope="session")
def sigma3_inv():
    return build_sigma_inverse(3)


def random_scalar(fld, rng, span=3):
    """A random field element with small integer coordinates."""
    out = fld.zero
    for e in range(fld.degree):
        c = rng.randrange(-span, span + 1)
        if c:
            out = out + fld.from_rational(c) * fld.q_power(e)
    return out


def dense_rref(rows):
    """Reference for the echelon: the nonzero rows of the reduced row
    echelon form, as tuples, by dense Gauss-Jordan elimination."""
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(r, len(rows))
                   if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [e * inv for e in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and not f.is_zero():
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


def sparse(row):
    """A dense row as a sparse vector {index: coefficient}."""
    return {i: c for i, c in enumerate(row) if not c.is_zero()}


def dense(v, n, fld):
    """A sparse vector as a dense tuple of length n."""
    return tuple(v.get(i, fld.zero) for i in range(n))


def dense_subspace(fld, n, rows):
    """The Subspace whose canonical rows are the dense RREF rows given."""
    from uqcomod.exactlinalg import Subspace

    return Subspace(fld, n, {min(v): v for v in map(sparse, rows)})


@pytest.fixture()
def rng():
    return random.Random(20260815)


def reference_deformed_table(A, sigma, sigma_inv=None):
    """Reference for the slice kernel: each deformed basis product by the
    nested loop over the legs of both factors, with one form lookup per
    pair of legs.

    With sigma_inv, A is Hopf data and a * b = sigma(a1, b1) a2 b2
    sigma_inv(a3, b3) over Delta^2; without, A is a comodule algebra and
    a * b = sigma(a_(-1), b_(-1)) a_(0) b_(0) over the coaction.  Legs
    outside the forms' supports are dropped before the pair loop.
    """
    if sigma_inv is None:
        forms = (sigma.coords,)
        legs = [[((h,), a, c) for (h, a), c in A.coaction.get(i, ())]
                for i in range(A.dim)]
    else:
        forms = (sigma.coords, sigma_inv.coords)
        comul = A.coalgebra.comul
        legs = [[((a1, a3), a2, c * d) for a, a3, c in comul.get(i, ())
                 for a1, a2, d in comul.get(a, ())] for i in range(A.dim)]
    rows = [{h for h, _ in f} for f in forms]
    cols = [{k for _, k in f} for f in forms]
    left = [[t for t in ts if all(h in r for h, r in zip(t[0], rows))]
            for ts in legs]
    right = [[t for t in ts if all(k in c for k, c in zip(t[0], cols))]
             for ts in legs]
    mul = A.algebra.mul
    table = {}
    for i in range(A.dim):
        for j in range(A.dim):
            out = {}
            for hs, a, ca in left[i]:
                for ks, b, cb in right[j]:
                    ent = mul.get((a, b))
                    if not ent:
                        continue
                    c = ca * cb
                    for f, h, k in zip(forms, hs, ks):
                        s = f.get((h, k))
                        if s is None:
                            break
                        c = c * s
                    else:
                        for t, ct in ent:
                            vec_add_into(out, t, c * ct)
            if out:
                table[(i, j)] = tuple(sorted(out.items()))
    return table
