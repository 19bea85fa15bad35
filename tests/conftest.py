import operator
import random

import pytest

from uqcomod.cyclofield import field
from uqcomod.exactlinalg import vec_add_into
from uqcomod.hopfcore import (ConvForm, FiniteAlgebra, FiniteCoalgebra,
                              HopfAlgebraData, factor_form, t2_mul,
                              vec_combine)
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


def cyclic_group_hopf(n, fld=None):
    """The group algebra k[Z/n] with its usual Hopf structure."""
    if fld is None:
        fld = field(1)
    one = fld.one
    labels = [f"e{i}" for i in range(n)]
    mul = {(i, j): (((i + j) % n, one),) for i in range(n) for j in range(n)}
    alg = FiniteAlgebra(fld, labels, mul, {0: one})
    comul = {i: ((i, i, one),) for i in range(n)}
    counit = {i: one for i in range(n)}
    co = FiniteCoalgebra(fld, labels, comul, counit)
    antipode = {i: {(-i) % n: one} for i in range(n)}
    return HopfAlgebraData(alg, co, antipode, degrees=[0] * n)


def bicharacter_form(H, n):
    """sigma(e_i, e_j) = omega^{ij} on k[Z/n] over Q(omega)."""
    fld = H.field
    coords = {(i, j): fld.q_power(i * j) for i in range(n) for j in range(n)}
    return ConvForm(H, 2, coords)


def parsed_rows(rows, fld, split):
    """{key: tuple of (entry, c)} from exported rows [*ids, c], in export
    order: split(ids) gives (key, entry), and c is read with fld.parse."""
    table: dict = {}
    for *ids, c in rows:
        key, entry = split(ids)
        table.setdefault(key, []).append((entry, fld.parse(c)))
    return {key: tuple(row) for key, row in table.items()}


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


def reference_legs(A, *forms):
    """Reference for the leg contraction: the contracted legs (left, right)
    of every basis element by the two-pass loop that contracts all slots of
    each term at once, with plain field multiplies.

    With forms (sigma, sigma_inv), A is Hopf data and the terms of e_i are
    its Delta^2 terms ((a1, a3), a2, c d); with (sigma,), A is a comodule
    algebra and they are its coaction terms ((h,), a, c).  left[i][p] sums
    x f_1(h_1) ... f_k(h_k) e_a with the alphas of factor_form, right[i][p]
    with the betas, the slice label p combining the slots' slices as a
    mixed-radix int.
    """
    factored = [factor_form(f) for f in forms]
    if len(forms) == 2:
        comul = A.coalgebra.comul

        def terms_of(i):
            return [((a1, a3), a2, c * d) for a, a3, c in comul.get(i, ())
                    for a1, a2, d in comul.get(a, ())]
    else:
        def terms_of(i):
            return [((h,), a, c) for (h, a), c in A.coaction.get(i, ())]
    sides = []
    for side in (0, 1):
        legs = []
        for i in range(A.dim):
            acc = {}
            for hs, a, c in terms_of(i):
                parts = [(0, c)]
                for fac, h in zip(factored, hs):
                    parts = [(p * fac[2] + n, x * f) for p, x in parts
                             for n, f in fac[side].get(h, ())]
                for p, x in parts:
                    vec_add_into(acc.setdefault(p, {}), a, x)
            legs.append({p: tuple(sorted(v.items()))
                         for p, v in acc.items() if v})
        sides.append(legs)
    return tuple(sides)


def reference_skew_pbw_fill(N, nx, ny, r, xi, zeta, eta):
    """Reference for the skew-PBW fill: the table and steps of
    skew_pbw_algebra(N, nx, ny, r, xi, zeta, eta, labels) by a plain nested
    loop, with plain field multiplies and no shortcut for one-term rows.

    Each product e_k s with a generator s in {X, Y, G} is read off the
    defining relations, and row (i, m) is (e_i e_p) s along the step
    (m, p, s), which lowers the last nonzero exponent of e_m by one."""
    fld = field(N)
    q, one = fld.q_power, fld.one
    lam = 2 * N // r
    exps = [(a, b, c) for a in range(nx) for b in range(ny) for c in range(r)]
    index = {e: m for m, e in enumerate(exps)}

    def times_gen(e, s):
        a, b, c = e
        out = {}
        if s == (0, 0, 1):
            vec_add_into(out, index[(a, b, (c + 1) % r)], one)
        elif s == (0, 1, 0):
            wrap = b + 1 == ny
            vec_add_into(out, index[(a, 0 if wrap else b + 1, c)],
                         q(-lam * c) * (zeta if wrap else one))
        else:
            # G^c X = q^{lam c} X G^c, Y^b X = q^{-2b} X Y^b
            #   + eta q^{-2} [b]_{q^2} Y^{b-1} G^{-2}
            wrap = a + 1 == nx
            vec_add_into(out, index[(0 if wrap else a + 1, b, c)],
                         q(lam * c - 2 * b) * (xi if wrap else one))
            if b:
                q_int = sum((q(2 * t) for t in range(b)), fld.zero)
                vec_add_into(out, index[(a, b - 1, (c - 2) % r)],
                             eta * q(lam * c - 2) * q_int)
        return out

    steps = []
    for m, (a, b, c) in enumerate(exps[1:], 1):
        if c:
            p, s = (a, b, c - 1), (0, 0, 1)
        elif b:
            p, s = (a, b - 1, 0), (0, 1, 0)
        else:
            p, s = (a - 1, 0, 0), (1, 0, 0)
        steps.append((m, index[p], index[s]))
    table = {}
    for i in range(len(exps)):
        row = {0: {i: one}}
        for m, p, s in steps:
            out = {}
            for k, c in row[p].items():
                for t, d in times_gen(exps[k], exps[s]).items():
                    vec_add_into(out, t, c * d)
            row[m] = out
        for m, v in row.items():
            if v:
                table[(i, m)] = tuple(sorted(v.items()))
    return table, tuple(steps)


def reference_cocycle_sides(sigma, a, b, c):
    """Reference for the cocycle kernel: the two sides
    sigma(a1, b1) sigma(a2 b2, c) and sigma(b1, c1) sigma(a, b2 c2) of the
    2-cocycle identity, by the loop over Delta(a) (x) Delta(b) and
    Delta(b) (x) Delta(c) with a2 b2 and b2 c2 read from the table."""
    H = sigma.hopf
    comul, mul, sig = H.coalgebra.comul, H.algebra.mul, sigma.coords
    lhs = rhs = H.field.zero
    for a1, a2, ca in comul.get(a, ()):
        for b1, b2, cb in comul.get(b, ()):
            s1 = sig.get((a1, b1))
            if s1 is None:
                continue
            for m, cm in mul.get((a2, b2), ()):
                s2 = sig.get((m, c))
                if s2 is not None:
                    lhs = lhs + ca * cb * s1 * cm * s2
    for b1, b2, cb in comul.get(b, ()):
        for c1, c2, cc in comul.get(c, ()):
            s1 = sig.get((b1, c1))
            if s1 is None:
                continue
            for m, cm in mul.get((b2, c2), ()):
                s2 = sig.get((a, m))
                if s2 is not None:
                    rhs = rhs + cb * cc * s1 * cm * s2
    return lhs, rhs


def reference_mul_into(out, mul, left, right):
    """Reference for the row-product kernel: a copy of out plus
    sum a b row(i, j) over the terms (i, a) of left and (j, b) of right, by
    the nested loop with plain field multiplies and mul.get."""
    out = dict(out)
    for i, a in left:
        for j, b in right:
            for k, c in mul.get((i, j), ()):
                vec_add_into(out, k, a * b * c)
    return out


def reference_multiplicativity_failures(A, pairs):
    """Reference for the multiplicativity kernel: [label_a, label_b] for
    each planned pair (a, b), in plan order, with
    delta(e_a e_b) != delta(e_a) delta(e_b), in field values: the left
    side is vec_combine of the images delta(e_m) over row (a, b) of A's
    table, the right side t2_mul in H (x) A, with plain multiplies."""
    alg, times = A.algebra, operator.mul
    images = []
    for i in range(A.dim):
        img = {}
        for key, c in A.coaction.get(i, ()):
            vec_add_into(img, key, c)
        images.append(img)
    return [[alg.labels[i], alg.labels[j]] for i, j in pairs
            if vec_combine(images, alg.mul[(i, j)], times)
            != t2_mul(A.over.algebra, alg, images[i], images[j], times)]


def reference_convolution(f, g):
    """Reference for convolution: the loop over every pair of coordinates,
    each slot's coproduct terms looked up in comul_reverse.  Returns the
    coordinates {key: coefficient} in the order they are first reached."""
    rev = f.hopf.comul_reverse()
    out = {}
    for kf, cf in f.coords.items():
        for kg, cg in g.coords.items():
            sources = [rev.get((a, b)) for a, b in zip(kf, kg)]
            if not all(sources):
                continue
            stack = [((), cf * cg)]
            for cand in sources:
                stack = [(key + (i,), c * d) for key, c in stack
                         for i, d in cand]
            for key, c in stack:
                vec_add_into(out, key, c)
    return out
