"""The small quantum group u_q(sl2) at an odd root of unity, built as a
cocycle deformation of its associated graded Hopf algebra.

The graded algebra gr(u_q) has PBW basis x^i y^j g^k (0 <= i, j, k < N) with

    x^N = y^N = 0,  g^N = 1,  gx = q^2 xg,  gy = q^-2 yg,  xy = q^2 yx,
    Delta(g) = g (x) g,  Delta(x) = x (x) 1 + g^-1 (x) x,
    Delta(y) = y (x) 1 + g^-1 (x) y.

Its product is the one skew-PBW builder, skew_pbw_algebra, at
xi = zeta = eta = 0 and r = N; the comodule-algebra families of comodzoo are
the other instances of that builder.

The deforming 2-cocycle is sigma = exp_{q^2}(xi1 (x) xi2) for the dual
skew-primitive functionals xi1, xi2; deforming by it recovers u_q with
Et = x, F = y, K = g (and E = (q - q^-1)^{-1} K Et in the usual generators).
"""

from __future__ import annotations

from functools import lru_cache

from .cyclofield import field, q_binomial, q_factorial, q_int
from .hopfcore import (
    ConvForm,
    FiniteAlgebra,
    FiniteCoalgebra,
    HopfAlgebraData,
    _antipode_sides,
    _packed,
    _Table,
    _generator_plan,
    _plan_failures,
    _planned,
    convolution,
    deform_hopf,
    read_only,
    solve_antipode,
    t2_mul,
    tensor_vec,
    vec_add_into,
    vec_combine,
    vec_scale,
    vec_str,
    vec_sub,
)
from .reporting import VerificationReport

_BAD_ORDER = "root-of-unity order must be an odd integer >= 3"


def check_order(N: int) -> None:
    if not isinstance(N, int) or N < 3 or N % 2 == 0:
        raise ValueError(_BAD_ORDER)


def monomial_index(N: int, i: int, j: int, k: int) -> int:
    return (i * N + j) * N + k


def skew_pbw_algebra(N: int, nx: int, ny: int, r: int, xi, zeta, eta,
                     labels):
    """The algebra on the basis X^a Y^b G^c (a < nx, b < ny, c < r) with

        X^N = xi,  Y^N = zeta,  G^r = 1,  G X = q^{2N/r} X G,
        G Y = q^{-2N/r} Y G,  X Y - q^2 Y X = -eta G^{-2},

    where nx and ny are 1 (no such generator) or N, and r divides N.  The
    basis index of X^a Y^b G^c is (a ny + b) r + c.

    The algebra's steps list (m, p, s) for every basis index m > 0 in
    increasing order, with e_m = e_p e_s and e_s one of the generators
    X, Y, G.  The packed table (hopfcore._Table) fills row (i, m) along
    the step of m: e_i e_m = (e_i e_p) e_s, from the products e_k e_s
    tabulated once per generator, as value ids of the field's value index
    (CyclotomicField.interned).  Its row fill walks m's step chain down to
    the first row already kept (row (i, 0), unless kept, is e_i itself),
    then computes and keeps every row on the way back up, so a read stores
    only rows on its own chain and no recursion deepens with N.  Its line
    fill computes the missing rows of line i in step order, each from row
    (i, p), which p < m has already written.
    """
    fld = field(N)
    one = fld.one
    of, product, add = fld.interned.of, fld.interned.product, fld.interned.add
    lam = 2 * N // r
    dim = nx * ny * r

    def index(a, b, c):
        return (a * ny + b) * r + c

    def times_x(a, b, c):
        # Y^b X = q^{-2b} X Y^b + eta q^{-2} [b]_{q^2} Y^{b-1} G^{-2}
        main = fld.q_power(lam * c - 2 * b)
        terms = [(index(a + 1, b, c), main) if a + 1 < nx
                 else (index(0, b, c), main * xi)]
        if b and not eta.is_zero():
            terms.append((index(a, b - 1, (c - 2) % r),
                          eta * fld.q_power(lam * c - 2)
                          * q_int(b, fld.q_power(2))))
        return terms

    def times_y(a, b, c):
        k = fld.q_power(-lam * c)
        return [(index(a, b + 1, c), k) if b + 1 < ny
                else (index(a, 0, c), k * zeta)]

    def times_g(a, b, c):
        return [(index(a, b, (c + 1) % r), one)]

    exps = [(a, b, c) for a in range(nx) for b in range(ny) for c in range(r)]
    gens = {}
    if nx > 1:
        gens[index(1, 0, 0)] = times_x
    if ny > 1:
        gens[index(0, 1, 0)] = times_y
    if r > 1:
        gens[index(0, 0, 1)] = times_g
    basis = list(range(dim))  # one int object per index, shared by rows
    # e_k e_s for every basis element and generator, packed
    right = {s: [tuple([x for t, d in gen(*e) if not d.is_zero()
                        for x in (basis[t], of(d))]) for e in exps]
             for s, gen in gens.items()}
    steps = []
    for m, (a, b, c) in enumerate(exps[1:], 1):
        if c:
            steps.append((m, m - 1, index(0, 0, 1)))
        elif b:
            steps.append((m, m - r, index(0, 1, 0)))
        else:
            steps.append((m, m - ny * r, index(1, 0, 0)))
    parent = [0] * dim
    column = [()] * dim
    for m, p, s in steps:
        parent[m] = p
        column[m] = right[s]

    def fill(i, m, ms=None):
        # row (i, m), along m's step chain from the first row kept; or,
        # given ms, the rows (i, m) of a line fill for m in ms, in step order
        base = i * dim
        if ms is None:
            if not m:
                return (basis[i], 1)  # e_i itself, id 1 is one
            ms = []
            while m and slots[base + m] is None:
                ms.append(m)
                m = parent[m]
            ms.reverse()
        row = None
        for m in ms:
            row = slots[base + parent[m]]
            if row is None:  # p = 0 and row (i, 0) not kept: e_i
                row = (basis[i], 1)
            if row:
                rs = column[m]
                # one term by one: summing it as below made verify-n3
                # 3.2 % slower (10 of 10 pairs, BENCH_38.json)
                if len(row) == 2 and len(rs[row[0]]) == 2:
                    t, d = rs[row[0]]  # nonzero
                    c = row[1]
                    row = (t, c if d == 1 else product(c, d))
                else:
                    out: dict = {}
                    it = iter(row)
                    for k, c in zip(it, it):
                        ts = iter(rs[k])
                        for t, d in zip(ts, ts):
                            add(out, t, product(c, d))
                    row = _packed(out)
            slots[base + m] = row
        return row

    def lines(i):
        base = i * dim
        if slots[base] is None:
            slots[base] = (basis[i], 1)
        fill(i, 0, [m for m in range(1, dim) if slots[base + m] is None])

    mul = _Table(dim, fld.interned.values, fill, lines)
    slots = mul.slots
    alg = FiniteAlgebra(fld, labels, mul, {0: one})
    alg.steps = tuple(steps)
    return alg


@lru_cache(maxsize=None)
def build_gr_uq(N: int) -> HopfAlgebraData:
    """Associated graded Hopf algebra on the basis x^i y^j g^k.

    The product is skew_pbw_algebra at xi = zeta = eta = 0 and r = N, and
    the antipode is solved by solve_antipode along the builder's steps, as
    for u_q: the Delta rule on x, y, g, then S(e_p e_s) = S(e_s) S(e_p).
    The coproduct's coefficients multiply through the field's memo.
    Cached per N; the result is read-only.
    """
    check_order(N)
    fld = field(N)
    lam = fld.q_power(2)

    labels = []
    degrees = []
    for i in range(N):
        for j in range(N):
            for k in range(N):
                labels.append(f"x{i}y{j}g{k}")
                degrees.append(i + j)
    alg = skew_pbw_algebra(N, N, N, N, fld.zero, fld.zero, fld.zero, labels)
    times = fld.interned.times

    comul: dict = {}
    counit: dict = {}
    for i in range(N):
        for j in range(N):
            for k in range(N):
                m = monomial_index(N, i, j, k)
                terms = []
                for r in range(i + 1):
                    br = q_binomial(i, r, lam)
                    for s in range(j + 1):
                        c = times(times(br, q_binomial(j, s, lam)),
                                  fld.q_power(2 * (r * (j - s) - r * (i - r))))
                        left = monomial_index(
                            N, i - r, j - s, (k - r - s) % N)
                        right = monomial_index(N, r, s, k)
                        terms.append((left, right, c))
                comul[m] = tuple(terms)
                if i == 0 and j == 0:
                    counit[m] = fld.one
    co = FiniteCoalgebra(fld, labels, comul, counit)
    antipode = solve_antipode(alg, co)
    return HopfAlgebraData(alg, co, antipode, degrees=degrees)


def gr_generators(N: int) -> dict:
    """Named elements of gr(u_q) as sparse vectors."""
    fld = field(N)
    return {
        "one": {monomial_index(N, 0, 0, 0): fld.one},
        "x": {monomial_index(N, 1, 0, 0): fld.one},
        "y": {monomial_index(N, 0, 1, 0): fld.one},
        "g": {monomial_index(N, 0, 0, 1): fld.one},
        "ginv": {monomial_index(N, 0, 0, N - 1): fld.one},
    }


@lru_cache(maxsize=None)
def build_dual_functionals(N: int):
    """xi1, xi2, alpha and the counit as linear forms on gr(u_q).

    <xi1, x^i y^j g^k> = [i=1][j=0] q^{-2k},
    <xi2, x^i y^j g^k> = [i=0][j=1],
    <alpha, x^i y^j g^k> = [i=0][j=0] q^{-2k}.
    """
    H = build_gr_uq(N)
    fld = H.field
    xi1 = ConvForm(H, 1, {
        (monomial_index(N, 1, 0, k),): fld.q_power(-2 * k) for k in range(N)})
    xi2 = ConvForm(H, 1, {
        (monomial_index(N, 0, 1, k),): fld.one for k in range(N)})
    alpha = ConvForm(H, 1, {
        (monomial_index(N, 0, 0, k),): fld.q_power(-2 * k) for k in range(N)})
    return read_only({"xi1": xi1, "xi2": xi2, "alpha": alpha,
                      "eps": ConvForm.unit(H, 1)})


def q_exponential(f: ConvForm, lam) -> ConvForm:
    """exp_lam(f) = sum_r f^{*r} / (r)_lam!; needs f^{*N} = 0 (N = field order)."""
    N = f.hopf.field.order
    out = ConvForm.unit(f.hopf, f.arity)
    p = out
    for r in range(1, N):
        p = convolution(p, f)
        out = out + p.scale(q_factorial(r, lam).inverse())
    p = convolution(p, f)
    if not p.is_zero():
        raise ValueError(f"q-exponential needs a nilpotent form: f^{N} != 0")
    return out


@lru_cache(maxsize=None)
def build_sigma(N: int) -> ConvForm:
    """The Hopf 2-cocycle sigma = exp_{q^2}(xi1 (x) xi2) on gr(u_q)."""
    duals = build_dual_functionals(N)
    fld = field(N)
    return q_exponential(ConvForm.tensor(duals["xi1"], duals["xi2"]),
                         fld.q_power(2))


def sigma_closed_coords(N: int) -> dict:
    """Closed form: sigma(x^i y^j g^k, x^i' y^j' g^k')
    = [j=0][i'=0][j'=i] (i)_{q^2}! q^{-2ik}."""
    lam = field(N).q_power(2)
    return _sigma_shaped(N, [q_factorial(i, lam) for i in range(N)])


def _sigma_shaped(N: int, scalars) -> dict:
    """The coordinates (x^i g^k, y^i g^k') -> scalars[i] q^{-2ik}, the shape
    of sigma and of its inverse."""
    fld = field(N)
    coords = {}
    for i, c in enumerate(scalars):
        for k1 in range(N):
            left = monomial_index(N, i, 0, k1)
            cc = c * fld.q_power(-2 * i * k1)
            for k2 in range(N):
                coords[(left, monomial_index(N, 0, i, k2))] = cc
    return coords


@lru_cache(maxsize=None)
def build_sigma_inverse(N: int) -> ConvForm:
    """Convolution inverse of sigma, from the inverse power series of
    exp_{q^2}.  The two-sided law is not checked here: the cocycle suite
    proves it as the claims sigma-inverse-left and sigma-inverse-right."""
    sigma = build_sigma(N)
    fld = sigma.hopf.field
    lam = fld.q_power(2)
    # coefficients of the series inverse of sum_r u^r / (r)_lam! in k[u]/u^N
    c = [fld.one]
    for r in range(1, N):
        acc = fld.zero
        for a in range(r):
            acc = acc + c[a] / q_factorial(r - a, lam)
        c.append(-acc)
    return ConvForm(sigma.hopf, 2, _sigma_shaped(
        N, [c[i] * q_factorial(i, lam) ** 2 for i in range(N)]))


def uq_labels(N: int):
    return [f"Et{i}F{j}K{k}" for i in range(N)
            for j in range(N) for k in range(N)]


@lru_cache(maxsize=None)
def build_uq(N: int) -> HopfAlgebraData:
    """u_q(sl2) as the full cocycle deformation of gr(u_q).

    Generators in the deformed algebra: Et = x, F = y, K = g.  The table is
    deform_hopf's slice table, each product exactly the sigma formula,
    computed on its first read.  The antipode follows gr(u_q)'s steps, so a
    cold build reads 287 rows at N = 5 and 793 at N = 7 (dimension 343);
    after import, gr(u_q) and sigma included, it takes about 0.02 s of CPU
    time at N = 5 and 0.1 s at N = 7 (21 MB peak) on a 2-vCPU host.
    Nothing is checked here: uq_relation_report (the deformation suite)
    proves the defining relations and the antipode's closed forms.
    """
    H = build_gr_uq(N)
    sigma = build_sigma(N)
    sigma_inv = build_sigma_inverse(N)
    return deform_hopf(H, sigma, sigma_inv, labels=uq_labels(N))


def uq_generators(N: int) -> dict:
    """Named u_q elements as vectors on the shared monomial basis."""
    fld = field(N)
    qs = fld.q
    return {
        "one": {monomial_index(N, 0, 0, 0): fld.one},
        "Et": {monomial_index(N, 1, 0, 0): fld.one},
        "F": {monomial_index(N, 0, 1, 0): fld.one},
        "K": {monomial_index(N, 0, 0, 1): fld.one},
        "Kinv": {monomial_index(N, 0, 0, N - 1): fld.one},
        # E = (q - q^-1)^{-1} K * Et = (q - q^-1)^{-1} q^2 xg
        "E": {monomial_index(N, 1, 0, 1):
              (qs - qs.inverse()).inverse() * fld.q_power(2)},
    }


def uq_z_element(N: int, alpha, beta, gamma) -> dict:
    """Z = alpha Et + beta F + gamma K^{-1} in u_q, for field elements
    alpha, beta, gamma."""
    gen = uq_generators(N)
    Z: dict = {}
    for name, coef in (("Et", alpha), ("F", beta), ("Kinv", gamma)):
        for k, c in vec_scale(gen[name], coef).items():
            vec_add_into(Z, k, c)
    return Z


def uq_relation_report(N: int, uq=None) -> VerificationReport:
    """Check the defining relations of u_q in both generator systems, its
    coproduct on the generators, the antipode axioms on the basis elements
    each generator is made of, and the closed forms S(E) = -E K^-1 and
    S(F) = -K F against the solved antipode.

    uq is the Hopf data, by default build_uq(N); corrupted data can be
    passed to see the report fail.
    """
    check_order(N)
    if uq is None:
        uq = build_uq(N)
    fld = uq.field
    mult = uq.algebra
    co = uq.coalgebra
    gen = uq_generators(N)
    one, Et, F, K, Kinv, E = (gen[k] for k in
                              ("one", "Et", "F", "K", "Kinv", "E"))
    qs = fld.q
    q2 = fld.q_power(2)
    rep = VerificationReport({"N": N, "generators": "Et/F/K and E/F/K"})

    def mulv(a, b):
        return mult.mul_vec(a, b)

    def check(claim, anchor, lhs, rhs):
        ok = lhs == rhs
        rep.add(claim, anchor, ok,
                None if ok else {"lhs": vec_str(lhs, uq.labels),
                                 "rhs": vec_str(rhs, uq.labels)})

    zero: dict = {}
    check("uq-Et-nilpotent", "relation-Et^N", mult.pow_vec(Et, N), zero)
    check("uq-F-nilpotent", "relation-F^N", mult.pow_vec(F, N), zero)
    check("uq-K-order", "relation-K^N", mult.pow_vec(K, N), one)
    check("uq-K-Et", "relation-KEt", mulv(K, Et), vec_scale(mulv(Et, K), q2))
    check("uq-K-F", "relation-KF", mulv(K, F),
          vec_scale(mulv(F, K), fld.q_power(-2)))
    kinv2 = mulv(Kinv, Kinv)
    check("uq-Et-F", "relation-EtF",
          vec_sub(mulv(Et, F), vec_scale(mulv(F, Et), q2)),
          vec_sub(one, kinv2))

    check("uq-K-E", "relation-KE", mulv(K, E), vec_scale(mulv(E, K), q2))
    check("uq-E-nilpotent", "relation-E^N", mult.pow_vec(E, N), zero)
    coef = (qs - qs.inverse()).inverse()
    check("uq-E-F", "relation-EF",
          vec_sub(mulv(E, F), mulv(F, E)),
          vec_scale(vec_sub(K, Kinv), coef))

    # comultiplication on generators (the coalgebra is undeformed)
    check("uq-comul-K", "coproduct-K", co.comul_vec(K), tensor_vec(K, K))
    check("uq-comul-Et", "coproduct-Et", co.comul_vec(Et),
          _tensor_sum(tensor_vec(Et, one), tensor_vec(Kinv, Et)))
    check("uq-comul-F", "coproduct-F", co.comul_vec(F),
          _tensor_sum(tensor_vec(F, one), tensor_vec(Kinv, F)))
    check("uq-comul-E", "coproduct-E", co.comul_vec(E),
          _tensor_sum(tensor_vec(E, K), tensor_vec(one, E)))

    # the antipode axioms on each basis element of a generator's support,
    # then the closed forms of the solved antipode
    for name, v in (("Et", Et), ("F", F), ("K", K), ("E", E)):
        sides = (_antipode_sides(uq, i) for i in v)
        rep.add(f"uq-antipode-axiom-{name}", "antipode-axiom-generators",
                all(left == target and right == target
                    for left, right, target in sides), None)
    check("uq-antipode-E", "antipode-E", vec_combine(uq.antipode, E.items()),
          vec_scale(mulv(E, Kinv), -fld.one))
    check("uq-antipode-F", "antipode-F", vec_combine(uq.antipode, F.items()),
          vec_scale(mulv(K, F), -fld.one))
    return rep


def _tensor_sum(*tensors) -> dict:
    out: dict = {}
    for t in tensors:
        for k, c in t.items():
            vec_add_into(out, k, c)
    return out


def verify_dual_relations(N: int, pairs=None) -> VerificationReport:
    """Relations among alpha, xi1, xi2 in the convolution algebra, their
    powers in closed form, and their behaviour on the planned pairs of
    products (hopfcore._planned; None is every pair).

    The product rules say that alpha is a character, xi1 is
    (alpha, eps)-skew-primitive, xi1(xy) = xi1(x) alpha(y) + eps(x) xi1(y),
    and xi2 is (eps, alpha)-skew-primitive,
    xi2(xy) = xi2(x) eps(y) + alpha(x) xi2(y); each rule is bilinear in
    (x, y).  A full plan checks them, with eps as a fourth character
    rule, on the pairs (a, s), s = 0 or a generator (_generator_plan), by
    the step identity xi1(x e_p e_s) = xi1(x e_p) alpha(e_s)
    + eps(x e_p) xi1(e_s) = xi1(x) alpha(e_p e_s) + eps(x) xi1(e_p e_s),
    its mirror for xi2 and f(x e_p e_s) = f(x) f(e_p) f(e_s) for the
    characters alpha and eps.
    """
    d = build_dual_functionals(N)
    xi1, xi2, alpha, eps = d["xi1"], d["xi2"], d["alpha"], d["eps"]
    H = eps.hopf
    pairs = _planned(pairs, H.dim, 2)
    fld = H.field
    lam = fld.q_power(2)
    q2 = fld.q_power(2)
    rep = VerificationReport({"N": N})

    rep.add("dual-alpha-xi1", "functional-relation-alpha-xi1",
            convolution(alpha, xi1) == convolution(xi1, alpha).scale(q2), None)
    rep.add("dual-alpha-xi2", "functional-relation-alpha-xi2",
            convolution(alpha, xi2) == convolution(xi2, alpha).scale(q2), None)
    rep.add("dual-xi1-xi2", "functional-relation-xi1-xi2",
            convolution(xi1, xi2) == convolution(xi2, xi1), None)
    rep.add("dual-alpha-order", "alpha-power-N",
            alpha.conv_pow(N) == eps, None)
    rep.add("dual-xi1-nilpotent", "xi1-power-N",
            xi1.conv_pow(N).is_zero(), None)
    rep.add("dual-xi2-nilpotent", "xi2-power-N",
            xi2.conv_pow(N).is_zero(), None)

    ok = True
    witness = None
    p1 = eps
    p2 = eps
    for m in range(1, N):
        p1 = convolution(p1, xi1)
        p2 = convolution(p2, xi2)
        fac = q_factorial(m, lam)
        want1 = ConvForm(H, 1, {
            (monomial_index(N, m, 0, k),): fac * fld.q_power(-2 * k * m)
            for k in range(N)})
        want2 = ConvForm(H, 1, {
            (monomial_index(N, 0, m, k),): fac for k in range(N)})
        if p1 != want1 or p2 != want2:
            ok = False
            witness = {"power": m}
            break
    rep.add("dual-power-closed-form", "xi-powers-closed-form", ok, witness)

    # product rules, as (name, f, f(e_a e_b) by the rule); the first
    # failing rule of a pair names it
    rules = (
        ("alpha", alpha, lambda a, b: alpha(a) * alpha(b)),
        ("xi1", xi1, lambda a, b: xi1(a) * alpha(b) + eps(a) * xi1(b)),
        ("xi2", xi2, lambda a, b: xi2(a) * eps(b) + alpha(a) * xi2(b)),
        ("eps", eps, lambda a, b: eps(a) * eps(b)),
    )
    alg = H.algebra

    def failures(plan):
        # eps is a rule on the reduced pairs only: their steps need it
        checked = rules if plan is reduced else rules[:3]
        bad = []
        for (a, b) in plan:
            prod = dict(alg.mul[(a, b)])
            for name, f, rule in checked:
                if f.eval_vecs(prod) != rule(a, b):
                    bad.append((name, H.labels[a], H.labels[b]))
                    break
        return bad

    reduced = _generator_plan(alg, pairs, lead=(0,), proved=(alg,))
    bad = _plan_failures(failures, pairs, reduced)
    rep.add_failures("dual-product-rules", "functionals-on-products", bad,
                     pairs)
    return rep


def closed_comultiplication_report(N: int) -> VerificationReport:
    """Recompute every Delta(x^i y^j g^k) as Delta(x)^i Delta(y)^j Delta(g)^k
    in the tensor square and compare with the tabulated closed form.  Each
    product extends its prefix by one factor, left to right."""
    H = build_gr_uq(N)
    fld = H.field
    alg = H.algebra
    rep = VerificationReport({"N": N})
    gen = gr_generators(N)
    dx = H.coalgebra.comul_vec(gen["x"])
    dy = H.coalgebra.comul_vec(gen["y"])
    dg = H.coalgebra.comul_vec(gen["g"])
    unit_t = tensor_vec(gen["one"], gen["one"])
    times = fld.interned.times

    bad = []
    dxi = unit_t
    for i in range(N):
        if i:
            dxi = t2_mul(alg, alg, dxi, dx, times)
        dxy = dxi
        for j in range(N):
            if j:
                dxy = t2_mul(alg, alg, dxy, dy, times)
            got = dxy
            for k in range(N):
                if k:
                    got = t2_mul(alg, alg, got, dg, times)
                m = monomial_index(N, i, j, k)
                want: dict = {}
                for jj, kk, c in H.coalgebra.comul.get(m, ()):
                    vec_add_into(want, (jj, kk), c)
                if got != want:
                    bad.append(H.labels[m])
    rep.add_failures("gr-comultiplication-closed-form",
                     "closed-coproduct-vs-product", bad)
    return rep
