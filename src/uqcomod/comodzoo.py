"""The zoo of exact comodule algebras over gr(u_q) and their deformations.

Undeformed families (all over H = gr(u_q), q of odd order N, r | N):

  L0(r):          G^r = 1
  L1(r; xi):      + X^N = xi, G X = q^{2N/r} X G
  L2(r; zeta):    + Y^N = zeta, G Y = q^{-2N/r} Y G
  L3(r; xi,zeta): X and Y together, X Y = q^2 Y X
  L3N(xi,zeta,eta): r = N and X Y - q^2 Y X = -eta G^{-2}
  L4(alpha,beta; xi): one generator W, W^N = xi, (alpha,beta) != (0,0)

with coactions delta(G) = g^{N/r} (x) G, delta(X) = x (x) 1 + g^{-1} (x) X,
delta(Y) = y (x) 1 + g^{-1} (x) Y, delta(W) = (alpha x + beta y) (x) 1
+ g^{-1} (x) W.  Deforming by the cocycle sigma gives the A-versions over
u_q; the same coaction tables serve both sides.

Builders are cached per parameter tuple and their results are read-only:
the tables are packed tables behind a read-only view (hopfcore._Table),
and the coaction is held as a mapping proxy.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache

from .cyclofield import CyclotomicNumber, field
from .exactlinalg import (
    Poly,
    SparseEchelon,
    Subspace,
    kernel_of_sparse_columns,
    minimal_polynomial_of_element,
    solve,
    squarefree_check,
)
from .hopfcore import (
    ComoduleAlgebra,
    check_comodule_algebra_morphism,
    conjugate_comodule_algebra,
    costable_closure,
    deform_comodule_algebra,
    read_only,
    regular_comodule_algebra,
    t2_mul,
    vec_add_into,
    vec_combine,
    vec_scale,
    vec_str,
    vec_sub,
)
from .polyid import phi_polynomial, power_sum_P
from .reporting import VerificationReport
from .uqsl2 import (
    build_gr_uq,
    build_sigma,
    build_uq,
    check_order,
    monomial_index,
    skew_pbw_algebra,
    uq_z_element,
)

# Each family's parameters, in the order zoo_params coerces them, and its
# skew-PBW generators besides G (X stands for W in L4).
_FAMILIES = {
    "L0": ((), ""),
    "L1": (("xi",), "X"),
    "L2": (("zeta",), "Y"),
    "L3": (("xi", "zeta"), "XY"),
    "L3N": (("xi", "zeta", "eta"), "XY"),
    "L4": (("alpha", "beta", "xi"), "X"),
}


class FamilyParams(namedtuple("FamilyParams",
                               "family N r xi zeta eta alpha beta",
                               defaults=(None,) * 5)):
    """Validated parameter tuple for one member of the zoo; the fields after
    r are CyclotomicNumber coefficients or None, and are the package's one
    list of parameter names.  Frozen, compared and hashed as a tuple."""

    __slots__ = ()

    def expected_dim(self) -> int:
        f = self.family
        if f == "L0":
            return self.r
        if f in ("L1", "L2"):
            return self.N * self.r
        if f == "L3":
            return self.N * self.N * self.r
        if f == "L3N":
            return self.N ** 3
        return self.N  # L4

    def normalized(self) -> "FamilyParams":
        """Fold coincidences: L1/L2 at r = 1 are L4 instances, L3 at r = N
        is L3N with eta = 0."""
        fld = field(self.N)
        if self.family == "L1" and self.r == 1:
            return zoo_params("L4", self.N, alpha=fld.one, beta=fld.zero,
                              xi=self.xi)
        if self.family == "L2" and self.r == 1:
            return zoo_params("L4", self.N, alpha=fld.zero, beta=fld.one,
                              xi=self.zeta)
        if self.family == "L3" and self.r == self.N:
            return zoo_params("L3N", self.N, xi=self.xi, zeta=self.zeta,
                              eta=fld.zero)
        return self

    def label(self) -> str:
        parts = [f"N={self.N}"]
        if self.family != "L4":
            parts.append(f"r={self.r}")
        for name, v in zip(self._fields[3:], self[3:]):
            if v is not None:
                parts.append(f"{name}={v}")
        return f"{self.family}({', '.join(parts)})"


def _coerce(fld, value, default=None):
    if value is None:
        value = default
    if value is None:
        return None
    if isinstance(value, CyclotomicNumber):
        if value.field != fld:
            raise ValueError("coefficient from the wrong field")
        return value
    if isinstance(value, str):
        return fld.parse(value)
    return fld.from_rational(value)


def zoo_params(family: str, N: int, r: int = None, xi=None, zeta=None,
               eta=None, alpha=None, beta=None) -> FamilyParams:
    """Validate and normalise raw inputs into a FamilyParams; a parameter
    outside the family's entry in _FAMILIES is refused, not dropped."""
    check_order(N)
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    fld = field(N)
    if family == "L3N":
        if r not in (None, N):
            raise ValueError("L3N requires r = N")
        r = N
    elif family == "L4":
        if r not in (None, 1):
            raise ValueError("L4 takes no r parameter")
        r = 1
    else:
        r = N if r is None else r
        if not (isinstance(r, int) and 1 <= r <= N and N % r == 0):
            raise ValueError(f"r must divide N, got r={r}, N={N}")

    names = _FAMILIES[family][0]
    given = dict(zip(FamilyParams._fields[3:], (xi, zeta, eta, alpha, beta)))
    for name, value in given.items():
        if value is not None and name not in names:
            raise ValueError(f"{family} takes no {name} parameter")
    kwargs = {name: _coerce(fld, given[name], 0) for name in names}
    if family == "L4" and kwargs["alpha"].is_zero() \
            and kwargs["beta"].is_zero():
        raise ValueError("L4 requires (alpha, beta) != (0, 0)")
    return FamilyParams(family=family, N=N, r=r, **kwargs)


def _pbw_shape(params: FamilyParams) -> tuple:
    """(nx, ny, r) of the member's skew-PBW basis X^a Y^b G^c; L4 is the
    X-only shape (N, 1, 1) with W in place of X."""
    N, gens = params.N, _FAMILIES[params.family][1]
    return (N if "X" in gens else 1), (N if "Y" in gens else 1), params.r


def family_basis_exponents(params: FamilyParams):
    """Exponent tuples of the monomial basis, in index order."""
    nx, ny, r = _pbw_shape(params)
    if params.family == "L4":
        return [(a,) for a in range(nx)]
    return [(a, b, c) for a in range(nx) for b in range(ny) for c in range(r)]


def _family_label(f, exp):
    if f == "L4":
        return f"W{exp[0]}"
    gens = _FAMILIES[f][1] + "G"
    return "".join(f"{g}{e}" for g, e in zip("XYG", exp) if g in gens)


@lru_cache(maxsize=None)
def build_family(params: FamilyParams) -> ComoduleAlgebra:
    """The undeformed family member as a comodule algebra over gr(u_q);
    its table and coaction keep canonical objects (field(N).interned)."""
    N, f = params.N, params.family
    fld = field(N)
    zero, one = fld.zero, fld.one
    H = build_gr_uq(N)
    nx, ny, r = _pbw_shape(params)
    labels = [_family_label(f, e) for e in family_basis_exponents(params)]
    alg = skew_pbw_algebra(N, nx, ny, r, params.xi or zero,
                           params.zeta or zero, params.eta or zero, labels)

    # coactions of the generators X (or W), Y and G, by basis index
    ginv = monomial_index(N, 0, 0, N - 1)
    gens = {}
    if f == "L4":
        gens[1] = {(h, 0): c for h, c in
                   ((monomial_index(N, 1, 0, 0), params.alpha),
                    (monomial_index(N, 0, 1, 0), params.beta))
                   if not c.is_zero()}
        gens[1][(ginv, 1)] = one
    else:
        if nx > 1:
            gens[ny * r] = {(monomial_index(N, 1, 0, 0), 0): one,
                            (ginv, ny * r): one}
        if ny > 1:
            gens[r] = {(monomial_index(N, 0, 1, 0), 0): one, (ginv, r): one}
        if r > 1:
            gens[1] = {(monomial_index(N, 0, 0, N // r), 1): one}
    # delta(e_m) = delta(e_p) delta(e_s) along the builder's steps
    deltas = [{(monomial_index(N, 0, 0, 0), 0): one}]
    times, canonical = fld.interned.times, fld.interned.canonical
    for m, p, s in alg.steps:
        deltas.append(t2_mul(H.algebra, alg, deltas[p], gens[s], times))
    coaction = {m: tuple(sorted((k, canonical(c)) for k, c in d.items()))
                for m, d in enumerate(deltas)}
    return ComoduleAlgebra(alg, H, coaction, _params_dict(params))


def _params_dict(params: FamilyParams) -> dict:
    return {k: v for k, v in params._asdict().items() if v is not None}


@lru_cache(maxsize=None)
def deform_family(params: FamilyParams) -> ComoduleAlgebra:
    """The sigma-deformed family member, a comodule algebra over u_q."""
    L = build_family(params)
    return deform_comodule_algebra(L, build_sigma(params.N),
                                   build_uq(params.N))


def _family_generators(params: FamilyParams, A: ComoduleAlgebra) -> dict:
    exps = family_basis_exponents(params)
    index = {e: i for i, e in enumerate(exps)}
    fld = A.field
    out = {"one": A.algebra.unit_vec()}
    if params.family == "L4":
        out["W"] = {1: fld.one}
        return out
    for g, e in zip("XYG", ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        if e in index:
            out[g] = {index[e]: fld.one}
    return out


def verify_family_presentation(params: FamilyParams) -> VerificationReport:
    """Dimension and defining relations of the undeformed family member."""
    A = build_family(params)
    return _presentation_report(params, A, deformed=False)


def verify_deformed_presentation(params: FamilyParams) -> VerificationReport:
    """Defining relations of the deformed member (the A-version)."""
    A = deform_family(params)
    return _presentation_report(params, A, deformed=True)


def _presentation_report(params, A, deformed) -> VerificationReport:
    N, r, f = params.N, params.r, params.family
    fld = A.field
    alg = A.algebra
    tag = "deformed" if deformed else "plain"
    rep = VerificationReport({"params": params.label(), "deformed": deformed})
    gen = _family_generators(params, A)
    one = gen["one"]

    def check(claim, lhs, rhs):
        ok = lhs == rhs
        rep.add(f"{f}-{tag}-{claim}", f"presentation-{claim}", ok,
                None if ok else {"lhs": vec_str(lhs, alg.labels),
                                 "rhs": vec_str(rhs, alg.labels)})

    rep.add(f"{f}-{tag}-dim", "family-dimension",
            alg.dim == params.expected_dim(),
            None if alg.dim == params.expected_dim() else
            {"dim": alg.dim, "expected": params.expected_dim()})

    if f == "L4":
        W = gen["W"]
        if deformed:
            phi = phi_polynomial(params.alpha, params.beta, params.xi, N)
            check("phi-of-W", eval_poly_in_algebra(alg, phi, W), {})
        else:
            check("W-power", alg.pow_vec(W, N), vec_scale(one, params.xi))
        return rep

    if "G" in gen:
        check("G-order", alg.pow_vec(gen["G"], r), one)
    if "X" in gen:
        check("X-power", alg.pow_vec(gen["X"], N),
              vec_scale(one, params.xi))
        if "G" in gen:
            check("G-X", alg.mul_vec(gen["G"], gen["X"]),
                  vec_scale(alg.mul_vec(gen["X"], gen["G"]),
                            fld.q_power(2 * N // r)))
    if "Y" in gen:
        check("Y-power", alg.pow_vec(gen["Y"], N),
              vec_scale(one, params.zeta))
        if "G" in gen:
            check("G-Y", alg.mul_vec(gen["G"], gen["Y"]),
                  vec_scale(alg.mul_vec(gen["Y"], gen["G"]),
                            fld.q_power(-2 * N // r)))
    if "X" in gen and "Y" in gen:
        comm = vec_sub(alg.mul_vec(gen["X"], gen["Y"]),
                       vec_scale(alg.mul_vec(gen["Y"], gen["X"]),
                                 fld.q_power(2)))
        if deformed:
            target = dict(one)
        else:
            target = {}
        if f == "L3N" and not params.eta.is_zero():
            gm2 = alg.pow_vec(gen["G"], N - 2)
            for k, c in vec_scale(gm2, params.eta).items():
                vec_add_into(target, k, -c)
        check("XY-commutation", comm, target)
    return rep


def eval_poly_in_algebra(alg, poly: Poly, v: dict) -> dict:
    """Horner evaluation of a univariate polynomial at an algebra element."""
    out: dict = {}
    for c in reversed(poly.coeffs):
        out = alg.mul_vec(out, v)
        for k, d in vec_scale(alg.unit_vec(), c).items():
            vec_add_into(out, k, d)
    return out


# ---------------------------------------------------------------------------
# filtration, socle and simplicity
# ---------------------------------------------------------------------------


class LoewyFiltration:
    """A_n = delta^{-1}(H_n (x) A) for the degree filtration H_n of H."""

    __slots__ = ("comodule", "spaces")

    def __init__(self, comodule: ComoduleAlgebra, spaces):
        self.comodule = comodule
        self.spaces = tuple(spaces)

    @property
    def dims(self):
        return tuple(s.dim for s in self.spaces)

    @property
    def socle(self) -> Subspace:
        return self.spaces[0]

    def respects_products(self) -> bool:
        """A_m A_n inside A_{m+n} (the filtered-algebra property).

        Running the layers through one echelon gives a basis adapted to the
        filtration, b of degree k when A_k is the first layer holding b; it
        is enough that b_i b_j lies in A_{deg i + deg j} for every pair.
        """
        A = self.comodule
        ech = SparseEchelon(A.field)
        basis, layers = [], []
        for k, space in enumerate(self.spaces):
            for row in space.basis:
                b = ech.add(row)
                if b is not None:
                    basis.append((k, b))
            if ech.rank != space.dim:
                raise ValueError("the layers of a filtration must be nested")
            layers.append(SparseEchelon(A.field, ech.rows))
        top = len(layers) - 1
        mul = A.algebra.mul_vec
        return not any(layers[min(m + n, top)].reduce(mul(u, w))
                       for m, u in basis for n, w in basis)


def loewy_filtration(A: ComoduleAlgebra) -> LoewyFiltration:
    spaces = [socle(A)]
    for n in range(1, max(A.over.degrees) + 1):
        if spaces[-1].dim == A.dim:
            break
        spaces.append(_loewy_layer(A, n))
    return LoewyFiltration(A, spaces)


def socle(A: ComoduleAlgebra) -> Subspace:
    """delta^{-1}(H_0 (x) A), the bottom Loewy layer."""
    return _loewy_layer(A, 0)


def _loewy_layer(A: ComoduleAlgebra, n: int) -> Subspace:
    """delta^{-1}(H_n (x) A), computed once per coaction side."""
    def kernel(side):
        degs = side.degrees
        if degs is None:
            raise ValueError("the Hopf algebra carries no degree data")
        cols = [{key: c for key, c in side.coaction.get(i, ())
                 if degs[key[0]] > n} for i in range(side.dim)]
        return kernel_of_sparse_columns(side.field, cols, side.dim)

    return A.side.once(("loewy", n), kernel)


def morita_invariant_d(A: ComoduleAlgebra) -> tuple:
    """The pair (dim A / dim socle, dim socle); constant across equivalent
    right H-simple members."""
    s = socle(A).dim
    return (Fraction(A.dim, s), s)


def coefficient_coalgebra(A: ComoduleAlgebra) -> Subspace:
    """Span in H of all H-legs of the coaction (the coefficient coalgebra)."""
    ech = SparseEchelon(A.field)
    for i in range(A.dim):
        per_a: dict = {}
        for (h, a), c in A.coaction.get(i, ()):
            per_a.setdefault(a, {})[h] = c
        for comp in per_a.values():
            ech.add(comp)
    return ech.subspace(A.over.dim)


def _weight_spaces_of_socle(A: ComoduleAlgebra) -> tuple:
    """Grouplike weight decomposition of the socle, computed once per
    coaction side: a tuple of (grouplike index, tuple of read-only ambient
    weight vectors)."""
    soc = socle(A)

    def weights(side):
        basis = soc.basis
        out = []
        for g0 in side.grouplikes:
            cols = []
            for v in basis:
                col = A.coact_vec(v)
                for a, c in v.items():
                    vec_add_into(col, (g0, a), -c)
                cols.append(col)
            ker = kernel_of_sparse_columns(side.field, cols, soc.dim)
            vecs = tuple(read_only(vec_combine(basis, t.items()))
                         for t in ker.basis)
            if vecs:
                out.append((g0, vecs))
        return tuple(out)

    return A.side.once("socle-weights", weights)


def is_right_H_simple(A: ComoduleAlgebra) -> dict:
    """Decide whether A has no proper nonzero H-costable right ideal.

    Each grouplike weight vector of the socle generates a costable right
    ideal, and a proper one is a definitive no.  If none is proper and the
    socle is multiplicity-free over the grouplikes, the yes is proved: any
    nonzero costable ideal meets the socle in a weight line.  Otherwise
    the verdict is None, with method "undecided".
    """
    soc = socle(A)
    weights = _weight_spaces_of_socle(A)
    for _, vs in weights:
        for v in vs:
            closure = costable_closure(
                Subspace.from_vectors(A.field, A.dim, [v]), A)
            if closure.dim < A.dim:
                return {"simple": False, "method": "socle-weights",
                        "socle_dim": soc.dim,
                        "witness": {"ideal_dim": closure.dim,
                                    "generator": vec_str(v, A.labels)}}
    multiplicity_free = all(len(vs) == 1 for _, vs in weights) \
        and len(weights) == soc.dim
    return {"simple": True if multiplicity_free else None,
            "method": "socle-weights" if multiplicity_free else "undecided",
            "socle_dim": soc.dim, "witness": None}


# ---------------------------------------------------------------------------
# the A4 family inside u_q
# ---------------------------------------------------------------------------


def l4_params_from_uv(N: int, u, v, alpha=1) -> FamilyParams:
    """L4 parameters on the (u, v) chart: uv = alpha beta/(1-q^2) and
    xi = u^N + v^N."""
    fld = field(N)
    u = _coerce(fld, u)
    v = _coerce(fld, v)
    alpha = _coerce(fld, alpha)
    if alpha.is_zero():
        raise ValueError("the (u, v) chart needs alpha != 0")
    beta = u * v * (fld.one - fld.q_power(2)) / alpha
    xi = u ** N + v ** N
    return zoo_params("L4", N, alpha=alpha, beta=beta, xi=xi)


def embed_A4_into_uq(N: int, u, v, alpha=1) -> VerificationReport:
    """Realise the deformed L4(alpha, beta; xi) inside u_q by
    W |-> alpha Et + beta F + (u+v) K^{-1}, checking the map is a unital,
    multiplicative, colinear embedding and that the image generator has
    minimal polynomial phi."""
    params = l4_params_from_uv(N, u, v, alpha)
    fld = field(N)
    u = _coerce(fld, u)
    v = _coerce(fld, v)
    A = deform_family(params)
    uq = build_uq(N)
    R = regular_comodule_algebra(uq)
    Z = uq_z_element(N, params.alpha, params.beta, u + v)

    # W^b in the deformed product maps to Z^b; the basis vector W^a maps to
    # sum x_b Z^b for the x solving sum x_b W^b = W^a
    W = {1: fld.one}
    star_powers = [A.algebra.unit_vec()]
    for _ in range(N - 1):
        star_powers.append(A.algebra.mul_vec(star_powers[-1], W))
    zpow = [uq.algebra.unit_vec()]
    for _ in range(N - 1):
        zpow.append(uq.algebra.mul_vec(zpow[-1], Z))

    images = []
    for a in range(N):
        coords = solve(fld, star_powers, {a: fld.one})
        if coords is None:
            raise ArithmeticError("star powers of W do not span")
        images.append(vec_combine(zpow, coords.items()))

    rep = check_comodule_algebra_morphism(images, A, R, expect="injective")
    rep.config["params"] = params.label()
    phi = phi_polynomial(params.alpha, params.beta, params.xi, N)
    minp = minimal_polynomial_of_element(uq.algebra, Z)
    rep.add("embedding-minimal-polynomial", "image-minimal-polynomial",
            minp == phi, None if minp == phi else
            {"minimal": str(minp), "phi": str(phi)})
    return rep


def verify_min_pol_lemma(N: int, alpha, beta, gamma) -> VerificationReport:
    """Minimal polynomial of Z = alpha Et + beta F + gamma K^{-1} in u_q:
    phi-shaped with constant term P_N(gamma, alpha beta/(1-q^2))."""
    fld = field(N)
    alpha = _coerce(fld, alpha)
    beta = _coerce(fld, beta)
    gamma = _coerce(fld, gamma)
    uq = build_uq(N)
    Z = uq_z_element(N, alpha, beta, gamma)
    t_val = alpha * beta / (fld.one - fld.q_power(2))
    const = power_sum_P(N, gamma, t_val)
    formula = phi_polynomial(alpha, beta, const, N)
    rep = VerificationReport({"N": N, "alpha": str(alpha),
                              "beta": str(beta), "gamma": str(gamma)})

    ann = eval_poly_in_algebra(uq.algebra, formula, Z)
    rep.add("minpoly-annihilates", "formula-annihilates", not ann,
            None if not ann else {"value": vec_str(ann, uq.labels)})
    minp = minimal_polynomial_of_element(uq.algebra, Z)
    _, rem = formula.divmod(minp)
    rep.add("minpoly-divides", "minimal-divides-formula", rem.is_zero(),
            None if rem.is_zero() else {"remainder": str(rem)})
    trivial = alpha.is_zero() and beta.is_zero() and gamma.is_zero()
    if trivial:
        expect_equal = minp.degree == 1
    else:
        expect_equal = minp == formula
    rep.add("minpoly-equals", "minimal-equals-formula", expect_equal,
            None if expect_equal else
            {"minimal": str(minp), "formula": str(formula)})
    return rep


def one_dim_reps_A4(N: int, u, v, alpha=1) -> VerificationReport:
    """Characters of the deformed L4 on the (u, v) chart: W -> mu_k with
    mu_k = u q^{2k} + v q^{-2k}; these are exactly the roots of phi."""
    params = l4_params_from_uv(N, u, v, alpha)
    fld = field(N)
    u = _coerce(fld, u)
    v = _coerce(fld, v)
    phi = phi_polynomial(params.alpha, params.beta, params.xi, N)
    rep = VerificationReport({"params": params.label()})

    mus = [u * fld.q_power(2 * k) + v * fld.q_power(-2 * k)
           for k in range(N)]
    bad = [k for k, mu in enumerate(mus) if not phi.eval(mu).is_zero()]
    rep.add("characters-are-roots", "one-dim-reps-roots", not bad,
            {"failing_k": bad} if bad else None)

    prod = Poly.from_rationals(fld, [1])
    for mu in mus:
        prod = prod * Poly(fld, [-mu, fld.one])
    rep.add("phi-factorisation", "phi-product-of-roots", prod == phi,
            None if prod == phi else {"product": str(prod),
                                      "phi": str(phi)})

    # reindexing by q^{2k} is a bijection on exponents mod odd N
    alt = Counter(u * fld.q_power(k) + v * fld.q_power(-k) for k in range(N))
    rep.add("root-reindexing", "root-multiset-reindexed",
            alt == Counter(mus), None)

    distinct = len(set(mus))
    semi = semisimplicity_A4(params)
    rep.add("distinct-roots-match-semisimplicity", "semisimple-iff-distinct",
            (distinct == N) == semi["semisimple"],
            {"distinct": distinct, "semisimple": semi["semisimple"]}
            if (distinct == N) != semi["semisimple"] else None)
    return rep


def semisimplicity_A4(params: FamilyParams) -> dict:
    """Squarefreeness of phi versus the closed discriminant-style criterion
    xi^2 != 4 alpha^N beta^N (1-q^2)^{-N}; the two must agree."""
    if params.family != "L4":
        raise ValueError(f"semisimplicity_A4 needs an L4 member, not "
                         f"{params.label()}")
    N = params.N
    fld = field(N)
    phi = phi_polynomial(params.alpha, params.beta, params.xi, N)
    sf = squarefree_check(phi)
    t_val = params.alpha * params.beta / (fld.one - fld.q_power(2))
    disc = params.xi ** 2 - fld.from_rational(4) * t_val ** N
    closed = not disc.is_zero()
    if sf != closed:
        raise ArithmeticError(
            "squarefree test and closed criterion disagree at "
            + params.label())
    return {"semisimple": sf, "squarefree": sf,
            "criterion_nonzero": closed, "params": params.label()}


# ---------------------------------------------------------------------------
# the equivalence criterion and supporting isomorphisms
# ---------------------------------------------------------------------------


def morita_equivalent_params(p1: FamilyParams, p2: FamilyParams) -> bool:
    """Parameter-level equivalence test for two zoo members over the same N.

    Works on normalised parameters; members of different (normalised)
    families are never equivalent.
    """
    if p1.N != p2.N:
        raise ValueError("members over different orders N")
    N = p1.N
    fld = field(N)
    a, b = p1.normalized(), p2.normalized()
    if a.family != b.family:
        return False
    if a.family not in ("L3N", "L4"):
        return a.r == b.r and all(getattr(a, name) == getattr(b, name)
                                  for name in _FAMILIES[a.family][0])
    if a.family == "L3N":
        if a.xi != b.xi or a.zeta != b.zeta:
            return False
        return any(b.eta == a.eta * fld.q_power(2 * k) for k in range(N))
    # L4: (alpha', beta', xi') = (l q^{2k} alpha, l q^{-2k} beta, l^N xi)
    for k in range(N):
        if not a.alpha.is_zero():
            lam = b.alpha / (a.alpha * fld.q_power(2 * k))
        elif not b.alpha.is_zero():
            continue
        else:
            lam = b.beta / (a.beta * fld.q_power(-2 * k))
        if lam.is_zero():
            continue
        if b.alpha == lam * fld.q_power(2 * k) * a.alpha \
                and b.beta == lam * fld.q_power(-2 * k) * a.beta \
                and b.xi == lam ** N * a.xi:
            return True
    return False


def diagonal_family_map(src: FamilyParams, dst: FamilyParams,
                        x_scale=None, y_scale=None, g_scale=None,
                        w_scale=None, deformed=False):
    """The monomial map X^a Y^b G^c -> sx^a sy^b sg^c X^a Y^b G^c (or
    W^a -> sw^a W^a) between two members with the same basis shape.

    Returns (images, A_src, A_dst) ready for the morphism checker."""
    build = deform_family if deformed else build_family
    A, B = build(src), build(dst)
    exps = family_basis_exponents(src)
    if exps != family_basis_exponents(dst):
        raise ValueError("a monomial map needs two members of one basis shape")
    one = A.field.one
    images = []
    for i, e in enumerate(exps):
        if len(e) == 1:
            s = (w_scale or one) ** e[0]
        else:
            s = ((x_scale or one) ** e[0]) * ((y_scale or one) ** e[1]) \
                * ((g_scale or one) ** e[2])
        images.append({i: s})
    return images, A, B


def conjugation_invariance_report(params: FamilyParams, power: int,
                                  deformed=False) -> VerificationReport:
    """Conjugating the coaction by g^power lands in an isomorphic member:
    the diagonal map with x-scale q^{2 power}, y-scale q^{-2 power} (and the
    matching W-scale rule for L4) is an isomorphism conj(A) -> A."""
    N = params.N
    fld = field(N)
    build = deform_family if deformed else build_family
    A = build(params)
    gidx = monomial_index(N, 0, 0, power % N)
    conj = conjugate_comodule_algebra(A, gidx)
    if params.family == "L4":
        # conj(L4(alpha,beta;xi)) = L4(q^{2m}alpha, q^{-2m}beta; xi)
        rot = zoo_params("L4", N,
                         alpha=params.alpha * fld.q_power(2 * power),
                         beta=params.beta * fld.q_power(-2 * power),
                         xi=params.xi)
        B = build(rot)
        images = [{i: fld.one} for i in range(B.dim)]
    else:
        images, _, B = diagonal_family_map(
            params, params,
            x_scale=fld.q_power(2 * power),
            y_scale=fld.q_power(-2 * power),
            deformed=deformed)
    rep = check_comodule_algebra_morphism(images, conj, B)
    rep.config["conjugating_power"] = power
    return rep


def classify(N: int) -> dict:
    """Machine-readable description of the zoo over gr(u_q) at order N."""
    check_order(N)
    divisors = [d for d in range(1, N + 1) if N % d == 0]
    return {
        "N": N,
        "families": [
            {"name": "F0", "source": "L0", "r_values": divisors,
             "dim": "r", "parameters": list(_FAMILIES["L0"][0]),
             "relations": ["G^r = 1"]},
            {"name": "F1", "source": "L1",
             "r_values": [d for d in divisors if d > 1],
             "dim": "N*r", "parameters": list(_FAMILIES["L1"][0]),
             "relations": ["X^N = xi", "G^r = 1", "G X = q^(2N/r) X G"]},
            {"name": "F2", "source": "L2",
             "r_values": [d for d in divisors if d > 1],
             "dim": "N*r", "parameters": list(_FAMILIES["L2"][0]),
             "relations": ["Y^N = zeta", "G^r = 1", "G Y = q^(-2N/r) Y G"]},
            {"name": "F3", "source": "L3/L3N", "r_values": divisors,
             "dim": "N^2*r", "parameters": list(_FAMILIES["L3"][0]),
             "eta_parameter_when_r_equals_N": True,
             "eta_identification": "eta ~ q^(2k) eta",
             "relations": ["X^N = xi", "Y^N = zeta", "G^r = 1",
                           "G X = q^(2N/r) X G", "G Y = q^(-2N/r) Y G",
                           "X Y - q^2 Y X = -eta G^-2 (eta = 0 unless r = N)"]},
            {"name": "F4", "source": "L4", "r_values": [1],
             "dim": "N", "parameters": list(_FAMILIES["L4"][0]),
             "constraint": "(alpha, beta) != (0, 0)",
             "identification":
                 "(alpha, beta, xi) ~ (l q^(2k) alpha, l q^(-2k) beta, l^N xi)",
             "relations": ["W^N = xi"]},
        ],
        "notes": [
            "L1 at r = 1 equals L4 with (alpha, beta) = (1, 0)",
            "L2 at r = 1 equals L4 with (alpha, beta) = (0, 1)",
            "L3 at r = N equals L3N with eta = 0",
        ],
    }
