"""The zoo of exact comodule algebras over gr(u_q) and their deformations.

The families L0 to L4 (over H = gr(u_q), q of odd order N, r | N) are
written once, as data, in _FAMILIES: generators, relations over gr(u_q)
and u_q, and the coaction on generators.  uqsl2.skew_pbw_algebra fills
the products without reading it, so the presentation claims compare two
independent transcriptions.  Deforming by sigma gives the A-versions
over u_q; the same coaction tables serve both sides.

Builders are cached per parameter tuple and their results are read-only:
the tables are packed tables behind a read-only view (hopfcore._Table),
and the coaction is held as a mapping proxy.
"""

from __future__ import annotations

import re
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
    vec_str,
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

# _FAMILIES writes each family once, as data, in the paper's notation:
#   params      its parameters, in the order zoo_params coerces them;
#   generators  (letter, order, label) in the order X, Y, G: the letter in
#               skew_pbw_algebra's basis X^a Y^b G^c, the order N or r, and
#               the letter of the basis labels (W for L4's X);
#   plain, deformed  its relations (claim, lhs, rhs) over gr(u_q) and u_q;
#   coaction    delta of each generator: (term, a) pairs for term (x) a,
#               term's word in x, y, g of H and a a label or "1".
# A side is a tuple of _Term(sign, q, param, word), param a parameter name
# or None and word a tuple of (letter, power); powers and q-exponents are
# sums of multiples of 1, N, r and N/r (_in_N_r), and phi(W) stands for
# phi_polynomial(alpha, beta, xi, N) at W.
_Term = namedtuple("_Term", "sign q param word")
_Family = namedtuple("_Family", "params generators plain deformed coaction")


def _side(text: str) -> tuple:
    """Parse one side of a relation, such as "X Y - q^2 Y X", "1" or
    "-eta G^(N-2)"; "0" is the empty sum."""
    parts = re.split(r"\s+([+-])\s+(?![^(]*\))", text)
    terms = []
    for op, term in zip(["+"] + parts[1::2], parts[::2]):
        q, param, word = "0", None, []
        for token in re.findall(r"\S*\([^)]*\)|\S+", term.lstrip("-")):
            letter, _, power = token.partition("^")
            if letter == "q":
                q = power
            elif letter in FamilyParams._fields[3:]:
                param = letter
            elif letter.startswith("phi("):
                word.append((letter[4:-1], "phi"))
            elif letter != "1":
                word.append((letter, power or "1"))
        sign = -1 if (op == "-") != term.startswith("-") else 1
        terms.append(_Term(sign, q, param, tuple(word)))
    return () if text == "0" else tuple(terms)


def _in_N_r(expr: str, N: int, r: int) -> int:
    """The integer an exponent such as "N", "-2" or "(2N/r + 1)" stands for."""
    text = expr.strip("()").replace(" ", "")
    if not re.fullmatch(r"([+-]?(\d+|\d*(N/r|N|r)))+", text):
        raise ValueError(f"not an exponent in N and r: {expr!r}")
    units = {"": 1, "N": N, "r": r, "N/r": N // r}
    return sum(int(sign + (k or "1")) * units[unit] for sign, k, unit
               in re.findall(r"([+-]?)(\d*)(N/r|N|r|)", text) if k or unit)


class FamilyParams(namedtuple("FamilyParams",
                               "family N r xi zeta eta alpha beta",
                               defaults=(None,) * 5)):
    """Validated parameter tuple for one member of the zoo; the fields after
    r are CyclotomicNumber coefficients or None, and are the package's one
    list of parameter names.  Frozen, compared and hashed as a tuple."""

    __slots__ = ()

    def expected_dim(self) -> int:
        nx, ny, r = _pbw_shape(self)
        return nx * ny * r

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


def _family(params, generators, plain, deformed=None, coaction=None):
    def relations(rows):
        return tuple((claim, _side(a), _side(b)) for claim, a, b in rows)
    coaction = coaction or _DELTA
    return _Family(params, generators, relations(plain),
                   relations(deformed or plain),
                   {g: tuple((_side(h)[0], a) for h, a in re.findall(
                       r"(.+?) \(x\) (\S+)(?: \+ |$)", coaction[g]))
                    for _, _, g in generators})


_X, _Y, _G = ("X", "N", "X"), ("Y", "N", "Y"), ("G", "r", "G")
_DELTA = {"X": "x (x) 1 + g^(N-1) (x) X", "Y": "y (x) 1 + g^(N-1) (x) Y",
          "G": "g^(N/r) (x) G"}
_G_ORDER = [("G-order", "G^r", "1")]
_X_RELS = [("X-power", "X^N", "xi"), ("G-X", "G X", "q^(2N/r) X G")]
_Y_RELS = [("Y-power", "Y^N", "zeta"), ("G-Y", "G Y", "q^(-2N/r) Y G")]
_L3 = _G_ORDER + _X_RELS + _Y_RELS
_XY = "X Y - q^2 Y X"

_FAMILIES = {
    "L0": _family((), (_G,), _G_ORDER),
    "L1": _family(("xi",), (_X, _G), _G_ORDER + _X_RELS),
    "L2": _family(("zeta",), (_Y, _G), _G_ORDER + _Y_RELS),
    "L3": _family(("xi", "zeta"), (_X, _Y, _G),
                  _L3 + [("XY-commutation", _XY, "0")],
                  _L3 + [("XY-commutation", _XY, "1")]),
    "L3N": _family(("xi", "zeta", "eta"), (_X, _Y, _G),
                   _L3 + [("XY-commutation", _XY, "-eta G^(N-2)")],
                   _L3 + [("XY-commutation", _XY, "1 - eta G^(N-2)")]),
    "L4": _family(("alpha", "beta", "xi"), (("X", "N", "W"),),
                  [("W-power", "W^N", "xi")], [("phi-of-W", "phi(W)", "0")],
                  {"W": "alpha x (x) 1 + beta y (x) 1 + g^(N-1) (x) W"}),
}


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

    names = _FAMILIES[family].params
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
    """(nx, ny, r) of the member's skew-PBW basis X^a Y^b G^c, each the
    order of that generator in the member's row, or 1 if it has none."""
    order = {letter: getattr(params, o)
             for letter, o, _ in _FAMILIES[params.family].generators}
    return tuple(order.get(letter, 1) for letter in "XYG")


def family_basis_exponents(params: FamilyParams):
    """Exponent tuples (a, b, c) of the monomial basis X^a Y^b G^c, in
    index order; L4's W^a is (a, 0, 0)."""
    nx, ny, r = _pbw_shape(params)
    return [(a, b, c) for a in range(nx) for b in range(ny) for c in range(r)]


def _family_label(f, exp):
    return "".join(f"{label}{exp['XYG'.index(letter)]}"
                   for letter, _, label in _FAMILIES[f].generators)


def _family_generators(params: FamilyParams) -> dict:
    """{label: basis index} of the generators of order above 1 (one of
    order 1 is the unit); X^a Y^b G^c has index (a ny + b) r + c."""
    _, ny, r = _pbw_shape(params)
    index = {"X": ny * r, "Y": r, "G": 1}
    return {label: index[letter]
            for letter, o, label in _FAMILIES[params.family].generators
            if getattr(params, o) > 1}


def _value(side, params: FamilyParams, alg, gen: dict) -> dict:
    """The element of alg that a side stands for, gen giving each letter's
    element."""
    N, r = params.N, params.r
    out: dict = {}
    for sign, q, param, word in side:
        c = field(N).q_power(_in_N_r(q, N, r))
        c = -c if sign < 0 else c
        if param:
            c = c * getattr(params, param)
        if c.is_zero():
            continue
        v = None
        for letter, power in word:
            if power == "phi":
                u = eval_poly_in_algebra(alg, phi_polynomial(
                    params.alpha, params.beta, params.xi, N), gen[letter])
            else:
                n = _in_N_r(power, N, r)
                u = gen[letter] if n == 1 else alg.pow_vec(gen[letter], n)
            v = u if v is None else alg.mul_vec(v, u)
        for k, d in (alg.unit_vec() if v is None else v).items():
            vec_add_into(out, k, c * d)
    return out


@lru_cache(maxsize=None)
def build_family(params: FamilyParams) -> ComoduleAlgebra:
    """The undeformed family member as a comodule algebra over gr(u_q);
    its table and coaction keep canonical objects (field(N).interned)."""
    N, row = params.N, _FAMILIES[params.family]
    fld = field(N)
    H = build_gr_uq(N)
    labels = [_family_label(params.family, e)
              for e in family_basis_exponents(params)]
    alg = skew_pbw_algebra(N, *_pbw_shape(params), params.xi or fld.zero,
                           params.zeta or fld.zero, params.eta or fld.zero,
                           labels)

    # the coaction on each generator, read from the row
    hgen = {h: H.algebra.basis_vec(monomial_index(N, *e)) for h, e in
            zip("xyg", ((1, 0, 0), (0, 1, 0), (0, 0, 1)))}
    index = _family_generators(params)
    gens = {i: {(h, {"1": 0, **index}[a]): c for term, a in row.coaction[label]
                for h, c in _value((term,), params, H.algebra, hgen).items()}
            for label, i in index.items()}
    # delta(e_m) = delta(e_p) delta(e_s) along the builder's steps
    deltas = [{(monomial_index(N, 0, 0, 0), 0): fld.one}]
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
    return deform_comodule_algebra(build_family(params),
                                   build_sigma(params.N), build_uq(params.N))


def verify_family_presentation(params: FamilyParams) -> VerificationReport:
    """Dimension and defining relations of the undeformed family member."""
    return _presentation_report(params, build_family(params), deformed=False)


def verify_deformed_presentation(params: FamilyParams) -> VerificationReport:
    """Defining relations of the deformed member (the A-version)."""
    return _presentation_report(params, deform_family(params), deformed=True)


def _presentation_report(params, A, deformed) -> VerificationReport:
    """The dimension, then each relation of the member's row in turn; a
    relation that names a generator of order 1 (G at r = 1) is skipped."""
    f, alg = params.family, A.algebra
    tag = "deformed" if deformed else "plain"
    rep = VerificationReport({"params": params.label(), "deformed": deformed})
    gen = {label: alg.basis_vec(i)
           for label, i in _family_generators(params).items()}
    dim = params.expected_dim()
    rep.add(f"{f}-{tag}-dim", "family-dimension", alg.dim == dim,
            None if alg.dim == dim else {"dim": alg.dim, "expected": dim})
    for claim, lhs, rhs in getattr(_FAMILIES[f], tag):
        if all(letter in gen for t in lhs + rhs for letter, _ in t.word):
            lhs, rhs = (_value(x, params, alg, gen) for x in (lhs, rhs))
            rep.add(f"{f}-{tag}-{claim}", f"presentation-{claim}", lhs == rhs,
                    None if lhs == rhs else {"lhs": vec_str(lhs, alg.labels),
                                             "rhs": vec_str(rhs, alg.labels)})
    return rep


def eval_poly_in_algebra(alg, poly: Poly, v: dict) -> dict:
    """Horner evaluation of a univariate polynomial at an algebra element."""
    out: dict = {}
    for c in reversed(poly.coeffs):
        out = alg.mul_vec(out, v)
        for k, d in alg.unit.items():
            vec_add_into(out, k, c * d)
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
        return _respects_products(self.comodule, self.spaces)


def _respects_products(A: ComoduleAlgebra, spaces, coordinate=True) -> bool:
    """LoewyFiltration.respects_products.  When every adapted basis vector
    is one basis element e_i (each layer a coordinate subspace, as every
    member's is), index i gets the degree of its layer and b_i b_j is row
    (i, j) of the table, which lies in A_l exactly when each of its indices
    has degree at most l.  Otherwise, or with coordinate false (the tests'
    oracle), each product is reduced against its layer's echelon."""
    ech = SparseEchelon(A.field)
    basis, layers = [], []
    for k, space in enumerate(spaces):
        for row in space.basis:
            b = ech.add(row)
            if b is not None:
                basis.append((k, b))
        if ech.rank != space.dim:
            raise ValueError("the layers of a filtration must be nested")
        layers.append(SparseEchelon(A.field, ech.rows))
    top = len(layers) - 1
    if coordinate and all(len(b) == 1 for _, b in basis):
        basis = [(k, min(b)) for k, b in basis]
        degree = [top + 1] * A.dim  # outside every layer
        for k, i in basis:
            degree[i] = k
        row = A.algebra.mul.row
        return not any(degree[t] > min(m + n, top)
                       for m, i in basis for n, j in basis
                       for t in row(i, j)[::2])
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
    u, v, alpha = (_coerce(fld, x) for x in (u, v, alpha))
    if alpha.is_zero():
        raise ValueError("the (u, v) chart needs alpha != 0")
    return zoo_params("L4", N, alpha=alpha, xi=u ** N + v ** N,
                      beta=u * v * (fld.one - fld.q_power(2)) / alpha)


def embed_A4_into_uq(N: int, u, v, alpha=1) -> VerificationReport:
    """Realise the deformed L4(alpha, beta; xi) inside u_q by
    W |-> alpha Et + beta F + (u+v) K^{-1}, checking the map is a unital,
    multiplicative, colinear embedding and that the image generator has
    minimal polynomial phi."""
    params = l4_params_from_uv(N, u, v, alpha)
    fld = field(N)
    u, v = _coerce(fld, u), _coerce(fld, v)
    A = deform_family(params)
    uq = build_uq(N)
    Z = uq_z_element(N, params.alpha, params.beta, u + v)

    # W^b in the deformed product maps to Z^b; the basis vector W^a maps to
    # sum x_b Z^b for the x solving sum x_b W^b = W^a
    W = {1: fld.one}
    star_powers, zpow = [A.algebra.unit_vec()], [uq.algebra.unit_vec()]
    for _ in range(N - 1):
        star_powers.append(A.algebra.mul_vec(star_powers[-1], W))
        zpow.append(uq.algebra.mul_vec(zpow[-1], Z))

    images = []
    for a in range(N):
        coords = solve(fld, star_powers, {a: fld.one})
        if coords is None:
            raise ArithmeticError("star powers of W do not span")
        images.append(vec_combine(zpow, coords.items()))

    rep = check_comodule_algebra_morphism(
        images, A, regular_comodule_algebra(uq), expect="injective")
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
    alpha, beta, gamma = (_coerce(fld, x) for x in (alpha, beta, gamma))
    uq = build_uq(N)
    Z = uq_z_element(N, alpha, beta, gamma)
    const = power_sum_P(N, gamma, alpha * beta / (fld.one - fld.q_power(2)))
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
    expect_equal = minp.degree == 1 if trivial else minp == formula
    rep.add("minpoly-equals", "minimal-equals-formula", expect_equal,
            None if expect_equal else
            {"minimal": str(minp), "formula": str(formula)})
    return rep


def one_dim_reps_A4(N: int, u, v, alpha=1) -> VerificationReport:
    """Characters of the deformed L4 on the (u, v) chart: W -> mu_k with
    mu_k = u q^{2k} + v q^{-2k}; these are exactly the roots of phi."""
    params = l4_params_from_uv(N, u, v, alpha)
    fld = field(N)
    u, v = _coerce(fld, u), _coerce(fld, v)
    phi = phi_polynomial(params.alpha, params.beta, params.xi, N)
    rep = VerificationReport({"params": params.label()})

    mus = [u * fld.q_power(2 * k) + v * fld.q_power(-2 * k)
           for k in range(N)]
    bad = [k for k, mu in enumerate(mus) if not phi.eval(mu).is_zero()]
    rep.add("characters-are-roots", "one-dim-reps-roots", not bad,
            {"failing_k": bad} if bad else None)

    prod = Poly.from_rationals(fld, [1])
    for mu in mus:
        prod = prod * Poly.from_coeffs(fld, [-mu, fld.one])
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
        raise ArithmeticError("squarefree test and closed criterion "
                              f"disagree at {params.label()}")
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
                                  for name in _FAMILIES[a.family].params)
    if a.family == "L3N":
        if a.xi != b.xi or a.zeta != b.zeta:
            return False
        return any(b.eta == a.eta * fld.q_power(2 * k) for k in range(N))
    # L4: (alpha', beta', xi') = (l q^{2k} alpha, l q^{-2k} beta, l^N xi),
    # l read off alpha, or off beta when alpha = 0
    for k in range(N):
        up, down = fld.q_power(2 * k), fld.q_power(-2 * k)
        lam = b.beta / (a.beta * down) if a.alpha.is_zero() \
            else b.alpha / (a.alpha * up)
        if not lam.is_zero() and b.alpha == lam * up * a.alpha \
                and b.beta == lam * down * a.beta and b.xi == lam ** N * a.xi:
            return True
    return False


def diagonal_family_map(src: FamilyParams, dst: FamilyParams,
                        x_scale=None, y_scale=None, g_scale=None,
                        w_scale=None, deformed=False):
    """The monomial map X^a Y^b G^c -> sx^a sy^b sg^c X^a Y^b G^c between
    two members with the same basis shape; L4's W^a, in X's place, takes
    sw^a.

    Returns (images, A_src, A_dst) ready for the morphism checker."""
    build = deform_family if deformed else build_family
    A, B = build(src), build(dst)
    exps = family_basis_exponents(src)
    if exps != family_basis_exponents(dst):
        raise ValueError("a monomial map needs two members of one basis shape")
    one = A.field.one
    sx, sy, sg = x_scale or w_scale or one, y_scale or one, g_scale or one
    return [{i: sx ** a * sy ** b * sg ** c}
            for i, (a, b, c) in enumerate(exps)], A, B


def conjugation_invariance_report(params: FamilyParams, power: int,
                                  deformed=False) -> VerificationReport:
    """Conjugating the coaction by g^power lands in an isomorphic member:
    the diagonal map with x-scale q^{2 power}, y-scale q^{-2 power} (and the
    matching W-scale rule for L4) is an isomorphism conj(A) -> A."""
    N = params.N
    fld = field(N)
    build = deform_family if deformed else build_family
    conj = conjugate_comodule_algebra(build(params),
                                      monomial_index(N, 0, 0, power % N))
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
             "dim": "r", "parameters": list(_FAMILIES["L0"].params),
             "relations": ["G^r = 1"]},
            {"name": "F1", "source": "L1",
             "r_values": [d for d in divisors if d > 1],
             "dim": "N*r", "parameters": list(_FAMILIES["L1"].params),
             "relations": ["X^N = xi", "G^r = 1", "G X = q^(2N/r) X G"]},
            {"name": "F2", "source": "L2",
             "r_values": [d for d in divisors if d > 1],
             "dim": "N*r", "parameters": list(_FAMILIES["L2"].params),
             "relations": ["Y^N = zeta", "G^r = 1", "G Y = q^(-2N/r) Y G"]},
            {"name": "F3", "source": "L3/L3N", "r_values": divisors,
             "dim": "N^2*r", "parameters": list(_FAMILIES["L3"].params),
             "eta_parameter_when_r_equals_N": True,
             "eta_identification": "eta ~ q^(2k) eta",
             "relations": ["X^N = xi", "Y^N = zeta", "G^r = 1",
                           "G X = q^(2N/r) X G", "G Y = q^(-2N/r) Y G",
                           "X Y - q^2 Y X = -eta G^-2 (eta = 0 unless r = N)"]},
            {"name": "F4", "source": "L4", "r_values": [1],
             "dim": "N", "parameters": list(_FAMILIES["L4"].params),
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
