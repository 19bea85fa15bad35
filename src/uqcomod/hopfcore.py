"""Finite-dimensional (co)algebras, Hopf data, cocycles and deformations.

Everything is held as sparse structure constants over a cyclotomic field:

* algebra elements are dicts {basis index: coefficient},
* tensors in H (x) H or H (x) A are dicts keyed by index pairs,
* multilinear forms on H live in ConvForm and multiply by convolution.

Built structures are read-only: multiplication, comultiplication, counit,
antipode, coaction and form tables are held as mapping proxies.  Verifiers
never mutate their arguments and report failures with explicit witnesses
instead of raising.
"""

from __future__ import annotations

import itertools
import json
import random
from collections.abc import Sequence
from types import MappingProxyType

from .cyclofield import CyclotomicField, CyclotomicNumber
from .exactlinalg import (SparseEchelon, Subspace, kernel_of_sparse_columns,
                          rank, vec_add_into)
from .reporting import VerificationReport

# ---------------------------------------------------------------------------
# sparse vector helpers
# ---------------------------------------------------------------------------


def read_only(table):
    """A read-only view of a dict, without a copy; a view is returned as
    it is, so a table shared between structures is wrapped once."""
    if isinstance(table, MappingProxyType):
        return table
    return MappingProxyType(table)


def vec_scale(v: dict, c) -> dict:
    if c.is_zero():
        return {}
    return {k: c * x for k, x in v.items()}


def vec_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        vec_add_into(out, k, -c)
    return out


def vec_combine(images, terms) -> dict:
    """f(sum c e_m) over the (m, c) terms, for the linear map
    f(e_m) = images[m]."""
    out: dict = {}
    for m, c in terms:
        for k, d in images[m].items():
            vec_add_into(out, k, c * d)
    return out


def vec_eq(a: dict, b: dict) -> bool:
    if len(a) != len(b):
        return False
    for k, c in a.items():
        d = b.get(k)
        if d is None or d != c:
            return False
    return True


def vec_str(v: dict, labels=None) -> str:
    if not v:
        return "0"
    items = sorted(v.items(), key=lambda kv: repr(kv[0]))
    name = (lambda k: labels[k]) if labels else (lambda k: str(k))
    return " + ".join(f"({c})*{name(k)}" for k, c in items)


# ---------------------------------------------------------------------------
# algebras and coalgebras by structure constants
# ---------------------------------------------------------------------------


class FiniteAlgebra:
    """Associative unital algebra given by a sparse multiplication table."""

    __slots__ = ("field", "dim", "labels", "mul", "unit")

    def __init__(self, fld: CyclotomicField, labels, mul, unit):
        self.field = fld
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        # (i, j) -> tuple of (k, coeff); missing = 0
        self.mul = read_only(mul)
        self.unit = {k: c for k, c in unit.items() if not c.is_zero()}

    def basis_vec(self, i) -> dict:
        return {i: self.field.one}

    def unit_vec(self) -> dict:
        return dict(self.unit)

    def mul_basis(self, i, j):
        return self.mul.get((i, j), ())

    def mul_vec(self, a: dict, b: dict) -> dict:
        out: dict = {}
        mul = self.mul
        for i, ca in a.items():
            for j, cb in b.items():
                ent = mul.get((i, j))
                if ent:
                    c = ca * cb
                    for k, ck in ent:
                        vec_add_into(out, k, c * ck)
        return out

    def pow_vec(self, a: dict, n: int) -> dict:
        out = self.unit_vec()
        for _ in range(n):
            out = self.mul_vec(out, a)
        return out


class FiniteCoalgebra:
    """Coalgebra given by sparse comultiplication and counit tables."""

    __slots__ = ("field", "dim", "labels", "comul", "counit")

    def __init__(self, fld, labels, comul, counit):
        self.field = fld
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.comul = read_only(comul)  # i -> tuple of (j, k, coeff)
        self.counit = read_only(
            {k: c for k, c in counit.items() if not c.is_zero()})

    def comul_vec(self, v: dict) -> dict:
        out: dict = {}
        for i, c in v.items():
            for j, k, d in self.comul.get(i, ()):
                vec_add_into(out, (j, k), c * d)
        return out

    def counit_vec(self, v: dict) -> CyclotomicNumber:
        out = self.field.zero
        for i, c in v.items():
            e = self.counit.get(i)
            if e is not None:
                out = out + c * e
        return out


class HopfAlgebraData:
    """Bundled algebra, coalgebra and antipode on one basis."""

    __slots__ = ("algebra", "coalgebra", "antipode", "grouplikes", "degrees",
                 "_comul_reverse")

    def __init__(self, algebra: FiniteAlgebra, coalgebra: FiniteCoalgebra,
                 antipode: dict, degrees=None):
        if algebra.dim != coalgebra.dim:
            raise ValueError(f"algebra of dimension {algebra.dim} with a "
                             f"coalgebra of dimension {coalgebra.dim}")
        if algebra.labels != coalgebra.labels:
            raise ValueError("algebra and coalgebra label different bases")
        self.algebra = algebra
        self.coalgebra = coalgebra
        # i -> (j -> coeff)
        self.antipode = read_only({i: read_only(v)
                                   for i, v in antipode.items()})
        self.degrees = tuple(degrees) if degrees is not None else None
        self.grouplikes = tuple(self._scan_grouplikes())
        self._comul_reverse = None

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def labels(self):
        return self.algebra.labels

    def _scan_grouplikes(self):
        one = self.field.one
        for i in range(self.dim):
            ent = self.coalgebra.comul.get(i, ())
            if len(ent) == 1:
                j, k, c = ent[0]
                if j == i and k == i and c == one \
                        and self.coalgebra.counit.get(i) == one:
                    yield i

    def antipode_vec(self, v: dict) -> dict:
        out: dict = {}
        for i, c in v.items():
            for j, d in self.antipode.get(i, {}).items():
                vec_add_into(out, j, c * d)
        return out

    def comul_reverse(self):
        """dict (j, k) -> tuple of (i, c) with Delta(e_i) containing c*(e_j x e_k)."""
        if self._comul_reverse is None:
            rev: dict = {}
            for i, ent in self.coalgebra.comul.items():
                for j, k, c in ent:
                    rev.setdefault((j, k), []).append((i, c))
            self._comul_reverse = {k: tuple(v) for k, v in rev.items()}
        return self._comul_reverse


# ---------------------------------------------------------------------------
# tensor-square products (for bialgebra / comodule verification)
# ---------------------------------------------------------------------------


def t2_mul(alg1: FiniteAlgebra, alg2: FiniteAlgebra, A: dict, B: dict) -> dict:
    """Multiply two elements of alg1 (x) alg2, keys are (i, j) pairs."""
    out: dict = {}
    m1, m2 = alg1.mul, alg2.mul
    for (i1, j1), c1 in A.items():
        for (i2, j2), c2 in B.items():
            e1 = m1.get((i1, i2))
            if not e1:
                continue
            e2 = m2.get((j1, j2))
            if not e2:
                continue
            c = c1 * c2
            for k1, d1 in e1:
                cd = c * d1
                for k2, d2 in e2:
                    vec_add_into(out, (k1, k2), cd * d2)
    return out


def tensor_vec(a: dict, b: dict) -> dict:
    """a (x) b, keys are (i, j) pairs."""
    out: dict = {}
    for i, c in a.items():
        for j, d in b.items():
            vec_add_into(out, (i, j), c * d)
    return out


class ExhaustivePlan(Sequence):
    """Every tuple over range(dim) of one arity, in lexicographic order.

    Tuples are made on demand, so the plan holds no list: it has a length,
    takes indices and slices, and can be iterated any number of times.
    """

    __slots__ = ("dim", "arity")

    def __init__(self, dim: int, arity: int):
        self.dim = dim
        self.arity = arity

    def __len__(self):
        return self.dim ** self.arity

    def __iter__(self):
        return itertools.product(range(self.dim), repeat=self.arity)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        n = len(self)
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError("plan index out of range")
        digits = []
        for _ in range(self.arity):
            k, d = divmod(k, self.dim)
            digits.append(d)
        return tuple(reversed(digits))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    __hash__ = None


def check_plan(dim, arity, mode, sample_count=0, seed=0, always=()):
    """The index tuples a verifier checks, as a sized sequence.

    "exhaustive" gives every tuple over range(dim) in lexicographic order,
    made lazily (ExhaustivePlan); "sampled" gives a list of every tuple over
    `always` first, then `sample_count` tuples drawn from
    random.Random(seed).  An unknown mode, or a sampled plan with no tuples
    (which would pass vacuously), raises ValueError.
    """
    if mode == "exhaustive":
        return ExhaustivePlan(dim, arity)
    if mode != "sampled":
        raise ValueError(
            f"unknown check mode {mode!r}; use 'exhaustive' or 'sampled'")
    rng = random.Random(seed)
    plan = list(itertools.product(always, repeat=arity))
    plan += [tuple(rng.randrange(dim) for _ in range(arity))
             for _ in range(sample_count)]
    if not plan:
        raise ValueError("a sampled check needs at least one tuple")
    return plan


def _product_failures(alg: FiniteAlgebra, pairs, images, mul):
    """[label_i, label_j] for each planned pair (i, j) where the linear map
    f(e_m) = images[m] has f(e_i e_j) != mul(f(e_i), f(e_j))."""
    bad = []
    for i, j in pairs:
        if not vec_eq(vec_combine(images, alg.mul_basis(i, j)),
                      mul(images[i], images[j])):
            bad.append([alg.labels[i], alg.labels[j]])
    return bad


def _witness(labels, tup, lhs, rhs):
    return {
        "tuple": [labels[t] for t in tup],
        "lhs": vec_str(lhs, labels),
        "rhs": vec_str(rhs, labels),
    }


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def verify_algebra(alg: FiniteAlgebra, mode="exhaustive", sample_count=10000,
                   seed=0, always_indices=()) -> VerificationReport:
    rep = VerificationReport({"mode": mode, "seed": seed, "dim": alg.dim})
    labels = alg.labels
    one = alg.unit_vec()

    bad = []
    for i in range(alg.dim):
        e = alg.basis_vec(i)
        if not vec_eq(alg.mul_vec(one, e), e) or not vec_eq(alg.mul_vec(e, one), e):
            bad.append(labels[i])
    rep.add("algebra-unit", "unital-multiplication", not bad,
            {"elements": bad[:5], "failing": len(bad)} if bad else None)

    triples = check_plan(alg.dim, 3, mode, sample_count, seed, always_indices)
    bad = []
    for (i, j, k) in triples:
        ij = {m: c for m, c in alg.mul_basis(i, j)}
        jk = {m: c for m, c in alg.mul_basis(j, k)}
        lhs = alg.mul_vec(ij, alg.basis_vec(k))
        rhs = alg.mul_vec(alg.basis_vec(i), jk)
        if not vec_eq(lhs, rhs):
            bad.append(_witness(labels, (i, j, k), lhs, rhs))
    rep.add("algebra-associativity", "associative-multiplication", not bad,
            {"examples": bad[:3], "failing": len(bad),
             "checked": len(triples)} if bad else None)
    return rep


def verify_coalgebra(co: FiniteCoalgebra) -> VerificationReport:
    rep = VerificationReport({"dim": co.dim})
    labels = co.labels
    bad = []
    for i in range(co.dim):
        lhs: dict = {}
        rhs: dict = {}
        for j, k, c in co.comul.get(i, ()):
            for j1, j2, d in co.comul.get(j, ()):
                vec_add_into(lhs, (j1, j2, k), c * d)
            for k1, k2, d in co.comul.get(k, ()):
                vec_add_into(rhs, (j, k1, k2), c * d)
        if not vec_eq(lhs, rhs):
            bad.append(labels[i])
    rep.add("coalgebra-coassociativity", "coassociative-comultiplication",
            not bad, {"elements": bad[:5], "failing": len(bad)} if bad else None)

    bad = []
    for i in range(co.dim):
        left: dict = {}
        right: dict = {}
        for j, k, c in co.comul.get(i, ()):
            ej = co.counit.get(j)
            if ej is not None:
                vec_add_into(left, k, c * ej)
            ek = co.counit.get(k)
            if ek is not None:
                vec_add_into(right, j, c * ek)
        target = {i: co.field.one}
        if not vec_eq(left, target) or not vec_eq(right, target):
            bad.append(labels[i])
    rep.add("coalgebra-counit", "counit-axiom", not bad,
            {"elements": bad[:5], "failing": len(bad)} if bad else None)
    return rep


def verify_hopf(H: HopfAlgebraData, mode="exhaustive", sample_count=10000,
                seed=0, always_indices=()) -> VerificationReport:
    """Associativity, coassociativity, bialgebra compatibility, antipode."""
    alg, co = H.algebra, H.coalgebra
    labels = alg.labels
    rep = VerificationReport({"mode": mode, "seed": seed, "dim": alg.dim})

    n_assoc = sample_count // 2
    n_pairs = sample_count - n_assoc
    rep.extend(verify_algebra(alg, mode, n_assoc, seed, always_indices))
    rep.extend(verify_coalgebra(co))

    # bialgebra: Delta and counit are algebra maps, Delta(1) = 1 x 1
    one = alg.unit_vec()
    d1 = co.comul_vec(one)
    unit_tensor = tensor_vec(one, one)
    rep.add("bialgebra-unit", "comultiplication-of-unit",
            vec_eq(d1, unit_tensor),
            None if vec_eq(d1, unit_tensor) else
            {"delta_1": vec_str(d1), "expected": vec_str(unit_tensor)})
    rep.add("bialgebra-counit-unit", "counit-of-unit",
            co.counit_vec(one) == alg.field.one, None)

    pairs = check_plan(alg.dim, 2, mode, n_pairs, seed + 1, always_indices)
    bad_mult = _product_failures(
        alg, pairs, [co.comul_vec(alg.basis_vec(i)) for i in range(alg.dim)],
        lambda a, b: t2_mul(alg, alg, a, b))
    zero = alg.field.zero
    bad_counit = [
        [labels[i], labels[j]] for i, j in pairs
        if co.counit_vec(dict(alg.mul_basis(i, j)))
        != co.counit.get(i, zero) * co.counit.get(j, zero)]
    rep.add("bialgebra-multiplicativity", "comultiplication-algebra-map",
            not bad_mult, {"examples": bad_mult[:3], "failing": len(bad_mult),
                           "checked": len(pairs)} if bad_mult else None)
    rep.add("bialgebra-counit-multiplicative", "counit-algebra-map",
            not bad_counit, {"examples": bad_counit[:3],
                             "failing": len(bad_counit)} if bad_counit else None)

    # antipode axioms on every basis element
    bad = []
    for i in range(alg.dim):
        eps = co.counit.get(i, alg.field.zero)
        target = vec_scale(one, eps)
        left: dict = {}
        right: dict = {}
        for j, k, c in co.comul.get(i, ()):
            sj = H.antipode_vec({j: c})
            left_term = alg.mul_vec(sj, alg.basis_vec(k))
            for m, d in left_term.items():
                vec_add_into(left, m, d)
            sk = H.antipode_vec({k: c})
            right_term = alg.mul_vec(alg.basis_vec(j), sk)
            for m, d in right_term.items():
                vec_add_into(right, m, d)
        if not vec_eq(left, target) or not vec_eq(right, target):
            bad.append({"element": labels[i],
                        "m(S x id)Delta": vec_str(left, labels),
                        "m(id x S)Delta": vec_str(right, labels),
                        "expected": vec_str(target, labels)})
    rep.add("hopf-antipode", "antipode-axioms", not bad,
            {"examples": bad[:3], "failing": len(bad)} if bad else None)

    expected = set(H.grouplikes)
    actual = set(HopfAlgebraData(alg, co, H.antipode).grouplikes)
    rep.add("hopf-grouplikes", "grouplike-cache", expected == actual,
            None if expected == actual else
            {"cached": sorted(expected), "scanned": sorted(actual)})
    return rep


# ---------------------------------------------------------------------------
# multilinear forms under convolution
# ---------------------------------------------------------------------------


class ConvForm:
    """An n-linear form on H, multiplied by convolution through Delta.

    arity 1 gives linear functionals, arity 2 bilinear forms (cocycles).
    """

    __slots__ = ("hopf", "arity", "coords")

    def __init__(self, hopf: HopfAlgebraData, arity: int, coords: dict):
        self.hopf = hopf
        self.arity = arity
        self.coords = read_only(
            {k: c for k, c in coords.items() if not c.is_zero()})

    @classmethod
    def unit(cls, hopf, arity):
        """Tensor power of the counit: the convolution unit."""
        counit = hopf.coalgebra.counit
        coords: dict = {}
        keys = [()]
        for _ in range(arity):
            keys = [k + (i,) for k in keys for i in counit]
        for key in keys:
            c = hopf.field.one
            for i in key:
                c = c * counit[i]
            coords[key] = c
        return cls(hopf, arity, coords)

    @classmethod
    def tensor(cls, f: "ConvForm", g: "ConvForm"):
        _same_hopf(f, g)
        coords: dict = {}
        for kf, cf in f.coords.items():
            for kg, cg in g.coords.items():
                coords[kf + kg] = cf * cg
        return cls(f.hopf, f.arity + g.arity, coords)

    def __call__(self, *idx):
        self._check_arity(idx)
        return self.coords.get(tuple(idx), self.hopf.field.zero)

    def eval_vecs(self, *vecs) -> CyclotomicNumber:
        self._check_arity(vecs)
        out = self.hopf.field.zero
        for key, c in self.coords.items():
            term = c
            dead = False
            for slot, i in enumerate(key):
                v = vecs[slot].get(i)
                if v is None:
                    dead = True
                    break
                term = term * v
            if not dead:
                out = out + term
        return out

    def _check_arity(self, args):
        if len(args) != self.arity:
            raise ValueError(f"a form of arity {self.arity} takes "
                             f"{self.arity} arguments, not {len(args)}")

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other):
        _same_hopf(self, other)
        if other.arity != self.arity:
            raise ValueError(
                f"adding forms of arity {self.arity} and {other.arity}")
        out = dict(self.coords)
        for k, c in other.coords.items():
            vec_add_into(out, k, c)
        return ConvForm(self.hopf, self.arity, out)

    def __neg__(self):
        return ConvForm(self.hopf, self.arity,
                        {k: -c for k, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "ConvForm":
        return ConvForm(self.hopf, self.arity, vec_scale(self.coords, c))

    def __mul__(self, other):
        return convolution(self, other)

    def conv_pow(self, n: int) -> "ConvForm":
        out = ConvForm.unit(self.hopf, self.arity)
        for _ in range(n):
            out = convolution(out, self)
        return out

    def __eq__(self, other):
        return (isinstance(other, ConvForm) and other.hopf is self.hopf
                and other.arity == self.arity
                and vec_eq(self.coords, other.coords))

    def __repr__(self):
        return f"<ConvForm arity {self.arity}, {len(self.coords)} terms>"


def _same_hopf(f, g):
    if not isinstance(f, ConvForm) or not isinstance(g, ConvForm):
        raise TypeError("expected two ConvForm arguments")
    if f.hopf is not g.hopf:
        raise ValueError("forms on different Hopf data")


def _require_bilinear(form):
    if not isinstance(form, ConvForm):
        raise TypeError(f"expected a ConvForm, not {type(form).__name__}")
    if form.arity != 2:
        raise ValueError(f"expected a bilinear form, not arity {form.arity}")


def convolution(f: ConvForm, g: ConvForm) -> ConvForm:
    """(f*g)(h) = f(h_(1)) g(h_(2)) slotwise, driven by both supports."""
    _same_hopf(f, g)
    if f.arity != g.arity:
        raise ValueError(f"convolution kind mismatch: arity {f.arity} vs {g.arity}")
    rev = f.hopf.comul_reverse()
    out: dict = {}
    for kf, cf in f.coords.items():
        for kg, cg in g.coords.items():
            sources = []
            dead = False
            for s in range(f.arity):
                cand = rev.get((kf[s], kg[s]))
                if not cand:
                    dead = True
                    break
                sources.append(cand)
            if dead:
                continue
            base = cf * cg
            stack = [((), base)]
            for cand in sources:
                stack = [(key + (i,), c * d) for key, c in stack for i, d in cand]
            for key, c in stack:
                vec_add_into(out, key, c)
    return ConvForm(f.hopf, f.arity, out)


def convolution_inverse(sigma: ConvForm) -> ConvForm:
    """Inverse of a form that differs from the unit by a nilpotent part.

    With nu = unit - sigma, requires nu^N = 0 (N = field order) and returns
    the geometric series; the two-sided inverse law is then verified.
    """
    H = sigma.hopf
    N = H.field.order
    unit = ConvForm.unit(H, sigma.arity)
    nu = unit - sigma
    total = unit
    p = unit
    for _ in range(N - 1):
        p = convolution(p, nu)
        total = total + p
    p = convolution(p, nu)
    if not p.is_zero():
        key = next(iter(p.coords))
        raise ValueError(
            f"form is not unit plus nilpotent: nu^{N} is nonzero at "
            f"{tuple(H.labels[i] for i in key)}"
        )
    if convolution(sigma, total) != unit or convolution(total, sigma) != unit:
        raise ValueError("convolution inverse failed the two-sided law")
    return total


def verify_hopf_2cocycle(sigma: ConvForm, mode="exhaustive",
                         sample_count=10000, seed=0,
                         always_indices=()) -> VerificationReport:
    """Unitality and the 2-cocycle identity

    sigma(a1, b1) sigma(a2 b2, c) = sigma(b1, c1) sigma(a, b2 c2).
    """
    _require_bilinear(sigma)
    H = sigma.hopf
    alg, co = H.algebra, H.coalgebra
    labels = alg.labels
    zero = H.field.zero
    rep = VerificationReport({"mode": mode, "seed": seed,
                              "sample_count": None if mode == "exhaustive"
                              else sample_count})

    unit_vec_ = alg.unit_vec()
    bad = []
    for i in range(alg.dim):
        eps = co.counit.get(i, zero)
        lhs = sigma.eval_vecs(alg.basis_vec(i), unit_vec_)
        rhs = sigma.eval_vecs(unit_vec_, alg.basis_vec(i))
        if lhs != eps or rhs != eps:
            bad.append(labels[i])
    rep.add("cocycle-unital", "cocycle-unitality", not bad,
            {"elements": bad[:5], "failing": len(bad)} if bad else None)

    triples = check_plan(alg.dim, 3, mode, sample_count, seed, always_indices)
    sig = sigma.coords
    comul = co.comul
    mul = alg.mul
    bad = []
    for (a, b, c) in triples:
        lhs = zero
        for a1, a2, ca in comul.get(a, ()):
            for b1, b2, cb in comul.get(b, ()):
                s1 = sig.get((a1, b1))
                if s1 is None:
                    continue
                ent = mul.get((a2, b2))
                if not ent:
                    continue
                acc = zero
                for m, cm in ent:
                    s2 = sig.get((m, c))
                    if s2 is not None:
                        acc = acc + cm * s2
                if not acc.is_zero():
                    lhs = lhs + ca * cb * s1 * acc
        rhs = zero
        for b1, b2, cb in comul.get(b, ()):
            for c1, c2, cc in comul.get(c, ()):
                s1 = sig.get((b1, c1))
                if s1 is None:
                    continue
                ent = mul.get((b2, c2))
                if not ent:
                    continue
                acc = zero
                for m, cm in ent:
                    s2 = sig.get((a, m))
                    if s2 is not None:
                        acc = acc + cm * s2
                if not acc.is_zero():
                    rhs = rhs + cb * cc * s1 * acc
        if lhs != rhs:
            bad.append({"triple": [labels[a], labels[b], labels[c]],
                        "lhs": str(lhs), "rhs": str(rhs)})
    rep.add("cocycle-identity", "hopf-2-cocycle-identity", not bad,
            {"examples": bad[:3], "failing": len(bad),
             "checked": len(triples)} if bad else None)
    return rep


# ---------------------------------------------------------------------------
# antipode solving and cocycle deformation
# ---------------------------------------------------------------------------


def _invert_grouplike(alg: FiniteAlgebra, idx: int) -> dict:
    """Inverse of a grouplike basis element via its power cycle."""
    unit = alg.unit_vec()
    prev = unit
    cur = alg.basis_vec(idx)
    for _ in range(alg.dim + 1):
        if vec_eq(cur, unit):
            return prev
        prev, cur = cur, alg.mul_vec(cur, alg.basis_vec(idx))
    raise ValueError(f"basis element {alg.labels[idx]} is not of finite order")


def solve_antipode(alg: FiniteAlgebra, co: FiniteCoalgebra) -> dict:
    """Solve m (S x id) Delta = unit counit for S on a pointed-style basis.

    Works whenever every Delta(e_m) = e_m (x) B_m + sum (solved) (x) (...)
    with B_m a scalar multiple of an invertible grouplike-type basis element;
    elements are processed by a worklist until all columns are solved.
    """
    fld = alg.field
    dim = alg.dim
    unit = alg.unit_vec()
    S: dict = {}

    pending = set(range(dim))
    while pending:
        progress = False
        for m in sorted(pending):
            ent = co.comul.get(m, ())
            deps = {a for a, b, c in ent if a != m}
            if not deps <= set(S):
                continue
            bvec: dict = {}
            rest_first = []
            for a, b, c in ent:
                if a == m:
                    vec_add_into(bvec, b, c)
                else:
                    rest_first.append((a, b, c))
            if len(bvec) != 1:
                raise ValueError(
                    f"antipode system is not triangular at {alg.labels[m]}"
                )
            (bidx, bcoef), = bvec.items()
            rhs = vec_scale(unit, co.counit.get(m, fld.zero))
            for a, b, c in rest_first:
                term = alg.mul_vec(vec_scale(S[a], c), alg.basis_vec(b))
                for k, v in term.items():
                    vec_add_into(rhs, k, -v)
            binv = vec_scale(_invert_grouplike(alg, bidx), bcoef.inverse())
            S[m] = alg.mul_vec(rhs, binv)
            pending.discard(m)
            progress = True
        if not progress:
            raise ValueError(
                "antipode system unsolvable: no triangular order covers "
                + ", ".join(alg.labels[m] for m in sorted(pending))
            )
    return S


class _Products:
    """Field products for one deformation.

    A factor stored as field.one itself skips its multiply, and each
    distinct pair of values is multiplied once: the coefficients of sigma,
    of the coproducts and of the skew-PBW tables are q-powers times
    q-factorials, so few distinct products occur (about 700 among the
    49 000 that deform_hopf makes for u_q at N = 5).
    """

    __slots__ = ("one", "_memo")

    def __init__(self, fld: CyclotomicField):
        self.one = fld.one
        self._memo: dict = {}

    def __call__(self, a, b):
        one = self.one
        if a is one:
            return b
        if b is one:
            return a
        key = (a.num, a.den, b.num, b.den)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = a * b
        return got

    def unit(self, c):
        """c, or field.one itself if c equals one."""
        return self.one if c == self.one else c


def factor_form(form: ConvForm):
    """Slices of a bilinear form: form(h1, h2) = sum_n alpha_n(h1) beta_n(h2).

    Rows of the coordinate matrix (h1 fixed) that are scalar multiples of
    one another share a slice n: beta_n is the first such row divided by
    its lead coefficient (the one at the smallest h2), and alpha_n(h1) is
    the lead coefficient of row h1.  Only lead coefficients are inverted,
    and any form factors this way.  Returns (alpha, beta, count) with
    alpha[h1] and beta[h2] tuples of (n, coefficient); unit coefficients
    are stored as field.one itself.
    """
    _require_bilinear(form)
    times = _Products(form.hopf.field)
    rows: dict = {}
    for (h1, h2), c in sorted(form.coords.items()):
        rows.setdefault(h1, []).append((h2, c))
    slices: dict = {}
    alpha: dict = {}
    beta: dict = {}
    for h1, row in rows.items():
        lead = times.unit(row[0][1])
        if lead is not times.one:
            inv = lead.inverse()
            row = [(h2, times(c, inv)) for h2, c in row]
        norm = tuple((h2, times.unit(c)) for h2, c in row)
        n = slices.get(norm)
        if n is None:
            n = slices[norm] = len(slices)
            for h2, c in norm:
                beta.setdefault(h2, []).append((n, c))
        alpha[h1] = ((n, lead),)
    return alpha, {h: tuple(v) for h, v in beta.items()}, len(slices)


def _contracted_legs(terms, sides, times: _Products) -> dict:
    """{p: ((a, c), ...)}, the sum of c f_1(h_1) ... f_k(h_k) e_a over the
    terms (hs, a, c), hs = (h_1, ..., h_k).  sides[s] = (factors, count)
    from factor_form gives the slices f of argument slot s; the slice label
    p combines the slots' slices as a mixed-radix int."""
    acc: dict = {}
    for hs, a, c in terms:
        parts = [(0, c)]
        for (factors, count), h in zip(sides, hs):
            fs = factors.get(h)
            if fs is None:
                parts = ()
                break
            parts = [(p * count + n, times(x, f))
                     for p, x in parts for n, f in fs]
        for p, x in parts:
            vec_add_into(acc.setdefault(p, {}), a, x)
    return {p: tuple((a, times.unit(x)) for a, x in sorted(v.items()))
            for p, v in acc.items() if v}


def _slice_table(mul, left, right, times: _Products) -> dict:
    """Every product e_i * e_j = sum_p left[i][p] right[j][p] in the table
    mul, for the contracted legs of the basis elements, as a table."""
    table: dict = {}
    for i, li in enumerate(left):
        for j, rj in enumerate(right):
            out: dict = {}
            for p, lv in li.items():
                rv = rj.get(p)
                if rv is None:
                    continue
                for k, ck in lv:
                    for m, cm in rv:
                        ent = mul.get((k, m))
                        if not ent:
                            continue
                        c = times(ck, cm)
                        for t, ct in ent:
                            vec_add_into(out, t, times(c, ct))
            if out:
                table[(i, j)] = tuple(sorted(out.items()))
    return table


def _two_sided_legs(H: HopfAlgebraData, sigma: ConvForm,
                    sigma_inv: ConvForm, times: _Products):
    """Contracted legs of every basis element for
    a *_sigma b = sigma(a1, b1) a2 b2 sigma^{-1}(a3, b3), from one pass over
    its Delta^2 terms: left[i][p] = sum c alpha_n(a1) alpha'_m(a3) e_a2 and
    right[i][p] = sum c beta_n(a1) beta'_m(a3) e_a2, p = (n, m)."""
    a_sig, b_sig, n_sig = factor_form(sigma)
    a_inv, b_inv, n_inv = factor_form(sigma_inv)
    comul = H.coalgebra.comul
    left, right = [], []
    for i in range(H.dim):
        d2 = [((a1, a3), a2, times(c, d))
              for a, a3, c in comul.get(i, ())
              for a1, a2, d in comul.get(a, ())]
        left.append(_contracted_legs(d2, ((a_sig, n_sig), (a_inv, n_inv)),
                                     times))
        right.append(_contracted_legs(d2, ((b_sig, n_sig), (b_inv, n_inv)),
                                      times))
    return left, right


def deform_hopf(H: HopfAlgebraData, sigma: ConvForm, sigma_inv=None,
                labels=None) -> HopfAlgebraData:
    """Full cocycle deformation: new multiplication table, same coalgebra,
    antipode recomputed from the antipode linear system.  Every product is
    the sigma formula, evaluated by the slice kernel."""
    if sigma_inv is None:
        sigma_inv = convolution_inverse(sigma)
    times = _Products(H.field)
    left, right = _two_sided_legs(H, sigma, sigma_inv, times)
    table = _slice_table(H.algebra.mul, left, right, times)
    alg = FiniteAlgebra(H.field, labels or H.labels, table,
                        H.algebra.unit_vec())
    co = H.coalgebra
    if labels is not None:
        co = FiniteCoalgebra(H.field, labels, co.comul, co.counit)
    antipode = solve_antipode(alg, co)
    return HopfAlgebraData(alg, co, antipode, degrees=H.degrees)


# ---------------------------------------------------------------------------
# comodule algebras
# ---------------------------------------------------------------------------


class ComoduleAlgebra:
    """A right H-simple-candidate algebra with a left H-coaction.

    coaction maps basis index i to a tuple (((h, a), c), ...) meaning
    delta(e_i) = sum c * e_h (x) e_a.
    """

    __slots__ = ("algebra", "over", "coaction", "params")

    def __init__(self, algebra: FiniteAlgebra, over: HopfAlgebraData,
                 coaction: dict, params=None):
        self.algebra = algebra
        self.over = over
        self.coaction = read_only(coaction)
        self.params = dict(params or {})

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def labels(self):
        return self.algebra.labels

    def coact_vec(self, v: dict) -> dict:
        out: dict = {}
        for i, c in v.items():
            for (h, a), d in self.coaction.get(i, ()):
                vec_add_into(out, (h, a), c * d)
        return out


def verify_comodule_algebra(A: ComoduleAlgebra, mode="exhaustive",
                            sample_count=10000, seed=0) -> VerificationReport:
    H = A.over
    alg = A.algebra
    labels = alg.labels
    rep = VerificationReport({"mode": mode, "seed": seed, "dim": alg.dim,
                              "params": {k: str(v) for k, v in A.params.items()}})

    # coassociativity and counit of the coaction, every basis element
    bad_co, bad_eps = [], []
    comul = H.coalgebra.comul
    counit = H.coalgebra.counit
    for i in range(alg.dim):
        lhs: dict = {}
        rhs: dict = {}
        eps: dict = {}
        for (h, a), c in A.coaction.get(i, ()):
            for h1, h2, d in comul.get(h, ()):
                vec_add_into(lhs, (h1, h2, a), c * d)
            for (h2, a2), d in A.coaction.get(a, ()):
                vec_add_into(rhs, (h, h2, a2), c * d)
            e = counit.get(h)
            if e is not None:
                vec_add_into(eps, a, c * e)
        if not vec_eq(lhs, rhs):
            bad_co.append(labels[i])
        if not vec_eq(eps, {i: alg.field.one}):
            bad_eps.append(labels[i])
    rep.add("comodule-coassociativity", "coaction-coassociativity", not bad_co,
            {"elements": bad_co[:5], "failing": len(bad_co)} if bad_co else None)
    rep.add("comodule-counit", "coaction-counit", not bad_eps,
            {"elements": bad_eps[:5], "failing": len(bad_eps)} if bad_eps else None)

    # unit colinear
    du = A.coact_vec(alg.unit_vec())
    target = tensor_vec(H.algebra.unit_vec(), alg.unit_vec())
    rep.add("comodule-unit", "coaction-of-unit", vec_eq(du, target),
            None if vec_eq(du, target) else
            {"delta_1": vec_str(du), "expected": vec_str(target)})

    # multiplicativity of the coaction
    pairs = check_plan(alg.dim, 2, mode, sample_count, seed)
    bad = _product_failures(
        alg, pairs, [A.coact_vec(alg.basis_vec(i)) for i in range(alg.dim)],
        lambda a, b: t2_mul(H.algebra, alg, a, b))
    rep.add("comodule-multiplicativity", "coaction-algebra-map", not bad,
            {"examples": bad[:3], "failing": len(bad),
             "checked": len(pairs)} if bad else None)
    return rep


def deform_comodule_algebra(A: ComoduleAlgebra, sigma: ConvForm,
                            over: HopfAlgebraData) -> ComoduleAlgebra:
    """a *_sigma b = sigma(a_(-1), b_(-1)) a_(0) b_(0); coaction unchanged.

    The slice kernel of deform_hopf with one-sided legs: left[i][n] =
    sum c alpha_n(h) e_a and right[i][n] = sum c beta_n(h) e_a over the
    coaction terms c e_h (x) e_a of e_i."""
    alpha, beta, count = factor_form(sigma)
    alg = A.algebra
    times = _Products(alg.field)
    left, right = [], []
    for i in range(alg.dim):
        terms = [((h,), a, c) for (h, a), c in A.coaction.get(i, ())]
        left.append(_contracted_legs(terms, ((alpha, count),), times))
        right.append(_contracted_legs(terms, ((beta, count),), times))
    new_alg = FiniteAlgebra(alg.field, alg.labels,
                            _slice_table(alg.mul, left, right, times),
                            alg.unit_vec())
    return ComoduleAlgebra(new_alg, over, A.coaction, A.params)


def conjugate_comodule_algebra(A: ComoduleAlgebra, g_idx: int) -> ComoduleAlgebra:
    """Same algebra, coaction conjugated: a -> g a_(-1) g^{-1} (x) a_(0)."""
    H = A.over
    if g_idx not in H.grouplikes:
        raise ValueError("conjugation needs a grouplike index")
    halg = H.algebra
    gvec = halg.basis_vec(g_idx)
    ginv = _invert_grouplike(halg, g_idx)
    coaction: dict = {}
    for i, ent in A.coaction.items():
        out: dict = {}
        for (h, a), c in ent:
            conj = halg.mul_vec(gvec, halg.mul_vec(halg.basis_vec(h), ginv))
            for k, d in conj.items():
                vec_add_into(out, (k, a), c * d)
        coaction[i] = tuple(sorted(out.items()))
    params = dict(A.params)
    params["conjugated_by"] = H.labels[g_idx]
    return ComoduleAlgebra(A.algebra, H, coaction, params)


def check_comodule_algebra_morphism(images, A: ComoduleAlgebra,
                                    B: ComoduleAlgebra,
                                    expect="bijective") -> VerificationReport:
    """The linear map f: A -> B with f(e_i) = images[i], a sparse vector
    of B, is a colinear algebra map of the expected kind.

    expect is "bijective" for isomorphism candidates or "injective" for
    embeddings into a larger comodule algebra.
    """
    if len(images) != A.dim:
        raise ValueError(f"{len(images)} images cannot map a "
                         f"{A.dim}-dimensional algebra")
    if any(k not in range(B.dim) for v in images for k in v):
        raise ValueError(f"an image has a key outside the "
                         f"{B.dim}-dimensional target")
    if A.over is not B.over and A.over.labels != B.over.labels:
        raise ValueError("comodule algebras over different Hopf algebras")
    rep = VerificationReport({"source": dict(A.params), "target": dict(B.params)})

    ok = vec_eq(vec_combine(images, A.algebra.unit.items()),
                B.algebra.unit_vec())
    rep.add("morphism-unital", "algebra-map-unit", ok, None)

    bad = _product_failures(A.algebra, check_plan(A.dim, 2, "exhaustive"),
                            images, B.algebra.mul_vec)
    rep.add("morphism-multiplicative", "algebra-map-products", not bad,
            {"examples": bad[:3], "failing": len(bad)} if bad else None)

    bad = []
    for i in range(A.dim):
        lhs = B.coact_vec(images[i])
        rhs: dict = {}
        for (h, a), c in A.coaction.get(i, ()):
            for j, d in images[a].items():
                vec_add_into(rhs, (h, j), c * d)
        if not vec_eq(lhs, rhs):
            bad.append(A.labels[i])
    rep.add("morphism-colinear", "comodule-map", not bad,
            {"elements": bad[:5], "failing": len(bad)} if bad else None)

    r = rank(B.field, images)
    if expect == "bijective":
        ok = r == A.dim and A.dim == B.dim
    elif expect == "injective":
        ok = r == A.dim
    else:
        raise ValueError("expect must be 'bijective' or 'injective'")
    rep.add(f"morphism-{expect}", "linear-rank", ok,
            None if ok else
            {"rank": r, "source_dim": A.dim, "target_dim": B.dim})
    return rep


def coinvariants(A: ComoduleAlgebra) -> Subspace:
    """Kernel of delta - unit_H (x) id, as a subspace of A."""
    unit_h = A.over.algebra.unit_vec()
    cols = []
    for i in range(A.dim):
        col = dict(A.coaction.get(i, ()))
        for h, c in unit_h.items():
            vec_add_into(col, (h, i), -c)
        cols.append(col)
    return kernel_of_sparse_columns(A.field, cols, A.dim)


def costable_closure(V: Subspace, A: ComoduleAlgebra) -> Subspace:
    """Smallest H-costable right ideal containing V (monotone, idempotent).

    A worklist over one incremental echelon: each new basis row is expanded
    once, by right multiplication with every basis element and by each H-leg
    of its coaction, and each of those candidates is reduced once.
    """
    alg, dim = A.algebra, A.dim
    ech = SparseEchelon(A.field, V.rows)
    todo = list(V.basis)
    while todo and ech.rank < dim:
        v = todo.pop()
        per_h: dict = {}
        for (h, a), c in A.coact_vec(v).items():
            per_h.setdefault(h, {})[a] = c
        candidates = [alg.mul_vec(v, alg.basis_vec(b)) for b in range(dim)]
        for w in candidates + list(per_h.values()):
            row = ech.add(w)
            if row is not None:
                todo.append(row)
                if ech.rank == dim:
                    break
    return ech.subspace(dim)


def regular_comodule_algebra(H: HopfAlgebraData) -> ComoduleAlgebra:
    """H as a comodule algebra over itself via its comultiplication."""
    coaction = {
        i: tuple(((j, k), c) for j, k, c in H.coalgebra.comul.get(i, ()))
        for i in range(H.dim)
    }
    return ComoduleAlgebra(H.algebra, H, coaction, {"family": "regular"})


def direct_sum_comodule_algebras(A: ComoduleAlgebra,
                                 B: ComoduleAlgebra) -> ComoduleAlgebra:
    """Componentwise product and blockwise coaction (a test counterexample:
    the result is never right H-simple)."""
    if A.over is not B.over:
        raise ValueError("direct sum of comodule algebras over different "
                         "Hopf algebras")
    fld = A.field
    labels = [f"l.{s}" for s in A.labels] + [f"r.{s}" for s in B.labels]
    off = A.dim
    table: dict = {}
    for (i, j), ent in A.algebra.mul.items():
        table[(i, j)] = ent
    for (i, j), ent in B.algebra.mul.items():
        table[(i + off, j + off)] = tuple((k + off, c) for k, c in ent)
    unit: dict = dict(A.algebra.unit)
    for k, c in B.algebra.unit.items():
        unit[k + off] = c
    alg = FiniteAlgebra(fld, labels, table, unit)
    coaction: dict = {}
    for i, ent in A.coaction.items():
        coaction[i] = ent
    for i, ent in B.coaction.items():
        coaction[i + off] = tuple(((h, a + off), c) for (h, a), c in ent)
    return ComoduleAlgebra(alg, A.over, coaction,
                           {"family": "direct-sum",
                            "left": dict(A.params), "right": dict(B.params)})


# ---------------------------------------------------------------------------
# JSON round-trips (coefficients as canonical strings; exact)
# ---------------------------------------------------------------------------


def _mul_entries(alg: FiniteAlgebra):
    for (i, j), ent in sorted(alg.mul.items()):
        for k, c in ent:
            yield [i, j, k, str(c)]


def algebra_to_json(alg: FiniteAlgebra) -> dict:
    return {
        "N": alg.field.order,
        "basis": list(alg.labels),
        "mul": list(_mul_entries(alg)),
        "unit": [[i, str(c)] for i, c in sorted(alg.unit.items())],
    }


def algebra_from_json(data: dict) -> FiniteAlgebra:
    from .cyclofield import field as make_field

    fld = make_field(data["N"])
    table: dict = {}
    for i, j, k, s in data["mul"]:
        table.setdefault((i, j), []).append((k, fld.parse(s)))
    table = {k: tuple(v) for k, v in table.items()}
    unit = {i: fld.parse(s) for i, s in data["unit"]}
    return FiniteAlgebra(fld, data["basis"], table, unit)


def hopf_to_json(H: HopfAlgebraData) -> dict:
    out = algebra_to_json(H.algebra)
    out["comul"] = [
        [i, j, k, str(c)]
        for i in range(H.dim)
        for j, k, c in H.coalgebra.comul.get(i, ())
    ]
    out["counit"] = [[i, str(c)] for i, c in sorted(H.coalgebra.counit.items())]
    out["antipode"] = [
        [i, j, str(c)]
        for i in range(H.dim)
        for j, c in sorted(H.antipode.get(i, {}).items())
    ]
    if H.degrees is not None:
        out["degrees"] = list(H.degrees)
    return out


def hopf_from_json(data: dict) -> HopfAlgebraData:
    alg = algebra_from_json(data)
    fld = alg.field
    comul: dict = {}
    for i, j, k, s in data["comul"]:
        comul.setdefault(i, []).append((j, k, fld.parse(s)))
    comul = {k: tuple(v) for k, v in comul.items()}
    counit = {i: fld.parse(s) for i, s in data["counit"]}
    co = FiniteCoalgebra(fld, data["basis"], comul, counit)
    antipode: dict = {}
    for i, j, s in data["antipode"]:
        antipode.setdefault(i, {})[j] = fld.parse(s)
    return HopfAlgebraData(alg, co, antipode, degrees=data.get("degrees"))


def comodule_to_json(A: ComoduleAlgebra) -> dict:
    out = algebra_to_json(A.algebra)
    out["coaction"] = [
        [i, h, a, str(c)]
        for i in range(A.dim)
        for (h, a), c in A.coaction.get(i, ())
    ]
    out["params"] = {
        k: (str(v) if isinstance(v, CyclotomicNumber) else v)
        for k, v in sorted(A.params.items())
    }
    return out


def comodule_from_json(data: dict, over: HopfAlgebraData) -> ComoduleAlgebra:
    alg = algebra_from_json(data)
    fld = alg.field
    coaction: dict = {}
    for i, h, a, s in data["coaction"]:
        coaction.setdefault(i, []).append(((h, a), fld.parse(s)))
    coaction = {k: tuple(v) for k, v in coaction.items()}
    return ComoduleAlgebra(alg, over, coaction, data.get("params", {}))


def form_to_json(f: ConvForm) -> dict:
    return {
        "N": f.hopf.field.order,
        "arity": f.arity,
        "dim": f.hopf.dim,
        "entries": [list(k) + [str(c)] for k, c in sorted(f.coords.items())],
    }


def form_from_json(data: dict, hopf: HopfAlgebraData) -> ConvForm:
    fld = hopf.field
    coords = {
        tuple(row[:-1]): fld.parse(row[-1]) for row in data["entries"]
    }
    return ConvForm(hopf, data["arity"], coords)


def dumps_sorted(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2)
