"""Finite-dimensional (co)algebras, Hopf data, cocycles and deformations.

Everything is held as sparse structure constants over a cyclotomic field:

* algebra elements are dicts {basis index: coefficient},
* a multiplication table is packed (_Table): one list of dim^2 slots, row
  (i, j) in slot i * dim + j as a flat tuple of basis indices and value ids
  of the field's value index, read as (k, coefficient) pairs through a
  read-only mapping view,
* tensors in H (x) H or H (x) A are dicts keyed by index pairs,
* multilinear forms on H live in ConvForm and multiply by convolution.

Built structures are read-only: multiplication tables through their view;
comultiplication, counit, antipode, coaction and form tables are held as
mapping proxies.  Verifiers never mutate their arguments and report
failures with explicit witnesses instead of raising.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping
from types import MappingProxyType

from .cyclofield import CyclotomicField, CyclotomicNumber, add_image
from .exactlinalg import (SparseEchelon, Subspace, kernel_of_sparse_columns,
                          rank, vec_add_into)
from .reporting import VerificationReport
from .sides import CoactionSide, _same, coalgebra_failures

# ---------------------------------------------------------------------------
# sparse vector helpers
# ---------------------------------------------------------------------------


def read_only(table):
    """A read-only view of a dict, without a copy; a view is returned as
    it is, so a table shared between structures is wrapped once."""
    if isinstance(table, MappingProxyType):
        return table
    return MappingProxyType(table)


def _check_indices(what: str, dim: int, indices) -> None:
    """ValueError unless every index is in range(dim): a table row is read
    from slot i * dim + j, so an index outside would read another row."""
    bad = next((i for i in indices if not 0 <= i < dim), None)
    if bad is not None:
        raise ValueError(f"{what} index {bad} outside the {dim}-dimensional "
                         f"basis")


_ZERO = ()  # the zero row, one object shared by every table


class _Table(Mapping):
    """A multiplication table on range(dim)^2, packed into one list: row
    (i, j) is slot i * dim + j, a flat tuple (k0, v0, k1, v1, ...) of basis
    indices k and value ids v of the field's value index
    (CyclotomicField.interned), in the row's term order.  A slot is None
    until its row is filled and _ZERO for a zero row.

    A lazy table fills rows two ways, and never writes a slot already
    written.  The row fill, row(i, j), computes a missing row as fill(i, j)
    on its first read and keeps it; fill may write further slots itself
    (the skew-PBW fill keeps each row of its step chain).  The line fill,
    line(i), fills every missing row (i, 0..dim-1) in one pass of lines(i):
    the slice fill indexes its right legs by slice once per table, the
    skew-PBW fill steps along the line in step order.  Readers of whole
    lines take line (the plan path of _associativity_defects,
    _unit_failures, the monomial path of _product_failures, the exhaustive
    cocycle proof's counit check, _complete); readers of scattered rows
    take row (mul_into, the multiplicativity kernel, the slice fill's
    source reads): with line fills alone core-n5 set up 42 % and ran 25 %
    slower, and with one fill for both it ran 117 % slower (BENCH_38.json).
    Index kernels read rows, lines and slots; everything else reads the
    table as a read-only mapping, table[(i, j)] a tuple of (k, value) pairs
    made on read, () for a zero row or a key outside the basis.  Every
    whole-table view (iteration, keys, values, items, len, ==, copy, repr)
    first fills every row and lists the nonzero rows in row-major order.
    """

    __slots__ = ("dim", "value_of", "slots", "_fill", "_lines")

    def __init__(self, dim, value_of, fill=None, lines=None):
        self.dim, self.value_of, self._fill = dim, value_of, fill
        self._lines = lines
        self.slots = [_ZERO if fill is None else None] * (dim * dim)

    @classmethod
    def packed(cls, rows, dim, vi):
        """The table of a mapping (i, j) -> tuple of (k, coeff); zero
        coefficients are dropped, so no row holds value id 0."""
        _check_indices("table", dim, (x for (i, j), row in rows.items()
                                      for x in (i, j, *(k for k, _ in row))))
        table = cls(dim, vi.values)
        of = vi.of
        for (i, j), row in rows.items():
            table.slots[i * dim + j] = tuple(
                [x for k, c in row if not c.is_zero()
                 for x in (k, of(c))]) or _ZERO
        return table

    def row(self, i, j):
        """Row (i, j) as ids, filled on its first read."""
        n = i * self.dim + j
        row = self.slots[n]
        if row is None:
            row = self.slots[n] = self._fill(i, j) or _ZERO
        return row

    def line(self, i):
        """Rows (i, 0), ..., (i, dim - 1) as a list of ids, the missing ones
        filled in one line fill (row fills without one)."""
        a = i * self.dim
        line = self.slots[a:a + self.dim]
        if None in line:
            if self._lines is None:
                return [self.row(i, j) for j in range(self.dim)]
            self._lines(i)
            line = self.slots[a:a + self.dim]
        return line

    def _complete(self):
        if self._fill is not None:
            for i in range(self.dim):
                self.line(i)
            self._fill = self._lines = None
        return self.slots

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            return _ZERO
        values, it = self.value_of, iter(self.row(i, j))
        return tuple([(k, values[v]) for k, v in zip(it, it)])

    def get(self, key, default=None):
        return self[key] or default

    def __contains__(self, key):
        return bool(self[key])

    def __iter__(self):
        dim = self.dim
        return (divmod(n, dim) for n, row in enumerate(self._complete())
                if row)

    def __len__(self):
        return len(self.slots) - self._complete().count(_ZERO)

    def __reversed__(self):
        return reversed(list(self))

    def copy(self):
        return dict(self.items())

    def __repr__(self):
        return repr(self.copy())


def vec_scale(v: dict, c) -> dict:
    if c.is_zero():
        return {}
    return {k: c * x for k, x in v.items()}


def vec_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        vec_add_into(out, k, -c)
    return out


def vec_combine(images, terms, times=operator.mul) -> dict:
    """f(sum c e_m) over the (m, c) terms, for the linear map
    f(e_m) = images[m]; times multiplies the coefficients (for structure
    constants, the field's memoised CyclotomicField.interned.times)."""
    out: dict = {}
    for m, c in terms:
        for k, d in images[m].items():
            vec_add_into(out, k, times(c, d))
    return out


def mul_into(out: dict, mul: _Table, left, right, times=operator.mul) -> dict:
    """Add sum a b row(i, j) into out over the terms (i, a) of left and
    (j, b) of right, the rows read from the table mul, each id mapped to
    its value; empty rows are skipped.  right is read once per term of
    left, so it must be re-iterable; times multiplies as in vec_combine."""
    slots, values, row_of, dim = mul.slots, mul.value_of, mul.row, mul.dim
    for i, a in left:
        base = i * dim
        for j, b in right:
            row = slots[base + j]
            if row is None:
                row = row_of(i, j)
            if row:
                ab = times(a, b)
                it = iter(row)
                for k, c in zip(it, it):
                    vec_add_into(out, k, times(ab, values[c]))
    return out


def _pairs(row: tuple) -> tuple:
    """A packed row (k0, v0, k1, v1, ...) as its pairs ((k0, v0), ...)."""
    it = iter(row)
    return tuple(zip(it, it))


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
    """Associative unital algebra given by a sparse multiplication table.

    steps is a tuple of (m, p, s) with e_m = e_p e_s and e_s a generator.
    It is empty unless set after construction: skew_pbw_algebra sets it,
    and a deformation on the same basis carries it over.  solve_antipode
    and the exhaustive verifiers read the steps only through
    step_certificate, checked on the table itself.

    verified is None until an exhaustive verify_algebra or _proved_algebra
    decides the table, then whether it is unital and associative; the
    generator-tuple proofs read it (_proved_algebra).
    """

    __slots__ = ("field", "dim", "labels", "mul", "unit", "steps", "verified")

    def __init__(self, fld: CyclotomicField, labels, mul, unit):
        self.field = fld
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        # the packed table (_Table): row (i, j) in slot i * dim + j, as
        # basis indices and value ids of fld's value index, shared with
        # the algebra it comes from; any other mapping (i, j) -> tuple of
        # (k, coeff), missing = 0, is packed
        if not (isinstance(mul, _Table) and mul.dim == self.dim
                and mul.value_of is fld.interned.values):
            mul = _Table.packed(mul, self.dim, fld.interned)
        self.mul = mul
        _check_indices("unit", self.dim, unit)
        self.unit = read_only(
            {k: c for k, c in unit.items() if not c.is_zero()})
        self.steps = ()
        self.verified = None

    def basis_vec(self, i) -> dict:
        return {i: self.field.one}

    def unit_vec(self) -> dict:
        return dict(self.unit)

    def mul_vec(self, a: dict, b: dict) -> dict:
        # a key outside the basis would read another row's slot
        if a and b and (min(a) < 0 or min(b) < 0
                        or max(a) >= self.dim or max(b) >= self.dim):
            raise ValueError(f"a vector with a key outside the "
                             f"{self.dim}-dimensional basis")
        return mul_into({}, self.mul, a.items(), b.items())

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
        _check_indices("comultiplication", self.dim,
                       (x for i, ent in comul.items()
                        for j, k, _ in ent for x in (i, j, k)))
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
                 "_side", "_comul_reverse", "_comul_partners")

    def __init__(self, algebra: FiniteAlgebra, coalgebra: FiniteCoalgebra,
                 antipode: dict, degrees=None, side=None):
        if algebra.dim != coalgebra.dim:
            raise ValueError(f"algebra of dimension {algebra.dim} with a "
                             f"coalgebra of dimension {coalgebra.dim}")
        if algebra.labels != coalgebra.labels:
            raise ValueError("algebra and coalgebra label different bases")
        self.algebra = algebra
        self.coalgebra = coalgebra
        # i -> (j -> coeff)
        _check_indices("antipode", algebra.dim,
                       (x for i, v in antipode.items() for x in (i, *v)))
        self.antipode = read_only({i: read_only(v)
                                   for i, v in antipode.items()})
        self.degrees = tuple(degrees) if degrees is not None else None
        # side: another Hopf algebra's side on the same coalgebra data, as
        # deform_hopf hands it on (CoactionSide)
        self._side = None
        if side is not None and not (side.base is side and side.serves(self)):
            raise ValueError("the side of another coalgebra")
        self._side = side
        self.grouplikes = side.grouplikes if side is not None \
            else tuple(self._scan_grouplikes())
        self._comul_reverse = None
        self._comul_partners = None

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def labels(self):
        return self.algebra.labels

    @property
    def side(self) -> "CoactionSide":
        """Delta as H's coaction on itself, the coalgebra side of
        regular_comodule_algebra(H), made on first use."""
        if self._side is None:
            self._side = CoactionSide(self.field, self.dim, None, self)
        return self._side

    def _scan_grouplikes(self):
        one = self.field.one
        for i in range(self.dim):
            ent = self.coalgebra.comul.get(i, ())
            if len(ent) == 1:
                j, k, c = ent[0]
                if j == i and k == i and c == one \
                        and self.coalgebra.counit.get(i) == one:
                    yield i

    def comul_reverse(self):
        """dict (j, k) -> tuple of (i, c) with Delta(e_i) containing c*(e_j x e_k)."""
        if self._comul_reverse is None:
            rev: dict = {}
            for i, ent in self.coalgebra.comul.items():
                for j, k, c in ent:
                    rev.setdefault((j, k), []).append((i, c))
            self._comul_reverse = {k: tuple(v) for k, v in rev.items()}
        return self._comul_reverse

    def comul_partners(self):
        """dict j -> tuple of the k with (j, k) a key of comul_reverse()."""
        if self._comul_partners is None:
            partners: dict = {}
            for j, k in self.comul_reverse():
                partners.setdefault(j, []).append(k)
            self._comul_partners = {j: tuple(v) for j, v in partners.items()}
        return self._comul_partners


# ---------------------------------------------------------------------------
# tensor-square products (for bialgebra / comodule verification)
# ---------------------------------------------------------------------------


def t2_mul(alg1: FiniteAlgebra, alg2: FiniteAlgebra, A: dict, B: dict,
           times) -> dict:
    """Multiply two elements of alg1 (x) alg2, keys are (i, j) pairs."""
    out: dict = {}
    row1, row2 = alg1.mul.row, alg2.mul.row
    values1, values2 = alg1.mul.value_of, alg2.mul.value_of
    for (i1, j1), c1 in A.items():
        for (i2, j2), c2 in B.items():
            e2 = row2(j1, j2)
            if e2:
                c = times(c1, c2)
                it1 = iter(row1(i1, i2))
                for k1, d1 in zip(it1, it1):
                    cd = times(c, values1[d1])
                    it2 = iter(e2)
                    for k2, d2 in zip(it2, it2):
                        vec_add_into(out, (k1, k2), times(cd, values2[d2]))
    return out


def tensor_vec(a: dict, b: dict) -> dict:
    """a (x) b, keys are (i, j) pairs."""
    out: dict = {}
    for i, c in a.items():
        for j, d in b.items():
            vec_add_into(out, (i, j), c * d)
    return out


class ExhaustivePlan:
    """Every tuple over range(dim) of one arity whose last slot is in last,
    in lexicographic order; last is every index unless given (a generator
    plan, _generator_plan).

    Tuples are made on demand, so the plan holds no list: it has a length
    and can be iterated any number of times.
    """

    __slots__ = ("dim", "arity", "last")

    def __init__(self, dim: int, arity: int, last=None):
        self.dim, self.arity = dim, arity
        self.last = range(dim) if last is None else last

    def __len__(self):
        return self.dim ** (self.arity - 1) * len(self.last)

    def __iter__(self):
        return itertools.product(*(range(self.dim),) * (self.arity - 1),
                                 self.last)


def _is_full(plan) -> bool:
    """Whether plan is an ExhaustivePlan with every index in its last slot."""
    return isinstance(plan, ExhaustivePlan) and plan.last == range(plan.dim)


def _planned(plan, dim: int, arity: int):
    """The tuples a verifier checks: ExhaustivePlan(dim, arity) for None,
    else plan, an ExhaustivePlan or a list of tuples, once it fits.
    ValueError for a plan not over range(dim)^arity (an index outside would
    read another row's slot) or with no tuples (it would pass vacuously)."""
    if plan is None:
        return ExhaustivePlan(dim, arity)
    if isinstance(plan, ExhaustivePlan):
        fits, indices = (plan.dim, plan.arity) == (dim, arity), plan.last
    elif isinstance(plan, list):
        fits = all(len(t) == arity for t in plan)
        indices = (i for t in plan for i in t)
    else:
        raise TypeError(f"a plan is an ExhaustivePlan or a list of tuples, "
                        f"not {type(plan).__name__}")
    if not fits:
        raise ValueError(f"a plan not over range({dim})^{arity}")
    if not len(plan):
        raise ValueError("a sampled check needs at least one tuple")
    _check_indices("plan", dim, indices)
    return plan


def step_certificate(alg: FiniteAlgebra) -> tuple:
    """The generators of alg.steps, sorted, if the step certificate holds on
    the table itself; () if it fails or alg has no steps.

    The certificate: the unit is e_0; alg.steps lists (m, p, s) for
    m = 1, ..., dim - 1 in order, with p < m; and row (p, s) of the table is
    c e_m plus terms of lower index, with c != 0 (e_m is the row's last
    entry).  Then e_m = c^-1 (e_p e_s - sum c' e_m') for every m >= 1, the
    induction step of _generator_plan."""
    steps = alg.steps
    if not steps or alg.unit != {0: alg.field.one} \
            or [m for m, _, _ in steps] != list(range(1, alg.dim)):
        return ()
    row_of = alg.mul.row
    for m, p, s in steps:
        row = row_of(p, s) if 0 <= p < m and 0 <= s < alg.dim else ()
        if not (row and row[-2] == m and row[-1]
                and all(k < m for k in row[:-2:2])):
            return ()
    return tuple(sorted({s for _, _, s in steps}))


def _generator_plan(alg: FiniteAlgebra, plan, lead=(), proved=()):
    """The generator tuples that prove an exhaustive claim on alg, or None.

    None unless, checked in this order, plan is a full ExhaustivePlan (its
    last slot runs over every index), step_certificate(alg) holds and
    verify_algebra proves every algebra in `proved` unital and associative
    (_proved_algebra); so a sampled or an already reduced plan never runs
    an exhaustive verify_algebra.  Otherwise the ExhaustivePlan of
    plan.arity whose last slot is in `lead` or is a generator e_s of the
    certificate.

    The induction.  Write C(e_m) for the claim on every tuple whose last
    slot is e_m.  The claim is linear in each slot, so the generator tuples
    give C(e_s) for every generator.  Each caller's step identity derives
    C(e_p e_s) from C(e_p) and C(e_s), using the associativity of the
    tables in `proved`.  Induction on m in step order: C(e_0) is the lead
    0, or follows from the unit, which the caller checks first; for
    m >= 1 with step (m, p, s), p < m, row (p, s) is c e_m plus terms of
    lower index with c != 0, so C(e_p), the step identity and C at the
    lower terms give C(e_m).  So the claim holds on every tuple of plan."""
    if not _is_full(plan):
        return None
    gens = step_certificate(alg)
    if not gens or not all(_proved_algebra(a) for a in proved):
        return None
    return ExhaustivePlan(alg.dim, plan.arity, (*lead, *gens))


def _plan_failures(failures, plan, reduced) -> list:
    """failures(plan), the failures of an exhaustive or sampled plan,
    unless reduced (from _generator_plan) is not None and failures(reduced)
    finds nothing, which proves the claim: [].  So any failed precondition
    or generator tuple enumerates the plan, and witnesses and checked
    counts are always those of the full plan."""
    if reduced is not None and not failures(reduced):
        return []
    return failures(plan)


def _proved_algebra(alg: FiniteAlgebra) -> bool:
    """Whether an exhaustive verify_algebra proves alg unital and
    associative, decided once per table and kept in alg.verified.

    The verdict is verify_algebra's, without its report: it stops at the
    first failing unit element or triple.  A failing generator triple is a
    triple of the full plan, so it decides the verdict; only a failed
    certificate enumerates the full plan."""
    if alg.verified is None:
        triples = ExhaustivePlan(alg.dim, 3)
        reduced = _generator_plan(alg, triples)
        alg.verified = not _unit_failures(alg) and next(
            _associativity_defects(
                alg, triples if reduced is None else reduced), None) is None
    return alg.verified


def _witness(labels, tup, lhs, rhs):
    return {
        "tuple": [labels[t] for t in tup],
        "lhs": vec_str(lhs, labels),
        "rhs": vec_str(rhs, labels),
    }


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def _associativity_defects(alg: FiniteAlgebra, triples):
    """((a, b, s), lhs, rhs) for each planned triple, in plan order, with
    lhs = (e_a e_b) e_s != rhs = e_a (e_b e_s), read from the table rows.

    A sampled list multiplies out each triple's rows in field values
    (mul_into through the field's memoised CyclotomicField.interned.times),
    so it reads the rows of its triples only.  An exhaustive or generator
    plan, every (a, b, s) with s in triples.last, reads the packed rows'
    value ids as pairs, line a (_Table.line) for the first slot and row
    (m, s) by m for the last; both sides multiply on the field's value
    index and sum its packed images inline (_ValueIndex.images), so they
    are dicts of ints; a line during which a new value repacked the images
    is decided again.  A triple whose four rows are single terms passes
    when both sides have one index and one product id.  Every value is
    exact."""
    mul, dim, vi = alg.mul, alg.dim, alg.field.interned
    if isinstance(triples, list):
        one = alg.field.one
        for a, b, s in triples:
            lhs = mul_into({}, mul, mul[(a, b)], ((s, one),), vi.times)
            rhs = mul_into({}, mul, ((a, one),), mul[(b, s)], vi.times)
            if lhs != rhs:
                yield (a, b, s), lhs, rhs
        return
    img, products, product = vi.images(), vi.products, vi.product
    row, same = mul.row, vi.same

    rights = [(s, [_pairs(row(n, s)) for n in range(dim)])
              for s in triples.last]
    a = 0
    while a < dim:
        left = [_pairs(r) for r in mul.line(a)]
        layout, found = vi.layout, []
        for b in range(dim):
            ab = left[b]
            for s, right in rights:
                bs = right[b]
                if len(ab) == 1 == len(bs):
                    # single terms: (index, product id) on each side; any
                    # mismatch falls through to the sums and their witness.
                    # Without this path verify-n3 ran 2.2 % slower (10 of
                    # 10 pairs, BENCH_38.json)
                    (m, c), = ab
                    (n, d), = bs
                    if len(right[m]) == 1 == len(left[n]):
                        (k, x), = right[m]
                        (t, y), = left[n]
                        if k == t and (products[c].get(x) or product(c, x)) \
                                == (products[d].get(y) or product(d, y)):
                            continue
                # inline: one call per side made gr(u_q)'s generator
                # triples at N = 5 take about 1.8x as long
                lhs: dict = {}
                for m, c in ab:
                    for k, x in right[m]:
                        v = img[products[c].get(x) or product(c, x)]
                        got = lhs.get(k)
                        lhs[k] = v if got is None else got + v
                rhs: dict = {}
                for n, d in bs:
                    for k, y in left[n]:
                        v = img[products[d].get(y) or product(d, y)]
                        got = rhs.get(k)
                        rhs[k] = v if got is None else got + v
                if not same(lhs, rhs):
                    found.append(((a, b, s), lhs, rhs))
        if vi.layout != layout:
            continue  # a new value repacked the images: line a again
        # decoded before a consumer can intern a value
        yield from [(t, vi.decoded(lhs), vi.decoded(rhs))
                    for t, lhs, rhs in found]
        a += 1


def _unit_failures(alg: FiniteAlgebra) -> list:
    """The labels of the basis elements e with 1 e != e or e 1 != e.  When
    the unit is e_0, e_i passes when rows (0, i) and (i, 0) are both
    (i, 1), id 1 being one; any other e_i, or unit, multiplies out."""
    one, maybe = alg.unit_vec(), range(alg.dim)
    # multiplying every e_i out made verify-n3 1.4 % slower (10 of 10
    # pairs, BENCH_38.json)
    if one == {0: alg.field.one}:
        first, row = alg.mul.line(0), alg.mul.row
        maybe = [i for i in maybe
                 if first[i] != (i, 1) or row(i, 0) != (i, 1)]
    bad = []
    for i in maybe:
        e = alg.basis_vec(i)
        if alg.mul_vec(one, e) != e or alg.mul_vec(e, one) != e:
            bad.append(alg.labels[i])
    return bad


def verify_algebra(alg: FiniteAlgebra, triples=None) -> VerificationReport:
    """The unit and associativity of alg's table, on the planned triples
    (_planned; None is every triple).

    Once the unit claim passes, a full plan is proved on the triples
    (a, b, s) (_generator_plan), by the step identity (x y)(e_p e_s) =
    ((x y) e_p) e_s = (x (y e_p)) e_s = x ((y e_p) e_s) = x (y (e_p e_s)).
    Only a full plan records in alg.verified whether both claims passed.
    """
    triples = _planned(triples, alg.dim, 3)
    rep = VerificationReport({"dim": alg.dim})
    labels = alg.labels
    bad_unit = _unit_failures(alg)
    rep.add_failures("algebra-unit", "unital-multiplication", bad_unit)

    def failures(plan):
        return [_witness(labels, tup, lhs, rhs) for tup, lhs, rhs
                in _associativity_defects(alg, plan)]

    bad = _plan_failures(failures, triples,
                         None if bad_unit else _generator_plan(alg, triples))
    rep.add_failures("algebra-associativity", "associative-multiplication",
                     bad, triples)
    if _is_full(triples):
        alg.verified = not bad_unit and not bad
    return rep


def _antipode_sides(H: HopfAlgebraData, i: int):
    """m(S x id)Delta(e_i), m(id x S)Delta(e_i) and eps(e_i) 1, the three
    sides of the antipode axioms on one basis element, the first two from
    the table rows (m, k) and (j, m), summed on packed images
    (_ValueIndex.images), so no partial sum enters the value index; summed
    again if a new value repacked the images."""
    alg = H.algebra
    row, S, vi = alg.mul.row, H.antipode, alg.field.interned
    of, product, img, layout = vi.of, vi.product, vi.images(), vi.layout
    left, right = {}, {}
    for j, k, c in H.coalgebra.comul.get(i, ()):
        c = of(c)
        for m, a in S.get(j, {}).items():
            ac = product(of(a), c)
            it = iter(row(m, k))
            for t, d in zip(it, it):
                add_image(left, t, img[product(ac, d)])
        for m, a in S.get(k, {}).items():
            ca = product(c, of(a))
            it = iter(row(j, m))
            for t, d in zip(it, it):
                add_image(right, t, img[product(ca, d)])
    if vi.layout != layout:
        return _antipode_sides(H, i)
    eps = H.coalgebra.counit.get(i, alg.field.zero)
    return vi.decoded(left), vi.decoded(right), vec_scale(alg.unit_vec(), eps)


def verify_hopf(H: HopfAlgebraData, triples=None,
                pairs=None) -> VerificationReport:
    """Associativity on the planned triples, the coalgebra and bialgebra
    axioms, multiplicativity on the planned pairs, the antipode (_planned;
    None is every tuple).

    Coassociativity, the left counit, Delta(1) = 1 (x) 1 and the
    multiplicativity of Delta are the coaction axioms of H as a comodule
    algebra over itself (regular_comodule_algebra), read from the kernel of
    verify_comodule_algebra; the right counit and the counit as an algebra
    map are checked here.  Coassociativity and both counits are decided
    once per coalgebra side (sides.coalgebra_failures), which deform_hopf
    hands on.

    A full plan proves the counit's multiplicativity on the pairs (a, s),
    s = 0 or a generator (_generator_plan), by the step identity
    eps(x (e_p e_s)) = eps(x e_p) eps(e_s) = eps(x) eps(e_p) eps(e_s)."""
    alg, co = H.algebra, H.coalgebra
    labels = alg.labels
    pairs = _planned(pairs, alg.dim, 2)
    rep = VerificationReport({"dim": alg.dim})
    rep.extend(verify_algebra(alg, triples))

    times = alg.field.interned.times
    bad_co, bad_left, delta_1, bad_mult = _coaction_failures(
        regular_comodule_algebra(H), pairs)
    rep.add_failures("coalgebra-coassociativity",
                     "coassociative-comultiplication", bad_co)

    # the right counit, (id x eps)Delta = id, is not a left-coaction axiom
    bad_right = H.side.once("coalgebra", coalgebra_failures)[2]
    bad = [labels[i] for i in range(alg.dim)
           if labels[i] in bad_left or i in bad_right]
    rep.add_failures("coalgebra-counit", "counit-axiom", bad)

    one = alg.unit_vec()
    rep.add("bialgebra-unit", "comultiplication-of-unit", delta_1 is None,
            delta_1)
    rep.add("bialgebra-counit-unit", "counit-of-unit",
            co.counit_vec(one) == alg.field.one, None)

    zero = alg.field.zero

    def counit_failures(plan):
        return [[labels[i], labels[j]] for i, j in plan
                if co.counit_vec(dict(alg.mul[(i, j)]))
                != times(co.counit.get(i, zero), co.counit.get(j, zero))]

    bad_counit = _plan_failures(
        counit_failures, pairs,
        _generator_plan(alg, pairs, lead=(0,), proved=(alg,)))
    rep.add_failures("bialgebra-multiplicativity",
                     "comultiplication-algebra-map", bad_mult, pairs)
    rep.add_failures("bialgebra-counit-multiplicative", "counit-algebra-map",
                     bad_counit, pairs)

    # the antipode axioms on every basis element
    bad = []
    for i in range(alg.dim):
        left, right, target = _antipode_sides(H, i)
        if left != target or right != target:
            bad.append({"element": labels[i],
                        "m(S x id)Delta": vec_str(left, labels),
                        "m(id x S)Delta": vec_str(right, labels),
                        "expected": vec_str(target, labels)})
    rep.add_failures("hopf-antipode", "antipode-axioms", bad)
    return rep


# ---------------------------------------------------------------------------
# multilinear forms under convolution
# ---------------------------------------------------------------------------


class ConvForm:
    """An n-linear form on H, multiplied by convolution through Delta.

    arity 1 gives linear functionals, arity 2 bilinear forms (cocycles).
    """

    __slots__ = ("hopf", "arity", "coords", "_factors")

    def __init__(self, hopf: HopfAlgebraData, arity: int, coords: dict):
        self.hopf = hopf
        self.arity = arity
        self.coords = read_only(
            {k: c for k, c in coords.items() if not c.is_zero()})
        self._factors = None  # factor_form's result, once computed

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
                and self.coords == other.coords)

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
    """(f*g)(h) = f(h_(1)) g(h_(2)) slotwise, driven by both supports.

    Only live pairs of coordinates are visited: g's coordinates are indexed
    by their first slot, and a coordinate of f with first slot x meets only
    those whose first slot y has (x, y) in comul_reverse, in g's order.
    Every slot is then checked through comul_reverse, so the terms, their
    order and the sums are those of the loop over all pairs.  Coordinates
    and coproduct coefficients multiply through the field's memoised
    product (CyclotomicField.interned)."""
    _same_hopf(f, g)
    if f.arity != g.arity:
        raise ValueError(f"convolution kind mismatch: arity {f.arity} vs {g.arity}")
    rev = f.hopf.comul_reverse()
    partners = f.hopf.comul_partners()
    times = f.hopf.field.interned.times
    by_first: dict = {}
    for pos, (kg, cg) in enumerate(g.coords.items()):
        by_first.setdefault(kg[0], []).append((pos, kg, cg))
    live: dict = {}
    out: dict = {}
    for kf, cf in f.coords.items():
        pairs = live.get(kf[0])
        if pairs is None:
            pairs = live[kf[0]] = sorted(
                t for y in partners.get(kf[0], ()) for t in by_first.get(y, ()))
        for _, kg, cg in pairs:
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
            stack = [((), times(cf, cg))]
            for cand in sources:
                stack = [(key + (i,), times(c, d)) for key, c in stack for i, d in cand]
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


def _one_sided_twist(sigma: ConvForm) -> FiniteAlgebra:
    """The one-sided twist a.b = sigma(a1, b1) a2 b2 of H over itself:
    deform_comodule_algebra of H over itself, on H's basis and steps, each
    row computed on its first read."""
    H = sigma.hopf
    return deform_comodule_algebra(regular_comodule_algebra(H), sigma,
                                   H).algebra


def _cocycle_sides(sigma: ConvForm, twist: FiniteAlgebra):
    """The function (a, b, c) -> (sigma(a.b, c), sigma(a, b.c)) on basis
    indices, for sigma's one-sided twist (_one_sided_twist).  sigma is
    linear in each slot, so these are the two sides
    sigma(a1, b1) sigma(a2 b2, c) and sigma(b1, c1) sigma(a, b2 c2) of the
    2-cocycle identity."""
    zero = sigma.hopf.field.zero
    sig, times = sigma.coords, sigma.hopf.field.interned.times
    row, values = twist.mul.row, twist.mul.value_of

    def sides(a, b, c):
        lhs = zero
        it = iter(row(a, b))
        for m, t in zip(it, it):
            s = sig.get((m, c))
            if s is not None:
                lhs = lhs + times(values[t], s)
        rhs = zero
        it = iter(row(b, c))
        for m, t in zip(it, it):
            s = sig.get((a, m))
            if s is not None:
                rhs = rhs + times(values[t], s)
        return lhs, rhs

    return sides


def verify_hopf_2cocycle(sigma: ConvForm, triples=None) -> VerificationReport:
    """Unitality, and the 2-cocycle identity on the planned triples
    (_planned; None is every triple)

    sigma(a1, b1) sigma(a2 b2, c) = sigma(b1, c1) sigma(a, b2 c2),

    with both sides read off rows of the one-sided twist T,
    a.b = sigma(a1, b1) a2 b2 (_cocycle_sides).

    An exhaustive plan is proved when eps(a.b) = sigma(a, b) on every pair
    and verify_algebra proves T associative (_proved_algebra): the two sides
    are then eps((a.b).c) and eps(a.(b.c)), and no Hopf axiom is assumed.
    Otherwise every planned triple is checked.
    """
    _require_bilinear(sigma)
    H = sigma.hopf
    alg, co = H.algebra, H.coalgebra
    labels = alg.labels
    zero = H.field.zero
    triples = _planned(triples, alg.dim, 3)
    rep = VerificationReport()

    # sigma(e_i, 1) and sigma(1, e_i), summed over the unit's terms
    sig, unit = sigma.coords, alg.unit.items()
    bad = []
    for i in range(alg.dim):
        eps = co.counit.get(i, zero)
        lhs = sum((c * sig.get((i, u), zero) for u, c in unit), zero)
        rhs = sum((c * sig.get((u, i), zero) for u, c in unit), zero)
        if lhs != eps or rhs != eps:
            bad.append(labels[i])
    rep.add_failures("cocycle-unital", "cocycle-unitality", bad)

    twist = _one_sided_twist(sigma)
    values = twist.mul.value_of
    proved = isinstance(triples, ExhaustivePlan) \
        and all(co.counit_vec({k: values[v] for k, v in _pairs(row)})
                == sigma(a, b) for a in range(twist.dim)
                for b, row in enumerate(twist.mul.line(a))) \
        and _proved_algebra(twist)
    bad = []
    if not proved:
        sides = _cocycle_sides(sigma, twist)
        for (a, b, c) in triples:
            lhs, rhs = sides(a, b, c)
            if lhs != rhs:
                bad.append({"triple": [labels[a], labels[b], labels[c]],
                            "lhs": str(lhs), "rhs": str(rhs)})
    rep.add_failures("cocycle-identity", "hopf-2-cocycle-identity", bad,
                     triples)
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
        if cur == unit:
            return prev
        prev, cur = cur, alg.mul_vec(cur, alg.basis_vec(idx))
    raise ValueError(f"basis element {alg.labels[idx]} is not of finite order")


def _step_image(S: dict, mul, m: int, p: int, s: int, fld):
    """S(e_m) by the step rule for the step e_m = e_p e_s, or None while one
    of the S values it needs is unsolved.

    Under step_certificate, row (p, s) is c e_m plus terms of lower index
    with c != 0, so e_m = c^-1 (e_p e_s - sum c' e_m'), and the antipode, an
    anti-algebra map, gives S(e_m) = c^-1 (S(e_s) S(e_p) - sum c' S(e_m'))."""
    row = mul[(p, s)]
    if p not in S or s not in S or any(k not in S for k, _ in row[:-1]):
        return None
    times, c = fld.interned.times, row[-1][1]
    cinv = c if c is fld.one else c.inverse()
    out = mul_into({}, mul, [(k, times(cinv, a)) for k, a in S[s].items()],
                   S[p].items(), times)
    neg_cinv = -cinv
    for k, d in row[:-1]:
        f = times(neg_cinv, d)
        for t, v in S[k].items():
            vec_add_into(out, t, times(f, v))
    return out


def _delta_image(S: dict, alg: FiniteAlgebra, co: FiniteCoalgebra, m: int,
                 grouplike_inverses: dict):
    """S(e_m) by the Delta rule, or None while an S(e_a) it needs is
    unsolved.  Delta(e_m) = e_m (x) c e_b + sum c' e_a (x) e_b' with e_b an
    invertible grouplike-type basis element, so m(S x id)Delta(e_m) =
    eps(e_m) 1 gives S(e_m) = (eps(e_m) 1 - sum c' S(e_a) e_b') (c e_b)^-1."""
    fld = alg.field
    mul = alg.mul
    ent = co.comul.get(m, ())
    if any(a != m and a not in S for a, b, c in ent):
        return None
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
    rhs = vec_scale(alg.unit_vec(), co.counit.get(m, fld.zero))
    for a, b, c in rest_first:
        # minus c S(e_a) e_b, read from the table rows (., b)
        mul_into(rhs, mul, S[a].items(), ((b, -c),), fld.interned.times)
    ginv = grouplike_inverses.get(bidx)
    if ginv is None:
        ginv = grouplike_inverses[bidx] = _invert_grouplike(alg, bidx)
    binv = vec_scale(ginv, bcoef.inverse())
    return alg.mul_vec(rhs, binv)


def solve_antipode(alg: FiniteAlgebra, co: FiniteCoalgebra) -> dict:
    """The antipode S, from m (S x id) Delta = unit counit.

    One worklist runs over the basis in index order, and each pending e_m
    takes the first of two rules whose inputs are solved:

    * the step rule (_step_image), when step_certificate holds on the table
      and alg.steps has e_m = e_p e_s: S(e_m) from S(e_s) S(e_p) and S of
      the lower terms of row (p, s);
    * the Delta rule (_delta_image), which needs every
      Delta(e_m) = e_m (x) B_m + sum (solved) (x) (...) with B_m a scalar
      multiple of an invertible grouplike-type basis element.

    A failed certificate leaves every e_m to the Delta rule, as for an
    algebra without steps; it is the certificate by which the exhaustive
    verifiers reduce their plans.  The step rule reads far fewer table
    rows, which matters for a deformed table that computes each row on its
    first read.  The construction is not the proof: verify_hopf checks both
    antipode axioms on every basis element.  S keeps the canonical objects
    of the field's value index.  No progress raises ValueError naming the
    unsolved elements.
    """
    mul, canonical = alg.mul, alg.field.interned.canonical
    steps = {m: (p, s) for m, p, s in alg.steps} if step_certificate(alg) \
        else {}
    S: dict = {}
    grouplike_inverses: dict = {}

    pending = list(range(alg.dim))
    while pending:
        left = []
        for m in pending:
            image = None
            if m in steps:
                image = _step_image(S, mul, m, *steps[m], alg.field)
            if image is None:
                image = _delta_image(S, alg, co, m, grouplike_inverses)
            if image is None:
                left.append(m)
            else:
                S[m] = {k: canonical(c) for k, c in image.items()}
        if len(left) == len(pending):
            raise ValueError(
                "antipode system unsolvable: no triangular order covers "
                + ", ".join(alg.labels[m] for m in left)
            )
        pending = left
    return S


def factor_form(form: ConvForm):
    """Slices of a bilinear form: form(h1, h2) = sum_n alpha_n(h1) beta_n(h2).

    Rows of the coordinate matrix (h1 fixed) that are scalar multiples of
    one another share a slice n: beta_n is the first such row divided by
    its lead coefficient (the one at the smallest h2), and alpha_n(h1) is
    the lead coefficient of row h1.  Only lead coefficients are inverted,
    and any form factors this way.  Returns (alpha, beta, count) with
    alpha[h1] and beta[h2] tuples of (n, coefficient), each coefficient the
    canonical object of the field's value index (CyclotomicField.interned).
    Computed once per form and kept on it, read-only.
    """
    _require_bilinear(form)
    if form._factors is not None:
        return form._factors
    fld = form.hopf.field
    times, canonical = fld.interned.times, fld.interned.canonical
    rows: dict = {}
    for (h1, h2), c in sorted(form.coords.items()):
        rows.setdefault(h1, []).append((h2, c))
    slices: dict = {}
    alpha: dict = {}
    beta: dict = {}
    for h1, row in rows.items():
        lead = canonical(row[0][1])
        if lead is not fld.one:
            inv = lead.inverse()
            row = [(h2, times(c, inv)) for h2, c in row]
        norm = tuple((h2, canonical(c)) for h2, c in row)
        n = slices.get(norm)
        if n is None:
            n = slices[norm] = len(slices)
            for h2, c in norm:
                beta.setdefault(h2, []).append((n, c))
        alpha[h1] = ((n, lead),)
    form._factors = (read_only(alpha),
                     read_only({h: tuple(v) for h, v in beta.items()}),
                     len(slices))
    return form._factors


def _contract(terms, factors, vi) -> dict:
    """One slot contracted with the slices of a form: {n: {b: sum c
    f_n(h)}} on the value index vi over the terms (h, b, c), where
    factors[h] lists the slices (n, f_n(h)) of that slot from factor_form.
    A term whose h has no slice is skipped before any multiply."""
    of, product, add = vi.of, vi.product, vi.add
    acc: dict = {}
    for h, b, c in terms:
        fs = factors.get(h)
        if fs is not None:
            x = of(c)
            for n, f in fs:
                add(acc.setdefault(n, {}), b, product(x, of(f)))
    return acc


def _sealed(acc: dict) -> dict:
    """The legs {p: ((a, x), ...)} of a contraction {p: {a: x}}, sorted,
    each x a nonzero index on the field's value index."""
    return {p: leg for p, v in acc.items()
            if (leg := tuple(sorted([(a, x) for a, x in v.items() if x])))}


def _packed(out: dict) -> tuple:
    """The packed row of a dict {k: value id}, by increasing k, without
    the zero ids."""
    row: list = []
    for k in sorted(out):
        if out[k]:
            row += (k, out[k])
    return tuple(row)


def _slice_table(mul: _Table, left, right, fld) -> _Table:
    """The products e_i * e_j = sum_p left[i][p] right[j][p] in the table
    mul, for the contracted legs left[i] of e_i and right[j] of e_j
    (_sealed), as a table whose rows are computed on first read, summed
    inline on the field's value index.  The line fill reads the right legs
    indexed by slice once per table, so each term of left[i] meets only the
    rows j whose leg has its slice.  The row fill stays for scattered
    readers: a core-n5 round fills 11 073 rows of its slice tables, where
    the lines those rows lie on hold 42 875 (zoo-n5: 2 132 of 14 450)."""
    vi = fld.interned
    products, sums, product, total = vi.products, vi.sums, vi.product, vi.total
    slots, row_of, dim = mul.slots, mul.row, mul.dim
    # left[i] as one tuple of (p, a, x), the right legs as
    # {p: [(j, b, y), ...]}
    left = [tuple([(p, a, x) for p, leg in legs.items() for a, x in leg])
            for legs in left]
    by_slice: dict = {}
    for j, legs in enumerate(right):
        for p, leg in legs.items():
            by_slice.setdefault(p, []).extend((j, b, y) for b, y in leg)

    def fill(i, j):
        out: dict = {}
        rj = right[j]
        for p, a, x in left[i]:
            for b, y in rj.get(p, ()):
                row = slots[a * dim + b]
                if row is None:
                    row = row_of(a, b)
                if not row:
                    continue
                xy = products[x].get(y) or product(x, y)
                pxy = products[xy]
                it = iter(row)
                for k, c in zip(it, it):
                    v = pxy.get(c) or product(xy, c)
                    got = out.get(k)
                    if got is None:
                        out[k] = v
                    else:
                        t = sums[got].get(v)
                        out[k] = total(got, v) if t is None else t
        return _packed(out)

    def lines(i):
        # fill's sums for every missing row j of line i at once
        base = i * n
        outs = {j: {} for j in range(n) if own[base + j] is None}
        for p, a, x in left[i]:
            for j, b, y in by_slice.get(p, ()):
                out = outs.get(j)
                if out is None:
                    continue
                row = slots[a * dim + b]
                if row is None:
                    row = row_of(a, b)
                if not row:
                    continue
                xy = products[x].get(y) or product(x, y)
                pxy = products[xy]
                it = iter(row)
                for k, c in zip(it, it):
                    v = pxy.get(c) or product(xy, c)
                    got = out.get(k)
                    if got is None:
                        out[k] = v
                    else:
                        t = sums[got].get(v)
                        out[k] = total(got, v) if t is None else t
        for j, out in outs.items():
            own[base + j] = _packed(out)

    n = len(left)
    table = _Table(n, vi.values, fill, lines)
    own = table.slots
    return table


def _two_sided_legs(H: HopfAlgebraData, sigma: ConvForm,
                    sigma_inv: ConvForm):
    """Contracted legs of every basis element for
    a *_sigma b = sigma(a1, b1) a2 b2 sigma^{-1}(a3, b3): left[i][p] =
    sum c alpha_n(a1) alpha'_m(a3) e_a2, right[i][p] the same with betas,
    p = n count' + m.  One slot at a time: sigma^{-1}'s slot over
    Delta(e_i) = sum c e_a (x) e_a3 gives u_m = sum c alpha'_m(a3) e_a, and
    sigma's slot over Delta(u_m) is u_m's combination of the one-sided legs
    of the e_a, as deform_comodule_algebra contracts H over itself."""
    comul, vi = H.coalgebra.comul, H.field.interned
    alpha, beta, _ = factor_form(sigma)
    alpha_inv, beta_inv, count_inv = factor_form(sigma_inv)
    sides = []
    for outer, inner in ((alpha_inv, alpha), (beta_inv, beta)):
        one_sided = [_contract(comul.get(a, ()), inner, vi)
                     for a in range(H.dim)]
        legs = []
        for i in range(H.dim):
            acc: dict = {}
            flipped = ((a3, a, c) for a, a3, c in comul.get(i, ()))
            for m, u in _contract(flipped, outer, vi).items():
                for a, x in u.items():
                    for n, w in one_sided[a].items():
                        dst = acc.setdefault(n * count_inv + m, {})
                        for b, y in w.items():
                            vi.add(dst, b, vi.product(x, y))
            legs.append(_sealed(acc))
        sides.append(legs)
    return tuple(sides)


def deform_hopf(H: HopfAlgebraData, sigma: ConvForm, sigma_inv: ConvForm,
                labels=None) -> HopfAlgebraData:
    """Full cocycle deformation by sigma with convolution inverse sigma_inv:
    new multiplication table on the same basis (so H's steps carry over),
    same coalgebra and coalgebra side (HopfAlgebraData.side), antipode
    recomputed by solve_antipode.  Every product is the sigma formula,
    evaluated by the slice kernel."""
    left, right = _two_sided_legs(H, sigma, sigma_inv)
    table = _slice_table(H.algebra.mul, left, right, H.field)
    alg = FiniteAlgebra(H.field, labels or H.labels, table,
                        H.algebra.unit_vec())
    alg.steps = H.algebra.steps
    co = H.coalgebra
    if labels is not None:
        co = FiniteCoalgebra(H.field, labels, co.comul, co.counit)
    antipode = solve_antipode(alg, co)
    return HopfAlgebraData(alg, co, antipode, degrees=H.degrees, side=H.side)


# ---------------------------------------------------------------------------
# comodule algebras
# ---------------------------------------------------------------------------


class ComoduleAlgebra:
    """A right H-simple-candidate algebra with a left H-coaction.

    coaction maps basis index i to a tuple (((h, a), c), ...) meaning
    delta(e_i) = sum c * e_h (x) e_a.  side is the CoactionSide of another
    comodule algebra on this coaction over H's coalgebra data, as
    deform_comodule_algebra hands it on (sides.CoactionSide); without it
    A gets a new side.
    """

    __slots__ = ("algebra", "over", "coaction", "params", "side")

    def __init__(self, algebra: FiniteAlgebra, over: HopfAlgebraData,
                 coaction: dict, params=None, side=None):
        if algebra.field is not over.field:
            # the kernels read both tables' value ids on one value index
            raise ValueError("an algebra and a Hopf algebra over two field "
                             "objects")
        if side is None:
            _check_indices("coaction", algebra.dim, (
                x for i, ent in coaction.items()
                for x in (i, *(a for (_, a), _ in ent))))
            _check_indices("coaction", over.dim, (
                h for ent in coaction.values() for (h, _), _ in ent))
            side = CoactionSide(algebra.field, algebra.dim,
                                read_only(coaction), over, over.side)
        elif side.dim != algebra.dim or not side.serves(over) \
                or not _same(coaction, side.coaction):
            raise ValueError("the side of another coaction")
        self.algebra = algebra
        self.over = over
        self.coaction = side.coaction
        self.params = read_only(dict(params or {}))
        self.side = side

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


def _coaction_failures(A: ComoduleAlgebra, pairs):
    """The coaction axioms of A, as (coassociativity, counit, unit,
    multiplicativity): the labels of the basis elements failing
    (Delta x id)delta = (id x delta)delta, those failing
    (eps x id)delta = id, the witness of delta(1) != 1 (x) 1 (None when it
    holds), and [label_a, label_b] for each planned pair (a, b) failing
    delta(ab) = delta(a) delta(b).  The first two read A's coaction side
    only and are decided once per side (sides.coalgebra_failures).

    Once delta(1) = 1 (x) 1 holds, an exhaustive plan is proved on the
    pairs (a, s) (_generator_plan, A and H proved associative), by the step
    identity delta(x (e_p e_s)) = delta(x e_p) delta(e_s)
    = delta(x) delta(e_p) delta(e_s) = delta(x) delta(e_p e_s)."""
    H = A.over
    alg = A.algebra
    labels = alg.labels
    bad_co, bad_eps, _ = A.side.once("coalgebra", coalgebra_failures)

    du = A.coact_vec(alg.unit_vec())
    target = tensor_vec(H.algebra.unit_vec(), alg.unit_vec())
    unit = None
    if du != target:
        names = {(h, a): f"{H.labels[h]} (x) {labels[a]}"
                 for h, a in (*du, *target)}
        unit = {"delta_1": vec_str(du, names),
                "expected": vec_str(target, names)}

    reduced = None if unit is not None \
        else _generator_plan(alg, pairs, proved=(alg, H.algebra))
    return [labels[i] for i in bad_co], [labels[i] for i in bad_eps], \
        unit, _plan_failures(lambda plan: _multiplicativity_failures(A, plan),
                             pairs, reduced)


def _multiplicativity_failures(A: ComoduleAlgebra, pairs) -> list:
    """[label_a, label_b] for each planned pair (a, b), in plan order, with
    delta(e_a e_b) != delta(e_a) delta(e_b).

    Both sides are dicts (h, x) -> packed image, summed inline as in
    _associativity_defects: the left sums c delta(e_m) over row (a, b) of
    A's table, the right multiplies in H (x) A.  A product memo miss reads
    as None, and index 0 is false, so `or` falls through to product only
    on a miss or a zero factor.  A check during which a new value
    repacked the images runs again, on memoised products."""
    hmul, amul, labels = A.over.algebra.mul, A.algebra.mul, A.labels
    hslots, hdim, hrow = hmul.slots, hmul.dim, hmul.row
    aslots, adim, arow = amul.slots, amul.dim, amul.row
    vi = A.field.interned
    products, of, product, same = vi.products, vi.of, vi.product, vi.same
    # delta(e_m) as ((h, x), index) items
    terms = [tuple([(key, of(c)) for key, c in A.coaction.get(m, ())])
             for m in range(A.dim)]
    img, layout = vi.images(), vi.layout

    bad = []
    for i, j in pairs:
        lhs: dict = {}
        it = iter(arow(i, j))
        for m, x in zip(it, it):
            for key, y in terms[m]:
                add_image(lhs, key, img[products[x].get(y) or product(x, y)])
        rhs: dict = {}
        for (h1, a1), x1 in terms[i]:
            for (h2, a2), x2 in terms[j]:
                # slots read inline: a call per row read made sampled
                # pairs at N = 5 about 8 % slower
                e1 = hslots[h1 * hdim + h2]
                if e1 is None:
                    e1 = hrow(h1, h2)
                if not e1:
                    continue
                e2 = aslots[a1 * adim + a2]
                if e2 is None:
                    e2 = arow(a1, a2)
                if not e2:
                    continue
                c = products[x1].get(x2) or product(x1, x2)
                it1 = iter(e1)
                for k1, y in zip(it1, it1):
                    cd = products[c].get(y) or product(c, y)
                    pcd = products[cd]
                    it2 = iter(e2)
                    for k2, z in zip(it2, it2):
                        v = img[pcd.get(z) or product(cd, z)]
                        got = rhs.get(key := (k1, k2))
                        rhs[key] = v if got is None else got + v
        if not same(lhs, rhs):
            bad.append([labels[i], labels[j]])
    if vi.layout != layout:
        return _multiplicativity_failures(A, pairs)
    return bad


def verify_comodule_algebra(A: ComoduleAlgebra,
                            pairs=None) -> VerificationReport:
    """The coaction axioms of A: coassociativity, the counit, delta(1) =
    1 (x) 1 and delta(ab) = delta(a) delta(b) on the planned pairs
    (_planned; None is every pair).

    A full plan proves multiplicativity on the generator pairs (a, s)
    (_coaction_failures)."""
    alg = A.algebra
    pairs = _planned(pairs, alg.dim, 2)
    rep = VerificationReport({"dim": alg.dim,
                              "params": {k: str(v) for k, v in A.params.items()}})
    bad_co, bad_eps, unit, bad = _coaction_failures(A, pairs)
    rep.add_failures("comodule-coassociativity", "coaction-coassociativity",
                     bad_co)
    rep.add_failures("comodule-counit", "coaction-counit", bad_eps)
    rep.add("comodule-unit", "coaction-of-unit", unit is None, unit)
    rep.add_failures("comodule-multiplicativity", "coaction-algebra-map", bad,
                     pairs)
    return rep


def deform_comodule_algebra(A: ComoduleAlgebra, sigma: ConvForm,
                            over: HopfAlgebraData) -> ComoduleAlgebra:
    """a *_sigma b = sigma(a_(-1), b_(-1)) a_(0) b_(0); coaction, steps
    and coaction side (CoactionSide) unchanged, so over must hold A's
    coalgebra data.

    The slice kernel of deform_hopf, with legs contracted over the
    coaction terms c e_h (x) e_a of each basis element:
    left[i][n] = sum c alpha_n(h) e_a and right[i][n] = sum c beta_n(h) e_a."""
    alg = A.algebra
    left, right = (
        [_sealed(_contract(((h, a, c) for (h, a), c in A.coaction.get(i, ())),
                           factors, alg.field.interned)) for i in range(A.dim)]
        for factors in factor_form(sigma)[:2])
    new_alg = FiniteAlgebra(alg.field, alg.labels,
                            _slice_table(alg.mul, left, right, alg.field),
                            alg.unit_vec())
    new_alg.steps = alg.steps
    return ComoduleAlgebra(new_alg, over, A.coaction, A.params, side=A.side)


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
    embeddings into a larger comodule algebra.  A and B must be over one
    Hopf algebra, or two with the same labels, Delta and eps (one object or
    equal tables); otherwise colinearity is ill-posed and ValueError is
    raised.
    """
    if expect not in ("bijective", "injective"):
        raise ValueError("expect must be 'bijective' or 'injective'")
    if len(images) != A.dim:
        raise ValueError(f"{len(images)} images cannot map a "
                         f"{A.dim}-dimensional algebra")
    if any(k not in range(B.dim) for v in images for k in v):
        raise ValueError(f"an image has a key outside the "
                         f"{B.dim}-dimensional target")
    co_a, co_b = A.over.coalgebra, B.over.coalgebra
    if A.over is not B.over and (
            A.over.labels != B.over.labels
            or not _same(co_a.comul, co_b.comul)
            or not _same(co_a.counit, co_b.counit)):
        raise ValueError("comodule algebras over different Hopf algebras")
    rep = VerificationReport({
        "source": {k: str(v) for k, v in A.params.items()},
        "target": {k: str(v) for k, v in B.params.items()}})

    ok = (vec_combine(images, A.algebra.unit.items())
          == B.algebra.unit_vec())
    rep.add("morphism-unital", "algebra-map-unit", ok, None)

    bad = [[A.labels[i], A.labels[j]]
           for i, j in _product_failures(images, A, B)]
    rep.add_failures("morphism-multiplicative", "algebra-map-products", bad)

    bad = []
    for i in range(A.dim):
        lhs = B.coact_vec(images[i])
        rhs: dict = {}
        for (h, a), c in A.coaction.get(i, ()):
            for j, d in images[a].items():
                vec_add_into(rhs, (h, j), c * d)
        if lhs != rhs:
            bad.append(A.labels[i])
    rep.add_failures("morphism-colinear", "comodule-map", bad)

    r = rank(B.field, images)
    ok = r == A.dim and (expect == "injective" or A.dim == B.dim)
    rep.add(f"morphism-{expect}", "linear-rank", ok,
            None if ok else
            {"rank": r, "source_dim": A.dim, "target_dim": B.dim})
    return rep


def _product_failures(images, A: ComoduleAlgebra, B: ComoduleAlgebra,
                      monomial=True) -> list:
    """The pairs (i, j), row-major, with f(e_i e_j) != f(e_i) f(e_j).  With
    one field and every image one nonzero term c_i e_p(i), p injective, row
    (i, j) of A mapped through f is compared with row (p(i), p(j)) of B
    scaled by c_i c_j on value ids, with no sums (no row holds id 0).
    Otherwise, or with monomial false (the tests' oracle), the images are
    multiplied in B."""
    vi = A.field.interned
    terms = [next(iter(v.items())) for v in images if len(v) == 1]
    if (monomial and A.field is B.field and len(terms) == A.dim
            and len({p for p, _ in terms}) == A.dim
            and not any(c.is_zero() for _, c in terms)):
        pos, ids = [p for p, _ in terms], [vi.of(c) for _, c in terms]
        product, bad = vi.product, []
        for i in range(A.dim):
            # line i of A against line p(i) of B
            a_line, b_line = A.algebra.mul.line(i), B.algebra.mul.line(pos[i])
            for j in range(A.dim):
                cd, it = product(ids[i], ids[j]), iter(a_line[j])
                lhs = {pos[k]: product(v, ids[k]) for k, v in zip(it, it)}
                it = iter(b_line[pos[j]])
                if lhs != {k: product(cd, v) for k, v in zip(it, it)}:
                    bad.append((i, j))
        return bad
    times, mul = vi.times, A.algebra.mul
    return [(i, j) for i, j in ExhaustivePlan(A.dim, 2)
            if vec_combine(images, mul[(i, j)], times)
            != B.algebra.mul_vec(images[i], images[j])]


def coinvariants(A: ComoduleAlgebra) -> Subspace:
    """Kernel of delta - unit_H (x) id, as a subspace of A, computed once
    per coaction side."""
    def kernel(side):
        cols = []
        for i in range(side.dim):
            col = dict(side.coaction.get(i, ()))
            for h, c in side.unit.items():
                vec_add_into(col, (h, i), -c)
            cols.append(col)
        return kernel_of_sparse_columns(side.field, cols, side.dim)

    return A.side.once("coinvariants", kernel)


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
    """H as a comodule algebra over itself via its comultiplication, on
    H's coalgebra side."""
    side = H.side
    return ComoduleAlgebra(H.algebra, H, side.coaction, {"family": "regular"},
                           side=side)


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
    table = dict(A.algebra.mul)
    for (i, j), ent in B.algebra.mul.items():
        table[(i + off, j + off)] = tuple((k + off, c) for k, c in ent)
    unit = dict(A.algebra.unit)
    for k, c in B.algebra.unit.items():
        unit[k + off] = c
    alg = FiniteAlgebra(fld, labels, table, unit)
    coaction = dict(A.coaction)
    for i, ent in B.coaction.items():
        coaction[i + off] = tuple(((h, a + off), c) for (h, a), c in ent)
    return ComoduleAlgebra(alg, A.over, coaction,
                           {"family": "direct-sum",
                            "left": dict(A.params), "right": dict(B.params)})


# ---------------------------------------------------------------------------
# JSON exports (coefficients as canonical strings; exact)
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


def form_to_json(f: ConvForm) -> dict:
    return {
        "N": f.hopf.field.order,
        "arity": f.arity,
        "dim": f.hopf.dim,
        "entries": [list(k) + [str(c)] for k, c in sorted(f.coords.items())],
    }

