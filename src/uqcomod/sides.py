"""Coaction sides: what a comodule algebra's checks read of its coaction
and of H's coalgebra data alone, computed once per side.

A cocycle deformation changes only the product: L_sigma keeps L's
coaction over the same Delta, eps and unit, and u_q = gr(u_q)_sigma keeps
gr(u_q)'s.  So coassociativity, the counits, the coinvariants, the Loewy
layers and the socle's weight spaces of a deformation are those of its
source, and the deformation shares its source's side.  The value index
that the coalgebra kernel and hopfcore's product kernels compare on lives
here too.
"""

from __future__ import annotations

from types import MappingProxyType

from .cyclofield import CyclotomicField


class _ValueIndex:
    """Field values by index, for kernels whose sums of products compare as
    ints.  Every value gets an index keyed on its exact (num, den), so index
    equality is value equality, and zero has index 0, so an index is true
    unless zero.  products[i] and sums[i] map an index j to the index of
    values[i] * values[j] and values[i] + values[j]; product and total fill
    them on a miss.  Create one per call: the memos grow with the pairs.

    at maps a table coefficient to its index once per object, through ids,
    keyed by id(); kept holds every object so mapped, so no id can be
    reused while the index is alive.  No row is copied."""

    __slots__ = ("values", "index", "products", "sums", "ids", "kept")

    def __init__(self, fld: CyclotomicField):
        self.values: list = []
        self.index: dict = {}
        self.products: list = []
        self.sums: list = []
        self.ids: dict = {}  # id(coefficient) -> index
        self.kept: list = []
        self.of(fld.zero)

    def of(self, v) -> int:
        key = (v.num, v.den)
        i = self.index.get(key)
        if i is None:
            i = self.index[key] = len(self.values)
            self.values.append(v)
            self.products.append({})
            self.sums.append({})
        return i

    def at(self, c) -> int:
        i = self.ids.get(id(c))
        if i is None:
            i = self.ids[id(c)] = self.of(c)
            self.kept.append(c)
        return i

    def product(self, i: int, j: int) -> int:
        p = self.products[i][j] = self.of(self.values[i] * self.values[j])
        return p

    def total(self, i: int, j: int) -> int:
        t = self.sums[i][j] = self.of(self.values[i] + self.values[j])
        return t

    def times(self, i: int, j: int) -> int:
        return self.products[i].get(j) or self.product(i, j)

    def add(self, out: dict, key, v: int) -> None:
        """out[key] += values[v] on indices, a zero sum dropped.  A memo
        miss reads as None, and only a zero coefficient has index 0."""
        got = out.get(key, 0)
        t = self.sums[got].get(v)
        if t is None:
            t = self.total(got, v)
        if t:
            out[key] = t
        elif got:
            del out[key]


def _same(a, b) -> bool:
    """Whether two tables are one object or equal."""
    return a is b or a == b


class CoactionSide:
    """One read-only coaction delta(e_i) = sum c e_h (x) e_a over the
    coalgebra data of H: Delta, eps, the unit, degrees and grouplikes.

    once(key, compute) computes a result that reads nothing else on first
    use and keeps it; verdicts are basis indices, which each algebra names
    with its own labels.  deform_hopf and deform_comodule_algebra hand
    their source's side to the result; every other construction makes a
    new one.  base is the side of Delta as H's coaction on itself
    (HopfAlgebraData.side), which is its own base and makes its coaction
    from Delta on first read."""

    __slots__ = ("field", "dim", "_coaction", "base", "comul", "counit",
                 "unit", "degrees", "grouplikes", "_results")

    def __init__(self, fld, dim: int, coaction, H, base=None):
        self.field = fld
        self.dim = dim
        self._coaction = coaction
        self.base = self if base is None else base
        self.comul, self.counit = H.coalgebra.comul, H.coalgebra.counit
        self.unit = H.algebra.unit
        self.degrees, self.grouplikes = H.degrees, H.grouplikes
        self._results: dict = {}

    @property
    def coaction(self):
        if self._coaction is None:
            comul = self.comul
            self._coaction = MappingProxyType({
                i: tuple(((j, k), c) for j, k, c in comul.get(i, ()))
                for i in range(self.dim)})
        return self._coaction

    def serves(self, H) -> bool:
        """Whether H holds this side's coalgebra data: H holds its base,
        or the same tables, as one object or equal."""
        return H._side is self.base or (
            _same(H.coalgebra.comul, self.comul)
            and _same(H.coalgebra.counit, self.counit)
            and _same(H.algebra.unit, self.unit)
            and H.degrees == self.degrees)

    def once(self, key, compute):
        got = self._results.get(key)
        if got is None:
            got = self._results[key] = compute(self)
        return got


def coalgebra_failures(side) -> tuple:
    """The basis indices failing (Delta x id)delta = (id x delta)delta,
    those failing (eps x id)delta = id and, on a Hopf algebra's own side
    (its coaction is Delta), those failing (id x eps)Delta = id, as three
    tuples; every side of each is a dict of _ValueIndex indices."""
    vi = _ValueIndex(side.field)
    at, add, times = vi.at, vi.add, vi.times
    coaction, comul, counit = side.coaction, side.comul, side.counit
    one = vi.of(side.field.one)
    regular = side.base is side
    bad_co, bad_left, bad_right = [], [], []
    for i in range(side.dim):
        lhs: dict = {}
        rhs: dict = {}
        left: dict = {}
        right: dict = {}
        for (h, a), c in coaction.get(i, ()):
            x = at(c)
            for h1, h2, d in comul.get(h, ()):
                add(lhs, (h1, h2, a), times(x, at(d)))
            for (h2, a2), d in coaction.get(a, ()):
                add(rhs, (h, h2, a2), times(x, at(d)))
            e = counit.get(h)
            if e is not None:
                add(left, a, times(x, at(e)))
            e = counit.get(a) if regular else None
            if e is not None:
                add(right, h, times(x, at(e)))
        if lhs != rhs:
            bad_co.append(i)
        if left != {i: one}:
            bad_left.append(i)
        if regular and right != {i: one}:
            bad_right.append(i)
    return tuple(bad_co), tuple(bad_left), tuple(bad_right)
