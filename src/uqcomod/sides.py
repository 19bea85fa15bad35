"""Coaction sides: what a comodule algebra's checks read of its coaction
and of H's coalgebra data alone, computed once per side.

A cocycle deformation changes only the product: L_sigma keeps L's
coaction over the same Delta, eps and unit, and u_q = gr(u_q)_sigma keeps
gr(u_q)'s.  So coassociativity, the counits, the coinvariants, the Loewy
layers and the socle's weight spaces of a deformation are those of its
source, and the deformation shares its source's side.
"""

from __future__ import annotations

from types import MappingProxyType

from .cyclofield import add_image


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
    tuples; every side is a dict of summed packed images
    (_ValueIndex.images), and a check during which a new value repacked
    the images runs again."""
    vi = side.field.interned
    of, times, ids, same = vi.of, vi.product, vi.ids, vi.same
    img, layout = vi.images(), vi.layout
    coaction, comul, counit = side.coaction, side.comul, side.counit
    regular = side.base is side
    bad_co, bad_left, bad_right = [], [], []
    for i in range(side.dim):
        lhs, rhs, left, right = {}, {}, {}, {}
        for (h, a), c in coaction.get(i, ()):
            x = of(c)
            for h1, h2, d in comul.get(h, ()):
                add_image(lhs, (h1, h2, a),
                          img[times(x, ids.get(id(d)) or of(d))])
            for (h2, a2), d in coaction.get(a, ()):
                add_image(rhs, (h, h2, a2),
                          img[times(x, ids.get(id(d)) or of(d))])
            e = counit.get(h)
            if e is not None:
                add_image(left, a, img[times(x, of(e))])
            e = counit.get(a) if regular else None
            if e is not None:
                add_image(right, h, img[times(x, of(e))])
        if not same(lhs, rhs):
            bad_co.append(i)
        if not same(left, {i: img[1]}):
            bad_left.append(i)
        if regular and not same(right, {i: img[1]}):
            bad_right.append(i)
    if vi.layout != layout:
        return coalgebra_failures(side)
    return tuple(bad_co), tuple(bad_left), tuple(bad_right)
