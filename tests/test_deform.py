"""The slice kernel of the deformation layer against the nested-loop formula.

`reference_deformed_table` (conftest) evaluates sigma(a1, b1) a2 b2
sigma^{-1}(a3, b3), and the one-sided sigma(a_(-1), b_(-1)) a_(0) b_(0), one
basis pair at a time.  The kernel factors each form into slices and contracts
every basis element's legs once; its tables must equal the reference entry
for entry, also for forms that are not of sigma's shape, and the legs it
contracts one slot at a time, read as values, must equal `reference_legs`
(conftest), which contracts every slot of each term at once.  The 2-cocycle
check reads its two sides off rows of the one-sided twist, and
`reference_cocycle_sides` (conftest) evaluates them over Delta (x) Delta.

The kernel's tables compute each row on its first read, or each line of
rows at once.  Rows read in any order must equal the reference, a line fill
must equal row fills slot for slot, and every whole-table view must first
complete the table, so that it lists exactly the reference's nonzero rows.
Every coefficient a fill stores is the canonical object of the field's value
index.
"""

import itertools
import random

import pytest

from conftest import (bicharacter_form, cyclic_group_hopf, random_scalar,
                      reference_cocycle_sides, reference_convolution,
                      reference_deformed_table, reference_legs,
                      reference_skew_pbw_fill)
from uqcomod.cli import _zoo_tuples
from uqcomod.comodzoo import (_pbw_shape, build_family, deform_family,
                              zoo_params)
from uqcomod import hopfcore
from uqcomod.cyclofield import field
from uqcomod.hopfcore import (
    ConvForm,
    _cocycle_sides,
    _one_sided_twist,
    _slice_table,
    _two_sided_legs,
    convolution,
    deform_comodule_algebra,
    deform_hopf,
    factor_form,
    regular_comodule_algebra,
)
from uqcomod.uqsl2 import (
    build_dual_functionals,
    build_gr_uq,
    build_sigma,
    build_sigma_inverse,
    build_uq,
    monomial_index,
)


def _assert_canonical(mul, fld):
    """Every coefficient of a table is the canonical object of the field's
    value index."""
    canonical = fld.interned.canonical
    assert all(c is canonical(c) for row in mul.values() for _, c in row)


def _assert_rows_match(alg, want, seed):
    """Every row of a table not yet completed, read in a shuffled order,
    equals the reference row; then the whole table equals the reference
    and holds canonical objects only."""
    keys = list(itertools.product(range(alg.dim), repeat=2))
    random.Random(seed).shuffle(keys)
    for key in keys:
        assert alg.mul[key] == want.get(key, ()), key
    assert dict(alg.mul) == want
    _assert_canonical(alg.mul, alg.field)


@pytest.mark.parametrize("N", [3, 5])
def test_deform_hopf_matches_the_nested_loop(N):
    H, sigma, inv = build_gr_uq(N), build_sigma(N), build_sigma_inverse(N)
    want = reference_deformed_table(H, sigma, inv)
    _assert_rows_match(deform_hopf(H, sigma, inv).algebra, want, N)
    assert dict(build_uq(N).algebra.mul) == want
    _assert_canonical(build_uq(N).algebra.mul, H.field)


@pytest.mark.parametrize("N", [3, 5])
def test_deformed_family_members_match_the_nested_loop(N):
    for p in _zoo_tuples(N, small=N == 3):
        want = reference_deformed_table(build_family(p), build_sigma(N))
        if N == 3:
            fresh = deform_family.__wrapped__(p).algebra
            _assert_rows_match(fresh, want, 11)
        assert dict(deform_family(p).algebra.mul) == want, p.label()
        _assert_canonical(deform_family(p).algebra.mul, field(N))


@pytest.mark.parametrize("N", [3, 5])
def test_plain_tables_match_the_plain_loop_in_canonical_values(N):
    # gr(u_q) and every plain member of the zoo, whose tables the deformed
    # ones above are built from, against the skew-PBW loop of conftest
    # (plain * and +, no memo)
    fld = field(N)
    zero = fld.zero
    tables = [(build_gr_uq(N).algebra, (N, N, N), (zero, zero, zero))]
    tables += [(build_family(p).algebra, _pbw_shape(p),
                (p.xi or zero, p.zeta or zero, p.eta or zero))
               for p in _zoo_tuples(N, small=N == 3)]
    for alg, shape, coeffs in tables:
        want, _ = reference_skew_pbw_fill(N, *shape, *coeffs)
        assert dict(alg.mul) == want, alg.labels[-1]
        _assert_canonical(alg.mul, fld)
    for p in _zoo_tuples(N, small=N == 3):
        _assert_canonical(build_family(p).coaction, fld)


def test_build_uq_computes_only_the_rows_it_reads(monkeypatch):
    calls = []
    slice_table = hopfcore._slice_table

    def counting(mul, left, right, fld):
        rows = slice_table(mul, left, right, fld)
        fill = rows._fill

        def counted(i, j):
            calls.append(1)
            return fill(i, j)

        rows._fill = counted
        return rows

    monkeypatch.setattr(hopfcore, "_slice_table", counting)
    uq = build_uq.__wrapped__(5)
    built = len(calls)
    # the antipode solve, the only reader in the build, reads under a quarter
    assert 0 < built < 125 ** 2 // 4
    for key in itertools.product(range(8), repeat=2):
        uq.algebra.mul[key]
    again = len(calls)
    for key in itertools.product(range(8), repeat=2):
        uq.algebra.mul[key]
    assert len(calls) == again


def _fresh_table():
    """The deformed table of u_q(3) (dimension 27) with no row computed
    yet, and the reference."""
    H, sigma, inv = build_gr_uq(3), build_sigma(3), build_sigma_inverse(3)
    left, right = _two_sided_legs(H, sigma, inv)
    rows = _slice_table(H.algebra.mul, left, right, H.field)
    return rows, reference_deformed_table(H, sigma, inv)


def _filled(table):
    """The number of rows a packed table holds so far."""
    return sum(row is not None for row in table.slots)


def _valued(legs, fld):
    """Legs (left, right) on value indices, as legs of field values."""
    values = fld.interned.values
    return tuple([{p: tuple([(a, values[x]) for a, x in leg])
                   for p, leg in legs_i.items()} for legs_i in side]
                 for side in legs)


def _row_major(table):
    return [(key, table[key]) for key in sorted(table)]


@pytest.mark.parametrize("view", [
    lambda mul: list(mul.items()),
    lambda mul: list(mul.keys()),
    lambda mul: list(mul.values()),
    len,
    list,
    lambda mul: list(reversed(mul)),
    dict,
    lambda mul: mul.copy(),
    lambda mul: mul == {},
    lambda mul: mul != {},
    repr,
])
def test_whole_table_views_complete_the_table(view):
    mul, want = _fresh_table()
    zero = next(key for key in itertools.product(range(27), repeat=2)
                if key not in want)
    assert mul[zero] == () and mul[(1, 1)] == want[(1, 1)]
    assert _filled(mul) == 2  # read rows are kept, () included
    view(mul)
    assert _filled(mul) == 27 ** 2
    assert all((row is hopfcore._ZERO) == (divmod(n, 27) not in want)
               for n, row in enumerate(mul.slots))
    assert list(mul.items()) == _row_major(want)
    assert len(mul) == len(want) and list(mul) == sorted(want)
    assert dict(mul) == want and mul == want and want == mul
    assert not mul != want and not want != mul


def test_get_and_in_read_rows_as_the_complete_table_does():
    mul, want = _fresh_table()
    keys = list(itertools.product(range(27), repeat=2))
    random.Random(5).shuffle(keys)
    for key in keys:
        assert mul.get(key) == want.get(key)
        assert mul.get(key, ()) == want.get(key, ())
        assert (key in mul) == (key in want)
    assert _filled(mul) == 27 ** 2
    # two lazy tables compare by their complete contents
    assert _fresh_table()[0] == mul and not _fresh_table()[0] != mul


def test_keys_outside_the_basis_read_as_the_zero_row():
    mul, want = _fresh_table()
    last = max(i for i, _ in want)
    j = next(j for i, j in sorted(want) if i == last)
    outside = [(-1, j), (j, -1), (-27, 0), (27, 0), (0, 27), (27, 27)]
    for table in (mul, build_gr_uq(3).algebra.mul):
        for key in outside:
            assert table[key] == ()
            assert table.get(key) is None
            assert key not in table
    assert _filled(mul) == 0
    assert dict(mul) == want


def test_deformed_tables_are_read_only():
    for alg in (build_uq(3).algebra,
                deform_family(_zoo_tuples(3, True)[0]).algebra):
        with pytest.raises(TypeError):
            alg.mul[(0, 0)] = ()


def _fresh_builds():
    """(name, build) for gr(u_q(3)), u_q(3), sigma's one-sided twist and
    every default zoo member at N = 3, plain and deformed; each build makes
    a table with no row read by the test yet."""
    out = [("gr", lambda: build_gr_uq.__wrapped__(3).algebra),
           ("uq", lambda: build_uq.__wrapped__(3).algebra),
           ("twist", lambda: _one_sided_twist(build_sigma(3)))]
    for p in _zoo_tuples(3, small=True):
        out.append((p.label(),
                    lambda p=p: build_family.__wrapped__(p).algebra))
        out.append((f"deformed {p.label()}",
                    lambda p=p: deform_family.__wrapped__(p).algebra))
    return out


def test_packed_tables_read_in_any_order_as_a_fresh_row_major_read():
    # the packed table against itself: rows read in a seeded random order
    # equal the rows of a fresh build read in row-major order; the view
    # refuses writes, and every zero row is the one shared sentinel
    for name, build in _fresh_builds():
        mul = build().mul
        keys = list(itertools.product(range(mul.dim), repeat=2))
        shuffled = list(keys)
        random.Random(name).shuffle(shuffled)
        got = {key: mul[key] for key in shuffled}
        fresh = build().mul
        assert [got[key] for key in keys] == [fresh[key] for key in keys], \
            name
        with pytest.raises(TypeError):
            mul[(0, 0)] = ()
        assert all(row or row is hopfcore._ZERO for row in mul.slots), name
        assert sum(row is hopfcore._ZERO for row in mul.slots) \
            == len(keys) - len(mul), name


def test_packed_rows_hold_no_zero_coefficient():
    # a table given with explicit zeros packs without them: an all-zero row
    # is the zero row, so len counts only nonzero rows and the indices of
    # a packed row are its support
    fld = field(3)
    one, zero = fld.one, fld.zero
    table = {(0, 0): ((0, one),), (0, 1): ((0, zero), (1, one)),
             (1, 0): ((1, one),), (1, 1): ((0, zero),)}
    mul = hopfcore.FiniteAlgebra(fld, ["1", "t"], table, {0: one}).mul
    assert mul.slots == [(0, 1), (1, 1), (1, 1), hopfcore._ZERO]
    assert len(mul) == 3 and (1, 1) not in mul
    assert mul[(0, 1)] == ((1, one),) and mul[(1, 1)] == ()


def _line_builds():
    """_fresh_builds, and gr(u_q), u_q and L3N at N = 5."""
    L3N = zoo_params("L3N", 5, xi=1, zeta=2, eta=field(5).q)
    return _fresh_builds() + [
        ("gr 5", lambda: build_gr_uq.__wrapped__(5).algebra),
        ("uq 5", lambda: build_uq.__wrapped__(5).algebra),
        ("L3N 5", lambda: build_family.__wrapped__(L3N).algebra)]


def _planted(alg):
    """Corrupt rows for the slots (dim // 2, 0) and (dim // 3, dim - 1),
    written before any fill reads them: 7 e_(dim - 1) and 7 e_0."""
    seven = alg.field.interned.of(alg.field.from_rational(7))
    return {(alg.dim // 2, 0): (alg.dim - 1, seven),
            (alg.dim // 3, alg.dim - 1): (0, seven)}


@pytest.mark.parametrize("plant", [False, True])
def test_a_line_fill_equals_row_fills_slot_for_slot(plant):
    # one table filled a row at a time in a seeded random order, another
    # of the same build a line at a time; a slot written before either
    # fill is never overwritten, and both fills build on it alike (the
    # skew-PBW fills read row (i, p) for row (i, m))
    for name, build in _line_builds():
        by_row, by_line = build(), build()
        rows, lines, dim = by_row.mul, by_line.mul, by_row.dim
        assert lines._lines is not None, name
        planted = _planted(by_row) if plant else {}
        for (i, j), row in planted.items():
            rows.slots[i * dim + j] = lines.slots[i * dim + j] = row
        keys = list(itertools.product(range(dim), repeat=2))
        random.Random(name).shuffle(keys)
        for key in keys:
            rows.row(*key)
        for (i, j), row in planted.items():
            assert lines.line(i)[j] is row, name
        for i in random.Random(name).sample(range(dim), dim):
            assert lines.line(i) == rows.slots[i * dim:(i + 1) * dim], name
        lines._complete()
        assert lines.slots == rows.slots and None not in rows.slots, name
        # a complete table lets go of both fills and what they hold
        assert lines._fill is None and lines._lines is None, name
        assert all(lines.slots[i * dim + j] is row
                   for (i, j), row in planted.items()), name


def _perturbed_forms(N):
    """sigma and sigma^{-1} of gr(u_q) with a few coordinates changed: some
    rows stop being multiples of their slice, one row gains an entry off
    its slice's support, and two new rows overlap the supports of the
    others, so beta supports overlap and no slice is one row per n."""
    H = build_gr_uq(N)
    fld = H.field
    rng = random.Random(7)
    out = []
    for form in (build_sigma(N), build_sigma_inverse(N)):
        coords = dict(form.coords)
        keys = sorted(coords)
        for key in rng.sample(keys, 4):
            coords[key] = coords[key] + random_scalar(fld, rng) + fld.one
        x, xg = monomial_index(N, 1, 0, 0), monomial_index(N, 1, 0, 1)
        y2 = monomial_index(N, 0, 2, 0)
        coords[(xg, y2)] = fld.q_power(1)
        yg = monomial_index(N, 0, 1, 1)
        coords[(yg, y2)] = fld.from_rational(3)
        coords[(yg, monomial_index(N, 0, 1, 0))] = fld.q_power(2)
        coords[(x, yg)] = fld.from_rational(-2)
        out.append(ConvForm(H, 2, coords))
    return out


def test_factorisation_reproduces_any_form():
    for form in _perturbed_forms(3) + [build_sigma(3), build_sigma(5)]:
        alpha, beta, count = factor_form(form)
        got = {}
        for h1, fa in alpha.items():
            for h2, fb in beta.items():
                c = None
                for n, a in fa:
                    for m, b in fb:
                        if n == m:
                            c = a * b if c is None else c + a * b
                if c is not None and not c.is_zero():
                    got[(h1, h2)] = c
        assert got == dict(form.coords)
        assert count <= len({h1 for h1, _ in form.coords})
    # sigma's rows fall into N slices, one per power of x
    assert factor_form(build_sigma(5))[2] == 5


def test_kernel_matches_the_nested_loop_on_forms_of_another_shape():
    H = build_gr_uq(3)
    sigma, inv = _perturbed_forms(3)
    assert factor_form(sigma)[2] > 3
    want = reference_deformed_table(H, sigma, inv)
    # deform_hopf would also solve for an antipode, which these forms need
    # not allow, so the two-sided kernel is run on its own
    left, right = _two_sided_legs(H, sigma, inv)
    assert _slice_table(H.algebra.mul, left, right, H.field) == want
    R = regular_comodule_algebra(H)
    assert dict(deform_comodule_algebra(R, sigma, H).algebra.mul) \
        == reference_deformed_table(R, sigma)


@pytest.mark.parametrize("N", [3, 5])
def test_two_sided_legs_match_the_one_pass_contraction(N):
    # the kernel contracts sigma^-1's slot first and sigma's slot second;
    # the reference contracts both slots of every Delta^2 term at once
    H, sigma, inv = build_gr_uq(N), build_sigma(N), build_sigma_inverse(N)
    got = _two_sided_legs(H, sigma, inv)
    assert _valued(got, H.field) == reference_legs(H, sigma, inv)
    assert all(got[0]) and all(got[1])


def test_legs_of_forms_of_another_shape_match_the_one_pass_contraction():
    H = build_gr_uq(3)
    sigma, inv = _perturbed_forms(3)
    for pair in ((sigma, inv), (inv, sigma), (build_sigma(3), inv)):
        assert _valued(_two_sided_legs(H, *pair), H.field) \
            == reference_legs(H, *pair)


def test_one_sided_legs_match_the_one_pass_contraction(monkeypatch):
    legs = []
    slice_table = hopfcore._slice_table

    def capturing(mul, left, right, fld):
        legs.append((left, right))
        return slice_table(mul, left, right, fld)

    monkeypatch.setattr(hopfcore, "_slice_table", capturing)
    H = build_gr_uq(3)
    member = build_family(zoo_params("L3N", 3, xi=1, zeta="q", eta=2))
    for A in (regular_comodule_algebra(H), member):
        for form in (build_sigma(3), _perturbed_forms(3)[0]):
            deform_comodule_algebra(A, form, H)
            assert _valued(legs.pop(), A.field) == reference_legs(A, form)


def test_convolution_matches_the_all_pairs_loop():
    # convolution visits only the pairs of coordinates whose first slots
    # meet in some coproduct term; its coordinates, in order, must be the
    # loop over all pairs
    sigma, inv = build_sigma(3), build_sigma_inverse(3)
    cases = [(sigma, inv), (inv, sigma)]
    for form in _perturbed_forms(3):
        cases += [(form, sigma), (sigma, form)]
    duals = list(build_dual_functionals(3).values())
    cases += [(f, g) for f in duals for g in duals]
    for f, g in cases:
        want = reference_convolution(f, g)
        assert want
        assert list(convolution(f, g).coords.items()) == list(want.items())


def test_cocycle_sides_match_the_coproduct_loop():
    sigma = build_sigma(3)
    perturbed = _perturbed_forms(3)[0]
    Z3 = cyclic_group_hopf(3, field(3))
    chi = bicharacter_form(Z3, 3)
    coords = dict(chi.coords)
    coords[(1, 1)] = Z3.field.from_rational(2)
    # (form, triples whose two sides differ)
    cases = [(sigma, 0), (perturbed, 271), (chi, 0),
             (ConvForm(Z3, 2, coords), 4)]
    assert factor_form(perturbed)[2] > 3
    for form, want_failing in cases:
        sides = _cocycle_sides(form, _one_sided_twist(form))
        failing = 0
        for a, b, c in itertools.product(range(form.hopf.dim), repeat=3):
            got = sides(a, b, c)
            assert got == reference_cocycle_sides(form, a, b, c), (a, b, c)
            failing += got[0] != got[1]
        assert failing == want_failing


def test_deformation_rejects_a_form_that_is_not_bilinear():
    H = build_gr_uq(3)
    R = regular_comodule_algebra(H)
    with pytest.raises(ValueError, match="bilinear"):
        deform_comodule_algebra(R, ConvForm.unit(H, 1), H)
    with pytest.raises(ValueError, match="bilinear"):
        deform_hopf(H, build_sigma(3), ConvForm.unit(H, 3))
    with pytest.raises(TypeError):
        deform_hopf(H, build_sigma(3), "not a form")
