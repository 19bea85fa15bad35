import random

import pytest

from uqcomod.cyclofield import field
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


@pytest.fixture()
def rng():
    return random.Random(20260815)
