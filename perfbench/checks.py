"""Correctness checks that run after the timed region of a round.

Every expected value here is computed by the benchmark itself, from closed
forms in the paper or from plain integer polynomial arithmetic, never copied
from the program's output.  Each check returns True when the program agrees.
"""

import random
from fractions import Fraction
from math import lcm

FIELD_ORDERS = (3, 5, 7)
BATCH_SIZE = 256


# -- reference arithmetic in Q[t]/(Phi_N) -----------------------------------

def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _int_poly_divexact(num, den):
    num = list(num)
    quo = [0] * (len(num) - len(den) + 1)
    for i in range(len(quo) - 1, -1, -1):
        c, rem = divmod(num[i + len(den) - 1], den[-1])
        if rem:
            raise ArithmeticError("inexact polynomial division")
        quo[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return quo


def cyclotomic_poly(n):
    """Phi_n as integer coefficients, lowest degree first:
    (t^n - 1) divided by Phi_d for every proper divisor d of n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _int_poly_divexact(num, cyclotomic_poly(d))
    return num


def reference_mul(a, b, phi):
    """Product of two coefficient tuples of rationals modulo the monic
    integer polynomial phi, computed on integer numerators."""
    da = lcm(*(c.denominator for c in a))
    db = lcm(*(c.denominator for c in b))
    prod = _int_poly_mul([int(c * da) for c in a], [int(c * db) for c in b])
    d = len(phi) - 1
    for m in range(len(prod) - 1, d - 1, -1):
        c = prod[m]
        if c:
            for i, p in enumerate(phi):
                prod[m - d + i] -= c * p
    prod = prod[:d] + [0] * (d - len(prod))
    return [Fraction(c, da * db) for c in prod]


# -- the field batch ----------------------------------------------------------

def _rational(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 30))


def field_batch(fld, seed):
    """Operands for the field checks and the traced micro-timings.

    dense:    BATCH_SIZE pairs of elements with every coefficient a nonzero
              rational p/d, |p| <= 99, 1 <= d <= 30;
    monomial: BATCH_SIZE pairs (c * q^k, dense) with c such a rational and
              k uniform in [0, N), the shape of most structure constants.
    """
    rng = random.Random(f"{seed}:{fld.order}")
    d = fld.degree

    def dense():
        return fld.element([_rational(rng) for _ in range(d)])

    pairs = [(dense(), dense()) for _ in range(BATCH_SIZE)]
    monomial = [(fld.q_power(rng.randrange(fld.order)) * _rational(rng), dense())
                for _ in range(BATCH_SIZE)]
    return {"dense": pairs, "monomial": monomial}


def field_products_agree(fld, batch):
    phi = cyclotomic_poly(fld.order)
    return all(list((a * b).coeffs) == reference_mul(a.coeffs, b.coeffs, phi)
               for a, b in batch["dense"] + batch["monomial"])


def field_inverses_agree(fld, batch):
    phi = cyclotomic_poly(fld.order)
    one = [Fraction(1)] + [Fraction(0)] * (len(phi) - 2)
    return all(reference_mul(a.coeffs, a.inverse().coeffs, phi) == one
               for a, _ in batch["dense"])


# -- closed forms from the paper ----------------------------------------------

def zoo_members(uq, N):
    """The members the family and filtration suites build, keyed by family."""
    fld = uq.field(N)
    return {
        "L1": uq.zoo_params("L1", N, r=N, xi=2),
        "L3N": uq.zoo_params("L3N", N, xi=1, zeta=2, eta=fld.q),
        "L4": uq.zoo_params("L4", N, alpha=1, beta=1, xi=2),
    }


def expected_family_dim(family, N, r):
    return {"L1": N * r, "L3N": N ** 3, "L4": N}[family]


def hopf_dims(uq, N, families):
    return (uq.build_gr_uq(N).algebra.dim == N ** 3
            and uq.build_uq(N).algebra.dim == N ** 3)


def gr_table_entries(uq, N, families):
    mul = uq.build_gr_uq(N).algebra.mul
    nonzero = sum(1 for ent in mul.values() for _, c in ent if not c.is_zero())
    return nonzero == (N * (N + 1) // 2) ** 2 * N ** 2


def family_dims(uq, N, families):
    members = zoo_members(uq, N)
    for f in families:
        want = expected_family_dim(f, N, members[f].r)
        for build in (uq.build_family, uq.deform_family):
            A = build(members[f])
            if A.dim != want or len(A.labels) != want:
                return False
    return True


def loewy_layers_L3N(uq, N, families):
    """dim A_n = N * #{(a, b) in [0, N)^2 : a + b <= n}, n = 0 .. 2N - 2,
    for the L3N member."""
    want = tuple(N * sum(1 for a in range(N) for b in range(N) if a + b <= n)
                 for n in range(2 * N - 1))
    A = uq.build_family(zoo_members(uq, N)["L3N"])
    return uq.loewy_filtration(A).dims == want


def d_invariants(uq, N, families):
    """d = (dim A / dim socle, dim socle): (N, N) for L1 with r = N and
    (N^2, N) for L3N."""
    want = {"L1": (N, N), "L3N": (N * N, N)}
    members = zoo_members(uq, N)
    return all(tuple(uq.morita_invariant_d(uq.build_family(members[f])))
               == want[f] for f in families)


CLOSED_FORMS = {
    "hopf-dims": hopf_dims,
    "gr-table-entries": gr_table_entries,
    "family-dims": family_dims,
    "loewy-layers-L3N": loewy_layers_L3N,
    "d-invariants": d_invariants,
}
