"""Exact computation and verification for u_q(sl2) and its comodule algebras.

Everything is computed over the cyclotomic field Q(q) with q a primitive
N-th root of unity (N odd), using exact rational arithmetic throughout.
The headline entry points:

  build_gr_uq(N)    the associated graded Hopf algebra gr(u_q)
  build_sigma(N)    the Hopf 2-cocycle sigma = exp_{q^2}(xi1 (x) xi2)
  build_uq(N)       u_q(sl2) as the cocycle deformation of gr(u_q)
  zoo_params(...)   validated parameters for the comodule-algebra families
  build_family(p) / deform_family(p)   the L- and A-versions of a member
  classify(N)       machine-readable description of the zoo

plus a CLI (`uqcomod verify|classify|minpoly|export`) wiring it together.
"""

from .cyclofield import (
    CyclotomicField,
    CyclotomicNumber,
    field,
    q_binomial,
    q_factorial,
    q_int,
)
from .exactlinalg import (
    Poly,
    Subspace,
    minimal_polynomial_of_element,
    squarefree_check,
)
from .reporting import Check, VerificationReport
from .hopfcore import (
    ComoduleAlgebra,
    ConvForm,
    FiniteAlgebra,
    FiniteCoalgebra,
    HopfAlgebraData,
    coinvariants,
    convolution_inverse,
    costable_closure,
    deform_comodule_algebra,
    deform_hopf,
    regular_comodule_algebra,
    solve_antipode,
    verify_comodule_algebra,
    verify_hopf,
    verify_hopf_2cocycle,
)
from .uqsl2 import (
    build_dual_functionals,
    build_gr_uq,
    build_sigma,
    build_sigma_inverse,
    build_uq,
    check_order,
    uq_generators,
    uq_relation_report,
    verify_dual_relations,
)
from .comodzoo import (
    FamilyParams,
    build_family,
    classify,
    deform_family,
    embed_A4_into_uq,
    is_right_H_simple,
    loewy_filtration,
    morita_equivalent_params,
    morita_invariant_d,
    one_dim_reps_A4,
    semisimplicity_A4,
    verify_deformed_presentation,
    verify_family_presentation,
    verify_min_pol_lemma,
    zoo_params,
)
from .polyid import (
    MultiPoly,
    min_poly_coefficient,
    phi_polynomial,
    power_sum_P,
    verify_chebyshev_identity,
    verify_min_pol_formula_consistency,
)

__version__ = "0.1.0"
