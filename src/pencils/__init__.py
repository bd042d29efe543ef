"""Exact invariant-theoretic algebra for pencils of binary forms.

The package computes transvectants, the linear combinant sequence of a
pencil, closed-form coefficients of the quadratic syzygies relating those
combinants, recovery of higher combinants from the first two, a positivity
certificate for the leading coefficient, an independent differential-
operator verification of the coefficient formula, and exact Wigner
3j/6j/9j values for a recoupling cross-check.  All arithmetic is exact
over the rationals, extended by square roots where recoupling coefficients
need them.
"""
from types import ModuleType as _ModuleType

from .angular import (
    NineJArray,
    SurdSum,
    combinant_9j_array,
    ninej_magnetic_sum,
    wigner3j,
    wigner6j,
    wigner9j,
)
from .combinant import (
    Pencil,
    combinant_sequence,
    membership_defect,
    random_pencil,
    wronskian,
)
from .errors import (
    AlgebraError,
    DegeneratePencilError,
    DegreeMismatchError,
    FormulaViolationError,
    NotDivisibleError,
    ParseError,
)
from .forms import BinaryForm, LinearSymbol, exact_divide, random_form
from .omega import (
    PAIRS,
    CConstants,
    MultiForm,
    beta_chain,
    c_aggregate,
    c_constants,
    h_factor,
    mu_factor,
    omega,
    omega_chain,
    verify_theta,
    zeta_image,
)
from .parsing import format_form, parse_form
from .serialize import form_from_dict, form_to_dict, table_from_dict, table_to_dict
from .syzygy import (
    PositivityCertificate,
    SyzygyTable,
    evaluate_syzygy,
    gamma,
    index_pairs,
    positivity_certificate,
    recover_combinant,
    syzygy_space_dim,
    syzygy_table,
    theta,
)
from .transvectant import transvectant

# Every public name imported above, in sorted order; the submodules bound
# by those imports are not part of it.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
