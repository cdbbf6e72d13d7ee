"""Finite-dimensional toolkit for partial isometric covariant
representations of C*-correspondences.

Everything reduces to tolerance-disciplined dense linear algebra
(:mod:`pirep.numerics`); representations and their lifted operators live
in :mod:`pirep.covrep`; criteria for products, powers, roots, weighted
shifts, and the two-part orthogonal decomposition live in their own
modules; :mod:`pirep.harness` drives randomized, seeded verification of
every registered claim.
"""

from .correspondence import (
    FdCStarAlgebra,
    FdCorrespondence,
    SCALARS,
    StarRepresentation,
    TensorSpace,
    algebra_correspondence,
    amplify,
    diagonal_correspondence,
    interior_tensor,
    plain_space,
    scalar_correspondence,
    tensor_power,
    tensor_product,
)
from .covrep import CovariantRep, rep_from_tilde
from .errors import (
    DimensionMismatch,
    DomainError,
    IntertwinerError,
    InvalidCorrespondence,
    InvalidRepresentation,
    NotApplicable,
    NumericFailure,
    PirepError,
    ResourceLimit,
    UsageError,
    WindowError,
)
from .harness import TrialConfig, VerificationReport, theorem_ids, verify
from .numerics import (
    DEFAULT_TOL,
    ClassificationReport,
    Subspace,
    Tolerance,
    classify_operator,
    image,
    is_contraction,
    is_partial_isometry,
    is_subset,
    kernel_frame,
    ominus,
    ortho_complement,
    pseudoinverse,
    psd_sqrt,
    range_frame,
)
from .powers import (
    PowerReport,
    generalized_inverse_check,
    generalized_range,
    is_regular,
    kernel_chain_condition,
    kernel_match_criterion,
    power_report,
    range_invariance_condition,
    regular_pi_iff_power_pi,
    root_criterion,
)
from .products import (
    ProductRep,
    chain_condition_test,
    commuting_projection_test,
    defect_dilation_test,
    pinv_factorization_test,
    single_defect_dilation,
    sufficient_intertwining_check,
)
from .shifts import WeightedShiftSpec, build_shift, kernel_formula, shift_pi_criterion
from .wold import cauchy_dual, is_bi_regular, generated_invariant_subspace, wold_decompose

__version__ = "0.1.0"
