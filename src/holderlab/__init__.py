"""holderlab: Holder-continuous self-maps of sequence spaces, measured.

A small laboratory around maps T with ||Tx - Ty|| <= L ||x - y||^alpha on
eventually-constant sequences: a catalog of instances with pinned claims
(exponents, constants, displacement bounds, fixed point sets), retractions
with Lipschitz budgets, and a deterministic verifier that measures those
claims and reports which direction each estimate is sound in.
"""

from __future__ import annotations

from .catalog import (
    CATALOG,
    RETRACTION_CATALOG,
    CatalogEntry,
    ClaimProfile,
    FixedPointSet,
    MapInstance,
    Retraction,
    ScalarOrbit,
    affine_cube_map,
    affine_mixing_map,
    banach_alpha_gt1_iterate,
    baseline_c_map,
    build_map,
    c0_family_map,
    catalog_names,
    constant_map,
    deficiency_map,
    goebel_kirk_map,
    holderize,
    hyperconvex_map,
    l1_ball_composite_map,
    lambda_scale,
    lift_to_ball,
    norming_map,
    prus_map,
    renormed_l1_map,
    retraction_map,
    retraction_names,
    shift_simplex_map,
    sup_t_alpha_log,
)
from .domains import (
    DomainSpec,
    ball,
    c_interval,
    coefficient_box,
    positive_ball,
    sigma_band,
    simplex,
    sub_simplex,
)
from .errors import (
    ConfigError,
    DomainViolationError,
    HolderLabError,
    InsufficientSamplesError,
    InvalidBudgetError,
    InvalidCheckError,
    InvalidCompositionError,
    InvalidIndexError,
    InvalidParameterError,
    InvalidStrategyError,
    NotInSpaceError,
    UnknownNameError,
)
from .report import VerificationReport, canonical_bytes, write_report
from .retractions import (
    ExcessSplit,
    abs_retract,
    clamp_retract,
    excess_map,
    iota_mu_q,
    l1_sphere_retract,
    positive_part,
    radial_retract,
)
from .seqvec import (
    ZERO,
    NormKind,
    SeqVec,
    axpy,
    basis_vector,
    c_basis_coefficients,
    coordinate,
    distance,
    format_vec,
    norm,
    parse_vec,
    reconstruct_from_c_basis,
    scale,
    shift_right,
    tail_limit,
)
from .verify import (
    CHECKS,
    CheckRecord,
    CheckRequest,
    DisplacementEstimate,
    OrbitResult,
    PairRatios,
    estimate_displacement,
    orbit,
    pair_ratios,
    run_check,
)

__version__ = "0.1.0"
