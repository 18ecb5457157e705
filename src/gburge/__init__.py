"""Geometric and tropical correspondences on Young-diagram arrays.

The library works with positive-valued arrays of Young-diagram shape and the
birational maps between them: row and column insertion built from local
diagonal moves, their inverses, and the involutions that intertwine them.
Everything is written once over an abstract semifield so the same code runs
exactly over rationals, numerically over floats, and max-plus tropically.

On top of the maps sit the checks: lattice-path enumeration oracles for the
border-sum identities, forward-mode volume (Jacobian) verification, inverse
gamma polymer sampling with distributional tests, and quadrature for the
Whittaker-function integrals the sampled partition functions converge to.
"""

from .arrays import ShapedArray, random_array
from .calculus import Dual, abs_det, loglog_jacobian, verify_jacobians
from .correspondences import (
    IDENTITY_NAMES,
    gburge,
    gburge_up,
    grsk,
    gschutz,
    gschutz_upper,
    inv_gburge,
    inv_grsk,
    tropical_limit_check,
    verify_identity,
)
from .oracles import (
    EnumerationLimitError,
    enum_nonintersecting,
    enum_paths,
    path_sum,
    random_persymmetric_square_weights,
)
from .polymer import (
    EnvSpec,
    InverseGammaOverflowError,
    MCResult,
    Stream,
    burge_partition_vector,
    check_lukacs,
    check_replica_routes,
    check_Z_Zstar,
    ks_two_sample,
    laplace_mc,
    normalization_c,
    replica_Z,
    sample_inv_gamma,
    sample_replica_env,
    sample_symmetric_env,
)
from .shapes import Box, Shape, ShapeError, all_shapes, rectangle, shape_from_boxes
from .values import (
    GEOMETRIC_FLOAT,
    GEOMETRIC_RATIONAL,
    TROPICAL,
    DomainError,
    LogDomain,
    ValueDomain,
    domain_by_name,
)
from .whittaker import (
    NonconvergentQuadratureError,
    WhittakerParams,
    corollary_check,
    energy,
    psi,
    type_vector,
    whittaker_density,
    whittaker_measure_check,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "DomainError",
    "Dual",
    "EnumerationLimitError",
    "EnvSpec",
    "GEOMETRIC_FLOAT",
    "GEOMETRIC_RATIONAL",
    "IDENTITY_NAMES",
    "InverseGammaOverflowError",
    "LogDomain",
    "MCResult",
    "NonconvergentQuadratureError",
    "Shape",
    "ShapeError",
    "ShapedArray",
    "Stream",
    "TROPICAL",
    "ValueDomain",
    "WhittakerParams",
    "abs_det",
    "all_shapes",
    "burge_partition_vector",
    "check_Z_Zstar",
    "check_lukacs",
    "check_replica_routes",
    "corollary_check",
    "domain_by_name",
    "energy",
    "enum_nonintersecting",
    "enum_paths",
    "gburge",
    "gburge_up",
    "grsk",
    "gschutz",
    "gschutz_upper",
    "inv_gburge",
    "inv_grsk",
    "ks_two_sample",
    "laplace_mc",
    "loglog_jacobian",
    "normalization_c",
    "path_sum",
    "psi",
    "random_array",
    "random_persymmetric_square_weights",
    "rectangle",
    "replica_Z",
    "sample_inv_gamma",
    "sample_replica_env",
    "sample_symmetric_env",
    "shape_from_boxes",
    "tropical_limit_check",
    "type_vector",
    "verify_identity",
    "verify_jacobians",
    "whittaker_density",
    "whittaker_measure_check",
]
