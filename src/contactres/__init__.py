"""Contact resolutions of projectivised nilpotent orbit closures.

Exact-arithmetic decision procedures: when does the projectivised closure
of a nilpotent orbit admit a contact resolution, what are all of them
(projectivised cotangent bundles of flag varieties), and how do their
ample cones tile the movable cone. Matrix oracles over exact rationals
cross-check every combinatorial formula at small rank.
"""

__version__ = "0.1.0"

from .cones import RationalCone, ample_cone, cone_from_generators, dual_cone
from .errors import ContactresError
from .lie_core import (
    ParabolicType,
    RootSystemData,
    SimpleType,
    build_root_system,
    flag_dimension,
    is_projective_space,
    parabolic,
    parse_parabolic,
    parse_simple_type,
    poincare_polynomial,
)
from .oracle_lab import (
    ContactCheckResult,
    MatrixModel,
    addim,
    contact_check,
    generic_fiber_count,
    generic_jordan_type,
    jordan_nilpotent,
    kks_rank,
)
from .orbits import (
    OrbitLabel,
    OrbitRecord,
    dual_partition,
    minimal_orbit_label,
    orbit_dimension,
    orbit_record,
    parse_orbit,
    validate_orbit,
)
from .resolutions import (
    ChamberComplex,
    Polarization,
    ResolutionReport,
    canonical_degree_on_curve,
    contact_resolution_exists,
    equivalent_parabolics,
    movable_chambers,
    polarizations,
    richardson_partition,
)
from .verify import run_suite, suite_names

__all__ = [
    "__version__",
    "RationalCone", "ample_cone", "cone_from_generators", "dual_cone",
    "ContactresError",
    "ParabolicType", "RootSystemData", "SimpleType", "build_root_system",
    "flag_dimension", "is_projective_space", "parabolic", "parse_parabolic",
    "parse_simple_type", "poincare_polynomial",
    "ContactCheckResult", "MatrixModel", "addim", "contact_check",
    "generic_fiber_count", "generic_jordan_type", "jordan_nilpotent",
    "kks_rank",
    "OrbitLabel", "OrbitRecord", "dual_partition", "minimal_orbit_label",
    "orbit_dimension", "orbit_record", "parse_orbit", "validate_orbit",
    "ChamberComplex", "Polarization", "ResolutionReport",
    "canonical_degree_on_curve", "contact_resolution_exists",
    "equivalent_parabolics", "movable_chambers", "polarizations",
    "richardson_partition",
    "run_suite", "suite_names",
]
