"""Contact resolutions of projectivised nilpotent orbit closures.

Exact-arithmetic decision procedures: when does the projectivised closure
of a nilpotent orbit admit a contact resolution, what are all of them
(projectivised cotangent bundles of flag varieties), and how do their
ample cones tile the movable cone. Matrix oracles over exact rationals
cross-check every combinatorial formula at small rank.

Importing the package loads none of its modules. Each name of
``__all__`` is imported from its home module on first access (PEP 562),
and so is each submodule, so a process pays only for what it uses: the
CLI's ``classify --no-oracles`` never loads the oracles.
"""

__version__ = "0.1.0"

# home module -> the public names it exports, in the order of ``__all__``
_EXPORTS = {
    "cones": ("cone_from_generators", "dual_cone"),
    "errors": ("ContactresError",),
    "lie_core": ("ParabolicType", "RootSystemData", "SimpleType",
                 "build_root_system", "flag_dimension", "is_projective_space",
                 "parabolic", "parse_parabolic", "parse_simple_type",
                 "poincare_polynomial"),
    "oracle_lab": ("ContactCheckResult", "MatrixModel", "addim",
                   "contact_check", "generic_fiber_count",
                   "generic_jordan_type", "jordan_nilpotent", "kks_rank"),
    "orbits": ("OrbitLabel", "OrbitRecord", "dual_partition",
               "minimal_orbit_label", "orbit_dimension", "orbit_record",
               "parse_orbit", "validate_orbit"),
    "resolutions": ("ChamberComplex", "Polarization", "RationalCone",
                    "ResolutionReport", "ample_cone",
                    "canonical_degree_on_curve", "contact_resolution_exists",
                    "equivalent_parabolics", "movable_chambers",
                    "polarizations", "richardson_partition"),
    "verify": ("run_suite", "suite_names"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "ratlinalg", "report"})

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    """A submodule or a public name, imported on first access. A public
    name is then bound here, so later reads are plain lookups (importing
    a submodule binds it here by itself)."""
    if name not in _SUBMODULES and name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
