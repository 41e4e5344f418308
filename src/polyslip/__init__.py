"""Strain bounds for planar single-slip polycrystals.

Inner (constant-strain) bounds and outer (boundary rank-one
compatibility) bounds on the attainable affine boundary strains, plus the
explicit tilted-square construction separating the two.

Public names are resolved lazily (PEP 562): ``from polyslip import X``
imports only the submodule that defines ``X``, so numpy is loaded only by
the names that need it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("DegenerateBeta", "DomainError", "EmptyInput", "GammaOutOfRange",
               "InvalidPolycrystal", "NotSL2", "ParallelSlips", "PolyslipError"),
    "mat2": ("DEFAULT_TOL", "E1", "E2", "Mat2", "ShearFrame", "Vec2", "decompose",
             "det", "is_SO2", "rotation"),
    "slip": ("SlipSystem", "energy", "in_M", "in_N", "psi", "slip_direction"),
    "taylor": ("AngleSet", "TaylorBound", "gamma_bounds", "in_lambda", "is_trivial",
               "normalize", "reduce_angles", "taylor_M_member", "taylor_member",
               "taylor_member_batch"),
    "compat": ("LaminateSplit", "RankOneConnection", "find_connection",
               "laminate_split", "nu_compatible"),
    "geometry": ("Arc", "BoundaryAnalysis", "Grain", "OuterBound", "Polycrystal",
                 "Segment", "analyze_boundary", "boundary_samples", "chord_disk",
                 "equal_perp_full", "halfdisk_bicrystal", "load_polycrystal",
                 "outer_bound_full_member", "outer_bound_perp",
                 "polycrystal_from_dict", "polycrystal_to_dict", "quadrant_disk",
                 "random_chord_disk", "sheared_square_polycrystal"),
    "random_textures": ("McConfig", "McResult", "estimate_trivial_probability",
                        "find_kl", "trivial_probability"),
    "shear_square": ("GAMMA_MAX", "PwAffineMap", "ShearSquareBuild",
                     "VerificationReport", "average_gradient", "boundary_matrix",
                     "build", "conclusion", "grain_components", "mesh_dict", "verify"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "svg"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
