"""Exact-rational workbench for finite metric geometry.

Builds and checks finite metric spaces with Fraction-valued distances, and
implements the constructive extension machinery usable on them: metric
amalgamation and Katetov one-point realization, compliant bilipschitz
extension inside a ball with full audit traces, extension of maps with
piecewise-linear moduli of continuity, and exact semimetrics on the group of
bilipschitz automorphisms.
"""

from .amalgam import amalgamate, katetov_extend, realize_point
from .bilip import (ComplianceCertificate, ExtensionStep, ExtensionTrace,
                    GlueReport, KNParams, MoveResult, affine_constants,
                    extend_dense, extend_one_point, glue_identity_check,
                    is_compliant, kn_admissible, move_point_in_ball,
                    segment_transport_bound)
from .core import (Ball, FiniteMetricSpace, GoodnessReport, PartialMap,
                   ValidationReport, goodness_check, lip_constant, rat,
                   validate_space)
from .errors import (DegenerateInputError, InfeasibleError, ParseError,
                     PreconditionError, StructuralError, UrylabError)
from .groupmetric import AutoMap, GroupDistance, dist_L, dist_S, dist_hat, dist_n
from .mc_extend import (CounterexampleBundle, McExtension, NetRefinement,
                        SeparationWitness, extend_one_point_mc,
                        extend_totally_bounded, necessity_counterexample,
                        separation_witness)
from .moduli import (CompatibilityReport, MCSemigroup, PLFunction, compatible,
                     is_modulus, linear, modulus_compose, modulus_inverse,
                     modulus_precedes, modulus_validate, star_condition)

__version__ = "0.1.0"

__all__ = [
    "AutoMap", "Ball", "CompatibilityReport",
    "ComplianceCertificate", "CounterexampleBundle", "DegenerateInputError",
    "ExtensionStep", "ExtensionTrace", "FiniteMetricSpace", "GlueReport",
    "GoodnessReport", "GroupDistance", "InfeasibleError", "KNParams",
    "MCSemigroup", "McExtension", "MoveResult", "NetRefinement",
    "ParseError", "PartialMap", "PLFunction",
    "PreconditionError", "SeparationWitness", "StructuralError",
    "UrylabError", "ValidationReport", "affine_constants", "amalgamate",
    "compatible", "dist_L", "dist_S", "dist_hat", "dist_n", "extend_dense",
    "extend_one_point", "extend_one_point_mc", "extend_totally_bounded",
    "glue_identity_check", "goodness_check", "is_compliant", "is_modulus",
    "katetov_extend", "kn_admissible", "linear", "lip_constant",
    "modulus_compose", "modulus_inverse", "modulus_precedes",
    "modulus_validate", "move_point_in_ball", "necessity_counterexample",
    "rat", "realize_point", "segment_transport_bound",
    "separation_witness", "star_condition", "validate_space",
]
