"""Exact metric constructions on finite spaces.

Finite metric spaces with rational distances, and the constructions that
combine them: quotients by disjoint families through chain metrics, glued
unions and adjunctions, cones, joins and mapping cylinders over parameter
grids, cover calculus with an exact metrization, embeddings into weighted
sequence space, and inverse-sequence truncations with convergence,
separation, and perturbation analysis.

All arithmetic is exact (ints and fractions); no module does float
arithmetic.  The normed-space cone models and the cubical complexes that
the paper compares these constructions with live beside the tests, as
reference models, not in the package.

``import unimet`` loads no submodule.  Each public name below loads its
module on first use (``unimet.cone_metric``, ``from unimet import
cone_metric``, ``from unimet import *``), so a program pays only for the
constructions it runs.
"""

import importlib

# Defining module -> the public names it exports through the package.
_EXPORTS = {
    "combinators": ("interval_space", "product_metric"),
    "cones": (
        "ConeSpace", "JoinAmalgamReport", "JoinSpace", "cone_metric",
        "cone_quotient_check", "join_amalgam_equality", "join_metric",
    ),
    "covers": (
        "AuMetrization", "Cover", "FundamentalSequence", "RefinementResult",
        "au_metrize", "ball_cover", "ball_fundamental_sequence",
        "point_finite_refinement",
    ),
    "cylinders": (
        "CylinderSpace", "adjusted_metric", "cylinder_adjunction_check",
        "mapping_cylinder_metric",
    ),
    "embedding": (
        "AharoniEmbedding", "EmbeddingCertificate", "aharoni_embed",
        "sufficient_depth",
    ),
    "errors": ("PreconditionError", "StructuralError"),
    "gluing": ("AdjunctionResult", "adjunction_space", "extend_metric"),
    "invlim": (
        "CauchyAnchorVerdict", "InverseSequenceTruncation", "LadderData",
        "PerturbationReport", "SeparationIndexResult", "Telescope",
        "ThreadSpace", "convergence_report", "convergence_row",
        "inverse_sequence", "ladder", "level_anchor_verdict",
        "mittag_leffler_report", "perturbation_limit", "separation_index",
        "telescope_metric", "thread_space", "threads",
    ),
    "quotients": (
        "QuotientResult", "amalgamated_union", "glue_parts",
        "quotient_by_discrete_family",
    ),
    "scalars": ("Scalar", "as_scalar", "format_scalar", "pow2"),
    "spaces": (
        "AxiomReport", "FiniteMetricSpace", "check_metric_axioms",
        "ensure_diameter_at_most", "ensure_metric",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
