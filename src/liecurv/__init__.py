"""Exact curvature invariants of left-invariant pseudoriemannian metrics.

Structure tensors of Lie brackets, scalar products of arbitrary signature,
Levi-Civita curvature over exact rational or float arithmetic, the
moment-map form of the Ricci operator, derivation-trace obstructions to
Einstein metrics of nonzero scalar curvature, nice-basis diagonal Einstein
search, and a verified catalog of examples.
"""

from .curvature import (b_forms, holonomy_span, levi_civita, mn_criterion,
                        ricci_general, ricci_index_oracle, ricci_killing_zero,
                        riemann)
from .derivations import (derivation_space, diagonal_derivation_solve,
                          trace_obstruction)
from .metric import Metric, parse_metric, signature
from .moment import (DualStructureTensor, contractions, gauge_derivative,
                     jacobi_tangent_critical, moment_map, q_map,
                     ricci_via_moment, scalar_functional)
from .nice import diagonal_einstein_search, diagonal_ricci, nice_basis_check
from .structure import StructureTensor, classify, parse_structure, print_structure

__all__ = [
    "StructureTensor", "Metric", "DualStructureTensor",
    "parse_structure", "print_structure", "parse_metric", "signature",
    "classify", "levi_civita", "riemann", "ricci_general",
    "ricci_killing_zero", "ricci_index_oracle", "b_forms", "mn_criterion",
    "holonomy_span", "q_map", "contractions", "moment_map", "ricci_via_moment",
    "scalar_functional", "gauge_derivative", "jacobi_tangent_critical",
    "derivation_space", "trace_obstruction", "diagonal_derivation_solve",
    "nice_basis_check", "diagonal_ricci", "diagonal_einstein_search",
]

__version__ = "0.1.0"
