"""Exact curvature invariants of left-invariant pseudoriemannian metrics.

Structure tensors of Lie brackets, scalar products of arbitrary signature,
Levi-Civita curvature over exact rational or float arithmetic, the
moment-map form of the Ricci operator, derivation-trace obstructions to
Einstein metrics of nonzero scalar curvature, nice-basis diagonal Einstein
search, and a verified catalog of examples.

Importing the package loads none of its layers: each name of `__all__` is
read from its home module when it is used (PEP 562), so a caller, the
command line among them, pays only for the layers it uses.  The package
keeps no binding of its own, so it always sees the home module's name.
"""

import importlib

__all__ = [
    "StructureTensor", "Metric", "DualStructureTensor",
    "parse_structure", "print_structure", "parse_metric", "signature",
    "classify", "trace_ad", "killing_form", "levi_civita", "riemann",
    "ricci_general", "ricci_killing_zero", "ricci_index_oracle", "b_forms",
    "mn_criterion", "holonomy_span", "q_map", "contractions", "moment_map",
    "ricci_via_moment", "scalar_functional", "gauge_derivative",
    "jacobi_tangent_critical",
    "derivation_space", "trace_obstruction", "diagonal_derivation_solve",
    "nice_basis_check", "diagonal_ricci", "diagonal_einstein_search",
]

_HOME = {
    "structure": ("StructureTensor", "parse_structure", "print_structure",
                  "classify", "trace_ad", "killing_form"),
    "metric": ("Metric", "parse_metric", "signature"),
    "curvature": ("levi_civita", "riemann", "ricci_general",
                  "ricci_killing_zero", "ricci_index_oracle", "b_forms",
                  "mn_criterion", "holonomy_span"),
    "moment": ("DualStructureTensor", "q_map", "contractions", "moment_map",
               "ricci_via_moment", "scalar_functional", "gauge_derivative",
               "jacobi_tangent_critical"),
    "derivations": ("derivation_space", "trace_obstruction",
                    "diagonal_derivation_solve"),
    "nice": ("nice_basis_check", "diagonal_ricci", "diagonal_einstein_search"),
}

__version__ = "0.1.0"


def __getattr__(name):
    for module, names in _HOME.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
