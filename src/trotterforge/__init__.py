"""Compilers and resource analyzers for fast Trotter steps on power-law systems.

Every name of ``__all__`` resolves on first use (PEP 562), so importing the
package, or a module that needs none of numpy, loads no numpy.
"""

import importlib
import os
import sys

# OpenBLAS reads this once, as numpy loads: idle workers spin 2^24 cycles, not 2^28, before they sleep
_OPENBLAS_THREAD_TIMEOUT = "24"
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", _OPENBLAS_THREAD_TIMEOUT)

__version__ = "0.1.0"

# the step methods of costmodel.compile_method, defined here so that the CLI parser reads them without numpy
STEP_METHODS = ("sequential", "block", "avgcost", "lowrank")

# export name -> the module that defines it
_MODULE_OF = {name: module for module, names in {
    "errors": (
        "CapacityError", "DimensionError", "DomainError", "IndexRangeError", "TrotterForgeError", "ValidationError",
    ),
    "hamlib": ("CoeffMatrix", "HamiltonianSpec", "IndexRegion", "PauliKind", "build_power_law", "norms"),
    "decomp": (
        "bisection_decompose", "boxes_for_pair", "cells_for_pair", "lowrank_decompose", "nested_boxes", "subdivide",
    ),
    "lowrank": ("rank_profile", "truncated_svd"),
    "circuit": (
        "Circuit", "apply_circuit", "circuit_diagonal", "circuit_to_unitary", "exact_evolution",
        "hamiltonian_diagonal", "spectral_distance",
    ),
    "compilers": (
        "compile_avgcost_step", "compile_block_step", "compile_hamming2_reduction", "compile_lowrank_step",
        "compile_sequential_step", "make_product_formula", "step_distances",
    ),
    "blockenc": (
        "build_boxed_preparation", "build_lcu_encoding", "qubitization_step_count", "walk_invariant_phases",
        "walk_operator",
    ),
    "trotter": ("commutator_norm_sum", "fermionic_error_norms", "steps_for"),
    "costmodel": ("Recurrence", "classify_recurrence", "gate_count_report", "solve_recurrence_numeric"),
    "bounds": (
        "BoundQuery", "coeff_oracle_lower_bound", "commuting_ham_lower_bound", "diag_synthesis_lower_bound",
        "discrete_diag_lower_bound", "volume_diag",
    ),
    "chem": ("ElectronicSystem", "build_uniform_electron_gas", "chem_step_count", "jw_matrix", "norm_scaling_report"),
}.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
