"""Compilers and resource analyzers for fast Trotter steps on power-law systems."""

from .errors import (
    CapacityError,
    DimensionError,
    DomainError,
    IndexRangeError,
    TrotterForgeError,
    ValidationError,
)
from .hamlib import CoeffMatrix, HamiltonianSpec, IndexRegion, PauliKind, build_power_law, norms
from .decomp import (
    bisection_decompose,
    boxes_for_pair,
    cells_for_pair,
    lowrank_decompose,
    nested_boxes,
    subdivide,
)
from .lowrank import rank_profile, truncated_svd
from .circuit import (
    Circuit,
    apply_circuit,
    circuit_diagonal,
    circuit_to_unitary,
    exact_evolution,
    hamiltonian_diagonal,
    spectral_distance,
)
from .compilers import (
    compile_avgcost_step,
    compile_block_step,
    compile_hamming2_reduction,
    compile_lowrank_step,
    compile_sequential_step,
    make_product_formula,
    step_distances,
)
from .blockenc import (
    build_boxed_preparation,
    build_lcu_encoding,
    qubitization_step_count,
    walk_invariant_phases,
    walk_operator,
)
from .trotter import commutator_norm_sum, fermionic_error_norms, steps_for
from .costmodel import Recurrence, classify_recurrence, gate_count_report, solve_recurrence_numeric
from .bounds import (
    BoundQuery,
    coeff_oracle_lower_bound,
    commuting_ham_lower_bound,
    diag_synthesis_lower_bound,
    discrete_diag_lower_bound,
    volume_diag,
)
from .chem import (
    ElectronicSystem,
    build_uniform_electron_gas,
    chem_step_count,
    jw_matrix,
    norm_scaling_report,
)

__version__ = "0.1.0"

__all__ = [
    "BoundQuery",
    "CapacityError",
    "Circuit",
    "CoeffMatrix",
    "DimensionError",
    "DomainError",
    "ElectronicSystem",
    "HamiltonianSpec",
    "IndexRangeError",
    "IndexRegion",
    "PauliKind",
    "Recurrence",
    "TrotterForgeError",
    "ValidationError",
    "apply_circuit",
    "bisection_decompose",
    "boxes_for_pair",
    "build_boxed_preparation",
    "build_lcu_encoding",
    "build_power_law",
    "build_uniform_electron_gas",
    "cells_for_pair",
    "chem_step_count",
    "circuit_diagonal",
    "circuit_to_unitary",
    "classify_recurrence",
    "coeff_oracle_lower_bound",
    "commutator_norm_sum",
    "commuting_ham_lower_bound",
    "compile_avgcost_step",
    "compile_block_step",
    "compile_hamming2_reduction",
    "compile_lowrank_step",
    "compile_sequential_step",
    "diag_synthesis_lower_bound",
    "discrete_diag_lower_bound",
    "exact_evolution",
    "fermionic_error_norms",
    "gate_count_report",
    "hamiltonian_diagonal",
    "jw_matrix",
    "lowrank_decompose",
    "make_product_formula",
    "nested_boxes",
    "norm_scaling_report",
    "norms",
    "qubitization_step_count",
    "rank_profile",
    "solve_recurrence_numeric",
    "spectral_distance",
    "step_distances",
    "steps_for",
    "subdivide",
    "truncated_svd",
    "volume_diag",
    "walk_invariant_phases",
    "walk_operator",
]
