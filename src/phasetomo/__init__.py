"""Tomographic representations of states on a truncated Fock space.

Modules: fock (space and displacement primitives), qubit (spin-1/2
tomography), cstomo (coherent-state symbols, quasi-distributions, frames),
pntomo (photon-number tomography and its dual kernels, Hermite identities),
deformed (f- and s-deformed generalizations), io (file formats), verify
(invariant suites), cli (command-line front end).
"""
from .cstomo import (
    DualFrame,
    PhaseGrid,
    Tomogram,
    default_frame_grid,
    dual_frame,
    frame_from_amplitudes,
    frame_reconstruct,
    husimi_K,
    husimi_values,
    k_callable,
    k_grid,
    operator_hash,
    p_function_grid,
    quasi_distribution,
    quasi_values,
    reconstruct_from_K,
    reconstruct_from_tomogram,
    s_ordered_kernel,
)
from .deformed import (
    DeformationSpec,
    DeformedState,
    deformation_operator,
    deformed_coherent_state,
    deformed_displacement,
    deformed_K,
    deformed_k_grid,
    deformed_ladder,
    deformed_norm_log,
    deformed_pn_gram,
    deformed_pn_K,
    deformed_reconstruct,
    f_scalar_product,
    q_deformation_value,
)
from .errors import (
    BranchError,
    ConditioningError,
    ConvergenceError,
    CoverageError,
    DecayGateError,
    FrameRankError,
    GridError,
    ParseError,
    PhasetomoError,
    ScaleOverflowError,
    SpecError,
    TruncationError,
    UnderflowError,
)
from .fock import (
    DEFAULT_TAIL_TOL,
    FockOperator,
    FockVector,
    build_state,
    check_density,
    coherent_amplitudes,
    coherent_state,
    coherent_tail,
    displaced_number_wavefunction,
    displacement,
    displacement_block,
    displacement_matrix,
    hermite_function,
    hermite_functions,
    ladder_operators,
    nu_mu,
    suggest_truncation,
)
from .io import (
    read_operator_json,
    read_pn_tomogram_csv,
    read_tomogram_csv,
    write_operator_json,
    write_pn_tomogram_csv,
    write_tomogram_csv,
)
from .pntomo import (
    PNKernelParams,
    PNTomogram,
    auto_n_max,
    default_pn_grid,
    default_pn_params,
    mehler,
    pn_duality_table,
    pn_gram,
    pn_gram_position_element,
    pn_reconstruct,
    pn_tomogram,
    pn_tomogram_grid,
    safe_pn_params,
)
from .qubit import SphereQuadrature, bloch_kernels, qubit_reconstruct, qubit_tomogram, sphere_quadrature
from .verify import Check, run_suites

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
