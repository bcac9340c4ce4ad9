"""Quantum Wasserstein distances, divergences, and isometry checks for qubits."""

from .cost import CostOperator, build_cost, conjugate_generators, sym_cost, z_cost
from .errors import (
    ContractViolation,
    DomainError,
    InternalConsistencyError,
    QwasserError,
    SolverAccuracyError,
)
from .isometry import (
    IsometryReport,
    StateMap,
    antiunitary_conj_map,
    apply_state_map,
    bloch_self_map,
    check_isometries,
    check_isometry,
    orthogonal_bloch_map,
    rotation_to_unitary,
    satisfies_dz_condition,
    theorem_crosscheck_dz,
    unitary_conj_map,
    z_phase_field_map,
)
from .linalg import (
    bra_cost_ket,
    eig_hermitian,
    partial_trace_first,
    partial_trace_second,
    sqrt_psd,
    tensor,
    transpose_op,
    vec,
)
from .states import (
    PAULI,
    bloch_from_state,
    is_pure,
    named_state,
    pauli,
    state_from_bloch,
    validate_state,
)
from .transport import (
    Coupling,
    DivergenceBreakdown,
    SolverConfig,
    TransportResult,
    coupling_cost,
    divergence_breakdown,
    divergence_breakdowns,
    product_coupling,
    purification_coupling,
    self_distance_sq,
    solve_min_coupling,
    solve_min_couplings,
    sym_self_distance_sq_closed,
    sym_self_distance_sq_published,
    wasserstein_distance,
    wasserstein_divergence,
    z_self_distance_sq_closed,
    z_self_distance_sq_published,
)
from .verify import SUITE_NAMES, SuiteResult, run_suite

__version__ = "0.1.0"
