"""Transport cost operators built from generator sets of qubit observables.

The cost induced by observables {a_1, ..., a_n} is the 4x4 PSD matrix
sum_j (a_j (x) I - I (x) a_j^T)^2, where (x) is `linalg.tensor` and ^T is
`linalg.transpose_op`.  Two named instances recur everywhere: the cost of all
three Pauli matrices and the cost of sigma_z alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linalg import HERMITIAN_TOL, dagger, hermiticity_defect, require_square, tensor, transpose_op, vec
from .states import PAULI

UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class CostOperator:
    """A 4x4 Hermitian PSD cost matrix plus the generator set it came from.

    Only `build_cost` makes one, so every cost is generator-built: vec(I) is
    in its kernel, and the solver's identical-state closed form is exact for
    it.  The generators are provenance only: equality of costs is matrix
    equality, and distinct generator sets can produce the same matrix.
    """

    matrix: np.ndarray
    generators: tuple


def _checked_generators(gens) -> tuple:
    out = []
    for k, a in enumerate(gens):
        a = require_square(a, (2,), f"generator {k}")
        defect = hermiticity_defect(a)  # inf for a non-finite entry
        if not defect <= HERMITIAN_TOL:
            raise DomainError(f"generator {k} is not finite and Hermitian (defect {defect:.3e})")
        out.append(a)
    if not out:
        raise DomainError("generator set must be nonempty")
    return tuple(out)


def unitarity_defect(u: np.ndarray) -> float:
    """max_ij |(u u^dag - I)[i,j]|; inf if an entry of u is not finite."""
    u = np.asarray(u, dtype=complex)
    if not np.isfinite(u).all():
        return np.inf
    return float(np.abs(u @ u.conj().T - np.eye(u.shape[0])).max())


def require_unitary(u) -> np.ndarray:
    u = require_square(u, (2,), "unitary")
    defect = unitarity_defect(u)
    if not defect <= UNITARY_TOL:
        raise DomainError(f"unitary: not unitary (defect {defect:.3e})")
    return u


def build_cost(gens) -> CostOperator:
    """Evaluate sum_j (a_j (x) I - I (x) a_j^T)^2 for Hermitian generators a_j."""
    gens = _checked_generators(gens)
    eye = np.eye(2, dtype=complex)
    m = np.zeros((4, 4), dtype=complex)
    for a in gens:
        t = tensor(a, eye) - tensor(eye, transpose_op(a))
        m += t @ t
    return CostOperator(matrix=m, generators=gens)


def conjugate_generators(gens, u) -> tuple:
    """Replace each generator a by u a u^dag."""
    gens = _checked_generators(gens)
    u = require_unitary(u)
    ud = dagger(u)
    return tuple(u @ a @ ud for a in gens)


def sym_cost() -> CostOperator:
    """Cost of the full Pauli set {sigma_1, sigma_2, sigma_3}."""
    return build_cost((PAULI[1], PAULI[2], PAULI[3]))


def z_cost() -> CostOperator:
    """Cost of the single observable sigma_z."""
    return build_cost((PAULI[3],))


def cost_matrix(c) -> np.ndarray:
    """The matrix of a CostOperator; any other cost is a DomainError."""
    if not isinstance(c, CostOperator):
        raise DomainError(f"cost: expected a CostOperator from build_cost, got {type(c).__name__}")
    return c.matrix


def kernel_residual(c: CostOperator) -> float:
    """|C @ vec(I)| -- zero for every generator-built cost."""
    return float(np.abs(c.matrix @ vec(np.eye(2, dtype=complex))).max())
