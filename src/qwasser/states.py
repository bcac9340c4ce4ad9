"""Qubit states, Bloch-ball coordinates, and the Pauli constants."""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .linalg import HERMITIAN_TOL, require_square

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

#: default tolerance on | |b| - 1 | separating pure from mixed
PURITY_TOL = 1e-8
#: Bloch norms in (1, 1 + BLOCH_CLAMP] are radially clamped; beyond is rejected
BLOCH_CLAMP = 1e-6
#: smallest admissible eigenvalue of a state matrix
STATE_EIG_FLOOR = -1e-10

NAMED_BLOCH = {
    "plus_z": (0.0, 0.0, 1.0),
    "minus_z": (0.0, 0.0, -1.0),
    "plus_x": (1.0, 0.0, 0.0),
    "plus_y": (0.0, 1.0, 0.0),
    "maximally_mixed": (0.0, 0.0, 0.0),
}


def pauli(j: int) -> np.ndarray:
    """Pauli matrix sigma_j; j = 0 gives the identity."""
    if j not in (0, 1, 2, 3):
        raise DomainError(f"pauli: index must be in 0..3, got {j!r}")
    return PAULI[j].copy()


def state_from_bloch(b) -> np.ndarray:
    """Density matrix (I + b . sigma) / 2 for a point b of the closed unit ball."""
    b = np.asarray(b, dtype=float)
    if b.shape != (3,):
        raise DomainError(f"state_from_bloch: expected 3 real coordinates, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise DomainError(f"state_from_bloch: non-finite Bloch coordinate in {b.tolist()}")
    norm = float(np.linalg.norm(b))
    if norm > 1.0 + BLOCH_CLAMP:
        raise DomainError(f"state_from_bloch: Bloch norm {norm:.12g} outside the unit ball")
    if norm > 1.0:
        b = b / norm
    return 0.5 * (PAULI[0] + b[0] * PAULI[1] + b[1] * PAULI[2] + b[2] * PAULI[3])


def bloch_from_state(rho) -> np.ndarray:
    """Pauli expectation values (tr[sigma_j rho])_{j=1..3}; a stack of states
    gives a stack of Bloch vectors."""
    rho = np.asarray(rho, dtype=complex)
    off = rho[..., 1, 0]
    return np.stack([2.0 * off.real, 2.0 * off.imag, (rho[..., 0, 0] - rho[..., 1, 1]).real], axis=-1)


def validate_state(m, what: str = "state") -> np.ndarray:
    """Check Hermiticity, unit trace, and positivity; return the matrix.  On a
    stack of states the error names the first bad state's flattened index."""
    m = require_square(m, (2,), what, stack=True)
    flat = m.reshape(-1, 2, 2)

    def require(ok, message):
        if not ok.all():
            i = int(np.argmin(ok))
            raise DomainError(f"{what if m.ndim == 2 else f'{what}[{i}]'}: {message(i)}")

    require(np.isfinite(flat).all(axis=(1, 2)), lambda i: "non-finite entry")
    defect = np.abs(flat - flat.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    require(defect <= HERMITIAN_TOL, lambda i: f"not Hermitian (defect {defect[i]:.3e})")
    tr = flat[:, 0, 0] + flat[:, 1, 1]
    require(np.abs(tr - 1.0) <= 1e-12, lambda i: f"trace {complex(tr[i]):.15g} is not 1")
    low = np.linalg.eigvalsh(flat)[:, 0]
    require(low >= STATE_EIG_FLOOR, lambda i: f"negative eigenvalue {low[i]:.3e}")
    return m


def is_pure(rho, tol: float = PURITY_TOL):
    """True iff the Bloch vector has unit length within tol; a stack of states
    gives a boolean array."""
    pure = np.abs(np.linalg.norm(bloch_from_state(rho), axis=-1) - 1.0) <= tol
    return bool(pure) if pure.ndim == 0 else pure


def named_state(name: str) -> np.ndarray:
    """One of the distinguished states: plus_z, minus_z, plus_x, plus_y, maximally_mixed."""
    if name not in NAMED_BLOCH:
        raise DomainError(f"unknown named state {name!r}; choose from {sorted(NAMED_BLOCH)}")
    return state_from_bloch(NAMED_BLOCH[name])
