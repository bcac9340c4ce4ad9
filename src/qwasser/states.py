"""Qubit states, Bloch-ball coordinates, and the Pauli constants."""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .linalg import HERMITIAN_TOL, eigvalsh_lo, require_square

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

#: tolerance on | |b| - 1 | separating pure from mixed: 16 ulp (3.55e-15), above the
#: 2e-15 that unitary and antiunitary conjugations of sphere points reach
PURITY_TOL = 16 * np.finfo(float).eps
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


def _require(ok, what: str, stacked: bool, message) -> None:
    """Raise DomainError with message(i) for the first i where ok is False,
    naming i (the flattened index) when the input was a stack."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise DomainError(f"{f'{what}[{i}]' if stacked else what}: {message(i)}")


def state_from_bloch(b) -> np.ndarray:
    """Density matrix (I + b . sigma) / 2 for a point b of the closed unit ball;
    a (..., 3) stack of points gives a (..., 2, 2) stack of states.  On a stack
    the error names the first bad point's flattened index."""
    b = np.asarray(b, dtype=float)
    if b.ndim == 0 or b.shape[-1] != 3:
        raise DomainError(f"state_from_bloch: expected 3 real coordinates, got shape {b.shape}")
    flat = b.reshape(-1, 3)
    finite = np.isfinite(flat).all(axis=1)
    # row-by-row dot products: the same rounding as np.linalg.norm of one point
    with np.errstate(over="ignore"):  # a huge row is rejected below
        norm = np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0, 0])
    _require(finite & (norm <= 1.0 + BLOCH_CLAMP), "state_from_bloch", b.ndim > 1,
             lambda i: f"Bloch norm {norm[i]:.12g} outside the unit ball" if finite[i]
             else f"non-finite Bloch coordinate in {flat[i].tolist()}")
    b = (flat / np.maximum(norm, 1.0)[:, None]).reshape(b.shape)  # radial clamp; x / 1.0 is x exactly
    # built in its final shape, so that one point's state owns its data
    # rather than viewing a (1, 2, 2) stack
    x, y, z = (b[..., k, None, None] for k in range(3))
    return 0.5 * (PAULI[0] + x * PAULI[1] + y * PAULI[2] + z * PAULI[3])


def bloch_from_state(rho) -> np.ndarray:
    """Pauli expectation values (tr[sigma_j rho])_{j=1..3}; a stack of states
    gives a stack of Bloch vectors."""
    rho = np.asarray(rho, dtype=complex)
    b = np.empty((*rho.shape[:-2], 3))
    off = rho[..., 1, 0]
    b[..., 0] = 2.0 * off.real
    b[..., 1] = 2.0 * off.imag
    b[..., 2] = (rho[..., 0, 0] - rho[..., 1, 1]).real
    return b


def validate_state(m, what: str = "state") -> np.ndarray:
    """Check Hermiticity, unit trace, and positivity; return the matrix.  On a
    stack of states the error names the first bad state's flattened index."""
    m = require_square(m, (2,), what, stack=True)
    flat = m.reshape(-1, 2, 2)
    stacked = m.ndim > 2

    _require(np.isfinite(flat).all(axis=(1, 2)), what, stacked, lambda i: "non-finite entry")
    defect = np.abs(flat - flat.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    _require(defect <= HERMITIAN_TOL, what, stacked, lambda i: f"not Hermitian (defect {defect[i]:.3e})")
    tr = flat[:, 0, 0] + flat[:, 1, 1]
    _require(np.abs(tr - 1.0) <= 1e-12, what, stacked, lambda i: f"trace {complex(tr[i]):.15g} is not 1")
    low = eigvalsh_lo(flat)[:, 0]
    _require(low >= STATE_EIG_FLOOR, what, stacked, lambda i: f"negative eigenvalue {low[i]:.3e}")
    return m


def is_pure(rho):
    """True iff the Bloch vector has unit length within `PURITY_TOL`; a stack
    of states gives a boolean array."""
    pure = np.abs(np.linalg.norm(bloch_from_state(rho), axis=-1) - 1.0) <= PURITY_TOL
    return bool(pure) if pure.ndim == 0 else pure


def named_state(name: str) -> np.ndarray:
    """One of the distinguished states: plus_z, minus_z, plus_x, plus_y, maximally_mixed."""
    if not (isinstance(name, str) and name in NAMED_BLOCH):
        raise DomainError(f"unknown named state {name!r}; choose from {sorted(NAMED_BLOCH)}")
    return state_from_bloch(NAMED_BLOCH[name])
