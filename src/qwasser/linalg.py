"""Dense complex linear algebra on 2x2 and 4x4 matrices.

Conventions fixed here and relied on by every other module:

* ``tensor(a, b)[2*i + k, 2*j + l] = a[i, j] * b[k, l]`` (row-major Kronecker),
* ``vec`` flattens row-major, so ``vec(a @ x @ b) = tensor(a, transpose_op(b)) @ vec(x)``
  and ``vec(x)^dag vec(y) = tr[x^dag y]``,
* dual-space objects are plain entrywise transposes in the computational basis.

LAPACK kernels: `cholesky_lo`, `inv`, `solve`, `eigh_lo` and `eigvalsh_lo` are
the gufuncs behind numpy's public `linalg` functions of those names, bound once
and called directly (same bits, without the wrappers' per-call checks, which
cost more than LAPACK's work on a 4x4 or 9x9 matrix).  A matrix a kernel fails
on (not positive definite, singular, eigenvalues not converged) gets NaN in its
own lane, the other lanes of a stack are unaffected, and the call raises the
`invalid` flag (a RuntimeWarning).  Code that expects failures reads the NaN and
holds one ``np.errstate(invalid="ignore")`` for its whole run (a barrier run, a
certificate), not one per call; anywhere else a failure warns.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ContractViolation, InternalConsistencyError

HERMITIAN_TOL = 1e-12
PSD_CLAMP = 1e-10
IMAG_TOL = 1e-8

cholesky_lo = _umath_linalg.cholesky_lo
inv = _umath_linalg.inv
solve = _umath_linalg.solve
eigh_lo = _umath_linalg.eigh_lo
eigvalsh_lo = _umath_linalg.eigvalsh_lo


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(m.conj(), -1, -2)


def hermiticity_defect(m: np.ndarray) -> float:
    """max_ij |m[i,j] - conj(m[j,i])|, over every matrix of a stack; inf if an
    entry is not finite."""
    if not np.isfinite(m).all():
        return np.inf
    return float(np.abs(m - np.swapaxes(m.conj(), -1, -2)).max(initial=0.0))


def require_square(m, dims=(2, 4), what: str = "matrix", stack: bool = False) -> np.ndarray:
    """m as a complex (d, d) matrix with d in dims; with stack, also a (..., d, d) stack."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2] or m.shape[-1] not in dims:
        kind = "a stack of square matrices" if stack else "a square matrix"
        raise ContractViolation(f"{what}: expected {kind} with dimension in {dims}, got shape {m.shape}")
    return m


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices in the row-major convention."""
    a = require_square(a, (2,), "tensor: first factor")
    b = require_square(b, (2,), "tensor: second factor")
    return np.kron(a, b)


def transpose_op(a) -> np.ndarray:
    """Entrywise transpose (no conjugation) in the computational basis."""
    return require_square(a, (2, 4), "transpose_op").T.copy()


def partial_trace_second(m) -> np.ndarray:
    """Trace out the second tensor factor: out[i,j] = sum_k m[2i+k, 2j+k]."""
    m = require_square(m, (4,), "partial_trace_second")
    return np.einsum("ikjk->ij", m.reshape(2, 2, 2, 2))


def partial_trace_first(m) -> np.ndarray:
    """Trace out the first tensor factor: out[k,l] = sum_i m[2i+k, 2i+l]."""
    m = require_square(m, (4,), "partial_trace_first")
    return np.einsum("ikil->kl", m.reshape(2, 2, 2, 2))


def eig_hermitian(m):
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix or stack."""
    m = require_square(m, (2, 4), "eig_hermitian", stack=True)
    defect = hermiticity_defect(m)
    if not defect <= HERMITIAN_TOL:
        raise ContractViolation(f"eig_hermitian: not finite and Hermitian (defect {defect:.3e} > {HERMITIAN_TOL:.1e})")
    return eigh_lo(m)


def sqrt_psd(m) -> np.ndarray:
    """Hermitian PSD square root of a 2x2 PSD matrix, or of each matrix of a stack.

    Eigenvalues in [-PSD_CLAMP, 0) are treated as roundoff and clamped to zero;
    anything more negative is a contract violation.
    """
    m = require_square(m, (2,), "sqrt_psd", stack=True)
    w, v = eig_hermitian(m)
    if (w[..., 0] < -PSD_CLAMP).any():
        raise ContractViolation(f"sqrt_psd: eigenvalue {w[..., 0].min():.3e} below -{PSD_CLAMP:.1e}")
    s = np.sqrt(np.maximum(w, 0.0))
    return (v * s[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def vec(x) -> np.ndarray:
    """Row-major flattening of a 2x2 operator (or a stack) into a length-4 vector (or a stack)."""
    x = require_square(x, (2,), "vec", stack=True)
    return x.reshape(*x.shape[:-2], 4)


def bra_cost_ket(x, c):
    """vec(x)^dag @ c @ vec(x), or an array of them for a stack of operators;
    must be real for Hermitian c."""
    v = vec(x)
    c = require_square(c, (4,), "bra_cost_ket: cost")
    if not (np.isfinite(v).all() and np.isfinite(c).all()):
        raise ContractViolation("bra_cost_ket: non-finite entry")
    return real_part(np.einsum("...i,ij,...j->...", v.conj(), c, v), "bra_cost_ket")


def real_part(vals, what: str):
    """The real part of a complex value (a float) or array (an array); the
    imaginary parts must be roundoff."""
    imag = float(np.abs(vals.imag).max(initial=0.0))
    if not imag <= IMAG_TOL:
        raise InternalConsistencyError(f"{what}: imaginary part {imag:.3e}")
    return float(vals.real) if vals.ndim == 0 else vals.real
