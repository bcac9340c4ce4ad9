"""Seeded random generators for Bloch vectors, unitaries, and rotations.

Every stream is derived from an integer seed plus a counter index: `draws`
gives sample i of a family the stream `derived_rng(seed, first + i)`, so it
does not depend on how a suite groups its draws, as `SEED0_FIGURES` needs.
"""

from __future__ import annotations

import numpy as np

from .errors import require_integer


def derived_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for sample `index` of run `seed`, both
    non-negative integers (numpy integers too); anything else is a DomainError."""
    require_integer("seed", seed, 0)
    require_integer("index", index, 0)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def draws(seed: int, first: int, n: int, draw) -> list:
    """`draw(rng)` for samples first, ..., first + n - 1 of run `seed`, each
    from its own stream `derived_rng(seed, first + i)`."""
    return [draw(derived_rng(seed, first + i)) for i in range(n)]


def random_bloch_on_sphere(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
    return v / n


def random_bloch_in_ball(rng: np.random.Generator) -> np.ndarray:
    """Uniform over the solid ball (radius via the cube-root transform)."""
    return random_bloch_on_sphere(rng) * rng.uniform() ** (1.0 / 3.0)


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary (QR of a complex Ginibre matrix, phases fixed)."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))
