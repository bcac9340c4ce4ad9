"""Seeded random generators for Bloch vectors, unitaries, and rotations.

Every stream is derived from an integer seed plus a counter index so that
sample k is the same no matter how many workers evaluate the batch.
"""

from __future__ import annotations

import numpy as np


def derived_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for sample `index` of run `seed`."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


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


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-random element of SO(3)."""
    z = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q
