import sys
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(scope="session")
def circuits_dir() -> Path:
    return REPO_ROOT / "circuits"


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


def random_hermitian(rng, dim, scale=1.0):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (z + z.conj().T) / 2


def seed_array(*seeds) -> np.ndarray:
    """The seeds as a 1-D uint64 array, the form the bound instance makers
    take: one instance per seed."""
    return np.array(seeds, dtype=np.uint64)


def haar_gate(rng, dim):
    """A Haar-random dim x dim unitary (QR of a complex Gaussian matrix,
    phases fixed by R's diagonal)."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
