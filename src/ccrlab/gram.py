"""Hermitian Gram matrices of indefinite inner products: eigen-signature, numerical rank, and
real_or_complex, the one dtype rule of the Gram and Nelson layers (real data keep real arithmetic)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
SIGNATURE_TOL_FACTOR = 1e-9
RANK_TOL = 1e-8


@dataclass
class GramMatrix:
    """Gram matrix of a finite vector family under an indefinite product.

    ``signature`` counts eigenvalues above, below, and within the zero
    tolerance; ``det_exact`` is set only when the entries were assembled in
    exact arithmetic.
    """

    entries: np.ndarray
    signature: tuple[int, int, int]
    eigenvalues: np.ndarray
    det_exact: object | None = None


def real_or_complex(values) -> np.ndarray:
    """The one dtype rule: bool, int and float values as float64, anything else (complex, Fractions) as complex128."""
    return np.asarray(values, dtype=float if np.asarray(values).dtype.kind in "biuf" else complex)


def gram_signature(entries: np.ndarray) -> tuple[tuple[int, int, int], np.ndarray]:
    """Eigen-signature (n+, n-, n0) of a Hermitian matrix.

    The zero tolerance is SIGNATURE_TOL_FACTOR times the spectral radius.  Raises if
    the input fails hermiticity beyond HERMITICITY_TOL times max|G|.  Real input
    stays real, so a real symmetric Gram takes the real eigensolver.
    """
    entries = real_or_complex(entries)
    if entries.size == 0:
        return (0, 0, 0), np.array([])
    scale = float(np.abs(entries).max())  # relative to the Gram's own scale, so the check is unit-free
    defect = float(np.abs(entries - entries.conj().T).max())
    if defect > HERMITICITY_TOL * scale:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} at scale {scale:.3e}")
    eigenvalues = np.linalg.eigvalsh((entries + entries.conj().T) / 2.0)
    radius = float(np.abs(eigenvalues).max()) if eigenvalues.size else 0.0
    tol = SIGNATURE_TOL_FACTOR * max(radius, np.finfo(float).tiny)
    n_pos = int((eigenvalues > tol).sum())
    n_neg = int((eigenvalues < -tol).sum())
    n_zero = eigenvalues.size - n_pos - n_neg
    return (n_pos, n_neg, n_zero), eigenvalues


def numerical_rank(entries: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank by singular values above RANK_TOL times the largest one."""
    entries = real_or_complex(entries)
    if entries.size == 0:
        return 0, np.array([])
    singular = np.linalg.svd(entries, compute_uv=False)
    top = singular[0] if singular[0] > 0 else 1.0
    return int((singular > RANK_TOL * top).sum()), singular
