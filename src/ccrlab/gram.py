"""Hermitian Gram matrices of indefinite inner products: eigen-signature, numerical rank, and the
one scale rule (equilibrated) and one dtype rule (real_or_complex) of the Gram and Nelson layers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
SIGNATURE_TOL_FACTOR = 1e-9
RANK_TOL = 1e-8


@dataclass
class GramMatrix:
    """Gram matrix of a finite vector family under an indefinite product.

    ``signature`` counts ``eigenvalues``, those of the equilibrated Gram, above, below, and
    within the zero tolerance; ``det_exact`` is set only when the entries were assembled in
    exact arithmetic.
    """

    entries: np.ndarray
    signature: tuple[int, int, int]
    eigenvalues: np.ndarray
    det_exact: object | None = None


def real_or_complex(values) -> np.ndarray:
    """The one dtype rule: bool, int and float values as float64, anything else (complex, Fractions) as complex128."""
    return np.asarray(values, dtype=float if np.asarray(values).dtype.kind in "biuf" else complex)


def equilibrated(gram: np.ndarray) -> np.ndarray:
    """D G D, with D from Ruiz's iteration (RAL-TR-2001-034).

    G becomes D G D with D = diag(1/sqrt(max_j |G_ij|)) until the largest |entry| of every nonzero
    row is within 1e-3 of 1.  |G| is symmetric, so after the first pass no entry exceeds 1 and each
    pass at least halves every such row's log distance from 1: a few tens of passes end it from any
    float.  The result is near the best diagonal scaling (van der Sluis, Numer. Math. 14, 1969), so
    a change of time unit does not move a verdict taken on it.  A zero row stays zero.
    """
    peak = np.abs(gram).max(axis=1)
    while np.abs(peak[peak > 0] - 1.0).max(initial=0.0) > 1e-3:
        d = 1.0 / np.sqrt(np.where(peak > 0, peak, 1.0))
        gram = d[:, None] * gram * d
        peak = np.abs(gram).max(axis=1)
    return gram


def gram_signature(entries: np.ndarray) -> tuple[tuple[int, int, int], np.ndarray]:
    """Eigen-signature (n+, n-, n0) of a Hermitian matrix, and the eigenvalues it counts.

    They are the equilibrated Hermitian part's, which has G's inertia (Sylvester's law), counted
    against SIGNATURE_TOL_FACTOR times their spectral radius, so no unit of G's rows moves them.
    Raises if the input fails hermiticity beyond HERMITICITY_TOL times max|G|.  Real input stays
    real, so a real symmetric Gram takes the real eigensolver.
    """
    entries = real_or_complex(entries)
    if entries.size == 0:
        return (0, 0, 0), np.array([])
    scale = float(np.abs(entries).max())  # relative to the Gram's own scale, so the check is unit-free
    defect = float(np.abs(entries - entries.conj().T).max())
    if defect > HERMITICITY_TOL * scale:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} at scale {scale:.3e}")
    eigenvalues = np.linalg.eigvalsh(equilibrated((entries + entries.conj().T) / 2.0))
    tol = SIGNATURE_TOL_FACTOR * max(float(np.abs(eigenvalues).max()), np.finfo(float).tiny)
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
