"""Dense complex linear algebra for small exact spin simulations.

Matrices are plain row-major complex numpy arrays. Hermitian
eigendecomposition is the backend for the matrix exponential; at the
dimensions handled here (at most a few hundred) nothing more elaborate
pays off. Sparse storage and non-Hermitian eigenproblems are out of
scope.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian

__all__ = [
    "HermitianEig",
    "kron_all",
    "hermitian_eig",
    "expm_i_hermitian",
    "partial_trace_first",
    "hermiticity_defect",
]


class HermitianEig(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors sit in the columns of
    an (approximately) unitary matrix, so V @ diag(w) @ V.conj().T
    reconstructs the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def kron_all(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of several factors, left to right."""
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def hermiticity_defect(m: np.ndarray) -> float:
    """Relative Frobenius distance of m from its Hermitian part.

    Returns 0 for the zero matrix.
    """
    m = np.asarray(m)
    norm = np.linalg.norm(m)
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(m - m.conj().T) / norm)


def _require_hermitian(m: np.ndarray, rtol: float) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if defect > rtol:
        raise NotHermitian(f"relative Hermiticity defect {defect:.3e} exceeds {rtol:.1e}")
    return m


def hermitian_eig(m: np.ndarray, rtol: float = 1e-8) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises NotHermitian if the relative Hermiticity defect exceeds rtol and
    NoConvergence if the underlying iterative solver gives up.
    """
    m = _require_hermitian(m, rtol)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on 8x8 converges
        raise NoConvergence(str(exc)) from exc
    return HermitianEig(w, v)


def expm_i_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-i*h*t) for Hermitian h, via eigendecomposition."""
    w, v = hermitian_eig(h)
    phases = np.exp(-1j * w * t)
    return (v * phases) @ v.conj().T


def partial_trace_first(m: np.ndarray, dim_first: int) -> np.ndarray:
    """Trace out the leading tensor factor of dimension dim_first.

    For m acting on C^dim_first (x) C^d, returns the reduced d x d matrix;
    the total trace is preserved. Leading axes of a stack of matrices are
    kept.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if dim_first < 1 or m.shape[-1] % dim_first != 0:
        raise DimensionMismatch(
            f"dimension {m.shape[-1]} is not divisible by leading factor {dim_first}"
        )
    d = m.shape[-1] // dim_first
    return np.einsum("...ikil->...kl", m.reshape(m.shape[:-2] + (dim_first, d, dim_first, d)))
