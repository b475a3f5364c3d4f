"""Central-spin system: Hamiltonian, propagator, projective measurements,
and the density-matrix metrics used to score measurement sequences.

The system is one controllable central spin coupled to ``n_bath``
non-interacting bath spins, each a two-level system. The Hamiltonian is

    H = S_z (x) sum_k g_k . sigma_k  +  omega * sum_k sigma_k^z

with the tensor order (central, bath_1, ..., bath_n). Operator
normalization: the central z operator is diag(+1, -1) and the bath
operators are the full Pauli matrices. This convention is pinned by the
golden replay fixtures in tests/ (it is the unique choice among the
half-versus-full candidates that matches them) and must not be changed
independently of those fixtures.

Frequencies (couplings, omega) and the interval tau share one relative
unit system, so all propagator phases are dimensionless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import (
    expm_i_hermitian,
    hermiticity_defect,
    kron_all,
    matrix_sqrt_psd,
)

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY_2",
    "SPIN_STATES",
    "BELL_NAMES",
    "ModelParams",
    "hilbert_dim",
    "build_hamiltonian",
    "build_propagator",
    "central_projector",
    "central_product_state",
    "measure",
    "bell_state",
    "fidelity",
    "fidelity_to_pure",
    "trace_distance",
    "purity",
    "assert_density_matrix",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

_SQ2 = np.sqrt(2.0)

#: Single-spin pure states in the z basis (z+ = index 0).
SPIN_STATES = {
    "z+": np.array([1, 0], dtype=complex),
    "z-": np.array([0, 1], dtype=complex),
    "x+": np.array([1, 1], dtype=complex) / _SQ2,
    "x-": np.array([1, -1], dtype=complex) / _SQ2,
    "y+": np.array([1, 1j], dtype=complex) / _SQ2,
    "y-": np.array([1, -1j], dtype=complex) / _SQ2,
}

BELL_NAMES = ("phi+", "phi-", "psi+", "psi-")


@dataclass(frozen=True)
class ModelParams:
    """Static system parameters fixing the Hamiltonian and propagator.

    couplings holds one (gx, gy, gz) vector per bath spin; omega is the
    uniform bath precession frequency; tau the free-evolution interval.
    """

    n_bath: int = 2
    couplings: tuple[tuple[float, float, float], ...] = ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    omega: float = 0.5
    tau: float = 1.0

    def __post_init__(self):
        if self.n_bath < 0:
            raise ValueError(f"n_bath must be >= 0, got {self.n_bath}")
        if len(self.couplings) != self.n_bath:
            raise ValueError(
                f"need one coupling vector per bath spin: got {len(self.couplings)} "
                f"for n_bath={self.n_bath}"
            )
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")

    @classmethod
    def uniform(cls, n_bath: int = 2, coupling=(1.0, 0.0, 0.0), omega: float = 0.5,
                tau: float = 1.0) -> "ModelParams":
        """Identical coupling vector on every bath spin."""
        g = tuple(float(c) for c in coupling)
        return cls(n_bath=n_bath, couplings=(g,) * n_bath, omega=omega, tau=tau)

    @property
    def dim(self) -> int:
        return hilbert_dim(self.n_bath)


def hilbert_dim(n_bath: int) -> int:
    """Total Hilbert-space dimension 2**(n_bath + 1)."""
    return 2 ** (n_bath + 1)


def _bath_pauli(coupling) -> np.ndarray:
    gx, gy, gz = coupling
    return gx * PAULI_X + gy * PAULI_Y + gz * PAULI_Z


def build_hamiltonian(p: ModelParams) -> np.ndarray:
    """Assemble the coupling plus bath-precession Hamiltonian (Hermitian)."""
    dim = p.dim
    h = np.zeros((dim, dim), dtype=complex)
    for k in range(p.n_bath):
        ops = [PAULI_Z] + [IDENTITY_2] * p.n_bath
        ops[1 + k] = _bath_pauli(p.couplings[k])
        h += kron_all(*ops)
        ops = [IDENTITY_2] * (p.n_bath + 1)
        ops[1 + k] = PAULI_Z
        h += p.omega * kron_all(*ops)
    return h


def build_propagator(p: ModelParams, duration: float | None = None) -> np.ndarray:
    """Unitary free-evolution operator for the given duration (default tau)."""
    if duration is None:
        duration = p.tau
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    return expm_i_hermitian(build_hamiltonian(p), duration)


def central_projector(axis: str, sign: str, n_bath: int) -> np.ndarray:
    """Projector |a,s><a,s| (x) identity on every bath spin."""
    key = f"{axis}{sign}"
    if key not in SPIN_STATES:
        raise ValueError(f"unknown central-spin state {key!r}")
    v = SPIN_STATES[key]
    return kron_all(np.outer(v, v.conj()), *([IDENTITY_2] * n_bath))


def central_product_state(central: np.ndarray, n_bath: int) -> np.ndarray:
    """Pure central state (x) maximally mixed bath, as a density matrix."""
    central = np.asarray(central, dtype=complex)
    central = central / np.linalg.norm(central)
    return kron_all(np.outer(central, central.conj()), *([IDENTITY_2 / 2] * n_bath))


def measure(rho: np.ndarray, ops: np.ndarray, floor: float = 1e-8):
    """Apply one branch operator M per state and renormalize.

    rho and ops are stacks of matching shape; each M is a projector, or a
    projector times the propagator for a step that evolves first. Returns
    (M rho M^dagger / prob, prob) row by row. A row whose branch
    probability is at or below ``floor`` comes back unnormalized; that
    cutoff separates genuine rank deficiency from round-off, and the
    caller treats such a row as a fatal choice.
    """
    if not floor > 0:
        raise ValueError(f"floor must be positive, got {floor}")
    if rho.shape != ops.shape:
        raise DimensionMismatch(f"states {rho.shape} vs branch operators {ops.shape}")
    out = ops @ rho @ ops.conj().swapaxes(-1, -2)
    prob = np.trace(out, axis1=-2, axis2=-1).real
    out /= np.where(prob > floor, prob, 1.0)[..., None, None]
    return out, prob


def bell_state(which: str) -> np.ndarray:
    """One of the four maximally entangled two-spin states, as a 4-vector.

    In the z basis: phi+/- = (|z+z+> +/- |z-z->)/sqrt(2),
    psi+/- = (|z+z-> +/- |z-z+>)/sqrt(2).
    """
    zp, zm = SPIN_STATES["z+"], SPIN_STATES["z-"]
    if which == "phi+":
        v = np.kron(zp, zp) + np.kron(zm, zm)
    elif which == "phi-":
        v = np.kron(zp, zp) - np.kron(zm, zm)
    elif which == "psi+":
        v = np.kron(zp, zm) + np.kron(zm, zp)
    elif which == "psi-":
        v = np.kron(zp, zm) - np.kron(zm, zp)
    else:
        raise ValueError(f"unknown Bell state {which!r}; expected one of {BELL_NAMES}")
    return v / _SQ2


def fidelity(sigma: np.ndarray, rho: np.ndarray) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1].

    Symmetric in its arguments and equal to 1 iff sigma == rho. For a pure
    rho this reduces to the overlap square root; fidelity_to_pure computes
    that closed form directly.
    """
    if sigma.shape != rho.shape:
        raise DimensionMismatch(f"fidelity operands {sigma.shape} vs {rho.shape}")
    root = matrix_sqrt_psd(rho)
    inner = root @ sigma @ root
    # inner is PSD up to round-off; its eigenvalue square roots sum to F.
    # Eigenvalues at the round-off floor must be zeroed first: the square
    # root amplifies O(eps) noise to O(sqrt(eps)).
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    cutoff = inner.shape[0] * np.finfo(float).eps * max(float(w[-1]), 0.0)
    w = np.where(w > cutoff, w, 0.0)
    return float(min(1.0, np.sum(np.sqrt(w))))


def fidelity_to_pure(rho: np.ndarray, psi: np.ndarray):
    """Fidelity of rho with the pure state psi: sqrt(<psi|rho|psi>).

    Exact closed form of ``fidelity`` for a pure comparison state; used on
    hot paths where the general eigendecomposition route is too slow. A
    matrix gives a float; a stack of matrices gives an array with one
    fidelity per matrix.
    """
    if rho.ndim == 2:
        overlap = float(np.real(psi.conj() @ rho @ psi))
        return float(np.sqrt(min(1.0, max(0.0, overlap))))
    # einsum rather than matmul: a BLAS matrix-vector product would make a
    # row's bits depend on how many rows share the stack
    overlap = np.einsum("k,...kl,l->...", psi.conj(), rho, psi).real
    return np.sqrt(np.clip(overlap, 0.0, 1.0))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Trace distance (1/2) tr |rho - sigma|, a metric with values in [0, 1]."""
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"trace_distance operands {rho.shape} vs {sigma.shape}")
    diff = rho - sigma
    w = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(0.5 * np.sum(np.abs(w)))


def purity(rho: np.ndarray) -> float:
    """tr(rho rho^dagger); 1 for pure states, 1/d for maximally mixed."""
    return float(np.real(np.sum(rho * rho.conj())))


def assert_density_matrix(rho: np.ndarray, herm_tol: float = 1e-9,
                          trace_tol: float = 1e-9, eig_floor: float = -1e-9) -> None:
    """Validate Hermiticity, unit trace, and positivity within tolerances.

    Meant for tests and debug paths, not the episode hot loop.
    """
    defect = hermiticity_defect(rho)
    if defect > herm_tol:
        raise AssertionError(f"Hermiticity defect {defect:.3e} > {herm_tol:.1e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_tol:
        raise AssertionError(f"trace {tr} deviates from 1 by more than {trace_tol:.1e}")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if w[0] < eig_floor:
        raise AssertionError(f"eigenvalue {w[0]:.3e} below {eig_floor:.1e}")
