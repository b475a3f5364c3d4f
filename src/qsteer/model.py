"""Central-spin system: Hamiltonian, propagator, projective measurements,
the partial trace onto the bath, and the density-matrix metrics used to
score measurement sequences.

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

Matrices are plain dense complex numpy arrays. At these dimensions (at
most a few hundred) the propagator is simply ``numpy.linalg.eigh`` of the
Hamiltonian, whose real couplings make it exactly Hermitian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY_2",
    "SPIN_STATES",
    "BELL_STATES",
    "BELL_NAMES",
    "ModelParams",
    "kron_all",
    "build_hamiltonian",
    "build_propagator",
    "central_projector",
    "normalize_states",
    "central_product_state",
    "measure",
    "partial_trace_first",
    "fidelity_to_pure",
    "trace_distance",
    "purity",
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

_ZP, _ZM = SPIN_STATES["z+"], SPIN_STATES["z-"]

#: The four maximally entangled two-spin states, as 4-vectors. In the z
#: basis: phi+/- = (|z+z+> +/- |z-z->)/sqrt(2), psi+/- = (|z+z-> +/- |z-z+>)/sqrt(2).
BELL_STATES = {
    "phi+": (np.kron(_ZP, _ZP) + np.kron(_ZM, _ZM)) / _SQ2,
    "phi-": (np.kron(_ZP, _ZP) - np.kron(_ZM, _ZM)) / _SQ2,
    "psi+": (np.kron(_ZP, _ZM) + np.kron(_ZM, _ZP)) / _SQ2,
    "psi-": (np.kron(_ZP, _ZM) - np.kron(_ZM, _ZP)) / _SQ2,
}
BELL_NAMES = tuple(BELL_STATES)

# every config's set-up reads these tables, so none may be written
for _table in (PAULI_X, PAULI_Y, PAULI_Z, IDENTITY_2, *SPIN_STATES.values(),
               *BELL_STATES.values()):
    _table.flags.writeable = False


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
        for name in ("couplings", "omega", "tau"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        # bounds ||H|| tau; in Python floats, which overflow to inf silently
        g = max((sum(abs(float(c)) for c in v) for v in self.couplings), default=0.0)
        if not math.isfinite(self.n_bath * (g + abs(float(self.omega))) * float(self.tau)):
            raise ValueError(
                f"coupling, omega and tau must keep n_bath * (max_k |g_k|_1 + |omega|) * tau "
                f"finite, got max |g|_1 = {g}, omega = {self.omega}, tau = {self.tau}")

    @classmethod
    def uniform(cls, n_bath: int = 2, coupling=(1.0, 0.0, 0.0), omega: float = 0.5,
                tau: float = 1.0) -> "ModelParams":
        """Identical coupling vector on every bath spin."""
        g = tuple(float(c) for c in coupling)
        return cls(n_bath=n_bath, couplings=(g,) * n_bath, omega=omega, tau=tau)

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension 2**(n_bath + 1)."""
        return 2 ** (self.n_bath + 1)


def kron_all(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of several factors, left to right."""
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def build_hamiltonian(p: ModelParams) -> np.ndarray:
    """Assemble the coupling plus bath-precession Hamiltonian (Hermitian)."""
    dim = p.dim
    h = np.zeros((dim, dim), dtype=complex)
    for k, (gx, gy, gz) in enumerate(p.couplings):
        ops = [PAULI_Z] + [IDENTITY_2] * p.n_bath
        ops[1 + k] = gx * PAULI_X + gy * PAULI_Y + gz * PAULI_Z
        h += kron_all(*ops)
        ops = [IDENTITY_2] * (p.n_bath + 1)
        ops[1 + k] = PAULI_Z
        h += p.omega * kron_all(*ops)
    return h


def build_propagator(p: ModelParams) -> np.ndarray:
    """Unitary free-evolution operator exp(-i H tau) for one interval tau."""
    w, v = np.linalg.eigh(build_hamiltonian(p))
    return (v * np.exp(-1j * w * p.tau)) @ v.conj().T


def central_projector(axis: str, sign: str, n_bath: int) -> np.ndarray:
    """Projector |a,s><a,s| (x) identity on every bath spin."""
    key = f"{axis}{sign}"
    if key not in SPIN_STATES:
        raise ValueError(f"unknown central-spin state {key!r}")
    v = SPIN_STATES[key]
    return kron_all(np.outer(v, v.conj()), *([IDENTITY_2] * n_bath))


def normalize_states(central: np.ndarray) -> np.ndarray:
    """Each single-spin state of a stack (..., 2) divided by its norm.

    The squared norm is re.re + im.im, each dot product one BLAS dot, as
    ``np.linalg.norm`` takes it; one stacked matmul takes them for every
    row, so each row keeps the bits of ``v / np.linalg.norm(v)``. A sum of
    squares over an axis rounds differently: the BLAS dot fuses the
    multiply-add.
    """
    central = np.asarray(central, dtype=complex)
    rows = central.reshape(-1, 1, 2)
    re, im = rows.real, rows.imag
    squared = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return central / np.sqrt(squared).reshape(central.shape[:-1] + (1,))


def central_product_state(central: np.ndarray, n_bath: int) -> np.ndarray:
    """Pure central state (x) maximally mixed bath, as a density matrix.

    A stack of states (N, 2) gives a stack of matrices. Each state is
    normalized first, by ``normalize_states``.
    """
    central = normalize_states(central)
    outer = central[..., :, None] * central[..., None, :].conj()
    return kron_all(outer, *([IDENTITY_2 / 2] * n_bath))


def measure(rho: np.ndarray, ops: np.ndarray, floor: float = 1e-8):
    """Apply branch operators M to states and renormalize.

    Each M is a projector, or a projector times the propagator for a step
    that evolves first. Returns (M rho M^dagger / prob, prob). Three
    layouts: rho and ops of one shape (N, dim, dim) pair up row by row;
    one state and one operator, each (dim, dim), give one matrix and a
    scalar probability by the same two GEMMs, with fewer numpy calls;
    rho of shape (N, 1, dim, dim) and ops (K, dim, dim) apply every M to
    every state, giving (N, K, dim, dim). The last form takes the K N
    left products as one GEMM of the stacked operators against the
    states laid side by side, then one GEMM per operator for the
    right-hand adjoint. Every matrix keeps the bits of the row-by-row
    form. A matrix whose branch probability is at or below ``floor``
    comes back unnormalized; that cutoff separates genuine rank deficiency
    from round-off, and the caller treats such a row as a fatal choice.
    """
    if not floor > 0:
        raise ValueError(f"floor must be positive, got {floor}")
    if rho.shape == ops.shape:
        out = ops @ rho @ ops.conj().swapaxes(-1, -2)
        if out.ndim == 2:
            prob = out.trace().real
            out /= prob if prob > floor else 1.0
            return out, prob
    elif rho.ndim == 4 and rho.shape[1] == 1 and ops.ndim == 3 and rho.shape[2:] == ops.shape[1:]:
        (n, _, dim, _), k = rho.shape, len(ops)
        side = rho.reshape(n, dim, dim).transpose(1, 0, 2).reshape(dim, n * dim)
        # row (a, r) and column (i, c) of left hold (M_a rho_i)[r, c]
        left = ops.reshape(k * dim, dim) @ side
        # so rows (r, i) of operator a's band times M_a^dagger give (r, i, s)
        right = left.reshape(k, dim * n, dim) @ ops.conj().swapaxes(-1, -2)
        out = left.reshape(n, k, dim, dim)  # left is spent: its buffer takes the result
        out[...] = right.reshape(k, dim, n, dim).transpose(2, 0, 1, 3)
    else:
        raise ShapeMismatch(f"states {rho.shape} vs branch operators {ops.shape}")
    prob = np.trace(out, axis1=-2, axis2=-1).real
    out /= np.where(prob > floor, prob, 1.0)[..., None, None]
    return out, prob


def partial_trace_first(m: np.ndarray, dim_first: int) -> np.ndarray:
    """Trace out the leading tensor factor of dimension dim_first.

    For m acting on C^dim_first (x) C^d, returns the reduced d x d matrix;
    the total trace is preserved. Leading axes of a stack of matrices are
    kept.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ShapeMismatch(f"expected a square matrix, got shape {m.shape}")
    if dim_first < 1 or m.shape[-1] % dim_first != 0:
        raise ShapeMismatch(
            f"dimension {m.shape[-1]} is not divisible by leading factor {dim_first}"
        )
    d = m.shape[-1] // dim_first
    return np.einsum("...ikil->...kl", m.reshape(m.shape[:-2] + (dim_first, d, dim_first, d)))


def fidelity_to_pure(rho: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Fidelity of each matrix in the stack rho with the pure state psi:
    sqrt(<psi|rho|psi>), the closed form of the Uhlmann fidelity for a
    pure comparison state. Returns one fidelity per matrix.
    """
    # einsum rather than matmul: a BLAS matrix-vector product would make a
    # row's bits depend on how many rows share the stack
    overlap = np.einsum("k,...kl,l->...", psi.conj(), rho, psi).real
    return np.sqrt(np.clip(overlap, 0.0, 1.0))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Trace distance (1/2) tr |rho - sigma|, a metric with values in [0, 1].

    rho is one matrix or a stack of them, sigma one matrix; one distance
    per matrix of rho, with the same bits as a call on that matrix alone.
    """
    if rho.shape[-2:] != sigma.shape:
        raise ShapeMismatch(f"trace_distance operands {rho.shape} vs {sigma.shape}")
    diff = rho - sigma
    w = np.linalg.eigvalsh((diff + diff.conj().swapaxes(-1, -2)) / 2)
    return 0.5 * np.sum(np.abs(w), axis=-1)


def purity(rho: np.ndarray) -> np.ndarray:
    """tr(rho rho^dagger); 1 for pure states, 1/d for maximally mixed.

    One purity per matrix of a stack, with the same bits as a call on that
    matrix alone: each matrix's entries are summed as one flat row.
    """
    squares = rho * rho.conj()
    return np.real(np.sum(squares.reshape(rho.shape[:-2] + (-1,)), axis=-1))
