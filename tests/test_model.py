import dataclasses

import numpy as np
import pytest

from conftest import FIRST_XPLUS_BRANCH_PROB, random_density_matrix
from oracles import assert_density_matrix, fidelity
from qsteer.env import DO_NOTHING, EnvConfig, QSEEnv
from qsteer.errors import ShapeMismatch
from qsteer.model import (
    BELL_NAMES,
    BELL_STATES,
    IDENTITY_2,
    SPIN_STATES,
    ModelParams,
    build_hamiltonian,
    build_propagator,
    central_product_state,
    central_projector,
    fidelity_to_pure,
    measure,
    normalize_states,
    partial_trace_first,
    purity,
    trace_distance,
)


class TestHamiltonian:
    def test_empty_bath_is_zero(self):
        h = build_hamiltonian(ModelParams(n_bath=0, couplings=()))
        assert h.shape == (2, 2)
        assert np.allclose(h, 0.0)

    def test_default_shape_hermitian_traceless(self, default_model):
        h = build_hamiltonian(default_model)
        assert h.shape == (8, 8)
        assert np.linalg.norm(h - h.conj().T) < 1e-14
        # every term is a tensor product of traceless factors
        assert abs(np.trace(h)) < 1e-14

    def test_zero_coupling_is_diagonal(self):
        p = ModelParams.uniform(coupling=(0.0, 0.0, 0.0))
        h = build_hamiltonian(p)
        assert np.allclose(h, np.diag(np.diagonal(h)))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(n_bath=2, couplings=((1.0, 0.0, 0.0),))
        with pytest.raises(ValueError):
            ModelParams.uniform(tau=0.0)

    @pytest.mark.parametrize("field, kwargs", [
        ("tau", {"tau": float("inf")}),
        ("omega", {"omega": float("nan")}),
        ("couplings", {"coupling": (1.0, float("nan"), 0.0)}),
    ])
    def test_non_finite_params_name_field(self, field, kwargs):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ModelParams.uniform(**kwargs)


class TestPropagator:
    def test_unitary(self, default_model):
        u = build_propagator(default_model)
        assert np.linalg.norm(u @ u.conj().T - np.eye(8)) < 1e-10

    def test_longest_accepted_interval_stays_unitary(self):
        u = build_propagator(ModelParams.uniform(tau=1e300))
        assert np.isfinite(u).all()
        assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-14

    def test_interval_composition(self, default_model):
        u1 = build_propagator(default_model)
        u2 = build_propagator(dataclasses.replace(default_model, tau=2 * default_model.tau))
        assert np.linalg.norm(u2 - u1 @ u1) < 1e-10


def idle_step(rho, model):
    """One interval of free evolution: the idle row of the step kernel."""
    return QSEEnv(EnvConfig(model=model)).step_batch(rho[None], [DO_NOTHING], 1).rho[0]


class TestEvolve:
    def test_identity_is_noop(self, rng):
        rho = random_density_matrix(rng, 8)
        frozen = ModelParams.uniform(coupling=(0.0, 0.0, 0.0), omega=0.0)
        assert np.allclose(idle_step(rho, frozen), rho)

    def test_purity_and_spectrum_invariant(self, rng, default_model):
        rho = random_density_matrix(rng, 8)
        out = idle_step(rho, default_model)
        assert abs(purity(out) - purity(rho)) < 1e-10
        assert np.allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), atol=1e-10)

    def test_start_state_stays_valid(self, default_model):
        rho = central_product_state(SPIN_STATES["x+"], 2)
        assert_density_matrix(idle_step(rho, default_model))

    def test_dimension_mismatch(self, rng, default_model):
        with pytest.raises(ShapeMismatch):
            idle_step(random_density_matrix(rng, 4), default_model)


class TestProjectors:
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_idempotent_hermitian_complete(self, axis):
        plus = central_projector(axis, "+", 2)
        minus = central_projector(axis, "-", 2)
        for p in (plus, minus):
            assert np.linalg.norm(p @ p - p) < 1e-12
            assert np.linalg.norm(p - p.conj().T) < 1e-12
        assert np.linalg.norm(plus + minus - np.eye(8)) < 1e-12

    def test_branch_probabilities_sum_to_one(self, rng):
        rho = random_density_matrix(rng, 8)
        for axis in "xyz":
            total = 0.0
            for sign in "+-":
                p = central_projector(axis, sign, 2)
                total += float(np.trace(p @ rho @ p).real)
            assert abs(total - 1.0) < 1e-10


class TestMeasure:
    def test_aligned_state_passes_untouched(self):
        rho = central_product_state(SPIN_STATES["z+"], 2)
        out, prob = measure(rho[None], central_projector("z", "+", 2)[None])
        assert abs(prob[0] - 1.0) < 1e-12
        assert np.allclose(out[0], rho, atol=1e-12)

    def test_orthogonal_projection_underflows(self):
        # the row comes back with its branch probability and unnormalized
        rho = central_product_state(SPIN_STATES["z+"], 2)
        p = central_projector("z", "-", 2)
        out, prob = measure(rho[None], p[None])
        assert prob[0] <= 1e-8
        assert np.array_equal(out[0], p @ rho @ p)

    def test_first_branch_probability_of_singlet_route(self, default_model):
        # evolve the fixed start for two intervals, then project onto x+
        rho = central_product_state(SPIN_STATES["x+"], 2)
        u = build_propagator(default_model)
        for _ in range(2):
            rho = u @ rho @ u.conj().T
        out, prob = measure(rho[None], central_projector("x", "+", 2)[None])
        assert prob[0] == pytest.approx(FIRST_XPLUS_BRANCH_PROB, abs=1e-9)
        assert_density_matrix(out[0])


    def test_branch_operator_stack(self, rng):
        stack = np.stack([random_density_matrix(rng, 8) for _ in range(4)])
        ops = np.stack([central_projector(a, "+", 2) for a in "xyzz"])
        ops[3] = central_projector("z", "-", 2)
        stack[3] = central_product_state(SPIN_STATES["z+"], 2)
        out, prob = measure(stack, ops)
        for i, p in enumerate(ops):
            projected = p @ stack[i] @ p
            assert prob[i] == pytest.approx(np.trace(projected).real, abs=1e-15)
        assert np.allclose(out[:3], [ops[i] @ stack[i] @ ops[i] / prob[i] for i in range(3)],
                           atol=1e-12)
        # the orthogonal branch comes back unnormalized instead of raising
        assert prob[3] <= 1e-8 and np.abs(out[3]).max() <= 1e-8

    @pytest.mark.parametrize("rho_shape, ops_shape", [
        ((2, 8, 8), (3, 8, 8)),     # row pairs of unequal count
        ((2, 8, 8), (2, 4, 4)),     # row pairs of unequal dimension
        ((2, 1, 8, 8), (7, 4, 4)),  # every operator, unequal dimension
        ((2, 2, 8, 8), (7, 8, 8)),  # every operator, no axis to spread over
        ((8, 8), (7, 8, 8)),        # a bare matrix
    ])
    def test_shapes_that_do_not_fit(self, rho_shape, ops_shape):
        with pytest.raises(ShapeMismatch):
            measure(np.zeros(rho_shape, complex), np.zeros(ops_shape, complex))


class TestMetrics:
    def test_fidelity_self(self, rng):
        rho = random_density_matrix(rng, 4)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_fidelity_pure_vs_maximally_mixed(self):
        psi = BELL_STATES["psi-"]
        assert fidelity(np.outer(psi, psi.conj()), np.eye(4, dtype=complex) / 4) \
            == pytest.approx(0.5, abs=1e-12)

    def test_fidelity_symmetric(self, rng):
        for _ in range(10):
            a = random_density_matrix(rng, 4)
            b = random_density_matrix(rng, 4)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-8)

    def test_fidelity_pure_closed_form_agrees(self, rng):
        psi = BELL_STATES["phi+"]
        target = np.outer(psi, psi.conj())
        for _ in range(10):
            rho = random_density_matrix(rng, 4)
            assert fidelity(target, rho) == pytest.approx(
                fidelity_to_pure(rho[None], psi)[0], abs=1e-8)

    def test_fidelity_to_pure_on_a_stack(self, rng):
        psi = BELL_STATES["psi-"]
        stack = np.stack([random_density_matrix(rng, 4) for _ in range(6)])
        fids = fidelity_to_pure(stack, psi)
        assert fids.shape == (6,)
        for rho, fid in zip(stack, fids):
            assert fid == pytest.approx(fidelity_to_pure(rho[None], psi)[0], abs=1e-15)

    def test_trace_distance_self_and_orthogonal(self, rng):
        rho = random_density_matrix(rng, 4)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
        zp = np.outer(SPIN_STATES["z+"], SPIN_STATES["z+"].conj())
        zm = np.outer(SPIN_STATES["z-"], SPIN_STATES["z-"].conj())
        assert trace_distance(zp, zm) == pytest.approx(1.0, abs=1e-12)

    def test_purity_extremes(self):
        psi = BELL_STATES["psi+"]
        assert purity(np.outer(psi, psi.conj())) == pytest.approx(1.0, abs=1e-12)
        assert purity(np.eye(4, dtype=complex) / 4) == pytest.approx(0.25, abs=1e-12)


class TestBellStates:
    def test_orthonormal(self):
        vectors = [BELL_STATES[n] for n in BELL_NAMES]
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                expected = 1.0 if i == j else 0.0
                assert abs(np.vdot(a, b) - expected) < 1e-12

    def test_maximal_entanglement(self):
        for name in BELL_NAMES:
            v = BELL_STATES[name]
            rho = np.outer(v, v.conj())
            reduced = partial_trace_first(rho, 2)
            assert np.allclose(reduced, IDENTITY_2 / 2, atol=1e-12)


def test_normalize_states_is_the_per_row_norm():
    # an elementwise sum of squares misses these bits in about one row in ten
    rng = np.random.default_rng(12)
    for _ in range(40):
        v = rng.standard_normal((512, 2)) + 1j * rng.standard_normal((512, 2))
        want = np.stack([u / np.linalg.norm(u) for u in v])
        assert normalize_states(v).tobytes() == want.tobytes()
        assert normalize_states(v[7]).tobytes() == want[7].tobytes()


def test_central_product_state_shape_and_purity():
    rho = central_product_state(SPIN_STATES["x+"], 2)
    assert rho.shape == (8, 8)
    assert_density_matrix(rho)
    assert purity(rho) == pytest.approx(0.25, abs=1e-12)
    reduced_bath = partial_trace_first(rho, 2)
    assert np.allclose(reduced_bath, np.eye(4) / 4, atol=1e-12)


def test_kron_builds_projector_like_model(default_model):
    # the projector construction matches an explicit kron expansion
    p = central_projector("x", "+", 2)
    v = SPIN_STATES["x+"]
    explicit = np.kron(np.outer(v, v.conj()), np.eye(4, dtype=complex))
    assert np.allclose(p, explicit, atol=1e-15)
