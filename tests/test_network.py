import json
from pathlib import Path

import numpy as np
import pytest

from qsteer.errors import NonFiniteLoss, SchemaMismatch, ShapeMismatch
from qsteer.network import (
    AdamState,
    MLPParams,
    MLPSpec,
    forward,
    gradients,
    init_params,
    load_params,
    save_params,
    soft_update,
    train_batch,
)


REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


def small_spec(**kw):
    defaults = dict(input_size=5, hidden=(8,), output_size=3, init_seed=42)
    defaults.update(kw)
    return MLPSpec(**defaults)


def numeric_grads(params, x, a, y, h=1e-5):
    """Central finite differences of the selected-head MSE loss, taken
    from ``forward`` with the arithmetic ``gradients`` uses for its loss."""
    rows = np.arange(len(a))

    def loss():
        return float(np.mean((forward(params, x)[rows, a] - y) ** 2))

    num_w = [np.zeros_like(w) for w in params.weights]
    num_b = [np.zeros_like(b) for b in params.biases]
    for arrays, nums in ((params.weights, num_w), (params.biases, num_b)):
        for arr, num in zip(arrays, nums):
            flat, nflat = arr.ravel(), num.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss()
                flat[i] = orig - h
                down = loss()
                flat[i] = orig
                nflat[i] = (up - down) / (2 * h)
    return num_w, num_b


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestForward:
    def test_zero_params_zero_output(self):
        spec = small_spec()
        params = init_params(spec)
        for w in params.weights:
            w[:] = 0.0
        for b in params.biases:
            b[:] = 0.0
        assert np.array_equal(forward(params, np.ones(5)[None])[0], np.zeros(3))

    def test_single_linear_layer_selects_inputs(self):
        params = MLPParams(
            weights=[np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])],
            biases=[np.zeros(2)],
        )
        out = forward(params, np.array([3.0, -2.0, 7.0])[None])[0]
        assert np.array_equal(out, [3.0, -2.0])

    def test_deterministic_across_instances(self):
        spec = small_spec()
        x = np.linspace(-1, 1, 5)
        a = forward(init_params(spec), x[None])
        b = forward(init_params(spec), x[None])
        assert np.array_equal(a, b)

    def test_batch_matches_single(self):
        params = init_params(small_spec())
        xs = np.random.default_rng(0).standard_normal((4, 5))
        batched = forward(params, xs)
        for i in range(4):
            assert np.allclose(batched[i], forward(params, xs[i][None])[0])

    def test_row_bits_do_not_depend_on_batch_size(self):
        # a one-row batch must round like a row of a larger one: the
        # collector's greedy batches shrink to one row as episodes end
        params = init_params(small_spec(input_size=70, hidden=(128, 128), output_size=7))
        xs = np.random.default_rng(1).standard_normal((200, 70))
        batched = forward(params, xs)
        for i in range(len(xs)):
            assert forward(params, xs[i:i + 1])[0].tobytes() == batched[i].tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            forward(init_params(small_spec()), np.ones(6)[None])


class TestGradients:
    def test_single_linear_weight_analytic(self):
        # one input, one output: loss = (w*x + b - y)^2, dl/dw = 2(q - y)x
        params = MLPParams(weights=[np.array([[0.5]])], biases=[np.array([0.25])])
        x = np.array([[2.0]])
        y = np.array([3.0])
        gw, gb, loss = gradients(params, x, np.array([0]), y)
        q = 0.5 * 2.0 + 0.25
        assert loss == pytest.approx((q - 3.0) ** 2)
        assert gw[0][0, 0] == pytest.approx(2 * (q - 3.0) * 2.0)
        assert gb[0][0] == pytest.approx(2 * (q - 3.0))

    def test_only_selected_head_gets_error(self):
        params = init_params(small_spec())
        x = np.random.default_rng(1).standard_normal((1, 5))
        gw, _, _ = gradients(params, x, np.array([2]), np.array([5.0]))
        # output-layer weight columns for unselected heads stay zero
        assert np.allclose(gw[-1][:, 0], 0.0)
        assert np.allclose(gw[-1][:, 1], 0.0)
        assert not np.allclose(gw[-1][:, 2], 0.0)

    def test_against_finite_differences(self):
        rng = np.random.default_rng(5)
        spec = small_spec(input_size=6, hidden=(7, 5), output_size=4, init_seed=9)
        params = init_params(spec)
        x = rng.standard_normal((3, 6))
        a = rng.integers(4, size=3)
        y = rng.standard_normal(3)
        gw, gb, _ = gradients(params, x, a, y)
        nw, nb = numeric_grads(params, x, a, y)
        assert max_rel_error(gw + gb, nw + nb) < 1e-4


class TestTrainBatch:
    def test_perfect_targets_leave_params_alone(self):
        params = init_params(small_spec())
        adam = AdamState.for_params(params)
        x = np.random.default_rng(3).standard_normal((4, 5))
        a = np.array([0, 1, 2, 0])
        y = forward(params, x)[np.arange(4), a]
        before = [w.copy() for w in params.weights]
        loss = train_batch(params, x, a, y, adam)
        assert loss == pytest.approx(0.0, abs=1e-24)
        for w0, w1 in zip(before, params.weights):
            assert np.allclose(w0, w1, atol=1e-12)

    def test_loss_decreases_on_fixed_regression(self):
        # regress the first head onto a fixed linear function of the input
        rng = np.random.default_rng(11)
        spec = small_spec(input_size=4, hidden=(16,), output_size=2, init_seed=2)
        params = init_params(spec)
        adam = AdamState.for_params(params)
        x = rng.standard_normal((32, 4))
        y = x @ np.array([0.5, -1.0, 0.25, 2.0])
        a = np.zeros(32, dtype=int)
        losses = [train_batch(params, x, a, y, adam) for _ in range(101)]
        assert losses[100] < losses[0]
        assert np.mean(losses[-10:]) < 0.8 * np.mean(losses[:10])

    def test_non_finite_targets_rejected(self):
        params = init_params(small_spec())
        adam = AdamState.for_params(params)
        with pytest.raises(NonFiniteLoss):
            train_batch(params, np.ones((1, 5)), np.array([0]),
                        np.array([np.inf]), adam)

    def test_grad_clip_changes_moment_accumulation(self):
        # a single step is scale-invariant under the adaptive update, so
        # clipping shows up once a huge gradient follows a normal one
        spec = small_spec(init_seed=8)
        clipped = init_params(spec)
        free = clipped.clone()
        adam_c, adam_f = AdamState.for_params(clipped), AdamState.for_params(free)
        rng = np.random.default_rng(0)
        x_small, x_big = rng.standard_normal((2, 5)), 100.0 * np.ones((2, 5))
        a = np.array([0, 1])
        train_batch(clipped, x_small, a, np.array([1.0, -1.0]), adam_c, grad_clip=1.0)
        train_batch(free, x_small, a, np.array([1.0, -1.0]), adam_f)
        train_batch(clipped, x_big, a, np.array([1e4, -1e4]), adam_c, grad_clip=1.0)
        train_batch(free, x_big, a, np.array([1e4, -1e4]), adam_f)
        assert any(not np.allclose(w0, w1)
                   for w0, w1 in zip(clipped.weights, free.weights))

    def test_subnormal_first_moments_are_zeroed(self):
        # an input that is always 0 gives its first-layer weights (flat[:8],
        # row 0 of the first layer) a zero gradient, so 0.9 * m is all their
        # m ever gets; from a subnormal m that product rounds back to m
        params = init_params(small_spec())
        adam = AdamState.for_params(params)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 5))
        x[:, 0] = 0.0
        a = rng.integers(3, size=8)
        y = rng.standard_normal(8)
        stalled = np.array([5e-324, -5e-324, 2e-323, -2e-323, 1.5e-323, 0.0, 1e-323, 5e-324])
        adam.m[:8] = stalled
        weights = params.flat[:8].copy()
        for _ in range(255):
            train_batch(params, x, a, y, adam)
        assert adam.m[:8].tobytes() == stalled.tobytes()
        train_batch(params, x, a, y, adam)
        assert adam.t == 256
        assert np.all(adam.m[:8] == 0.0)
        assert params.flat[:8].tobytes() == weights.tobytes()
        assert np.count_nonzero(adam.m[8:]) > 0


class TestSoftUpdate:
    def test_full_mix_copies_main(self):
        target = init_params(small_spec(init_seed=1))
        main = init_params(small_spec(init_seed=2))
        soft_update(target, main, 1.0)
        for tw, mw in zip(target.weights, main.weights):
            assert np.array_equal(tw, mw)

    def test_zero_mix_is_noop(self):
        target = init_params(small_spec(init_seed=1))
        snapshot = target.clone()
        soft_update(target, init_params(small_spec(init_seed=2)), 0.0)
        for tw, sw in zip(target.weights, snapshot.weights):
            assert np.array_equal(tw, sw)

    def test_geometric_convergence(self):
        target = init_params(small_spec(init_seed=1))
        main = init_params(small_spec(init_seed=2))
        mix = 0.25

        def gap():
            return sum(np.linalg.norm(tw - mw)
                       for tw, mw in zip(target.weights, main.weights))

        g0 = gap()
        soft_update(target, main, mix)
        assert gap() == pytest.approx((1 - mix) * g0, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            soft_update(init_params(small_spec()),
                        init_params(small_spec(hidden=(9,))), 0.5)


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = small_spec()
        params = init_params(spec)
        path = tmp_path / "net.npz"
        save_params(path, params, spec, step=17)
        loaded, loaded_spec, meta = load_params(path)
        assert meta["step"] == 17
        assert loaded_spec == spec
        x = np.random.default_rng(0).standard_normal((3, 5))
        assert np.array_equal(forward(params, x), forward(loaded, x))
        for w0, w1 in zip(params.weights, loaded.weights):
            assert np.array_equal(w0, w1)

    def test_failed_write_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        spec = small_spec()
        path = tmp_path / "checkpoint_best.npz"
        save_params(path, init_params(spec), spec, step=3)
        before = path.read_bytes()

        def crash(fh, **arrays):
            fh.write(b"PK\x03\x04 half a checkpoint")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", crash)
        with pytest.raises(OSError, match="disk full"):
            save_params(path, init_params(small_spec(init_seed=9)), spec, step=4)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_wrong_input_size_rejected(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "net.npz"
        save_params(path, init_params(spec), spec, step=0)
        with pytest.raises(SchemaMismatch):
            load_params(path, expected_spec=small_spec(input_size=7))

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "net.npz"
        np.savez(path, junk=np.zeros(3))
        with pytest.raises(SchemaMismatch):
            load_params(path)


def reference_step(weights, biases, moments, x, a, y, t, lr, grad_clip):
    """One optimizer step on separate per-layer arrays, written the way the
    network did it before its parameters were held in one flat vector:
    fresh arrays per layer, a per-layer clip and a per-layer Adam loop.
    Updates weights, biases and moments in place; returns whether it
    clipped."""
    pre, post, h = [], [x], x
    for w, b in zip(weights[:-1], biases[:-1]):
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0)
        post.append(h)
    q = h @ weights[-1] + biases[-1]
    rows = np.arange(len(x))
    delta = np.zeros_like(q)
    delta[rows, a] = 2.0 * (q[rows, a] - y) / len(x)
    grad_w, grad_b = [None] * len(weights), [None] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        grad_w[layer] = post[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (pre[layer - 1] > 0).astype(float)

    clipped = False
    if grad_clip is not None:
        norm_sq = sum(float((g ** 2).sum()) for g in grad_w)
        norm_sq += sum(float((g ** 2).sum()) for g in grad_b)
        norm = np.sqrt(norm_sq)
        if norm > grad_clip:
            clipped = True
            grad_w = [g * (grad_clip / norm) for g in grad_w]
            grad_b = [g * (grad_clip / norm) for g in grad_b]

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    corr1, corr2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    m_w, v_w, m_b, v_b = moments
    for i in range(len(weights)):
        for value, grad, m, v in ((weights[i], grad_w[i], m_w[i], v_w[i]),
                                  (biases[i], grad_b[i], m_b[i], v_b[i])):
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad ** 2
            value -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
    return clipped


class TestFlatLayout:
    def test_views_share_the_flat_vector(self):
        params = init_params(MLPSpec(input_size=70))
        assert params.flat.size == sum(w.size + b.size
                                       for w, b in zip(params.weights, params.biases))
        for arr in params.weights + params.biases:
            assert np.shares_memory(arr, params.flat)
        twin = params.clone()
        assert not np.shares_memory(twin.flat, params.flat)
        for arr in twin.weights + twin.biases:
            assert np.shares_memory(arr, twin.flat)
            assert not np.shares_memory(arr, params.flat)
        assert np.array_equal(twin.flat, params.flat)

    def test_given_arrays_are_copied(self):
        w, b = np.ones((2, 3)), np.zeros(3)
        params = MLPParams([w], [b])
        params.flat[:] = 5.0
        assert np.all(w == 1.0) and np.all(b == 0.0)
        assert np.all(params.weights[0] == 5.0) and np.all(params.biases[0] == 5.0)

    def test_arrays_that_do_not_chain_are_rejected(self):
        with pytest.raises(ShapeMismatch):
            MLPParams([np.ones((2, 3)), np.ones((4, 1))], [np.zeros(3), np.zeros(1)])
        with pytest.raises(ShapeMismatch):
            MLPParams([np.ones((2, 3))], [np.zeros(2)])
        with pytest.raises(ShapeMismatch):
            MLPParams([np.ones(3)], [np.zeros(3)])

    def test_gradients_write_into_the_given_vector(self):
        params = init_params(small_spec())
        rng = np.random.default_rng(4)
        x, a, y = rng.standard_normal((6, 5)), rng.integers(3, size=6), rng.standard_normal(6)
        out = np.full_like(params.flat, np.nan)
        gw, gb, loss = gradients(params, x, a, y, out=out)
        for g in gw + gb:
            assert np.shares_memory(g, out)
        fresh_w, fresh_b, fresh_loss = gradients(params, x, a, y)
        assert loss == fresh_loss
        assert np.array_equal(np.concatenate([g.ravel() for pair in zip(fresh_w, fresh_b)
                                              for g in pair]), out)

    @pytest.mark.parametrize("grad_clip", [None, 1.0])
    def test_train_batch_matches_per_layer_reference(self, grad_clip):
        params = init_params(MLPSpec(input_size=70, init_seed=3))
        weights = [w.copy() for w in params.weights]
        biases = [b.copy() for b in params.biases]
        moments = [[np.zeros_like(arr) for arr in arrays]
                   for arrays in (weights, weights, biases, biases)]
        adam = AdamState.for_params(params)
        rng = np.random.default_rng(21)
        clips = 0
        for t in range(1, 21):
            x = rng.standard_normal((32, 70))
            a = rng.integers(7, size=32)
            y = 10.0 * rng.standard_normal(32)
            train_batch(params, x, a, y, adam, lr=5e-4, grad_clip=grad_clip)
            clips += reference_step(weights, biases, moments, x, a, y, t, 5e-4, grad_clip)
        if grad_clip is not None:
            assert clips > 0
        want = np.concatenate([arr.ravel() for pair in zip(weights, biases) for arr in pair])
        assert params.flat.tobytes() == want.tobytes()
        m_w, v_w, m_b, v_b = moments
        for flat, per_w, per_b in ((adam.m, m_w, m_b), (adam.v, v_w, v_b)):
            want = np.concatenate([arr.ravel() for pair in zip(per_w, per_b) for arr in pair])
            assert flat.tobytes() == want.tobytes()

    def test_soft_update_matches_per_layer_blend(self):
        target = init_params(MLPSpec(input_size=70, init_seed=1))
        main = init_params(MLPSpec(input_size=70, init_seed=2))
        want = [(1.0 - 0.01) * t + 0.01 * m for t, m in zip(
            target.weights + target.biases, main.weights + main.biases)]
        soft_update(target, main, 0.01)
        for got, expected in zip(target.weights + target.biases, want):
            assert got.tobytes() == expected.tobytes()


class TestCheckpointLayout:
    def test_npz_keys_are_per_layer(self, tmp_path):
        spec = MLPSpec(input_size=70)
        params = init_params(spec)
        save_params(tmp_path / "net.npz", params, spec)
        with np.load(tmp_path / "net.npz") as data:
            assert sorted(data.files) == ["b0", "b1", "b2", "meta", "w0", "w1", "w2"]
            for i, (w, b) in enumerate(zip(params.weights, params.biases)):
                assert np.array_equal(data[f"w{i}"], w)
                assert np.array_equal(data[f"b{i}"], b)

    def test_header_names_the_layout_but_no_activation(self, tmp_path):
        spec = small_spec()
        save_params(tmp_path / "net.npz", init_params(spec), spec, step=4)
        _, loaded, meta = load_params(tmp_path / "net.npz")
        assert loaded == spec
        assert sorted(meta) == ["format_version", "hidden", "init_seed", "input_size",
                                "output_size", "step"]

    @pytest.mark.parametrize("name", ["psi_minus_fixed.npz", "psi_minus_random.npz"])
    def test_reference_agents_load(self, name):
        params, spec, _ = load_params(REFERENCE_DIR / name,
                                      expected_spec=MLPSpec(input_size=70))
        assert spec.layer_sizes == (70, 128, 128, 7)
        with np.load(REFERENCE_DIR / name) as data:
            for i, (w, b) in enumerate(zip(params.weights, params.biases)):
                assert w.tobytes() == data[f"w{i}"].tobytes()
                assert b.tobytes() == data[f"b{i}"].tobytes()

    def test_trained_round_trip_is_bit_exact(self, tmp_path):
        spec = small_spec()
        params = init_params(spec)
        adam = AdamState.for_params(params)
        rng = np.random.default_rng(9)
        for _ in range(5):
            train_batch(params, rng.standard_normal((8, 5)), rng.integers(3, size=8),
                        rng.standard_normal(8), adam, grad_clip=1.0)
        save_params(tmp_path / "a.npz", params, spec, step=5)
        loaded, _, _ = load_params(tmp_path / "a.npz")
        assert loaded.flat.tobytes() == params.flat.tobytes()
        save_params(tmp_path / "b.npz", loaded, spec, step=5)
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    @pytest.mark.parametrize("edit, message", [
        ("header-bytes", "unreadable checkpoint header"),
        ("format-version", "format version 2 unsupported"),
        ("missing-array", "missing layer 1 arrays"),
        ("header-layout", "stored arrays (5, 8, 3) do not match header (5, 4, 3)"),
    ])
    def test_refusal_names_the_fault(self, tmp_path, edit, message):
        spec = small_spec()
        path = tmp_path / "net.npz"
        save_params(path, init_params(spec), spec)
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode())
        if edit == "header-bytes":
            arrays["meta"] = np.frombuffer(b"\xff{", dtype=np.uint8)
        elif edit == "missing-array":
            del arrays["w1"]
        else:
            # the layer arrays still chain: (5, 8) and (8, 3)
            meta.update({"format-version": {"format_version": 2},
                         "header-layout": {"hidden": [4]}}[edit])
            arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(SchemaMismatch) as err:
            load_params(path)
        assert str(err.value) == f"{path}: {message}"

    def test_wrong_bias_shape_rejected(self, tmp_path):
        spec = small_spec()
        params = init_params(spec)
        save_params(tmp_path / "net.npz", params, spec)
        with np.load(tmp_path / "net.npz") as data:
            arrays = {k: data[k] for k in data.files}
        arrays["b0"] = arrays["b0"][:-1]
        np.savez(tmp_path / "net.npz", **arrays)
        with pytest.raises(SchemaMismatch):
            load_params(tmp_path / "net.npz")
