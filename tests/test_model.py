import importlib.util
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from advalstm import model
from advalstm.errors import ShapeError
from advalstm.model import (
    EVAL_ROWS,
    ModelDims,
    ParamSet,
    backward,
    classify,
    forward,
    head_forward,
    init_params,
    predict,
    softmax,
)
from advalstm.synthetic import make_regime_examples

from helpers import finite_difference_gradient, max_relative_error, wide_inputs

# The benchmark's naive per-window forward, loaded from its file so the
# oracle stays one piece of code that shares nothing with advalstm.model.
_spec = importlib.util.spec_from_file_location(
    "perfbench_reference", Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def reference_forward(x, p):
    """Independent plain-loop implementation of the whole network."""
    steps = x.shape[0]
    m = np.tanh(x @ p.w_map.T + p.b_map)
    hidden = p.w_i.shape[0]
    h_prev = np.zeros(hidden)
    c_prev = np.zeros(hidden)
    hs = []
    for t in range(steps):
        z = np.concatenate([m[t], h_prev])
        i = expit(p.w_i @ z + p.b_i)
        f = expit(p.w_f @ z + p.b_f)
        o = expit(p.w_o @ z + p.b_o)
        g = np.tanh(p.w_g @ z + p.b_g)
        c = f * c_prev + i * g
        h = o * np.tanh(c)
        hs.append(h)
        h_prev, c_prev = h, c
    hs = np.array(hs)
    logits = np.array([p.u_att @ np.tanh(p.w_att @ h + p.b_att) for h in hs])
    w = np.exp(logits - logits.max())
    w = w / w.sum()
    pooled = (w[:, None] * hs).sum(axis=0)
    e = np.concatenate([pooled, hs[-1]])
    return e, float(p.w_head @ e + p.b_head)


class TestDims:
    def test_att_size_defaults_to_hidden(self):
        dims = ModelDims(feat_dim=11, map_size=8, hidden_size=16, att_size=0)
        assert dims.att_size == 16

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ShapeError):
            ModelDims(feat_dim=0, map_size=4, hidden_size=4, att_size=4)
        with pytest.raises(ShapeError):
            ModelDims(feat_dim=11, map_size=-1, hidden_size=4, att_size=4)


class TestInit:
    def test_seed_determinism(self, small_dims):
        a = init_params(small_dims, np.random.default_rng(7))
        b = init_params(small_dims, np.random.default_rng(7))
        for (_, x), (_, y) in zip(a.items(), b.items()):
            np.testing.assert_array_equal(x, y)

    def test_forget_bias_is_one_other_biases_zero(self, small_params):
        np.testing.assert_array_equal(small_params.b_f, np.ones_like(small_params.b_f))
        for name in ("b_map", "b_i", "b_o", "b_g", "b_att"):
            np.testing.assert_array_equal(
                getattr(small_params, name), np.zeros_like(getattr(small_params, name))
            )
        assert small_params.b_head == 0.0

    def test_weight_ranges(self, small_dims):
        p = init_params(small_dims, np.random.default_rng(0))
        r = np.sqrt(6.0 / (small_dims.feat_dim + small_dims.map_size))
        assert np.all(np.abs(p.w_map) <= r)

    def test_vector_round_trip(self, small_params):
        vec = small_params.to_vector()
        again = small_params.from_vector(vec)
        np.testing.assert_array_equal(again.to_vector(), vec)
        with pytest.raises(ShapeError):
            small_params.from_vector(vec[:-1])


# Distinct sizes, so a transposed or misplaced tensor cannot pass.
LAYOUT_DIMS = ModelDims(feat_dim=11, map_size=5, hidden_size=3, att_size=2)


def reference_init(dims, rng):
    """The initializer written out tensor by tensor, drawing in field order."""

    def uniform(shape, fan_in, fan_out):
        r = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-r, r, size=shape)

    d, e, u, a = dims.feat_dim, dims.map_size, dims.hidden_size, dims.att_size
    z = e + u
    return {
        "w_map": uniform((e, d), d, e), "b_map": np.zeros(e),
        "w_i": uniform((u, z), z, u), "w_f": uniform((u, z), z, u),
        "w_o": uniform((u, z), z, u), "w_g": uniform((u, z), z, u),
        "b_i": np.zeros(u), "b_f": np.ones(u), "b_o": np.zeros(u), "b_g": np.zeros(u),
        "w_att": uniform((a, u), u, a), "b_att": np.zeros(a),
        "u_att": uniform((a,), a, 1),
        "w_head": uniform((2 * u,), 2 * u, 1), "b_head": np.zeros(()),
    }


class TestParamLayout:
    def test_init_matches_per_tensor_draws(self):
        p = init_params(LAYOUT_DIMS, np.random.default_rng(3))
        expected = reference_init(LAYOUT_DIMS, np.random.default_rng(3))
        assert [name for name, _ in p.items()] == list(expected)
        for name, a in p.items():
            assert a.shape == expected[name].shape, name
            np.testing.assert_array_equal(a, expected[name], err_msg=name)

    def test_views_tile_flat_in_field_order(self):
        p = init_params(LAYOUT_DIMS, np.random.default_rng(3))
        offset = 0
        for name, a in p.items():
            assert np.shares_memory(a, p.flat), name
            assert a.ctypes.data == p.flat.ctypes.data + p.flat.itemsize * offset, name
            offset += a.size
        assert offset == p.flat.size
        np.testing.assert_array_equal(
            p.to_vector(), np.concatenate([a.ravel() for _, a in p.items()])
        )

    def test_view_writes_reach_flat(self, small_params):
        p = small_params.copy()
        p.b_head[...] = 2.5
        p.w_map += 1.0
        assert p.flat[-1] == 2.5
        np.testing.assert_array_equal(p.flat[: p.w_map.size], small_params.w_map.ravel() + 1.0)

    @pytest.mark.parametrize("k, gate", list(enumerate("ifog")))
    def test_gate_stacks_are_the_named_gates(self, k, gate):
        p = init_params(LAYOUT_DIMS, np.random.default_rng(3))
        u, width = p.w_i.shape
        assert p.w_gates.shape == (4, u, width) and p.b_gates.shape == (4, u)
        for stack, name in ((p.w_gates, f"w_{gate}"), (p.b_gates, f"b_{gate}")):
            view = getattr(p, name)
            assert stack[k].shape == view.shape, name
            assert stack[k].ctypes.data == view.ctypes.data, name
            start = (view.ctypes.data - p.flat.ctypes.data) // p.flat.itemsize
            expected = p.to_vector()
            expected[start : start + view.size] = 7.0
            stack[k][...] = 7.0
            np.testing.assert_array_equal(p.flat, expected, err_msg=name)
            view[...] = -3.0
            expected[start : start + view.size] = -3.0
            np.testing.assert_array_equal(stack[k], np.full(view.shape, -3.0), err_msg=name)
            np.testing.assert_array_equal(p.flat, expected, err_msg=name)

    def test_copies_do_not_alias(self, small_params):
        vec = small_params.to_vector()
        assert not np.shares_memory(vec, small_params.flat)
        others = (small_params.copy(), small_params.zeros_like(), small_params.from_vector(vec))
        for other in others:
            assert not np.shares_memory(other.flat, small_params.flat)
        assert not np.shares_memory(small_params.from_vector(vec).flat, vec)


class TestSoftmax:
    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        s = softmax(rng.standard_normal((4, 7)))
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        logits = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 123.0), atol=1e-12)

    def test_constant_logits_uniform(self):
        np.testing.assert_allclose(softmax(np.full(5, 3.0)), np.full(5, 0.2), atol=1e-15)


class TestForward:
    def test_zero_params_give_zero_confidence(self, small_dims):
        p = init_params(small_dims, np.random.default_rng(0)).zeros_like()
        x = np.random.default_rng(1).standard_normal((3, 11))
        trace = forward(x, p)
        assert trace.yhat == 0.0
        np.testing.assert_array_equal(trace.e, np.zeros_like(trace.e))
        np.testing.assert_allclose(trace.att.weights, np.full(3, 1.0 / 3.0), atol=1e-15)
        assert classify(trace.yhat) == 1.0

    def test_mapping_saturates_to_one(self, small_params):
        x = np.full((2, 11), 1e6)
        trace = forward(x, small_params)
        signs = np.sign(small_params.w_map.sum(axis=1))
        np.testing.assert_allclose(trace.m[0], signs, atol=1e-9)

    def test_matches_reference_implementation(self, small_params):
        rng = np.random.default_rng(9)
        for _ in range(5):
            x = rng.standard_normal((4, 11))
            e_ref, yhat_ref = reference_forward(x, small_params)
            trace = forward(x, small_params)
            np.testing.assert_allclose(trace.e, e_ref, rtol=1e-12, atol=1e-12)
            assert trace.yhat == pytest.approx(yhat_ref, rel=1e-12, abs=1e-12)

    def test_attention_weights_sum_to_one(self, small_params):
        x = np.random.default_rng(2).standard_normal((6, 11))
        trace = forward(x, small_params)
        assert trace.att.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_step_attention_is_trivial(self, small_params):
        x = np.random.default_rng(3).standard_normal((1, 11))
        trace = forward(x, small_params)
        np.testing.assert_allclose(trace.att.weights, [1.0], atol=1e-15)
        np.testing.assert_allclose(trace.att.pooled, trace.lstm.h[0], atol=1e-15)
        np.testing.assert_allclose(
            trace.e, np.concatenate([trace.lstm.h[0], trace.lstm.h[0]]), atol=1e-15
        )

    def test_head_is_a_dot_product(self, small_dims):
        p = init_params(small_dims, np.random.default_rng(0)).zeros_like()
        e = np.array([0.5, -0.5, 1.0, 0.0, 0.25, 0.25, -1.0, 2.0])
        w = np.array([1.0, 1.0, 0.5, 3.0, 2.0, 2.0, 0.0, 0.25])
        p.w_head[...] = w
        p.b_head[...] = 0.5
        assert head_forward(e, p) == pytest.approx(float(w @ e) + 0.5)
        # 1*1 + 1*0.5 = 1.5 through the weights, plus the 0.5 bias.
        e2 = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert head_forward(e2, p) == pytest.approx(2.0, abs=1e-15)

    def test_batch_matches_per_example(self, small_params):
        x, _ = make_regime_examples(10, lag=4, seed=0)
        batched = predict(x, small_params)
        singles = np.array([predict(x[i], small_params) for i in range(10)])
        np.testing.assert_allclose(batched, singles, rtol=1e-15, atol=1e-15)

    def test_classify_tie_goes_positive(self):
        np.testing.assert_array_equal(
            classify(np.array([-0.1, 0.0, 0.1])), np.array([-1.0, 1.0, 1.0])
        )


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self, small_params):
        x = np.random.default_rng(4).standard_normal((3, 11))
        trace = forward(x, small_params)
        grads = backward(small_params, trace, np.asarray(0.0))
        assert np.all(grads.to_vector() == 0.0)

    def test_upstream_shape_checked(self, small_params):
        x = np.random.default_rng(6).standard_normal((3, 11))
        trace = forward(x, small_params)
        with pytest.raises(ShapeError):
            backward(small_params, trace, np.ones(2))

    def test_gradcheck_sum_of_confidences(self, small_params):
        rng = np.random.default_rng(11)
        for params, x, atol in [(small_params, rng.standard_normal((5, 3, 11)), 0.0),
                                *wide_inputs(rng)]:

            def total(p):
                return float(np.sum(forward(x, p).yhat))

            trace = forward(x, params)
            grads = backward(params, trace, np.ones(x.shape[:-2]))
            numeric = finite_difference_gradient(total, params)
            assert max_relative_error(grads.to_vector(), numeric, atol) < 1e-6


class TestSigmoid:
    """The in-place sigmoid against scipy's expit, the oracle."""

    def test_matches_expit(self):
        x = np.linspace(-40.0, 40.0, 160_001)
        edges = np.array([-1000.0, 1000.0, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model._sigmoid(x, np.empty_like(x))
            in_place = x.copy()
            model._sigmoid(in_place, out=in_place)
            edge = model._sigmoid(edges, np.empty_like(edges))
        assert np.max(np.abs(got - expit(x))) <= 2.3e-16
        assert in_place.tobytes() == got.tobytes()
        assert edge[0] == 0.0 and edge[1] == 1.0 and np.isnan(edge[2])


class TestForwardOracle:
    """predict agrees with the naive reference forward to 1e-12."""

    @pytest.mark.parametrize("lag", [1, 5, 15])
    def test_batch_and_single_windows(self, lag):
        params = init_params(
            ModelDims(feat_dim=11, map_size=7, hidden_size=6, att_size=5),
            np.random.default_rng(lag),
        )
        x, _ = make_regime_examples(12, lag=lag, seed=lag)
        assert reference.max_abs_error(x, params, predict(x, params)) < 1e-12
        for window in x[:4]:
            yhat = predict(window, params)
            assert yhat.shape == ()
            assert abs(reference.confidence(window, params) - float(yhat)) < 1e-12


class TestLstmTrace:
    """The cache is written once, time-major, with h batch-major."""

    def test_forward_peak_is_one_trace(self):
        params = init_params(ModelDims(feat_dim=11, map_size=16, hidden_size=16),
                             np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((4096, 5, 11))
        tracemalloc.start()
        try:
            trace = forward(x, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # trace.x is the caller's array; forward allocates everything else.
        cached = [trace.m, trace.e, trace.yhat, *vars(trace.lstm).values(),
                  *vars(trace.att).values()]
        assert peak <= 1.1 * sum(a.nbytes for a in cached)

    @pytest.mark.parametrize("shape", [(6, 5, 11), (5, 11)], ids=["batch", "window"])
    def test_step_relations_hold_bit_for_bit(self, small_params, shape):
        trace = forward(np.random.default_rng(8).standard_normal(shape), small_params)
        lt, steps = trace.lstm, shape[-2]
        lead, u = shape[:-2], small_params.w_i.shape[0]
        assert lt.z.shape == (steps, *lead, trace.m.shape[-1] + u)
        assert lt.c.shape == (steps, *lead, u)
        assert lt.gates.shape == (steps, 4, *lead, u)
        assert lt.h.shape == (*lead, steps, u)

        def same(a, b):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

        for t in range(steps):
            h_prev = lt.h[..., t - 1, :] if t else np.zeros((*lead, u))
            same(lt.z[t], np.concatenate([trace.m[..., t, :], h_prev], axis=-1))
            c_prev = lt.c[t - 1] if t else np.zeros((*lead, u))
            same(lt.c[t], lt.gates[t, 1] * c_prev + lt.gates[t, 0] * lt.gates[t, 3])
            same(lt.h[..., t, :], lt.gates[t, 2] * lt.tanh_c[t])


def random_model(lag, hidden, seed=0):
    """Params at one (lag, hidden) pair and a generator for windows of that lag."""
    params = init_params(ModelDims(feat_dim=11, map_size=hidden, hidden_size=hidden),
                         np.random.default_rng(seed))
    rng = np.random.default_rng([seed, lag, hidden])
    return params, lambda n: rng.standard_normal((n, lag, 11))


class TestBlockedScoring:
    """predict scores EVAL_ROWS windows at a time; the whole-batch forward
    is the oracle."""

    @pytest.mark.parametrize("n", [1, 7, 1024])
    def test_one_block_is_bitwise_forward(self, n):
        params, windows = random_model(lag=5, hidden=16)
        x = windows(n)
        assert predict(x, params).tobytes() == forward(x, params).yhat.tobytes()
        window = x[0]
        yhat = predict(window, params)
        assert yhat.shape == () and yhat.tobytes() == forward(window, params).yhat.tobytes()

    @pytest.mark.parametrize("n, sizes", [
        (5, [5]), (1024, [1024]), (1025, [1024, 1]), (2086, [1024, 1024, 38]),
    ])
    def test_blocks_start_at_multiples_of_eval_rows(self, monkeypatch, n, sizes):
        params, windows = random_model(lag=2, hidden=3)
        x = windows(n)
        seen, real = [], model.forward

        def recording(xb, p):
            seen.append((xb.shape[0], np.shares_memory(xb, x)))
            return real(xb, p)

        monkeypatch.setattr(model, "forward", recording)
        predict(x, params)
        assert [size for size, _ in seen] == sizes
        assert all(view for _, view in seen)  # blocks are views, not copies
        seen.clear()
        predict(x[0], params)
        assert [size for size, _ in seen] == [2]  # a single (T, D) window is not split

    @pytest.mark.parametrize("lag, hidden", [(1, 3), (5, 16), (9, 21)])
    @pytest.mark.parametrize("n", [1023, 1024, 1025, 2048, 2086, 5000])
    def test_many_blocks_match_whole_batch(self, lag, hidden, n):
        # Within 1e-14, not bit for bit: BLAS may take another kernel for a
        # short last block, which moves a confidence by a few 1e-16.
        params, windows = random_model(lag, hidden)
        x = windows(n)
        yhat = predict(x, params)
        assert yhat.shape == (n,)
        np.testing.assert_allclose(yhat, forward(x, params).yhat, rtol=0, atol=1e-14)

    def test_empty_batch(self, small_params):
        yhat = predict(np.zeros((0, 3, 11)), small_params)
        assert yhat.shape == (0,)

    def test_peak_memory_is_one_block(self):
        params, windows = random_model(lag=5, hidden=16)
        x = windows(8 * EVAL_ROWS)

        def peak(fn):
            tracemalloc.start()
            try:
                fn(x, params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(predict) < 0.25 * peak(forward)
