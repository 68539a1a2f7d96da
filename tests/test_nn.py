import numpy as np
import pytest

from twkit.errors import TrainingDiverged
from twkit.nn import (
    ADAM_LEARNING_RATE,
    MLP,
    AdamState,
    _apply_output,
    _output_grad_to_pre,
    _sigmoid,
    _softmax,
    adam_step,
    backward,
    binary_cross_entropy,
    forward,
    init_mlp,
    iter_batches,
    mse,
    softmax_cross_entropy,
)


class TestInit:
    def test_shapes(self):
        net = init_mlp((4, 8, 1), seed=0)
        assert net.weights[0].shape == (4, 8)
        assert net.weights[1].shape == (8, 1)
        assert net.biases[0].shape == (8,)
        assert net.biases[1].shape == (1,)

    def test_deterministic(self):
        a = init_mlp((5, 6, 2), seed=3)
        b = init_mlp((5, 6, 2), seed=3)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_xavier_bound(self):
        net = init_mlp((10, 20, 3), seed=1)
        for w in net.weights:
            fan_in, fan_out = w.shape
            assert np.abs(w).max() <= np.sqrt(6.0 / (fan_in + fan_out))

    def test_zero_biases(self):
        net = init_mlp((3, 3), seed=2)
        assert (net.biases[0] == 0).all()

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            init_mlp((4,), seed=0)
        with pytest.raises(ValueError):
            init_mlp((4, 0, 2), seed=0)


class TestFlatLayout:
    """Weights, biases, gradients and Adam moments share one flat layout."""

    @staticmethod
    def _nets():
        rng = np.random.default_rng(6)
        weights = [rng.normal(size=(3, 5)), rng.normal(size=(5, 2))]
        biases = [rng.normal(size=5), rng.normal(size=2)]
        direct = MLP(weights=weights, biases=biases)
        for given, view in zip(weights + biases, direct.weights + direct.biases, strict=True):
            assert np.array_equal(view, given) and not np.shares_memory(view, given)
        return [init_mlp((4, 6, 5, 3), seed=0), direct]

    def test_weights_and_biases_are_views_into_params(self):
        for net in self._nets():
            assert net.params.dtype == np.float64
            assert net.params.size == sum(a.size for a in net.weights + net.biases)
            for array in net.weights + net.biases:
                assert np.shares_memory(array, net.params)
            net.params[:] = np.arange(net.params.size)
            expected = np.concatenate([a for pair in zip(net.weights, net.biases) for a in pair], axis=None)
            assert np.array_equal(expected, np.arange(net.params.size))

    def test_backward_returns_one_flat_gradient(self):
        for net in self._nets():
            X = np.random.default_rng(1).normal(size=(7, net.layer_sizes[0]))
            out, cache = forward(net, X)
            grads, _ = backward(net, cache, np.ones_like(out), inputs=False)
            assert grads.shape == (net.params.size,) and grads.dtype == np.float64
            assert not np.shares_memory(grads, net.params)

    def test_adam_step_moves_each_view_as_it_moves_params(self):
        for net in self._nets():
            before = net.params.copy()
            views_before = [a.copy() for a in net.weights + net.biases]
            state = AdamState.for_mlp(net)
            adam_step(net, np.random.default_rng(2).normal(size=net.params.size), state)
            moved = net.params - before
            moved_weights, moved_biases = net.layers(moved)
            for view, old, delta in zip(net.weights + net.biases, views_before,
                                        moved_weights + moved_biases, strict=True):
                assert np.array_equal(view - old, delta)
            assert (moved != 0).all()


class TestForward:
    def test_zero_net_sigmoid(self):
        net = init_mlp((3, 4, 2), seed=0)
        for w in net.weights:
            w[:] = 0.0
        out, _ = forward(net, np.random.default_rng(0).normal(size=(5, 3)))
        np.testing.assert_allclose(out, 0.5)

    def test_identity_single_layer(self):
        net = MLP(weights=[np.eye(3)], biases=[np.zeros(3)], output_activation="identity")
        x = np.random.default_rng(1).normal(size=(4, 3))
        out, _ = forward(net, x)
        np.testing.assert_allclose(out, x)

    def test_uniform_softmax_block(self):
        net = MLP(
            weights=[np.zeros((2, 3))],
            biases=[np.zeros(3)],
            output_activation="softmax_blocks",
            output_blocks=((0, 3),),
        )
        out, _ = forward(net, np.ones((2, 2)))
        np.testing.assert_allclose(out, 1.0 / 3.0)

    def test_width_mismatch(self):
        net = init_mlp((3, 2), seed=0)
        with pytest.raises(ValueError):
            forward(net, np.zeros((1, 4)))


def _loss_for(net, X, target, kind, mask=None):
    out, cache = forward(net, X)
    if kind == "mse":
        loss, grad = mse(out, target, mask)
    elif kind == "bce":
        loss, grad = binary_cross_entropy(out, target, mask)
    else:
        loss, grad = softmax_cross_entropy(out, target)
    return loss, grad, cache


def _finite_diff(net, X, target, kind, mask, eps=1e-5):
    params = net.params
    fd = np.zeros_like(params)
    for idx in range(params.size):
        orig = params[idx]
        params[idx] = orig + eps
        lp = _loss_for(net, X, target, kind, mask)[0]
        params[idx] = orig - eps
        lm = _loss_for(net, X, target, kind, mask)[0]
        params[idx] = orig
        fd[idx] = (lp - lm) / (2 * eps)
    return fd


def _max_rel_error(analytic, numeric):
    return float((np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)).max())


GRADCHECK_CONFIGS = []
_rng = np.random.default_rng(2024)
for i in range(20):
    depth = int(_rng.integers(2, 4))
    sizes = tuple(int(_rng.integers(2, 8)) for _ in range(depth + 1))
    hidden = "relu" if i % 2 == 0 else "tanh"
    output, kind = [("sigmoid", "bce"), ("identity", "mse"), ("identity", "sce"),
                    ("sigmoid", "mse"), ("softmax_blocks", "mse")][i % 5]
    GRADCHECK_CONFIGS.append((i, sizes, hidden, output, kind))


@pytest.mark.parametrize("i,sizes,hidden,output,kind", GRADCHECK_CONFIGS)
def test_gradcheck_against_finite_differences(i, sizes, hidden, output, kind):
    rng = np.random.default_rng(100 + i)
    blocks = ()
    if output == "softmax_blocks":
        stop = min(3, sizes[-1])
        blocks = ((0, stop),)
    net = init_mlp(sizes, seed=i, hidden_activation=hidden, output_activation=output,
                   output_blocks=blocks)
    for b in net.biases:
        b += rng.normal(0.0, 0.1, size=b.shape)  # generic point, off the relu kinks
    X = rng.normal(size=(6, sizes[0]))
    if kind == "sce":
        target = rng.integers(0, sizes[-1], size=6)
        mask = None
    else:
        target = rng.uniform(0.2, 0.8, size=(6, sizes[-1]))
        mask = (rng.random((6, sizes[-1])) < 0.7).astype(float) if kind == "mse" else None
    loss, grad_out, cache = _loss_for(net, X, target, kind, mask)
    analytic, _ = backward(net, cache, grad_out)
    numeric = _finite_diff(net, X, target, kind, mask)
    assert _max_rel_error(analytic, numeric) < 1e-4


def test_input_gradient_matches_finite_differences():
    # the generator-through-discriminator chain depends on exact input grads
    rng = np.random.default_rng(7)
    net = init_mlp((5, 6, 4), seed=9, output_activation="sigmoid")
    X = rng.normal(size=(3, 5))
    target = rng.uniform(0.2, 0.8, size=(3, 4))
    _, grad_out, cache = _loss_for(net, X, target, "bce", None)
    _, input_grad = backward(net, cache, grad_out)
    eps = 1e-5
    fd = np.zeros_like(X)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            orig = X[i, j]
            Xp = X.copy(); Xp[i, j] = orig + eps
            Xm = X.copy(); Xm[i, j] = orig - eps
            lp = _loss_for(net, Xp, target, "bce", None)[0]
            lm = _loss_for(net, Xm, target, "bce", None)[0]
            fd[i, j] = (lp - lm) / (2 * eps)
    rel = np.abs(input_grad - fd) / np.maximum(np.abs(input_grad) + np.abs(fd), 1e-6)
    assert rel.max() < 1e-4


def test_zero_output_gradient_gives_zero_grads():
    net = init_mlp((4, 5, 2), seed=0)
    out, cache = forward(net, np.random.default_rng(0).normal(size=(3, 4)))
    grads, input_grad = backward(net, cache, np.zeros_like(out))
    assert grads.shape == net.params.shape and (grads == 0).all()
    assert (input_grad == 0).all()


def test_gradient_linearity():
    net = init_mlp((4, 5, 3), seed=1, output_activation="identity")
    X = np.random.default_rng(2).normal(size=(5, 4))
    y = np.random.default_rng(3).normal(size=(5, 3))
    out, cache = forward(net, X)
    _, g = mse(out, y, np.ones_like(out))
    grads1, _ = backward(net, cache, g)
    grads2, _ = backward(net, cache, 2.0 * g)
    np.testing.assert_allclose(grads2, 2.0 * grads1, rtol=1e-12)


# -- references: the masked sigmoid, the all-columns sigmoid output and the
# per-array Adam update that the engine replaced; each replacement must match
# them bit for bit.


def _reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_apply_output(mlp, z):
    if mlp.output_activation == "identity":
        return z
    if mlp.output_activation == "sigmoid":
        return _reference_sigmoid(z)
    out = _reference_sigmoid(z)
    for start, stop in mlp.output_blocks:
        out[:, start:stop] = _softmax(z[:, start:stop])
    return out


def _reference_output_grad_to_pre(mlp, grad_out, out):
    if mlp.output_activation == "identity":
        return grad_out
    dz = grad_out * out * (1.0 - out)
    for start, stop in mlp.output_blocks:
        s = out[:, start:stop]
        g = grad_out[:, start:stop]
        dz[:, start:stop] = s * (g - (g * s).sum(axis=1, keepdims=True))
    return dz


def _reference_forward(mlp, batch):
    activations, pre, a = [batch], [], batch
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = a @ w + b
        pre.append(z)
        if i < len(mlp.weights) - 1:
            a = np.maximum(z, 0.0) if mlp.hidden_activation == "relu" else np.tanh(z)
        else:
            a = _reference_apply_output(mlp, z)
        activations.append(a)
    return a, {"pre": pre, "post": activations}


def _reference_backward(mlp, cache, output_gradient):
    pre, post = cache["pre"], cache["post"]
    grads = [None] * len(mlp.weights)
    dz = _reference_output_grad_to_pre(mlp, output_gradient, post[-1])
    for i in range(len(mlp.weights) - 1, -1, -1):
        grads[i] = (post[i].T @ dz, dz.sum(axis=0))
        da_prev = dz @ mlp.weights[i].T
        if i > 0:
            if mlp.hidden_activation == "relu":
                dz = da_prev * (pre[i - 1] > 0)
            else:
                dz = da_prev * (1.0 - post[i] ** 2)
    return grads, da_prev


def _reference_adam_step(weights, biases, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    step += 1
    correction1 = 1.0 - beta1**step
    correction2 = 1.0 - beta2**step
    for i, (dw, db) in enumerate(grads):
        for j, grad in enumerate((dw, db)):
            mi, vi = m[i][j], v[i][j]
            mi *= beta1
            mi += (1.0 - beta1) * grad
            vi *= beta2
            vi += (1.0 - beta2) * grad**2
            m_hat = mi / correction1
            v_hat = vi / correction2
            target = weights[i] if j == 0 else biases[i]
            target -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return step


def test_sigmoid_matches_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    z = np.concatenate([
        np.array([0.0, -0.0, 800.0, -800.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300]),
        rng.normal(0.0, 5.0, size=500),
        rng.normal(0.0, 40.0, size=500),
    ])
    for values in (z, z[:-1].reshape(-1, 9)[:, ::2]):
        assert np.array_equal(_sigmoid(values), _reference_sigmoid(values), equal_nan=True)


# 7 outputs: ((0, 2), (3, 6)) leaves sigmoid column 2 between two blocks and
# column 6 after the last; ((0, 2), (4, 6)) leaves two columns between them
EXACT_OUTPUTS = [
    ("sigmoid", ()),
    ("identity", ()),
    ("softmax_blocks", ((0, 2), (3, 6))),
    ("softmax_blocks", ((0, 2), (4, 6))),
    ("softmax_blocks", ((1, 4),)),
    ("softmax_blocks", ((0, 7),)),
]


@pytest.mark.parametrize("hidden", ["relu", "tanh"])
@pytest.mark.parametrize("output,blocks", EXACT_OUTPUTS)
def test_forward_and_backward_match_reference_bit_for_bit(hidden, output, blocks):
    rng = np.random.default_rng(5)
    net = init_mlp((5, 9, 8, 7), seed=4, hidden_activation=hidden, output_activation=output,
                   output_blocks=blocks)
    for b in net.biases:
        b += rng.normal(0.0, 0.5, size=b.shape)
    X = rng.normal(0.0, 3.0, size=(13, 5))
    out, cache = forward(net, X)
    ref_out, ref_cache = _reference_forward(net, X)
    assert np.array_equal(out, ref_out)
    assert np.array_equal(_apply_output(net, cache["pre"][-1]),
                          _reference_apply_output(net, cache["pre"][-1]))
    grad_out = rng.normal(size=out.shape)
    assert np.array_equal(_output_grad_to_pre(net, grad_out, out),
                          _reference_output_grad_to_pre(net, grad_out, out))

    grads, d_input = backward(net, cache, grad_out)
    ref_grads, ref_d_input = _reference_backward(net, ref_cache, grad_out)
    assert np.array_equal(d_input, ref_d_input)
    for dw, db, (rw, rb) in zip(*net.layers(grads), ref_grads, strict=True):
        assert np.array_equal(dw, rw) and np.array_equal(db, rb)

    no_params, input_only = backward(net, cache, grad_out, params=False)
    assert no_params is None and np.array_equal(input_only, d_input)
    params_only, no_input = backward(net, cache, grad_out, inputs=False)
    assert no_input is None and np.array_equal(params_only, grads)


def test_adam_matches_per_array_reference_at_cgan_generator_shape():
    rng = np.random.default_rng(3)
    net = init_mlp((39, 128, 128, 43), seed=1, hidden_activation="tanh")
    ref_w = [w.copy() for w in net.weights]
    ref_b = [b.copy() for b in net.biases]
    ref_m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(ref_w, ref_b)]
    ref_v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(ref_w, ref_b)]
    ref_step = 0
    state = AdamState.for_mlp(net)
    for _ in range(50):
        grads = [(rng.normal(0.0, 0.1, size=w.shape), rng.normal(0.0, 0.1, size=b.shape))
                 for w, b in zip(net.weights, net.biases)]
        adam_step(net, np.concatenate([g for pair in grads for g in pair], axis=None), state)
        ref_step = _reference_adam_step(ref_w, ref_b, grads, ref_m, ref_v, ref_step, lr=ADAM_LEARNING_RATE)
    assert state.step == ref_step == 50
    for w, b, rw, rb in zip(net.weights, net.biases, ref_w, ref_b):
        assert np.array_equal(w, rw) and np.array_equal(b, rb)


class TestAdam:
    def test_descent_direction(self):
        net = init_mlp((2, 1), seed=0)
        net.weights[0][:] = 1.0
        state = AdamState.for_mlp(net)
        grads = np.full(net.params.size, 0.5)
        for _ in range(50):
            adam_step(net, grads, state)
        assert (net.weights[0] < 1.0).all()
        assert (net.biases[0] < 0.0).all()

    def test_zero_gradient_no_move(self):
        net = init_mlp((3, 2), seed=1)
        before = [w.copy() for w in net.weights]
        state = AdamState.for_mlp(net)
        adam_step(net, np.zeros(net.params.size), state)
        for w, b in zip(net.weights, before):
            np.testing.assert_array_equal(w, b)
        assert state.step == 1

    def test_first_step_magnitude(self):
        net = init_mlp((2, 2), seed=2)
        before = net.weights[0].copy()
        state = AdamState.for_mlp(net)
        g = np.array([[0.3, -0.7], [1.4, -0.01]])
        adam_step(net, np.concatenate([g.ravel(), np.zeros(2)]), state)
        step = net.weights[0] - before
        np.testing.assert_allclose(step, -ADAM_LEARNING_RATE * np.sign(g), rtol=1e-6)

    def test_non_finite_gradient_raises(self):
        net = init_mlp((2, 2), seed=3)
        state = AdamState.for_mlp(net)
        bad = np.zeros(net.params.size)
        bad[0] = np.nan
        with pytest.raises(TrainingDiverged):
            adam_step(net, bad, state)

        # a NaN only in the last layer's bias gradient: nothing may change
        net = init_mlp((3, 4, 2), seed=4)
        state = AdamState.for_mlp(net)
        adam_step(net, np.ones(net.params.size), state)
        params = net.params.copy()
        m, v = state.m.copy(), state.v.copy()
        bad = np.ones(net.params.size)
        net.layers(bad)[1][-1][1] = np.nan
        with pytest.raises(TrainingDiverged):
            adam_step(net, bad, state)
        assert state.step == 1
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
        assert np.array_equal(net.params, params)


class TestLosses:
    def test_bce_closed_form(self):
        loss, _ = binary_cross_entropy(np.array([[0.5]]), np.array([[1.0]]))
        assert loss == pytest.approx(np.log(2.0), rel=1e-9)

    def test_mse_identical_is_zero(self):
        x = np.random.default_rng(0).normal(size=(4, 3))
        loss, grad = mse(x, x, np.ones_like(x))
        assert loss == 0.0
        assert (grad == 0).all()

    def test_masked_mse_semantics(self):
        x = np.array([[1.0, 0.0]])
        y = np.array([[0.0, 0.0]])
        loss, _ = mse(x, y, mask=np.array([[0.0, 1.0]]))
        assert loss == 0.0

    def test_empty_mask_no_gradient(self):
        p = np.array([[0.7, 0.2]])
        y = np.array([[1.0, 0.0]])
        loss, grad = binary_cross_entropy(p, y, mask=np.zeros_like(p))
        assert loss == 0.0
        assert (grad == 0).all()

    def test_softmax_ce_uniform(self):
        logits = np.zeros((2, 3))
        loss, grad = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss == pytest.approx(np.log(3.0), rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((2, 3)), np.ones((2, 2)))


def test_iter_batches_covers_everything_with_remainder():
    rng = np.random.default_rng(0)
    batches = list(iter_batches(10, 4, rng))
    assert [len(b) for b in batches] == [4, 4, 2]
    assert sorted(np.concatenate(batches).tolist()) == list(range(10))

