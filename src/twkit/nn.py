"""Minimal dense feed-forward engine with analytic gradients and Adam.

Everything is plain numpy. A network keeps its weights and biases in one
flat float64 array, `MLP.params`, laid out as `MLP.layers` reads it; the
per-layer `weights` and `biases` are views into it, and the parameter
gradient of `backward` and the Adam moments share the layout. `backward` also
returns the gradient with respect to the network input, so one network can
be chained through another (generator through discriminator).
`backward(..., params=False)` skips the parameter gradient and `inputs=False`
the input gradient; the skipped part comes back as None. Output activations:

- "sigmoid"        elementwise logistic
- "identity"       raw affine output
- "softmax_blocks" independent softmax over each (start, stop) span in
                   `output_blocks`; columns outside every span get a sigmoid
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TrainingDiverged

EPS = 1e-7  # probability clamp before any log
ADAM_LEARNING_RATE = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class MLP:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_activation: str = "relu"
    output_activation: str = "sigmoid"
    output_blocks: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        given = self.weights + self.biases
        self.params = np.empty(sum(a.size for a in given))
        self.weights, self.biases = self.layers(self.params)
        for view, array in zip(self.weights + self.biases, given):
            view[...] = array

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    def layers(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """(weights, biases) as views into `flat`, laid out W0, b0, W1, b1, ... in C order."""
        sizes = self.layer_sizes
        weights, biases, offset = [], [], 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            stop = offset + fan_in * fan_out
            weights.append(flat[offset:stop].reshape(fan_in, fan_out))
            biases.append(flat[stop : stop + fan_out])
            offset = stop + fan_out
        return weights, biases


def init_mlp(
    layer_sizes,
    seed: int,
    hidden_activation: str = "relu",
    output_activation: str = "sigmoid",
    output_blocks: tuple[tuple[int, int], ...] = (),
) -> MLP:
    """Xavier-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    sizes = list(layer_sizes)
    if len(sizes) < 2 or any(s <= 0 for s in sizes):
        raise ValueError(f"need >=2 positive layer sizes, got {sizes}")
    if hidden_activation not in ("relu", "tanh"):
        raise ValueError(f"unknown hidden activation {hidden_activation!r}")
    if output_activation not in ("sigmoid", "identity", "softmax_blocks"):
        raise ValueError(f"unknown output activation {output_activation!r}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MLP(weights, biases, hidden_activation, output_activation, tuple(output_blocks))


def _sigmoid(z):
    # exp of a non-positive number only, so neither branch overflows
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _apply_output(mlp: MLP, z: np.ndarray) -> np.ndarray:
    if mlp.output_activation == "identity":
        return z
    out = _sigmoid(z)
    if mlp.output_activation == "sigmoid":
        return out
    for start, stop in mlp.output_blocks:
        out[:, start:stop] = _softmax(z[:, start:stop])
    return out


def forward(mlp: MLP, batch: np.ndarray):
    """Return (output, cache); the cache feeds `backward`."""
    if batch.shape[1] != mlp.weights[0].shape[0]:
        raise ValueError(
            f"batch width {batch.shape[1]} does not match input size {mlp.weights[0].shape[0]}"
        )
    activations = [batch]
    pre = []
    a = batch
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = a @ w + b
        pre.append(z)
        if i < last:
            a = np.maximum(z, 0.0) if mlp.hidden_activation == "relu" else np.tanh(z)
        else:
            a = _apply_output(mlp, z)
        activations.append(a)
    return a, {"pre": pre, "post": activations}


def _output_grad_to_pre(mlp: MLP, grad_out: np.ndarray, out: np.ndarray) -> np.ndarray:
    if mlp.output_activation == "identity":
        return grad_out
    dz = grad_out * out * (1.0 - out)
    if mlp.output_activation == "sigmoid":
        return dz
    for start, stop in mlp.output_blocks:
        s = out[:, start:stop]
        g = grad_out[:, start:stop]
        dz[:, start:stop] = s * (g - (g * s).sum(axis=1, keepdims=True))
    return dz


def backward(mlp: MLP, cache, output_gradient: np.ndarray, *, params: bool = True, inputs: bool = True):
    """Exact reverse-mode gradients: (d_params, d_input), where d_params is a
    new flat array laid out like `mlp.params`.

    `params=False` skips the parameter gradient and `inputs=False` the input
    gradient; a skipped part is returned as None."""
    pre, post = cache["pre"], cache["post"]
    out = post[-1]
    if output_gradient.shape != out.shape:
        raise ValueError(f"gradient shape {output_gradient.shape} != output shape {out.shape}")
    grads = np.empty_like(mlp.params) if params else None
    d_weights, d_biases = mlp.layers(grads) if params else (None, None)
    d_input = None
    dz = _output_grad_to_pre(mlp, output_gradient, out)
    for i in range(len(mlp.weights) - 1, -1, -1):
        if params:
            np.matmul(post[i].T, dz, out=d_weights[i])
            dz.sum(axis=0, out=d_biases[i])
        if i > 0:
            da_prev = dz @ mlp.weights[i].T
            if mlp.hidden_activation == "relu":
                dz = da_prev * (pre[i - 1] > 0)
            else:
                dz = da_prev * (1.0 - post[i] ** 2)
        elif inputs:
            d_input = dz @ mlp.weights[0].T
    return grads, d_input


@dataclass
class AdamState:
    """Adam moments for one MLP, each laid out like its `params`."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    def __post_init__(self):
        # scratch buffers, so that a step allocates no parameter-sized array
        self._update = np.empty_like(self.m)
        self._denom = np.empty_like(self.m)

    @classmethod
    def for_mlp(cls, mlp: MLP) -> "AdamState":
        return cls(m=np.zeros_like(mlp.params), v=np.zeros_like(mlp.params))


def adam_step(mlp: MLP, grad: np.ndarray, state: AdamState) -> None:
    """Bias-corrected Adam update of `mlp.params` in place, by a `grad` laid out like it.

    A non-finite gradient raises before any weight or moment changes."""
    if not np.isfinite(grad).all():
        raise TrainingDiverged("non-finite gradient in adam_step")
    state.step += 1
    t = state.step
    m, v, update, denom = state.m, state.v, state._update, state._denom
    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=update)
    m += update
    v *= ADAM_BETA2
    np.square(grad, out=update)
    update *= 1.0 - ADAM_BETA2
    v += update
    # lr * m_hat / (sqrt(v_hat) + eps), in that order
    np.divide(m, 1.0 - ADAM_BETA1**t, out=update)
    update *= ADAM_LEARNING_RATE
    np.divide(v, 1.0 - ADAM_BETA2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update /= denom
    mlp.params -= update


# -- losses: each returns (mean-reduced scalar, gradient wrt first argument) --


def binary_cross_entropy(p: np.ndarray, y: np.ndarray, mask: np.ndarray | None = None):
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {y.shape}")
    pc = np.clip(p, EPS, 1.0 - EPS)
    if mask is None:
        mask = np.ones_like(pc)
    count = float(mask.sum())
    if count == 0:
        return 0.0, np.zeros_like(pc)
    loss = -float((mask * (y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))).sum() / count)
    grad = mask * (pc - y) / (pc * (1.0 - pc)) / count
    return loss, grad


def mse(x: np.ndarray, y: np.ndarray, mask: np.ndarray):
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    count = float(mask.sum())
    if count == 0:
        return 0.0, np.zeros_like(x)
    diff = mask * (x - y)
    return float((diff**2).sum() / count), 2.0 * diff / count


def one_hot(indices: np.ndarray, k: int) -> np.ndarray:
    """(n, k) float64 rows holding 1.0 at each row's index and 0.0 elsewhere."""
    out = np.zeros((len(indices), k))
    out[np.arange(len(indices)), indices] = 1.0
    return out


def softmax_cross_entropy(logits: np.ndarray, y: np.ndarray):
    """`y` is integer class indices; gradient is wrt logits."""
    probs = _softmax(logits)
    n = logits.shape[0]
    onehot = one_hot(y, probs.shape[1])
    loss = -float((onehot * np.log(np.clip(probs, EPS, 1.0))).sum() / n)
    return loss, (probs - onehot) / n


def iter_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Seeded shuffle each epoch; the remainder batch is kept, not dropped."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]

