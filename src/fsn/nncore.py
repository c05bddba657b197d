"""Differentiable numeric primitives for the temporal heads.

Everything is plain numpy. Each operation exposes a forward pass returning
``(output, cache)`` and a matching backward pass consuming that cache; there
is no autograd graph, the model module wires layers together by hand.
Sequences are arrays laid out as (..., time, channels): any leading axes are
batch axes, and a plain (time, channels) array is the case with none. Every
op runs the whole batch at once, so a training step or a video costs one call
per layer rather than one per sample.

The ops compute in their input's dtype: float32 stays float32, as feature
files store it, and anything else becomes float64. A conv casts its float64
weights to that dtype per call, so training and scoring multiply in float32
while the weights, the loss sum and the SGD update stay float64 (Micikevicius
et al., arXiv 1710.03740); the float64 gradient checks referee the same code.

The ops check shapes and channel counts but not finiteness: scanning every
activation of every layer for NaN would cost a pass over each array per call.
The model validates its input features once, at its boundary
(``require_finite``), and the loss rejects non-finite logits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

GAP = "gap"
GMP = "gmp"


def _as_float(x) -> Array:
    """``x`` as an array of its compute dtype: float32 stays float32, anything
    else becomes float64."""
    a = np.asarray(x)
    return a if a.dtype == np.float32 else a.astype(np.float64, copy=False)


def as_seq(x) -> Array:
    """Coerce to a non-empty (..., time, channels) float32 or float64 array."""
    a = _as_float(x)
    if a.ndim < 2:
        raise ValueError(
            f"sequence must be (..., time, channels), got shape {a.shape}"
        )
    if a.size == 0:
        raise ValueError(f"sequence must be non-empty, got shape {a.shape}")
    return a


def require_finite(x: Array) -> Array:
    """Reject arrays holding NaN or infinity; returns ``x`` unchanged."""
    if not np.isfinite(x).all():
        raise ValueError("sequence contains non-finite values")
    return x


@dataclass
class ConvLayer1D:
    """One temporal convolution layer.

    ``weights`` has shape (out_channels, in_channels, kernel_size); ``bias``
    has shape (out_channels,). Stride is fixed at 1 and the kernel must be odd
    so that symmetric padding preserves the sequence length.
    """

    weights: Array
    bias: Array
    dilation: int = 1

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 3:
            raise ValueError(
                "weights must have shape (out_channels, in_channels, kernel_size), "
                f"got {self.weights.shape}"
            )
        if self.kernel_size % 2 == 0:
            raise ValueError(f"kernel size must be odd, got {self.kernel_size}")
        if self.dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")
        if self.bias.shape != (self.out_channels,):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match out_channels "
                f"{self.out_channels}"
            )

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]

    @property
    def padding(self) -> int:
        return self.dilation * (self.kernel_size - 1) // 2


def dilated_conv1d_forward(x: Array, layer: ConvLayer1D) -> tuple[Array, tuple]:
    """Stride-1 dilated temporal convolution with symmetric zero padding.

    out[..., t, o] = bias[o] + sum_{i, j} weights[o, i, j] * x_pad[..., t + j*d, i]

    where d is the dilation and the input is zero padded by d*(kernel-1)/2
    frames on each side, so the output has the same length as the input.

    The padded samples are laid end to end as one long (rows, channels)
    sequence. Each kernel tap is then a single matrix product over a
    contiguous slice of it, for the whole batch at once; the rows that would
    straddle two samples land in the padding gaps and are dropped.
    """
    x = as_seq(x)
    if x.shape[-1] != layer.in_channels:
        raise ValueError(
            f"input has {x.shape[-1]} channels, layer expects {layer.in_channels}"
        )
    length, pad, d = x.shape[-2], layer.padding, layer.dilation
    span = length + 2 * pad
    weights = layer.weights.astype(x.dtype, copy=False)
    xp = np.zeros((x.size // (length * layer.in_channels), span, layer.in_channels), x.dtype)
    xp[:, pad : pad + length] = x.reshape(-1, length, layer.in_channels)
    flat = xp.reshape(-1, layer.in_channels)
    rows = flat.shape[0] - 2 * pad
    out = np.empty((flat.shape[0], layer.out_channels), x.dtype)
    out[:rows] = layer.bias
    for j in range(layer.kernel_size):
        out[:rows] += flat[j * d : j * d + rows] @ weights[:, :, j].T
    out = out.reshape(-1, span, layer.out_channels)[:, :length]
    return out.reshape(*x.shape[:-1], layer.out_channels), (flat, x.shape, layer)


def dilated_conv1d_backward(
    grad_out: Array, cache: tuple, input_grad: bool = True
) -> tuple[Array | None, Array, Array]:
    """Gradients of a dilated conv: returns (grad_x, grad_weights, grad_bias).

    Everything is computed in the dtype of the forward's input. The weight
    and bias gradients are summed over every batch axis. With ``input_grad``
    false, grad_x is not computed and comes back as None: the first layer of
    a stack has no layer below it to pass it to.
    """
    flat, x_shape, layer = cache
    grad_out = np.asarray(grad_out, dtype=flat.dtype)
    expected = (*x_shape[:-1], layer.out_channels)
    if grad_out.shape != expected:
        raise ValueError(
            f"grad shape {grad_out.shape} does not match output {expected}"
        )
    length, pad, d = x_shape[-2], layer.padding, layer.dilation
    span = length + 2 * pad
    # gradient rows laid out like the forward output; the gap rows stay zero
    grad_flat = np.zeros((flat.shape[0] // span, span, layer.out_channels), flat.dtype)
    grad_flat[:, :length] = grad_out.reshape(-1, length, layer.out_channels)
    rows = flat.shape[0] - 2 * pad
    grad_rows = grad_flat.reshape(-1, layer.out_channels)[:rows]
    grad_b = grad_rows.sum(axis=0)
    grad_w = np.empty(layer.weights.shape, flat.dtype)
    for j in range(layer.kernel_size):
        grad_w[:, :, j] = grad_rows.T @ flat[j * d : j * d + rows]
    if not input_grad:
        return None, grad_w, grad_b
    weights = layer.weights.astype(flat.dtype, copy=False)
    grad_xp = np.zeros_like(flat)
    for j in range(layer.kernel_size):
        grad_xp[j * d : j * d + rows] += grad_rows @ weights[:, :, j]
    grad_x = grad_xp.reshape(-1, span, layer.in_channels)[:, pad : pad + length]
    return grad_x.reshape(x_shape), grad_w, grad_b


def relu(x: Array) -> tuple[Array, Array]:
    x = _as_float(x)
    return np.maximum(x, 0.0), x > 0.0


def relu_backward(grad_out: Array, cache: Array) -> Array:
    return _as_float(grad_out) * cache


def bilinear_upsample_1d(x: Array, target_len: int) -> tuple[Array, tuple]:
    """Endpoint-aligned linear interpolation from N to target_len positions.

    Output position t reads the fractional source coordinate
    s = t * (N - 1) / (target_len - 1) and blends the two bracketing inputs;
    a single input row is replicated. target_len below N is rejected
    (this is an upsampler). The time axis is the second to last.
    """
    x = as_seq(x)
    n = x.shape[-2]
    if target_len < n:
        raise ValueError(f"target length {target_len} is below input length {n}")
    if n == 1:
        return np.repeat(x, target_len, axis=-2), (None, None, n, target_len)
    s = np.arange(target_len) * (n - 1) / (target_len - 1)
    lo = np.minimum(np.floor(s).astype(np.int64), n - 2)
    alpha = (s - lo).astype(x.dtype, copy=False)[:, None]
    out = (1.0 - alpha) * x[..., lo, :] + alpha * x[..., lo + 1, :]
    return out, (lo, alpha, n, target_len)


def bilinear_upsample_1d_backward(grad_out: Array, cache: tuple) -> Array:
    # the (n, target_len) transposed blend is built here, so a forward alone
    # (scoring a video) never allocates it
    lo, alpha, n, target_len = cache
    grad_out = _as_float(grad_out)
    if grad_out.ndim < 2 or grad_out.shape[-2] != target_len:
        raise ValueError(
            f"grad shape {grad_out.shape} does not have {target_len} time steps"
        )
    if n == 1:
        blend = np.ones((1, target_len), grad_out.dtype)
    else:
        blend = np.zeros((n, target_len), grad_out.dtype)
        frames = np.arange(target_len)
        blend[lo, frames] = 1.0 - alpha[:, 0]
        blend[lo + 1, frames] += alpha[:, 0]
    return blend @ grad_out


def framewise_softmax(x: Array) -> Array:
    """Softmax over the channel (last) axis, numerically stabilized.

    Non-finite scores are rejected: they would come out as NaN rows.
    """
    x = require_finite(as_seq(x))
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _check_distribution(labels: Array) -> None:
    if not (labels >= 0.0).all():
        raise ValueError("labels must be distributions (entries >= 0)")
    if not np.all(np.abs(labels.sum(axis=-1) - 1.0) <= 1e-12):
        raise ValueError("labels must be distributions (each row sums to 1)")


def framewise_cross_entropy(logits: Array, labels: Array) -> tuple[float, Array]:
    """Softmax cross-entropy, summed over frames and averaged over the batch.

    ``logits`` are (batch, ..., classes), e.g. (batch, frames, classes) for
    dense frame labels or (batch, classes) for pooled video scores, and
    ``labels`` hold a target distribution over the last axis of each row.
    Returns the scalar loss and its exact gradient w.r.t. the logits,
    (softmax(logits) - labels) / batch.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if logits.ndim < 2:
        raise ValueError(f"logits must be (batch, ..., classes), got {logits.shape}")
    if labels.shape != logits.shape:
        raise ValueError(
            f"labels shape {labels.shape} does not match logits {logits.shape}"
        )
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits contain non-finite values")
    _check_distribution(labels)
    batch = logits.shape[0]
    z = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    log_probs = z - log_norm
    loss = float(-(labels * log_probs).sum() / batch)
    grad = (np.exp(log_probs) - labels) / batch
    return loss, grad


def temporal_pool(x: Array, mode: str) -> tuple[Array, tuple]:
    """Pool (..., positions, channels) down to one vector per channel.

    ``gap`` averages over positions; ``gmp`` takes the per-channel max, and its
    backward routes the gradient to the earliest maximizing position.
    """
    x = as_seq(x)
    if mode == GAP:
        return x.mean(axis=-2), (GAP, x.shape, None)
    if mode == GMP:
        idx = np.expand_dims(np.argmax(x, axis=-2), -2)
        return np.take_along_axis(x, idx, axis=-2)[..., 0, :], (GMP, x.shape, idx)
    raise ValueError(f"unknown pooling mode {mode!r}")


def temporal_pool_backward(grad_out: Array, cache: tuple) -> Array:
    mode, shape, idx = cache
    grad_out = _as_float(grad_out)
    expected = (*shape[:-2], shape[-1])
    if grad_out.shape != expected:
        raise ValueError(f"grad shape {grad_out.shape} does not match {expected}")
    grad_out = np.expand_dims(grad_out, -2)
    if mode == GAP:
        return np.repeat(grad_out / shape[-2], shape[-2], axis=-2)
    grad_x = np.zeros(shape, grad_out.dtype)
    np.put_along_axis(grad_x, idx, grad_out, axis=-2)
    return grad_x


@dataclass
class OptimizerState:
    """SGD hyperparameters plus one velocity buffer per parameter tensor."""

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocity: list[Array] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.learning_rate < 0.0:
            raise ValueError(f"learning rate must be >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight decay must be >= 0, got {self.weight_decay}")


def sgd_update(
    params: Sequence[Array],
    grads: Sequence[Array],
    state: OptimizerState,
    decay: Sequence[bool] | None = None,
) -> None:
    """Classical momentum step, applied to each tensor in place:

        v <- momentum * v - lr * (g + weight_decay * p)
        p <- p + v

    ``decay`` flags which tensors receive weight decay; biases opt out by
    passing False. Velocity buffers are created lazily on first use.
    """
    if len(params) != len(grads):
        raise ValueError(f"{len(params)} params but {len(grads)} grads")
    if decay is None:
        decay = [True] * len(params)
    if len(decay) != len(params):
        raise ValueError("decay flags must match params")
    if not state.velocity:
        state.velocity = [np.zeros_like(p) for p in params]
    if len(state.velocity) != len(params):
        raise ValueError("optimizer state was built for a different parameter list")
    for p, g, v, use_decay in zip(params, grads, state.velocity, decay):
        g = np.asarray(g, dtype=np.float64)
        if p.shape != g.shape or p.shape != v.shape:
            raise ValueError(
                f"shape mismatch: param {p.shape}, grad {g.shape}, velocity {v.shape}"
            )
        effective = g + state.weight_decay * p if use_decay else g
        v *= state.momentum
        v -= state.learning_rate * effective
        p += v


LossFn = Callable[[Sequence[Array]], tuple[float, Sequence[Array]]]


def gradient_check(
    fn: LossFn,
    params: Sequence[Array],
    step: float = 1e-4,
) -> float:
    """The max relative error of ``fn``'s analytic gradients against central
    finite differences.

    ``fn(params) -> (loss, grads)`` must be deterministic and must read the
    parameter arrays afresh on every call; the checker perturbs them in place
    (and restores them). The relative error for each tensor is

        ||g_analytic - g_numeric|| / max(||g_analytic|| + ||g_numeric||, 1e-12)

    and the result is the max over tensors (NaN if any is NaN); callers judge
    it against their own tolerance.
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    loss, grads = fn(params)
    if not np.isfinite(loss):
        raise ValueError("loss is not finite")
    if len(grads) != len(params):
        raise ValueError(f"fn returned {len(grads)} grads for {len(params)} params")
    analytic = [np.array(g, dtype=np.float64, copy=True) for g in grads]
    errors: list[float] = []
    for p, g in zip(params, analytic):
        if p.shape != g.shape:
            raise ValueError(f"grad shape {g.shape} does not match param {p.shape}")
        numeric = np.zeros_like(p)
        flat = p.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            plus, _ = fn(params)
            flat[i] = saved - step
            minus, _ = fn(params)
            flat[i] = saved
            num_flat[i] = (plus - minus) / (2.0 * step)
        denom = max(np.linalg.norm(g) + np.linalg.norm(numeric), 1e-12)
        errors.append(float(np.linalg.norm(g - numeric) / denom))
    # np.max, unlike max(), lets a NaN error through to fail the caller's check
    return float(np.max(errors))
