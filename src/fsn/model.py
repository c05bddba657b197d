"""The temporal head, its training steps, and serialization.

There is one head type, ``Head``: a trunk of dilated temporal convs with ReLU
(possibly empty) followed by a conv classifier. What differs between the
paper's models is configuration, not code:

* FSN (``init_fsn``): three dilated convs, then a kernel-3 classifier
  emitting K action channels plus background. ``pooling`` is None: snippet
  scores are bilinearly upsampled to frame rate and trained with dense
  framewise cross-entropy.
* WFSN (``init_wfsn``): the same trunk, but the classifier emits K channels
  and ``pooling`` (mean or max) reduces them to one video-level score vector
  for weakly supervised training. Prediction drops the pooling.
* The no-context ablation (``init_ablation``): an empty trunk and a kernel-1
  classifier, trained and scored like FSN.

Every forward and backward function is rank-polymorphic over
(..., positions, channels), like the ``nncore`` ops beneath it. Both loss
functions take one stacked batch, (batch, positions, feature_dim) features
plus a targets array: dense (batch, clip_len) frame labels for the dense head,
(batch, K) multi-hot video labels for a pooled one. ``localize.slide_predict``
stacks every window of a video the same way, so each layer runs once per step
or per video. Input features are checked for NaN and infinity once, here at
the model boundary, and not again inside the layers.

The layers compute in the features' dtype (``nncore.as_seq``): float32 from
feature files, float64 in the gradient checks. Parameters live in the layers
as float64 numpy arrays; the loss sum stays float64, and updates mutate the
parameters in place through ``nncore.sgd_update``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nncore import (
    Array,
    ConvLayer1D,
    GAP,
    GMP,
    OptimizerState,
    as_seq,
    bilinear_upsample_1d,
    bilinear_upsample_1d_backward,
    dilated_conv1d_backward,
    dilated_conv1d_forward,
    framewise_cross_entropy,
    framewise_softmax,
    relu,
    relu_backward,
    require_finite,
    sgd_update,
    temporal_pool,
    temporal_pool_backward,
)


@dataclass
class ModelConfig:
    """Shared architecture hyperparameters.

    ``clip_len`` is the frame length of one training window and must be a
    multiple of ``snippet_len``; the trunk sees clip_len / snippet_len snippet
    positions and emits one score vector per position.
    """

    num_classes: int
    feature_dim: int
    hidden_channels: int = 256
    snippet_len: int = 5
    clip_len: int = 35
    dilations: tuple[int, ...] = (1, 2, 4)

    def __post_init__(self) -> None:
        self.dilations = tuple(int(d) for d in self.dilations)
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.hidden_channels < 1:
            raise ValueError(f"hidden_channels must be >= 1, got {self.hidden_channels}")
        if self.snippet_len < 1:
            raise ValueError(f"snippet_len must be >= 1, got {self.snippet_len}")
        if self.clip_len < self.snippet_len or self.clip_len % self.snippet_len != 0:
            raise ValueError(
                f"clip_len {self.clip_len} must be a positive multiple of "
                f"snippet_len {self.snippet_len}"
            )
        if not self.dilations or any(d < 1 for d in self.dilations):
            raise ValueError(f"dilations must be positive, got {self.dilations}")

    @property
    def snippets_per_clip(self) -> int:
        return self.clip_len // self.snippet_len


@dataclass
class Head:
    """Dilated conv trunk (possibly empty) plus a conv classifier.

    ``pooling=None`` is the dense head: its classifier emits background plus
    K action channels per position. A pooled head (GAP or GMP) emits K
    channels and is trained on their pooled video-level scores.
    """

    config: ModelConfig
    convs: list[ConvLayer1D]
    classifier: ConvLayer1D
    pooling: str | None = None

    def __post_init__(self) -> None:
        if self.pooling not in (None, GAP, GMP):
            raise ValueError(f"pooling must be '{GAP}' or '{GMP}', got {self.pooling!r}")
        if self.classifier.out_channels != self.num_outputs:
            raise ValueError(
                f"classifier emits {self.classifier.out_channels} channels, "
                f"head needs {self.num_outputs}"
            )

    @property
    def includes_background(self) -> bool:
        return self.pooling is None

    @property
    def num_outputs(self) -> int:
        return self.config.num_classes + self.includes_background


def head_layers(head: Head) -> list[ConvLayer1D]:
    return [*head.convs, head.classifier]


def head_parameters(head: Head) -> list[Array]:
    params: list[Array] = []
    for layer in head_layers(head):
        params.extend((layer.weights, layer.bias))
    return params


def head_decay_flags(head: Head) -> list[bool]:
    """Weight decay applies to conv weights only, never to biases."""
    return [True, False] * len(head_layers(head))


def _glorot_conv(rng, in_ch: int, out_ch: int, kernel: int, dilation: int) -> ConvLayer1D:
    fan_in = in_ch * kernel
    fan_out = out_ch * kernel
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    weights = rng.uniform(-limit, limit, size=(out_ch, in_ch, kernel))
    return ConvLayer1D(weights=weights, bias=np.zeros(out_ch), dilation=dilation)


def _init_trunk(rng, config: ModelConfig) -> list[ConvLayer1D]:
    convs = []
    in_ch = config.feature_dim
    for dilation in config.dilations:
        convs.append(_glorot_conv(rng, in_ch, config.hidden_channels, 3, dilation))
        in_ch = config.hidden_channels
    return convs


def init_fsn(config: ModelConfig, seed: int) -> Head:
    rng = np.random.default_rng(seed)
    convs = _init_trunk(rng, config)
    classifier = _glorot_conv(rng, config.hidden_channels, config.num_classes + 1, 3, 1)
    return Head(config, convs, classifier)


def init_wfsn(config: ModelConfig, seed: int, pooling: str = GMP) -> Head:
    rng = np.random.default_rng(seed)
    convs = _init_trunk(rng, config)
    classifier = _glorot_conv(rng, config.hidden_channels, config.num_classes, 3, 1)
    return Head(config, convs, classifier, pooling)


def init_ablation(config: ModelConfig, seed: int) -> Head:
    rng = np.random.default_rng(seed)
    classifier = _glorot_conv(rng, config.feature_dim, config.num_classes + 1, 1, 1)
    return Head(config, [], classifier)


def _stack_forward(features: Array, head: Head) -> tuple[Array, tuple]:
    """Per-position class logits from snippet descriptors.

    ``features`` is (..., positions, feature_dim); this is where the model
    rejects non-finite input, once for the whole batch.
    """
    x = require_finite(as_seq(features))
    if x.shape[-1] != head.config.feature_dim:
        raise ValueError(
            f"features have dim {x.shape[-1]}, head expects {head.config.feature_dim}"
        )
    caches = []
    h = x
    for conv in head.convs:
        h, conv_cache = dilated_conv1d_forward(h, conv)
        h, relu_cache = relu(h)
        caches.append((conv_cache, relu_cache))
    logits, cls_cache = dilated_conv1d_forward(h, head.classifier)
    return logits, (caches, cls_cache)


def _stack_backward(grad_logits: Array, cache: tuple) -> list[Array]:
    """Parameter gradients in ``head_parameters`` order. Nothing reads the
    gradient of the input features, so the first layer does not compute it."""
    caches, cls_cache = cache
    grad, grad_w, grad_b = dilated_conv1d_backward(
        grad_logits, cls_cache, input_grad=bool(caches)
    )
    grads = [grad_w, grad_b]
    for depth in reversed(range(len(caches))):
        conv_cache, relu_cache = caches[depth]
        grad = relu_backward(grad, relu_cache)
        grad, grad_w, grad_b = dilated_conv1d_backward(
            grad, conv_cache, input_grad=depth > 0
        )
        grads[:0] = [grad_w, grad_b]
    return grads


def fsn_frame_logits(
    features: Array, head: Head, target_len: int | None = None
) -> tuple[Array, tuple]:
    """Pre-softmax frame scores: trunk logits upsampled to ``target_len``."""
    if head.pooling is not None:
        raise TypeError("weak heads score positions directly, not upsampled frames")
    if target_len is None:
        target_len = head.config.clip_len
    pos_logits, stack_cache = _stack_forward(features, head)
    frame_logits, up_cache = bilinear_upsample_1d(pos_logits, target_len)
    return frame_logits, (stack_cache, up_cache)


def fsn_backward(grad_frame_logits: Array, cache: tuple) -> list[Array]:
    stack_cache, up_cache = cache
    grad_pos = bilinear_upsample_1d_backward(grad_frame_logits, up_cache)
    return _stack_backward(grad_pos, stack_cache)


def fsn_forward(features: Array, head: Head, target_len: int | None = None) -> Array:
    """Per-frame class probabilities, shape (..., target_len, K+1); rows sum to 1."""
    logits, _ = fsn_frame_logits(features, head, target_len)
    return framewise_softmax(logits)


def one_hot_frames(labels: Array, num_outputs: int) -> Array:
    """One-hot rows for integer frame labels of any shape (..., frames)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim < 1 or labels.size == 0:
        raise ValueError(
            f"labels must be non-empty (..., frames), got shape {labels.shape}"
        )
    if labels.min() < 0 or labels.max() >= num_outputs:
        raise ValueError(
            f"labels must lie in [0, {num_outputs}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return np.eye(num_outputs)[labels]


def fsn_loss_and_grads(
    features: Array, labels: Array, head: Head
) -> tuple[float, list[Array]]:
    """Dense cross-entropy over a window batch plus parameter gradients.

    ``features`` is (batch, snippets, feature_dim) and ``labels`` the
    (batch, clip_len) frame labels; the step is one forward and one backward
    pass.
    """
    config = head.config
    features = np.asarray(features)
    labels = np.asarray(labels, dtype=np.int64)
    batch = len(features)
    if batch == 0:
        raise ValueError("empty batch")
    expected = (batch, config.snippets_per_clip, config.feature_dim)
    if features.shape != expected:
        raise ValueError(f"features have shape {features.shape}, expected {expected}")
    if labels.shape != (batch, config.clip_len):
        raise ValueError(
            f"labels have shape {labels.shape}, expected {(batch, config.clip_len)}"
        )
    logits, cache = fsn_frame_logits(features, head, config.clip_len)
    loss, grad = framewise_cross_entropy(logits, one_hot_frames(labels, head.num_outputs))
    return loss, fsn_backward(grad, cache)


def _sgd_step(
    loss: float, grads: list[Array], head: Head, optimizer: OptimizerState
) -> float:
    """Apply one update unless the loss has diverged; returns the loss."""
    if not np.isfinite(loss):
        raise FloatingPointError(f"training diverged: loss is {loss}")
    sgd_update(head_parameters(head), grads, optimizer, head_decay_flags(head))
    return loss


def fsn_train_step(
    features: Array, labels: Array, head: Head, optimizer: OptimizerState
) -> float:
    """One SGD step; returns the pre-update batch loss."""
    return _sgd_step(*fsn_loss_and_grads(features, labels, head), head, optimizer)


def wfsn_position_logits(features: Array, head: Head) -> Array:
    """Pre-softmax class scores per sampled position, shape (..., positions, K)."""
    logits, _ = _stack_forward(features, head)
    return logits


def wfsn_forward_predict(features: Array, head: Head) -> Array:
    """Per-position class probabilities with the pooling stage removed."""
    return framewise_softmax(wfsn_position_logits(features, head))


def wfsn_loss_and_grads(
    features: Array, labels: Array, head: Head
) -> tuple[float, list[Array]]:
    """Video-label cross-entropy averaged over the batch, plus gradients.

    ``features`` is (batch, positions, feature_dim) and ``labels`` the
    (batch, K) multi-hot video labels. The position scores are pooled over
    the positions axis and scored by the dense head's softmax cross-entropy
    against the label spread evenly over its positive classes, so multi-label
    videos average the cross-entropy over their positives. The step is one
    forward and one backward pass.
    """
    num_classes = head.config.num_classes
    features = np.asarray(features)
    labels = np.asarray(labels, dtype=np.float64)
    batch = len(features)
    if batch == 0:
        raise ValueError("empty batch")
    if features.ndim != 3:
        raise ValueError(f"features have shape {features.shape}, expected (batch, positions, dim)")
    if labels.shape != (batch, num_classes):
        raise ValueError(f"labels have shape {labels.shape}, expected {(batch, num_classes)}")
    if not ((labels == 0.0) | (labels == 1.0)).all() or labels.sum(axis=1).min() < 1:
        raise ValueError("video label must be multi-hot with >= 1 positive")
    pos_logits, stack_cache = _stack_forward(features, head)
    pooled, pool_cache = temporal_pool(pos_logits, head.pooling)
    targets = labels / labels.sum(axis=1, keepdims=True)
    loss, grad_pooled = framewise_cross_entropy(pooled, targets)
    grad_logits = temporal_pool_backward(grad_pooled, pool_cache)
    return loss, _stack_backward(grad_logits, stack_cache)


def wfsn_train_step(
    features: Array, labels: Array, head: Head, optimizer: OptimizerState
) -> float:
    return _sgd_step(*wfsn_loss_and_grads(features, labels, head), head, optimizer)


MODEL_MAGIC = b"FSN1"
MODEL_VERSION = 1
# head kinds in the file header; a dense head's pooling code is always GMP's
_DENSE, _POOLED, _NO_TRUNK = 0, 1, 2
_POOL_CODES = {GAP: 0, GMP: 1}
_MODEL_HEADER = struct.Struct("<4sIBB5I")
_LAYER_ENTRY = struct.Struct("<4I")


def save_model(head: Head, path) -> None:
    """Serialize a head bit-exactly: header, layer table, float64 payload."""
    config = head.config
    if head.pooling is not None:
        kind = _POOLED
    else:
        kind = _DENSE if head.convs else _NO_TRUNK
    layers = head_layers(head)
    blob = [
        _MODEL_HEADER.pack(
            MODEL_MAGIC,
            MODEL_VERSION,
            kind,
            _POOL_CODES[head.pooling or GMP],
            config.num_classes,
            config.feature_dim,
            config.hidden_channels,
            config.snippet_len,
            config.clip_len,
        ),
        struct.pack("<I", len(layers)),
    ]
    for layer in layers:
        blob.append(
            _LAYER_ENTRY.pack(
                layer.out_channels, layer.in_channels, layer.kernel_size, layer.dilation
            )
        )
    for layer in layers:
        blob.append(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
        blob.append(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(blob))


def load_model(path) -> Head:
    """Read a head back, checking the header against the layer table."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _MODEL_HEADER.size + 4:
        raise ValueError(f"{path}: truncated model file")
    magic, version, kind, pooling, num_classes, feature_dim, hidden, snippet_len, clip_len = (
        _MODEL_HEADER.unpack_from(raw)
    )
    if magic != MODEL_MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic {magic!r})")
    if version != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {version}")
    pools = {code: mode for mode, code in _POOL_CODES.items()}
    if kind not in (_DENSE, _POOLED, _NO_TRUNK):
        raise ValueError(f"{path}: unknown head kind {kind}")
    if pooling not in pools:
        raise ValueError(f"{path}: unknown pooling code {pooling}")
    (layer_count,) = struct.unpack_from("<I", raw, _MODEL_HEADER.size)
    offset = _MODEL_HEADER.size + 4
    shapes = []
    for _ in range(layer_count):
        if offset + _LAYER_ENTRY.size > len(raw):
            raise ValueError(f"{path}: truncated layer table")
        shapes.append(_LAYER_ENTRY.unpack_from(raw, offset))
        offset += _LAYER_ENTRY.size
    payload = sum(out * inp * k + out for out, inp, k, _ in shapes) * 8
    if len(raw) - offset != payload:
        raise ValueError(
            f"{path}: payload is {len(raw) - offset} bytes, layer table implies {payload}"
        )
    layers = []
    for out, inp, k, dilation in shapes:
        w_bytes = out * inp * k * 8
        weights = np.frombuffer(raw, dtype="<f8", count=out * inp * k, offset=offset)
        offset += w_bytes
        bias = np.frombuffer(raw, dtype="<f8", count=out, offset=offset)
        offset += out * 8
        layers.append(
            ConvLayer1D(
                weights=weights.reshape(out, inp, k).copy(),
                bias=bias.copy(),
                dilation=dilation,
            )
        )
    trunk, classifier = layers[:-1], layers[-1]
    chain = feature_dim
    for index, layer in enumerate(layers):
        if layer.in_channels != chain:
            raise ValueError(
                f"{path}: layer expects {layer.in_channels} channels, gets {chain}"
            )
        # the layers compute in float32 on feature files; an overflow is reported here
        with np.errstate(over="ignore"):
            narrow = np.concatenate([layer.weights.ravel(), layer.bias]).astype(np.float32)
        if not np.isfinite(narrow).all():
            raise ValueError(f"{path}: layer {index} holds non-finite weights or biases as float32")
        chain = layer.out_channels
    if kind == _NO_TRUNK and trunk:
        raise ValueError(f"{path}: ablation head cannot carry trunk layers")
    if kind != _NO_TRUNK and not trunk:
        raise ValueError(f"{path}: missing trunk layers")
    try:
        config = ModelConfig(
            num_classes=num_classes,
            feature_dim=feature_dim,
            hidden_channels=hidden,
            snippet_len=snippet_len,
            clip_len=clip_len,
            dilations=tuple(layer.dilation for layer in trunk) or (1, 2, 4),
        )
        return Head(config, trunk, classifier, pools[pooling] if kind == _POOLED else None)
    except ValueError as err:  # a header value or the classifier is inconsistent
        raise ValueError(f"{path}: {err}") from None
