"""Head construction, forward/backward wiring, training steps, serialization."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from fsn.model import (
    ModelConfig,
    _stack_backward,
    _stack_forward,
    fsn_forward,
    fsn_loss_and_grads,
    fsn_train_step,
    head_decay_flags,
    head_layers,
    head_parameters,
    init_fsn,
    load_model,
    save_model,
)
from fsn.nncore import (
    GAP,
    GMP,
    OptimizerState,
    bilinear_upsample_1d,
    dilated_conv1d_backward,
    framewise_cross_entropy,
    framewise_softmax,
    gradient_check,
    relu_backward,
    temporal_pool,
)
from oracles import naive_conv1d, receptive_field, receptive_field_snippets

TINY = ModelConfig(num_classes=2, feature_dim=5, hidden_channels=6, snippet_len=5, clip_len=35)
# the no-context ablation: TINY without its trunk
FLAT = replace(TINY, dilations=())


def tiny_clips(rng, config, *label_values):
    """A (features, labels) batch, one window per label value."""
    labels = np.zeros((len(label_values), config.clip_len), dtype=np.int64)
    labels[:, 10:20] = np.array(label_values)[:, None]
    features = rng.standard_normal(
        (len(label_values), config.snippets_per_clip, config.feature_dim)
    )
    return features, labels


def softmax(scores):
    e = np.exp(scores - scores.max())
    return e / e.sum()


def position_logits(features, head):
    """The head's pre-softmax class scores per position."""
    return _stack_forward(features, head)[0]


def pooled_probs(features, head):
    """Video-level class probabilities: pool the position logits, then softmax."""
    pooled, _ = temporal_pool(position_logits(features, head), head.pooling)
    return softmax(pooled)


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig(num_classes=20, feature_dim=400)
        assert cfg.hidden_channels == 256
        assert cfg.dilations == (1, 2, 4)
        assert cfg.snippets_per_clip == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_classes=0, feature_dim=4),
            dict(num_classes=2, feature_dim=0),
            dict(num_classes=2, feature_dim=4, clip_len=36),
            dict(num_classes=2, feature_dim=4, dilations=(1, 0, 4)),
            dict(num_classes=2, feature_dim=4, hidden_channels=0),
            dict(num_classes=2, feature_dim=4, snippet_len=0, clip_len=35),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)


class TestInit:
    def test_layer_shapes(self):
        head = init_fsn(TINY, seed=0)
        dims = [(l.in_channels, l.out_channels, l.kernel_size, l.dilation) for l in head_layers(head)]
        assert dims == [(5, 6, 3, 1), (6, 6, 3, 2), (6, 6, 3, 4), (6, 3, 3, 1)]
        weak = init_fsn(TINY, 0, GMP)
        assert head_layers(weak)[-1].out_channels == 2
        flat = init_fsn(FLAT, seed=0)
        assert head_layers(flat) == [flat.classifier]
        assert (flat.classifier.kernel_size, flat.classifier.dilation) == (1, 1)
        assert flat.classifier.in_channels == 5

    def test_biases_start_at_zero(self):
        for head in (init_fsn(TINY, 3), init_fsn(TINY, 3, GMP), init_fsn(FLAT, 3)):
            for layer in head_layers(head):
                assert np.all(layer.bias == 0.0)

    def test_weights_respect_glorot_bound(self):
        head = init_fsn(TINY, seed=1)
        for layer in head_layers(head):
            limit = np.sqrt(6.0 / (layer.in_channels * 3 + layer.out_channels * 3))
            assert np.max(np.abs(layer.weights)) <= limit

    def test_seed_determinism(self):
        a, b = init_fsn(TINY, 7), init_fsn(TINY, 7)
        for la, lb in zip(head_layers(a), head_layers(b)):
            np.testing.assert_array_equal(la.weights, lb.weights)
        c = init_fsn(TINY, 8)
        assert any(
            not np.array_equal(la.weights, lc.weights)
            for la, lc in zip(head_layers(a), head_layers(c))
        )

    def test_wfsn_rejects_unknown_pooling(self):
        with pytest.raises(ValueError):
            init_fsn(TINY, 0, "sum")

    @pytest.mark.parametrize("pooling", [GAP, GMP])
    def test_pooled_head_without_trunk_is_rejected(self, pooling):
        with pytest.raises(ValueError, match="a pooled head needs trunk layers"):
            init_fsn(FLAT, 0, pooling)


class TestFsnForward:
    @pytest.mark.parametrize("snippets,target", [(7, 35), (7, 7), (1, 5), (12, 36)])
    def test_output_is_a_distribution_per_frame(self, snippets, target):
        rng = np.random.default_rng(snippets + target)
        head = init_fsn(TINY, seed=2)
        scores = fsn_forward(rng.standard_normal((snippets, 5)), head, target)
        assert scores.shape == (target, 3)
        np.testing.assert_allclose(scores.sum(axis=1), np.ones(target), atol=1e-12)
        assert np.all(scores > 0)

    def test_zero_weights_give_uniform_scores(self):
        head = init_fsn(TINY, seed=0)
        for layer in head_layers(head):
            layer.weights[:] = 0.0
            layer.bias[:] = 0.0
        scores = fsn_forward(np.random.default_rng(0).standard_normal((7, 5)), head, 35)
        np.testing.assert_allclose(scores, np.full((35, 3), 1.0 / 3.0))

    def test_default_target_is_clip_len(self):
        head = init_fsn(TINY, seed=2)
        x = np.random.default_rng(1).standard_normal((7, 5))
        np.testing.assert_array_equal(fsn_forward(x, head), fsn_forward(x, head, 35))

    def test_rejects_wrong_feature_dim(self):
        head = init_fsn(TINY, seed=2)
        with pytest.raises(ValueError):
            fsn_forward(np.zeros((7, 4)), head, 35)

    def test_ablation_head_scores_frames_too(self):
        head = init_fsn(FLAT, seed=2)
        scores = fsn_forward(np.random.default_rng(3).standard_normal((7, 5)), head, 35)
        assert scores.shape == (35, 3)
        np.testing.assert_allclose(scores.sum(axis=1), np.ones(35), atol=1e-12)


class TestReceptiveField:
    def test_default_fsn_field(self):
        head = init_fsn(TINY, seed=0)
        assert receptive_field_snippets(head) == 17
        assert receptive_field(head) == 85

    def test_ablation_field_is_one_snippet(self):
        head = init_fsn(FLAT, seed=0)
        assert receptive_field_snippets(head) == 1
        assert receptive_field(head) == 5

    @pytest.mark.parametrize(
        "config,width", [(TINY, 17), (FLAT, 1)], ids=["init_fsn-17", "init_fsn_no_trunk-1"]
    )
    def test_probing_matches_formula(self, config, width):
        # positive weights, positive inputs: no ReLU dead zones, no cancellation
        head = init_fsn(config, seed=4)
        for layer in head_layers(head):
            layer.weights[:] = np.abs(layer.weights) + 0.01
        rng = np.random.default_rng(5)
        positions = 41
        x = rng.uniform(0.5, 1.5, size=(positions, 5))
        bumped = x.copy()
        bumped[positions // 2] += 1.0
        base = position_logits(x, head)
        moved = position_logits(bumped, head)
        changed = np.flatnonzero(np.abs(moved - base).max(axis=1) > 1e-12)
        assert changed.size == width
        assert changed[0] == positions // 2 - width // 2
        assert changed[-1] == positions // 2 + width // 2


class TestFsnTraining:
    def test_loss_matches_independent_forward(self):
        rng = np.random.default_rng(6)
        head = init_fsn(TINY, seed=6)
        features, labels = tiny_clips(rng, TINY, 1, 2)
        loss, _ = fsn_loss_and_grads(features, labels, head)
        logits = np.stack([bilinear_upsample_1d(position_logits(f, head), 35)[0] for f in features])
        expected, _ = framewise_cross_entropy(logits, np.eye(3)[labels])
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_loss_drops_on_separable_toy_data(self):
        rng = np.random.default_rng(7)
        config = ModelConfig(num_classes=2, feature_dim=4, hidden_channels=8, snippet_len=1, clip_len=7)
        means = {0: np.zeros(4), 1: np.array([3.0, 0, 0, 0]), 2: np.array([0, 3.0, 0, 0])}
        features, labels = [], []
        for label_value in (1, 2):
            for _ in range(4):
                clip_labels = np.zeros(7, dtype=np.int64)
                clip_labels[2:5] = label_value
                feats = np.stack([means[l] for l in clip_labels])
                feats += rng.standard_normal(feats.shape) * 0.1
                features.append(feats)
                labels.append(clip_labels)
        features, labels = np.stack(features), np.stack(labels)
        head = init_fsn(config, seed=7)
        opt = OptimizerState(learning_rate=0.05, momentum=0.9)
        initial = fsn_loss_and_grads(features, labels, head)[0]
        for _ in range(200):
            loss = fsn_train_step(features, labels, head, opt)
        assert loss < 0.1 * initial

    def test_zero_learning_rate_leaves_parameters_unchanged(self):
        rng = np.random.default_rng(8)
        head = init_fsn(TINY, seed=8)
        before = [p.copy() for p in head_parameters(head)]
        opt = OptimizerState(learning_rate=0.0, momentum=0.9, weight_decay=0.001)
        fsn_train_step(*tiny_clips(rng, TINY, 1), head, opt)
        for p, q in zip(head_parameters(head), before):
            np.testing.assert_array_equal(p, q)

    def test_rejects_empty_batch(self):
        head = init_fsn(TINY, seed=0)
        empty_features = np.zeros((0, 7, 5))
        empty_labels = np.zeros((0, 35), dtype=np.int64)
        with pytest.raises(ValueError, match="empty batch"):
            fsn_train_step(empty_features, empty_labels, head, OptimizerState(learning_rate=0.1))

    def test_rejects_out_of_range_labels(self):
        rng = np.random.default_rng(9)
        head = init_fsn(TINY, seed=9)
        with pytest.raises(ValueError):
            fsn_loss_and_grads(*tiny_clips(rng, TINY, 3), head)

    # a dense head takes (batch, 7, 5) windows with (batch, 35) frame labels,
    # a pooled one (batch, any, 5) features with (batch, 2) video labels
    @pytest.mark.parametrize(
        "pooling, features_shape, labels_shape, match",
        [
            # the dense rows keep the ids they had before the weak rows joined
            pytest.param(None, (2, 6, 5), (2, 35), "features have shape",  # wrong snippet count
                         id="features_shape0-labels_shape0-features have shape"),
            pytest.param(None, (2, 7, 4), (2, 35), "features have shape",  # wrong feature dim
                         id="features_shape1-labels_shape1-features have shape"),
            pytest.param(None, (7, 5), (2, 35), "features have shape",  # not stacked
                         id="features_shape2-labels_shape2-features have shape"),
            pytest.param(None, (2, 7, 5), (2, 34), "labels have shape",  # wrong clip length
                         id="features_shape3-labels_shape3-labels have shape"),
            pytest.param(None, (2, 7, 5), (3, 35), "labels have shape",  # batch sizes differ
                         id="features_shape4-labels_shape4-labels have shape"),
            pytest.param(GMP, (0, 4, 5), (0, 2), "empty batch", id="weak-empty batch"),
            pytest.param(GMP, (4, 5), (1, 2), "features have shape", id="weak-not stacked"),
            pytest.param(GMP, (1, 4, 5), (1, 3), "labels have shape",
                         id="weak-wrong class count"),
            pytest.param(GMP, (2, 4, 5), (1, 2), "labels have shape",
                         id="weak-batch sizes differ"),
        ],
    )
    def test_rejects_misshapen_batch(self, pooling, features_shape, labels_shape, match):
        head = init_fsn(TINY, 9, pooling)
        # ones are valid labels for both kinds: class 1 frames, or all positives
        labels = np.ones(labels_shape, dtype=np.int64)
        with pytest.raises(ValueError, match=match):
            fsn_loss_and_grads(np.zeros(features_shape), labels, head)

    @pytest.mark.parametrize("pooling", [None, GAP, GMP], ids=["dense", GAP, GMP])
    def test_end_to_end_gradients(self, pooling):
        config = ModelConfig(num_classes=2, feature_dim=3, hidden_channels=4, snippet_len=5, clip_len=15)
        if pooling is None:
            rng = np.random.default_rng(10)
            head = init_fsn(config, seed=10)
            batch = [(rng.standard_normal((3, 3)), rng.integers(0, 3, size=15)) for _ in range(2)]
            features = np.stack([f for f, _ in batch])
            labels = np.stack([l for _, l in batch])
        else:
            rng = np.random.default_rng(16)
            head = init_fsn(config, 16, pooling)
            features, labels = rng.standard_normal((2, 5, 3)), np.eye(2)

        def fn(params):
            return fsn_loss_and_grads(features, labels, head)

        assert gradient_check(fn, head_parameters(head)) < 1e-5


class TestWfsn:
    def test_constant_positions_make_pooling_irrelevant(self):
        # zero weights leave only the classifier bias, so every position
        # carries the same score vector and the pooling choice cannot matter
        head_gap = init_fsn(TINY, 12, GAP)
        head_gmp = init_fsn(TINY, 12, GMP)
        for head in (head_gap, head_gmp):
            for layer in head_layers(head):
                layer.weights[:] = 0.0
            head.classifier.bias[:] = np.array([0.7, -1.3])
        x = np.random.default_rng(12).standard_normal((6, 5))
        np.testing.assert_allclose(
            pooled_probs(x, head_gap), pooled_probs(x, head_gmp), atol=1e-12
        )

    def test_one_hot_position_drives_gmp_argmax(self):
        config = ModelConfig(num_classes=3, feature_dim=3, hidden_channels=4, snippet_len=1, clip_len=4)
        head = init_fsn(config, 0, GMP)
        for layer in head.convs:
            layer.weights[:] = 0.0
        # identity-ish trunk is zero; drive the classifier bias path instead
        head.classifier.weights[:] = 0.0
        head.classifier.bias[:] = 0.0
        logits = np.zeros((4, 3))
        logits[2, 1] = 5.0
        # emulate by feeding through a zero network plus bias: check pooling directly
        pooled, _ = temporal_pool(logits, GMP)
        assert int(np.argmax(softmax(pooled))) == 1

    def test_predict_mode_rows_are_distributions(self):
        rng = np.random.default_rng(13)
        head = init_fsn(TINY, 13, GMP)
        scores = fsn_forward(rng.standard_normal((8, 5)), head)
        assert scores.shape == (8, 2)
        np.testing.assert_allclose(scores.sum(axis=1), np.ones(8), atol=1e-12)

    @pytest.mark.parametrize("pooling", [GAP, GMP])
    def test_forward_is_the_softmax_of_the_position_logits(self, pooling):
        head = init_fsn(TINY, 17, pooling)
        x = np.random.default_rng(17).standard_normal((3, 8, 5)).astype(np.float32)
        scores = fsn_forward(x, head)
        assert scores.tobytes() == framewise_softmax(position_logits(x, head)).tobytes()
        with pytest.raises(TypeError, match="weak heads score positions"):
            fsn_forward(x, head, 40)

    def test_loss_drops_on_toy_weak_data(self):
        rng = np.random.default_rng(14)
        config = ModelConfig(num_classes=2, feature_dim=4, hidden_channels=8, snippet_len=1, clip_len=4)
        protos = {1: np.array([3.0, 0, 0, 0]), 2: np.array([0, 3.0, 0, 0])}
        features, labels = [], []
        for cls in (1, 2):
            for _ in range(3):
                feats = rng.standard_normal((10, 4)) * 0.1
                feats[rng.integers(0, 10)] += protos[cls]
                features.append(feats)
                labels.append(np.eye(2)[cls - 1])
        features, labels = np.stack(features), np.stack(labels)
        head = init_fsn(config, 14, GMP)
        opt = OptimizerState(learning_rate=0.1, momentum=0.9)
        initial = fsn_loss_and_grads(features, labels, head)[0]
        for _ in range(150):
            loss = fsn_train_step(features, labels, head, opt)
        assert loss < 0.25 * initial

    def test_multi_label_loss_averages_over_positives(self):
        rng = np.random.default_rng(15)
        head = init_fsn(TINY, 15, GAP)
        feats = rng.standard_normal((6, 5))
        probs = pooled_probs(feats, head)
        expected = -(np.log(probs[0]) + np.log(probs[1])) / 2.0
        loss, _ = fsn_loss_and_grads(feats[None], np.array([[1.0, 1.0]]), head)
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_rejects_label_without_positives(self):
        head = init_fsn(TINY, 0, GMP)
        with pytest.raises(ValueError, match="multi-hot"):
            fsn_loss_and_grads(np.zeros((1, 4, 5)), np.zeros((1, 2)), head)


def _assert_batch_matches_singles(features, labels, head):
    """A batch's loss is the mean of the batch-of-one losses and its
    gradients are their sum scaled by 1/B."""
    loss, grads = fsn_loss_and_grads(features, labels, head)
    singles = [
        fsn_loss_and_grads(features[i : i + 1], labels[i : i + 1], head)
        for i in range(len(features))
    ]
    assert abs(loss - np.mean([l for l, _ in singles])) <= 1e-12
    for k, grad in enumerate(grads):
        expected = sum(g[k] for _, g in singles) / len(features)
        assert np.max(np.abs(grad - expected)) <= 1e-12


class TestBatchedTraining:
    def test_fsn_batch_matches_single_samples(self):
        rng = np.random.default_rng(50)
        head = init_fsn(TINY, seed=50)
        batch = [(rng.standard_normal((7, 5)), rng.integers(0, 3, size=35)) for _ in range(5)]
        features = np.stack([f for f, _ in batch])
        labels = np.stack([l for _, l in batch])
        _assert_batch_matches_singles(features, labels, head)

    def test_ablation_batch_matches_single_samples(self):
        rng = np.random.default_rng(51)
        head = init_fsn(FLAT, seed=51)
        _assert_batch_matches_singles(*tiny_clips(rng, TINY, 1, 2, 1), head)

    @pytest.mark.parametrize("pooling", [GAP, GMP])
    def test_wfsn_batch_matches_single_samples(self, pooling):
        rng = np.random.default_rng(52)
        head = init_fsn(TINY, 52, pooling)
        labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
        features = np.stack([rng.standard_normal((9, 5)) for _ in labels])
        _assert_batch_matches_singles(features, labels, head)


def _full_stack_backward(grad_logits, cache):
    """The stack's parameter gradients with every layer computing its input
    gradient, the first layer's included."""
    caches, cls_cache = cache
    grad, grad_w, grad_b = dilated_conv1d_backward(grad_logits, cls_cache)
    grads = [grad_w, grad_b]
    for conv_cache, relu_cache in reversed(caches):
        grad = relu_backward(grad, relu_cache)
        grad, grad_w, grad_b = dilated_conv1d_backward(grad, conv_cache)
        grads[:0] = [grad_w, grad_b]
    return grads


@pytest.mark.parametrize(
    "config,pooling", [(TINY, None), (TINY, GMP), (FLAT, None)], ids=["dense", "weak", "no-context"]
)
def test_stack_backward_matches_the_full_backward_bytes(config, pooling):
    # the first layer skips its input gradient; no parameter gradient may move
    rng = np.random.default_rng(53)
    head = init_fsn(config, 53, pooling)
    logits, cache = _stack_forward(rng.standard_normal((4, 9, TINY.feature_dim)), head)
    probe = rng.standard_normal(logits.shape)
    got = _stack_backward(probe, cache)
    want = _full_stack_backward(probe, cache)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert len(got) == len(head_parameters(head))


class TestModelBoundary:
    @pytest.mark.parametrize("pooling", [None, GMP], ids=["dense", "weak"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_features_are_rejected_by_the_loss(self, pooling, value):
        rng = np.random.default_rng(53)
        head = init_fsn(TINY, 53, pooling)
        features, labels = tiny_clips(rng, TINY, 1, 1)
        if head.pooling is not None:
            labels = np.eye(2)
        features[1, 3, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            fsn_loss_and_grads(features, labels, head)

    def test_nan_features_are_rejected_by_forward(self):
        features = np.zeros((2, 7, 5))
        features[1, 6, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fsn_forward(features, init_fsn(TINY, seed=55), 35)
        with pytest.raises(ValueError, match="non-finite"):
            fsn_forward(features, init_fsn(TINY, 55, GMP))


# float32 keeps about 7 significant digits; a step's loss and gradients may
# differ from their float64 widening's by this much, relative
FLOAT32_REL = 1e-5


def _assert_float32_follows_the_widening(narrow, labels, head):
    """float32 features give the loss and gradients of their float64 widening
    to float32 precision: the layers compute in float32, the loss sum and the
    parameters stay float64."""
    assert narrow.dtype == np.float32
    loss, grads = fsn_loss_and_grads(narrow, labels, head)
    wide_loss, wide_grads = fsn_loss_and_grads(narrow.astype(np.float64), labels, head)
    assert isinstance(loss, float)
    assert loss == pytest.approx(wide_loss, rel=FLOAT32_REL)
    assert len(grads) == len(wide_grads) == len(head_parameters(head))
    for grad, wide_grad in zip(grads, wide_grads):
        assert grad.dtype == np.float32 and wide_grad.dtype == np.float64
        error = np.linalg.norm(grad - wide_grad) / np.linalg.norm(wide_grad)
        assert error <= FLOAT32_REL
    assert all(p.dtype == np.float64 for p in head_parameters(head))


class TestFloat32Features:
    @pytest.mark.parametrize(
        "config,pooling", [(TINY, None), (TINY, GMP), (FLAT, None)], ids=["dense", "weak", "no-context"]
    )
    def test_activations_stay_float32(self, config, pooling):
        head = init_fsn(config, 58, pooling)
        features = np.random.default_rng(58).standard_normal((3, 9, 5)).astype(np.float32)
        logits, (caches, cls_cache) = _stack_forward(features, head)
        assert logits.dtype == np.float32
        assert cls_cache[0].dtype == np.float32
        assert all(conv[0].dtype == np.float32 for conv, _ in caches)
        assert fsn_forward(features, head).dtype == np.float32

    def test_fsn_loss_and_grads(self):
        rng = np.random.default_rng(56)
        features, labels = tiny_clips(rng, TINY, 1, 2, 0)
        head = init_fsn(TINY, seed=56)
        _assert_float32_follows_the_widening(features.astype(np.float32), labels, head)

    @pytest.mark.parametrize("pooling", [GAP, GMP])
    def test_wfsn_loss_and_grads(self, pooling):
        rng = np.random.default_rng(57)
        features = rng.standard_normal((3, 9, 5)).astype(np.float32)
        labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        head = init_fsn(TINY, 57, pooling)
        _assert_float32_follows_the_widening(features, labels, head)

    @pytest.mark.parametrize("config", [TINY, FLAT], ids=["dense", "no-context"])
    def test_float64_features_match_the_naive_convolutions(self, config):
        # float64 input computes in float64, as the gradient checks need
        head = init_fsn(config, 59)
        x = np.random.default_rng(59).standard_normal((9, 5))
        logits, _ = _stack_forward(x, head)
        expected = x
        for conv in head.convs:
            expected = np.maximum(
                naive_conv1d(expected, conv.weights, conv.bias, conv.dilation), 0.0
            )
        cls = head.classifier
        expected = naive_conv1d(expected, cls.weights, cls.bias, cls.dilation)
        assert logits.dtype == np.float64
        assert np.abs(logits - expected).max() <= 1e-12


class TestSerialization:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: init_fsn(TINY, seed=20),
            lambda: init_fsn(TINY, 21, GAP),
            lambda: init_fsn(TINY, 22, GMP),
            lambda: init_fsn(FLAT, seed=23),
        ],
    )
    def test_round_trip_is_bit_exact(self, tmp_path, make):
        head = make()
        path = tmp_path / "model.fsn"
        save_model(head, path)
        loaded = load_model(path)
        assert type(loaded) is type(head)
        assert loaded.config == head.config
        for a, b in zip(head_layers(head), head_layers(loaded)):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.bias, b.bias)
            assert a.dilation == b.dilation
        assert loaded.pooling == head.pooling
        assert len(loaded.convs) == len(head.convs)
        # the file keeps no dilations; a head without trunk loads with none
        assert loaded.config.dilations == tuple(conv.dilation for conv in head.convs)

    def test_rewrite_produces_identical_bytes(self, tmp_path):
        head = init_fsn(TINY, seed=24)
        first = tmp_path / "a.fsn"
        second = tmp_path / "b.fsn"
        save_model(head, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_head_predicts_identically(self, tmp_path):
        head = init_fsn(TINY, seed=25)
        path = tmp_path / "model.fsn"
        save_model(head, path)
        x = np.random.default_rng(0).standard_normal((7, 5))
        np.testing.assert_array_equal(
            fsn_forward(x, head, 35), fsn_forward(x, load_model(path), 35)
        )

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bogus.fsn"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_rejects_truncated_payload(self, tmp_path):
        head = init_fsn(TINY, seed=26)
        path = tmp_path / "model.fsn"
        save_model(head, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="payload"):
            load_model(path)

    def test_rejects_classifier_that_does_not_match_the_head_kind(self, tmp_path):
        path = tmp_path / "model.fsn"
        save_model(init_fsn(TINY, seed=27), path)
        raw = bytearray(path.read_bytes())
        raw[8] = 1  # header kind byte: pooled, whose classifier emits K channels
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="model.fsn: classifier emits 3 channels"):
            load_model(path)

    def test_hidden_channels_must_match_the_trunk_widths(self, tmp_path):
        path = tmp_path / "model.fsn"
        save_model(init_fsn(TINY, seed=30), path)
        raw = bytearray(path.read_bytes())
        raw[18:22] = (7).to_bytes(4, "little")  # header hidden_channels 6 -> 7
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"model.fsn: header hidden_channels 7, trunk widths \[6, 6, 6\]"):
            load_model(path)

    @pytest.mark.parametrize("config", [TINY, FLAT], ids=["dense", "no-trunk"])
    def test_head_without_pooling_must_carry_the_gmp_code(self, tmp_path, config):
        path = tmp_path / "model.fsn"
        save_model(init_fsn(config, 31), path)
        raw = bytearray(path.read_bytes())
        raw[9] = 0  # header pooling code: GMP's 1 -> GAP's 0
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="model.fsn: head kind [02] has no pooling, but its code is 0"):
            load_model(path)

    def test_bad_header_value_is_reported_with_the_path(self, tmp_path):
        path = tmp_path / "model.fsn"
        save_model(init_fsn(TINY, seed=28), path)
        raw = bytearray(path.read_bytes())
        raw[26:30] = (36).to_bytes(4, "little")  # header clip_len 35 -> 36
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="model.fsn: clip_len 36 must be a positive multiple"):
            load_model(path)

    # 1e39 is finite in float64 but overflows float32, the compute dtype
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])
    @pytest.mark.parametrize("which", ["weights", "bias"])
    def test_non_finite_parameters_are_reported_with_the_path(self, tmp_path, value, which):
        head = init_fsn(TINY, seed=29)
        getattr(head.classifier, which).flat[-1] = value
        path = tmp_path / "model.fsn"
        save_model(head, path)
        with pytest.raises(ValueError, match="model.fsn: layer 3 holds non-finite"):
            load_model(path)

    def test_decay_flags_alternate(self):
        head = init_fsn(TINY, seed=0)
        assert head_decay_flags(head) == [True, False] * 4
        assert len(head_parameters(head)) == 8


# each head kind with the sha256 of its pinned model file, computed with the
# three-class implementation that preceded ``Head``: the format must not move
PINNED_MODELS = {
    "dense": (
        lambda: init_fsn(TINY, 0),
        "eccb95921f7ab2adb30cb0962fe64485b42009c510652465fda307e9510d1a36",
    ),
    "weak_gap": (
        lambda: init_fsn(TINY, 0, GAP),
        "baff1675baa2c32e88410523da056ecbcc1ed5b7505cc17e9af221d8b892c8e8",
    ),
    "weak_gmp": (
        lambda: init_fsn(TINY, 0, GMP),
        "700c2bf2f314905cceabdd048626d429322975a9e07ec73ede4fbd52bd592925",
    ),
    "no_trunk": (
        lambda: init_fsn(FLAT, 0),
        "8ef2bf5b0abfd28f179c468634a34066cc7bdf6bada4ddecabd2b42015068dad",
    ),
}


@pytest.mark.parametrize("kind", list(PINNED_MODELS))
def test_model_file_bytes_are_pinned(tmp_path, kind):
    make, sha256 = PINNED_MODELS[kind]
    head = make()
    for i, layer in enumerate(head_layers(head)):
        layer.weights[:] = np.arange(layer.weights.size).reshape(layer.weights.shape) / 8.0 - i
        layer.bias[:] = np.arange(layer.bias.size) * 0.25 + i
    first, second = tmp_path / "first.fsn", tmp_path / "second.fsn"
    save_model(head, first)
    assert hashlib.sha256(first.read_bytes()).hexdigest() == sha256
    save_model(load_model(first), second)
    assert second.read_bytes() == first.read_bytes()
