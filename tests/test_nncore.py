"""Unit tests for the numeric primitives, checked against naive oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsn import nncore
from fsn.nncore import (
    ConvLayer1D,
    GAP,
    GMP,
    OptimizerState,
    bilinear_upsample_1d,
    bilinear_upsample_1d_backward,
    dilated_conv1d_backward,
    dilated_conv1d_forward,
    framewise_cross_entropy,
    framewise_softmax,
    gradient_check,
    relu,
    relu_backward,
    sgd_update,
    temporal_pool,
    temporal_pool_backward,
)
from oracles import naive_conv1d, naive_upsample


def random_layer(rng, in_ch, out_ch, kernel=3, dilation=1):
    return ConvLayer1D(
        weights=rng.standard_normal((out_ch, in_ch, kernel)),
        bias=rng.standard_normal(out_ch),
        dilation=dilation,
    )


class TestDilatedConv:
    def test_hand_checked_example(self):
        # single channel [1..5], kernel [1,1,1], dilation 2, zero padding 2 per side
        layer = ConvLayer1D(weights=np.ones((1, 1, 3)), bias=np.zeros(1), dilation=2)
        x = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        out, _ = dilated_conv1d_forward(x, layer)
        np.testing.assert_allclose(out[:, 0], [4.0, 6.0, 9.0, 6.0, 8.0])

    def test_identity_kernel_preserves_input(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((9, 4))
        weights = np.zeros((4, 4, 3))
        for c in range(4):
            weights[c, c, 1] = 1.0
        layer = ConvLayer1D(weights=weights, bias=np.zeros(4), dilation=1)
        out, _ = dilated_conv1d_forward(x, layer)
        np.testing.assert_allclose(out, x)

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("length", [1, 2, 5, 12])
    def test_matches_naive_oracle(self, dilation, length):
        rng = np.random.default_rng(length * 10 + dilation)
        for in_ch, out_ch in [(1, 1), (3, 2), (4, 4)]:
            x = rng.standard_normal((length, in_ch))
            layer = random_layer(rng, in_ch, out_ch, dilation=dilation)
            out, _ = dilated_conv1d_forward(x, layer)
            expected = naive_conv1d(x, layer.weights, layer.bias, dilation)
            assert np.max(np.abs(out - expected)) <= 1e-12

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_backward_matches_finite_differences(self, dilation):
        rng = np.random.default_rng(7 + dilation)
        x = rng.standard_normal((8, 3))
        layer = random_layer(rng, 3, 2, dilation=dilation)
        probe = rng.standard_normal((8, 2))

        def fn(params):
            w, b, inp = params
            out, cache = dilated_conv1d_forward(inp, layer)
            loss = float((out * probe).sum())
            gx, gw, gb = dilated_conv1d_backward(probe, cache)
            return loss, [gw, gb, gx]

        assert gradient_check(fn, [layer.weights, layer.bias, x]) < 1e-5

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_backward_without_input_grad_keeps_the_parameter_grads(self, dilation):
        rng = np.random.default_rng(17 + dilation)
        layer = random_layer(rng, 3, 2, dilation=dilation)
        _, cache = dilated_conv1d_forward(rng.standard_normal((4, 8, 3)), layer)
        probe = rng.standard_normal((4, 8, 2))
        _, gw, gb = dilated_conv1d_backward(probe, cache)
        gx, gw_only, gb_only = dilated_conv1d_backward(probe, cache, input_grad=False)
        assert gx is None
        assert gw_only.tobytes() == gw.tobytes() and gb_only.tobytes() == gb.tobytes()

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            ConvLayer1D(weights=np.ones((1, 1, 2)), bias=np.zeros(1))

    def test_rejects_channel_mismatch(self):
        layer = ConvLayer1D(weights=np.ones((2, 3, 3)), bias=np.zeros(2))
        with pytest.raises(ValueError):
            dilated_conv1d_forward(np.ones((5, 4)), layer)

    def test_rejects_bad_grad_shape(self):
        layer = ConvLayer1D(weights=np.ones((2, 3, 3)), bias=np.zeros(2))
        _, cache = dilated_conv1d_forward(np.ones((5, 3)), layer)
        with pytest.raises(ValueError):
            dilated_conv1d_backward(np.ones((5, 3)), cache)


class TestBatchedOps:
    """Leading axes are batch axes: every sample must come out as if alone."""

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("lead", [(5,), (2, 3)])
    def test_conv_forward_matches_oracle_per_sample(self, dilation, lead):
        rng = np.random.default_rng(dilation * 7 + len(lead))
        layer = random_layer(rng, 3, 4, dilation=dilation)
        x = rng.standard_normal((*lead, 9, 3))
        out, _ = dilated_conv1d_forward(x, layer)
        assert out.shape == (*lead, 9, 4)
        for idx in np.ndindex(*lead):
            expected = naive_conv1d(x[idx], layer.weights, layer.bias, dilation)
            assert np.max(np.abs(out[idx] - expected)) <= 1e-12

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_conv_backward_matches_finite_differences(self, dilation):
        rng = np.random.default_rng(31 + dilation)
        x = rng.standard_normal((3, 6, 3))
        layer = random_layer(rng, 3, 2, dilation=dilation)
        probe = rng.standard_normal((3, 6, 2))

        def fn(params):
            w, b, inp = params
            out, cache = dilated_conv1d_forward(inp, layer)
            gx, gw, gb = dilated_conv1d_backward(probe, cache)
            return float((out * probe).sum()), [gw, gb, gx]

        assert gradient_check(fn, [layer.weights, layer.bias, x]) < 1e-5

    @pytest.mark.parametrize("n,target", [(1, 5), (3, 8), (7, 35)])
    def test_upsample_forward_and_backward(self, n, target):
        rng = np.random.default_rng(n * 3 + target)
        x = rng.standard_normal((4, n, 2))
        out, _ = bilinear_upsample_1d(x, target)
        for b in range(4):
            np.testing.assert_allclose(out[b], naive_upsample(x[b], target), atol=1e-12)
        probe = rng.standard_normal((4, target, 2))

        def fn(params):
            (inp,) = params
            out, cache = bilinear_upsample_1d(inp, target)
            loss = float((out * probe).sum())
            return loss, [bilinear_upsample_1d_backward(probe, cache)]

        assert gradient_check(fn, [x]) < 1e-5

    @pytest.mark.parametrize("mode", [GAP, GMP])
    def test_pool_forward_and_backward(self, mode):
        rng = np.random.default_rng(41)
        x = rng.permuted(np.linspace(-4, 4, 36)).reshape(3, 6, 2)
        out, _ = temporal_pool(x, mode)
        assert out.shape == (3, 2)
        for b in range(3):
            np.testing.assert_array_equal(out[b], temporal_pool(x[b], mode)[0])
        probe = rng.standard_normal((3, 2))

        def fn(params):
            (inp,) = params
            out, cache = temporal_pool(inp, mode)
            loss = float((out * probe).sum())
            return loss, [temporal_pool_backward(probe, cache)]

        assert gradient_check(fn, [x]) < 1e-5

    def test_gmp_tie_routes_gradient_to_earliest_per_sample(self):
        x = np.array([[[5.0, 1.0], [5.0, 2.0]], [[0.0, 3.0], [1.0, 3.0]]])
        _, cache = temporal_pool(x, GMP)
        grad = temporal_pool_backward(np.ones((2, 2)), cache)
        np.testing.assert_array_equal(
            grad, [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]
        )

    def test_softmax_normalizes_every_row(self):
        x = np.random.default_rng(43).standard_normal((3, 4, 5))
        out = framewise_softmax(x)
        np.testing.assert_allclose(out.sum(axis=-1), np.ones((3, 4)), atol=1e-12)
        np.testing.assert_allclose(out[1], framewise_softmax(x[1]), atol=1e-15)


class TestRelu:
    def test_values(self):
        out, _ = relu(np.array([[-1.0, 0.0], [2.0, -3.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0], [2.0, 0.0]])

    def test_backward_masks_negative_side(self):
        x = np.array([[-2.0, 3.0], [0.5, -0.5]])
        _, cache = relu(x)
        grad = relu_backward(np.ones_like(x), cache)
        np.testing.assert_allclose(grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        # keep inputs away from the kink at zero
        x = rng.standard_normal((6, 4))
        x[np.abs(x) < 0.05] = 0.1
        probe = rng.standard_normal(x.shape)

        def fn(params):
            (inp,) = params
            out, cache = relu(inp)
            return float((out * probe).sum()), [relu_backward(probe, cache)]

        assert gradient_check(fn, [x]) < 1e-5


class TestBilinearUpsample:
    def test_two_point_ramp(self):
        out, _ = bilinear_upsample_1d(np.array([[0.0], [1.0]]), 5)
        np.testing.assert_allclose(out[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_identity_when_lengths_match(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((7, 2))
        out, _ = bilinear_upsample_1d(x, 7)
        np.testing.assert_allclose(out, x)

    def test_single_row_replicates(self):
        out, _ = bilinear_upsample_1d(np.array([[2.0, -1.0]]), 4)
        np.testing.assert_allclose(out, np.tile([2.0, -1.0], (4, 1)))

    def test_exact_on_affine_sequences(self):
        n, target = 7, 35
        idx = np.arange(n, dtype=np.float64)
        x = np.stack([3.0 * idx - 1.0, -0.5 * idx + 2.0], axis=1)
        out, _ = bilinear_upsample_1d(x, target)
        s = np.arange(target) * (n - 1) / (target - 1)
        expected = np.stack([3.0 * s - 1.0, -0.5 * s + 2.0], axis=1)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("n,target", [(2, 2), (2, 9), (4, 5), (7, 35), (1, 6)])
    def test_matches_naive_oracle(self, n, target):
        rng = np.random.default_rng(n * 100 + target)
        x = rng.standard_normal((n, 3))
        out, _ = bilinear_upsample_1d(x, target)
        np.testing.assert_allclose(out, naive_upsample(x, target), atol=1e-12)

    def test_rejects_downsampling(self):
        with pytest.raises(ValueError):
            bilinear_upsample_1d(np.ones((5, 1)), 3)

    @pytest.mark.parametrize("n,target", [(1, 5), (3, 8), (4, 4), (7, 35)])
    def test_backward_matches_finite_differences(self, n, target):
        rng = np.random.default_rng(n + target)
        x = rng.standard_normal((n, 2))
        probe = rng.standard_normal((target, 2))

        def fn(params):
            (inp,) = params
            out, cache = bilinear_upsample_1d(inp, target)
            loss = float((out * probe).sum())
            return loss, [bilinear_upsample_1d_backward(probe, cache)]

        assert gradient_check(fn, [x]) < 1e-5

    @pytest.mark.parametrize("n,target", [(1, 6), (7, 35), (120, 600)])
    def test_backward_equals_dense_blend_product(self, n, target):
        # the blend matrix exactly as the forward used to build it
        rng = np.random.default_rng(n + 2 * target)
        x = rng.standard_normal((3, n, 4))
        grad = rng.standard_normal((3, target, 4))
        if n == 1:
            blend = np.ones((1, target))
        else:
            s = np.arange(target) * (n - 1) / (target - 1)
            lo = np.minimum(np.floor(s).astype(np.int64), n - 2)
            alpha = s - lo
            blend = np.zeros((n, target))
            blend[lo, np.arange(target)] = 1.0 - alpha
            blend[lo + 1, np.arange(target)] += alpha
        _, cache = bilinear_upsample_1d(x, target)
        np.testing.assert_array_equal(bilinear_upsample_1d_backward(grad, cache), blend @ grad)


class TestFramewiseSoftmax:
    def test_zero_logits_are_uniform(self):
        out = framewise_softmax(np.zeros((4, 5)))
        np.testing.assert_allclose(out, np.full((4, 5), 0.2))

    def test_known_row(self):
        out = framewise_softmax(np.array([[1.0, 2.0]]))
        e = np.e
        np.testing.assert_allclose(out[0], [1.0 / (1.0 + e), e / (1.0 + e)])

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(2, 5),
        st.integers(0, 2**31 - 1),
        st.floats(-50.0, 50.0),
    )
    def test_rows_normalize_and_shift_invariant(self, rows, cols, seed, shift):
        x = np.random.default_rng(seed).uniform(-30, 30, size=(rows, cols))
        out = framewise_softmax(x)
        assert np.all(out > 0)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(rows), atol=1e-12)
        shifted = framewise_softmax(x + shift)
        np.testing.assert_allclose(shifted, out, atol=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            framewise_softmax(np.array([[np.inf, 0.0]]))


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = np.zeros((1, 1, 3))
        labels = np.zeros((1, 1, 3))
        labels[0, 0, 1] = 1.0
        loss, _ = framewise_cross_entropy(logits, labels)
        assert loss == pytest.approx(np.log(3.0), abs=1e-12)

    def test_sums_over_frames_and_averages_over_batch(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((2, 3, 4))
        labels = np.zeros((2, 3, 4))
        labels[np.arange(2)[:, None], np.arange(3)[None, :], rng.integers(0, 4, (2, 3))] = 1.0
        total, _ = framewise_cross_entropy(logits, labels)
        singles = []
        for b in range(2):
            per_frame = [
                framewise_cross_entropy(logits[b : b + 1, t : t + 1], labels[b : b + 1, t : t + 1])[0]
                for t in range(3)
            ]
            singles.append(sum(per_frame))
        assert total == pytest.approx(np.mean(singles), abs=1e-12)

    def test_confident_correct_prediction_has_small_loss(self):
        logits = np.zeros((1, 2, 3))
        logits[:, :, 0] = 50.0
        labels = np.zeros((1, 2, 3))
        labels[:, :, 0] = 1.0
        loss, _ = framewise_cross_entropy(logits, labels)
        assert loss < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        logits = rng.standard_normal((2, 4, 3))
        labels = np.zeros((2, 4, 3))
        labels[np.arange(2)[:, None], np.arange(4)[None, :], rng.integers(0, 3, (2, 4))] = 1.0

        def fn(params):
            (z,) = params
            loss, grad = framewise_cross_entropy(z, labels)
            return loss, [grad]

        assert gradient_check(fn, [logits]) < 1e-5

    def test_rejects_labels_that_are_not_one_hot(self):
        logits = np.zeros((1, 2, 3))
        bad_sum = np.zeros((1, 2, 3))
        with pytest.raises(ValueError):
            framewise_cross_entropy(logits, bad_sum)
        negative = np.zeros((1, 2, 3))
        negative[0, :, 0] = 1.5
        negative[0, :, 1] = -0.5
        with pytest.raises(ValueError, match="entries >= 0"):
            framewise_cross_entropy(logits, negative)

    def test_multi_positive_targets_give_the_weak_video_loss(self):
        # pooled (batch, classes) logits against multi-hot labels spread over
        # their positives: the video-label loss averaged over positive classes
        rng = np.random.default_rng(23)
        logits = rng.standard_normal((6, 4)) * 3.0
        labels = np.array([
            [1, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1],
            [1, 0, 1, 0], [0, 1, 1, 1], [1, 0, 0, 0],
        ], dtype=np.float64)
        positives = labels.sum(axis=1, keepdims=True)
        loss, grad = framewise_cross_entropy(logits, labels / positives)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = (-(labels * log_probs).sum(axis=1) / positives[:, 0]).mean()
        assert loss == pytest.approx(expected, abs=1e-12)
        expected_grad = (np.exp(log_probs) - labels / positives) / len(logits)
        assert np.array_equal(grad, expected_grad)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            framewise_cross_entropy(np.zeros((1, 2, 3)), np.zeros((1, 2, 4)))


class TestTemporalPool:
    def test_gap_is_mean(self):
        x = np.array([[1.0, 0.0], [3.0, 2.0]])
        out, _ = temporal_pool(x, GAP)
        np.testing.assert_allclose(out, [2.0, 1.0])

    def test_gmp_is_max(self):
        x = np.array([[1.0, 5.0], [3.0, 2.0]])
        out, _ = temporal_pool(x, GMP)
        np.testing.assert_allclose(out, [3.0, 5.0])

    def test_gmp_tie_routes_gradient_to_earliest(self):
        x = np.array([[5.0, 1.0], [5.0, 2.0]])
        _, cache = temporal_pool(x, GMP)
        grad = temporal_pool_backward(np.array([1.0, 1.0]), cache)
        np.testing.assert_allclose(grad, [[1.0, 0.0], [0.0, 1.0]])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**31 - 1))
    def test_gmp_dominates_gap(self, rows, cols, seed):
        x = np.random.default_rng(seed).uniform(-5, 5, size=(rows, cols))
        gap_out, _ = temporal_pool(x, GAP)
        gmp_out, _ = temporal_pool(x, GMP)
        assert np.all(gmp_out >= gap_out - 1e-12)
        for c in range(cols):
            if np.ptp(x[:, c]) > 1e-9:
                assert gmp_out[c] > gap_out[c]

    @pytest.mark.parametrize("mode", [GAP, GMP])
    def test_backward_matches_finite_differences(self, mode):
        rng = np.random.default_rng(23)
        # well separated values keep the max stable under the probe step
        x = rng.permuted(np.linspace(-4, 4, 12)).reshape(6, 2)
        probe = rng.standard_normal(2)

        def fn(params):
            (inp,) = params
            out, cache = temporal_pool(inp, mode)
            loss = float((out * probe).sum())
            return loss, [temporal_pool_backward(probe, cache)]

        assert gradient_check(fn, [x]) < 1e-5

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            temporal_pool(np.ones((2, 2)), "avg")


class TestSgdUpdate:
    def test_two_momentum_steps(self):
        p = np.array([0.0])
        state = OptimizerState(learning_rate=0.1, momentum=0.9)
        sgd_update([p], [np.array([1.0])], state)
        np.testing.assert_allclose(p, [-0.1])
        sgd_update([p], [np.array([1.0])], state)
        np.testing.assert_allclose(p, [-0.29])

    def test_weight_decay_skips_flagged_tensors(self):
        w = np.array([2.0])
        b = np.array([2.0])
        state = OptimizerState(learning_rate=0.5, weight_decay=0.1)
        sgd_update([w, b], [np.zeros(1), np.zeros(1)], state, decay=[True, False])
        np.testing.assert_allclose(w, [2.0 - 0.5 * 0.1 * 2.0])
        np.testing.assert_allclose(b, [2.0])

    def test_descends_a_quadratic(self):
        p = np.array([5.0, -3.0])
        state = OptimizerState(learning_rate=0.1, momentum=0.9)
        for _ in range(200):
            sgd_update([p], [2.0 * p], state)
        assert np.all(np.abs(p) < 1e-3)

    def test_rejects_mismatched_shapes(self):
        state = OptimizerState(learning_rate=0.1)
        with pytest.raises(ValueError):
            sgd_update([np.zeros(2)], [np.zeros(3)], state)

    def test_zero_learning_rate_is_a_no_op(self):
        p = np.array([1.0, -2.0])
        state = OptimizerState(learning_rate=0.0, momentum=0.9, weight_decay=0.01)
        sgd_update([p], [np.array([3.0, 4.0])], state)
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            OptimizerState(learning_rate=-0.1)
        with pytest.raises(ValueError):
            OptimizerState(learning_rate=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            OptimizerState(learning_rate=0.1, weight_decay=-0.1)


class TestGradientCheck:
    def test_accepts_exact_gradient(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3))
        x = rng.standard_normal((3, 3))

        def fn(params):
            (p,) = params
            return float((a * p * p).sum()), [2.0 * a * p]

        assert gradient_check(fn, [x]) < 1e-7

    def test_flags_corrupted_gradient(self):
        x = np.array([1.0, 2.0, 3.0])

        def fn(params):
            (p,) = params
            return float((p * p).sum()), [2.0 * p * 1.01]

        assert gradient_check(fn, [x]) > 1e-3

    def test_nan_gradient_fails_any_tolerance(self):
        # the exact first tensor must not mask the NaN error of the second
        x, y = np.array([1.0, 2.0]), np.array([3.0])

        def fn(params):
            p, q = params
            return float((p * p).sum() + q.sum()), [2.0 * p, np.array([np.nan])]

        assert not gradient_check(fn, [x, y]) < 1.0

    def test_restores_parameters(self):
        x = np.array([1.0, 2.0])
        before = x.copy()

        def fn(params):
            (p,) = params
            return float(p.sum()), [np.ones_like(p)]

        gradient_check(fn, [x])
        np.testing.assert_array_equal(x, before)

    def test_rejects_non_finite_loss(self):
        def fn(params):
            return float("nan"), [np.zeros(1)]

        with pytest.raises(ValueError):
            gradient_check(fn, [np.zeros(1)])
