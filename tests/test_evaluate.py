"""AP kernels, frame/segment mAP, and report emission."""

import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsn.data import AnnotationSet, Segments
from fsn.evaluate import (
    DEFAULT_STRONG_IOUS,
    DEFAULT_WEAK_IOUS,
    EvalReport,
    _rank_pooled,
    emit_report,
    frame_level_map,
    iou_thresholds,
    segment_level_map,
)
from fsn.localize import PREDICTION_HEADER, FrameScoreTrack, load_predictions
from oracles import ap_by_pr_points, iou_by_frames, match_predictions, pooled_frame_ap
from records import ground_truth, gt_rows, load_report, rows, segments


def oracle_rows(predictions):
    """(video, class, start, end, confidence) rows, as the oracles take them."""
    return [(v, c, s, e, p) for s, e, p, c, v in rows(predictions)]


def track_for(labels, scores_by_class, video="v"):
    """Background-free track from per-class score columns."""
    scores = np.stack([np.asarray(c, dtype=np.float64) for c in scores_by_class], axis=1)
    return FrameScoreTrack(video, scores, includes_background=False)


def one_video_ap(scores, labels):
    """Frame-level AP of class 1 over one video's scores and frame labels."""
    ap, _ = frame_level_map([track_for(None, [scores])], {"v": np.array(labels)})
    return ap[0]


class TestAveragePrecision:
    """Non-interpolated AP, as ``frame_level_map`` computes it for one video."""

    def test_all_positives_first(self):
        assert one_video_ap([0.9, 0.8, 0.2], [1, 1, 0]) == 1.0

    def test_single_positive_at_rank_two(self):
        assert one_video_ap([0.9, 0.5], [0, 1]) == 0.5

    def test_zero_positives(self):
        assert one_video_ap([0.5], [0]) == 0.0
        assert one_video_ap([0.5, 0.1], [0, 0]) == 0.0

    def test_missed_positives_cap_the_score(self):
        # one of two positives ranked below all 98 negatives: about half
        scores = [0.9] + [0.5] * 98 + [0.0]
        labels = [1] + [0] * 98 + [1]
        assert one_video_ap(scores, labels) == pytest.approx((1.0 + 2.0 / 100.0) / 2.0)

    def test_ties_keep_stable_input_order(self):
        assert one_video_ap([0.5, 0.5], [0, 1]) == 0.5
        assert one_video_ap([0.5, 0.5], [1, 0]) == 1.0

    def test_matches_pr_summation_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            labels = (rng.uniform(size=n) < 0.4).astype(np.int64)
            scores = np.round(rng.uniform(size=n), 1)
            oracle = pooled_frame_ap([scores], [labels], 1)
            assert one_video_ap(scores, labels) == pytest.approx(oracle, abs=1e-12)


# bits of float32 values whose keys must order right: both zeros, both
# infinities, NaNs of both signs and other payloads (quiet and signalling),
# subnormals, the extremes of the normal range, and a few plain scores
_FLOAT32_EDGE_BITS = [
    0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00000,
    0x7F800001, 0xFFBFFFFF, 0x7FFFFFFF, 0xFFFFFFFF, 0x00000001, 0x80000001,
    0x007FFFFF, 0x807FFFFF, 0x00800000, 0x80800000, 0x7F7FFFFF, 0xFF7FFFFF,
    *np.array([0.5, 1.0, -1.0, 1e-30], dtype=np.float32).view(np.uint32).tolist(),
]


@st.composite
def _float32_pools(draw):
    """Float32 pools split into 0-3 places: runs of one value, drawn as bits
    (so signalling NaNs stay signalling) from the edge values or at random."""
    bits = st.one_of(st.sampled_from(_FLOAT32_EDGE_BITS), st.integers(0, 2**32 - 1))
    runs = draw(st.lists(st.tuples(bits, st.integers(1, 60)), min_size=1, max_size=30))
    pool = np.concatenate([np.full(length, b, dtype=np.uint32) for b, length in runs])
    cuts = draw(st.lists(st.integers(0, pool.size), max_size=3))
    return np.split(pool.view(np.float32), sorted(cuts))


class TestRankPooled:
    """The packed-key ranking of float32 columns against numpy's stable argsort."""

    @staticmethod
    def ranked(columns):
        keys = np.empty(sum(column.size for column in columns), dtype=np.uint64)
        return _rank_pooled(columns, keys)

    @settings(max_examples=300, deadline=None)
    @given(_float32_pools())
    def test_equals_stable_argsort_of_negated_scores(self, columns):
        pool = np.concatenate(columns)
        with np.errstate(invalid="ignore"):  # numpy's sort compares signalling NaNs
            expected = np.argsort(-pool, kind="stable")
        np.testing.assert_array_equal(self.ranked(columns), expected)

    def test_a_300k_frame_pool_of_strided_columns(self):
        # the class columns of 50 videos of 6000 frames, with long tie runs
        rng = np.random.default_rng(11)
        tracks = rng.uniform(size=(50, 6000, 2)).astype(np.float32)
        tracks[rng.random(tracks.shape) < 0.01] = 1.0
        tracks[rng.random(tracks.shape) < 0.01] = 0.0
        tracks[:, 1000:1500] = -0.0
        tracks[7, :300] = np.nan
        columns = [video[:, 1] for video in tracks]
        expected = np.argsort(-tracks[:, :, 1].ravel(), kind="stable")
        np.testing.assert_array_equal(self.ranked(columns), expected)


@st.composite
def _float32_cases(draw):
    """Float32 score matrices of 1-3 videos, their frame labels and a label
    type: the scores come from a small pool holding 0.0 and -0.0, so they
    tie within and across videos."""
    num_classes = draw(st.integers(1, 3))
    background = draw(st.booleans())
    pool = draw(st.lists(st.floats(-1.0, 1.0, width=32), max_size=3)) + [0.0, -0.0]
    videos = []
    for index in range(draw(st.integers(1, 3))):
        frames = draw(st.integers(1, 12))
        size = frames * (num_classes + background)
        values = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        labels = draw(st.lists(st.integers(0, num_classes), min_size=frames, max_size=frames))
        scores = np.array(values, dtype=np.float32).reshape(frames, -1)
        videos.append((f"v{index}", scores, np.array(labels)))
    return videos, background, draw(st.sampled_from([np.uint8, np.uint16, np.int64]))


class TestFrameLevelMap:
    @settings(max_examples=300, deadline=None)
    @given(_float32_cases())
    def test_float32_tracks_score_like_widened_ones(self, case):
        videos, background, label_type = case
        narrow = [FrameScoreTrack(v, scores, background) for v, scores, _ in videos]
        assert all(track.scores.dtype == np.float32 for track in narrow)
        wide = [
            FrameScoreTrack(v, scores.astype(np.float64), background)
            for v, scores, _ in videos
        ]
        ap, mean = frame_level_map(narrow, {v: l.astype(label_type) for v, _, l in videos})
        wide_ap, wide_mean = frame_level_map(wide, {v: l.astype(np.int64) for v, _, l in videos})
        np.testing.assert_array_equal(ap, wide_ap)
        assert mean == wide_mean

    def test_transient_memory_of_a_300k_frame_split(self):
        # 50 videos x 6000 frames x 4 classes, as eval ranks a large test
        # split: one uint64 key per frame, not an argsort and its tie arrays
        rng = np.random.default_rng(3)
        tracks, labels = [], {}
        for index in range(50):
            scores = rng.uniform(size=(6000, 5)).astype(np.float32)
            scores[rng.integers(0, 6000, 200)] = 1.0
            tracks.append(FrameScoreTrack(f"v{index:02d}", scores, True))
            labels[f"v{index:02d}"] = rng.integers(0, 5, 6000).astype(np.uint8)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            frame_level_map(tracks, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 5_000_000

    def test_perfect_oracle_scores(self):
        labels = {"a": np.array([0, 1, 1, 2, 0]), "b": np.array([2, 2, 0, 1, 0])}
        tracks = []
        for vid, frame_labels in labels.items():
            one_hot = np.zeros((frame_labels.size, 2))
            for k in (1, 2):
                one_hot[frame_labels == k, k - 1] = 1.0
            tracks.append(FrameScoreTrack(vid, one_hot, includes_background=False))
        ap, mean = frame_level_map(tracks, labels)
        np.testing.assert_allclose(ap, [1.0, 1.0])
        assert mean == 1.0

    def test_hand_built_four_frame_case(self):
        labels = {"v": np.array([1, 0, 1, 0])}
        track = track_for(labels["v"], [[0.9, 0.8, 0.3, 0.1]])
        ap, mean = frame_level_map([track], labels)
        # ranks: TP@1, FP@2, TP@3 -> (1/1 + 2/3) / 2
        assert ap[0] == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)
        assert mean == pytest.approx(ap[0])

    def test_random_scores_approach_class_prior(self):
        rng = np.random.default_rng(1)
        frames = 20000
        prior = 0.15
        labels = {"v": (rng.uniform(size=frames) < prior).astype(np.int64)}
        track = track_for(labels["v"], [rng.uniform(size=frames)])
        ap, _ = frame_level_map([track], labels)
        true_prior = labels["v"].mean()
        assert abs(ap[0] - true_prior) < 0.02

    def test_score_pooling_spans_videos(self):
        # a high-scoring false frame in another video must hurt the AP
        labels = {"a": np.array([1, 0]), "b": np.array([0, 0])}
        strong_fp = track_for(None, [[0.8, 0.1]], video="a"), track_for(
            None, [[0.9, 0.1]], video="b"
        )
        ap, _ = frame_level_map(list(strong_fp), labels)
        assert ap[0] == pytest.approx(0.5)

    def test_missing_track_is_an_error(self):
        labels = {"a": np.array([1]), "b": np.array([0])}
        track = track_for(None, [[0.5]], video="a")
        with pytest.raises(ValueError, match="missing track"):
            frame_level_map([track], labels)

    def test_length_mismatch_is_an_error(self):
        labels = {"a": np.array([1, 0, 0])}
        track = track_for(None, [[0.5, 0.5]], video="a")
        with pytest.raises(ValueError, match="labels"):
            frame_level_map([track], labels)

    def test_unrepresented_class_is_left_out_of_the_mean(self):
        labels = {"a": np.array([1, 1, 0, 0])}
        track = track_for(None, [[0.9, 0.8, 0.1, 0.2], [0.3, 0.1, 0.2, 0.4]], video="a")
        ap, mean = frame_level_map([track], labels)
        assert ap[0] == 1.0
        assert ap[1] == 0.0
        assert mean == 1.0


class TestSegmentLevelMap:
    def annotations(self, gts, num_classes=2):
        names = [f"action_{k:02d}" for k in range(1, num_classes + 1)]
        return AnnotationSet(names, ground_truth(*gts))

    def test_ground_truth_predictions_score_one(self):
        gts = [(0, 10, 1), (20, 30, 2), (40, 50, 1, "w")]
        preds = segments((0, 10, 0.9, 1), (20, 30, 0.8, 2), (40, 50, 0.7, 1, "w"))
        ap, mean = segment_level_map(preds, self.annotations(gts))
        np.testing.assert_allclose(ap, 1.0)
        np.testing.assert_allclose(mean, 1.0)
        default = inspect.signature(segment_level_map).parameters["thresholds"].default
        assert default == DEFAULT_STRONG_IOUS
        assert ap.shape == (2, len(DEFAULT_STRONG_IOUS))

    def test_iou_equal_to_threshold_is_a_false_positive(self):
        gts = [(0, 10)]
        preds = segments((0, 5, 0.9))  # IoU exactly 0.5
        ap, _ = segment_level_map(preds, self.annotations(gts), (0.5,))
        assert ap[0, 0] == 0.0

    def test_hand_built_three_versus_two(self):
        gts = [(0, 10), (20, 30)]
        preds = segments(
            (0, 10, 0.9),  # IoU 1.0 with first GT
            (0, 9, 0.8),  # IoU 0.9, but the GT is already matched
            (19, 29, 0.7),  # IoU 9/11 with second GT
        )
        ap, _ = segment_level_map(preds, self.annotations(gts), (0.5,))
        assert ap[0, 0] == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_greedy_matching_prefers_best_iou(self):
        gts = [(0, 10), (8, 18)]
        # single prediction overlapping both; must take the higher-IoU one
        preds = segments((7, 17, 0.9))
        ap, _ = segment_level_map(preds, self.annotations(gts), (0.3,))
        assert ap[0, 0] == pytest.approx(0.5)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(40):
            num_gt = int(rng.integers(1, 5))
            num_pred = int(rng.integers(0, 7))
            gts = []
            cursor = 0
            for _ in range(num_gt):
                start = cursor + int(rng.integers(0, 10))
                end = start + int(rng.integers(2, 12))
                gts.append((start, end))
                cursor = end + 1
            triples = []
            for _ in range(num_pred):
                start = int(rng.integers(0, max(2, cursor)))
                end = start + int(rng.integers(1, 14))
                triples.append((start, end, float(np.round(rng.uniform(), 3))))
            preds = segments(*triples)
            threshold = float(rng.choice([0.3, 0.5, 0.7]))
            ap, _ = segment_level_map(preds, self.annotations(gts, 1), (threshold,))
            flags, _ = match_predictions(
                oracle_rows(preds),
                gt_rows(ground_truth(*gts)),
                threshold,
                lambda a, b: iou_by_frames(a, b),
            )
            oracle = ap_by_pr_points(flags, len(gts))
            assert ap[0, 0] == pytest.approx(oracle, abs=1e-12)

    def test_multi_video_multi_class_matches_oracle(self):
        # GTs of each class spread over several videos, tied (2-decimal)
        # confidences, several thresholds at once, and predictions whose IoU
        # with a GT equals a threshold exactly
        rng = np.random.default_rng(5)
        thresholds = (0.2, 0.4, 0.5, 0.6, 0.75)
        videos = ["a", "b", "c", "d"]
        for trial in range(30):
            gts, table = [], []
            for video in videos:
                for class_id in (1, 2, 3):
                    cursor = 0
                    for _ in range(int(rng.integers(0, 4))):
                        start = cursor + int(rng.integers(0, 8))
                        end = start + int(rng.integers(4, 16))
                        gts.append((start, end, class_id, video))
                        cursor = end + 1
                    for _ in range(int(rng.integers(0, 6))):
                        start = int(rng.integers(0, max(2, cursor)))
                        end = start + int(rng.integers(1, 14))
                        conf = float(np.round(rng.uniform(), 2))
                        table.append((start, end, conf, class_id, video))
            # IoU exactly 4/8 = 0.5, 3/5 = 0.6, 1/5 = 0.2 and 3/4 = 0.75
            for video in videos[:2]:
                gts.append((100, 108, 1, video))
                table.append((100, 104, 0.5, 1, video))
                gts.append((200, 205, 2, video))
                table.append((200, 203, 0.5, 2, video))
                table.append((204, 205, 0.5, 2, video))
                gts.append((300, 304, 3, video))
                table.append((300, 303, 0.5, 3, video))
            preds = segments(*table)
            annotations = self.annotations(gts, 3)
            ap, _ = segment_level_map(preds, annotations, thresholds)
            for class_id in (1, 2, 3):
                class_preds = [p for p in oracle_rows(preds) if p[1] == class_id]
                class_gts = [g for g in gt_rows(annotations.segments) if g[1] == class_id]
                for t_idx, threshold in enumerate(thresholds):
                    flags, _ = match_predictions(
                        class_preds, class_gts, threshold, iou_by_frames
                    )
                    oracle = ap_by_pr_points(flags, len(class_gts))
                    assert ap[class_id - 1, t_idx] == pytest.approx(
                        oracle, abs=1e-12
                    )

    def test_map_never_increases_with_threshold(self):
        rng = np.random.default_rng(3)
        gts = [(i * 30, i * 30 + 12) for i in range(5)]
        preds = segments(*[
            (i * 30 + int(rng.integers(0, 8)), i * 30 + 12 + int(rng.integers(0, 8)),
             float(np.round(rng.uniform(), 2)))
            for i in range(5)
        ])
        _, mean = segment_level_map(preds, self.annotations(gts))
        diffs = np.diff(mean)
        assert np.all(diffs <= 1e-12)

    def test_ap_invariant_under_monotone_confidence_transform(self):
        gts = [(0, 10), (30, 40)]
        preds = segments((0, 8, 0.6), (29, 41, 0.3), (50, 60, 0.8))
        base, _ = segment_level_map(preds, self.annotations(gts))
        squashed = replace(preds, confidence=preds.confidence**2)
        after, _ = segment_level_map(squashed, self.annotations(gts))
        np.testing.assert_allclose(base, after)

    def test_removing_a_false_positive_never_hurts(self):
        gts = [(0, 10)]
        with_fp = segments((0, 10, 0.6), (50, 60, 0.9))
        without = segments((0, 10, 0.6))
        before, _ = segment_level_map(with_fp, self.annotations(gts), (0.5,))
        after, _ = segment_level_map(without, self.annotations(gts), (0.5,))
        assert after[0, 0] >= before[0, 0]

    def test_duplicate_on_matched_gt_never_helps(self):
        gts = [(0, 10)]
        base = segments((0, 10, 0.9))
        duplicated = segments((0, 10, 0.9), (0, 10, 0.5))
        before, _ = segment_level_map(base, self.annotations(gts), (0.5,))
        after, _ = segment_level_map(duplicated, self.annotations(gts), (0.5,))
        assert after[0, 0] <= before[0, 0]

    def read(self, path, *rows) -> Segments:
        """Predictions read from a file of ``rows`` against a two-class,
        100-frame track of ``v``, as eval reads them."""
        path.write_text(PREDICTION_HEADER + "\n" + "".join(f"{row}\n" for row in rows))
        return load_predictions(path, [FrameScoreTrack("v", np.zeros((100, 2)), False)])

    def test_rejects_unknown_video(self, tmp_path):
        gts = [(0, 10)]
        # eval rejects the video where it reads the file
        with pytest.raises(ValueError, match=r": line 3: unknown video 'mystery'$"):
            self.read(tmp_path / "p.tsv", "v\t0\t10\t1\t0.5", "mystery\t0\t10\t1\t0.9")
        # the metric itself counts a video without ground truth a false positive
        preds = segments((0, 10, 0.9, 1, "mystery"), (0, 10, 0.5))
        ap, _ = segment_level_map(preds, self.annotations(gts), (0.5,))
        assert ap[0, 0] == 0.5

    def test_first_bad_prediction_names_the_error(self, tmp_path):
        gts = [(0, 10)]
        bad = ["v\t0\t10\t1\t0.9", "v\t0\t10\t3\t0.9", "mystery\t0\t10\t1\t0.9"]
        with pytest.raises(ValueError, match=r": line 3: class id 3 outside 1\.\.2$"):
            self.read(tmp_path / "p.tsv", *bad)
        with pytest.raises(ValueError, match=r": line 2: unknown video 'mystery'$"):
            self.read(tmp_path / "p.tsv", bad[2], bad[1])
        # the metric itself ranks a class outside 1..2 in no class
        outside = segments((0, 10, 0.9, 3), (0, 10, 0.9, 0), (0, 10, 0.5))
        ap, _ = segment_level_map(outside, self.annotations(gts), (0.5,))
        assert ap.tolist() == [[1.0], [0.0]]

    def test_weak_default_thresholds(self):
        assert DEFAULT_WEAK_IOUS == (0.1, 0.2, 0.3, 0.4, 0.5)
        assert iou_thresholds(DEFAULT_WEAK_IOUS) == DEFAULT_WEAK_IOUS

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            iou_thresholds((0.5, 0.3))
        with pytest.raises(ValueError):
            iou_thresholds((0.0, 0.5))
        with pytest.raises(ValueError):
            iou_thresholds(())
        with pytest.raises(ValueError, match="strictly ascend"):
            iou_thresholds((0.5, 0.5))
        # segment_level_map checks its thresholds the same way
        with pytest.raises(ValueError, match=r"^IoU threshold 0\.0 outside \(0, 1\]$"):
            segment_level_map(segments(), self.annotations([(0, 10)]), (0.0, 0.5))


_MATCH_THRESHOLDS = (0.1, 0.2, 0.25, 1 / 3, 0.4, 0.5, 0.6, 2 / 3, 0.75, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    gts=st.lists(
        st.tuples(
            st.integers(0, 12), st.integers(1, 6),
            st.integers(1, 2), st.sampled_from(["a", "b"]),
        ),
        max_size=12,
    ),
    preds=st.lists(
        st.tuples(
            st.integers(0, 14), st.integers(1, 6),
            st.sampled_from([0.25, 0.5, 0.75, 1.0]),
            st.integers(1, 3), st.sampled_from(["a", "b", "c"]),
        ),
        max_size=16,
    ),
    thresholds=st.sets(st.sampled_from(_MATCH_THRESHOLDS), min_size=1, max_size=4),
)
# the first prediction ties at IoU 3/5 with both ground truths and must take
# the earlier one in file order, [2, 6), leaving [0, 4) to the second
@example(
    gts=[(2, 4, 1, "a"), (0, 4, 1, "a")],
    preds=[(1, 4, 1.0, 1, "a"), (0, 3, 0.5, 1, "a")],
    thresholds={0.5},
)
def test_segment_map_matches_the_greedy_oracle(gts, preds, thresholds):
    # integer intervals drawn in any order: ground truths overlap and tie in
    # IoU inside one (class, video), videos and classes interleave, and video
    # "c", class 3 and some (class, video) pairs have predictions but no
    # ground truth
    gt_record = ground_truth(*[(s, s + n, c, v) for s, n, c, v in gts])
    pred_record = segments(*[(s, s + n, p, c, v) for s, n, p, c, v in preds])
    thresholds = tuple(sorted(thresholds))
    ap, _ = segment_level_map(pred_record, AnnotationSet(["x", "y", "z"], gt_record), thresholds)
    for class_id in (1, 2, 3):
        class_preds = [p for p in oracle_rows(pred_record) if p[1] == class_id]
        class_gts = [g for g in gt_rows(gt_record) if g[1] == class_id]
        for t_idx, threshold in enumerate(thresholds):
            flags, _ = match_predictions(class_preds, class_gts, threshold, iou_by_frames)
            oracle = ap_by_pr_points(flags, len(class_gts))
            assert ap[class_id - 1, t_idx] == pytest.approx(oracle, abs=1e-12)


class TestReports:
    def make_report(self):
        gts = [(0, 10, 1), (20, 30, 2)]
        preds = segments((0, 10, 0.9, 1), (20, 28, 0.8, 2))
        names = ["action_01", "action_02"]
        ap, mean = segment_level_map(preds, AnnotationSet(names, ground_truth(*gts)))
        return EvalReport(names, DEFAULT_STRONG_IOUS, ap, mean, np.array([0.75, 0.5]), 0.625)

    def test_emission_is_deterministic(self, tmp_path):
        report = self.make_report()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(report, a)
        emit_report(report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_shape_and_labels(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.csv"
        emit_report(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "class,iou_0.3,iou_0.4,iou_0.5,iou_0.6,iou_0.7,frame_ap"
        assert len(lines) == 4  # header + 2 classes + mAP
        assert lines[-1].startswith("mAP,")
        # column count = thresholds + frame column
        assert len(lines[0].split(",")) == len(DEFAULT_STRONG_IOUS) + 2

    def test_parse_back_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.csv"
        emit_report(report, path)
        parsed = load_report(path)
        for idx, name in enumerate(report.class_names):
            for t_idx, t in enumerate(report.iou_thresholds):
                assert parsed[name][f"iou_{t:g}"] == pytest.approx(
                    report.segment_ap[idx, t_idx], abs=5e-5
                )
            assert parsed[name]["frame_ap"] == pytest.approx(
                report.frame_ap[idx], abs=5e-5
            )
        assert parsed["mAP"]["frame_ap"] == pytest.approx(report.frame_map, abs=5e-5)

    def test_rejects_duplicate_column(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("class,iou_0.5,iou_0.5\na,0.1000,0.9000\n")
        with pytest.raises(ValueError, match="duplicate report column") as err:
            load_report(path)
        assert str(path) in str(err.value)

    def test_rejects_duplicate_row(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("class,iou_0.5\na,0.1000\na,0.9000\nmAP,0.5000\n")
        with pytest.raises(ValueError, match="duplicate report row") as err:
            load_report(path)
        assert str(path) in str(err.value)
