"""AP kernels, frame/segment mAP, and report emission."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsn.data import AnnotationSet, GroundTruthSegment
from fsn.evaluate import (
    DEFAULT_STRONG_IOUS,
    DEFAULT_WEAK_IOUS,
    EvalConfig,
    average_precision,
    emit_report,
    frame_level_map,
    load_report,
    rank_descending,
    segment_level_map,
)
from fsn.localize import FrameScoreTrack
from oracles import ap_by_pr_points, iou_by_frames, match_predictions
from records import rows, segments


def oracle_rows(predictions):
    """(video, class, start, end, confidence) rows, as the oracles take them."""
    return [(v, c, s, e, p) for s, e, p, c, v in rows(predictions)]


def gt(start, end, class_id=1, video="v"):
    return GroundTruthSegment(video, start, end, class_id)


def track_for(labels, scores_by_class, video="v"):
    """Background-free track from per-class score columns."""
    scores = np.stack([np.asarray(c, dtype=np.float64) for c in scores_by_class], axis=1)
    return FrameScoreTrack(video, scores, includes_background=False)


class TestAveragePrecision:
    def test_all_positives_first(self):
        ranked = [(0.9, True), (0.8, True), (0.2, False)]
        assert average_precision(ranked, 2) == 1.0

    def test_single_positive_at_rank_two(self):
        ranked = [(0.9, False), (0.5, True)]
        assert average_precision(ranked, 1) == 0.5

    def test_zero_positives(self):
        assert average_precision([(0.5, False)], 0) == 0.0
        assert average_precision([], 0) == 0.0

    def test_missed_positives_cap_the_score(self):
        # one of two positives never retrieved
        assert average_precision([(0.9, True)], 2) == 0.5

    def test_rejects_negative_positive_count(self):
        with pytest.raises(ValueError):
            average_precision([], -1)

    def test_ties_keep_stable_input_order(self):
        fp_first = [(0.5, False), (0.5, True)]
        tp_first = [(0.5, True), (0.5, False)]
        assert average_precision(fp_first, 1) == 0.5
        assert average_precision(tp_first, 1) == 1.0

    def test_matches_pr_summation_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            flags = rng.uniform(size=n) < 0.4
            confidences = np.round(rng.uniform(size=n), 2)
            extra_missed = int(rng.integers(0, 3))
            num_positives = int(flags.sum()) + extra_missed
            if num_positives == 0:
                continue
            ranked = list(zip(confidences, flags))
            mine = average_precision(ranked, num_positives)
            order = np.argsort(-confidences, kind="stable")
            oracle = ap_by_pr_points(flags[order], num_positives)
            assert mine == pytest.approx(oracle, abs=1e-12)


def _few_distinct():
    return st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=300)


def _all_equal():
    return st.builds(
        lambda value, n: [value] * n,
        st.sampled_from([0.0, -0.0, 0.5, 1.0]),
        st.integers(1, 300),
    )


def _float32_exact():
    # values a float32 track file can hold, drawn from a small pool so they tie
    pool = st.lists(st.floats(0.0, 1.0, width=32), min_size=1, max_size=6)
    return pool.flatmap(lambda values: st.lists(st.sampled_from(values), min_size=1, max_size=300))


def _any_float():
    return st.lists(st.floats(width=32, allow_nan=True), min_size=1, max_size=100)


class TestRankDescending:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_few_distinct(), _all_equal(), _float32_exact(), _any_float()))
    def test_equals_stable_argsort_of_negated_scores(self, values):
        scores = np.array(values, dtype=np.float64)
        expected = np.argsort(-scores, kind="stable")
        np.testing.assert_array_equal(rank_descending(scores), expected)

    @pytest.mark.parametrize(
        "scores, expected",
        [([], []), ([0.3], [0]), ([0.0, -0.0, 1.0, -0.0, 0.0], [2, 0, 1, 3, 4])],
    )
    def test_small_cases(self, scores, expected):
        np.testing.assert_array_equal(rank_descending(np.array(scores)), expected)

    @pytest.mark.parametrize("kind", ["float32", "nan"])
    def test_large_column_with_ties(self, kind):
        # ~300k frames as in a large test split: the default sort's order of
        # tied scores is arbitrary at this size
        rng = np.random.default_rng(5)
        if kind == "float32":
            scores = rng.uniform(size=300_000).astype(np.float32).astype(np.float64)
            scores[rng.integers(0, scores.size, 600)] = 1.0
            scores[rng.integers(0, scores.size, 300)] = np.float32(1e-7)
        else:
            scores = rng.choice([0.0, 0.5, 1.0, np.nan, -np.nan], size=5000)
        expected = np.argsort(-scores, kind="stable")
        np.testing.assert_array_equal(rank_descending(scores), expected)


class TestFrameLevelMap:
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
    def annotations(self, segments, num_classes=2):
        names = [f"action_{k:02d}" for k in range(1, num_classes + 1)]
        return AnnotationSet(names, segments)

    def test_ground_truth_predictions_score_one(self):
        gts = [gt(0, 10, 1), gt(20, 30, 2), gt(40, 50, 1, video="w")]
        preds = segments((0, 10, 0.9, 1), (20, 30, 0.8, 2), (40, 50, 0.7, 1, "w"))
        report = segment_level_map(preds, self.annotations(gts))
        np.testing.assert_allclose(report.segment_ap, 1.0)
        np.testing.assert_allclose(report.segment_map, 1.0)
        assert report.iou_thresholds == DEFAULT_STRONG_IOUS

    def test_iou_equal_to_threshold_is_a_false_positive(self):
        gts = [gt(0, 10)]
        preds = segments((0, 5, 0.9))  # IoU exactly 0.5
        config = EvalConfig(num_classes=2, iou_thresholds=(0.5,))
        report = segment_level_map(preds, self.annotations(gts), config)
        assert report.segment_ap[0, 0] == 0.0

    def test_hand_built_three_versus_two(self):
        gts = [gt(0, 10), gt(20, 30)]
        preds = segments(
            (0, 10, 0.9),  # IoU 1.0 with first GT
            (0, 9, 0.8),  # IoU 0.9, but the GT is already matched
            (19, 29, 0.7),  # IoU 9/11 with second GT
        )
        config = EvalConfig(num_classes=2, iou_thresholds=(0.5,))
        report = segment_level_map(preds, self.annotations(gts), config)
        assert report.segment_ap[0, 0] == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_greedy_matching_prefers_best_iou(self):
        gts = [gt(0, 10), gt(8, 18)]
        # single prediction overlapping both; must take the higher-IoU one
        preds = segments((7, 17, 0.9))
        config = EvalConfig(num_classes=2, iou_thresholds=(0.3,))
        report = segment_level_map(preds, self.annotations(gts), config)
        assert report.segment_ap[0, 0] == pytest.approx(0.5)

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
                gts.append(gt(start, end))
                cursor = end + 1
            triples = []
            for _ in range(num_pred):
                start = int(rng.integers(0, max(2, cursor)))
                end = start + int(rng.integers(1, 14))
                triples.append((start, end, float(np.round(rng.uniform(), 3))))
            preds = segments(*triples)
            threshold = float(rng.choice([0.3, 0.5, 0.7]))
            config = EvalConfig(num_classes=1, iou_thresholds=(threshold,))
            report = segment_level_map(preds, self.annotations(gts, 1), config)
            flags, _ = match_predictions(
                oracle_rows(preds),
                [(g.video_id, g.class_id, g.start, g.end) for g in gts],
                threshold,
                lambda a, b: iou_by_frames(a, b),
            )
            oracle = ap_by_pr_points(flags, len(gts))
            assert report.segment_ap[0, 0] == pytest.approx(oracle, abs=1e-12)

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
                        gts.append(gt(start, end, class_id, video))
                        cursor = end + 1
                    for _ in range(int(rng.integers(0, 6))):
                        start = int(rng.integers(0, max(2, cursor)))
                        end = start + int(rng.integers(1, 14))
                        conf = float(np.round(rng.uniform(), 2))
                        table.append((start, end, conf, class_id, video))
            # IoU exactly 4/8 = 0.5, 3/5 = 0.6, 1/5 = 0.2 and 3/4 = 0.75
            for video in videos[:2]:
                gts.append(gt(100, 108, 1, video))
                table.append((100, 104, 0.5, 1, video))
                gts.append(gt(200, 205, 2, video))
                table.append((200, 203, 0.5, 2, video))
                table.append((204, 205, 0.5, 2, video))
                gts.append(gt(300, 304, 3, video))
                table.append((300, 303, 0.5, 3, video))
            preds = segments(*table)
            annotations = self.annotations(gts, 3)
            config = EvalConfig(num_classes=3, iou_thresholds=thresholds)
            report = segment_level_map(preds, annotations, config)
            for class_id in (1, 2, 3):
                class_preds = [p for p in oracle_rows(preds) if p[1] == class_id]
                class_gts = [
                    (g.video_id, g.class_id, g.start, g.end)
                    for g in gts
                    if g.class_id == class_id
                ]
                for t_idx, threshold in enumerate(thresholds):
                    flags, _ = match_predictions(
                        class_preds, class_gts, threshold, iou_by_frames
                    )
                    oracle = ap_by_pr_points(flags, len(class_gts))
                    assert report.segment_ap[class_id - 1, t_idx] == pytest.approx(
                        oracle, abs=1e-12
                    )

    def test_map_never_increases_with_threshold(self):
        rng = np.random.default_rng(3)
        gts = [gt(i * 30, i * 30 + 12) for i in range(5)]
        preds = segments(*[
            (i * 30 + int(rng.integers(0, 8)), i * 30 + 12 + int(rng.integers(0, 8)),
             float(np.round(rng.uniform(), 2)))
            for i in range(5)
        ])
        report = segment_level_map(preds, self.annotations(gts))
        diffs = np.diff(report.segment_map)
        assert np.all(diffs <= 1e-12)

    def test_ap_invariant_under_monotone_confidence_transform(self):
        gts = [gt(0, 10), gt(30, 40)]
        preds = segments((0, 8, 0.6), (29, 41, 0.3), (50, 60, 0.8))
        base = segment_level_map(preds, self.annotations(gts))
        squashed = replace(preds, confidence=preds.confidence**2)
        after = segment_level_map(squashed, self.annotations(gts))
        np.testing.assert_allclose(base.segment_ap, after.segment_ap)

    def test_removing_a_false_positive_never_hurts(self):
        gts = [gt(0, 10)]
        with_fp = segments((0, 10, 0.6), (50, 60, 0.9))
        without = segments((0, 10, 0.6))
        config = EvalConfig(num_classes=2, iou_thresholds=(0.5,))
        before = segment_level_map(with_fp, self.annotations(gts), config)
        after = segment_level_map(without, self.annotations(gts), config)
        assert after.segment_ap[0, 0] >= before.segment_ap[0, 0]

    def test_duplicate_on_matched_gt_never_helps(self):
        gts = [gt(0, 10)]
        base = segments((0, 10, 0.9))
        duplicated = segments((0, 10, 0.9), (0, 10, 0.5))
        config = EvalConfig(num_classes=2, iou_thresholds=(0.5,))
        before = segment_level_map(base, self.annotations(gts), config)
        after = segment_level_map(duplicated, self.annotations(gts), config)
        assert after.segment_ap[0, 0] <= before.segment_ap[0, 0]

    def test_rejects_unknown_video(self):
        gts = [gt(0, 10)]
        preds = segments((0, 10, 0.9, 1, "mystery"))
        with pytest.raises(ValueError, match="unknown video"):
            segment_level_map(preds, self.annotations(gts))
        # explicit universe admits videos without ground truth
        report = segment_level_map(
            preds, self.annotations(gts), video_ids={"v", "mystery"}
        )
        assert report.segment_ap[0, 0] == 0.0

    def test_first_bad_prediction_names_the_error(self):
        gts = [gt(0, 10)]
        preds = segments((0, 10, 0.9), (0, 10, 0.9, 3), (0, 10, 0.9, 1, "mystery"))
        with pytest.raises(ValueError, match=r"^prediction class 3 outside 1\.\.2$"):
            segment_level_map(preds, self.annotations(gts))
        with pytest.raises(ValueError, match="^prediction references unknown video 'mystery'$"):
            segment_level_map(preds.take(np.array([2, 1])), self.annotations(gts))

    def test_weak_default_thresholds(self):
        assert DEFAULT_WEAK_IOUS == (0.1, 0.2, 0.3, 0.4, 0.5)
        config = EvalConfig(num_classes=1, iou_thresholds=DEFAULT_WEAK_IOUS)
        assert config.iou_thresholds == DEFAULT_WEAK_IOUS

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            EvalConfig(num_classes=1, iou_thresholds=(0.5, 0.3))
        with pytest.raises(ValueError):
            EvalConfig(num_classes=1, iou_thresholds=(0.0, 0.5))
        with pytest.raises(ValueError):
            EvalConfig(num_classes=1, iou_thresholds=())
        with pytest.raises(ValueError, match="strictly ascend"):
            EvalConfig(num_classes=1, iou_thresholds=(0.5, 0.5))


class TestReports:
    def make_report(self):
        gts = [gt(0, 10, 1), gt(20, 30, 2)]
        preds = segments((0, 10, 0.9, 1), (20, 28, 0.8, 2))
        names = ["action_01", "action_02"]
        report = segment_level_map(preds, AnnotationSet(names, gts))
        report.frame_ap = np.array([0.75, 0.5])
        report.frame_map = 0.625
        return report

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

    def test_report_without_frame_column(self, tmp_path):
        report = self.make_report()
        report.frame_ap = None
        report.frame_map = None
        path = tmp_path / "report.csv"
        emit_report(report, path)
        header = path.read_text().splitlines()[0]
        assert header == "class,iou_0.3,iou_0.4,iou_0.5,iou_0.6,iou_0.7"

