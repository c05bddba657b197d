"""Frame tracks, grouping, NMS, and prediction files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsn.data import Segments, VideoFeatures
from fsn.localize import (
    FrameScoreTrack,
    load_predictions,
    localize,
    multi_threshold_group,
    nms,
    nms_threshold_for,
    pairwise_iou,
    slide_predict,
    track_to_segments,
    weak_score_track,
    write_predictions,
)
from fsn.model import ModelConfig, fsn_forward, init_ablation, init_fsn, init_wfsn
from oracles import greedy_nms, interval_iou, iou_by_frames, threshold_runs
from records import rows, segments

CFG = ModelConfig(num_classes=2, feature_dim=4, hidden_channels=6, snippet_len=5, clip_len=35)


def track_from_column(column, video_id="v", num_classes=1, class_id=1):
    """Build a background-free track carrying one interesting class column."""
    column = np.asarray(column, dtype=np.float64)
    scores = np.zeros((column.size, num_classes))
    scores[:, class_id - 1] = column
    return FrameScoreTrack(video_id, scores, includes_background=False)


def bounds(record):
    return list(zip(record.start.tolist(), record.end.tolist()))


class TestFrameScoreTrack:
    def test_background_column_mapping(self):
        scores = np.array([[0.7, 0.2, 0.1]])
        with_bg = FrameScoreTrack("v", scores, includes_background=True)
        assert with_bg.num_classes == 2
        assert with_bg.class_scores(1)[0] == 0.2
        without = FrameScoreTrack("v", scores, includes_background=False)
        assert without.num_classes == 3
        assert without.class_scores(1)[0] == 0.7

    def test_rejects_out_of_range_class(self):
        track = FrameScoreTrack("v", np.ones((2, 3)), includes_background=True)
        with pytest.raises(ValueError):
            track.class_scores(0)
        with pytest.raises(ValueError):
            track.class_scores(3)


class TestSlidePredict:
    @pytest.mark.parametrize("frames", [70, 36, 35, 34, 12])
    def test_track_covers_every_frame(self, frames):
        rng = np.random.default_rng(frames)
        head = init_fsn(CFG, seed=0)
        video = VideoFeatures("v", rng.standard_normal((frames, 4)))
        track = slide_predict(head, video)
        assert track.frame_count == frames
        assert track.includes_background
        np.testing.assert_allclose(track.scores.sum(axis=1), np.ones(frames), atol=1e-12)

    def test_first_window_equals_direct_forward(self):
        rng = np.random.default_rng(1)
        head = init_fsn(CFG, seed=1)
        video = VideoFeatures("v", rng.standard_normal((70, 4)))
        track = slide_predict(head, video)
        offsets = np.arange(7) * 5 + 2
        direct = fsn_forward(video.features[offsets], head, 35)
        np.testing.assert_allclose(track.scores[:35], direct)

    def test_tail_padding_repeats_last_descriptor(self):
        rng = np.random.default_rng(2)
        head = init_fsn(CFG, seed=2)
        feats = rng.standard_normal((36, 4))
        track = slide_predict(head, VideoFeatures("v", feats))
        padded = np.vstack([feats[35:], np.tile(feats[-1], (34, 1))])
        offsets = np.arange(7) * 5 + 2
        direct = fsn_forward(padded[offsets], head, 35)
        np.testing.assert_allclose(track.scores[35:], direct[:1])

    @pytest.mark.parametrize("frames", [12, 35, 87])
    def test_matches_per_window_forward(self, frames):
        # below, equal to and not divisible by clip_len
        rng = np.random.default_rng(frames + 5)
        head = init_fsn(CFG, seed=5)
        feats = rng.standard_normal((frames, 4))
        track = slide_predict(head, VideoFeatures("v", feats))
        offsets = np.arange(7) * 5 + 2
        rows = []
        for start in range(0, frames, 35):
            window = feats[start : start + 35]
            pad = np.tile(window[-1], (35 - window.shape[0], 1))
            rows.append(fsn_forward(np.vstack([window, pad])[offsets], head, 35))
        expected = np.vstack(rows)[:frames]
        assert track.scores.shape == expected.shape
        assert np.max(np.abs(track.scores - expected)) <= 1e-12

    def test_rejects_non_finite_features(self):
        head = init_fsn(CFG, seed=0)
        video = VideoFeatures("v", np.ones((40, 4)))
        video.features[37, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            slide_predict(head, video)

    def test_rejects_video_shorter_than_a_snippet(self):
        head = init_fsn(CFG, seed=0)
        with pytest.raises(ValueError, match="snippet"):
            slide_predict(head, VideoFeatures("v", np.ones((3, 4))))

    def test_rejects_weak_head(self):
        head = init_wfsn(CFG, seed=0)
        with pytest.raises(TypeError):
            slide_predict(head, VideoFeatures("v", np.ones((40, 4))))


class TestWeakScoreTrack:
    def test_one_span_per_frame_is_identity(self):
        rng = np.random.default_rng(3)
        head = init_wfsn(CFG, seed=3)
        video = VideoFeatures("v", rng.standard_normal((20, 4)))
        track = weak_score_track(head, video, positions=20)
        np.testing.assert_allclose(
            track.scores, fsn_forward(video.features, head)
        )
        assert not track.includes_background

    def test_scores_are_constant_within_spans(self):
        rng = np.random.default_rng(4)
        head = init_wfsn(CFG, seed=4)
        video = VideoFeatures("v", rng.standard_normal((20, 4)))
        track = weak_score_track(head, video, positions=5)
        for i in range(5):
            span = track.scores[4 * i : 4 * (i + 1)]
            assert np.all(span == span[0])

    def test_segment_bounds_align_to_spans(self):
        rng = np.random.default_rng(5)
        head = init_wfsn(CFG, seed=5)
        video = VideoFeatures("v", rng.standard_normal((40, 4)))
        track = weak_score_track(head, video, positions=8)
        for class_id in (1, 2):
            record = multi_threshold_group(track, class_id)
            assert np.all(record.start % 5 == 0)
            assert np.all(record.end % 5 == 0)

    @pytest.mark.parametrize("score, make", [
        (slide_predict, lambda: init_wfsn(CFG, seed=7)),
        (weak_score_track, lambda: init_fsn(CFG, seed=7)),
        (weak_score_track, lambda: init_ablation(CFG, seed=7)),
    ], ids=["slide-weak-head", "weak-dense-head", "weak-no-trunk-head"])
    def test_each_scoring_rule_rejects_the_other_head_kind(self, score, make):
        # both rules run the one forward, which would score either kind
        with pytest.raises(TypeError):
            score(make(), VideoFeatures("v", np.ones((40, 4))))

    def test_positions_clamp_to_short_videos(self):
        rng = np.random.default_rng(6)
        head = init_wfsn(CFG, seed=6)
        video = VideoFeatures("v", rng.standard_normal((7, 4)))
        track = weak_score_track(head, video, positions=100)
        assert track.frame_count == 7


class TestFloat32Features:
    """A feature file's float32 descriptors are scored in float32, to float32
    precision of their float64 widening."""

    @pytest.mark.parametrize("weak", [False, True])
    def test_tracks_match_the_widened_features(self, weak):
        narrow = np.random.default_rng(8).standard_normal((80, 4)).astype(np.float32)
        video = VideoFeatures("v", narrow)
        assert video.features.dtype == np.float32
        widened = VideoFeatures("v", narrow.astype(np.float64))
        if weak:
            head = init_wfsn(CFG, seed=8)
            tracks = [weak_score_track(head, v, positions=16) for v in (video, widened)]
        else:
            head = init_fsn(CFG, seed=8)
            tracks = [slide_predict(head, v) for v in (video, widened)]
        assert tracks[0].scores.dtype == np.float32
        assert tracks[1].scores.dtype == np.float64
        # scores are probabilities in [0, 1]: float32 holds them to about 1e-7
        np.testing.assert_allclose(tracks[0].scores, tracks[1].scores, rtol=1e-5, atol=1e-6)


class TestThresholdGroup:
    """One threshold: ``multi_threshold_group`` with a one-element sweep."""

    def test_known_example(self):
        track = track_from_column([0.1, 0.8, 0.9, 0.2])
        record = multi_threshold_group(track, 1, (0.5,))
        assert bounds(record) == [(1, 3)]
        assert record.confidence[0] == pytest.approx(0.85)
        assert rows(record)[0][3:] == (1, "v")

    def test_threshold_is_strict(self):
        track = track_from_column([0.5, 0.5])
        assert len(multi_threshold_group(track, 1, (0.5,))) == 0
        assert bounds(multi_threshold_group(track, 1, (0.49,))) == [(0, 2)]

    def test_all_below_threshold_gives_nothing(self):
        track = track_from_column([0.1, 0.2, 0.1])
        record = multi_threshold_group(track, 1, (0.9,))
        assert len(record) == 0
        assert record.confidence.shape == (0,)

    def test_runs_at_the_edges(self):
        track = track_from_column([0.9, 0.8, 0.1, 0.7, 0.1, 0.6])
        assert bounds(multi_threshold_group(track, 1, (0.5,))) == [(0, 2), (3, 4), (5, 6)]
        whole = multi_threshold_group(track, 1, (0.0,))
        assert bounds(whole) == [(0, 6)]
        assert whole.confidence[0] == track.class_scores(1).mean()

    @pytest.mark.parametrize("threshold", [-0.1, 1.01, float("nan")])
    def test_rejects_threshold_outside_unit_interval(self, threshold):
        track = track_from_column([0.5, 0.7])
        with pytest.raises(ValueError, match="outside"):
            multi_threshold_group(track, 1, (threshold,))

    def test_runs_match_mask_scan(self):
        rng = np.random.default_rng(7)
        column = rng.uniform(0, 1, size=60)
        track = track_from_column(column)
        for threshold in (0.0, 0.3, 0.7):
            record = multi_threshold_group(track, 1, (threshold,))
            covered = np.zeros(60, dtype=bool)
            for start, end in bounds(record):
                assert np.all(column[start:end] > threshold)
                # maximal: frames adjacent to the run do not qualify
                if start > 0:
                    assert column[start - 1] <= threshold
                if end < 60:
                    assert column[end] <= threshold
                covered[start:end] = True
            np.testing.assert_array_equal(covered, column > threshold)

    def test_confidence_equals_ndarray_mean_bit_for_bit(self):
        # numpy sums up to 8 values in a plain loop, up to 128 with unrolled
        # partial sums and longer runs pairwise: cover each regime, on a
        # strided class column as a real track holds it
        rng = np.random.default_rng(23)
        lengths = [1, 2, 3, 5, 8, 9, 17, 64, 127, 128, 129, 300, 1001]
        column = np.concatenate(
            [np.concatenate([[0.0], rng.uniform(0.2, 1.0, size=n)]) for n in lengths]
        )
        track = track_from_column(column, num_classes=3, class_id=2)
        scores = track.class_scores(2)
        assert not scores.flags.c_contiguous
        record = multi_threshold_group(track, 2, (0.1,))
        assert (record.end - record.start).tolist() == lengths
        for (start, end), confidence in zip(bounds(record), record.confidence):
            assert confidence == scores[start:end].mean()


class TestMultiThresholdGroup:
    def test_unimodal_bump_yields_nested_distinct_segments(self):
        column = np.array([0.05, 0.35, 0.65, 0.95, 0.65, 0.35, 0.05])
        track = track_from_column(column)
        keys = bounds(multi_threshold_group(track, 1))
        assert len(keys) == len(set(keys))
        assert len(keys) == 4  # thresholds 0.0, 0.3, 0.6, 0.9 carve new runs
        ordered = sorted(keys)
        for (outer_s, outer_e), (inner_s, inner_e) in zip(ordered, ordered[1:]):
            assert outer_s <= inner_s and inner_e <= outer_e

    def test_duplicates_collapse(self):
        track = track_from_column([0.0, 1.0, 1.0, 0.0])
        assert bounds(multi_threshold_group(track, 1)) == [(1, 3)]

    def test_equals_first_appearance_union_of_single_thresholds(self):
        rng = np.random.default_rng(19)
        track = track_from_column(np.round(rng.uniform(size=200), 2))
        sweep = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)
        expected, seen = [], set()
        for threshold in sweep:
            record = multi_threshold_group(track, 1, (threshold,))
            for key, confidence in zip(bounds(record), record.confidence):
                if key not in seen:
                    seen.add(key)
                    expected.append((*key, confidence))
        got = multi_threshold_group(track, 1, sweep)
        assert [(*key, c) for key, c in zip(bounds(got), got.confidence)] == expected

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.45, 0.5, 0.7, 0.9, 1.0]),
                 min_size=1, max_size=80),
        st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.45, 0.5, 0.8, 1.0]),
                 min_size=0, max_size=6, unique=True),
        st.integers(1, 3),
    )
    def test_matches_per_threshold_scan_oracle(self, column, thresholds, class_id):
        # thresholds in any order, scores on and between them, the class
        # column strided inside a wider track
        track = track_from_column(column, num_classes=3, class_id=class_id)
        record = multi_threshold_group(track, class_id, tuple(thresholds))
        oracle = threshold_runs(track.class_scores(class_id), thresholds)
        assert len(record) == len(oracle)
        assert record.start.dtype == record.end.dtype == np.int64
        assert [(*key, c) for key, c in zip(bounds(record), record.confidence)] == oracle

    def test_float32_track_groups_like_its_widened_copy(self):
        # a track read from its file stays float32; confidences are float64 means
        scores = np.random.default_rng(4).uniform(size=(300, 3)).astype(np.float32)
        narrow = FrameScoreTrack("v", scores, includes_background=True)
        wide = FrameScoreTrack("v", scores.astype(np.float64), includes_background=True)
        assert narrow.scores.dtype == np.float32
        for class_id in (1, 2):
            got, expected = (multi_threshold_group(t, class_id) for t in (narrow, wide))
            assert rows(got) == rows(expected)
            assert got.confidence.dtype == np.float64

    def test_rejects_threshold_outside_unit_interval(self):
        with pytest.raises(ValueError, match="threshold"):
            multi_threshold_group(track_from_column([0.5, 0.7]), 1, (0.2, 1.5))


class TestTemporalIoU:
    """``pairwise_iou``, the one IoU kernel of NMS and evaluation."""

    @staticmethod
    def iou(a, b):
        return pairwise_iou([a[0]], [a[1]], [b[0]], [b[1]])[0, 0]

    def test_known_value(self):
        assert self.iou((10, 20), (15, 25)) == 1.0 / 3.0

    def test_disjoint_and_touching(self):
        assert self.iou((0, 5), (7, 9)) == 0.0
        assert self.iou((0, 5), (5, 10)) == 0.0

    def test_identical(self):
        assert self.iou((3, 9), (3, 9)) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 50), st.integers(1, 30), st.integers(0, 50), st.integers(1, 30))
    def test_matches_frame_set_oracle_and_symmetry(self, a_start, a_len, b_start, b_len):
        a = (a_start, a_start + a_len)
        b = (b_start, b_start + b_len)
        matrix = pairwise_iou([a[0], b[0]], [a[1], b[1]], [b[0], a[0]], [b[1], a[1]])
        assert matrix.shape == (2, 2)
        assert matrix[0, 0] == iou_by_frames(a, b)
        assert matrix[0, 1] == 1.0
        assert matrix[1, 0] == 1.0
        assert matrix[1, 1] == matrix[0, 0]
        # one row of intervals per interval of a
        rowwise = pairwise_iou([a[0], b[0]], [a[1], b[1]], [[b[0]], [a[0]]], [[b[1]], [a[1]]])
        assert rowwise[:, 0].tolist() == [matrix[0, 0], matrix[1, 1]]

    def test_pairwise_equals_scalar_on_fractional_bounds(self):
        # non-integer bounds round, so only the same op order gives equal bits
        rng = np.random.default_rng(9)
        starts = rng.uniform(0, 50, size=40)
        ends = starts + rng.uniform(0.1, 30, size=40)
        matrix = pairwise_iou(starts[:20], ends[:20], starts[20:], ends[20:])
        for i in range(20):
            for j in range(20):
                scalar = interval_iou((starts[i], ends[i]), (starts[20 + j], ends[20 + j]))
                assert matrix[i, j] == scalar

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(0.01, 50)), min_size=1, max_size=8))
    def test_swapping_sides_transposes_bit_for_bit(self, intervals):
        starts = np.array([start for start, _ in intervals])
        ends = starts + np.array([length for _, length in intervals])
        half = len(intervals) // 2
        a, b = (starts[:half + 1], ends[:half + 1]), (starts[half:], ends[half:])
        np.testing.assert_array_equal(pairwise_iou(*a, *b), pairwise_iou(*b, *a).T)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            pairwise_iou([5], [5], [0], [3])
        with pytest.raises(ValueError):
            pairwise_iou([0, 5], [3, 5], [0], [3])


class TestNms:
    def test_keeps_best_of_overlapping_pair(self):
        # IoU 8/14 > 0.4
        kept = nms(segments((2, 12, 0.8), (0, 10, 0.9)), 0.4)
        assert rows(kept) == [(0, 10, 0.9, 1, "v")]

    def test_classes_do_not_suppress_each_other(self):
        # two classes scoring the same run: each keeps its own segment
        column = np.array([0.0, 0.9, 0.9, 0.9, 0.0])
        track = FrameScoreTrack(
            "v", np.stack([column, column], axis=1), includes_background=False
        )
        kept = track_to_segments(track, 0.4)
        assert rows(kept) == [(1, 4, 0.9, 1, "v"), (1, 4, 0.9, 2, "v")]

    def test_confidence_tie_prefers_earlier_then_shorter(self):
        kept = nms(segments((5, 15, 0.7), (0, 12, 0.7), (0, 10, 0.7)), 0.0)
        assert rows(kept)[0] == (0, 10, 0.7, 1, "v")

    def test_threshold_zero_keeps_disjoint_segments(self):
        kept = nms(segments((0, 5, 0.9), (5, 10, 0.5)), 0.0)
        assert sorted(rows(kept)) == [(0, 5, 0.9, 1, "v"), (5, 10, 0.5, 1, "v")]

    def test_empty_record_keeps_nothing(self):
        record = multi_threshold_group(track_from_column([0.1, 0.2]), 1, (0.5,))
        assert len(nms(record, 0.4)) == 0

    @pytest.mark.parametrize("threshold", [0.0, 0.2, 0.4, 0.6])
    def test_matches_greedy_oracle(self, threshold):
        rng = np.random.default_rng(int(threshold * 10))
        for trial in range(25):
            triples = []
            for _ in range(int(rng.integers(1, 9))):
                start = int(rng.integers(0, 40))
                end = start + int(rng.integers(1, 15))
                triples.append((start, end, float(np.round(rng.uniform(0, 1), 3))))
            kept = nms(segments(*triples), threshold)
            oracle = greedy_nms(
                triples,
                lambda x, y: iou_by_frames((x[0], x[1]), (y[0], y[1])),
                threshold,
            )
            assert sorted(row[:3] for row in rows(kept)) == sorted(oracle)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(1, 20), st.sampled_from([0.3, 0.6, 0.9])),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from([0.0, 0.2, 0.4, 0.6]),
    )
    def test_keeps_the_greedy_oracle_rows_in_order_on_general_intervals(self, draws, threshold):
        # intervals that need not nest, with repeated starts and tied
        # confidences, so the tie order decides which rows are kept
        triples = [(start, start + length, confidence) for start, length, confidence in draws]
        kept = nms(segments(*triples), threshold)
        oracle = greedy_nms(
            triples,
            lambda x, y: iou_by_frames((x[0], x[1]), (y[0], y[1])),
            threshold,
        )
        assert [row[:3] for row in rows(kept)] == oracle

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.4, 0.6])
    def test_matches_greedy_oracle_on_grouped_tracks(self, threshold):
        # grouping a wandering track quantized to one decimal gives nested
        # candidate sets of ~150-190 per class, many with tied confidences
        rng = np.random.default_rng(100 + int(threshold * 10))
        for trial in range(3):
            walk = np.cumsum(rng.normal(0, 0.15, size=(500, 2)), axis=0)
            track = FrameScoreTrack(
                "v", np.round(np.abs(np.sin(walk)), 1), includes_background=False
            )
            for class_id in (1, 2):
                record = multi_threshold_group(track, class_id)
                kept = nms(record, threshold)
                assert all(row[3:] == (class_id, "v") for row in rows(kept))
                triples = list(zip(
                    record.start.tolist(), record.end.tolist(), record.confidence.tolist()
                ))
                assert len(triples) > 100
                assert len({c for _, _, c in triples}) < len(triples)
                oracle = greedy_nms(
                    triples,
                    lambda x, y: iou_by_frames((x[0], x[1]), (y[0], y[1])),
                    threshold,
                )
                assert [row[:3] for row in rows(kept)] == oracle

    def test_nms_threshold_rule(self):
        assert nms_threshold_for(0.5) == pytest.approx(0.4)
        assert nms_threshold_for(0.1) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            nms_threshold_for(0.0)


class TestLocalizePipelines:
    def test_strong_pipeline_output_is_sorted_and_bounded(self):
        rng = np.random.default_rng(8)
        head = init_fsn(CFG, seed=8)
        videos = [
            VideoFeatures("vid_b", rng.standard_normal((80, 4))),
            VideoFeatures("vid_a", rng.standard_normal((50, 4))),
        ]
        predictions = localize(head, videos, eval_iou=0.5)
        assert len(predictions)
        keys = [(v, c, s, e) for s, e, _, c, v in rows(predictions)]
        assert keys == sorted(keys)
        assert np.all((predictions.confidence >= 0.0) & (predictions.confidence <= 1.0))
        assert np.all((predictions.start >= 0) & (predictions.start < predictions.end))

    def test_equals_per_track_segments_concatenated_and_sorted(self):
        rng = np.random.default_rng(11)
        head = init_fsn(CFG, seed=11)
        videos = [
            VideoFeatures("vid_b", rng.standard_normal((90, 4))),
            VideoFeatures("vid_c", rng.standard_normal((40, 4))),
            VideoFeatures("vid_a", rng.standard_normal((60, 4))),
        ]
        tracks, reached = [], []

        def one_shot():
            for video in videos:
                # every track before this video's has been handed over
                assert len(tracks) == len(reached)
                reached.append(video.video_id)
                yield video

        predictions = localize(head, one_shot(), eval_iou=0.5, on_track=tracks.append)
        assert [t.video_id for t in tracks] == ["vid_b", "vid_c", "vid_a"]
        assert reached == ["vid_b", "vid_c", "vid_a"]
        for track, video in zip(tracks, videos):
            expected = slide_predict(head, video)
            assert np.array_equal(track.scores, expected.scores)
        per_track = [
            row for track in tracks
            for row in rows(track_to_segments(track, nms_threshold_for(0.5)))
        ]
        assert {row[4] for row in per_track} == {"vid_a", "vid_b", "vid_c"}
        expected = sorted(per_track, key=lambda r: (r[4], r[3], r[0], r[1]))
        assert rows(predictions) == expected

    def test_kept_segments_respect_nms_within_class(self):
        rng = np.random.default_rng(9)
        head = init_fsn(CFG, seed=9)
        video = VideoFeatures("v", rng.standard_normal((120, 4)))
        predictions = localize(head, [video], eval_iou=0.5)
        for class_id in (1, 2):
            mine = [row[:2] for row in rows(predictions) if row[3] == class_id]
            for i, a in enumerate(mine):
                for b in mine[i + 1 :]:
                    assert iou_by_frames(a, b) <= 0.4 + 1e-12

    def test_weak_pipeline_runs_end_to_end(self):
        rng = np.random.default_rng(10)
        head = init_wfsn(CFG, seed=10)
        videos = [VideoFeatures("v", rng.standard_normal((60, 4)))]
        predictions = localize(head, videos, eval_iou=0.3, positions=12)
        assert np.all(predictions.start % 5 == 0) and np.all(predictions.end % 5 == 0)
        assert np.all((predictions.confidence >= 0.0) & (predictions.confidence <= 1.0))


HEADER = "video_id\tstart\tend\tclass_id\tconfidence\n"


class TestPredictionFiles:
    def test_round_trip_keeps_rows_in_order(self, tmp_path):
        path = tmp_path / "pred.tsv"
        predictions = segments(
            (10, 30, 0.75, 2, "vid_b"), (0, 5, 0.5, 1, "vid_a"), (8, 12, 0.25, 1, "vid_a")
        )
        write_predictions(predictions, path)
        loaded = load_predictions(path)
        assert rows(loaded) == rows(predictions)
        assert loaded.start.dtype == loaded.end.dtype == loaded.class_id.dtype == np.int64
        assert loaded.confidence.dtype == np.float64

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(0, 500), st.integers(1, 80), st.integers(0, 10**6),
            st.integers(1, 4), st.sampled_from(["a", "b", "vid_10", "vid_2"]),
        ),
        max_size=40,
    ))
    def test_write_then_load_returns_the_sorted_columns(self, tmp_path_factory, drawn):
        # confidences of six decimals survive the file's fixed format exactly
        table = sorted(
            {(v, c, s, s + n, p / 10**6) for s, n, p, c, v in drawn},
            key=lambda r: r[:4],
        )
        predictions = segments(*[(s, e, p, c, v) for v, c, s, e, p in table])
        path = tmp_path_factory.mktemp("pred") / "pred.tsv"
        write_predictions(predictions, path)
        loaded = load_predictions(path)
        for got, expected in zip(loaded.columns(), predictions.columns()):
            np.testing.assert_array_equal(got, expected)
            assert got.dtype.kind == expected.dtype.kind

    def test_confidence_has_six_decimals(self, tmp_path):
        path = tmp_path / "pred.tsv"
        write_predictions(segments((0, 5, 1.0 / 3.0)), path)
        assert path.read_text().splitlines()[1].endswith("\t0.333333")

    def test_write_is_deterministic(self, tmp_path):
        predictions = segments((0, 5, 0.5), (3, 9, 0.25, 2))
        paths = [tmp_path / name for name in ("a.tsv", "b.tsv", "c.tsv")]
        write_predictions(predictions, paths[0])
        write_predictions(predictions, paths[1])
        write_predictions(predictions.take(np.array([1, 0])), paths[2])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        lines = paths[0].read_text().splitlines()
        assert paths[2].read_text().splitlines() == [lines[0], lines[2], lines[1]]

    def test_empty_predictions_give_header_only(self, tmp_path):
        path = tmp_path / "pred.tsv"
        write_predictions(Segments.concatenate([]), path)
        assert path.read_text() == HEADER
        loaded = load_predictions(path)
        assert len(loaded) == 0
        assert loaded.start.dtype == np.int64 and loaded.confidence.dtype == np.float64

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "pred.tsv"
        path.write_text("vid\t0\t5\t1\t0.5\n")
        with pytest.raises(ValueError, match="header"):
            load_predictions(path)

    def test_rejects_bad_confidence(self, tmp_path):
        path = tmp_path / "pred.tsv"
        path.write_text(HEADER + "v\t0\t5\t1\t1.5\n")
        with pytest.raises(ValueError, match="line 2: confidence 1.5 outside"):
            load_predictions(path)

    def test_rejects_bad_interval(self, tmp_path):
        path = tmp_path / "pred.tsv"
        path.write_text(HEADER + "v\t0\t5\t1\t0.5\n\nv\t7\t7\t1\t0.5\n")
        with pytest.raises(ValueError, match=r"line 4: bad segment \[7, 7\)"):
            load_predictions(path)

    def test_rejects_class_id_zero(self, tmp_path):
        path = tmp_path / "pred.tsv"
        path.write_text(HEADER + "v\t0\t5\t1\t0.5\nv\t0\t5\t0\t0.5\n")
        with pytest.raises(ValueError, match="line 3: class ids start at 1, got 0"):
            load_predictions(path)
