"""Feature/annotation IO, training windows, synthetic corpus."""

import logging
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsn.data import (
    SEGMENT_DTYPES,
    AnnotationSet,
    FeatureHeader,
    SynthConfig,
    VideoFeatures,
    clip_majority_class,
    label_frames,
    load_annotations,
    load_feature_dir,
    load_features,
    load_manifest,
    make_clips,
    read_feature_header,
    rebalance,
    snippet_centers,
    write_annotations,
    write_features,
    write_manifest,
)
from fsn.localize import PREDICTION_HEADER, FrameScoreTrack, load_predictions
from oracles import list_rebalance, window_majority_class, window_scan
from records import ground_truth, gt_rows, rows, segments, synth_corpus


def video_with_ramp(video_id="vid", frames=70, dim=3):
    feats = np.tile(np.arange(frames, dtype=np.float64)[:, None], (1, dim))
    return VideoFeatures(video_id, feats)


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        video = VideoFeatures("clip_a", rng.standard_normal((12, 4)).astype(np.float32))
        path = tmp_path / "clip_a.fsnf"
        write_features(video, path)
        loaded = load_features(path)
        assert loaded.video_id == "clip_a"
        np.testing.assert_array_equal(loaded.features, video.features)
        # the stored precision is kept, read-only; the model widens at its entry
        assert loaded.features.dtype == np.float32
        assert not loaded.features.flags.writeable

    def test_other_descriptor_types_become_float64(self):
        wide = np.ones((3, 2))
        assert VideoFeatures("v", wide).features is wide
        for given in (np.ones((3, 2), dtype=np.int64), np.ones((3, 2), dtype=np.float16), [[1, 2]]):
            assert VideoFeatures("v", given).features.dtype == np.float64

    def test_write_rejects_descriptors_beyond_float32(self, tmp_path):
        largest = float(np.finfo(np.float32).max)
        write_features(VideoFeatures("edge", np.full((2, 3), -largest)), tmp_path / "edge.fsnf")
        np.testing.assert_array_equal(load_features(tmp_path / "edge.fsnf").features, -largest)
        path = tmp_path / "big.fsnf"
        with pytest.raises(ValueError, match="^big: features are not finite as float32$"):
            write_features(VideoFeatures("big", np.full((2, 3), 1e39)), path)
        assert not path.exists()

    def test_video_id_comes_from_filename(self, tmp_path):
        video = VideoFeatures("whatever", np.ones((3, 2)))
        path = tmp_path / "stored_name.fsnf"
        write_features(video, path)
        assert load_features(path).video_id == "stored_name"

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "x.fsnf"
        path.write_bytes(b"JUNK" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_features(path)

    def test_rejects_truncated_payload(self, tmp_path):
        video = VideoFeatures("v", np.ones((5, 3)))
        path = tmp_path / "v.fsnf"
        write_features(video, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="payload"):
            load_features(path)

    def test_rejects_zero_width_descriptors(self, tmp_path):
        with pytest.raises(ValueError, match="both at least 1"):
            VideoFeatures("v", np.ones((5, 0)))
        path = tmp_path / "v.fsnf"
        for dim, frames in ((0, 5), (5, 0)):
            path.write_bytes(struct.pack("<4sIII", b"FSNF", 1, dim, frames))
            with pytest.raises(ValueError, match=f"{path}: {frames} frames of dimension {dim}"):
                load_features(path)

    def test_header_reads_the_header_alone(self, tmp_path):
        path = tmp_path / "clip_h.fsnf"
        write_features(VideoFeatures("any", np.ones((7, 3))), path)
        assert read_feature_header(path) == FeatureHeader("clip_h", 7, 3)
        # a payload that load_features refuses still has a sound header
        raw = bytearray(path.read_bytes())
        raw[16:20] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(raw))
        assert read_feature_header(path) == FeatureHeader("clip_h", 7, 3)
        with pytest.raises(ValueError, match="non-finite"):
            load_features(path)

    @pytest.mark.parametrize(
        "content",
        [
            b"FSN",  # truncated header
            b"JUNK" + b"\x00" * 32,
            struct.pack("<4sIII", b"FSNF", 2, 3, 5) + b"\x00" * 60,
            struct.pack("<4sIII", b"FSNF", 1, 0, 5),
            struct.pack("<4sIII", b"FSNF", 1, 3, 5) + b"\x00" * 56,
            struct.pack("<4sIII", b"FSNF", 1, 3, 5) + b"\x00" * 64,
        ],
        ids=["truncated", "magic", "version", "zero-dim", "short-payload", "long-payload"],
    )
    def test_header_checks_match_the_full_load(self, tmp_path, content):
        path = tmp_path / "v.fsnf"
        path.write_bytes(content)
        with pytest.raises(ValueError) as full:
            load_features(path)
        with pytest.raises(ValueError) as header:
            read_feature_header(path)
        assert str(header.value) == str(full.value)
        assert str(header.value).startswith(f"{path}: ")

    def test_directory_loading_reads_headers_only(self, tmp_path):
        for name, dim in (("a", 3), ("b", 3)):
            write_features(VideoFeatures(name, np.ones((4, dim))), tmp_path / f"{name}.fsnf")
        # a payload that does not load: only the header is read
        write_features(VideoFeatures("c", np.ones((4, 3))), tmp_path / "c.fsnf")
        raw = bytearray((tmp_path / "c.fsnf").read_bytes())
        raw[-4:] = np.float32(np.nan).tobytes()
        (tmp_path / "c.fsnf").write_bytes(bytes(raw))
        headers = load_feature_dir(tmp_path, video_ids=["b", "c"])
        assert headers == [FeatureHeader("b", 4, 3), FeatureHeader("c", 4, 3)]

    def test_labels_take_the_smallest_type(self):
        labels = label_frames(10, ground_truth((2, 5, 300)))
        assert labels.dtype == np.uint16
        assert labels.tolist() == [0, 0, 300, 300, 300, 0, 0, 0, 0, 0]
        labels = label_frames(10, ground_truth((2, 5, 3)))
        assert labels.dtype == np.uint8
        assert labels.tolist() == [0, 0, 3, 3, 3, 0, 0, 0, 0, 0]

    def test_directory_loading_rejects_mixed_dims(self, tmp_path):
        write_features(VideoFeatures("a", np.ones((4, 3))), tmp_path / "a.fsnf")
        write_features(VideoFeatures("b", np.ones((4, 5))), tmp_path / "b.fsnf")
        with pytest.raises(ValueError, match="mixed"):
            load_feature_dir(tmp_path)

    def test_directory_loading_selects_requested_videos(self, tmp_path):
        for name in ("a", "b", "c"):
            write_features(VideoFeatures(name, np.ones((4, 3))), tmp_path / f"{name}.fsnf")
        videos = load_feature_dir(tmp_path, video_ids=["a", "c"])
        assert [v.video_id for v in videos] == ["a", "c"]
        with pytest.raises(FileNotFoundError):
            load_feature_dir(tmp_path, video_ids=["a", "zz"])


class TestAnnotations:
    def make_set(self):
        return AnnotationSet(
            class_names=["jump", "throw"],
            segments=ground_truth((10, 20, 1, "v1"), (30, 45, 2, "v1"), (0, 5, 1, "v2")),
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ann.tsv"
        write_annotations(self.make_set(), path)
        loaded = load_annotations(path)
        assert loaded.class_names == ["jump", "throw"]
        assert gt_rows(loaded.segments) == gt_rows(self.make_set().segments)
        assert loaded.segments.confidence.tolist() == [1.0] * 3

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("labels\t2\tjump\tthrow\n")
        with pytest.raises(ValueError, match="line 1"):
            load_annotations(path)
        path.write_text("classes\t3\tjump\tthrow\n")
        with pytest.raises(ValueError, match="line 1"):
            load_annotations(path)

    def test_rejects_unknown_class_id(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("classes\t2\tjump\tthrow\nv1\t0\t5\t3\n")
        with pytest.raises(ValueError, match="line 2"):
            load_annotations(path)

    def test_rejects_empty_segment(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("classes\t1\tjump\nv1\t5\t5\t1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_annotations(path)

    def test_frame_count_validation(self, tmp_path):
        path = tmp_path / "ann.tsv"
        write_annotations(self.make_set(), path)
        with pytest.raises(ValueError, match="unknown video"):
            load_annotations(path, frame_counts={"v1": 100})
        with pytest.raises(ValueError, match="exceeds"):
            load_annotations(path, frame_counts={"v1": 40, "v2": 10})
        assert load_annotations(path, frame_counts={"v1": 50, "v2": 10})


# one bad row per check, and the message load_annotations gives for it
# (against frame counts {"v1": 100})
BAD_ANNOTATION_ROWS = {
    "field count": ("v1\t0\t5", "expected 4 fields, got 3"),
    "non-integer field": ("v1\t0\tfive\t1", "non-integer field"),
    "beyond int64": ("v1\t0\t99999999999999999999\t1", "integer field outside the int64 range"),
    "class range": ("v1\t0\t5\t3", "class id 3 outside 1..2"),
    "bad interval": ("v1\t5\t3\t1", "bad segment [5, 3)"),
    "negative start": ("v1\t-1\t3\t1", "bad segment [-1, 3)"),
    "unknown video": ("v9\t0\t5\t1", "unknown video 'v9'"),
    "end past frames": ("v1\t0\t101\t1", "segment end 101 exceeds v1's 100 frames"),
}

# one bad row per check, and the message load_predictions gives for it
# (against one 100-frame track of video v1 with two classes)
BAD_PREDICTION_ROWS = {
    "field count": ("v1\t0\t5\t1", "expected 5 fields, got 4"),
    "non-integer field": ("v1\t0\tfive\t1\t0.5", "non-integer field"),
    "non-numeric confidence": ("v1\t0\t5\t1\thigh", "non-numeric field"),
    "beyond int64": (
        "v1\t0\t99999999999999999999\t1\t0.5", "integer field outside the int64 range"
    ),
    "bad interval": ("v1\t5\t3\t1\t0.5", "bad segment [5, 3)"),
    "class id 0": ("v1\t0\t5\t0\t0.5", "class ids start at 1, got 0"),
    "confidence above 1": ("v1\t0\t5\t1\t1.5", "confidence 1.5 outside [0, 1]"),
    "confidence nan": ("v1\t0\t5\t1\tnan", "confidence nan outside [0, 1]"),
    "unknown video": ("v9\t0\t5\t1\t0.5", "unknown video 'v9'"),
    "class past the table": ("v1\t0\t5\t3\t0.5", "class id 3 outside 1..2"),
    "end past the track": ("v1\t0\t101\t1\t0.5", "segment end 101 exceeds v1's 100 frames"),
}


class TestAnnotationRows:
    HEADER = "classes\t2\tjump\tthrow\n"

    def rejection(self, tmp_path, *rows) -> str:
        """The error of loading a file of ``rows`` against frame counts {"v1": 100}."""
        path = tmp_path / "ann.tsv"
        path.write_text(self.HEADER + "".join(f"{row}\n" for row in rows))
        with pytest.raises(ValueError) as err:
            load_annotations(path, frame_counts={"v1": 100})
        return str(err.value).removeprefix(f"{path}: ")

    @pytest.mark.parametrize("check", list(BAD_ANNOTATION_ROWS))
    def test_rejects_bad_row_naming_its_line(self, tmp_path, check):
        row, message = BAD_ANNOTATION_ROWS[check]
        error = self.rejection(tmp_path, "v1\t0\t5\t1", "", row, "v1\t5\t9\t2")
        assert error == f"line 4: {message}"

    def test_first_bad_row_in_file_order_decides(self, tmp_path):
        checks = list(BAD_ANNOTATION_ROWS.values())
        for first_row, first_message in checks:
            for second_row, second_message in checks:
                if first_message == second_message:
                    continue
                error = self.rejection(tmp_path, "v1\t0\t5\t1", first_row, second_row)
                assert error == f"line 3: {first_message}"

    def test_write_sorts_by_video_start_end_class(self, tmp_path):
        shuffled = ground_truth(
            (30, 45, 2, "v1"), (0, 5, 1, "v2"), (10, 20, 2, "v1"),
            (10, 20, 1, "v1"), (3, 9, 1, "v10"), (10, 15, 1, "v1"),
        )
        path = tmp_path / "ann.tsv"
        write_annotations(AnnotationSet(["jump", "throw"], shuffled), path)
        assert path.read_text() == (
            "classes\t2\tjump\tthrow\n"
            "v1\t10\t15\t1\n"
            "v1\t10\t20\t1\n"
            "v1\t10\t20\t2\n"
            "v1\t30\t45\t2\n"
            "v10\t3\t9\t1\n"
            "v2\t0\t5\t1\n"
        )
        loaded = load_annotations(path)
        assert loaded.segments.start.dtype == loaded.segments.class_id.dtype == np.int64
        assert gt_rows(loaded.segments) == [
            ("v1", 1, 10, 15), ("v1", 1, 10, 20), ("v1", 2, 10, 20),
            ("v1", 2, 30, 45), ("v10", 1, 3, 9), ("v2", 1, 0, 5),
        ]


class TestPredictionRows:
    def rejection(self, tmp_path, *rows) -> str:
        """The error of loading a prediction file of ``rows`` against one
        100-frame track of v1 with two classes."""
        path = tmp_path / "predictions.tsv"
        path.write_text(PREDICTION_HEADER + "\n" + "".join(f"{row}\n" for row in rows))
        with pytest.raises(ValueError) as err:
            load_predictions(path, [FrameScoreTrack("v1", np.zeros((100, 2)), False)])
        return str(err.value).removeprefix(f"{path}: ")

    @pytest.mark.parametrize("check", list(BAD_PREDICTION_ROWS))
    def test_rejects_bad_row_naming_its_line(self, tmp_path, check):
        row, message = BAD_PREDICTION_ROWS[check]
        error = self.rejection(tmp_path, "v1\t0\t5\t1\t0.9", "", row, "v1\t5\t9\t2\t0.1")
        assert error == f"line 4: {message}"

    def test_first_bad_row_in_file_order_decides(self, tmp_path):
        checks = list(BAD_PREDICTION_ROWS.values())
        for first_row, first_message in checks:
            for second_row, second_message in checks:
                if first_message == second_message:
                    continue
                error = self.rejection(tmp_path, "v1\t0\t5\t1\t0.9", first_row, second_row)
                assert error == f"line 3: {first_message}"


VIDEO_IDS = ("v", "v1", "w", "x10")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 50),
            st.integers(1, 20),
            st.floats(0.0, 1.0),
            st.integers(1, 3),
            st.sampled_from(VIDEO_IDS),
        ),
        max_size=12,
    ),
    st.lists(st.sampled_from(VIDEO_IDS + ("absent",)), max_size=6),
    st.booleans(),
)
def test_per_video_matches_a_mask_filter(entries, video_ids, annotated):
    if annotated:
        record = ground_truth(*[(s, s + n, c, v) for s, n, _, c, v in entries])
    else:
        record = segments(*[(s, s + n, p, c, v) for s, n, p, c, v in entries])
    pieces = record.per_video(video_ids)
    assert len(pieces) == len(video_ids)
    for video_id, piece in zip(video_ids, pieces):
        assert rows(piece) == rows(record.take(record.video_id == video_id))
        types = [column.dtype.type for column in piece.columns()]
        assert types == [np.dtype(d).type for d in SEGMENT_DTYPES]


class TestLabelFrames:
    def test_paints_segments(self):
        labels = label_frames(10, ground_truth((2, 5, 1)))
        np.testing.assert_array_equal(labels, [0, 0, 1, 1, 1, 0, 0, 0, 0, 0])

    def test_overlap_goes_to_earliest_start(self):
        segs = ground_truth((4, 8, 2), (2, 6, 1))
        labels = label_frames(10, segs)
        np.testing.assert_array_equal(labels, [0, 0, 1, 1, 1, 1, 2, 2, 0, 0])

    def test_rejects_segment_past_the_end(self):
        with pytest.raises(ValueError, match="exceeds"):
            label_frames(5, ground_truth((0, 6, 1)))


class TestMakeClips:
    def test_single_window_video(self):
        video = video_with_ramp(frames=35)
        segs = ground_truth((0, 35, 1, "vid"))
        np.testing.assert_array_equal(make_clips(video, segs), [0])
        # snippet centers sit at frames 2, 7, 12, ...
        np.testing.assert_array_equal(snippet_centers(35, 5), [2, 7, 12, 17, 22, 27, 32])

    def test_returns_int64_starts(self):
        video = video_with_ramp(frames=70)
        starts = make_clips(video, ground_truth((0, 70, 1, "vid")), stride=7)
        assert starts.dtype == np.int64
        assert make_clips(video, ground_truth()).dtype == np.int64

    def test_min_action_frames_boundary(self):
        video = video_with_ramp(frames=35)
        four = ground_truth((0, 4, 1, "vid"))
        five = ground_truth((0, 5, 1, "vid"))
        assert len(make_clips(video, four)) == 0
        assert len(make_clips(video, five)) == 1

    def test_short_video_is_skipped_with_warning(self, caplog):
        video = video_with_ramp(frames=20)
        with caplog.at_level(logging.WARNING):
            clips = make_clips(video, ground_truth((0, 20, 1, "vid")))
        assert len(clips) == 0
        assert "shorter" in caplog.text

    def test_stride_controls_window_count(self):
        video = video_with_ramp(frames=70)
        segs = ground_truth((0, 70, 1, "vid"))
        assert len(make_clips(video, segs)) == 2  # default stride = clip_len
        assert len(make_clips(video, segs, stride=7)) == 6  # starts 0,7,...,35

    def test_matches_window_scan_oracle(self):
        rng = np.random.default_rng(3)
        video = video_with_ramp(frames=200)
        segs = []
        cursor = 0
        while cursor < 170:
            start = cursor + int(rng.integers(5, 20))
            end = start + int(rng.integers(3, 25))
            if end > 200:
                break
            segs.append((start, end, int(rng.integers(1, 3)), "vid"))
            cursor = end
        segs = ground_truth(*segs)
        dense = label_frames(200, segs)
        assert make_clips(video, segs, stride=7).tolist() == window_scan(dense, 35, 7, 5)


def labels_with(*runs):
    """Dense labels from (class, length) runs."""
    return np.concatenate([np.full(length, cls, dtype=np.int64) for cls, length in runs])


class TestRebalance:
    def test_majority_class_tie_takes_lowest_id(self):
        labels = labels_with((2, 5), (1, 5), (0, 25))
        np.testing.assert_array_equal(clip_majority_class(labels, [0], 35), [1])

    def test_window_without_action_gets_class_zero(self):
        labels = labels_with((0, 10), (3, 4), (0, 10))
        np.testing.assert_array_equal(clip_majority_class(labels, [0, 4, 14], 10), [0, 3, 0])

    def test_balanced_input_is_unchanged(self):
        np.testing.assert_array_equal(rebalance([1, 1, 2, 2], seed=0), [0, 1, 2, 3])

    def test_oversamples_to_the_largest_group(self):
        classes = np.array([1, 1, 1, 2])
        order = rebalance(classes, seed=0)
        np.testing.assert_array_equal(order[:4], [0, 1, 2, 3])  # originals, in order
        np.testing.assert_array_equal(order[4:], [3, 3])
        assert np.bincount(classes[order]).tolist() == [0, 3, 3]

    def test_deterministic_per_seed(self):
        classes = [1, 1, 1, 2, 2, 3]
        np.testing.assert_array_equal(rebalance(classes, seed=5), rebalance(classes, seed=5))

    def test_empty_input(self):
        order = rebalance([], seed=0)
        assert order.size == 0 and order.dtype == np.int64


@settings(max_examples=150, deadline=None)
@given(
    runs=st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 25)), min_size=1, max_size=16
    ),
    clip_len=st.sampled_from([5, 10, 35]),
    stride=st.integers(1, 12),
    min_action_frames=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_windows_match_the_per_window_oracles(runs, clip_len, stride, min_action_frames, seed):
    labels = labels_with(*runs)
    video = video_with_ramp(frames=labels.size)
    segs, start = [], 0
    for cls, length in runs:
        if cls:
            segs.append((start, start + length, cls, "vid"))
        start += length
    starts = make_clips(
        video, ground_truth(*segs),
        clip_len=clip_len, stride=stride, min_action_frames=min_action_frames,
    )
    assert starts.tolist() == window_scan(labels, clip_len, stride, min_action_frames)
    classes = clip_majority_class(labels, starts, clip_len)
    expected = [window_majority_class(labels[s : s + clip_len]) for s in starts]
    assert classes.tolist() == expected
    assert rebalance(classes, seed).tolist() == list_rebalance(expected, seed)


class TestSynth:
    def small_config(self, **kwargs):
        defaults = dict(
            num_videos=12,
            frames_per_video=300,
            num_classes=4,
            feature_dim=8,
            instance_density=0.25,
            seed=11,
        )
        defaults.update(kwargs)
        return SynthConfig(**defaults)

    def test_deterministic_per_seed(self):
        a = synth_corpus(self.small_config())
        b = synth_corpus(self.small_config())
        for va, vb in zip(a.videos, b.videos):
            np.testing.assert_array_equal(va.features, vb.features)
        assert gt_rows(a.annotations.segments) == gt_rows(b.annotations.segments)
        c = synth_corpus(self.small_config(seed=12))
        assert not np.array_equal(a.videos[0].features, c.videos[0].features)

    def test_split_sizes_follow_train_fraction(self):
        ds = synth_corpus(self.small_config())
        assert len(ds.train_ids) == 9
        assert len(ds.test_ids) == 3
        assert set(ds.train_ids) | set(ds.test_ids) == {v.video_id for v in ds.videos}

    def test_density_close_to_target(self):
        ds = synth_corpus(self.small_config(instance_density=0.3))
        segs = ds.annotations.segments
        total_action = int((segs.end - segs.start).sum())
        total = sum(v.frame_count for v in ds.videos)
        assert abs(total_action / total - 0.3) <= 0.03

    def test_instances_respect_length_bounds_and_gaps(self):
        ds = synth_corpus(self.small_config())
        cfg = ds.config
        for segs in ds.annotations.segments.per_video([v.video_id for v in ds.videos]):
            order = np.argsort(segs.start)
            starts, ends = segs.start[order], segs.end[order]
            for start, end in zip(starts, ends):
                assert cfg.min_instance_len <= end - start <= cfg.max_instance_len
            for left_end, right_start in zip(ends, starts[1:]):
                assert right_start > left_end  # at least one background frame

    def test_ambiguity_shares_prototypes_in_reverse_order(self):
        ds = synth_corpus(self.small_config(context_ambiguity=True))
        for a, b in [(1, 2), (3, 4)]:
            np.testing.assert_array_equal(ds.class_patterns[a - 1, 0], ds.class_patterns[b - 1, 1])
            np.testing.assert_array_equal(ds.class_patterns[a - 1, 1], ds.class_patterns[b - 1, 0])

    def test_single_frames_cannot_separate_ambiguous_pair(self):
        ds = synth_corpus(
            self.small_config(num_videos=30, context_ambiguity=True, seed=21)
        )
        u, v = ds.class_patterns[0]
        hits = total = 0
        for video in ds.videos:
            segs = ds.annotations.segments.take(ds.annotations.segments.video_id == video.video_id)
            dense = label_frames(video.frame_count, segs)
            for f in np.flatnonzero((dense == 1) | (dense == 2)):
                x = video.features[f]
                predicted = 1 if np.linalg.norm(x - u) < np.linalg.norm(x - v) else 2
                hits += predicted == dense[f]
                total += 1
        assert total > 500
        assert hits / total <= 0.55

    def test_single_frames_do_separate_unambiguous_classes(self):
        ds = synth_corpus(self.small_config(num_videos=30, seed=21))
        hits = total = 0
        for video in ds.videos:
            segs = ds.annotations.segments.take(ds.annotations.segments.video_id == video.video_id)
            dense = label_frames(video.frame_count, segs)
            for f in np.flatnonzero(dense > 0):
                x = video.features[f]
                dists = np.linalg.norm(ds.class_patterns - x, axis=2).min(axis=1)
                hits += int(np.argmin(dists)) + 1 == dense[f]
                total += 1
        assert hits / total >= 0.9

    def test_ambiguity_needs_two_classes(self):
        with pytest.raises(ValueError):
            SynthConfig(num_classes=1, context_ambiguity=True)

    def test_single_class_videos_have_one_class_each(self):
        ds = synth_corpus(self.small_config(single_class_videos=True))
        for segs in ds.annotations.segments.per_video([v.video_id for v in ds.videos]):
            assert len(set(segs.class_id.tolist())) == 1

    def test_manifest_round_trip(self, tmp_path):
        ds = synth_corpus(self.small_config())
        path = tmp_path / "manifest.tsv"
        write_manifest(ds.config, {v.video_id: v.frame_count for v in ds.videos}, path)
        loaded = load_manifest(path)
        assert loaded["train_ids"] == ds.train_ids
        assert loaded["test_ids"] == ds.test_ids
        assert loaded["config"]["num_classes"] == "4"
        assert loaded["config"]["instance_density"] == "0.25"

    def test_manifest_rejects_a_video_listed_twice(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text(
            "# synthetic corpus manifest\n"
            "video\tsynth_0000\ttrain\t60\n"
            "video\tsynth_0001\ttrain\t60\n"
            "video\tsynth_0000\ttest\t60\n"
        )
        with pytest.raises(ValueError, match="line 4: video 'synth_0000' is listed twice"):
            load_manifest(path)
