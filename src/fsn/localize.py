"""From dense frame scores to scored temporal segments.

``localize`` is the one prediction pipeline, shared by the ``predict``
command and the library; ``predict-weak`` is another name of that command.
The head kind is read from the head: it scores every frame of an untrimmed
video (``slide_predict`` for a dense head, ``weak_score_track`` for a pooled
one). Each class column of a track is thresholded at several
levels in one mask pass into candidate segments, deduplicated, and pruned
with greedy non-maximum suppression on one IoU matrix per class and video.
``pairwise_iou`` is the one IoU kernel: NMS and the evaluation's segment
matching both call it.
Segments travel as arrays from grouping to the report, in the one segment
record ``data.Segments`` that also holds the ground truth: grouping builds one
per class and video, NMS keeps a subset of it, ``join_predictions`` joins
and sorts them, and the prediction file (tab-separated, fixed header) is
written from one and parsed into one by the row reader that also reads the
annotations. Rows are checked only where they enter from outside, in
``load_predictions``, against the score tracks too when it is given them.
``localize`` works one video at a
time: each finished score track is handed to the caller, which writes or
keeps it, and only the video's segments stay behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .data import (
    Segments, VideoFeatures, frame_checks, parse_segment_rows, read_lines, snippet_centers,
    span_bounds,
)
from .model import Head, fsn_forward
from .nncore import Array

GROUPING_THRESHOLDS = tuple(np.round(np.arange(11) * 0.1, 1))
NMS_OFFSET = 0.1


@dataclass
class FrameScoreTrack:
    """Dense per-frame class scores for one video.

    ``scores`` is (frames, channels): float32 as a track file stores them,
    any other input as float64. Channel 0 is background when
    ``includes_background`` is set, otherwise channel k-1 carries class k.
    """

    video_id: str
    scores: Array
    includes_background: bool

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores)
        if scores.dtype != np.float32:
            scores = scores.astype(np.float64, copy=False)
        self.scores = scores
        if self.scores.ndim != 2 or self.scores.shape[0] < 1:
            raise ValueError(
                f"{self.video_id}: scores must be (frames, channels), "
                f"got {self.scores.shape}"
            )
        if self.num_classes < 1:
            raise ValueError(f"{self.video_id}: track carries no action classes")

    @property
    def frame_count(self) -> int:
        return self.scores.shape[0]

    @property
    def num_classes(self) -> int:
        return self.scores.shape[1] - (1 if self.includes_background else 0)

    def class_scores(self, class_id: int) -> Array:
        if not 1 <= class_id <= self.num_classes:
            raise ValueError(
                f"class id {class_id} outside 1..{self.num_classes}"
            )
        column = class_id if self.includes_background else class_id - 1
        return self.scores[:, column]


def slide_predict(head: Head, video: VideoFeatures) -> FrameScoreTrack:
    """Score every frame with non-overlapping clip windows.

    Every window of the video goes through the head in one
    (windows, snippets, feature_dim) batch. The tail window is padded by
    repeating the final frame descriptor, and its surplus scores are cut off,
    so the track length equals the frame count.
    """
    if head.pooling is not None:
        raise TypeError("use weak_score_track for weakly supervised heads")
    config = head.config
    frames = video.frame_count
    if frames < config.snippet_len:
        raise ValueError(
            f"{video.video_id}: {frames} frames is shorter than one "
            f"{config.snippet_len}-frame snippet"
        )
    clip_len = config.clip_len
    starts = np.arange(0, frames, clip_len)
    centers = snippet_centers(clip_len, config.snippet_len)
    # frames past the end read the last frame: the tail window's padding
    picks = np.minimum(starts[:, None] + centers, frames - 1)
    scores = fsn_forward(video.features[picks], head, clip_len)
    scores = scores.reshape(-1, scores.shape[-1])[:frames]
    return FrameScoreTrack(video.video_id, scores, head.includes_background)


def weak_score_track(
    head: Head, video: VideoFeatures, positions: int = 100
) -> FrameScoreTrack:
    """Frame scores from a weak head: span centers scored, spans filled.

    The video is cut into ``positions`` near-equal spans (clamped to the frame
    count for short videos); each span is scored once at its center frame and
    the score is held constant across the span.
    """
    if head.pooling is None:
        raise TypeError("weak scoring needs a weakly supervised head")
    if positions < 1:
        raise ValueError(f"positions must be >= 1, got {positions}")
    effective = min(positions, video.frame_count)
    bounds = span_bounds(video.frame_count, effective)
    centers = (bounds[:-1] + bounds[1:]) // 2
    scores = fsn_forward(video.features[centers], head)
    expanded = np.repeat(scores, np.diff(bounds), axis=0)
    return FrameScoreTrack(video.video_id, expanded, includes_background=False)


def multi_threshold_group(
    track: FrameScoreTrack,
    class_id: int,
    thresholds: Sequence[float] = GROUPING_THRESHOLDS,
) -> Segments:
    """Maximal runs of frames scoring strictly above each threshold, deduplicated.

    The runs of every threshold come from one (thresholds, frames + 2) mask.
    A run found at several thresholds (same start and end) is kept once, at
    its first appearance; candidates are ordered by threshold, then start.
    A run's confidence is its mean class score, the sum and division that
    ``ndarray.mean`` makes, without its Python wrapper, in float64 whatever
    the track's type.
    """
    column = track.class_scores(class_id).astype(np.float64, copy=False)
    levels = np.asarray(thresholds, dtype=np.float64)
    outside = ~((levels >= 0.0) & (levels <= 1.0))
    if outside.any():
        raise ValueError(f"threshold {levels[outside][0]} outside [0, 1]")
    width = column.size + 1
    mask = np.zeros((levels.size, width + 1), dtype=bool)
    # a contiguous copy: the class column is a strided view into the track
    np.greater(np.ascontiguousarray(column), levels[:, None], out=mask[:, 1:-1])
    # each row's edges alternate run start, run end
    edges = np.flatnonzero(mask[:, 1:] != mask[:, :-1]) % width
    starts, ends = edges[::2], edges[1::2]
    _, first = np.unique(starts * width + ends, return_index=True)
    first.sort()
    starts, ends = starts[first], ends[first]
    add = np.add.reduce
    sums = [add(column[s:e]) for s, e in zip(starts.tolist(), ends.tolist())]
    confidence = np.array(sums, dtype=np.float64) / (ends - starts)
    count = starts.size
    class_ids = np.full(count, class_id, dtype=np.int64)
    return Segments(np.full(count, track.video_id), class_ids, starts, ends, confidence)


def pairwise_iou(a_start, a_end, b_start, b_end) -> Array:
    """IoU of every interval of ``a`` with every interval of ``b``.

    Returns a float64 (len(a), len(b)) matrix, or (len(a), m) when ``b`` holds
    one row of m intervals per interval of ``a``. Each entry is
    ``intersection / ((a_len + b_len) - intersection)`` in that order, so
    swapping ``a`` and ``b`` gives the same bits, and on integer bounds every
    entry is the IoU of the two frame sets exactly.
    """
    a_start = np.asarray(a_start, dtype=np.float64)[:, None]
    a_end = np.asarray(a_end, dtype=np.float64)[:, None]
    b_start = np.atleast_2d(np.asarray(b_start, dtype=np.float64))
    b_end = np.atleast_2d(np.asarray(b_end, dtype=np.float64))
    if np.any(a_end <= a_start) or np.any(b_end <= b_start):
        raise ValueError("bad interval: every end must exceed its start")
    intersection = np.maximum(
        0.0, np.minimum(a_end, b_end) - np.maximum(a_start, b_start)
    )
    union = ((a_end - a_start) + (b_end - b_start)) - intersection
    return intersection / union


def nms(segments: Segments, iou_threshold: float) -> Segments:
    """Greedy non-maximum suppression of one class's segments in one video.

    Segments are visited by confidence (descending), ties broken by earlier
    start then shorter length; a segment survives iff its IoU with every
    already kept segment is at most the threshold. One segment x segment
    ``pairwise_iou`` matrix serves the pass: a kept segment suppresses every
    segment its row overlaps above the threshold. Returns the kept segments
    in visiting order.
    """
    if iou_threshold < 0.0:
        raise ValueError(f"IoU threshold must be >= 0, got {iou_threshold}")
    order = np.lexsort(
        (segments.end - segments.start, segments.start, -segments.confidence)
    )
    starts, ends = segments.start[order], segments.end[order]
    overlaps = pairwise_iou(starts, ends, starts, ends) > iou_threshold
    suppressed = np.zeros(order.size, dtype=bool)
    kept = []
    for i in range(order.size):
        if not suppressed[i]:
            kept.append(i)
            suppressed |= overlaps[i]
    return segments.take(order[kept])


def track_to_segments(track: FrameScoreTrack, nms_iou: float) -> Segments:
    """Multi-threshold grouping plus NMS for every class of one track."""
    return Segments.concatenate([
        nms(multi_threshold_group(track, class_id), nms_iou)
        for class_id in range(1, track.num_classes + 1)
    ])


def nms_threshold_for(eval_iou: float) -> float:
    """NMS threshold used when predictions target a given evaluation IoU."""
    if not 0.0 < eval_iou <= 1.0:
        raise ValueError(f"evaluation IoU must be in (0, 1], got {eval_iou}")
    return max(eval_iou - NMS_OFFSET, 0.0)


def localize(
    head: Head,
    videos: Iterable[VideoFeatures],
    eval_iou: float = 0.5,
    positions: int = 100,
    on_track: Callable[[FrameScoreTrack], None] | None = None,
) -> Segments:
    """The sorted segment predictions of a stream of videos.

    A dense head is scored by ``slide_predict``, a pooled one by
    ``weak_score_track`` with ``positions`` spans, one video after another;
    each video is one batched forward. The ``predict`` command runs BLAS on
    one thread and one ``localize`` per CPU, each on a part of the split.
    Each track is grouped and suppressed at the NMS
    threshold for ``eval_iou`` and then handed to ``on_track``, in the order
    of ``videos``; only its segments are kept. ``videos`` is read once, so a
    generator that loads each video when it is reached holds one at a time.
    The predictions are sorted by (video, class, start, end).
    """
    nms_iou = nms_threshold_for(eval_iou)
    parts = []
    for video in videos:
        if head.pooling is None:
            track = slide_predict(head, video)
        else:
            track = weak_score_track(head, video, positions)
        parts.append(track_to_segments(track, nms_iou))
        if on_track is not None:
            on_track(track)
    return join_predictions(parts)


def join_predictions(parts: Sequence[Segments]) -> Segments:
    """The parts' segments in one record, sorted by (video, class, start, end):
    the order of ``localize``'s predictions, whichever way the videos were split."""
    found = Segments.concatenate(parts)
    order = np.lexsort((found.end, found.start, found.class_id, found.video_id))
    return found.take(order)


PREDICTION_HEADER = "video_id\tstart\tend\tclass_id\tconfidence"


def write_predictions(predictions: Segments, path) -> None:
    """One tab-separated row per segment, in the record's order, under the header."""
    rows = zip(*(column.tolist() for column in predictions.columns()))
    lines = [PREDICTION_HEADER]
    lines.extend(f"{v}\t{s}\t{e}\t{c}\t{p:.6f}" for v, c, s, e, p in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def load_predictions(path, tracks: Sequence[FrameScoreTrack] | None = None) -> Segments:
    """Parse a prediction file; a malformed row is an error naming its line.

    With ``tracks``, a row must also name a video that has a track, a class of
    the tracks' table, and end within its track.
    """
    path = Path(path)
    lines = read_lines(path)
    if not lines or lines[0] != PREDICTION_HEADER:
        raise ValueError(f"{path}: missing prediction header")

    def checks(seg: Segments) -> list:
        start, end, cls, confidence = seg.start, seg.end, seg.class_id, seg.confidence
        found = [
            ((start < 0) | (end <= start), lambda k: f"bad segment [{start[k]}, {end[k]})"),
            (cls < 1, lambda k: f"class ids start at 1, got {cls[k]}"),
            (~((confidence >= 0.0) & (confidence <= 1.0)),
             lambda k: f"confidence {confidence[k]} outside [0, 1]"),
        ]
        if tracks is not None:
            count = max((t.num_classes for t in tracks), default=0)
            found += frame_checks(seg, {t.video_id: t.frame_count for t in tracks})
            found.append((cls > count, lambda k: f"class id {cls[k]} outside 1..{count}"))
        return found

    return parse_segment_rows(path, lines, True, checks)
