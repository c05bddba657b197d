"""Frame-level and segment-level detection metrics plus CSV reports.

AP is non-interpolated: predictions are ranked by confidence, ties in their
input order, and AP sums precision at every true-positive rank divided by the
number of positives. Every ranking is exactly the permutation
``np.argsort(-scores, kind="stable")``. Exact tie order matters: track scores
come from float32 files, so every class column of a large test split holds
hundreds of tied frames.

Frame-level AP pools the frames of all videos per class. Float32 tracks, which
every track file holds, are ranked by one in-place sort of uint64 keys: the
high half is the score's bits mapped to an order that ascends as the score
descends (``-0.0`` keyed as ``0.0``, every NaN last), the low half is the
pooled frame index, which breaks ties in input order. The keys are written
video by video into one buffer that every class reuses, and the frame labels
are gathered in key order to flag the hits. Float64 tracks, pools of 2**32
frames or more, and segment confidences are ranked by that stable argsort
itself.

A segment prediction counts as a true positive only when its IoU with an
unmatched same-class ground truth in the same video is strictly above the
threshold; matching is greedy in rank order, best IoU first, earliest ground
truth on ties. Predictions and ground truth arrive as ``Segments`` records
whose rows were checked where their files were read; a prediction of a video
without ground truth is a false positive, and one of a class outside the
table is ranked in no class. The ground truth is grouped by (class, video)
with one stable sort. Per class, the ranked predictions get one IoU matrix
against their own video's ground truths, padded to the largest group, and one
stable argsort of its rows by descending IoU: at any threshold a row's hits
are a prefix of its order, so the greedy pass at each threshold takes, row by
row, the first untaken ground truth of that prefix.

Both metrics return arrays, per-class AP and the mean over classes (per IoU
threshold for segments), and ``report.csv`` always has every column. Classes
with no ground-truth instance get AP 0 by definition but are left out of the
mean, so a prediction set identical to the ground truth scores a clean 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import AnnotationSet, Segments
from .localize import FrameScoreTrack, pairwise_iou
from .nncore import Array

DEFAULT_STRONG_IOUS = (0.3, 0.4, 0.5, 0.6, 0.7)
DEFAULT_WEAK_IOUS = (0.1, 0.2, 0.3, 0.4, 0.5)


def iou_thresholds(values: Sequence[float]) -> tuple[float, ...]:
    """``values`` as a tuple of floats: at least one, each in (0, 1], strictly ascending."""
    thresholds = tuple(float(t) for t in values)
    if not thresholds:
        raise ValueError("need at least one IoU threshold")
    for t in thresholds:
        if not 0.0 < t <= 1.0:
            raise ValueError(f"IoU threshold {t} outside (0, 1]")
    if any(later <= earlier for earlier, later in zip(thresholds, thresholds[1:])):
        raise ValueError(f"thresholds must strictly ascend, got {thresholds}")
    return thresholds


@dataclass
class EvalReport:
    """Per-class segment and frame APs with their means."""

    class_names: list[str]
    iou_thresholds: tuple[float, ...]
    segment_ap: Array  # (classes, thresholds)
    segment_map: Array  # (thresholds,)
    frame_ap: Array  # (classes,)
    frame_map: float


def _ap_from_ranked(hits: Array, num_positives: int) -> float:
    """Non-interpolated AP of true-positive flags already in rank order."""
    if num_positives == 0 or hits.size == 0:
        return 0.0
    true_ranks = np.flatnonzero(hits)
    true_ranks += 1
    precisions = np.arange(1.0, true_ranks.size + 1)
    precisions /= true_ranks
    return float(precisions.sum() / num_positives)


def _descending_bits(scores: Array) -> Array:
    """uint32 keys that ascend as the float32 ``scores`` descend, equal for
    equal scores: ``-0.0`` is keyed as ``0.0`` and every NaN as the largest
    key, so NaNs come last, as numpy sorts them."""
    bits = scores.view(np.uint32)
    magnitude = bits & 0x7FFFFFFF
    # a negative's bits ascend as it descends; below it, every non-negative
    # score (and -0.0) maps its magnitude downwards from 0x7FFFFFFF
    keys = np.where(bits > 0x80000000, bits, 0x7FFFFFFF - magnitude)
    keys[magnitude > 0x7F800000] = 0xFFFFFFFF
    return keys


def _rank_pooled(columns: Sequence[Array], keys: Array | None) -> Array:
    """``np.argsort(-np.concatenate(columns), kind="stable")``.

    With ``keys``, a uint64 buffer of the pooled size, the float32 columns are
    packed into it (score key high, pooled index low) and sorted in place; the
    result is a view of the buffer, valid until its next use.
    """
    if keys is None:
        return np.argsort(-np.concatenate(columns), kind="stable")
    start = 0
    for column in columns:
        part = keys[start : start + column.size]
        part[...] = _descending_bits(column)
        part <<= 32
        part |= np.arange(start, start + column.size, dtype=np.uint64)
        start += column.size
    keys.sort()
    keys &= 0xFFFFFFFF
    return keys.view(np.int64)


def frame_level_map(
    tracks: Sequence[FrameScoreTrack], labels: Mapping[str, Array]
) -> tuple[Array, float]:
    """Retrieval AP over all test frames, per class, plus their mean.

    ``labels`` maps video id to a dense per-frame class array of any integer
    type (0 background). Every labeled video needs a track of the same
    length; frames of all videos are pooled before ranking, in the tracks'
    own float type. The mean skips classes without positives.
    """
    by_id: dict[str, FrameScoreTrack] = {}
    for track in tracks:
        if track.video_id in by_id:
            raise ValueError(f"duplicate track for video {track.video_id!r}")
        by_id[track.video_id] = track
    if not by_id:
        raise ValueError("no tracks given")
    num_classes = next(iter(by_id.values())).num_classes
    for track in by_id.values():
        if track.num_classes != num_classes:
            raise ValueError("tracks disagree on the number of classes")
    ordered_ids = sorted(labels)
    dense: list[Array] = []
    for video_id in ordered_ids:
        if video_id not in by_id:
            raise ValueError(f"missing track for labeled video {video_id!r}")
        frame_labels = np.asarray(labels[video_id])
        if frame_labels.shape != (by_id[video_id].frame_count,):
            raise ValueError(
                f"{video_id}: {frame_labels.size} labels for "
                f"{by_id[video_id].frame_count} track frames"
            )
        if frame_labels.max(initial=0) > num_classes:
            raise ValueError(
                f"{video_id}: label {frame_labels.max()} outside 1..{num_classes}"
            )
        dense.append(frame_labels)
    all_labels = np.concatenate(dense)
    packed = all_labels.size < 2**32 and all(
        by_id[v].scores.dtype == np.float32 for v in ordered_ids
    )
    keys = np.empty(all_labels.size, dtype=np.uint64) if packed else None
    ap = np.zeros(num_classes)
    positives = np.zeros(num_classes, dtype=np.int64)
    for class_id in range(1, num_classes + 1):
        order = _rank_pooled([by_id[v].class_scores(class_id) for v in ordered_ids], keys)
        hits = all_labels[order] == class_id
        positives[class_id - 1] = np.count_nonzero(hits)
        ap[class_id - 1] = _ap_from_ranked(hits, int(positives[class_id - 1]))
    represented = positives > 0
    mean = float(ap[represented].mean()) if represented.any() else 0.0
    return ap, mean


def _greedy_flags(ranked: Segments, gts: Segments, thresholds: Sequence[float]) -> Array:
    """(thresholds, predictions) TP flags of one class's ranked predictions.

    ``gts`` are the class's ground truths sorted by video, in file order
    within a video. Each prediction's row of IoUs with its video's ground
    truths is padded with -1; its stable argsort by descending IoU lists the
    hits at any threshold first, earliest ground truth first on ties.
    """
    flags = np.zeros((len(thresholds), len(ranked)), dtype=bool)
    first = np.searchsorted(gts.video_id, ranked.video_id, "left")
    count = np.searchsorted(gts.video_id, ranked.video_id, "right") - first
    rows = np.flatnonzero(count)
    first, count = first[rows], count[rows]
    columns = np.arange(count.max(initial=0))
    pad = columns >= count[:, None]
    # pad entries read the group's first ground truth and are then set to -1
    picks = first[:, None] + np.where(pad, 0, columns)
    iou = pairwise_iou(ranked.start[rows], ranked.end[rows], gts.start[picks], gts.end[picks])
    iou[pad] = -1.0
    hits = (iou > np.array(thresholds)[:, None, None]).sum(axis=2)
    # thresholds ascend: a row without a hit at the first has none at all
    live = np.flatnonzero(hits[0])
    order = np.argsort(-iou[live], axis=1, kind="stable")
    candidates = (first[live, None] + order).tolist()
    # in rank order, each row takes the first untaken ground truth among its hits
    for t_idx, prefix in enumerate(hits[:, live].tolist()):
        taken, matched = set(), []
        for row, (gt_ids, size) in enumerate(zip(candidates, prefix)):
            for gt_id in gt_ids[:size]:
                if gt_id not in taken:
                    taken.add(gt_id)
                    matched.append(row)
                    break
        flags[t_idx, rows[live[matched]]] = True
    return flags


def segment_level_map(
    predictions: Segments,
    gt: AnnotationSet,
    thresholds: Sequence[float] = DEFAULT_STRONG_IOUS,
) -> tuple[Array, Array]:
    """Detection AP per class and IoU threshold, and the per-threshold means.

    Predictions are taken as given (``load_predictions`` checks a file's rows
    against the score tracks): one of a video without ground truth is a false
    positive of its class, and one of a class outside the table is ranked in
    no class.
    """
    thresholds = iou_thresholds(thresholds)
    num_classes = gt.num_classes
    segments = gt.segments
    # one stable sort groups the ground truth by (class, video), input order within
    grouped = segments.take(np.lexsort((segments.video_id, segments.class_id)))
    bounds = np.searchsorted(grouped.class_id, np.arange(1, num_classes + 2))
    num_gts = np.diff(bounds)
    ap = np.zeros((num_classes, len(thresholds)))
    for class_id in range(1, num_classes + 1):
        members = np.flatnonzero(predictions.class_id == class_id)
        ranked = members[np.argsort(-predictions.confidence[members], kind="stable")]
        class_gts = grouped.take(slice(bounds[class_id - 1], bounds[class_id]))
        flags = _greedy_flags(predictions.take(ranked), class_gts, thresholds)
        ap[class_id - 1] = [_ap_from_ranked(f, num_gts[class_id - 1]) for f in flags]
    represented = num_gts > 0
    mean = ap[represented].mean(axis=0) if represented.any() else np.zeros(len(thresholds))
    return ap, mean


def emit_report(report: EvalReport, path) -> None:
    """Deterministic CSV: one row per class plus a final mAP row, 4 decimals."""
    columns = [f"iou_{t:g}" for t in report.iou_thresholds] + ["frame_ap"]
    lines = ["class," + ",".join(columns)]
    segment_rows = [*report.segment_ap.tolist(), report.segment_map.tolist()]
    frame_cells = [*report.frame_ap.tolist(), report.frame_map]
    for name, segment, frame in zip([*report.class_names, "mAP"], segment_rows, frame_cells):
        lines.append(f"{name}," + ",".join(f"{v:.4f}" for v in [*segment, frame]))
    Path(path).write_text("\n".join(lines) + "\n")
