"""Frame-level and segment-level detection metrics plus CSV reports.

AP is non-interpolated: predictions are ranked by confidence, ties in their
input order, and AP sums precision at every true-positive rank divided by the
number of positives. ``rank_descending`` gives that ranking: exactly the
permutation ``np.argsort(-scores, kind="stable")``, from the faster default
sort with only the runs of tied scores re-sorted by index. Exact tie order
matters: track scores come from float32 files, so every class column of a
large test split holds hundreds of tied frames.

A segment prediction counts as a true positive only when its IoU with an
unmatched same-class ground truth in the same video is strictly above the
threshold; matching is greedy in rank order, best IoU first, earliest ground
truth on ties. Predictions arrive as one ``Segments`` record of columns; each
class's entries are ranked, then grouped by video with one stable sort, and
each (class, video) pair gets one prediction x ground-truth IoU matrix,
reused at every threshold, so the cost follows the per-video counts rather
than the corpus.

Classes with no ground-truth instance get AP 0 by definition but are left out
of the mAP average, so a prediction set identical to the ground truth scores
a clean 1.0 regardless of which classes the corpus happens to exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import AnnotationSet
from .localize import FrameScoreTrack, Segments, pairwise_iou
from .nncore import Array

DEFAULT_STRONG_IOUS = (0.3, 0.4, 0.5, 0.6, 0.7)
DEFAULT_WEAK_IOUS = (0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass
class EvalConfig:
    num_classes: int
    iou_thresholds: tuple[float, ...] = DEFAULT_STRONG_IOUS

    def __post_init__(self) -> None:
        self.iou_thresholds = tuple(float(t) for t in self.iou_thresholds)
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")
        if not self.iou_thresholds:
            raise ValueError("need at least one IoU threshold")
        for t in self.iou_thresholds:
            if not 0.0 < t <= 1.0:
                raise ValueError(f"IoU threshold {t} outside (0, 1]")
        pairs = zip(self.iou_thresholds, self.iou_thresholds[1:])
        if any(later <= earlier for earlier, later in pairs):
            raise ValueError(
                f"thresholds must strictly ascend, got {self.iou_thresholds}"
            )


@dataclass
class EvalReport:
    """Per-class APs with their means; frame-level columns are optional."""

    class_names: list[str]
    iou_thresholds: tuple[float, ...]
    segment_ap: Array  # (classes, thresholds)
    segment_map: Array  # (thresholds,)
    frame_ap: Array | None = None  # (classes,)
    frame_map: float | None = None


def rank_descending(scores: Array) -> Array:
    """The permutation ``np.argsort(-scores, kind="stable")``, computed faster.

    The default (unstable) sort orders the scores; then only the runs of tied
    scores are re-sorted by index, in one integer sort over the tied
    positions. ``0.0`` and ``-0.0`` tie, and so do NaNs, which sort last.
    """
    negated = -np.asarray(scores)
    order = np.argsort(negated)
    ranked = negated[order]
    tied = ranked[1:] == ranked[:-1]
    # NaNs sort last and compare unequal, but tie with each other
    tied[np.searchsorted(ranked, np.nan):] = True
    if tied.any():
        positions = np.flatnonzero(np.r_[tied, False] | np.r_[False, tied])
        # number the runs of equal scores in rank order; one integer sort of
        # run * size + index then orders each run's indices in its own slots
        run = np.cumsum(np.r_[True, ~tied])[positions]
        keys = run * order.size + order[positions]
        order[positions] = np.sort(keys) % order.size
    return order


def _ap_from_ranked(hits: Array, num_positives: int) -> float:
    """Non-interpolated AP of true-positive flags already in rank order."""
    if num_positives == 0 or hits.size == 0:
        return 0.0
    true_ranks = np.flatnonzero(hits) + 1
    precisions = np.arange(1, true_ranks.size + 1) / true_ranks
    return float(precisions.sum() / num_positives)


def average_precision(
    ranked: Iterable[tuple[float, bool]], num_positives: int
) -> float:
    """Non-interpolated AP over (confidence, is_true_positive) pairs.

    num_positives counts every positive in the ground truth, including those
    never retrieved; zero positives define AP as 0.
    """
    if num_positives < 0:
        raise ValueError(f"num_positives must be >= 0, got {num_positives}")
    pairs = list(ranked)
    if not pairs:
        return 0.0
    confidences = np.array([float(c) for c, _ in pairs])
    flags = np.array([bool(f) for _, f in pairs])
    return _ap_from_ranked(flags[rank_descending(confidences)], num_positives)


def frame_level_map(
    tracks: Sequence[FrameScoreTrack], labels: Mapping[str, Array]
) -> tuple[Array, float]:
    """Retrieval AP over all test frames, per class, plus their mean.

    ``labels`` maps video id to a dense per-frame class array (0 background).
    Every labeled video needs a track of the same length; frames of all videos
    are pooled before ranking. The mean skips classes without positives.
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
        frame_labels = np.asarray(labels[video_id], dtype=np.int64)
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
    ap = np.zeros(num_classes)
    for class_id in range(1, num_classes + 1):
        scores = np.concatenate(
            [by_id[v].class_scores(class_id) for v in ordered_ids]
        )
        positives = all_labels == class_id
        ap[class_id - 1] = _ap_from_ranked(
            positives[rank_descending(scores)], int(positives.sum())
        )
    represented = np.array(
        [np.any(all_labels == k) for k in range(1, num_classes + 1)]
    )
    mean = float(ap[represented].mean()) if represented.any() else 0.0
    return ap, mean


def _match_video(iou: Array, thresholds: Sequence[float]) -> Array:
    """Greedy TP flags of one video's ranked predictions at every threshold.

    ``iou`` is the (predictions in rank order, ground truths in annotation
    order) matrix. Each prediction takes the untaken ground truth with IoU
    strictly above the threshold and the best IoU, the earliest on ties.
    Returns (thresholds, predictions) booleans.
    """
    flags = np.zeros((len(thresholds), iou.shape[0]), dtype=bool)
    for t_idx, threshold in enumerate(thresholds):
        hits = iou > threshold
        taken = np.zeros(iou.shape[1], dtype=bool)
        for row in np.flatnonzero(hits.any(axis=1)):
            free = np.where(hits[row] & ~taken, iou[row], -1.0)
            best = int(free.argmax())
            if free[best] > threshold:
                taken[best] = True
                flags[t_idx, row] = True
    return flags


def segment_level_map(
    predictions: Segments,
    gt: AnnotationSet,
    config: EvalConfig | None = None,
    video_ids: set[str] | None = None,
) -> EvalReport:
    """Detection AP per class and IoU threshold, with per-threshold means.

    ``video_ids``, when given, is the universe of evaluated videos and any
    prediction outside it is an error; otherwise the ground truth's videos
    define the universe.
    """
    if config is None:
        config = EvalConfig(gt.num_classes)
    if config.num_classes != gt.num_classes:
        raise ValueError(
            f"config expects {config.num_classes} classes, "
            f"annotations carry {gt.num_classes}"
        )
    known = video_ids if video_ids is not None else {s.video_id for s in gt.segments}
    unknown = ~np.isin(predictions.video_id, np.array(list(known), dtype=str))
    outside = (predictions.class_id < 1) | (predictions.class_id > config.num_classes)
    if np.any(unknown | outside):
        first = int(np.argmax(unknown | outside))
        if unknown[first]:
            video = str(predictions.video_id[first])
            raise ValueError(f"prediction references unknown video {video!r}")
        raise ValueError(
            f"prediction class {predictions.class_id[first]} "
            f"outside 1..{config.num_classes}"
        )
    gts_by_class: dict[int, dict[str, list[tuple[int, int]]]] = {}
    for s in gt.segments:
        by_video = gts_by_class.setdefault(s.class_id, {})
        by_video.setdefault(s.video_id, []).append((s.start, s.end))
    thresholds = config.iou_thresholds
    ap = np.zeros((config.num_classes, len(thresholds)))
    for class_id in range(1, config.num_classes + 1):
        class_gts = gts_by_class.get(class_id, {})
        members = np.flatnonzero(predictions.class_id == class_id)
        ranked = members[rank_descending(predictions.confidence[members])]
        # one stable sort groups the ranks by video, in rank order within each
        ranks = np.argsort(predictions.video_id[ranked], kind="stable")
        videos = predictions.video_id[ranked[ranks]]
        cuts = (np.flatnonzero(videos[1:] != videos[:-1]) + 1).tolist()
        bounds = [0, *cuts, ranks.size] if ranks.size else []
        flags = np.zeros((len(thresholds), ranked.size), dtype=bool)
        for lo, hi in zip(bounds, bounds[1:]):
            video_gts = class_gts.get(str(videos[lo]))
            if not video_gts:
                continue
            rows = ranked[ranks[lo:hi]]
            gt_starts, gt_ends = zip(*video_gts)
            iou = pairwise_iou(
                predictions.start[rows], predictions.end[rows], gt_starts, gt_ends
            )
            flags[:, ranks[lo:hi]] = _match_video(iou, thresholds)
        num_gts = sum(len(v) for v in class_gts.values())
        for t_idx in range(len(thresholds)):
            ap[class_id - 1, t_idx] = _ap_from_ranked(flags[t_idx], num_gts)
    represented = np.array(
        [bool(gts_by_class.get(k)) for k in range(1, config.num_classes + 1)]
    )
    if represented.any():
        seg_map = ap[represented].mean(axis=0)
    else:
        seg_map = np.zeros(len(thresholds))
    return EvalReport(
        class_names=list(gt.class_names),
        iou_thresholds=thresholds,
        segment_ap=ap,
        segment_map=seg_map,
    )


def emit_report(report: EvalReport, path) -> None:
    """Deterministic CSV: one row per class plus a final mAP row, 4 decimals."""
    columns = [f"iou_{t:g}" for t in report.iou_thresholds]
    if report.frame_ap is not None:
        columns.append("frame_ap")
    lines = ["class," + ",".join(columns)]
    for idx, name in enumerate(report.class_names):
        cells = [f"{v:.4f}" for v in report.segment_ap[idx]]
        if report.frame_ap is not None:
            cells.append(f"{report.frame_ap[idx]:.4f}")
        lines.append(f"{name}," + ",".join(cells))
    tail = [f"{v:.4f}" for v in report.segment_map]
    if report.frame_map is not None:
        tail.append(f"{report.frame_map:.4f}")
    lines.append("mAP," + ",".join(tail))
    Path(path).write_text("\n".join(lines) + "\n")


def load_report(path) -> dict[str, dict[str, float]]:
    """Parse an emitted CSV back into {row_label: {column: value}}."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty report")
    header = lines[0].split(",")
    if header[0] != "class":
        raise ValueError(f"{path}: malformed report header")
    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate report column in {lines[0]!r}")
    out: dict[str, dict[str, float]] = {}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: ragged report row {cells[0]!r}")
        if cells[0] in out:
            raise ValueError(f"{path}: duplicate report row {cells[0]!r}")
        out[cells[0]] = {
            column: float(value) for column, value in zip(header[1:], cells[1:])
        }
    return out
