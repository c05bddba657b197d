"""Naive reference implementations used to cross-check the package.

Everything here favors obviousness over speed: triple loops, frame sets,
exhaustive scans. Tests treat these as ground truth.
"""

from __future__ import annotations

import numpy as np


def naive_conv1d(x, weights, bias, dilation):
    """Triple-loop dilated convolution with symmetric zero padding."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    length, _ = x.shape
    out_ch, in_ch, kernel = weights.shape
    pad = dilation * (kernel - 1) // 2
    out = np.zeros((length, out_ch))
    for t in range(length):
        for o in range(out_ch):
            acc = bias[o]
            for i in range(in_ch):
                for j in range(kernel):
                    src = t + j * dilation - pad
                    if 0 <= src < length:
                        acc += weights[o, i, j] * x[src, i]
            out[t, o] = acc
    return out


def naive_upsample(x, target_len):
    """Per-position endpoint-aligned linear interpolation."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n == 1:
        return np.repeat(x, target_len, axis=0)
    out = np.zeros((target_len, x.shape[1]))
    for t in range(target_len):
        s = t * (n - 1) / (target_len - 1)
        lo = int(np.floor(s))
        hi = int(np.ceil(s))
        alpha = s - lo
        out[t] = (1 - alpha) * x[lo] + alpha * x[hi]
    return out


def iou_by_frames(a, b):
    """Interval IoU computed on explicit frame index sets."""
    sa = set(range(int(a[0]), int(a[1])))
    sb = set(range(int(b[0]), int(b[1])))
    return len(sa & sb) / len(sa | sb)


def interval_iou(a, b):
    """IoU of two half-open intervals with real bounds, in scalar floats:
    the intersection, then the union as (length a + length b) - intersection."""
    intersection = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    return intersection / (((a[1] - a[0]) + (b[1] - b[0])) - intersection)


def greedy_nms(segments, iou_fn, threshold):
    """Literal greedy suppression over (start, end, confidence) triples.

    Highest confidence first, ties by earlier start then shorter length;
    a segment is kept iff its IoU with every previously kept segment is at
    most the threshold.
    """
    order = sorted(
        range(len(segments)),
        key=lambda i: (-segments[i][2], segments[i][0], segments[i][1] - segments[i][0]),
    )
    kept = []
    for i in order:
        seg = segments[i]
        if all(iou_fn(seg, other) <= threshold for other in kept):
            kept.append(seg)
    return kept


def ap_by_pr_points(flags, num_positives):
    """Non-interpolated AP as sum of precision * recall increments.

    ``flags`` is the positive/negative flag sequence already in ranked order.
    """
    if num_positives == 0:
        return 0.0
    ap = 0.0
    tp = 0
    prev_recall = 0.0
    for rank, is_pos in enumerate(flags, start=1):
        if is_pos:
            tp += 1
            recall = tp / num_positives
            ap += (recall - prev_recall) * (tp / rank)
            prev_recall = recall
    return ap


def pooled_frame_ap(columns, labels, class_id):
    """Frame-level AP of one class over several videos.

    ``columns`` holds each video's class scores and ``labels`` its frame
    labels, videos in the same order. The frames are pooled in that order and
    ranked by Python's stable sort on descending score, so tied frames keep
    their pooled order.
    """
    scores = [float(score) for column in columns for score in column]
    flags = [int(label) == class_id for video in labels for label in video]
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    return ap_by_pr_points([flags[i] for i in order], sum(flags))


def match_predictions(preds, gts, threshold, iou_fn):
    """Mark each prediction TP/FP by scanning all ground truths.

    ``preds`` are (video, class, start, end, confidence) tuples processed in
    descending confidence (stable on ties); ``gts`` are (video, class, start,
    end). A prediction is a TP iff some unmatched ground truth of the same
    video and class has IoU strictly above the threshold; the best IoU wins,
    earliest ground truth on ties. Returns flags aligned with the ranked order
    plus that order.
    """
    order = sorted(range(len(preds)), key=lambda i: -preds[i][4])
    taken = [False] * len(gts)
    flags = []
    for i in order:
        video, cls, start, end, _ = preds[i]
        best = -1
        best_iou = 0.0
        for j, (gv, gc, gs, ge) in enumerate(gts):
            if taken[j] or gv != video or gc != cls:
                continue
            iou = iou_fn((start, end), (gs, ge))
            if iou > threshold and iou > best_iou:
                best = j
                best_iou = iou
        if best >= 0:
            taken[best] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags, order


def window_scan(frame_labels, clip_len, stride, min_action_frames):
    """Kept window starts, one window at a time: a window is kept iff it
    holds at least ``min_action_frames`` non-background frames."""
    starts = []
    for start in range(0, len(frame_labels) - clip_len + 1, stride):
        window = np.asarray(frame_labels[start : start + clip_len])
        if int((window > 0).sum()) >= min_action_frames:
            starts.append(start)
    return starts


def window_majority_class(window_labels):
    """Most frequent non-background class of one window, lowest id on ties,
    0 for a window without action frames."""
    window_labels = np.asarray(window_labels)
    action = window_labels[window_labels > 0]
    if action.size == 0:
        return 0
    return int(np.argmax(np.bincount(action)))


def list_rebalance(classes, seed):
    """Oversampling order over per-window classes, built from Python lists.

    Every window once, then for each class in ascending order its shortfall
    to the largest class, drawn with ``rng.choice`` over the class's member
    list. Returns window indices.
    """
    groups = {}
    for i, cls in enumerate(classes):
        groups.setdefault(cls, []).append(i)
    out = list(range(len(classes)))
    if not groups:
        return out
    target = max(len(members) for members in groups.values())
    rng = np.random.default_rng(seed)
    for cls in sorted(groups):
        members = groups[cls]
        shortfall = target - len(members)
        if shortfall > 0:
            out.extend(int(i) for i in rng.choice(members, size=shortfall, replace=True))
    return out


def threshold_runs(column, thresholds):
    """Grouping by a literal frame scan, one threshold after another.

    Returns (start, end, confidence) triples: each maximal run of frames
    scoring strictly above a threshold, kept at its first appearance over
    the sweep, with the run's ``ndarray.mean`` as its confidence.
    """
    out, seen = [], set()
    for threshold in thresholds:
        start = None
        for frame in range(len(column) + 1):
            above = frame < len(column) and column[frame] > threshold
            if above and start is None:
                start = frame
            elif not above and start is not None:
                if (start, frame) not in seen:
                    seen.add((start, frame))
                    out.append((start, frame, column[start:frame].mean()))
                start = None
    return out


def per_video_batches(
    features, frame_labels, clip_len, snippet_len, stride, min_action_frames,
    seed, batch_size, steps,
):
    """The strong trainer's batches, gathered window by window from the
    per-video arrays.

    ``features`` and ``frame_labels`` hold each video's (frames, dim)
    descriptors and dense labels. The windows are those ``window_scan``
    keeps, video after video, ordered by ``list_rebalance`` over their
    majority classes; each step draws ``batch_size`` of that order from
    ``default_rng([seed, 1])``. Yields (snippet-center descriptors, int64
    frame labels) per step.
    """
    windows, classes = [], []
    for video, labels in enumerate(frame_labels):
        for start in window_scan(labels, clip_len, stride, min_action_frames):
            windows.append((video, start))
            classes.append(window_majority_class(labels[start : start + clip_len]))
    order = np.array(list_rebalance(classes, seed))
    centers = np.arange(clip_len // snippet_len) * snippet_len + snippet_len // 2
    rng = np.random.default_rng([seed, 1])
    for _ in range(steps):
        picks = [windows[i] for i in order[rng.integers(0, len(order), size=batch_size)]]
        yield (
            np.stack([features[v][s + centers] for v, s in picks]),
            np.stack([np.asarray(frame_labels[v][s : s + clip_len], np.int64) for v, s in picks]),
        )
