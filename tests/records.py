"""Build ``Segments`` records from rows, of predictions or of ground truth,
and read them back, for the tests."""

from fsn.data import Segments


def segments(*rows) -> Segments:
    """One record of (start, end, confidence[, class_id[, video_id]]) rows.

    The class defaults to 1 and the video to ``"v"``.
    """
    full = [(*row, *(1, "v")[len(row) - 3 :]) for row in rows]
    return Segments.from_rows([(v, c, s, e, p) for s, e, p, c, v in full])


def rows(record: Segments) -> list[tuple]:
    """The (start, end, confidence, class_id, video_id) rows of a record."""
    return list(zip(
        record.start.tolist(),
        record.end.tolist(),
        record.confidence.tolist(),
        record.class_id.tolist(),
        record.video_id.tolist(),
    ))


def ground_truth(*rows) -> Segments:
    """A ground-truth record of (start, end[, class_id[, video_id]]) rows.

    Every confidence is 1.0; the class defaults to 1 and the video to ``"v"``.
    """
    return segments(*[(start, end, 1.0, *rest) for start, end, *rest in rows])


def gt_rows(record: Segments) -> list[tuple]:
    """The (video_id, class_id, start, end) rows of a record, as the oracles take them."""
    return list(zip(
        record.video_id.tolist(),
        record.class_id.tolist(),
        record.start.tolist(),
        record.end.tolist(),
    ))
