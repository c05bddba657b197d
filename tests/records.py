"""Build ``Segments`` records from rows and read them back, for the tests."""

import numpy as np

from fsn.localize import SEGMENT_DTYPES, Segments


def segments(*rows) -> Segments:
    """One record of (start, end, confidence[, class_id[, video_id]]) rows.

    The class defaults to 1 and the video to ``"v"``.
    """
    full = [(*row, *(1, "v")[len(row) - 3 :]) for row in rows]
    start, end, confidence, class_id, video_id = zip(*full) if full else ((),) * 5
    columns = (video_id, class_id, start, end, confidence)
    return Segments(*(np.array(c, dtype=d) for c, d in zip(columns, SEGMENT_DTYPES)))


def rows(record: Segments) -> list[tuple]:
    """The (start, end, confidence, class_id, video_id) rows of a record."""
    return list(zip(
        record.start.tolist(),
        record.end.tolist(),
        record.confidence.tolist(),
        record.class_id.tolist(),
        record.video_id.tolist(),
    ))
