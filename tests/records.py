"""Build ``Segments`` records from rows, of predictions or of ground truth,
and read them back, and parse emitted reports, for the tests."""

from pathlib import Path

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


def load_report(path) -> dict[str, dict[str, float]]:
    """Parse an emitted report CSV back into {row_label: {column: value}}."""
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
