"""Build ``Segments`` records from rows, of predictions or of ground truth,
and read them back, parse emitted reports, and hold a synthetic corpus in
memory, for the tests."""

from pathlib import Path
from types import SimpleNamespace

from numpy.random import default_rng

from fsn.data import AnnotationSet, Segments, SynthConfig, _synth_world, synth_videos


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


def synth_corpus(config: SynthConfig) -> SimpleNamespace:
    """The whole synthetic corpus of ``config`` in memory: ``synth_videos``
    collected into ``videos``, ``annotations``, ``train_ids`` and ``test_ids``,
    with the ``config`` and the world they were drawn from (``background``,
    the (K, 2, dim) ``class_patterns``)."""
    videos, rows = [], []
    for video, video_rows in synth_videos(config):
        videos.append(video)
        rows.extend(video_rows)
    background, class_patterns = _synth_world(default_rng(config.seed), config)
    ids = [video.video_id for video in videos]
    return SimpleNamespace(
        videos=videos,
        annotations=AnnotationSet(config.class_names, Segments.from_rows(rows)),
        train_ids=ids[: config.num_train],
        test_ids=ids[config.num_train :],
        config=config,
        background=background,
        class_patterns=class_patterns,
    )
