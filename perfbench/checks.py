"""Output checks for one pipeline run, independent of the package's own code.

The files are read by their documented layouts (README and file headers);
segment mAP is recomputed with the naive referees in ``tests/oracles.py``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

FEATURE_HEADER = struct.Struct("<4sIII")  # magic, version, dim, frames


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Corpus:
    class_count: int
    test_frames: dict[str, int]  # test video id -> frame count
    gts: list[tuple[str, int, int, int]]  # (video, class, start, end), file order

    @property
    def frames(self) -> int:
        return sum(self.test_frames.values())


def read_corpus(data_dir: Path) -> Corpus:
    test_frames = {}
    for line in (data_dir / "manifest.tsv").read_text().splitlines():
        parts = line.split("\t")
        if parts[0] == "video" and parts[2] == "test":
            test_frames[parts[1]] = int(parts[3])
    lines = (data_dir / "annotations.tsv").read_text().splitlines()
    class_count = int(lines[0].split("\t")[1])
    gts = []
    for line in lines[1:]:
        if line.strip():
            video, start, end, cls = line.split("\t")
            gts.append((video, int(cls), int(start), int(end)))
    if not test_frames:
        raise CheckFailed("manifest lists no test videos")
    return Corpus(class_count, test_frames, gts)


def check_predict(run_dir: Path, corpus: Corpus) -> list[tuple]:
    """Row count against the log, one track per test video of the right length.

    Returns the predictions as (video, class, start, end, confidence) tuples.
    """
    rows = (run_dir / "predictions.tsv").read_text().splitlines()[1:]
    predictions = []
    for row in rows:
        if row.strip():
            video, start, end, cls, conf = row.split("\t")
            predictions.append((video, int(cls), int(start), int(end), float(conf)))
    logged = None
    for line in (run_dir / "predict_log.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        if key == "predictions":
            logged = int(value)
    if logged != len(predictions):
        raise CheckFailed(f"predictions.tsv has {len(predictions)} rows, log says {logged}")
    tracks = {p.stem: p for p in (run_dir / "tracks").glob("*.fsnf")}
    if set(tracks) != set(corpus.test_frames):
        raise CheckFailed(
            f"{len(tracks)} track files for {len(corpus.test_frames)} test videos"
        )
    for video, path in tracks.items():
        with open(path, "rb") as handle:
            magic, _, _, frames = FEATURE_HEADER.unpack(handle.read(FEATURE_HEADER.size))
        if magic != b"FSNF" or frames != corpus.test_frames[video]:
            raise CheckFailed(
                f"track {video}: {frames} frames, manifest says {corpus.test_frames[video]}"
            )
    unknown = {p[0] for p in predictions} - set(corpus.test_frames)
    if unknown:
        raise CheckFailed(f"predictions for non-test videos {sorted(unknown)[:3]}")
    return predictions


def read_report(run_dir: Path, corpus: Corpus) -> tuple[list[str], list[str]]:
    """Header cells and mAP-row cells; one row per class plus the mAP row."""
    lines = (run_dir / "report.csv").read_text().splitlines()
    if len(lines) != corpus.class_count + 2 or not lines[-1].startswith("mAP,"):
        raise CheckFailed(
            f"report.csv has {len(lines) - 1} rows for {corpus.class_count} classes + mAP"
        )
    return lines[0].split(","), lines[-1].split(",")


def report_maps(header: list[str], map_row: list[str]) -> tuple[float, float]:
    """(frame mAP, segment mAP averaged over the IoU columns)."""
    ious = [float(cell) for name, cell in zip(header, map_row) if name.startswith("iou_")]
    frame = float(map_row[header.index("frame_ap")])
    return frame, sum(ious) / len(ious)


def _interval_iou(a, b) -> float:
    # equals oracles.iou_by_frames for integer half-open intervals
    inter = max(0, min(a[1], b[1]) - max(a[0], b[0]))
    return inter / ((a[1] - a[0]) + (b[1] - b[0]) - inter)


def check_segment_map(
    header: list[str], map_row: list[str], predictions: list[tuple], corpus: Corpus, oracles
) -> None:
    """Recompute the middle IoU column of the mAP row with the naive referees.

    Matching never crosses videos, so ``match_predictions`` runs per video on
    that video's predictions in file order, which keeps the global stable
    confidence ranking; flags are then ranked per class for the AP.
    """
    columns = [i for i, name in enumerate(header) if name.startswith("iou_")]
    column = columns[len(columns) // 2]
    threshold = float(header[column][len("iou_"):])
    by_video: dict[str, list[int]] = {}
    for i, p in enumerate(predictions):
        by_video.setdefault(p[0], []).append(i)
    gts_by_video: dict[str, list[tuple]] = {}
    for g in corpus.gts:
        if g[0] in corpus.test_frames:
            gts_by_video.setdefault(g[0], []).append(g)
    flag = [False] * len(predictions)
    for video, indices in by_video.items():
        preds = [predictions[i] for i in indices]
        flags, order = oracles.match_predictions(
            preds, gts_by_video.get(video, []), threshold, _interval_iou
        )
        for f, j in zip(flags, order):
            flag[indices[j]] = f
    aps = []
    for cls in range(1, corpus.class_count + 1):
        positives = sum(1 for g in corpus.gts if g[1] == cls and g[0] in corpus.test_frames)
        if positives == 0:
            continue
        ranked = sorted(
            (i for i, p in enumerate(predictions) if p[1] == cls),
            key=lambda i: -predictions[i][4],
        )
        aps.append(oracles.ap_by_pr_points([flag[i] for i in ranked], positives))
    recomputed = sum(aps) / len(aps) if aps else 0.0
    reported = float(map_row[column])
    if abs(recomputed - reported) > 0.5e-4 + 1e-9:
        raise CheckFailed(
            f"segment mAP@{threshold:g}: report {reported:.4f}, oracle {recomputed:.4f}"
        )
