"""Feature files, annotations, training windows, and the synthetic corpus.

Per-frame descriptors travel in a small binary container (magic ``FSNF``,
float32 payload), loaded as a read-only float32 view of the file's bytes: the
model computes in float32 on what it reads. Annotations and manifests
are tab-separated text. All randomness goes through seeded
``numpy.random.Generator`` instances so every artifact is reproducible from
its seed.

A segment, predicted or annotated, is an entry of one ``Segments`` record of
parallel columns; the ground truth is such a record with every confidence
1.0, parsed and checked as columns by ``load_annotations`` and cut into
per-video slices by one stable sort. No object is built per segment.

A training window is its start frame in a video: ``make_clips`` returns the
kept starts as an index array, and ``clip_majority_class`` and ``rebalance``
work on index arrays too. Windows need only a file's header
(``read_feature_header``) and the annotations, so training finds them before
it reads any payload; it then holds one block of the snippet descriptors of
every window its batch schedule draws, and a step gathers its windows'
descriptors and labels from that block and the split's label array.
"""

from __future__ import annotations

import logging
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

Array = np.ndarray

log = logging.getLogger(__name__)

FEATURE_MAGIC = b"FSNF"
FEATURE_VERSION = 1
_FEATURE_HEADER = struct.Struct("<4sIII")
# the column types of a Segments record, in field order
SEGMENT_DTYPES = (str, np.int64, np.int64, np.int64, np.float64)


@dataclass
class VideoFeatures:
    """Per-frame descriptors for one untrimmed video, (frames, dim): float32
    as a feature file stores them, any other input as float64."""

    video_id: str
    features: Array

    def __post_init__(self) -> None:
        features = np.asarray(self.features)
        if features.dtype != np.float32:
            features = features.astype(np.float64, copy=False)
        self.features = features
        if self.features.ndim != 2 or min(self.features.shape) < 1:
            raise ValueError(
                f"{self.video_id}: features must be (frames, dim), both at least 1, "
                f"got shape {self.features.shape}"
            )
        if not np.all(np.isfinite(self.features)):
            raise ValueError(f"{self.video_id}: features contain non-finite values")

    @property
    def frame_count(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class Segments:
    """Half-open frame runs [start, end), one entry per segment: predictions,
    or the ground truth with every confidence 1.0.

    Parallel columns: ``video_id`` (str), ``class_id``, ``start`` and ``end``
    (int64) and ``confidence`` (float64); ``len()`` is the segment count.
    """

    video_id: Array
    class_id: Array
    start: Array
    end: Array
    confidence: Array

    def __len__(self) -> int:
        return self.start.size

    def columns(self) -> tuple[Array, ...]:
        return (self.video_id, self.class_id, self.start, self.end, self.confidence)

    @staticmethod
    def from_rows(rows: Sequence[tuple[str, int, int, int, float]]) -> Segments:
        """A record of (video_id, class_id, start, end, confidence) rows."""
        columns = zip(*rows) if rows else ((),) * len(SEGMENT_DTYPES)
        return Segments(*(np.array(c, dtype=d) for c, d in zip(columns, SEGMENT_DTYPES)))

    def take(self, index) -> Segments:
        """The segments at ``index`` (integer positions or a boolean mask)."""
        return Segments(*(column[index] for column in self.columns()))

    @staticmethod
    def concatenate(parts: Sequence[Segments]) -> Segments:
        """One record of the parts' segments, in order; none gives an empty one."""
        empty = [np.empty(0, dtype) for dtype in SEGMENT_DTYPES]
        columns = zip(empty, *(part.columns() for part in parts))
        return Segments(*(np.concatenate(column) for column in columns))

    def per_video(self, video_ids: Sequence[str]) -> list[Segments]:
        """Each given video's segments, in record order, cut from one stable sort."""
        order = np.argsort(self.video_id, kind="stable")
        videos, ids = self.video_id[order], np.array(video_ids, dtype=str)
        lo, hi = (np.searchsorted(videos, ids, side).tolist() for side in ("left", "right"))
        return [self.take(order[a:b]) for a, b in zip(lo, hi)]


@dataclass
class AnnotationSet:
    """Class-name table plus every ground-truth segment of a corpus."""

    class_names: list[str]
    segments: Segments

    def __post_init__(self) -> None:
        if not self.class_names:
            raise ValueError("class table is empty")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


def member_of(values: Array, keys) -> Array:
    """Whether each entry of the string column ``values`` is one of ``keys``,
    by binary search in the sorted keys (numpy's set routines would import
    ``numpy.ma`` in every process that calls them)."""
    keys = np.sort(np.array(list(keys), dtype=str))
    return np.searchsorted(keys, values, "right") > np.searchsorted(keys, values, "left")


def write_features(video: VideoFeatures, path) -> None:
    with np.errstate(over="ignore"):  # an overflow is reported below, by video
        payload = np.ascontiguousarray(video.features, dtype="<f4")
    if not np.all(np.isfinite(payload)):
        raise ValueError(f"{video.video_id}: features are not finite as float32")
    header = _FEATURE_HEADER.pack(
        FEATURE_MAGIC, FEATURE_VERSION, video.feature_dim, video.frame_count
    )
    Path(path).write_bytes(header + payload.tobytes())


@dataclass(frozen=True)
class FeatureHeader:
    """What a feature file's header says of its video, checked against the file size."""

    video_id: str
    frame_count: int
    feature_dim: int


def _check_header(path: Path, head: bytes, size: int) -> tuple[int, int]:
    """The (feature_dim, frame_count) of a feature file whose first bytes are
    ``head`` and whose size is ``size`` bytes."""
    if len(head) < _FEATURE_HEADER.size:
        raise ValueError(f"{path}: truncated feature file")
    magic, version, dim, frames = _FEATURE_HEADER.unpack_from(head)
    if magic != FEATURE_MAGIC:
        raise ValueError(f"{path}: not a feature file (bad magic {magic!r})")
    if version != FEATURE_VERSION:
        raise ValueError(f"{path}: unsupported feature file version {version}")
    if min(frames, dim) < 1:
        raise ValueError(f"{path}: {frames} frames of dimension {dim}, both must be at least 1")
    expected = _FEATURE_HEADER.size + 4 * dim * frames
    if size != expected:
        raise ValueError(f"{path}: payload is {size} bytes, header implies {expected}")
    return dim, frames


def read_feature_header(path) -> FeatureHeader:
    """A feature file's header alone, with the checks ``load_features`` makes
    before it reads the payload."""
    path = Path(path)
    with path.open("rb") as file:
        head = file.read(_FEATURE_HEADER.size)
        size = os.fstat(file.fileno()).st_size
    dim, frames = _check_header(path, head, size)
    return FeatureHeader(path.stem, frames, dim)


def load_features(path) -> VideoFeatures:
    """A feature file's video, named by the file's stem."""
    path = Path(path)
    raw = path.read_bytes()
    dim, frames = _check_header(path, raw[: _FEATURE_HEADER.size], len(raw))
    data = np.frombuffer(raw, dtype="<f4", offset=_FEATURE_HEADER.size)
    try:
        return VideoFeatures(path.stem, data.reshape(frames, dim))
    except ValueError as err:  # a non-finite payload: name the file, as above
        raise ValueError(f"{path}: {err}") from None


def load_feature_dir(directory, video_ids=None) -> list[FeatureHeader]:
    """The headers of every ``.fsnf`` file in a directory, optionally a chosen
    subset, in name order; no payload is read.

    All videos must agree on the descriptor dimension.
    """
    directory = Path(directory)
    paths = sorted(directory.glob("*.fsnf"))
    if video_ids is not None:
        wanted = set(video_ids)
        paths = [p for p in paths if p.stem in wanted]
        missing = wanted - {p.stem for p in paths}
        if missing:
            raise FileNotFoundError(
                f"{directory}: no feature file for video(s) {sorted(missing)}"
            )
    if not paths:
        raise FileNotFoundError(f"{directory}: no feature files found")
    headers = [read_feature_header(p) for p in paths]
    dims = {h.feature_dim for h in headers}
    if len(dims) > 1:
        raise ValueError(f"{directory}: mixed feature dims {sorted(dims)}")
    return headers


def write_annotations(annotations: AnnotationSet, path) -> None:
    """The class table, then one row per segment sorted by (video, start, end, class)."""
    seg = annotations.segments
    order = np.lexsort((seg.class_id, seg.end, seg.start, seg.video_id))
    columns = (seg.video_id, seg.start, seg.end, seg.class_id)
    lines = ["\t".join(["classes", str(annotations.num_classes), *annotations.class_names])]
    rows = zip(*(c[order].tolist() for c in columns))
    lines.extend(f"{v}\t{s}\t{e}\t{c}" for v, s, e, c in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def load_annotations(path, frame_counts: dict[str, int] | None = None) -> AnnotationSet:
    """Parse a segment annotation file, validating against frame counts if given.

    Rows are parsed up to the first one that does not parse, then checked as
    columns; the first bad row in file order names its line.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty annotation file")
    header = lines[0].split("\t")
    if len(header) < 3 or header[0] != "classes":
        raise ValueError(f"{path}: line 1: malformed class table header")
    try:
        count = int(header[1])
    except ValueError:
        raise ValueError(f"{path}: line 1: class count is not an integer") from None
    names = header[2:]
    if len(names) != count or count < 1:
        raise ValueError(
            f"{path}: line 1: class table announces {count} names, has {len(names)}"
        )
    numbers = [n for n, line in enumerate(lines[1:], start=2) if line.strip()]
    rows, error = [], None
    for n in numbers:
        fields = lines[n - 1].split("\t")
        if len(fields) != 4:
            error = f"expected 4 fields, got {len(fields)}"
            break
        try:
            rows.append((fields[0], int(fields[3]), int(fields[1]), int(fields[2]), 1.0))
        except ValueError:
            error = "non-integer field"
            break
    try:
        seg = Segments.from_rows(rows)
    except OverflowError:  # some field is beyond int64: keep the rows before it
        fits = [-(2**63) <= min(r[1:4]) and max(r[1:4]) < 2**63 for r in rows]
        rows = rows[: fits.index(False)]
        seg, error = Segments.from_rows(rows), "integer field outside the int64 range"
    video, cls, start, end = seg.video_id, seg.class_id, seg.start, seg.end
    checks = [
        ((cls < 1) | (cls > count), lambda k: f"class id {cls[k]} outside 1..{count}"),
        ((start < 0) | (end <= start), lambda k: f"bad segment [{start[k]}, {end[k]})"),
    ]
    if frame_counts is not None:
        frames = np.array([frame_counts.get(v, -1) for v in video.tolist()], dtype=np.int64)
        checks += [
            (frames < 0, lambda k: f"unknown video {str(video[k])!r}"),
            (end > frames,
             lambda k: f"segment end {end[k]} exceeds {video[k]}'s {frames[k]} frames"),
        ]
    # a row failing a check comes before the row that did not parse, if any
    failed = np.flatnonzero(np.any([mask for mask, _ in checks], axis=0))
    bad = int(failed[0]) if failed.size else len(rows)
    if failed.size:
        error = next(message(bad) for mask, message in checks if mask[bad])
    if error is not None:
        raise ValueError(f"{path}: line {numbers[bad]}: {error}")
    return AnnotationSet(names, seg)


def label_frames(frame_count: int, segments: Segments, dtype=np.int64) -> Array:
    """Dense per-frame class labels; overlaps go to the earliest-starting segment.

    ``dtype`` must hold every class id of ``segments``.
    """
    labels = np.zeros(frame_count, dtype=dtype)
    # painted last to first in (start, end, class) order, so the first wins
    order = np.lexsort((segments.class_id, segments.end, segments.start))[::-1]
    columns = (segments.start, segments.end, segments.class_id, segments.video_id)
    for start, end, class_id, video in zip(*(c[order].tolist() for c in columns)):
        if end > frame_count:
            raise ValueError(f"{video}: segment end {end} exceeds {frame_count} frames")
        labels[start:end] = class_id
    return labels


def make_clips(
    video: VideoFeatures | FeatureHeader,
    segments: Segments,
    clip_len: int = 35,
    snippet_len: int = 5,
    stride: int | None = None,
    min_action_frames: int = 5,
) -> Array:
    """Start frames of the sliding windows a strong head trains on, int64.

    Windows of ``clip_len`` frames start every ``stride`` frames; those with
    fewer than ``min_action_frames`` non-background frames are dropped, found
    from the cumulative action-frame count in one pass. Videos shorter than
    one window are skipped with a warning. Only the video's id and frame
    count are read, so a ``FeatureHeader`` serves as well.
    """
    if clip_len % snippet_len != 0:
        raise ValueError(f"clip_len {clip_len} is not a multiple of snippet_len {snippet_len}")
    if stride is None:
        stride = clip_len
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if video.frame_count < clip_len:
        log.warning(
            "skipping %s: %d frames is shorter than one %d-frame clip",
            video.video_id, video.frame_count, clip_len,
        )
        return np.zeros(0, dtype=np.int64)
    action = np.concatenate(([0], np.cumsum(label_frames(video.frame_count, segments) > 0)))
    starts = np.arange(0, video.frame_count - clip_len + 1, stride)
    return starts[action[starts + clip_len] - action[starts] >= min_action_frames]


def snippet_centers(clip_len: int, snippet_len: int) -> Array:
    """Frame offsets, from a window's start, of the frames standing for its
    clip_len / snippet_len snippets: each snippet's center frame."""
    return np.arange(clip_len // snippet_len) * snippet_len + snippet_len // 2


def clip_majority_class(frame_labels: Array, starts: Array, clip_len: int) -> Array:
    """Most frequent non-background class of each window (lowest id on ties).

    ``frame_labels`` are one video's dense labels and ``starts`` its window
    starts; a window without action frames gets class 0.
    """
    frame_labels = np.asarray(frame_labels, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    majority = np.zeros(starts.size, dtype=np.int64)
    most = np.zeros(starts.size, dtype=np.int64)
    # ascending classes with a strict comparison: ties keep the lower id
    for cls in np.unique(frame_labels[frame_labels > 0]):
        cumulative = np.concatenate(([0], np.cumsum(frame_labels == cls)))
        count = cumulative[starts + clip_len] - cumulative[starts]
        wins = count > most
        majority[wins] = cls
        most[wins] = count[wins]
    return majority


def rebalance(classes, seed: int = 0) -> Array:
    """Window order that oversamples minority classes to the majority count.

    ``classes`` holds each window's majority class. The result indexes the
    windows: every window once, in order, then for each class in ascending
    order its shortfall to the largest class, drawn uniformly with
    replacement from its members. An already balanced set comes back as
    ``0..n-1``.
    """
    classes = np.asarray(classes, dtype=np.int64)
    order = [np.arange(classes.size)]
    if classes.size:
        present, counts = np.unique(classes, return_counts=True)
        target = counts.max()
        rng = np.random.default_rng(seed)
        for cls, count in zip(present, counts):
            if count < target:
                members = np.flatnonzero(classes == cls)
                order.append(rng.choice(members, size=target - count, replace=True))
    return np.concatenate(order)


def span_bounds(frame_count: int, positions: int) -> Array:
    """Boundaries of ``positions`` near-equal spans covering [0, frame_count)."""
    return np.floor(
        np.arange(positions + 1) * frame_count / positions
    ).astype(np.int64)


@dataclass
class SynthConfig:
    """Knobs for the synthetic untrimmed-video corpus."""

    num_videos: int = 80
    frames_per_video: int = 600
    num_classes: int = 4
    feature_dim: int = 16
    prototype_noise: float = 0.3
    context_ambiguity: bool = False
    instance_density: float = 0.2
    seed: int = 0
    train_fraction: float = 0.75
    single_class_videos: bool = False
    min_instance_len: int = 18
    max_instance_len: int = 30

    def __post_init__(self) -> None:
        if self.num_videos < 2:
            raise ValueError("need at least 2 videos to split train/test")
        if self.num_classes < 1:
            raise ValueError("need at least one class")
        if self.context_ambiguity and self.num_classes < 2:
            raise ValueError("context ambiguity needs at least two classes to pair")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be positive")
        if not 0.0 < self.instance_density <= 0.6:
            raise ValueError(f"instance_density must be in (0, 0.6], got {self.instance_density}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be strictly between 0 and 1")
        if self.min_instance_len < 2:
            raise ValueError("instances need at least 2 frames for two phases")
        if self.max_instance_len < self.min_instance_len:
            raise ValueError("max_instance_len below min_instance_len")
        if self.frames_per_video < 2 * self.max_instance_len:
            raise ValueError("videos too short for the configured instance lengths")
        if self.prototype_noise < 0.0:
            raise ValueError("prototype_noise must be >= 0")

    @property
    def num_train(self) -> int:
        """Videos in the train split, which leads: at least one per split."""
        split = int(round(self.train_fraction * self.num_videos))
        return min(max(split, 1), self.num_videos - 1)

    @property
    def class_names(self) -> list[str]:
        return [f"action_{k:02d}" for k in range(1, self.num_classes + 1)]


@dataclass
class SynthDataset:
    videos: list[VideoFeatures]
    annotations: AnnotationSet
    train_ids: list[str]
    test_ids: list[str]
    config: SynthConfig
    background: Array = field(repr=False, default=None)
    class_patterns: Array = field(repr=False, default=None)  # (K, 2, dim)
    ambiguous_pairs: list[tuple[int, int]] = field(default_factory=list)


def _draw_instance_lengths(rng, target_frames: int, cfg: SynthConfig) -> list[int]:
    lengths: list[int] = []
    total = 0
    while total < target_frames:
        length = int(rng.integers(cfg.min_instance_len, cfg.max_instance_len + 1))
        if total + length > target_frames:
            length = target_frames - total
            if length < cfg.min_instance_len:
                break
        lengths.append(length)
        total += length
    return lengths


def _synth_world(rng, cfg: SynthConfig) -> tuple[Array, Array, list[tuple[int, int]]]:
    """The background prototype, the (K, 2, dim) class patterns and the
    ambiguous class pairs: the first draws from a corpus seed."""
    dim, num_classes = cfg.feature_dim, cfg.num_classes
    background = rng.normal(size=dim)
    patterns = np.zeros((num_classes, 2, dim))
    ambiguous_pairs: list[tuple[int, int]] = []
    if cfg.context_ambiguity:
        for first in range(0, num_classes - 1, 2):
            u, v = rng.normal(size=(2, dim))
            patterns[first] = (u, v)
            patterns[first + 1] = (v, u)
            ambiguous_pairs.append((first + 1, first + 2))
        if num_classes % 2 == 1:
            patterns[num_classes - 1] = rng.normal(size=(2, dim))
    else:
        for k in range(num_classes):
            patterns[k] = rng.normal(size=(2, dim))
    return background, patterns, ambiguous_pairs


def synth_videos(config: SynthConfig) -> Iterator[tuple[VideoFeatures, list[tuple]]]:
    """Draw the synthetic corpus one video at a time.

    Yields each video with its ground-truth rows (video_id, class_id, start,
    end, 1.0), so a caller can write a video and drop it before the next one
    is drawn. Every action instance renders a two-phase prototype pattern
    (first half one prototype, second half another) on top of a shared
    background prototype, plus isotropic noise. With ``context_ambiguity``
    on, classes are paired and each pair shares its two prototypes in
    opposite order, so no single frame identifies the class; only the
    temporal arrangement does. Per-video action density matches
    ``instance_density`` exactly whenever the length quantization allows.
    """
    cfg = config
    rng = np.random.default_rng(cfg.seed)
    background, patterns, _ = _synth_world(rng, cfg)
    frames, num_classes = cfg.frames_per_video, cfg.num_classes
    target_action = int(round(cfg.instance_density * frames))
    for v in range(cfg.num_videos):
        video_id = f"synth_{v:04d}"
        lengths = _draw_instance_lengths(rng, target_action, cfg)
        while lengths and frames - sum(lengths) < len(lengths) + 1:
            lengths.pop()
        features = np.tile(background, (frames, 1))
        rows = []
        if lengths:
            count = len(lengths)
            spare = frames - sum(lengths) - (count + 1)
            gaps = 1 + rng.multinomial(spare, np.full(count + 1, 1.0 / (count + 1)))
            fixed_class = (v % num_classes) + 1 if cfg.single_class_videos else None
            cursor = 0
            for gap, length in zip(gaps, lengths):
                cursor += int(gap)
                class_id = fixed_class or int(rng.integers(1, num_classes + 1))
                first_phase = length // 2
                pattern = patterns[class_id - 1]
                features[cursor : cursor + first_phase] = pattern[0]
                features[cursor + first_phase : cursor + length] = pattern[1]
                rows.append((video_id, class_id, cursor, cursor + length, 1.0))
                cursor += length
        features += rng.normal(size=(frames, cfg.feature_dim)) * cfg.prototype_noise
        yield VideoFeatures(video_id, features), rows


def synth_generate(config: SynthConfig) -> SynthDataset:
    """The whole synthetic corpus in memory: ``synth_videos`` collected, with
    the world they were drawn from."""
    background, patterns, ambiguous_pairs = _synth_world(
        np.random.default_rng(config.seed), config
    )
    videos, rows = [], []
    for video, video_rows in synth_videos(config):
        videos.append(video)
        rows.extend(video_rows)
    ids = [v.video_id for v in videos]
    return SynthDataset(
        videos=videos,
        annotations=AnnotationSet(config.class_names, Segments.from_rows(rows)),
        train_ids=ids[: config.num_train],
        test_ids=ids[config.num_train :],
        config=config,
        background=background,
        class_patterns=patterns,
        ambiguous_pairs=ambiguous_pairs,
    )


def write_manifest(config: SynthConfig, frame_counts: dict[str, int], path) -> None:
    """Record the generator settings and each video's split and frame count,
    in ``frame_counts`` order; the first ``config.num_train`` videos train."""
    lines = ["# synthetic corpus manifest"]
    for key, value in sorted(vars(config).items()):
        lines.append(f"config\t{key}\t{value}")
    for i, (video_id, frames) in enumerate(frame_counts.items()):
        split = "train" if i < config.num_train else "test"
        lines.append(f"video\t{video_id}\t{split}\t{frames}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_manifest(path) -> dict:
    """Read a manifest back: config echo plus train/test id lists."""
    path = Path(path)
    config: dict[str, str] = {}
    train_ids: list[str] = []
    test_ids: list[str] = []
    listed: set[str] = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if parts[0] == "config" and len(parts) == 3:
            config[parts[1]] = parts[2]
        elif parts[0] == "video" and len(parts) == 4:
            if parts[1] in listed:
                raise ValueError(f"{path}: line {lineno}: video {parts[1]!r} is listed twice")
            listed.add(parts[1])
            if parts[2] == "train":
                train_ids.append(parts[1])
            elif parts[2] == "test":
                test_ids.append(parts[1])
            else:
                raise ValueError(f"{path}: line {lineno}: unknown split {parts[2]!r}")
        else:
            raise ValueError(f"{path}: line {lineno}: malformed manifest line")
    return {"config": config, "train_ids": train_ids, "test_ids": test_ids}
