"""Command line surface for the localization pipeline.

Every subcommand is a deterministic function of (config file, flags, seed):
rerunning with the same inputs reproduces output files byte for byte. Config
files are flat ``key = value`` lines with ``#`` comments; command-line flags
override file values.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import pickle
import shutil
import signal
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from .data import (
    AnnotationSet,
    FeatureHeader,
    Segments,
    SynthConfig,
    VideoFeatures,
    clip_majority_class,
    load_annotations,
    load_feature_dir,
    load_features,
    load_manifest,
    label_frames,
    make_clips,
    read_lines,
    rebalance,
    snippet_centers,
    span_bounds,
    synth_videos,
    write_annotations,
    write_features,
    write_manifest,
)
from .evaluate import (
    DEFAULT_STRONG_IOUS,
    DEFAULT_WEAK_IOUS,
    EvalReport,
    emit_report,
    frame_level_map,
    iou_thresholds,
    segment_level_map,
)
from .localize import (
    FrameScoreTrack,
    join_predictions,
    load_predictions,
    localize,
    nms_threshold_for,
    write_predictions,
)
from .model import (
    Head,
    ModelConfig,
    fsn_loss_and_grads,
    fsn_train_step,
    head_parameters,
    init_ablation,
    init_fsn,
    init_wfsn,
    load_model,
    save_model,
)
from .nncore import (
    ConvLayer1D,
    GAP,
    GMP,
    OptimizerState,
    bilinear_upsample_1d,
    bilinear_upsample_1d_backward,
    dilated_conv1d_backward,
    dilated_conv1d_forward,
    framewise_cross_entropy,
    gradient_check,
    relu,
    relu_backward,
    temporal_pool,
    temporal_pool_backward,
)

def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in str(text).split(",") if part.strip())


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in str(text).split(",") if part.strip())


@dataclass
class RunConfig:
    """Merged settings for one command run: defaults, then the config file,
    then flags. A ``None`` setting was not given. ``given`` holds the given
    ``ModelConfig`` and ``SynthConfig`` settings, by name, written only by
    ``build_config``; the rest are taken from the data or the model, or keep
    their dataclass's default. ``seed`` seeds the corpus too."""

    features_dir: str | None = None
    annotations: str | None = None
    manifest: str | None = None
    model: str | None = None
    predictions: str | None = None
    tracks: str | None = None
    out: str = "out"
    split: str | None = None
    pooling: str = GMP
    learning_rate: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 12
    iterations: int = 2000
    log_every: int = 50
    train_stride: int | None = None
    min_action_frames: int = 5
    weak_positions: int = 100
    eval_iou: tuple[float, ...] | None = None
    predict_iou: float = 0.5
    ablate_mode: str = "temporal"
    gradcheck_seeds: int = 20
    seed: int = 42
    given: dict = field(default_factory=dict)


_PARSERS: dict[str, Callable] = {
    "str": str,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_int_list,
    "tuple[float, ...]": _parse_float_list,
}

# every recognized config key, a field of RunConfig, ModelConfig or
# SynthConfig, with the parser of its type (optional fields parse like their
# inner type); flag names mirror these
SCHEMA: dict[str, Callable] = {
    f.name: _PARSERS[f.type.removesuffix(" | None")]
    for config_type in (RunConfig, ModelConfig, SynthConfig)
    for f in fields(config_type)
    if f.name != "given"
}


def parse_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` lines; blank lines and ``#`` comments ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}: line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def build_config(file_values: dict[str, str], flag_values: dict[str, str]) -> RunConfig:
    """Defaults, then config file values, then flags; both are raw strings
    parsed through ``SCHEMA``, so a bad value fails the same way from either."""
    cfg = RunConfig()
    for values in (file_values, flag_values):
        for key, raw in values.items():
            try:
                value = SCHEMA[key](raw)
            except ValueError as err:
                raise ValueError(f"config key {key!r}: {err}") from None
            if hasattr(cfg, key):
                setattr(cfg, key, value)
            else:
                cfg.given[key] = value
    if cfg.seed < 0:
        raise ValueError(f"config key 'seed': must be >= 0, got {cfg.seed}")
    return cfg


def _require(cfg: RunConfig, *keys: str) -> None:
    missing = [k for k in keys if getattr(cfg, k) is None]
    if missing:
        raise ValueError(f"missing required setting(s): {', '.join(missing)}")


def _given(cfg: RunConfig, config_type) -> dict:
    """The settings of ``config_type``'s fields that ``cfg`` gives."""
    return {f.name: cfg.given[f.name] for f in fields(config_type) if f.name in cfg.given}


def _check_given(cfg: RunConfig, num_classes: int, feature_dim: int, source: str) -> None:
    """Stop if a given ``num_classes`` or ``feature_dim`` differs from what
    ``source`` (the data in training, the model in scoring) carries."""
    asked = cfg.given.get("num_classes", num_classes)
    if asked != num_classes:
        raise ValueError(f"config asks for {asked} classes, {source} carries {num_classes}")
    asked = cfg.given.get("feature_dim", feature_dim)
    if asked != feature_dim:
        raise ValueError(f"config asks for feature_dim {asked}, {source} carries {feature_dim}")


def _model_config(cfg: RunConfig, num_classes: int, feature_dim: int) -> ModelConfig:
    """The given architecture settings; the rest keep ModelConfig's defaults."""
    _check_given(cfg, num_classes, feature_dim, "the data")
    given = _given(cfg, ModelConfig)
    return ModelConfig(**{**given, "num_classes": num_classes, "feature_dim": feature_dim})


def _select_videos(
    cfg: RunConfig, default_split: str, allow_empty: bool = False
) -> tuple[list[FeatureHeader], str]:
    """The feature headers of the chosen split, and the split's name."""
    _require(cfg, "features_dir")
    split = cfg.split or (default_split if cfg.manifest else "all")
    if split not in ("train", "test", "all"):
        raise ValueError(f"split must be train, test, or all, got {split!r}")
    if cfg.manifest:
        manifest = load_manifest(cfg.manifest)
        pools = {
            "train": manifest["train_ids"],
            "test": manifest["test_ids"],
            "all": manifest["train_ids"] + manifest["test_ids"],
        }
        pool = pools[split]
        if not pool:
            if allow_empty:
                return [], split
            raise ValueError(f"split {split!r} selects no videos")
        headers = load_feature_dir(cfg.features_dir, pool)
    else:
        if cfg.split and cfg.split != "all":
            raise ValueError("a train/test split needs a manifest")
        headers = load_feature_dir(cfg.features_dir)
    return headers, split


def _path(cfg: RunConfig, key: str) -> Path:
    """The given ``model``, ``predictions`` or ``tracks`` path, or its default under ``out``."""
    default = {"model": "model.fsn", "predictions": "predictions.tsv", "tracks": "tracks"}[key]
    return Path(getattr(cfg, key) or Path(cfg.out) / default)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


@contextmanager
def _undone_on_failure(*directories: Path) -> Iterator[None]:
    """Make ``directories`` for the body. If the body raises, remove every
    directory made here and every entry the body added to the others; what
    was there before stays."""
    directories = {d.resolve() for d in directories}
    made = {p for d in directories for p in (d, *d.parents) if not p.exists()}
    existing = {d: set(d.iterdir()) for d in directories - made}
    for directory in directories:
        directory.mkdir(parents=True, exist_ok=True)
    try:
        yield
    except BaseException:
        for directory in made:
            if directory.parent not in made:
                shutil.rmtree(directory)
        for directory, before in existing.items():
            for path in set(directory.iterdir()) - before:
                if path.is_dir():
                    shutil.rmtree(path)
                else:
                    path.unlink()
        raise


def _synth_config(cfg: RunConfig) -> SynthConfig:
    """The synth settings that are given and the run's seed; the rest keep
    SynthConfig's defaults."""
    return SynthConfig(**_given(cfg, SynthConfig), seed=cfg.seed)


def _write_corpus(config: SynthConfig, out: Path) -> dict:
    """One .fsnf per video, written as soon as it is drawn, then annotations
    and manifest."""
    frame_counts: dict[str, int] = {}
    rows: list[tuple] = []
    for video, video_rows in synth_videos(config):
        write_features(video, out / f"{video.video_id}.fsnf")
        frame_counts[video.video_id] = video.frame_count
        rows.extend(video_rows)
    annotations = AnnotationSet(config.class_names, Segments.from_rows(rows))
    annotations_path = out / "annotations.tsv"
    write_annotations(annotations, annotations_path)
    manifest_path = out / "manifest.tsv"
    write_manifest(config, frame_counts, manifest_path)
    return {
        "out": out,
        "annotations": annotations_path,
        "manifest": manifest_path,
        "videos": len(frame_counts),
    }


def cmd_synth(cfg: RunConfig) -> dict:
    """Generate a synthetic corpus. A run that fails removes the files and
    directories it made; files that were there before stay."""
    config = _synth_config(cfg)
    out = Path(cfg.out)
    # train reads every feature file it finds, so another corpus's would count
    stale = sorted({p.stem for p in out.glob("*.fsnf")} - set(config.video_ids))
    if stale:
        raise ValueError(
            f"{out} holds feature files of {len(stale)} video(s) this corpus does "
            f"not write, e.g. {', '.join(stale[:3])}; synthesize into a fresh --out"
        )
    with _undone_on_failure(out):
        return _write_corpus(config, out)


def _load_corpus(cfg: RunConfig, default_split: str):
    """The split's feature headers, the split name and the annotations, checked
    against every feature file's frame count."""
    headers, split = _select_videos(cfg, default_split)
    _require(cfg, "annotations")
    # the split is known by its headers here, and its payloads are read by
    # _split_videos once the annotations check out; every other file is read
    # in full now, so a corrupt file outside the split fails the command too
    frame_counts = {h.video_id: h.frame_count for h in headers}
    for path in sorted(Path(cfg.features_dir).glob("*.fsnf")):
        if path.stem not in frame_counts:
            frame_counts[path.stem] = load_features(path).frame_count
    annotations = load_annotations(cfg.annotations, frame_counts=frame_counts)
    return headers, split, annotations


def _split_videos(cfg: RunConfig, headers: Sequence[FeatureHeader]) -> Iterator[VideoFeatures]:
    """The videos of ``_load_corpus``' headers, each read in full when it is reached."""
    directory = Path(cfg.features_dir)
    return (load_features(directory / f"{h.video_id}.fsnf") for h in headers)


def _require_positive(cfg: RunConfig, *keys: str) -> None:
    for key in keys:
        if getattr(cfg, key) < 1:
            raise ValueError(f"{key} must be >= 1, got {getattr(cfg, key)}")


def _window_batches(
    cfg: RunConfig,
    headers: Sequence[FeatureHeader],
    annotations: AnnotationSet,
    model_config: ModelConfig,
) -> Callable[[], tuple[np.ndarray, np.ndarray]]:
    """The strong head's batch source.

    The windows, their classes and the frame labels come from the headers
    and the annotations alone. The whole batch schedule is drawn ahead; then
    each video is read once and every drawn window copies its snippet
    descriptors into one (drawn windows, snippets, feature_dim) float32 block,
    so a step is one gather. A frame is held once per drawn window that reads
    it. At the shipped clip_len 35 and default stride 7 no two windows share
    a snippet centre; a smaller ``train_stride`` holds at most iterations x
    batch_size x snippets rows (2000 steps on 40 videos of 6000 frames at
    stride 1: 143 192 rows for 82 740 distinct frames).
    """
    clip_len = model_config.clip_len
    stride = max(clip_len // 5, 1) if cfg.train_stride is None else cfg.train_stride
    per_video = annotations.segments.per_video([h.video_id for h in headers])
    # a window is (video index, start frame)
    frame_labels, owners, starts, classes = [], [], [], []
    for index, (header, segments) in enumerate(zip(headers, per_video)):
        kept = make_clips(
            header, segments, clip_len=clip_len, stride=stride,
            min_action_frames=cfg.min_action_frames,
        )
        frame_labels.append(label_frames(header.frame_count, segments))
        owners.append(np.full(kept.size, index))
        starts.append(kept)
        classes.append(clip_majority_class(frame_labels[-1], kept, clip_len))
    owner, start = np.concatenate(owners), np.concatenate(starts)
    if not start.size:
        raise ValueError(
            f"no training window passed the >= {cfg.min_action_frames} action-frame rule"
        )
    order = rebalance(np.concatenate(classes), seed=cfg.seed)
    # one row of windows per step, each row one draw of the generator
    rng = np.random.default_rng([cfg.seed, 1])
    schedule = np.empty((cfg.iterations, cfg.batch_size), dtype=np.int64)
    for row in schedule:
        row[:] = order[rng.integers(0, len(order), size=cfg.batch_size)]
    drawn = np.zeros(start.size, dtype=bool)
    drawn[schedule] = True
    # from here on a window is its slot among the drawn ones
    schedule = (np.cumsum(drawn) - 1)[schedule]
    owner, start = owner[drawn], start[drawn]
    # frames are numbered across the split, videos end to end
    offsets = np.concatenate(([0], np.cumsum([h.frame_count for h in headers])))
    labels = np.concatenate(frame_labels)
    label_rows = offsets[owner] + start
    centers = snippet_centers(clip_len, model_config.snippet_len)
    features = np.empty((start.size, centers.size, headers[0].feature_dim), dtype=np.float32)
    # every video is read in full, so each file's payload is checked whether
    # or not a drawn window reads from it
    cuts = np.searchsorted(owner, np.arange(len(headers) + 1))
    for video, a, b in zip(_split_videos(cfg, headers), cuts[:-1], cuts[1:]):
        features[a:b] = video.features[start[a:b, None] + centers]
    span = np.arange(clip_len)
    steps = iter(schedule)

    def next_batch() -> tuple[np.ndarray, np.ndarray]:
        picks = next(steps)
        return features[picks], labels[label_rows[picks, None] + span]

    return next_batch


def _weak_batches(
    cfg: RunConfig,
    headers: Sequence[FeatureHeader],
    annotations: AnnotationSet,
    model_config: ModelConfig,
) -> Callable[[], tuple[np.ndarray, np.ndarray]]:
    """The weak head's batch source.

    A sample is one labeled video and one frame drawn uniformly from each of
    ``weak_positions`` near-equal spans of it (``span_bounds``), with the
    video's multi-hot label. Every video of the split is read, so a corrupt
    unlabeled file fails the command too; the labeled ones are copied end to
    end into one (frames, feature_dim) float32 block. A step draws its video
    picks, then every pick's in-span offsets, from one generator, and
    gathers the batch from the block in one index.
    """
    positions = cfg.weak_positions
    per_video = annotations.segments.per_video([h.video_id for h in headers])
    labeled = [i for i, segments in enumerate(per_video) if len(segments)]
    if not labeled:
        raise ValueError("no training video carries an action label")
    counts = np.array([headers[i].frame_count for i in labeled])
    too_short = [headers[i].video_id for i, n in zip(labeled, counts) if n < positions]
    if too_short:
        raise ValueError(f"video(s) shorter than {positions} frames: {too_short[:3]}")
    # labeled video r's frames are rows first[r] to first[r + 1] of the block
    first = np.concatenate(([0], np.cumsum(counts)))
    block = np.empty((first[-1], headers[0].feature_dim), dtype=np.float32)
    videos = (v for v, segments in zip(_split_videos(cfg, headers), per_video) if len(segments))
    for row, video in enumerate(videos):
        block[first[row] : first[row + 1]] = video.features
    labels = np.zeros((len(labeled), model_config.num_classes))
    for row, index in enumerate(labeled):
        labels[row, per_video[index].class_id - 1] = 1.0
    bounds = np.stack([span_bounds(count, positions) for count in counts])
    lo, hi = bounds[:, :-1], bounds[:, 1:]
    rng = np.random.default_rng([cfg.seed, 2])

    def next_batch() -> tuple[np.ndarray, np.ndarray]:
        picks = rng.integers(0, len(labeled), size=cfg.batch_size)
        offsets = rng.integers(lo[picks], hi[picks])
        return block[first[picks, None] + offsets], labels[picks]

    return next_batch


def _train(cfg: RunConfig, init_head: Callable[[ModelConfig, int], Head], batches) -> dict:
    """The SGD loop of a fresh ``init_head(model_config, seed)`` head over the
    batch source ``batches(cfg, headers, annotations, model_config)`` of the
    split; saves the model and the loss log. The loop settings are checked
    before any file is read."""
    _require_positive(cfg, "iterations", "batch_size", "log_every", "weak_positions")
    headers, split, annotations = _load_corpus(cfg, "train")
    model_config = _model_config(cfg, annotations.num_classes, headers[0].feature_dim)
    next_batch = batches(cfg, headers, annotations, model_config)
    head = init_head(model_config, cfg.seed)
    optimizer = OptimizerState(
        learning_rate=cfg.learning_rate,
        momentum=cfg.momentum,
        weight_decay=cfg.weight_decay,
    )
    out = _out_dir(cfg)
    lines = ["iteration,loss"]
    for step in range(1, cfg.iterations + 1):
        loss = fsn_train_step(*next_batch(), head, optimizer)
        if step % cfg.log_every == 0:
            lines.append(f"{step},{loss:.6f}")
    model_path = _path(cfg, "model")
    save_model(head, model_path)
    log_path = out / "train_log.csv"
    log_path.write_text("\n".join(lines) + "\n")
    return {"model": model_path, "log": log_path, "split": split}


def cmd_train(cfg: RunConfig) -> dict:
    """Train the dilated temporal head on dense frame labels."""
    return _train(cfg, init_fsn, _window_batches)


def cmd_train_weak(cfg: RunConfig) -> dict:
    """Train the weakly supervised head from video-level labels only."""
    return _train(cfg, functools.partial(init_wfsn, pooling=cfg.pooling), _weak_batches)


# A forked scoring worker costs its start and thousands of page faults. On 2
# CPUs, a second worker made scoring a 12k-frame split of the pooling config
# slower (38 -> 52 ms) and 18k-24k frames of either shipped config faster
MIN_FRAMES_PER_WORKER = 10_000


def _scoring_workers(headers: Sequence[FeatureHeader]) -> int:
    """How many processes score the split of ``headers``: one per CPU this
    process may run on, at most one per video and one per
    ``MIN_FRAMES_PER_WORKER`` frames. One where BLAS is not pinned to one
    thread, since its threads would compete with the workers, or where
    ``os.fork`` or ``os.sched_getaffinity`` is missing."""
    blas = _openblas_threads()
    if blas is None or blas[1]() != 1:
        return 1
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity")):
        return 1
    frames = sum(header.frame_count for header in headers)
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(cpus, len(headers), frames // MIN_FRAMES_PER_WORKER))


def _forked(outcome: Callable[[Sequence], tuple], part: Sequence) -> tuple[int, BinaryIO]:
    """Run ``outcome(part)`` in a forked child; returns its pid and the read
    end of the pipe that carries the pickled outcome. The child leaves by
    ``os._exit`` and never returns into the caller's code."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    try:
        os.close(read)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(outcome(part)))
    finally:
        os._exit(0)


def _score_split(
    cfg: RunConfig,
    head: Head,
    headers: Sequence[FeatureHeader],
    on_track: Callable[[FrameScoreTrack], None],
) -> Segments:
    """``localize`` over the split, in ``_scoring_workers`` processes.

    With n workers, part i is the contiguous slice
    ``headers[len * i // n : len * (i + 1) // n]``: the parent scores part 0,
    and each other part runs in a forked child that hands its tracks to
    ``on_track`` and sends its segments back over a pipe. Each video is
    scored by the same code in one process, so no byte depends on n, and
    with n = 1 nothing is forked. ``join_predictions`` puts the parts in
    ``localize``'s order. Every child is reaped before this returns or
    raises. A part stops at its first failing video and the parts follow
    split order, so the first failed part's error, the one raised, is the
    earliest failing video's.
    """

    def outcome(part: Sequence[FeatureHeader]) -> tuple:
        """(segments, None), or (None, error) when a video fails."""
        try:
            videos = _split_videos(cfg, part)
            return localize(head, videos, cfg.predict_iou, cfg.weak_positions, on_track), None
        except Exception as err:
            return None, err

    n = _scoring_workers(headers)
    parts = [headers[len(headers) * i // n : len(headers) * (i + 1) // n] for i in range(n)]
    children, sent, exits = [], None, []
    try:
        for part in parts[1:]:
            children.append(_forked(outcome, part))
        outcomes = [outcome(parts[0])]
        sent = [pipe.read() for _, pipe in children]
    finally:
        # a child whose pipe was read to its end is leaving; any other is stopped
        for pid, pipe in children:
            pipe.close()
            if sent is None:
                os.kill(pid, signal.SIGKILL)
            exits.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for result, code in zip(sent, exits):
        died = RuntimeError(f"a scoring worker ended without a result (exit code {code})")
        outcomes.append(pickle.loads(result) if result else (None, died))
    for _, error in outcomes:
        if error is not None:
            raise error
    return join_predictions([segments for segments, _ in outcomes])


def cmd_predict(cfg: RunConfig) -> dict:
    """Score the split one video at a time in each of ``_scoring_workers``
    processes, with a model of either head kind: ``localize`` reads the kind
    from the head. Every check that needs no payload runs first; the track
    files go to a scratch directory beside the tracks directory and are moved
    in after the last video, and a run that fails removes what it made."""
    _require_positive(cfg, "weak_positions")
    _require(cfg, "model")
    head = load_model(cfg.model)
    _check_given(cfg, head.config.num_classes, head.config.feature_dim, "the model")
    headers, split = _select_videos(cfg, "test", allow_empty=True)
    for header in headers:
        if header.feature_dim != head.config.feature_dim:
            raise ValueError(
                f"{header.video_id}: feature_dim {header.feature_dim} does not "
                f"match the model's {head.config.feature_dim}"
            )
    nms_iou = nms_threshold_for(cfg.predict_iou)
    out = Path(cfg.out)
    tracks_dir = _path(cfg, "tracks")
    # eval scores every track it finds, so another run's tracks would count
    scored = {header.video_id for header in headers}
    stale = sorted(p.stem for p in tracks_dir.glob("*.fsnf") if p.stem not in scored)
    if stale:
        raise ValueError(
            f"{tracks_dir} holds tracks of {len(stale)} video(s) this run does "
            f"not score, e.g. {', '.join(stale[:3])}; predict into a fresh --out "
            f"or --tracks"
        )
    predictions_path = _path(cfg, "predictions")
    with _undone_on_failure(out, tracks_dir.parent, tracks_dir):
        # a fresh name each run: a killed run's leftovers are never moved in
        scratch = Path(tempfile.mkdtemp(prefix=f".{tracks_dir.name}-", dir=tracks_dir.parent))

        def write_track(track: FrameScoreTrack) -> None:
            video = VideoFeatures(track.video_id, track.scores)
            write_features(video, scratch / f"{track.video_id}.fsnf")

        predictions = _score_split(cfg, head, headers, write_track)
        write_predictions(predictions, predictions_path)
        for path in sorted(scratch.iterdir()):
            path.replace(tracks_dir / path.name)
        scratch.rmdir()
        pooled = head.pooling is not None
        log_lines = [
            f"command = {'predict-weak' if pooled else 'predict'}",
            f"model = {cfg.model}",
            f"split = {split}",
            f"videos = {len(headers)}",
            f"predictions = {len(predictions)}",
            f"predict_iou = {cfg.predict_iou:g}",
            f"nms_iou = {nms_iou:g}",
            f"weak_positions = {cfg.weak_positions}" if pooled else None,
            f"seed = {cfg.seed}",
        ]
        log_path = out / "predict_log.txt"
        log_path.write_text("\n".join(l for l in log_lines if l is not None) + "\n")
    return {
        "predictions": predictions_path,
        "tracks": tracks_dir,
        "log": log_path,
        "count": len(predictions),
    }


def _load_tracks(tracks_dir: Path, num_classes: int) -> list[FrameScoreTrack]:
    paths = sorted(tracks_dir.glob("*.fsnf"))
    if not paths:
        raise ValueError(f"{tracks_dir}: no score tracks found")
    tracks = []
    for path in paths:
        stored = load_features(path)
        channels = stored.feature_dim
        with_background = channels == num_classes + 1
        if not with_background and channels != num_classes:
            raise ValueError(
                f"{path}: track has {channels} channels for {num_classes} classes"
            )
        if tracks and with_background != tracks[0].includes_background:
            raise ValueError(
                f"{path}: track has {channels} channels, but {paths[0].name} "
                f"has {tracks[0].scores.shape[1]}; dense and weak tracks do "
                f"not mix"
            )
        tracks.append(
            FrameScoreTrack(stored.video_id, stored.features, with_background)
        )
    return tracks


def cmd_eval(cfg: RunConfig) -> dict:
    """Segment-level and frame-level evaluation of a prediction file."""
    _require(cfg, "annotations")
    predictions_path = _path(cfg, "predictions")
    tracks_dir = _path(cfg, "tracks")
    annotations = load_annotations(cfg.annotations)
    tracks = _load_tracks(tracks_dir, annotations.num_classes)
    default = DEFAULT_STRONG_IOUS if tracks[0].includes_background else DEFAULT_WEAK_IOUS
    thresholds = iou_thresholds(default if cfg.eval_iou is None else cfg.eval_iou)
    predictions = load_predictions(predictions_path, tracks)
    gt_by_video = annotations.segments.per_video([t.video_id for t in tracks])
    try:
        labels = {
            track.video_id: label_frames(track.frame_count, segments)
            for track, segments in zip(tracks, gt_by_video)
        }
    except ValueError as err:  # a ground-truth segment past its video's track
        raise ValueError(f"{cfg.annotations}: {err}") from None
    test_gt = AnnotationSet(annotations.class_names, Segments.concatenate(gt_by_video))
    segment = segment_level_map(predictions, test_gt, thresholds)
    frame = frame_level_map(tracks, labels)
    report = EvalReport(annotations.class_names, thresholds, *segment, *frame)
    report_path = _out_dir(cfg) / "report.csv"
    emit_report(report, report_path)
    return {"report": report_path, "result": report}


def _comparison_rows(
    names: tuple[str, str], reports: tuple[EvalReport, EvalReport]
) -> list[str]:
    thresholds = reports[0].iou_thresholds
    header = "model,frame_map," + ",".join(f"iou_{t:g}" for t in thresholds)
    lines = [header]
    for name, report in zip(names, reports):
        cells = [f"{report.frame_map:.4f}"]
        cells.extend(f"{v:.4f}" for v in report.segment_map)
        lines.append(f"{name}," + ",".join(cells))
    first, second = reports
    deltas = [f"{first.frame_map - second.frame_map:.4f}"]
    deltas.extend(
        f"{a - b:.4f}" for a, b in zip(first.segment_map, second.segment_map)
    )
    lines.append("delta," + ",".join(deltas))
    return lines


def cmd_ablate(cfg: RunConfig) -> dict:
    """Train and evaluate a matched pair of heads; emit the side-by-side table."""
    # built per call, so every name is looked up when the command runs
    variants = {
        "temporal": (
            ("fsn", init_fsn, _window_batches),
            ("ablation", init_ablation, _window_batches),
        ),
        "pooling": (
            ("gmp", functools.partial(init_wfsn, pooling=GMP), _weak_batches),
            ("gap", functools.partial(init_wfsn, pooling=GAP), _weak_batches),
        ),
    }
    if cfg.ablate_mode not in variants:
        raise ValueError(
            f"ablate_mode must be 'temporal' or 'pooling', got {cfg.ablate_mode!r}"
        )
    reports = {}
    for name, init_head, batches in variants[cfg.ablate_mode]:
        variant_out = str(Path(cfg.out) / name)
        train_cfg = replace(cfg, out=variant_out, model=None, predictions=None, tracks=None)
        model_path = _train(train_cfg, init_head, batches)["model"]
        run_cfg = replace(train_cfg, model=str(model_path), split="test")
        cmd_predict(run_cfg)
        reports[name] = cmd_eval(run_cfg)["result"]
    lines = _comparison_rows(tuple(reports), tuple(reports.values()))
    table_path = _out_dir(cfg) / "ablation.csv"
    table_path.write_text("\n".join(lines) + "\n")
    return {"table": table_path, "reports": reports}


def _smooth_margin(head: Head, features) -> float:
    """Distance of a case from the loss's non-smooth points: of the closest
    hidden pre-activation from the ReLU kink and, for a GMP head, of the top
    two position logits per channel from a max-pool tie."""
    x = np.asarray(features, dtype=np.float64)
    margin = np.inf
    for layer in head.convs:
        z, _ = dilated_conv1d_forward(x, layer)
        margin = min(margin, float(np.abs(z).min()))
        x = np.maximum(z, 0.0)
    if head.pooling == GMP:
        logits, _ = dilated_conv1d_forward(x, head.classifier)
        ordered = np.sort(logits, axis=-2)
        margin = min(margin, float((ordered[..., -1, :] - ordered[..., -2, :]).min()))
    return margin


def _conditioned_case(build, floor: float = 2e-3, tries: int = 64):
    """Redraw until the case sits far enough from every non-smooth point.

    Central differences step 1e-4 across a ReLU kink or a max-pool tie and
    report a spurious mismatch; requiring a margin of ``floor`` keeps the
    check strict everywhere the loss is differentiable.
    """
    for attempt in range(tries):
        head, features, targets = build(attempt)
        if _smooth_margin(head, features) > floor:
            return head, features, targets
    raise RuntimeError("no well-conditioned gradient-check case found")


def _layer_check(rng, dilation: int, step: float, corrupt: float = 1.0) -> float:
    """One random conv layer's check, its weight gradient scaled by ``corrupt``."""
    layer = ConvLayer1D(
        weights=rng.standard_normal((2, 3, 3)),
        bias=rng.standard_normal(2),
        dilation=dilation,
    )
    x = rng.standard_normal((8, 3))
    probe = rng.standard_normal((8, 2))

    def fn(params):
        out, cache = dilated_conv1d_forward(x, layer)
        loss = float((out * probe).sum())
        _, grad_w, grad_b = dilated_conv1d_backward(probe, cache)
        return loss, [grad_w * corrupt, grad_b]

    return gradient_check(fn, [layer.weights, layer.bias], step)


def gradcheck_suite(
    seeds: Sequence[int], step: float = 1e-4
) -> tuple[dict[str, float], float]:
    """Max relative error per check over seeds, plus the negative control's."""
    worst: dict[str, float] = {}

    def record(name: str, error: float) -> None:
        # np.maximum keeps a NaN error, which then fails the verdict
        worst[name] = float(np.maximum(worst.get(name, 0.0), error))

    for seed in seeds:
        rng = np.random.default_rng(seed)
        for dilation in (1, 2, 4):
            record(f"conv_dilation{dilation}", _layer_check(rng, dilation, step))

        x = rng.standard_normal((6, 4))
        x[np.abs(x) < 0.05] = 0.1
        probe = rng.standard_normal((6, 4))

        def relu_fn(params):
            out, cache = relu(params[0])
            return float((out * probe).sum()), [relu_backward(probe, cache)]

        record("relu", gradient_check(relu_fn, [x], step))

        up_in = rng.standard_normal((4, 3))
        up_probe = rng.standard_normal((9, 3))

        def up_fn(params):
            out, cache = bilinear_upsample_1d(params[0], 9)
            loss = float((out * up_probe).sum())
            return loss, [bilinear_upsample_1d_backward(up_probe, cache)]

        record("bilinear_upsample", gradient_check(up_fn, [up_in], step))

        logits = rng.standard_normal((2, 4, 3))
        labels = np.zeros((2, 4, 3))
        labels[
            np.arange(2)[:, None], np.arange(4)[None, :], rng.integers(0, 3, (2, 4))
        ] = 1.0

        def ce_fn(params):
            loss, grad = framewise_cross_entropy(params[0], labels)
            return loss, [grad]

        record("cross_entropy", gradient_check(ce_fn, [logits], step))

        pool_in = rng.permuted(np.linspace(-4.0, 4.0, 12)).reshape(6, 2)
        pool_probe = rng.standard_normal(2)
        for mode in (GAP, GMP):

            def pool_fn(params, mode=mode):
                out, cache = temporal_pool(params[0], mode)
                loss = float((out * pool_probe).sum())
                return loss, [temporal_pool_backward(pool_probe, cache)]

            record(f"pool_{mode}", gradient_check(pool_fn, [pool_in], step))

        small = ModelConfig(
            num_classes=2, feature_dim=3, hidden_channels=4, snippet_len=5, clip_len=15
        )

        def build_fsn(attempt):
            case_rng = np.random.default_rng([seed, attempt, 11])
            draws = [
                (case_rng.standard_normal((3, 3)), case_rng.integers(0, 3, size=15))
                for _ in range(2)
            ]
            features, labels = (np.stack(column) for column in zip(*draws))
            return init_fsn(small, seed * 101 + attempt), features, labels

        def build_weak(mode, attempt):
            case_rng = np.random.default_rng([seed, attempt, 13])
            head = init_wfsn(small, seed * 101 + attempt, pooling=mode)
            return head, case_rng.standard_normal((2, 5, 3)), np.eye(2)

        fsn_head, *clip_batch = _conditioned_case(build_fsn)
        cases = {
            "fsn_end_to_end": (fsn_head, *clip_batch),
            "ablation_end_to_end": (init_ablation(small, seed), *clip_batch),
        }
        for mode in (GAP, GMP):
            cases[f"wfsn_end_to_end_{mode}"] = _conditioned_case(
                functools.partial(build_weak, mode)
            )
        for name, (head, features, labels) in cases.items():

            def loss_fn(params, head=head, features=features, labels=labels):
                return fsn_loss_and_grads(features, labels, head)

            record(name, gradient_check(loss_fn, head_parameters(head), step))

    # negative control: a deliberately corrupted backward pass must be caught
    rng = np.random.default_rng(seeds[0] if len(seeds) else 0)
    return worst, _layer_check(rng, 2, step, corrupt=1.01)


def cmd_gradcheck(cfg: RunConfig) -> int:
    """Finite-difference audit of every backward pass; nonzero exit on failure."""
    _require_positive(cfg, "gradcheck_seeds")
    out = _out_dir(cfg)
    tolerance, step = 1e-5, 1e-4
    seeds = list(range(cfg.seed, cfg.seed + cfg.gradcheck_seeds))
    worst, control_error = gradcheck_suite(seeds, step)
    lines = [f"{'check':<24} {'max_rel_error':>14}  status"]
    all_pass = True
    for name in sorted(worst):
        error = worst[name]
        ok = error < tolerance
        all_pass &= ok
        lines.append(f"{name:<24} {error:>14.3e}  {'pass' if ok else 'FAIL'}")
    control_ok = control_error >= tolerance
    lines.append(
        f"{'negative_control':<24} {control_error:>14.3e}  "
        f"{'caught' if control_ok else 'MISSED'}"
    )
    verdict = all_pass and control_ok
    lines.append(
        f"overall: {'pass' if verdict else 'FAIL'} "
        f"(tolerance {tolerance:g}, step {step:g}, seeds {len(seeds)})"
    )
    text = "\n".join(lines) + "\n"
    (out / "gradcheck.txt").write_text(text)
    sys.stdout.write(text)
    return 0 if verdict else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value settings file")
    # flag values stay strings: build_config parses them like file values
    for key in SCHEMA:
        common.add_argument("--" + key.replace("_", "-"), dest=key, default=None)
    parser = argparse.ArgumentParser(
        prog="fsn",
        description="temporal action localization on precomputed frame features",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    descriptions = {
        "synth": "generate a synthetic feature corpus",
        "train": "train the dilated temporal head on dense labels",
        "train-weak": "train the weakly supervised head on video labels",
        "predict": "write segment predictions from a trained model of either head kind",
        "predict-weak": "same as predict, which reads the head kind from the model",
        "eval": "score a prediction file against ground truth",
        "ablate": "train and compare a matched pair of heads",
        "gradcheck": "finite-difference audit of all backward passes",
    }
    for mode, description in descriptions.items():
        sub.add_parser(mode, parents=[common], help=description)
    return parser


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "train-weak": cmd_train_weak,
    "predict": cmd_predict,
    "predict-weak": cmd_predict,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "gradcheck": cmd_gradcheck,
}


def _keep_freed_memory() -> None:
    """Keep the memory glibc's malloc frees inside the process.

    Training steps and scored videos allocate and free activations of
    0.3-1.3 MB; by default glibc hands them back to the kernel and the next
    call faults every page in again. Setting either threshold turns off
    glibc's dynamic mmap threshold, so both are set. Without ``mallopt``
    (macOS, Windows) nothing is set. No array value depends on it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: 32 MiB, glibc's 64-bit maximum
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: 1 GiB


@functools.cache
def _openblas_threads() -> tuple[Callable[[int], None], Callable[[], int]] | None:
    """The set and get functions of the thread count of the OpenBLAS that
    numpy's wheels load privately from ``numpy.libs`` (``ctypes.CDLL(None)``
    does not see them); None for any other BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    try:
        lib = ctypes.CDLL(str(min(libs.glob("libscipy_openblas*"))))
        pin = lib.scipy_openblas_set_num_threads64_
        count = lib.scipy_openblas_get_num_threads64_
    except (ValueError, OSError, AttributeError):  # no such library or symbol
        return None
    pin.argtypes, pin.restype = [ctypes.c_int], None
    count.argtypes, count.restype = [], ctypes.c_int
    return pin, count


def _pin_blas() -> None:
    """Run BLAS on one thread in this process.

    OpenBLAS splits larger products over threads, and the split changes the
    floating-point sums: a 20-step ``train-weak`` on the pooling config wrote
    different model bytes under 1 and 2 threads. With one thread no byte
    depends on the thread count, and ``predict`` scores in one process per
    CPU instead (``_scoring_workers``). Environment variables come too late,
    since numpy is imported by then. Without numpy's OpenBLAS nothing is set.
    """
    blas = _openblas_threads()
    if blas is not None:
        blas[0](1)


def main(argv: Sequence[str] | None = None) -> int:
    _keep_freed_memory()
    _pin_blas()
    args = build_parser().parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        flag_values = {
            key: getattr(args, key)
            for key in SCHEMA
            if getattr(args, key, None) is not None
        }
        cfg = build_config(file_values, flag_values)
        result = COMMANDS[args.mode](cfg)
    except Exception as err:  # deliberate: CLI boundary turns errors into exit codes
        print(f"error: {err}", file=sys.stderr)
        return 1
    return result if isinstance(result, int) else 0


if __name__ == "__main__":
    raise SystemExit(main())
