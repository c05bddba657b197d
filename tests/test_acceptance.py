"""Acceptance gate: seven criteria covering gradients, oracles, structure,
both ablation directions, the end-to-end smoke run, and determinism.

Each test registers a one-line verdict that pytest prints in its terminal
summary, then asserts. The two ablation studies run the shipped configs
start to finish and are shared across criteria.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    ap_by_pr_points,
    greedy_nms,
    interval_iou,
    iou_by_frames,
    match_predictions,
    naive_conv1d,
    pooled_frame_ap,
    receptive_field,
    receptive_field_snippets,
)
from records import ground_truth, gt_rows, rows, segments, synth_corpus

from fsn import cli
from fsn.cli import build_config, gradcheck_suite, main, parse_config_file
from fsn.data import AnnotationSet, VideoFeatures
from fsn.evaluate import frame_level_map, segment_level_map
from fsn.localize import FrameScoreTrack, localize, nms, pairwise_iou
from fsn.model import (
    ModelConfig,
    _stack_forward,
    fsn_forward,
    head_layers,
    init_ablation,
    init_fsn,
    load_model,
)
from fsn.nncore import ConvLayer1D, bilinear_upsample_1d, dilated_conv1d_forward

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# ---------------------------------------------------------------- 1: gradients


def test_criterion_1_gradient_suite(criterion):
    started = time.time()
    worst, control_error = gradcheck_suite(seeds=range(20), step=1e-4)
    elapsed = time.time() - started
    max_error = max(worst.values())
    ok = max_error < 1e-5 and control_error >= 1e-5 and elapsed < 60
    criterion(
        1,
        ok,
        f"max rel error {max_error:.2e} over {len(worst)} checks x 20 seeds, "
        f"negative control {control_error:.2e} caught, {elapsed:.1f}s",
    )
    assert max_error < 1e-5
    assert control_error >= 1e-5, "corrupted backward slipped through"
    assert elapsed < 60


# ---------------------------------------------------------------- 2: oracles


def _random_segments(rng, count, max_end=60):
    out = []
    for i in range(count):
        start = int(rng.integers(0, max_end - 2))
        end = int(rng.integers(start + 1, max_end))
        conf = round(float(rng.uniform(0.05, 1.0)), 3)
        out.append((start, end, conf))
    return segments(*out)


def test_criterion_2_oracle_equivalence(criterion):
    started = time.time()

    conv_diff = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for dilation in (1, 2, 4):
            layer = ConvLayer1D(
                weights=rng.standard_normal((3, 4, 3)),
                bias=rng.standard_normal(3),
                dilation=dilation,
            )
            x = rng.standard_normal((11, 4))
            fast, _ = dilated_conv1d_forward(x, layer)
            slow = naive_conv1d(x, layer.weights, layer.bias, dilation)
            conv_diff = max(conv_diff, float(np.abs(fast - slow).max()))
    assert conv_diff <= 1e-12

    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(200):
        a_start = int(rng.integers(0, 50))
        a = (a_start, a_start + 1 + int(rng.integers(0, 12)))
        b_start = int(rng.integers(0, 50))
        b = (b_start, b_start + 1 + int(rng.integers(0, 12)))
        pairs.append((a, b))
    a_bounds, b_bounds = (np.array(side) for side in zip(*pairs))
    # every a against every b; the drawn pairs are the diagonal
    matrix = pairwise_iou(a_bounds[:, 0], a_bounds[:, 1], b_bounds[:, 0], b_bounds[:, 1])
    for i, a in enumerate(a_bounds.tolist()):
        for j, b in enumerate(b_bounds.tolist()):
            assert matrix[i, j] == iou_by_frames(a, b)
    # fractional bounds round, so only the oracle's order of float operations
    # gives equal bits
    starts = rng.uniform(0, 50, size=100)
    ends = starts + rng.uniform(0.1, 12, size=100)
    fractional = pairwise_iou(starts[:50], ends[:50], starts[50:], ends[50:])
    for i in range(50):
        for j in range(50):
            expected = interval_iou((starts[i], ends[i]), (starts[50 + j], ends[50 + j]))
            assert fractional[i, j] == expected
    iou_cases = matrix.size + fractional.size

    for trial in range(30):
        rng = np.random.default_rng(100 + trial)
        record = _random_segments(rng, int(rng.integers(1, 9)))
        for threshold in (0.0, 0.3, 0.5, 0.7):
            ours = nms(record, threshold)
            reference = greedy_nms(
                [row[:3] for row in rows(record)],
                iou_by_frames,
                threshold,
            )
            assert [row[:3] for row in rows(ours)] == reference

    map_diff = 0.0
    for trial in range(30):
        rng = np.random.default_rng(200 + trial)
        gts = ground_truth(*[
            (s, s + int(rng.integers(2, 10)))
            for s in rng.choice(50, size=int(rng.integers(1, 5)), replace=False)
        ])
        preds = _random_segments(rng, int(rng.integers(1, 7)))
        ap, _ = segment_level_map(preds, AnnotationSet(["a"], gts), (0.4,))
        flags, order = match_predictions(
            [(v, c, s, e, p) for s, e, p, c, v in rows(preds)],
            gt_rows(gts),
            0.4,
            iou_by_frames,
        )
        expected = ap_by_pr_points(flags, len(gts))
        map_diff = max(map_diff, abs(float(ap[0, 0]) - expected))
    assert map_diff <= 1e-12

    ap_diff, ap_cases = 0.0, 0
    for trial in range(50):
        rng = np.random.default_rng(300 + trial)
        num_classes = int(rng.integers(1, 4))
        # float32 scores from a small pool, so frames tie within and across videos
        pool = rng.uniform(size=int(rng.integers(1, 6))).astype(np.float32)
        videos = {}
        for v in range(int(rng.integers(1, 4))):
            frames = int(rng.integers(1, 40))
            videos[f"v{v}"] = (
                rng.choice(pool, size=(frames, num_classes)),
                rng.integers(0, num_classes + 1, size=frames),
            )
        tracks = [
            FrameScoreTrack(video_id, scores, includes_background=False)
            for video_id, (scores, _) in videos.items()
        ]
        ap, _ = frame_level_map(tracks, {v: labels for v, (_, labels) in videos.items()})
        for class_id in range(1, num_classes + 1):
            expected = pooled_frame_ap(
                [scores[:, class_id - 1] for scores, _ in videos.values()],
                [labels for _, labels in videos.values()],
                class_id,
            )
            ap_diff = max(ap_diff, abs(float(ap[class_id - 1]) - expected))
            ap_cases += 1
    assert ap_diff <= 1e-12

    elapsed = time.time() - started
    criterion(
        2,
        elapsed < 60,
        f"conv diff {conv_diff:.1e}, pairwise_iou exact on {iou_cases} pairs, "
        f"nms exact, mAP diff {map_diff:.1e}, "
        f"frame AP diff {ap_diff:.1e} on {ap_cases} classes, {elapsed:.1f}s",
    )
    assert elapsed < 60


# ---------------------------------------------------------------- 3: structure


def test_criterion_3_structural_invariants(criterion):
    started = time.time()
    config = ModelConfig(num_classes=4, feature_dim=16)

    rng = np.random.default_rng(0)
    head = init_fsn(config, seed=0)
    x = rng.standard_normal((33, 16))
    for layer in head.convs:
        x, _ = dilated_conv1d_forward(np.abs(x), layer)
        assert x.shape[0] == 33

    probs = fsn_forward(rng.standard_normal((7, 16)), head, target_len=35)
    row_sums = probs.sum(axis=1)
    assert np.abs(row_sums - 1.0).max() < 1e-9

    same = rng.standard_normal((9, 3))
    up, _ = bilinear_upsample_1d(same, 9)
    assert np.array_equal(up, same)
    ramp = np.arange(5, dtype=np.float64)[:, None] * 2.0 + 1.0
    up, _ = bilinear_upsample_1d(ramp, 13)
    expected = (np.arange(13) * 4.0 / 12.0)[:, None] * 2.0 + 1.0
    assert np.abs(up - expected).max() < 1e-12

    widths = {}
    for make, expected_width in ((init_fsn, 17), (init_ablation, 1)):
        probe_head = make(config, seed=4)
        for layer in head_layers(probe_head):
            layer.weights[:] = np.abs(layer.weights) + 0.01
        positions = 41
        base_in = rng.uniform(0.5, 1.5, size=(positions, 16))
        bumped = base_in.copy()
        bumped[positions // 2] += 1.0
        base, _ = _stack_forward(base_in, probe_head)
        moved, _ = _stack_forward(bumped, probe_head)
        changed = np.flatnonzero(np.abs(moved - base).max(axis=1) > 1e-12)
        widths[expected_width] = changed.size
        assert changed.size == expected_width == receptive_field_snippets(probe_head)

    assert receptive_field(init_fsn(config, seed=0)) == 85
    assert receptive_field(init_ablation(config, seed=0)) == 5

    elapsed = time.time() - started
    criterion(
        3,
        elapsed < 30,
        f"lengths preserved, rows sum to 1, upsample exact, receptive field "
        f"probed {widths[17]}/{widths[1]} snippets, {elapsed:.1f}s",
    )
    assert elapsed < 30


# ---------------------------------------------------------------- ablation studies


def _run_study(tmp_path_factory, config_name, label):
    root = tmp_path_factory.mktemp(label)
    data = root / "data"
    config = str(CONFIGS / config_name)
    started = time.time()
    assert main(["synth", "--config", config, "--out", str(data)]) == 0
    rc = main([
        "ablate",
        "--config", config,
        "--features-dir", str(data),
        "--annotations", str(data / "annotations.tsv"),
        "--manifest", str(data / "manifest.tsv"),
        "--out", str(root),
    ])
    elapsed = time.time() - started
    assert rc == 0
    rows = {}
    lines = (root / "ablation.csv").read_text().splitlines()
    columns = lines[0].split(",")[1:]
    for line in lines[1:]:
        name, *cells = line.split(",")
        rows[name] = dict(zip(columns, map(float, cells)))
    return {"root": root, "data": data, "rows": rows, "elapsed": elapsed}


@pytest.fixture(scope="module")
def temporal_study(tmp_path_factory):
    return _run_study(tmp_path_factory, "ablation_temporal.cfg", "temporal")


@pytest.fixture(scope="module")
def pooling_study(tmp_path_factory):
    return _run_study(tmp_path_factory, "ablation_pooling.cfg", "pooling")


# ---------------------------------------------------------------- 4: temporal ablation


def test_criterion_4_temporal_context_wins(criterion, temporal_study):
    rows = temporal_study["rows"]
    frame_margin = rows["fsn"]["frame_map"] - rows["ablation"]["frame_map"]
    segment_margin = rows["fsn"]["iou_0.5"] - rows["ablation"]["iou_0.5"]
    elapsed = temporal_study["elapsed"]
    ok = frame_margin >= 0.05 and segment_margin >= 0.05 and elapsed < 600
    criterion(
        4,
        ok,
        f"frame mAP {rows['fsn']['frame_map']:.3f} vs {rows['ablation']['frame_map']:.3f} "
        f"(+{frame_margin:.3f}), segment mAP@0.5 {rows['fsn']['iou_0.5']:.3f} vs "
        f"{rows['ablation']['iou_0.5']:.3f} (+{segment_margin:.3f}), {elapsed:.0f}s",
    )
    assert frame_margin >= 0.05
    assert segment_margin >= 0.05
    assert elapsed < 600


# ---------------------------------------------------------------- 5: pooling ablation


def test_criterion_5_max_pooling_wins(criterion, pooling_study):
    rows = pooling_study["rows"]
    margin = rows["gmp"]["iou_0.3"] - rows["gap"]["iou_0.3"]
    elapsed = pooling_study["elapsed"]
    ok = margin >= 0.02 and elapsed < 600
    criterion(
        5,
        ok,
        f"segment mAP@0.3 gmp {rows['gmp']['iou_0.3']:.3f} vs gap "
        f"{rows['gap']['iou_0.3']:.3f} (+{margin:.3f}), {elapsed:.0f}s",
    )
    assert margin >= 0.02
    assert elapsed < 600


# ---------------------------------------------------------------- 6: smoke run


def test_criterion_6_single_instance_smoke(criterion, temporal_study):
    run_config = build_config(
        parse_config_file(CONFIGS / "ablation_temporal.cfg"), {}
    )
    dataset = synth_corpus(cli._synth_config(run_config))

    # one fresh video with a single instance, same prototypes, unseen noise
    frames, start, length, class_id = 600, 287, 28, 2
    rng = np.random.default_rng(20260814)
    features = np.tile(dataset.background, (frames, 1))
    pattern = dataset.class_patterns[class_id - 1]
    features[start : start + length // 2] = pattern[0]
    features[start + length // 2 : start + length] = pattern[1]
    features += rng.normal(size=features.shape) * dataset.config.prototype_noise
    video = VideoFeatures("held_out", features)
    truth = ground_truth((start, start + length, class_id, "held_out"))

    head = load_model(temporal_study["root"] / "fsn" / "model.fsn")
    predictions = localize(head, [video], eval_iou=0.5)
    assert len(predictions)
    top_start, top_end, top_confidence, top_class, _ = rows(predictions)[
        int(np.argmax(predictions.confidence))
    ]
    truth_interval = (int(truth.start[0]), int(truth.end[0]))
    iou = iou_by_frames((top_start, top_end), truth_interval) if top_class == class_id else 0.0

    log = (temporal_study["root"] / "fsn" / "predict_log.txt").read_text()
    echo_ok = "predict_iou = 0.5" in log and "nms_iou = 0.4" in log

    ok = iou >= 0.5 and echo_ok
    criterion(
        6,
        ok,
        f"top prediction class {top_class} [{top_start}, {top_end}) conf "
        f"{top_confidence:.3f}, IoU {iou:.3f} vs truth [{start}, {start + length}); "
        f"nms rule echoed in run log: {echo_ok}",
    )
    assert iou >= 0.5
    assert echo_ok


# ---------------------------------------------------------------- 7: determinism


def test_criterion_7_reruns_are_byte_identical(criterion, temporal_study, tmp_path):
    data = temporal_study["data"]
    config = str(CONFIGS / "ablation_temporal.cfg")
    shared = [
        "--config", config,
        "--features-dir", str(data),
        "--annotations", str(data / "annotations.tsv"),
        "--manifest", str(data / "manifest.tsv"),
    ]

    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        rc = main(["train", *shared, "--iterations", "150", "--out", str(out)])
        assert rc == 0
    model_same = (outs[0] / "model.fsn").read_bytes() == (outs[1] / "model.fsn").read_bytes()
    log_same = (outs[0] / "train_log.csv").read_bytes() == (outs[1] / "train_log.csv").read_bytes()

    pred_outs = [tmp_path / "pred_a", tmp_path / "pred_b"]
    for out in pred_outs:
        rc = main([
            "predict", *shared, "--model", str(outs[0] / "model.fsn"), "--out", str(out),
        ])
        assert rc == 0
    pred_same = (
        (pred_outs[0] / "predictions.tsv").read_bytes()
        == (pred_outs[1] / "predictions.tsv").read_bytes()
    )

    eval_outs = [tmp_path / "eval_a", tmp_path / "eval_b"]
    for out in eval_outs:
        rc = main([
            "eval", *shared,
            "--predictions", str(pred_outs[0] / "predictions.tsv"),
            "--tracks", str(pred_outs[0] / "tracks"),
            "--out", str(out),
        ])
        assert rc == 0
    report_same = (
        (eval_outs[0] / "report.csv").read_bytes()
        == (eval_outs[1] / "report.csv").read_bytes()
    )

    ok = model_same and log_same and pred_same and report_same
    criterion(
        7,
        ok,
        f"model identical: {model_same}, loss log identical: {log_same}, "
        f"predictions identical: {pred_same}, report identical: {report_same}",
    )
    assert ok
