"""End-to-end tests for the command line surface."""

import hashlib
import os
import platform
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fsn import cli
from fsn.cli import (
    SCHEMA,
    RunConfig,
    build_config,
    build_parser,
    main,
    parse_config_file,
)
from fsn.data import (
    AnnotationSet,
    Segments,
    SynthConfig,
    VideoFeatures,
    label_frames,
    load_annotations,
    load_feature_dir,
    load_features,
    load_manifest,
    synth_generate,
    write_annotations,
    write_features,
)
from fsn.evaluate import EvalConfig, frame_level_map, segment_level_map
from fsn.localize import FrameScoreTrack, load_predictions
from fsn.model import load_model
from oracles import per_video_batches
from records import load_report


# ---------------------------------------------------------------- config


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# training setup\n"
        "\n"
        "iterations = 500\n"
        "learning_rate = 0.001\n"
        "eval_iou = 0.3,0.5\n"
        "context_ambiguity = true\n"
    )
    values = parse_config_file(path)
    assert values == {
        "iterations": "500",
        "learning_rate": "0.001",
        "eval_iou": "0.3,0.5",
        "context_ambiguity": "true",
    }


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("iteratons = 500\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_file(path)


def test_config_file_rejects_duplicate_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config_file(path)


def test_config_file_rejects_malformed_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config_file(path)


def test_build_config_coerces_types():
    cfg = build_config(
        {"iterations": "500", "eval_iou": "0.3,0.5", "context_ambiguity": "yes"},
        {},
    )
    assert cfg.iterations == 500
    assert cfg.eval_iou == (0.3, 0.5)
    assert cfg.context_ambiguity is True
    # settings the data or the model supply stay unset unless given
    assert cfg.num_classes is None and cfg.feature_dim is None


def test_flags_override_config_file():
    cfg = build_config({"seed": "1", "iterations": "10"}, {"seed": "99"})
    assert cfg.seed == 99
    assert cfg.iterations == 10


def test_build_config_reports_bad_value():
    with pytest.raises(ValueError, match="context_ambiguity"):
        build_config({"context_ambiguity": "maybe"}, {})


@pytest.mark.parametrize("key, value", [("eval_iou", "0.5,abc"), ("iterations", "x")])
def test_bad_flag_value_fails_like_a_config_value(tmp_path, capsys, key, value):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    assert main(["gradcheck", "--config", str(config), "--out", str(tmp_path)]) == 1
    from_file = capsys.readouterr().err
    flag = "--" + key.replace("_", "-")
    assert main(["gradcheck", flag, value, "--out", str(tmp_path)]) == 1
    from_flag = capsys.readouterr().err
    assert from_flag == from_file
    assert from_flag.startswith(f"error: config key {key!r}: ")
    assert from_flag.count("\n") == 1


def test_schema_follows_run_config_fields():
    keys = [f.name for f in fields(RunConfig)]
    assert list(SCHEMA) == keys
    assert len(SCHEMA) == 38
    parser = build_parser()
    for key in keys:
        args = parser.parse_args(["synth", "--" + key.replace("_", "-"), "1"])
        assert getattr(args, key) == "1"
        assert getattr(build_config({}, {key: "1"}), key) == SCHEMA[key]("1")
    assert SCHEMA["dilations"]("1,2,4") == (1, 2, 4)
    assert SCHEMA["eval_iou"]("0.3,0.5") == (0.3, 0.5)
    assert SCHEMA["context_ambiguity"]("off") is False
    assert {f.name for f in fields(SynthConfig)} <= set(keys)


# ---------------------------------------------------------------- corpus fixture


SYNTH_ARGS = [
    "--num-videos", "8",
    "--frames-per-video", "200",
    "--num-classes", "3",
    "--feature-dim", "6",
    "--seed", "7",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--out", str(out), *SYNTH_ARGS]) == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("trained")
    rc = main([
        "train",
        "--features-dir", str(corpus),
        "--annotations", str(corpus / "annotations.tsv"),
        "--manifest", str(corpus / "manifest.tsv"),
        "--out", str(out),
        "--hidden-channels", "8",
        "--iterations", "100",
        "--learning-rate", "0.001",
        "--seed", "7",
    ])
    assert rc == 0
    return out


# ---------------------------------------------------------------- synth


def test_synth_writes_one_file_per_video_plus_two(corpus):
    assert len(list(corpus.iterdir())) == 8 + 2


def test_synth_manifest_echoes_config(corpus):
    manifest = load_manifest(corpus / "manifest.tsv")
    assert manifest["config"]["num_videos"] == "8"
    assert manifest["config"]["num_classes"] == "3"
    assert len(manifest["train_ids"]) + len(manifest["test_ids"]) == 8


def test_synth_rerun_is_byte_identical(corpus, tmp_path):
    again = tmp_path / "again"
    assert main(["synth", "--out", str(again), *SYNTH_ARGS]) == 0
    for path in sorted(corpus.iterdir()):
        assert (again / path.name).read_bytes() == path.read_bytes()


# sha256 of every file that synth writes for SYNTH_ARGS, computed with the
# version that kept the whole corpus in memory before writing it
PINNED_SYNTH = {
    "annotations.tsv": "03f7cf13c61e6ef4d5fede9310faf382a7a8cf1b045946ec38984470bf58ff27",
    "manifest.tsv": "33becfc3f458228e037a9b4d5530b305f32377b4154b5cbc9172b8885fd9e41f",
    "synth_0000.fsnf": "b523b430134c120ae4f4d572e71ac437cf7a27a19fb1ee27a6613b318de2eb54",
    "synth_0001.fsnf": "1da8e1fec8390a1a080ffc96791f97916962de2b1b353818d19d3f00ff849488",
    "synth_0002.fsnf": "b33e0aaadae6bfca96385334244b78003e7c99f73fb2fd2c21bed510df2f019d",
    "synth_0003.fsnf": "9dbe826942ed4eb0b1522cac1ac8cc7d9e3e0beb9334ecafc2c85cad0b545ff7",
    "synth_0004.fsnf": "2ea299c562158de0a397d756c441a77286703d3a1373b407fa43f855fb51ce43",
    "synth_0005.fsnf": "315a640d6ff9d2353d88d113db6c76446be486eeeaf2c919a41d9d2f85ebe1bf",
    "synth_0006.fsnf": "27360eb3370426d890c53e6ee2ddbc3c75a542f35abc59036bb7c46303c8073a",
    "synth_0007.fsnf": "f6266130cd4d5a0f6647491c41fa77f648b464de6ec19238d5df5207713f422d",
}


def test_synth_bytes_are_pinned(corpus):
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in corpus.iterdir()}
    assert written == PINNED_SYNTH


def test_synth_files_match_the_library_corpus(corpus, tmp_path):
    flags = {k[2:].replace("-", "_"): v for k, v in zip(SYNTH_ARGS[::2], SYNTH_ARGS[1::2])}
    cfg = build_config({}, flags)
    for video in synth_generate(cli._synth_config(cfg)).videos:
        expected = tmp_path / f"{video.video_id}.fsnf"
        write_features(video, expected)
        assert (corpus / expected.name).read_bytes() == expected.read_bytes()


# Linux carries a process's peak RSS across exec into its ru_maxrss, so a
# child started straight from the test process would report at least the test
# process's own peak; a small relay process starts the child and reports the
# child's ru_maxrss from os.wait4 instead.
RSS_RELAY = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(child.returncode, usage.ru_maxrss)
"""


FSN_MAIN = "import sys, fsn.cli; sys.exit(fsn.cli.main(sys.argv[1:]))"


def max_rss_kb(tmp_path, *args: str) -> int:
    """The ru_maxrss of a child process that runs one fsn command."""
    code, max_rss = run_python(
        tmp_path, RSS_RELAY, sys.executable, "-c", FSN_MAIN, *args
    ).split()
    assert code == "0"
    return int(max_rss)


def synth_max_rss_kb(tmp_path, num_videos: int) -> int:
    """The ru_maxrss of a child process that runs one 6000-frame synth."""
    out = tmp_path / f"corpus{num_videos}"
    return max_rss_kb(
        tmp_path, "synth", "--out", str(out),
        "--num-videos", str(num_videos), "--frames-per-video", "6000",
    )


@pytest.mark.skipif(platform.system() != "Linux", reason="ru_maxrss is in KiB on Linux")
def test_synth_memory_does_not_grow_with_the_corpus(tmp_path):
    # 98 more videos of 6000 x 16 descriptors are 75 MB as float64
    grown_kb = synth_max_rss_kb(tmp_path, 100) - synth_max_rss_kb(tmp_path, 2)
    assert grown_kb < 16 * 1024


def test_synth_rejects_descriptors_beyond_float32(tmp_path):
    # such descriptors would be written as inf, which no later command loads
    result = python_process(
        tmp_path, FSN_MAIN, "synth", "--out", str(tmp_path / "out"),
        "--num-videos", "2", "--frames-per-video", "100", "--prototype-noise", "1e39",
    )
    assert result.returncode == 1
    assert result.stderr == "error: synth_0000: features are not finite as float32\n"
    assert not list((tmp_path / "out").glob("*.fsnf"))


def test_rejected_synth_leaves_no_output_directory(tmp_path):
    result = python_process(
        tmp_path, FSN_MAIN, "synth", "--out", "f1/out",
        "--num-videos", "2", "--frames-per-video", "100", "--prototype-noise", "1e39",
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    assert not (tmp_path / "f1").exists()


def test_rejected_synth_removes_only_the_files_it_wrote(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    (out / "synth_0002.fsnf").write_bytes(b"older")
    written = []

    def write_two(video, path):
        if written:
            raise ValueError(f"{video.video_id}: refused")
        written.append(path)
        write_features(video, path)

    monkeypatch.setattr(cli, "write_features", write_two)
    synth = ["synth", "--out", str(out), "--num-videos", "3", "--frames-per-video", "100"]
    assert main(synth) == 1
    assert capsys.readouterr().err == "error: synth_0001: refused\n"
    assert written == [out / "synth_0000.fsnf"]
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "synth_0002.fsnf"]


# ---------------------------------------------------------------- train


@pytest.fixture(scope="module")
def corpus60(tmp_path_factory):
    """60 videos of 6000 x 16 descriptors, 45 of them training."""
    out = tmp_path_factory.mktemp("corpus60")
    synth = ["synth", "--out", str(out), "--num-videos", "60", "--frames-per-video", "6000"]
    assert main(synth) == 0
    return out


def train_max_rss_kb(tmp_path, corpus, iterations: int) -> int:
    """The ru_maxrss of a child process that trains ``iterations`` steps on
    the training split of ``corpus``."""
    return max_rss_kb(
        tmp_path, "train",
        "--features-dir", str(corpus),
        "--annotations", str(corpus / "annotations.tsv"),
        "--manifest", str(corpus / "manifest.tsv"),
        "--out", str(tmp_path / f"{corpus.name}-train{iterations}"),
        "--iterations", str(iterations), "--hidden-channels", "8",
    )


@pytest.mark.skipif(platform.system() != "Linux", reason="ru_maxrss is in KiB on Linux")
def test_train_memory_does_not_grow_with_the_corpus(tmp_path, corpus60):
    # 42 more training videos of 6000 x 16 descriptors are 16 MB as stored
    # float32; 5 steps read 60 windows of them
    corpus4 = tmp_path / "corpus4"
    assert main([
        "synth", "--out", str(corpus4), "--num-videos", "4", "--frames-per-video", "6000",
    ]) == 0
    grown_kb = train_max_rss_kb(tmp_path, corpus60, 5) - train_max_rss_kb(tmp_path, corpus4, 5)
    assert grown_kb < 6 * 1024


@pytest.mark.skipif(platform.system() != "Linux", reason="ru_maxrss is in KiB on Linux")
def test_train_memory_is_bounded_by_the_reachable_frames(tmp_path, corpus60):
    # corpus60's kept windows can read 112 000 frames, 7000 KiB of
    # descriptors: the most that any number of steps may hold
    grown_kb = train_max_rss_kb(tmp_path, corpus60, 2000) - train_max_rss_kb(tmp_path, corpus60, 5)
    assert grown_kb < 7000


def window_corpus(directory: Path, num_classes: int, frame_counts) -> Path:
    """Hand-written feature files (float32 noise, 4 dims) and annotations:
    one segment of a random class every 40 frames."""
    directory.mkdir()
    rng = np.random.default_rng(0)
    rows = []
    for index, frames in enumerate(frame_counts):
        video_id = f"v{index}"
        features = rng.standard_normal((frames, 4), dtype=np.float32)
        write_features(VideoFeatures(video_id, features), directory / f"{video_id}.fsnf")
        for start in range(0, frames - 30, 40):
            end = start + int(rng.integers(5, 30))
            rows.append((video_id, int(rng.integers(1, num_classes + 1)), start, end, 1.0))
    names = [f"c{k}" for k in range(1, num_classes + 1)]
    annotations = AnnotationSet(names, Segments.from_rows(rows))
    write_annotations(annotations, directory / "annotations.tsv")
    return directory


@pytest.mark.parametrize(
    "batch_size, stride, num_classes",
    [(1, 7, 3), (5, 1, 3), (12, 7, 3), (12, 1, 3), (5, 7, 300)],
)
def test_train_batches_match_the_per_video_gather(
    tmp_path, monkeypatch, batch_size, stride, num_classes
):
    # v1 is shorter than one 35-frame clip; 300 classes need uint16 labels
    corpus = window_corpus(tmp_path / "corpus", num_classes, [400, 20, 300, 250])
    batches = []

    def record(features, labels, head, optimizer):
        batches.append((features, labels))
        return 0.0

    monkeypatch.setattr(cli, "fsn_train_step", record)
    assert main([
        "train",
        "--features-dir", str(corpus),
        "--annotations", str(corpus / "annotations.tsv"),
        "--out", str(tmp_path / "out"),
        "--iterations", "25",
        "--batch-size", str(batch_size),
        "--train-stride", str(stride),
        "--hidden-channels", "4",
        "--seed", "3",
    ]) == 0
    videos = [load_features(corpus / f"{h.video_id}.fsnf") for h in load_feature_dir(corpus)]
    per_video = load_annotations(corpus / "annotations.tsv").segments.per_video(
        [v.video_id for v in videos]
    )
    labels = [label_frames(v.frame_count, s) for v, s in zip(videos, per_video)]
    expected = list(per_video_batches(
        [v.features for v in videos], labels, 35, 5, stride, 5, 3, batch_size, 25
    ))
    assert len(batches) == len(expected) == 25
    label_type = np.uint8 if num_classes < 256 else np.uint16
    for (features, labels), (want_features, want_labels) in zip(batches, expected):
        assert features.dtype == np.float32 and features.shape == want_features.shape
        assert features.tobytes() == want_features.tobytes()
        assert labels.dtype == label_type
        assert np.array_equal(labels.astype(np.int64), want_labels)
    if num_classes > 255:
        assert max(int(labels.max()) for _, labels in batches) > 255


def test_train_logs_one_row_per_interval(trained):
    lines = (trained / "train_log.csv").read_text().splitlines()
    assert lines[0] == "iteration,loss"
    assert len(lines) - 1 == 100 // 50
    assert lines[1].startswith("50,")


def test_train_rerun_is_byte_identical(corpus, trained, tmp_path):
    again = tmp_path / "again"
    rc = main([
        "train",
        "--features-dir", str(corpus),
        "--annotations", str(corpus / "annotations.tsv"),
        "--manifest", str(corpus / "manifest.tsv"),
        "--out", str(again),
        "--hidden-channels", "8",
        "--iterations", "100",
        "--learning-rate", "0.001",
        "--seed", "7",
    ])
    assert rc == 0
    assert (again / "model.fsn").read_bytes() == (trained / "model.fsn").read_bytes()
    assert (again / "train_log.csv").read_bytes() == (trained / "train_log.csv").read_bytes()


def test_train_reads_settings_from_config_file(corpus, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"features_dir = {corpus}\n"
        f"annotations = {corpus / 'annotations.tsv'}\n"
        f"out = {tmp_path / 'out'}\n"
        "hidden_channels = 8\n"
        "iterations = 50\n"
        "learning_rate = 0.001\n"
    )
    assert main(["train", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "model.fsn").exists()


def test_train_fails_when_no_window_qualifies(corpus, capsys):
    rc = main([
        "train",
        "--features-dir", str(corpus),
        "--annotations", str(corpus / "annotations.tsv"),
        "--out", str(corpus.parent / "unused"),
        "--min-action-frames", "10000",
    ])
    assert rc == 1
    assert "action-frame" in capsys.readouterr().err


def test_train_rejects_class_count_mismatch(corpus, capsys):
    rc = main([
        "train",
        "--features-dir", str(corpus),
        "--annotations", str(corpus / "annotations.tsv"),
        "--out", str(corpus.parent / "unused"),
        "--num-classes", "9",
    ])
    assert rc == 1
    assert "9 classes" in capsys.readouterr().err


def test_train_reads_each_feature_file_once(corpus, tmp_path, monkeypatch):
    import fsn.cli
    import fsn.data

    read = []
    original = fsn.data.load_features

    def counting(path, *args, **kwargs):
        read.append(Path(path).name)
        return original(path, *args, **kwargs)

    monkeypatch.setattr(fsn.data, "load_features", counting)
    monkeypatch.setattr(fsn.cli, "load_features", counting)
    rc = main([
        "train",
        "--features-dir", str(corpus),
        "--annotations", str(corpus / "annotations.tsv"),
        "--manifest", str(corpus / "manifest.tsv"),
        "--out", str(tmp_path / "out"),
        "--iterations", "2",
    ])
    assert rc == 0
    assert sorted(read) == sorted(p.name for p in corpus.glob("*.fsnf"))


def test_train_fails_on_corrupt_file_outside_the_split(corpus, tmp_path, capsys):
    # the test split is only read for frame counts, but it is still validated
    features = tmp_path / "features"
    features.mkdir()
    for path in corpus.glob("*.fsnf"):
        (features / path.name).write_bytes(path.read_bytes())
    victim = features / f"{load_manifest(corpus / 'manifest.tsv')['test_ids'][0]}.fsnf"
    victim.write_bytes(victim.read_bytes()[:-4])
    rc = main([
        "train",
        "--features-dir", str(features),
        "--annotations", str(corpus / "annotations.tsv"),
        "--manifest", str(corpus / "manifest.tsv"),
        "--out", str(tmp_path / "out"),
        "--iterations", "2",
    ])
    assert rc == 1
    assert victim.name in capsys.readouterr().err


def test_train_checks_every_split_payload(corpus, tmp_path, capsys):
    # frame 0 is no window's snippet center, so no batch would read the NaN
    # that write_features refuses to write: only the full load finds it
    features = tmp_path / "features"
    features.mkdir()
    for path in corpus.glob("*.fsnf"):
        (features / path.name).write_bytes(path.read_bytes())
    victim = features / f"{load_manifest(corpus / 'manifest.tsv')['train_ids'][0]}.fsnf"
    raw = bytearray(victim.read_bytes())
    raw[16:20] = struct.pack("<f", float("nan"))
    victim.write_bytes(bytes(raw))
    out = tmp_path / "out"
    rc = main([
        "train",
        "--features-dir", str(features),
        "--annotations", str(corpus / "annotations.tsv"),
        "--manifest", str(corpus / "manifest.tsv"),
        "--out", str(out),
        "--iterations", "1",
    ])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {victim}: {victim.stem}: features contain non-finite values\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, message",
    [
        ("train", "--train-stride", "stride must be >= 1, got 0"),
        ("train", "--log-every", "log_every must be >= 1, got 0"),
        ("train", "--batch-size", "batch_size must be >= 1, got 0"),
        ("train-weak", "--log-every", "log_every must be >= 1, got 0"),
        ("train-weak", "--batch-size", "batch_size must be >= 1, got 0"),
        ("train", "--iterations", "iterations must be >= 1, got 0"),
        ("train-weak", "--iterations", "iterations must be >= 1, got 0"),
        ("train-weak", "--weak-positions", "weak_positions must be >= 1, got 0"),
        ("predict-weak", "--weak-positions", "weak_positions must be >= 1, got 0"),
        ("gradcheck", "--gradcheck-seeds", "gradcheck_seeds must be >= 1, got 0"),
    ],
)
def test_training_rejects_zero_loop_settings(corpus, tmp_path, capsys, command, flag, message):
    rc = main([
        command,
        "--features-dir", str(corpus),
        "--annotations", str(corpus / "annotations.tsv"),
        "--out", str(tmp_path / "out"),
        "--iterations", "2",
        "--weak-positions", "40",
        flag, "0",
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / "model.fsn").exists()


# sha256 of (model.fsn, train_log.csv) for short runs on the module corpus,
# computed with the per-window sample objects that preceded the index-array
# windows: window selection, rebalancing and batch sampling must not move.
# The weights run through BLAS, so these hold for this numpy/OpenBLAS build.
PINNED_TRAINING = {
    "train": (
        ["train", "--iterations", "40", "--log-every", "10"],
        "ca7aab6d491113d2abccdc44553969098ed1f290ccd2ba685e342f1306f6068e",
        "94af6082ff8852cc865552176a50b6c45d11eeeb04d57092696234718dfe31c9",
    ),
    "train-sparse-windows": (
        ["train", "--iterations", "40", "--log-every", "10",
         "--train-stride", "3", "--min-action-frames", "0"],
        "d0574a55ad9d7569f64f8af6a472eba860cea76e5d717c5807f22d816e78d1d5",
        "7e02db34f90f0435418669abc20f7edc582ebfc11bb1a8ab51f27e0e9b87835d",
    ),
    "train-weak": (
        ["train-weak", "--iterations", "20", "--log-every", "5", "--weak-positions", "40"],
        "1870b4149e743e50763db225ed00912c4a1588409cfa9b9172f589db2493b565",
        "9e29a89de40c9db0bc1d260cfb1ebb7b9af81f01118a0cfa90f7a10cbed48c82",
    ),
}


@pytest.mark.parametrize("run", list(PINNED_TRAINING))
def test_training_bytes_are_pinned(corpus, tmp_path, run):
    args, model_sha, log_sha = PINNED_TRAINING[run]
    out = tmp_path / "out"
    rc = main([
        *args,
        "--features-dir", str(corpus),
        "--annotations", str(corpus / "annotations.tsv"),
        "--manifest", str(corpus / "manifest.tsv"),
        "--out", str(out),
        "--hidden-channels", "8",
        "--learning-rate", "0.001",
        "--seed", "7",
    ])
    assert rc == 0
    digests = [
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("model.fsn", "train_log.csv")
    ]
    assert digests == [model_sha, log_sha]


# ---------------------------------------------------------------- train-weak


def test_train_weak_round_trips_pooling(corpus, tmp_path):
    out = tmp_path / "weak"
    rc = main([
        "train-weak",
        "--features-dir", str(corpus),
        "--annotations", str(corpus / "annotations.tsv"),
        "--manifest", str(corpus / "manifest.tsv"),
        "--out", str(out),
        "--hidden-channels", "8",
        "--iterations", "20",
        "--weak-positions", "40",
        "--pooling", "gap",
        "--seed", "7",
    ])
    assert rc == 0
    assert load_model(out / "model.fsn").pooling == "gap"


def test_train_weak_rejects_short_videos(corpus, capsys):
    rc = main([
        "train-weak",
        "--features-dir", str(corpus),
        "--annotations", str(corpus / "annotations.tsv"),
        "--out", str(corpus.parent / "unused"),
        "--weak-positions", "500",
    ])
    assert rc == 1
    assert "shorter than 500" in capsys.readouterr().err


# ---------------------------------------------------------------- predict


def predict_args(corpus, trained, out):
    return [
        "predict",
        "--features-dir", str(corpus),
        "--manifest", str(corpus / "manifest.tsv"),
        "--model", str(trained / "model.fsn"),
        "--out", str(out),
        "--seed", "7",
    ]


def test_predict_writes_predictions_tracks_and_log(corpus, trained, tmp_path):
    out = tmp_path / "pred"
    assert main(predict_args(corpus, trained, out)) == 0
    predictions = load_predictions(out / "predictions.tsv")
    assert predictions
    manifest = load_manifest(corpus / "manifest.tsv")
    track_files = sorted(p.stem for p in (out / "tracks").glob("*.fsnf"))
    assert track_files == sorted(manifest["test_ids"])
    log = (out / "predict_log.txt").read_text()
    assert "predict_iou = 0.5" in log
    assert "nms_iou = 0.4" in log


def test_predict_nms_rule_follows_predict_iou(corpus, trained, tmp_path):
    out = tmp_path / "pred"
    assert main([*predict_args(corpus, trained, out), "--predict-iou", "0.7"]) == 0
    log = (out / "predict_log.txt").read_text()
    assert "predict_iou = 0.7" in log
    assert "nms_iou = 0.6" in log


def test_predict_rerun_is_byte_identical(corpus, trained, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(predict_args(corpus, trained, first)) == 0
    assert main(predict_args(corpus, trained, second)) == 0
    assert (first / "predictions.tsv").read_bytes() == (second / "predictions.tsv").read_bytes()
    for track in sorted((first / "tracks").glob("*.fsnf")):
        assert track.read_bytes() == (second / "tracks" / track.name).read_bytes()


def test_predict_empty_split_writes_header_only(corpus, trained, tmp_path):
    # a manifest that assigns every video to train leaves the test split empty
    manifest = tmp_path / "manifest.tsv"
    lines = []
    for line in (corpus / "manifest.tsv").read_text().splitlines():
        lines.append(line.replace("\ttest\t", "\ttrain\t") if line.startswith("video\t") else line)
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / "pred"
    rc = main([
        "predict",
        "--features-dir", str(corpus),
        "--manifest", str(manifest),
        "--model", str(trained / "model.fsn"),
        "--out", str(out),
    ])
    assert rc == 0
    assert (out / "predictions.tsv").read_text() == "video_id\tstart\tend\tclass_id\tconfidence\n"


def test_predict_refuses_tracks_of_videos_it_does_not_score(corpus, trained, tmp_path, capsys):
    # eval scores every track in the directory, so leftovers of a wider
    # split would silently join the evaluation
    out = tmp_path / "pred"
    assert main([*predict_args(corpus, trained, out), "--split", "all"]) == 0
    before = {path.name: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    rc = main(predict_args(corpus, trained, out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    train_ids = load_manifest(corpus / "manifest.tsv")["train_ids"]
    assert sorted(train_ids)[0] in err
    after = {path.name: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    assert after == before
    assert main([*predict_args(corpus, trained, out), "--split", "all"]) == 0
    assert (out / "predictions.tsv").read_bytes() == before["predictions.tsv"]


def split_with_a_bad_last_video(corpus, directory: Path, kind: str) -> Path:
    """A copy of ``corpus``' feature files and manifest whose last test video
    fails once it is read: a NaN patched into its payload (``write_features``
    refuses to write one), or a 3-frame video, shorter than one snippet,
    added to the end of the split. Returns the bad video's file."""
    directory.mkdir()
    for path in corpus.glob("*.fsnf"):
        (directory / path.name).write_bytes(path.read_bytes())
    manifest = (corpus / "manifest.tsv").read_text()
    if kind == "nan":
        victim = directory / f"{max(load_manifest(corpus / 'manifest.tsv')['test_ids'])}.fsnf"
        raw = bytearray(victim.read_bytes())
        raw[-4:] = struct.pack("<f", float("nan"))
        victim.write_bytes(bytes(raw))
    else:
        victim = directory / "synth_9999.fsnf"
        write_features(VideoFeatures(victim.stem, np.ones((3, 6))), victim)
        manifest += f"video\t{victim.stem}\ttest\t3\n"
    (directory / "manifest.tsv").write_text(manifest)
    return victim


def tree_bytes(root: Path) -> dict[str, bytes | None]:
    """Every entry under ``root``, hidden ones too, with the bytes of each file."""
    return {
        str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
        for path in root.rglob("*")
    }


@pytest.mark.parametrize("earlier_run", [False, True], ids=["fresh-out", "earlier-out"])
@pytest.mark.parametrize("kind", ["nan", "short"])
def test_predict_failing_mid_stream_leaves_no_output(
    corpus, trained, tmp_path, monkeypatch, capsys, kind, earlier_run
):
    features = tmp_path / "features"
    victim = split_with_a_bad_last_video(corpus, features, kind)
    out = tmp_path / "pred"
    before = {}
    if earlier_run:
        # another model's tracks, so a track overwritten in place would show
        other = tmp_path / "other"
        assert main([
            "train",
            "--features-dir", str(corpus),
            "--annotations", str(corpus / "annotations.tsv"),
            "--manifest", str(corpus / "manifest.tsv"),
            "--out", str(other),
            "--hidden-channels", "8",
            "--iterations", "5",
        ]) == 0
        assert main(predict_args(corpus, other, out)) == 0
        before = tree_bytes(out)
    written = []

    def write_and_record(video, path):
        written.append(path.name)
        write_features(video, path)

    monkeypatch.setattr(cli, "write_features", write_and_record)
    rc = main([
        *predict_args(corpus, trained, out),
        "--features-dir", str(features),
        "--manifest", str(features / "manifest.tsv"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    if kind == "nan":
        assert err == f"error: {victim}: {victim.stem}: features contain non-finite values\n"
    else:
        assert err == f"error: {victim.stem}: 3 frames is shorter than one 5-frame snippet\n"
    # the videos before the bad one were scored and their tracks written
    test_ids = sorted(load_manifest(features / "manifest.tsv")["test_ids"])
    assert written == [f"{video_id}.fsnf" for video_id in test_ids[:-1]]
    if earlier_run:
        assert tree_bytes(out) == before
    else:
        assert not out.exists()


def test_predict_into_nested_fresh_directories_leaves_none_on_failure(
    corpus, trained, tmp_path, capsys
):
    features = tmp_path / "features"
    split_with_a_bad_last_video(corpus, features, "nan")
    rc = main([
        *predict_args(corpus, trained, tmp_path / "a" / "out"),
        "--features-dir", str(features),
        "--manifest", str(features / "manifest.tsv"),
        "--tracks", str(tmp_path / "b" / "tracks"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["features"]


def test_predict_memory_stays_below_the_split_descriptors(tmp_path, corpus60):
    # predict scores, groups and writes one video at a time, so the traced
    # peak stays below the float32 descriptors of the whole split (23 MB)
    corpus_args = [
        "--features-dir", str(corpus60),
        "--annotations", str(corpus60 / "annotations.tsv"),
        "--manifest", str(corpus60 / "manifest.tsv"),
    ]
    model_dir = tmp_path / "model"
    assert main([
        "train", *corpus_args, "--out", str(model_dir),
        "--iterations", "5", "--hidden-channels", "8",
    ]) == 0
    headers = load_feature_dir(corpus60)
    descriptor_bytes = sum(4 * h.frame_count * h.feature_dim for h in headers)
    tracemalloc.start()
    try:
        rc = main([
            "predict", *corpus_args, "--split", "all",
            "--model", str(model_dir / "model.fsn"), "--out", str(tmp_path / "pred"),
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert len(list((tmp_path / "pred" / "tracks").glob("*.fsnf"))) == len(headers) == 60
    assert peak < descriptor_bytes, f"traced peak {peak} B"


def test_predict_rejects_weak_model(corpus, tmp_path, capsys):
    out = tmp_path / "weak"
    main([
        "train-weak",
        "--features-dir", str(corpus),
        "--annotations", str(corpus / "annotations.tsv"),
        "--out", str(out),
        "--hidden-channels", "8",
        "--iterations", "5",
        "--weak-positions", "40",
    ])
    rc = main([
        "predict",
        "--features-dir", str(corpus),
        "--model", str(out / "model.fsn"),
        "--out", str(tmp_path / "pred"),
    ])
    assert rc == 1
    assert "predict-weak" in capsys.readouterr().err


def test_predict_rejects_class_count_mismatch(corpus, trained, tmp_path, capsys):
    rc = main([
        *predict_args(corpus, trained, tmp_path / "pred"),
        "--num-classes", "5",
    ])
    assert rc == 1
    assert "asks for 5" in capsys.readouterr().err


# ---------------------------------------------------------------- eval


@pytest.fixture(scope="module")
def predicted(tmp_path_factory, corpus, trained):
    out = tmp_path_factory.mktemp("predicted")
    assert main(predict_args(corpus, trained, out)) == 0
    return out


def test_eval_writes_report(corpus, predicted):
    rc = main([
        "eval",
        "--annotations", str(corpus / "annotations.tsv"),
        "--out", str(predicted),
    ])
    assert rc == 0
    report = load_report(predicted / "report.csv")
    assert "mAP" in report
    assert set(report["mAP"]) == {"iou_0.3", "iou_0.4", "iou_0.5", "iou_0.6", "iou_0.7", "frame_ap"}


def test_eval_keeps_track_scores_float32(predicted):
    tracks = cli._load_tracks(predicted / "tracks", 3)
    assert tracks
    for track in tracks:
        stored = load_features(predicted / "tracks" / f"{track.video_id}.fsnf")
        assert track.scores.dtype == np.float32
        assert np.array_equal(track.scores, stored.features)


def test_eval_labels_frames_in_the_smallest_type(tmp_path, monkeypatch):
    # 300 classes need uint16 frame labels; the report must equal the one
    # int64 labels give
    num_classes, frames = 300, 40
    rng = np.random.default_rng(3)
    tracks = tmp_path / "tracks"
    tracks.mkdir()
    rows, predictions = [], []
    for index in range(3):
        video_id = f"v{index}"
        scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=(frames, num_classes + 1))
        write_features(VideoFeatures(video_id, scores), tracks / f"{video_id}.fsnf")
        for start, class_id in ((5, 1 + 149 * index), (20, 300 - index)):
            rows.append((video_id, class_id, start, start + 10, 1.0))
            predictions.append(f"{video_id}\t{start}\t{start + 8}\t{class_id}\t0.75")
    annotations = tmp_path / "annotations.tsv"
    names = [f"c{k:03d}" for k in range(1, num_classes + 1)]
    write_annotations(AnnotationSet(names, Segments.from_rows(rows)), annotations)
    prediction_file = tmp_path / "predictions.tsv"
    prediction_file.write_text(
        "video_id\tstart\tend\tclass_id\tconfidence\n" + "\n".join(predictions) + "\n"
    )
    label_types = []

    def recorded(frame_count, segments, dtype=np.int64):
        label_types.append(np.dtype(dtype))
        return label_frames(frame_count, segments, dtype)

    def wide(frame_count, segments, dtype=np.int64):
        return label_frames(frame_count, segments)

    reports = []
    for name, labeller in (("narrow", recorded), ("wide", wide)):
        monkeypatch.setattr(cli, "label_frames", labeller)
        assert main([
            "eval", "--annotations", str(annotations), "--predictions", str(prediction_file),
            "--tracks", str(tracks), "--out", str(tmp_path / name),
        ]) == 0
        reports.append((tmp_path / name / "report.csv").read_bytes())
    assert label_types == [np.dtype(np.uint16)] * 3
    assert reports[0] == reports[1]
    assert load_report(tmp_path / "narrow" / "report.csv")["mAP"]["frame_ap"] > 0


def test_eval_matches_library_result(corpus, predicted):
    from fsn.data import AnnotationSet, load_annotations, load_features, label_frames

    main(["eval", "--annotations", str(corpus / "annotations.tsv"), "--out", str(predicted)])
    report = load_report(predicted / "report.csv")

    annotations = load_annotations(corpus / "annotations.tsv")
    tracks = [
        FrameScoreTrack(p.stem, load_features(p).features, includes_background=True)
        for p in sorted((predicted / "tracks").glob("*.fsnf"))
    ]
    test_ids = {t.video_id for t in tracks}
    segments = annotations.segments
    test_gt = AnnotationSet(
        annotations.class_names,
        segments.take(np.array([v in test_ids for v in segments.video_id.tolist()], dtype=bool)),
    )
    segment = segment_level_map(
        load_predictions(predicted / "predictions.tsv"),
        test_gt,
        EvalConfig(annotations.num_classes),
        video_ids=test_ids,
    )
    labels = {
        t.video_id: label_frames(
            t.frame_count, test_gt.segments.take(test_gt.segments.video_id == t.video_id)
        )
        for t in tracks
    }
    _, frame_map = frame_level_map(tracks, labels)
    assert report["mAP"]["iou_0.5"] == pytest.approx(segment.segment_map[2], abs=5e-5)
    assert report["mAP"]["frame_ap"] == pytest.approx(frame_map, abs=5e-5)


def test_eval_echoes_requested_thresholds(corpus, predicted, tmp_path):
    out = tmp_path / "eval"
    rc = main([
        "eval",
        "--annotations", str(corpus / "annotations.tsv"),
        "--predictions", str(predicted / "predictions.tsv"),
        "--tracks", str(predicted / "tracks"),
        "--out", str(out),
        "--eval-iou", "0.2,0.5",
    ])
    assert rc == 0
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == "class,iou_0.2,iou_0.5,frame_ap"


def test_eval_rejects_duplicate_thresholds(corpus, predicted, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main([
        "eval",
        "--annotations", str(corpus / "annotations.tsv"),
        "--predictions", str(predicted / "predictions.tsv"),
        "--tracks", str(predicted / "tracks"),
        "--out", str(out),
        "--eval-iou", "0.5,0.5",
    ])
    assert rc == 1
    assert "strictly ascend" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_eval_rejects_empty_threshold_list(corpus, predicted, tmp_path, capsys, source):
    config = tmp_path / "eval.cfg"
    config.write_text("eval_iou =\n")
    given = ["--eval-iou", ""] if source == "flag" else ["--config", str(config)]
    out = tmp_path / "eval"
    rc = main([
        "eval",
        "--annotations", str(corpus / "annotations.tsv"),
        "--predictions", str(predicted / "predictions.tsv"),
        "--tracks", str(predicted / "tracks"),
        "--out", str(out),
        *given,
    ])
    assert rc == 1
    assert capsys.readouterr().err == "error: need at least one IoU threshold\n"
    assert not (out / "report.csv").exists()


def test_eval_rejects_predictions_for_unknown_video(corpus, predicted, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    text = (predicted / "predictions.tsv").read_text().splitlines()
    bad.write_text(text[0] + "\nno_such_video\t0\t10\t1\t0.5\n")
    rc = main([
        "eval",
        "--annotations", str(corpus / "annotations.tsv"),
        "--predictions", str(bad),
        "--tracks", str(predicted / "tracks"),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert "no_such_video" in capsys.readouterr().err


def test_eval_rejects_dense_and_weak_tracks_together(corpus, predicted, tmp_path, capsys):
    from fsn.data import VideoFeatures, load_features, write_features

    tracks = tmp_path / "tracks"
    tracks.mkdir()
    paths = sorted((predicted / "tracks").glob("*.fsnf"))
    for path in paths:
        (tracks / path.name).write_bytes(path.read_bytes())
    # a background-free (weak) track of the second video in place of its dense one
    dense = load_features(paths[1])
    write_features(VideoFeatures(dense.video_id, dense.features[:, 1:]), tracks / paths[1].name)
    out = tmp_path / "out"
    rc = main([
        "eval",
        "--annotations", str(corpus / "annotations.tsv"),
        "--predictions", str(predicted / "predictions.tsv"),
        "--tracks", str(tracks),
        "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert paths[1].name in err and "do not mix" in err
    assert not (out / "report.csv").exists()


def test_eval_rerun_is_byte_identical(corpus, predicted, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        rc = main([
            "eval",
            "--annotations", str(corpus / "annotations.tsv"),
            "--predictions", str(predicted / "predictions.tsv"),
            "--tracks", str(predicted / "tracks"),
            "--out", str(out),
        ])
        assert rc == 0
    assert (first / "report.csv").read_bytes() == (second / "report.csv").read_bytes()


# ---------------------------------------------------------------- ablate


def ablate_args(corpus, out, mode):
    return [
        "ablate",
        "--features-dir", str(corpus),
        "--annotations", str(corpus / "annotations.tsv"),
        "--manifest", str(corpus / "manifest.tsv"),
        "--out", str(out),
        "--hidden-channels", "8",
        "--iterations", "40",
        "--learning-rate", "0.001",
        "--weak-positions", "40",
        "--seed", "7",
        "--ablate-mode", mode,
    ]


def test_ablate_temporal_table_shape_and_deltas(corpus, tmp_path):
    out = tmp_path / "ab"
    assert main(ablate_args(corpus, out, "temporal")) == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("model,frame_map,iou_")
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["fsn", "ablation", "delta"]
    rows = [list(map(float, line.split(",")[1:])) for line in lines[1:]]
    assert rows[2] == pytest.approx(
        [a - b for a, b in zip(rows[0], rows[1])], abs=1e-3
    )


def test_ablate_pooling_compares_gmp_to_gap(corpus, tmp_path):
    out = tmp_path / "ab"
    assert main(ablate_args(corpus, out, "pooling")) == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["gmp", "gap", "delta"]


def test_ablate_rejects_unknown_mode(corpus, tmp_path, capsys):
    rc = main(ablate_args(corpus, tmp_path / "ab", "everything"))
    assert rc == 1
    assert "ablate_mode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("train", ["--iterations", "0"], "iterations must be >= 1, got 0"),
        ("train", ["--train-stride", "0"], "stride must be >= 1, got 0"),
        ("train-weak", ["--batch-size", "0"], "batch_size must be >= 1, got 0"),
        ("ablate", ["--ablate-mode", "bogus"], "ablate_mode must be"),
        ("ablate", ["--ablate-mode", "temporal", "--iterations", "0"],
         "iterations must be >= 1, got 0"),
        ("ablate", ["--ablate-mode", "pooling", "--log-every", "0"],
         "log_every must be >= 1, got 0"),
        ("eval", ["--annotations", "nowhere.tsv", "--predictions", "p.tsv", "--tracks", "t"],
         "[Errno 2] No such file or directory: 'nowhere.tsv'"),
        ("predict", ["--model", "nowhere.fsn", "--features-dir", "nowhere"],
         "[Errno 2] No such file or directory: 'nowhere.fsn'"),
        ("predict-weak", ["--model", "nowhere.fsn", "--features-dir", "nowhere"],
         "[Errno 2] No such file or directory: 'nowhere.fsn'"),
        ("synth", ["--num-videos", "1"], "need at least 2 videos"),
    ],
    ids=[
        "train-iterations", "train-stride", "train-weak-batch-size",
        "ablate-mode", "ablate-temporal-iterations", "ablate-pooling-log-every",
        "eval-missing-annotations", "predict-missing-model",
        "predict-weak-missing-model", "synth-one-video",
    ],
)
def test_rejected_settings_leave_no_output_directory(
    corpus, tmp_path, capsys, monkeypatch, command, flags, message
):
    monkeypatch.chdir(tmp_path)  # the missing inputs are relative paths
    out = tmp_path / "fresh_out"
    rc = main([
        command,
        "--features-dir", str(corpus),
        "--annotations", str(corpus / "annotations.tsv"),
        "--manifest", str(corpus / "manifest.tsv"),
        "--out", str(out),
        "--iterations", "2",
        *flags,
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


# ---------------------------------------------------------------- gradcheck


def test_gradcheck_passes_and_writes_report(tmp_path):
    out = tmp_path / "gc"
    rc = main(["gradcheck", "--out", str(out), "--gradcheck-seeds", "2", "--seed", "11"])
    assert rc == 0
    text = (out / "gradcheck.txt").read_text()
    for name in ("conv_dilation4", "bilinear_upsample", "cross_entropy",
                 "fsn_end_to_end", "wfsn_end_to_end_gmp", "ablation_end_to_end"):
        assert name in text
    assert "negative_control" in text and "caught" in text
    assert text.rstrip().endswith("seeds 2)")


def test_gradcheck_report_values_are_small(tmp_path):
    out = tmp_path / "gc"
    main(["gradcheck", "--out", str(out), "--gradcheck-seeds", "1", "--seed", "3"])
    for line in (out / "gradcheck.txt").read_text().splitlines()[1:-2]:
        error = float(line.split()[1])
        assert error < 1e-5


def test_gradcheck_fails_a_nan_gradient(tmp_path, monkeypatch):
    # a NaN error must fail its check, not read as the running maximum
    monkeypatch.setattr(cli, "relu_backward", lambda grad, cache: np.full_like(grad, np.nan))
    out = tmp_path / "gc"
    assert main(["gradcheck", "--out", str(out), "--gradcheck-seeds", "2"]) == 1
    lines = (out / "gradcheck.txt").read_text().splitlines()
    assert "relu nan FAIL".split() in [line.split() for line in lines]
    assert lines[-1].startswith("overall: FAIL")


# ---------------------------------------------------------------- benchmark tracer


def test_benchmark_tracer_fits_the_package(tmp_path, monkeypatch):
    """The perfbench tracer wraps the package's public names and reads a few
    of them by name; every hook must still fit and every layer still count."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import spans

    data = tmp_path / "data"
    assert main([
        "synth", "--out", str(data), "--num-videos", "8", "--frames-per-video", "300",
        "--num-classes", "3", "--feature-dim", "6", "--seed", "7",
    ]) == 0
    corpus_args = [
        "--features-dir", str(data),
        "--annotations", str(data / "annotations.tsv"),
        "--manifest", str(data / "manifest.tsv"),
        "--hidden-channels", "8", "--iterations", "10", "--weak-positions", "40",
    ]
    commands = [
        ("train", "--out", str(tmp_path / "strong")),
        ("predict", "--model", str(tmp_path / "strong" / "model.fsn"),
         "--out", str(tmp_path / "strong")),
        ("train-weak", "--out", str(tmp_path / "weak")),
        ("predict-weak", "--model", str(tmp_path / "weak" / "model.fsn"),
         "--out", str(tmp_path / "weak")),
    ]
    traces = []
    for i, (command, *args) in enumerate(commands):
        trace = tmp_path / f"trace{i}.npz"
        subprocess.run(
            [sys.executable, "-B", str(bench / "launch.py"), str(trace), command,
             *corpus_args, *args],
            check=True,
        )
        traces.append({**spans.load_trace(trace), "startup_s": 0.0})
    metrics = spans.summarize(traces)
    assert metrics["trace.hook_errors"] == 0
    # read through len() of nms's candidate record and of its result
    assert metrics["localize.candidates"] >= metrics["localize.kept"] > 0
    assert metrics["model.train_step.calls"] == 20
    assert metrics["model.forward.calls"] > 0
    assert metrics["localize.windows"] > 0
    assert metrics["nncore.conv_fwd.cls.s"] > 0


# ---------------------------------------------------------------- allocator


def python_process(cwd, code, *args) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports fsn from this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )


def run_python(cwd, code, *args) -> str:
    """The stdout of ``python_process``, which must succeed."""
    result = python_process(cwd, code, *args)
    result.check_returncode()
    return result.stdout


# (12, 100, 32) activations are above glibc's default 128 KiB mmap threshold
WEAK_RUN = """
import sys
import fsn.cli
if sys.argv[1] == "default":
    fsn.cli._keep_freed_memory = lambda: None
corpus = sys.argv[2]
data = ["--features-dir", corpus, "--manifest", corpus + "/manifest.tsv",
        "--weak-positions", "100", "--seed", "7", "--out", "run"]
assert fsn.cli.main(["train-weak", *data, "--annotations", corpus + "/annotations.tsv",
                     "--hidden-channels", "32", "--iterations", "20"]) == 0
assert fsn.cli.main(["predict-weak", *data, "--model", "run/model.fsn"]) == 0
"""


def test_allocator_setting_keeps_every_byte(corpus, tmp_path):
    for mode in ("kept", "default"):
        (tmp_path / mode).mkdir()
        run_python(tmp_path / mode, WEAK_RUN, mode, str(corpus))
    kept, default = tmp_path / "kept" / "run", tmp_path / "default" / "run"
    files = sorted(p.relative_to(kept) for p in kept.rglob("*") if p.is_file())
    assert {"model.fsn", "predictions.tsv", "predict_log.txt"} <= {str(f) for f in files}
    assert any(f.parts[0] == "tracks" for f in files)
    assert files == sorted(p.relative_to(default) for p in default.rglob("*") if p.is_file())
    for rel in files:
        assert (kept / rel).read_bytes() == (default / rel).read_bytes(), rel


# Several live arrays per round, as in a training step: glibc's dynamic
# threshold serves a lone block from the heap once the first mmap of its size
# is freed, and whether a pair fits a hole depends on the heap's layout, but
# four leave more than the trim threshold free at the top of the heap.
FAULT_LOOP = """
import resource, sys
import numpy as np
import fsn.cli
if sys.argv[1] == "kept":
    fsn.cli._keep_freed_memory()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(300):
    activations = [np.ones((12, 108, 32)) for _ in range(4)]
    del activations
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc options")
def test_keep_freed_memory_stops_page_faults(tmp_path):
    kept = int(run_python(tmp_path, FAULT_LOOP, "kept"))
    default = int(run_python(tmp_path, FAULT_LOOP, "default"))
    assert kept * 20 < default, (kept, default)


def test_keep_freed_memory_without_mallopt(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert cli._keep_freed_memory() is None


# ---------------------------------------------------------------- main plumbing


def test_main_reports_missing_settings(capsys):
    assert main(["train", "--out", "/tmp/nowhere"]) == 1
    assert "missing required" in capsys.readouterr().err


def test_console_entry_point_configured():
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'fsn = "fsn.cli:main"' in pyproject.read_text()


# ---------------------------------------------------------------- runtime imports

LIST_MODULES = """
import sys
print("\\n".join(sys.modules))
"""

EVAL_RUN = """
import sys
import fsn.cli
assert fsn.cli.main(["eval", *sys.argv[1:]]) == 0
print("\\n".join(sys.modules))
"""


def test_eval_imports_only_numpy_beyond_the_standard_library(corpus, predicted, tmp_path):
    # a bare interpreter's modules come from site start-up hooks, not from fsn
    bare = set(run_python(tmp_path, LIST_MODULES).split())
    loaded = set(run_python(
        tmp_path, EVAL_RUN,
        "--annotations", str(corpus / "annotations.tsv"),
        "--predictions", str(predicted / "predictions.tsv"),
        "--tracks", str(predicted / "tracks"),
        "--out", str(tmp_path / "eval"),
    ).split())
    assert (tmp_path / "eval" / "report.csv").exists()
    new_roots = {name.split(".")[0] for name in loaded - bare}
    assert new_roots - set(sys.stdlib_module_names) == {"fsn", "numpy"}
    assert "numpy.ma" not in loaded
