"""End-to-end tests for the command line surface."""

import ast
import hashlib
import os
import platform
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

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
    FeatureHeader,
    Segments,
    SynthConfig,
    VideoFeatures,
    label_frames,
    load_annotations,
    load_feature_dir,
    load_features,
    load_manifest,
    span_bounds,
    write_annotations,
    write_features,
)
from fsn.evaluate import frame_level_map, segment_level_map
from fsn.localize import FrameScoreTrack, load_predictions
from fsn.model import ModelConfig, load_model, save_model
from openblas import core_name
from oracles import per_sample_weak_batches, per_video_batches
from records import load_report, synth_corpus

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
    assert cfg.given == {"context_ambiguity": True}
    # settings the data or the model supply stay unset unless given
    assert "num_classes" not in cfg.given and "feature_dim" not in cfg.given


def test_flags_override_config_file():
    cfg = build_config({"seed": "1", "iterations": "10"}, {"seed": "99"})
    assert cfg.seed == 99
    assert cfg.iterations == 10


def test_build_config_reports_bad_value():
    with pytest.raises(ValueError, match="context_ambiguity"):
        build_config({"context_ambiguity": "maybe"}, {})


@pytest.mark.parametrize(
    "key, value", [("eval_iou", "0.5,abc"), ("iterations", "x"), ("seed", "-1")]
)
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
    # the keys are the fields of RunConfig, ModelConfig and SynthConfig, each
    # name once; RunConfig.given is set by build_config alone
    names = [f.name for t in (RunConfig, ModelConfig, SynthConfig) for f in fields(t)]
    assert set(SCHEMA) == set(names) - {"given"}
    assert len(SCHEMA) == 38
    # RunConfig declares no field of the two dataclasses but the run seed
    run_fields = {f.name for f in fields(RunConfig)}
    assert run_fields & {f.name for f in fields(ModelConfig) + fields(SynthConfig)} == {"seed"}
    parser = build_parser()
    for key in SCHEMA:
        args = parser.parse_args(["synth", "--" + key.replace("_", "-"), "1"])
        assert getattr(args, key) == "1"
        cfg = build_config({}, {key: "1"})
        assert cfg == build_config({key: "1"}, {})
        assert {**vars(cfg), **cfg.given}[key] == SCHEMA[key]("1")
    assert SCHEMA["dilations"]("1,2,4") == (1, 2, 4)
    assert SCHEMA["eval_iou"]("0.3,0.5") == (0.3, 0.5)
    assert SCHEMA["context_ambiguity"]("off") is False


# a valid value of each field that differs from the one it takes unset
FIELD_FLAGS = {
    "num_videos": "9", "frames_per_video": "500", "num_classes": "3", "feature_dim": "6",
    "prototype_noise": "0.5", "context_ambiguity": "on", "instance_density": "0.3",
    "seed": "5", "train_fraction": "0.5", "single_class_videos": "yes",
    "min_instance_len": "10", "max_instance_len": "40",
    "hidden_channels": "8", "snippet_len": "7", "clip_len": "40", "dilations": "1,3",
}


@pytest.mark.parametrize(
    "config_type, key",
    [(SynthConfig, f.name) for f in fields(SynthConfig)]
    + [
        (ModelConfig, f.name)
        for f in fields(ModelConfig)
        if f.name not in ("num_classes", "feature_dim")  # taken from the data
    ],
)
def test_every_dataclass_field_is_a_flag(config_type, key):
    def built(flags):
        cfg = build_config({}, flags)
        return cli._synth_config(cfg) if config_type is SynthConfig else cli._model_config(cfg, 3, 6)

    args = build_parser().parse_args(["train", "--" + key.replace("_", "-"), FIELD_FLAGS[key]])
    value = getattr(built({key: getattr(args, key)}), key)
    assert value == SCHEMA[key](FIELD_FLAGS[key]) != getattr(built({}), key)


def test_unset_settings_keep_the_dataclass_defaults():
    # each architecture and corpus default lives in ModelConfig or SynthConfig
    cfg = build_config({}, {})
    assert cli._model_config(cfg, 3, 6) == ModelConfig(3, 6)
    assert cli._synth_config(cfg) == SynthConfig(seed=42)


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
    for video in synth_corpus(cli._synth_config(cfg)).videos:
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


SMALL_SYNTH = ["synth", "--num-videos", "3", "--frames-per-video", "100"]


def test_synth_rejects_an_out_holding_another_corpus(tmp_path, capsys):
    # train without a manifest reads every feature file it finds
    out = tmp_path / "c"
    assert main([*SMALL_SYNTH, "--out", str(out), "--num-videos", "6", "--seed", "1"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main([*SMALL_SYNTH, "--out", str(out), "--seed", "2"]) == 1
    assert capsys.readouterr().err == (
        f"error: {out} holds feature files of 3 video(s) this corpus does not "
        f"write, e.g. synth_0003, synth_0004, synth_0005; synthesize into a fresh --out\n"
    )
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_synth_reruns_over_its_own_video_names(tmp_path):
    out, fresh = tmp_path / "c", tmp_path / "fresh"
    assert main([*SMALL_SYNTH, "--out", str(out), "--seed", "1"]) == 0
    assert main([*SMALL_SYNTH, "--out", str(out), "--seed", "2"]) == 0
    assert main([*SMALL_SYNTH, "--out", str(fresh), "--seed", "2"]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {
        p.name: p.read_bytes() for p in fresh.iterdir()
    }


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
    assert capsys.readouterr().err == "error: config asks for 9 classes, the data carries 3\n"
    assert not (corpus.parent / "unused").exists()


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
        ("train", "--weak-positions", "weak_positions must be >= 1, got 0"),
        ("train-weak", "--weak-positions", "weak_positions must be >= 1, got 0"),
        # checked before the model is read, whichever its head kind
        ("predict", "--weak-positions", "weak_positions must be >= 1, got 0"),
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


# short training runs on the module corpus
TRAINING_RUNS = {
    "train": ["train", "--iterations", "40", "--log-every", "10"],
    "train-sparse-windows": [
        "train", "--iterations", "40", "--log-every", "10",
        "--train-stride", "3", "--min-action-frames", "0",
    ],
    "train-weak": [
        "train-weak", "--iterations", "20", "--log-every", "5", "--weak-positions", "40",
    ],
}

# sha256 of (model.fsn, train_log.csv) of each run in TRAINING_RUNS, by the
# OpenBLAS core whose kernels ran it (``openblas.core_name``): each core's
# kernels round the float32 products differently. Each row was computed by
# running this test with OPENBLAS_CORETYPE set to its core, which AMD Zen
# maps to the Haswell kernels; a core with no row fails, naming the core.
# Window selection, rebalancing and batch sampling must not move these.
PINNED_TRAINING = {
    "SkylakeX": {
        "train": (
            "139000914257fdf33cc66ccbd6a7995b1e327cf6a09682f053ef389851fea942",
            "60afaeaea179bfc269f90a434574328eb19b58e39476497ce16d9d5c69c1f9d9",
        ),
        "train-sparse-windows": (
            "6202de5e7689372c26e099aa0fc3ed59df16d61761f9a01e1454d8fc77cf3c32",
            "e6a8c581cf255f1d2709f333616dfa9cc235b543eb1e0e9d4965d5c5a58c65d1",
        ),
        "train-weak": (
            "94ffe47e6658fbb0fa3ca83bd8d56a90fb5144a10510c74a7ab00b8925c3b133",
            "220d7b28889a79c0087d3ec829d92d0d029287acc3edd886b469a1cb2ebdf722",
        ),
    },
    "Haswell": {
        "train": (
            "969098486bb2c6a40b747b37f2d7e90dc79e8870ee523b1074c22c3678ff8e47",
            "60afaeaea179bfc269f90a434574328eb19b58e39476497ce16d9d5c69c1f9d9",
        ),
        "train-sparse-windows": (
            "93352de4bc4fefaf5205035130a9ac1081c77d7b7c0b7a5db225012310c8a409",
            "9f8e05a2f4fdb524055d2c3171d67909031392e36c19e596234682164ea52d97",
        ),
        "train-weak": (
            "3b9e8550b2cc0f51eb822bf0f1a9f2cf1a69de0e33d7bbb67de2aec765a8ffc6",
            "220d7b28889a79c0087d3ec829d92d0d029287acc3edd886b469a1cb2ebdf722",
        ),
    },
    "Sandybridge": {
        "train": (
            "ffe4369985783abb45f79434c48f93c2c784e71e1c9903ebd5ecd6b2a807d5e8",
            "60afaeaea179bfc269f90a434574328eb19b58e39476497ce16d9d5c69c1f9d9",
        ),
        "train-sparse-windows": (
            "60d69218ecf4797ac42b0dffc8c52b88ac683df19674549ed1326237bfcca128",
            "e6a8c581cf255f1d2709f333616dfa9cc235b543eb1e0e9d4965d5c5a58c65d1",
        ),
        "train-weak": (
            "812c3bd4260d11f2b5ca36e25a29f7e85cd53a48d4e8bb437c21ea564393f2fd",
            "220d7b28889a79c0087d3ec829d92d0d029287acc3edd886b469a1cb2ebdf722",
        ),
    },
}


@pytest.mark.parametrize("run", list(TRAINING_RUNS))
def test_training_bytes_are_pinned(corpus, tmp_path, run):
    core = core_name()
    if core not in PINNED_TRAINING:
        pytest.fail(f"no training bytes are pinned for OpenBLAS core {core!r}")
    out = tmp_path / "out"
    rc = main([
        *TRAINING_RUNS[run],
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
    assert digests == list(PINNED_TRAINING[core][run])


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


# (frame count, class ids): v1 carries no label and is shorter than the 40
# weak positions, v2 has exactly 40 frames, v4 lists one class twice
WEAK_VIDEOS = [(400, [1, 3]), (20, []), (40, [2]), (237, [3]), (150, [1, 1])]


def weak_corpus(directory: Path) -> Path:
    """Feature files and annotations for ``WEAK_VIDEOS``. Descriptor column 0
    is the frame, column 1 the video index and column 2 float32 noise; each
    class id is one short segment."""
    directory.mkdir()
    rng = np.random.default_rng(0)
    rows = []
    for index, (frames, class_ids) in enumerate(WEAK_VIDEOS):
        video_id = f"v{index}"
        columns = [np.arange(frames), np.full(frames, index), rng.standard_normal(frames)]
        features = np.stack(columns, axis=1).astype(np.float32)
        write_features(VideoFeatures(video_id, features), directory / f"{video_id}.fsnf")
        rows += [(video_id, c, 10 * k, 10 * k + 5, 1.0) for k, c in enumerate(class_ids)]
    annotations = AnnotationSet(["c1", "c2", "c3"], Segments.from_rows(rows))
    write_annotations(annotations, directory / "annotations.tsv")
    return directory


@pytest.mark.parametrize("batch_size", [1, 7])
def test_train_weak_batches_match_the_per_sample_gather(tmp_path, monkeypatch, batch_size):
    corpus = weak_corpus(tmp_path / "corpus")
    batches = []

    def record(features, labels, head, optimizer):
        batches.append((features, labels))
        return 0.0

    monkeypatch.setattr(cli, "fsn_train_step", record)
    assert main([
        "train-weak",
        "--features-dir", str(corpus),
        "--annotations", str(corpus / "annotations.tsv"),
        "--out", str(tmp_path / "out"),
        "--iterations", "30",
        "--batch-size", str(batch_size),
        "--weak-positions", "40",
        "--hidden-channels", "4",
        "--seed", "3",
    ]) == 0
    labeled = [i for i, (_, class_ids) in enumerate(WEAK_VIDEOS) if class_ids]
    expected = list(per_sample_weak_batches(
        [load_features(corpus / f"v{i}.fsnf").features for i in labeled],
        [WEAK_VIDEOS[i][1] for i in labeled], 3, 40, 3, batch_size, 30,
    ))
    assert len(batches) == len(expected) == 30
    exact_length_draws = 0
    for (features, labels), (want_features, want_labels) in zip(batches, expected):
        assert features.dtype == np.float32 and features.shape == want_features.shape
        assert features.tobytes() == want_features.tobytes()
        assert labels.dtype == np.float64 and labels.tobytes() == want_labels.tobytes()
        for sample, label in zip(features, labels):
            frames, class_ids = WEAK_VIDEOS[int(sample[0, 1])]
            bounds = span_bounds(frames, 40)
            picked = sample[:, 0].astype(np.int64)
            assert np.all(bounds[:-1] <= picked) and np.all(picked < bounds[1:])
            assert (np.flatnonzero(label) + 1).tolist() == sorted(set(class_ids))
            if frames == 40:
                assert picked.tolist() == list(range(40))
                exact_length_draws += 1
    assert exact_length_draws > 0


def test_train_weak_checks_every_split_payload(tmp_path, capsys):
    # v1 carries no label, so no batch would read the NaN that write_features
    # refuses to write: only the full load finds it
    corpus = weak_corpus(tmp_path / "corpus")
    victim = corpus / "v1.fsnf"
    raw = bytearray(victim.read_bytes())
    raw[16:20] = struct.pack("<f", float("nan"))
    victim.write_bytes(bytes(raw))
    out = tmp_path / "out"
    rc = main([
        "train-weak",
        "--features-dir", str(corpus),
        "--annotations", str(corpus / "annotations.tsv"),
        "--out", str(out),
        "--iterations", "1",
        "--weak-positions", "40",
    ])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {victim}: v1: features contain non-finite values\n"
    )
    assert not out.exists()


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


def write_nan_into(path: Path) -> None:
    """Patch a NaN into the last descriptor of a feature file (``write_features``
    refuses to write one)."""
    raw = bytearray(path.read_bytes())
    raw[-4:] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(raw))


def split_with_a_bad_last_video(corpus, directory: Path, kind: str) -> Path:
    """A copy of ``corpus``' feature files and manifest whose last test video
    fails once it is read: a NaN patched into its payload, or a 3-frame video,
    shorter than one snippet, added to the end of the split. Returns the bad
    video's file."""
    directory.mkdir()
    for path in corpus.glob("*.fsnf"):
        (directory / path.name).write_bytes(path.read_bytes())
    manifest = (corpus / "manifest.tsv").read_text()
    if kind == "nan":
        victim = directory / f"{max(load_manifest(corpus / 'manifest.tsv')['test_ids'])}.fsnf"
        write_nan_into(victim)
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
    # one scoring worker: ``written`` sees only this process's writes
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
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


# ---------------------------------------------------------------- scoring workers


SEVERAL_CPUS = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
needs_several_cpus = pytest.mark.skipif(
    not SEVERAL_CPUS, reason="one CPU: predict scores in one worker"
)

ONE_CPU_MAIN = (
    "import os, sys, fsn.cli; os.sched_setaffinity(0, {0}); "
    "sys.exit(fsn.cli.main(sys.argv[1:]))"
)


@pytest.fixture
def forks_any_split(monkeypatch):
    """Predict forks its workers even for the 1600-frame test corpus."""
    monkeypatch.setattr(cli, "MIN_FRAMES_PER_WORKER", 1)


def headers_of(*frame_counts):
    return [FeatureHeader(f"v{i}", frames, 6) for i, frames in enumerate(frame_counts)]


@pytest.fixture(scope="module")
def trained_weak(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("trained_weak")
    assert main([
        "train-weak",
        "--features-dir", str(corpus),
        "--annotations", str(corpus / "annotations.tsv"),
        "--manifest", str(corpus / "manifest.tsv"),
        "--out", str(out),
        "--hidden-channels", "8",
        "--iterations", "20",
        "--weak-positions", "40",
        "--seed", "7",
    ]) == 0
    return out


def predict_all_args(command, features, model_dir, out):
    """``command`` over every video of ``features``, in name order."""
    return [
        command,
        "--features-dir", str(features),
        "--manifest", str(features / "manifest.tsv"),
        "--model", str(model_dir / "model.fsn"),
        "--split", "all",
        "--weak-positions", "40",
        "--out", str(out),
    ]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_several_cpus
@pytest.mark.parametrize("command", ["predict", "predict-weak"])
def test_scoring_workers_write_the_bytes_of_one_worker(
    corpus, trained, trained_weak, tmp_path, command, forks_any_split
):
    model_dir = trained_weak if command == "predict-weak" else trained
    many, one = tmp_path / "many", tmp_path / "one"
    assert main(predict_all_args(command, corpus, model_dir, many)) == 0
    assert cli._scoring_workers(headers_of(*[200] * 8)) > 1
    assert_no_child_left()
    run_python(tmp_path, ONE_CPU_MAIN, *predict_all_args(command, corpus, model_dir, one))
    written = tree_bytes(many)
    assert len([name for name in written if name.startswith("tracks/")]) == 8
    assert {"predictions.tsv", "predict_log.txt"} <= set(written)
    assert written == tree_bytes(one)


@pytest.mark.parametrize(
    "bad", [(3, 6), (1, 6), (5, 7)],
    ids=["a-child-first", "the-parent-first", "one-child-part"],
)
def test_predict_reports_the_earliest_failing_video_of_any_worker(
    corpus, trained, tmp_path, monkeypatch, capsys, bad
):
    # three workers score the 8 videos in contiguous parts 0-1, 2-4 and 5-7;
    # the command's own process scores part 0
    monkeypatch.setattr(cli, "_scoring_workers", lambda headers: 3)
    features = tmp_path / "features"
    features.mkdir()
    for path in [*corpus.glob("*.fsnf"), corpus / "manifest.tsv"]:
        (features / path.name).write_bytes(path.read_bytes())
    victims = [sorted(features.glob("*.fsnf"))[i] for i in bad]
    for victim in victims:
        write_nan_into(victim)
    out = tmp_path / "pred"
    assert main(predict_all_args("predict", features, trained, out)) == 1
    first = victims[0]
    assert capsys.readouterr().err == (
        f"error: {first}: {first.stem}: features contain non-finite values\n"
    )
    assert not out.exists()
    assert_no_child_left()


@needs_several_cpus
def test_predict_reports_a_worker_that_dies(
    corpus, trained, tmp_path, monkeypatch, capsys, forks_any_split
):
    parent, score = os.getpid(), cli.localize

    def killed_in_a_child(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return score(*args, **kwargs)

    monkeypatch.setattr(cli, "localize", killed_in_a_child)
    out = tmp_path / "pred"
    assert main(predict_all_args("predict", corpus, trained, out)) == 1
    assert capsys.readouterr().err == (
        f"error: a scoring worker ended without a result (exit code {-signal.SIGKILL})\n"
    )
    assert not out.exists()
    assert_no_child_left()


@needs_several_cpus
def test_interrupted_predict_stops_its_workers(
    corpus, trained, tmp_path, monkeypatch, forks_any_split
):
    parent, score = os.getpid(), cli.localize

    def interrupted_in_the_parent(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return score(*args, **kwargs)

    monkeypatch.setattr(cli, "localize", interrupted_in_the_parent)
    out = tmp_path / "pred"
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(predict_all_args("predict", corpus, trained, out))
    assert time.monotonic() - started < 30
    assert not out.exists()
    assert_no_child_left()


def fails_to_load(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("missing", ["library", "loadable-library", "symbols"])
def test_scoring_stays_in_one_process_without_numpys_openblas(
    tmp_path, monkeypatch, missing
):
    if missing == "library":  # no numpy.libs beside numpy
        numpy = SimpleNamespace(__file__=str(tmp_path / "numpy" / "__init__.py"))
        monkeypatch.setattr(cli, "np", numpy)
    elif missing == "loadable-library":
        monkeypatch.setattr(cli.ctypes, "CDLL", fails_to_load)
    else:
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    cli._openblas_threads.cache_clear()
    try:
        assert cli._openblas_threads() is None
        assert cli._pin_blas() is None
        assert cli._scoring_workers(headers_of(*[60_000] * 8)) == 1
    finally:
        monkeypatch.undo()
        cli._openblas_threads.cache_clear()


@pytest.mark.parametrize(
    "frames, cpus, workers",
    [
        ([600] * 20, 2, 1),  # the shipped corpora's test splits stay in one process
        ([9_999, 10_000], 2, 1),
        ([10_000, 10_000], 2, 2),
        ([6000] * 50, 2, 2),  # a 300k-frame split takes every CPU
        ([6000] * 50, 64, 30),
        ([300_000], 4, 1),  # never more workers than videos
        ([6000] * 50, 1, 1),
    ],
)
def test_scoring_workers_get_a_minimum_of_frames_each(monkeypatch, frames, cpus, workers):
    monkeypatch.setattr(cli, "_openblas_threads", lambda: (None, lambda: 1))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert cli._scoring_workers(headers_of(*frames)) == workers


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


@pytest.mark.parametrize("model", ["dense", "weak"])
def test_predict_and_predict_weak_are_one_command(
    corpus, trained, trained_weak, tmp_path, model
):
    # the head kind is read from the model, and the log names the kind's command
    model_dir = trained_weak if model == "weak" else trained
    written = []
    for command in ("predict", "predict-weak"):
        out = tmp_path / command
        assert main(predict_all_args(command, corpus, model_dir, out)) == 0
        written.append(tree_bytes(out))
    assert written[0] == written[1]
    log = written[0]["predict_log.txt"].decode()
    command = "predict-weak" if model == "weak" else "predict"
    assert log.startswith(f"command = {command}\n")
    assert ("weak_positions = 40" in log) == (model == "weak")


def test_predict_rejects_class_count_mismatch(corpus, trained, tmp_path, capsys):
    rc = main([
        *predict_args(corpus, trained, tmp_path / "pred"),
        "--num-classes", "5",
    ])
    assert rc == 1
    assert capsys.readouterr().err == "error: config asks for 5 classes, the model carries 3\n"


def test_predict_rejects_feature_dim_mismatch(corpus, trained, tmp_path, capsys):
    out = tmp_path / "pred"
    assert main([*predict_args(corpus, trained, out), "--feature-dim", "9"]) == 1
    assert capsys.readouterr().err == (
        "error: config asks for feature_dim 9, the model carries 6\n"
    )
    assert not out.exists()


def test_predict_rejects_a_model_with_an_empty_layer_table(corpus, trained, tmp_path, capsys):
    # a valid 30-byte header followed by a layer count of 0
    model = tmp_path / "empty" / "model.fsn"
    model.parent.mkdir()
    model.write_bytes((trained / "model.fsn").read_bytes()[:30] + struct.pack("<I", 0))
    out = tmp_path / "pred"
    assert main(predict_args(corpus, model.parent, out)) == 1
    assert capsys.readouterr().err == f"error: {model}: empty layer table\n"
    assert not out.exists()


def test_predict_rejects_a_weight_that_overflows_float32(corpus, trained, tmp_path, capsys):
    # 1e39 is a valid float64 weight, but the layers compute in float32
    head = load_model(trained / "model.fsn")
    head.classifier.weights.flat[0] = 1e39
    model = tmp_path / "big" / "model.fsn"
    model.parent.mkdir()
    save_model(head, model)
    out = tmp_path / "pred"
    rc = main(predict_args(corpus, model.parent, out))
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {model}: layer 3 holds non-finite weights or biases as float32\n"
    )
    assert not out.exists()


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

    def recorded(frame_count, segments):
        labels = label_frames(frame_count, segments)
        label_types.append(labels.dtype)
        return labels

    def wide(frame_count, segments):
        return label_frames(frame_count, segments).astype(np.int64)

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
    _, segment_map = segment_level_map(load_predictions(predicted / "predictions.tsv"), test_gt)
    labels = {
        t.video_id: label_frames(
            t.frame_count, test_gt.segments.take(test_gt.segments.video_id == t.video_id)
        )
        for t in tracks
    }
    _, frame_map = frame_level_map(tracks, labels)
    assert report["mAP"]["iou_0.5"] == pytest.approx(segment_map[2], abs=5e-5)
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
    err = capsys.readouterr().err
    assert err == f"error: {bad}: line 2: unknown video 'no_such_video'\n"


@pytest.mark.parametrize("row, message", [
    ("{video}\t0\t{end}\t1\t0.5",
     "line {line}: segment end {end} exceeds {video}'s {frames} frames"),
    ("{video}\t0\t10\t99\t0.5", "line {line}: class id 99 outside 1..3"),
    ("{video}\t0\t99999999999999999999\t1\t0.5",
     "line {line}: integer field outside the int64 range"),
    # a row past its track comes before a row of bad confidence: it is the error
    ("{video}\t0\t{end}\t1\t0.5\n{video}\t0\t10\t1\t1.5",
     "line {line}: segment end {end} exceeds {video}'s {frames} frames"),
], ids=["end-past-the-track", "class-outside-the-table", "bound-beyond-int64", "first-bad-row"])
def test_eval_rejects_predictions_outside_the_tracks(
    corpus, predicted, tmp_path, capsys, row, message
):
    track = load_features(sorted((predicted / "tracks").glob("*.fsnf"))[0])
    bad = tmp_path / "bad.tsv"
    text = (predicted / "predictions.tsv").read_text()
    values = dict(
        video=track.video_id, frames=track.frame_count, end=track.frame_count + 1,
        line=text.count("\n") + 1,
    )
    bad.write_text(text + row.format(**values) + "\n")
    out = tmp_path / "out"
    rc = main([
        "eval",
        "--annotations", str(corpus / "annotations.tsv"),
        "--predictions", str(bad),
        "--tracks", str(predicted / "tracks"),
        "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {bad}: {message.format(**values)}\n"
    assert not (out / "report.csv").exists()


def test_eval_rejects_ground_truth_past_its_track(corpus, predicted, tmp_path, capsys):
    track = load_features(sorted((predicted / "tracks").glob("*.fsnf"))[0])
    annotations = tmp_path / "annotations.tsv"
    annotations.write_text(
        (corpus / "annotations.tsv").read_text() + f"{track.video_id}\t0\t99999\t1\n"
    )
    out = tmp_path / "out"
    rc = main([
        "eval",
        "--annotations", str(annotations),
        "--predictions", str(predicted / "predictions.tsv"),
        "--tracks", str(predicted / "tracks"),
        "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {annotations}: {track.video_id}: segment end 99999 exceeds "
        f"{track.frame_count} frames\n"
    )
    assert not (out / "report.csv").exists()


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


@pytest.mark.parametrize("source", ["predictions", "annotations", "manifest", "config"])
def test_text_input_that_is_not_utf8_names_its_file(
    corpus, trained, predicted, tmp_path, capsys, source
):
    config = tmp_path / "gradcheck.cfg"
    config.write_text("gradcheck_seeds = 1\n")
    files = {
        "predictions": predicted / "predictions.tsv",
        "annotations": corpus / "annotations.tsv",
        "manifest": corpus / "manifest.tsv",
        "config": config,
    }
    # a byte that starts no UTF-8 sequence, in the middle of the file
    text = files[source].read_bytes()
    bad = files[source] = tmp_path / f"bad_{source}"
    bad.write_bytes(text[: len(text) // 2] + b"\xff" + text[len(text) // 2 :])
    evaluate = [
        "eval", "--annotations", str(files["annotations"]),
        "--predictions", str(files["predictions"]), "--tracks", str(predicted / "tracks"),
    ]
    argv = {
        "predictions": evaluate,
        "annotations": evaluate,
        "manifest": [
            "predict", "--features-dir", str(corpus), "--manifest", str(files["manifest"]),
            "--model", str(trained / "model.fsn"),
        ],
        "config": ["gradcheck", "--config", str(files["config"])],
    }[source]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert not out.exists()


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
        # the optimizer settings are checked before the output directory is made
        ("train", ["--learning-rate", "-1"], "learning rate must be >= 0, got -1.0"),
        ("train", ["--momentum", "1"], "momentum must be in [0, 1), got 1.0"),
        ("train", ["--weight-decay", "-1"], "weight decay must be >= 0, got -1.0"),
        ("train-weak", ["--learning-rate", "-1"], "learning rate must be >= 0, got -1.0"),
        ("train-weak", ["--momentum", "1"], "momentum must be in [0, 1), got 1.0"),
        ("train-weak", ["--weight-decay", "-1"], "weight decay must be >= 0, got -1.0"),
        ("ablate", ["--learning-rate", "-1"], "learning rate must be >= 0, got -1.0"),
        # a negative seed is rejected while the settings are parsed
        ("synth", ["--seed", "-1"], "config key 'seed': must be >= 0, got -1\n"),
        ("train", ["--seed", "-1"], "config key 'seed': must be >= 0, got -1\n"),
        ("gradcheck", ["--seed", "-1"], "config key 'seed': must be >= 0, got -1\n"),
    ],
    ids=[
        "train-iterations", "train-stride", "train-weak-batch-size",
        "ablate-mode", "ablate-temporal-iterations", "ablate-pooling-log-every",
        "eval-missing-annotations", "predict-missing-model",
        "predict-weak-missing-model", "synth-one-video",
        "train-learning-rate", "train-momentum", "train-weight-decay",
        "train-weak-learning-rate", "train-weak-momentum", "train-weak-weight-decay",
        "ablate-learning-rate", "synth-seed", "train-seed", "gradcheck-seed",
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


def python_process(cwd, code, *args, env=()) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports fsn from this checkout,
    with ``env`` added to the environment."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env={**os.environ, **dict(env), "PYTHONPATH": str(src)},
        capture_output=True, text=True,
    )


def run_python(cwd, code, *args, env=()) -> str:
    """The stdout of ``python_process``, which must succeed."""
    result = python_process(cwd, code, *args, env=env)
    result.check_returncode()
    return result.stdout


def test_train_weak_bytes_do_not_depend_on_blas_threads(tmp_path):
    # numpy starts OpenBLAS with OPENBLAS_NUM_THREADS threads; main pins one
    data = tmp_path / "data"
    config = str(CONFIGS / "ablation_pooling.cfg")
    assert main(["synth", "--config", config, "--out", str(data)]) == 0
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        run_python(
            tmp_path, FSN_MAIN, "train-weak", "--config", config,
            "--features-dir", str(data), "--annotations", str(data / "annotations.tsv"),
            "--manifest", str(data / "manifest.tsv"), "--iterations", "20",
            "--out", str(out), env={"OPENBLAS_NUM_THREADS": threads},
        )
        digests.append(hashlib.sha256((out / "model.fsn").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


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


def test_nothing_in_the_package_is_test_only():
    # a top-level function or class is reached when its own module loads its
    # name, another module imports it, or any module reads it as an
    # attribute; code that only the tests call belongs under tests/
    trees = {p.stem: ast.parse(p.read_text()) for p in Path(cli.__file__).parent.glob("*.py")}
    reached, attributes = set(), set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reached.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                reached.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    unreached = [
        f"{module}.{node.name}"
        for module, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and (module, node.name) not in reached
        and node.name not in attributes
    ]
    assert unreached == []


# ---------------------------------------------------------------- runtime imports

LIST_MODULES = """
import sys
print("\\n".join(sys.modules))
"""

COMMAND_RUN = """
import sys
import fsn.cli
assert fsn.cli.main(sys.argv[1:]) == 0
print("\\n".join(sys.modules))
"""


def test_eval_imports_only_numpy_beyond_the_standard_library(corpus, predicted, tmp_path):
    # a bare interpreter's modules come from site start-up hooks, not from fsn
    bare = set(run_python(tmp_path, LIST_MODULES).split())
    loaded = set(run_python(
        tmp_path, COMMAND_RUN, "eval",
        "--annotations", str(corpus / "annotations.tsv"),
        "--predictions", str(predicted / "predictions.tsv"),
        "--tracks", str(predicted / "tracks"),
        "--out", str(tmp_path / "eval"),
    ).split())
    assert (tmp_path / "eval" / "report.csv").exists()
    new_roots = {name.split(".")[0] for name in loaded - bare}
    assert new_roots - set(sys.stdlib_module_names) == {"fsn", "numpy"}
    assert "numpy.ma" not in loaded


def test_train_does_not_import_numpy_ma(corpus, tmp_path):
    # numpy.ma costs every train child its import time and resident pages
    loaded = set(run_python(
        tmp_path, COMMAND_RUN, "train",
        "--features-dir", str(corpus),
        "--annotations", str(corpus / "annotations.tsv"),
        "--manifest", str(corpus / "manifest.tsv"),
        "--out", str(tmp_path / "train"),
        "--hidden-channels", "8",
        "--iterations", "20",
    ).split())
    assert (tmp_path / "train" / "model.fsn").exists()
    assert "numpy" in loaded
    assert "numpy.ma" not in loaded
