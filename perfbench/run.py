"""fsn pipeline benchmark: synth, train, predict and eval as separate processes.

Usage:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Every command runs in its own child
process, one at a time, through perfbench/launch.py, which calls
``fsn.cli.main`` on the package in ``src/``. Outputs go to ``.perfbench/``.

``--trace 0`` times the commands with tracing off and prints the end-to-end
metrics. Set-up is ``synth`` repeated SETUP_REPS times; ``setup_s`` is the
median. The measured phase repeats train -> predict -> eval rounds while one
more round still fits in ``--seconds``. Rates are total work over total wall
time across the rounds: the host's speed wanders by +-20% within seconds, and
the mean over every sample is steadier than the median or the minimum.

``--trace 1`` runs the pipeline untraced, then with every public ``fsn``
function wrapped in a span (spans.py), then untraced again, and prints the
per-layer metrics plus the tracing overhead (traced minus untraced wall time).

Every command's exit status and outputs are checked (checks.py); repeated
commands must reproduce their outputs byte for byte. The last stdout line is
one JSON object; the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
SETUP_REPS = 5
RUN_LIMIT_S = 160  # a run must end within 180 s; children past this are killed


@dataclass(frozen=True)
class Workload:
    config: str
    train: str
    predict: str
    steps: int
    batch: int
    synth_flags: tuple[str, ...] = ()
    # With a fixed world seed the corpus and the trained model are the same in
    # every run, and the run seed draws `test_videos` of the videos that follow
    # the first `train_videos` (see Runner.draw_test_split).
    world_seed: int | None = None
    train_videos: int = 0
    test_videos: int = 0


# Why these three (README.md maps each layer metric to the workload it loads).
# Trains are 300 steps so a run holds several rounds: one 12-second train was
# a single sample of a host whose speed wanders by +-20% within seconds.
# strong_small  - the shipped temporal ablation corpus and model: ~85% of a
#                 round is `train`, i.e. many tiny T=7 conv calls. predict and
#                 eval are mostly interpreter start-up, so a localize/evaluate
#                 change should show no change here.
# weak_small    - the shipped pooling ablation corpus through train-weak (GMP,
#                 100 positions, hidden 32): the same nncore/model layers on
#                 T=100 sequences, pooling instead of upsample + CE, and
#                 per-sample make_weak_sample.
# strong_scaled - the temporal generator at 6000 frames per video: 150 train
#                 videos and 50 test videos (300k frames, ~2.5k GT segments)
#                 drawn by the run seed from 100 more. The data layer is about
#                 half of train, predict does 8600 window forwards plus NMS,
#                 and eval is dominated by GT matching: the only workload where
#                 localize and evaluate carry real load. Its world (prototypes,
#                 training videos, hence the model) is the config's seed 42:
#                 a 300-step model's prediction count, which sets the NMS and
#                 matching work, swung 3.5k-13k between corpora and 6.6k-18k
#                 between training splits of one corpus.
WORKLOADS = {
    "strong_small": Workload("configs/ablation_temporal.cfg", "train", "predict", 300, 12),
    "weak_small": Workload(
        "configs/ablation_pooling.cfg", "train-weak", "predict-weak", 300, 12
    ),
    "strong_scaled": Workload(
        "configs/ablation_temporal.cfg", "train", "predict", 300, 12,
        ("--num-videos", "250", "--frames-per-video", "6000"),
        world_seed=42, train_videos=150, test_videos=50,
    ),
}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "predict_frames_per_s": "frames/s",
    "eval_frames_per_s": "frames/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_share": "ratio",
}

_COUNTS = (
    "data.load_features.calls", "data.clips_scanned", "nncore.conv.calls",
    "nncore.as_seq.calls", "model.train_step.calls", "model.forward.calls",
    "localize.windows", "localize.candidates", "localize.kept",
    "localize.temporal_iou.calls", "evaluate.predictions", "evaluate.gt_segments",
    "trace.spans", "trace.hook_errors",
)
_RATIOS = (
    "data.clip_keep_ratio", "localize.nms_keep_ratio", "evaluate.frame_map",
    "evaluate.segment_map", "trace.overhead_share",
)
_SECONDS = (
    "cli.startup_s", "data.load_features.s", "data.make_clips.s", "data.rebalance.s",
    "data.make_weak_sample.s", "data.write_features.s", "data.synth_generate.s",
    *(f"nncore.conv_{d}.{t}.s" for d in ("fwd", "bwd") for t in ("d1", "d2", "d4", "cls")),
    "nncore.upsample.s", "nncore.softmax_ce.s", "nncore.pool.s", "nncore.relu.s",
    "nncore.sgd.s", "model.train_step.s", "model.forward.s",
    "localize.slide_predict.s", "localize.weak_score_track.s", "localize.group.s",
    "localize.nms.s", "localize.write_predictions.s", "localize.load_predictions.s",
    "evaluate.segment_map.s", "evaluate.frame_map.s",
    *(f"{layer}.self_s" for layer in spans.LAYERS), "trace.overhead_s",
)
PER_LAYER = {  # name -> unit
    **{name: "count" for name in _COUNTS},
    **{name: "ratio" for name in _RATIOS},
    **{name: "s" for name in _SECONDS},
    "data.feature_mb_read": "MB",
    "nncore.conv.gflop": "GFLOP",
    "nncore.conv.gflop_per_s": "GFLOP/s",
    "model.step_ms.p50": "ms",
    "model.step_ms.p99": "ms",
}


@dataclass
class Child:
    wall_s: float
    code: int
    maxrss_mb: float
    spawned: float


@dataclass
class Runner:
    """Runs the commands of one workload in one work directory and keeps the
    failure accounting: each command is one operation, and it fails when it
    exits nonzero or when a check on its outputs fails."""

    workload: Workload
    seed: int
    work: Path
    attempted: int = 0
    failures: list[tuple[int, str]] = field(default_factory=list)  # (operation, why)
    peak_rss_mb: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    started: float = field(default_factory=time.perf_counter)

    def argv(self, command: str) -> list[str]:
        w = self.workload
        config = str(ROOT / w.config)
        data = ["--features-dir", "data", "--manifest", "data/manifest.tsv"]
        if command == "synth":
            seed = self.seed if w.world_seed is None else w.world_seed
            return ["synth", "--config", config, "--out", "data",
                    "--seed", str(seed), *w.synth_flags]
        if command == "train":
            return [w.train, "--config", config, *data,
                    "--annotations", "data/annotations.tsv", "--out", "run",
                    "--iterations", str(w.steps), "--batch-size", str(w.batch)]
        if command == "predict":
            return [w.predict, "--config", config, *data,
                    "--model", "run/model.fsn", "--out", "run"]
        return ["eval", "--annotations", "data/annotations.tsv", "--out", "run"]

    def spawn(self, command: str, trace_path: Path | None = None) -> Child:
        env = dict(os.environ)
        env.pop("FSN_THREADS", None)  # measure the default path
        cmd = [sys.executable, str(LAUNCH), str(trace_path or "-"), *self.argv(command)]
        with open(self.work / "commands.log", "a") as log:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            spawned = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=env, stdout=log,
                                    stderr=subprocess.STDOUT)
            left = self.started + RUN_LIMIT_S - spawned
            timer = threading.Timer(max(left, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - spawned
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        child = Child(wall, proc.returncode, usage.ru_maxrss / 1024.0, spawned)
        self.peak_rss_mb = max(self.peak_rss_mb, child.maxrss_mb)
        if child.code != 0:
            limit = " (run time limit)" if left <= wall else ""
            self.fail(command, f"exit code {child.code}{limit}")
        return child

    def fail(self, command: str, why: str) -> None:
        """Charge a failure to the operation that ran last."""
        self.failures.append((self.attempted, f"{command}: {why}"))

    @property
    def failed(self) -> int:
        return len({op for op, _ in self.failures})

    def draw_test_split(self) -> None:
        """Rewrite the manifest: the first train_videos stay the training
        split, and the run seed draws test_videos of the rest as the test
        split; the other videos leave the manifest."""
        w = self.workload
        path = self.work / "data" / "manifest.tsv"
        lines = path.read_text().splitlines()
        videos = [line.split("\t") for line in lines if line.startswith("video\t")]
        pool = [v[1] for v in videos[w.train_videos:]]
        test = set(random.Random(self.seed).sample(pool, w.test_videos))
        kept = [line for line in lines if not line.startswith("video\t")]
        for i, (_, video_id, _, frames) in enumerate(videos):
            if i < w.train_videos or video_id in test:
                split = "train" if i < w.train_videos else "test"
                kept.append(f"video\t{video_id}\t{split}\t{frames}")
        path.write_text("\n".join(kept) + "\n")

    def same_bytes(self, command: str, *paths: str) -> None:
        """Outputs of a repeated command must equal the first run's bytes."""
        for rel in paths:
            path = self.work / rel
            if path.is_dir():
                parts = sorted(path.glob("*"))
                digest = hashlib.sha256(b"".join(p.read_bytes() for p in parts)).hexdigest()
            elif path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
            else:
                digest = "missing"
            first = self.digests.setdefault(rel, digest)
            if digest == "missing":
                self.fail(command, f"{rel} is missing")
            elif digest != first:
                self.fail(command, f"{rel} differs from its first run")

    def checked(self, command: str, check) -> object:
        try:
            return check()
        except (checks.CheckFailed, OSError, ValueError, IndexError) as err:
            self.fail(command, str(err))
            return None


ROUND = ("train", "predict", "eval")
OUTPUTS = {
    "synth": ("data/manifest.tsv", "data/annotations.tsv"),
    "train": ("run/model.fsn",),
    "predict": ("run/predictions.tsv", "run/tracks"),
    "eval": ("run/report.csv",),
}


def load_oracles():
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    return oracles


class Pipeline:
    """One command sequence with its checks; samples keep every child run."""

    def __init__(self, runner: Runner) -> None:
        self.r = runner
        self.samples: dict[str, list[Child]] = {c: [] for c in OUTPUTS}
        self.corpus: checks.Corpus | None = None
        self.predictions: list[tuple] | None = None
        self.maps: tuple[float, float] | None = None
        self.oracles = load_oracles()

    def run(self, command: str, trace_path: Path | None = None) -> Child:
        child = self.r.spawn(command, trace_path)
        self.samples[command].append(child)
        first = not self.r.digests.get(OUTPUTS[command][0])
        if child.code == 0:
            self.r.same_bytes(command, *OUTPUTS[command])
            if command == "synth" and self.r.workload.world_seed is not None:
                self.r.draw_test_split()
            if first:
                self.full_check(command)
        return child

    def full_check(self, command: str) -> None:
        r = self.r
        if command == "synth":
            self.corpus = r.checked(command, lambda: checks.read_corpus(r.work / "data"))
        elif command == "predict" and self.corpus:
            self.predictions = r.checked(
                command, lambda: checks.check_predict(r.work / "run", self.corpus)
            )
        elif command == "eval" and self.corpus:
            def check():
                header, row = checks.read_report(r.work / "run", self.corpus)
                if self.predictions is not None:
                    checks.check_segment_map(header, row, self.predictions,
                                             self.corpus, self.oracles)
                return checks.report_maps(header, row)

            self.maps = r.checked(command, check)

    def walls(self, command: str) -> list[float]:
        return [child.wall_s for child in self.samples[command]]


def environment() -> dict:
    import numpy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FSN_THREADS")},
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics and their sample counts."""
    p = Pipeline(runner)
    for _ in range(SETUP_REPS):
        p.run("synth")
    deadline = time.perf_counter() + seconds
    while True:
        for command in ROUND:
            p.run(command)
        last_round = sum(p.samples[c][-1].wall_s for c in ROUND)
        if runner.failures or time.perf_counter() + last_round > deadline:
            break
    walls = {c: p.walls(c) for c in p.samples}
    (runner.work / "samples.json").write_text(json.dumps(walls))
    w = runner.workload
    frames = p.corpus.frames if p.corpus else 0
    mean = {c: statistics.fmean(walls[c]) for c in ROUND}
    values = {
        "setup_s": statistics.median(walls["synth"]),
        "train_samples_per_s": w.steps * w.batch / mean["train"],
        "predict_frames_per_s": frames / mean["predict"],
        "eval_frames_per_s": frames / mean["eval"],
        "pipeline_s": sum(mean.values()),
        "peak_rss_mb": runner.peak_rss_mb,
        "ops_ok_share": 1.0 - runner.failed / runner.attempted,
    }
    n = {c: len(walls[c]) for c in walls}
    counts = {
        "setup_s": n["synth"], "train_samples_per_s": n["train"],
        "predict_frames_per_s": n["predict"], "eval_frames_per_s": n["eval"],
        "pipeline_s": min(n["train"], n["predict"], n["eval"]),
        "peak_rss_mb": runner.attempted, "ops_ok_share": runner.attempted,
    }
    return values, counts


def measure_traced(runner: Runner) -> dict:
    """Untraced, traced, untraced passes over the pipeline: per-layer metrics.

    The overhead is the traced pass minus the mean of the untraced passes
    around it, which cancels a host speed drift that is linear in time.
    """
    p = Pipeline(runner)
    commands = ("synth", "train", "predict", "eval")
    before = sum(p.run(c).wall_s for c in commands)
    traced = 0.0
    traces = []
    for command in commands:
        path = runner.work / f"trace_{command}.npz"
        child = p.run(command, path)
        traced += child.wall_s
        if child.code != 0:
            continue
        trace = spans.load_trace(path)
        trace["startup_s"] = trace["main_entered"] - trace["install_s"] - child.spawned
        traces.append(trace)
    untraced = (before + sum(p.run(c).wall_s for c in commands)) / 2
    metrics = spans.summarize(traces)
    # quality is a fixed function of the seed, but it varies too much across
    # seeds (weak_small) to carry an end-to-end bound; compare it per seed
    metrics["evaluate.frame_map"], metrics["evaluate.segment_map"] = p.maps or (0.0, 0.0)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(WORKLOADS[name], seed, work)
    if trace:
        values = measure_traced(runner)
        counts = {key: 1 for key in PER_LAYER}
        units = PER_LAYER
    else:
        values, counts = measure(runner, seconds)
        units = END_TO_END
    for _, failure in runner.failures:
        print(f"FAILED [{name}] {failure}", file=sys.stderr)
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
        "counts": counts,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/fsn/cli.py", "tests/oracles.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not an fsn checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    env = environment()
    print("# environment " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        print(f"# {name} seed={args.seed} trace={args.trace} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"#   {key:<30} {metric['value']:>14.6g} {metric['unit']:<10} "
                  f"n={result['counts'][key]}")
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{key}": metric for name, r in results.items()
                   for key, metric in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
