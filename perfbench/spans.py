"""Span tracer installed around the public functions of the ``fsn`` modules.

The child side (``Tracer``) wraps every public function of the six package
modules and patches each name everywhere the package looks it up, because the
modules import functions by name (``fsn.model.dilated_conv1d_forward`` and
``fsn.nncore.dilated_conv1d_forward`` are separate lookups). Each call becomes
a span (name, start, end, parent) held in flat arrays and written once, at
exit. A few hot scalar helpers are counted but not timed, and a few functions
carry counters derived from their arguments (layer shapes, file sizes, list
lengths), so those counts repeat exactly for a fixed input.

The parent side (``summarize``) turns the span files of one pipeline into
per-layer numbers: each layer's self time is its spans' duration minus the
time covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import statistics
import time
from array import array

LAYERS = ("cli", "data", "nncore", "model", "localize", "evaluate")

# called hundreds of thousands of times with microsecond bodies: a span each
# would cost more than the call, so they are only counted
COUNT_ONLY = {"nncore.as_seq", "localize.temporal_iou"}


def _conv_layer(obj):
    """The conv layer in a forward call's arguments or a backward cache."""
    if hasattr(obj, "weights") and hasattr(obj, "dilation"):
        return obj
    if isinstance(obj, tuple):
        for item in obj:
            if hasattr(item, "weights") and hasattr(item, "dilation"):
                return item
    return None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack = [-1]
        self.counts: dict[str, float] = {}
        self.classifiers: set[int] = set()

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # ------------------------------------------------------------- wrapping

    def _conv_tag(self, layer) -> str:
        if layer is None:
            return "other"
        if id(layer) in self.classifiers:
            return "cls"
        return f"d{layer.dilation}"

    def _conv_flops(self, layer, out_array, factor: int) -> float:
        if layer is None or not hasattr(out_array, "size"):
            return 0.0
        out_ch, in_ch, kernel = layer.weights.shape
        rows = out_array.size // out_ch
        return float(factor * rows * in_ch * out_ch * kernel)

    def _hooks(self):
        """Per-function (span-name refiner, counter) pairs, keyed by qualname."""

        def bound(fn, args, kwargs):
            ba = inspect.signature(fn).bind(*args, **kwargs)
            ba.apply_defaults()
            return ba.arguments

        def conv_fwd_name(fn, args, kwargs):
            layer = _conv_layer(args[1] if len(args) > 1 else kwargs.get("layer"))
            return f"nncore.conv_fwd.{self._conv_tag(layer)}"

        def conv_bwd_name(fn, args, kwargs):
            layer = _conv_layer(args[1] if len(args) > 1 else kwargs.get("cache"))
            return f"nncore.conv_bwd.{self._conv_tag(layer)}"

        def conv_fwd_count(fn, args, kwargs, result):
            layer = _conv_layer(args[1] if len(args) > 1 else kwargs.get("layer"))
            self.add("nncore.conv.flop", self._conv_flops(layer, result[0], 2))

        def conv_bwd_count(fn, args, kwargs, result):
            layer = _conv_layer(args[1] if len(args) > 1 else kwargs.get("cache"))
            grad_out = args[0] if args else kwargs.get("grad_out")
            self.add("nncore.conv.flop", self._conv_flops(layer, grad_out, 4))

        def load_features_count(fn, args, kwargs, result):
            path = bound(fn, args, kwargs)["path"]
            self.add("data.feature_bytes_read", os.path.getsize(path))

        def make_clips_count(fn, args, kwargs, result):
            a = bound(fn, args, kwargs)
            frames = a["video"].frame_count
            clip_len = a["clip_len"]
            stride = a["stride"] or clip_len
            if frames >= clip_len:
                self.add("data.clips_scanned", len(range(0, frames - clip_len + 1, stride)))
            self.add("data.clips_kept", len(result))

        def slide_predict_count(fn, args, kwargs, result):
            a = bound(fn, args, kwargs)
            frames = a["video"].frame_count
            self.add("localize.windows", math.ceil(frames / a["head"].config.clip_len))

        def nms_count(fn, args, kwargs, result):
            self.add("localize.candidates", len(bound(fn, args, kwargs)["segments"]))
            self.add("localize.kept", len(result))

        def segment_map_count(fn, args, kwargs, result):
            a = bound(fn, args, kwargs)
            self.add("evaluate.predictions", len(a["predictions"]))
            self.add("evaluate.gt_segments", len(a["gt"].segments))

        def remember_classifier(fn, args, kwargs, result):
            classifier = getattr(result, "classifier", None)
            if classifier is not None:
                self.classifiers.add(id(classifier))

        return {
            "nncore.dilated_conv1d_forward": (conv_fwd_name, conv_fwd_count),
            "nncore.dilated_conv1d_backward": (conv_bwd_name, conv_bwd_count),
            "data.load_features": (None, load_features_count),
            "data.make_clips": (None, make_clips_count),
            "localize.slide_predict": (None, slide_predict_count),
            "localize.nms": (None, nms_count),
            "evaluate.segment_level_map": (None, segment_map_count),
            "model.init_fsn": (None, remember_classifier),
            "model.init_wfsn": (None, remember_classifier),
            "model.init_ablation": (None, remember_classifier),
            "model.load_model": (None, remember_classifier),
        }

    def _span_wrapper(self, fn, name: str, refine, count):
        fixed_id = self._name_id(name)
        clock = time.perf_counter
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent,
        )
        stack = self.stack

        def guarded(hook, *hook_args):
            # a hook that no longer fits the function's signature must not
            # change what the traced program does; it is counted instead
            try:
                return hook(fn, *hook_args)
            except (TypeError, KeyError, AttributeError, IndexError, OSError):
                self.add("trace.hook_errors", 1)
                return None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if refine is None:
                nid = fixed_id
            else:
                refined = guarded(refine, args, kwargs)
                nid = fixed_id if refined is None else self._name_id(refined)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                guarded(count, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        key = f"{name}.calls"
        counts = self.counts
        counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        modules = [getattr(package, layer) for layer in LAYERS]
        hooks = self._hooks()
        replacement: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    replacement[id(obj)] = self._count_wrapper(obj, name)
                else:
                    refine, count = hooks.get(name, (None, None))
                    replacement[id(obj)] = self._span_wrapper(obj, name, refine, count)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacement:
                    setattr(module, attr, replacement[id(obj)])
                elif isinstance(obj, dict):  # dispatch tables such as cli.COMMANDS
                    for key, value in list(obj.items()):
                        if id(value) in replacement:
                            obj[key] = replacement[id(value)]

    def write(self, path, meta: dict) -> None:
        import numpy as np

        np.savez(
            path,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            meta=np.array(json.dumps({"names": self.names, "counts": self.counts, **meta})),
        )


# ---------------------------------------------------------------- parent side


def load_trace(path) -> dict:
    import numpy as np

    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        spans = {key: data[key].copy() for key in ("name", "start", "end", "parent")}
    return {**spans, **meta}


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile of a sorted list (0 for an empty one)."""
    if not values:
        return 0.0
    rank = max(1, math.ceil(q * len(values)))
    return float(values[rank - 1])


def summarize(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the traced commands of one pipeline."""
    import numpy as np

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    counts: dict[str, float] = {}
    step_ms: list[float] = []
    for trace in traces:
        names = trace["names"]
        dur = trace["end"] - trace["start"]
        child = np.zeros(len(dur))
        has_parent = trace["parent"] >= 0
        np.add.at(child, trace["parent"][has_parent], dur[has_parent])
        own = dur - child
        for nid, name in enumerate(names):
            mask = trace["name"] == nid
            if not mask.any():
                continue
            total[name] = total.get(name, 0.0) + float(dur[mask].sum())
            calls[name] = calls.get(name, 0) + int(mask.sum())
            self_by_layer[name.split(".", 1)[0]] += float(own[mask].sum())
            if name in ("model.fsn_train_step", "model.wfsn_train_step"):
                step_ms.extend((dur[mask] * 1e3).tolist())
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def t(*names: str) -> float:
        return sum(total.get(n, 0.0) for n in names)

    def n(*names: str) -> int:
        return sum(calls.get(n, 0) for n in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    tags = ("d1", "d2", "d4", "cls")
    conv_names = [f"nncore.conv_{d}.{tag}" for d in ("fwd", "bwd") for tag in tags + ("other",)]
    conv_s = t(*conv_names)
    gflop = counts.get("nncore.conv.flop", 0.0) / 1e9
    step_ms.sort()
    m = {
        "cli.startup_s": statistics.median(tr["startup_s"] for tr in traces) if traces else 0.0,
        "data.load_features.calls": n("data.load_features"),
        "data.load_features.s": t("data.load_features"),
        "data.feature_mb_read": counts.get("data.feature_bytes_read", 0) / 1e6,
        "data.make_clips.s": t("data.make_clips"),
        "data.clips_scanned": counts.get("data.clips_scanned", 0),
        "data.clip_keep_ratio": ratio(
            counts.get("data.clips_kept", 0), counts.get("data.clips_scanned", 0)
        ),
        "data.rebalance.s": t("data.rebalance"),
        "data.make_weak_sample.s": t("data.make_weak_sample"),
        "data.write_features.s": t("data.write_features"),
        "data.synth_generate.s": t("data.synth_generate"),
    }
    for d in ("fwd", "bwd"):
        for tag in tags:
            m[f"nncore.conv_{d}.{tag}.s"] = t(f"nncore.conv_{d}.{tag}")
    m.update({
        "nncore.conv.calls": n(*conv_names),
        "nncore.conv.gflop": gflop,
        "nncore.conv.gflop_per_s": ratio(gflop, conv_s),
        "nncore.upsample.s": t("nncore.bilinear_upsample_1d", "nncore.bilinear_upsample_1d_backward"),
        "nncore.softmax_ce.s": t("nncore.framewise_cross_entropy"),
        "nncore.pool.s": t("nncore.temporal_pool", "nncore.temporal_pool_backward"),
        "nncore.relu.s": t("nncore.relu", "nncore.relu_backward"),
        "nncore.sgd.s": t("nncore.sgd_update"),
        "nncore.as_seq.calls": counts.get("nncore.as_seq.calls", 0),
        "model.train_step.calls": n("model.fsn_train_step", "model.wfsn_train_step"),
        "model.train_step.s": t("model.fsn_train_step", "model.wfsn_train_step"),
        "model.step_ms.p50": _quantile(step_ms, 0.50),
        "model.step_ms.p99": _quantile(step_ms, 0.99),
        "model.forward.calls": n("model.fsn_forward", "model.wfsn_forward_predict"),
        "model.forward.s": t("model.fsn_forward", "model.wfsn_forward_predict"),
        "localize.slide_predict.s": t("localize.slide_predict"),
        "localize.weak_score_track.s": t("localize.weak_score_track"),
        "localize.windows": counts.get("localize.windows", 0),
        "localize.group.s": t("localize.multi_threshold_group"),
        "localize.candidates": counts.get("localize.candidates", 0),
        "localize.nms.s": t("localize.nms"),
        "localize.kept": counts.get("localize.kept", 0),
        "localize.nms_keep_ratio": ratio(
            counts.get("localize.kept", 0), counts.get("localize.candidates", 0)
        ),
        "localize.temporal_iou.calls": counts.get("localize.temporal_iou.calls", 0),
        "localize.write_predictions.s": t("localize.write_predictions"),
        "localize.load_predictions.s": t("localize.load_predictions"),
        "evaluate.segment_map.s": t("evaluate.segment_level_map"),
        "evaluate.frame_map.s": t("evaluate.frame_level_map"),
        "evaluate.predictions": counts.get("evaluate.predictions", 0),
        "evaluate.gt_segments": counts.get("evaluate.gt_segments", 0),
        "trace.spans": sum(len(trace["name"]) for trace in traces),
        # a counter hook that no longer fits its function's signature
        "trace.hook_errors": counts.get("trace.hook_errors", 0),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    return m
