"""Spans around every call the benchmark makes into a melstream module.

The traced run replaces module attributes (the names melstream's own
modules look up at call time) with wrappers that record a span: name,
start, end, parent span, the pass it belongs to and a per-track id.
Spans stay in memory and are written out when the run ends. A layer's
self time is its span's duration minus the time its child spans cover.

For per-op self times the ``inference.forward`` wrapper replays the
graph node by node on the same input, timing ``op_def(op).apply`` alone;
the replay runs in a ``trace.replay`` span whose time is subtracted from
every enclosing span, so it never counts toward a layer.
"""

from __future__ import annotations

import importlib
import os
import statistics
from time import perf_counter

import numpy as np

from melstream.inference.ops import OPS, op_def, weight_param_names

from .inputs import CORRUPT_REASONS as SKIP_REASONS

REPLAY = "trace.replay"
SETUP_PASS = -2
VERIFY_PASS = -1

# (module, attribute, span name): the lookups melstream's modules make
# when one layer calls into another.
INTERNAL = (
    ("melstream.audio_io", "resample", "audio_io.resample"),
    ("melstream.inference.prediction", "resample", "audio_io.resample"),
    ("melstream.inference.prediction", "mel_spectrogram", "dsp.mel_spectrogram"),
    ("melstream.inference.prediction", "forward", "inference.forward"),
    # StreamPipeline binds graph.forward when it is constructed.
    ("melstream.inference.graph", "forward", "inference.forward"),
    ("melstream.streaming", "_mel_frame", "dsp.mel_frame"),
    ("melstream.transfer", "load_pcm", "audio_io.load_pcm"),
    ("melstream.transfer", "embed_patches", "inference.embed_patches"),
    ("melstream.transfer", "extract_embeddings", "transfer.extract_embeddings"),
    ("melstream.transfer", "train_head", "transfer.train_head"),
    ("melstream.transfer", "classify_tracks", "transfer.classify_tracks"),
    ("melstream.evaluation", "stratified_kfold", "evaluation.kfold"),
    ("melstream.evaluation", "make_report", "evaluation.make_report"),
    ("melstream.evaluation", "balanced_accuracy", "evaluation.balanced_accuracy"),
)


def _note(name: str, args, out) -> dict | None:
    """Counts taken at a span boundary from the call's arguments and result."""
    if name == "audio_io.load_pcm":
        note = {"bytes": os.path.getsize(args[0])}
        if out is not None:
            note.update(out=len(out), clipped=out.clipped)
        return note
    if out is None:
        return None
    if name == "audio_io.resample":
        return {"in": len(args[0]), "out": len(out)}
    if name == "dsp.mel_spectrogram":
        return {"frames": out.n_frames}
    if name == "dsp.mel_frame":
        return {"frames": 1}
    if name == "transfer.train_head":
        return {"epochs": len(out.training_log)}
    if name == "transfer.extract_embeddings":
        return {"skipped": [r.split(":", 1)[0] for r in out.skipped.values()]}
    if name in ("evaluation.crossval_run", "evaluation.cross_collection_eval"):
        return {"evaluated": out.n_evaluated, "discarded": out.n_discarded}
    if name == "streaming.push":
        return {"frames": len(out.frames), "patches": len(out.patch_outputs)}
    return None


class Tracer:
    """In-memory span recorder; ``pass_no`` and ``track`` are set by the harness."""

    def __init__(self):
        # [name, start, end, parent index, pass, track, note]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._plans: dict = {}
        self.pass_no = SETUP_PASS
        self.track = ""
        self.op_seconds = {op: 0.0 for op in OPS}
        self.conv_flop = 0
        self.replay_mismatches = 0

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if name == "audio_io.load_pcm":
                self.track = os.path.basename(str(args[0]))
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.pass_no, self.track, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            out = None
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
                span[6] = _note(name, args, out)
            if name == "inference.forward" and self.pass_no >= 0:
                until = args[2] if len(args) > 2 else kwargs.get("until")
                self._replay(args[0], args[1], until, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch melstream's internal lookups; undone by :meth:`uninstall`."""
        for module_name, attr, span in INTERNAL:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- op replay -------------------------------------------------------------

    def _plan(self, graph, until):
        key = (id(graph), until)
        if key not in self._plans:
            target = until if until is not None else graph.output_name
            by_name = {n.name: n for n in graph.nodes}
            needed, stack = set(), [target]
            while stack:
                name = stack.pop()
                if name in needed or name not in by_name:
                    continue
                needed.add(name)
                stack.extend(by_name[name].inputs)
            steps = []
            for node in graph.nodes:
                if node.name not in needed:
                    continue
                wts = {p: graph.weights[node.params[p]] if node.params.get(p) is not None else None
                       for p in weight_param_names(node.op)}
                flop = 0
                if node.op == "conv2d":
                    kh, kw, ci, co = wts["weight"].shape
                    oh, ow, _ = graph.node_shapes[node.name]
                    flop = 2 * oh * ow * co * kh * kw * ci
                steps.append((node, op_def(node.op).apply, wts, flop))
            self._plans[key] = (target, steps)
        return self._plans[key]

    def _replay(self, graph, x, until, expected) -> None:
        span = [REPLAY, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.pass_no, self.track, None]
        self.spans.append(span)
        span[1] = perf_counter()
        target, steps = self._plan(graph, until)
        memo = {graph.input_name: np.ascontiguousarray(x, dtype=np.float32)}
        for node, apply, wts, flop in steps:
            inputs = [memo[r] if r in memo else graph.weights[r] for r in node.inputs]
            start = perf_counter()
            out = apply(inputs, wts, node.params)
            self.op_seconds[node.op] += perf_counter() - start
            self.conv_flop += flop
            memo[node.name] = np.ascontiguousarray(out, dtype=np.float32)
        if not np.array_equal(memo[target], expected):
            self.replay_mismatches += 1
        span[2] = perf_counter()

    # -- analysis --------------------------------------------------------------

    def effective(self) -> list[float]:
        """Each span's duration minus the replay time nested inside it."""
        dur = [s[2] - s[1] for s in self.spans]
        excluded = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[0] != REPLAY:
                continue
            parent = s[3]
            while parent >= 0:
                excluded[parent] += dur[i]
                parent = self.spans[parent][3]
        return [d - e if s[0] != REPLAY else 0.0
                for s, d, e in zip(self.spans, dur, excluded)]

    def self_times(self, eff: list[float]) -> list[float]:
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += eff[i]
        return [e - c for e, c in zip(eff, child)]

    def write(self, path: str) -> None:
        """One CSV line per span: index, name, start, end, parent, pass, track."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,pass,track\n")
            for i, (name, start, end, parent, pass_no, track, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{pass_no},{track}\n")


def layer_metrics(tracer: Tracer, out) -> dict:
    """Per-layer metrics from the spans of a workload's ``Outcome``: times
    as means per pass, counts as the (pass-invariant) value of one pass.
    ``out.extra`` holds what the workload measured itself (padded tracks,
    RSS growth, stream and offline time)."""
    eff = tracer.effective()
    own = tracer.self_times(eff)
    spans = tracer.spans
    passes, extra = out.passes, out.extra

    def timed(idx):
        return [i for i in idx if spans[i][4] >= 0]

    def first_pass(idx):
        return [i for i in idx if spans[i][4] == 0]

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def total(name, use=eff, keep=timed):
        return sum(use[i] for i in keep(by_name.get(name, [])))

    def noted(name, key, keep=timed):
        return sum(spans[i][6].get(key, 0) for i in keep(by_name.get(name, [])) if spans[i][6])

    def count(name, key):
        return noted(name, key, first_pass)

    def per(value):
        return value / passes

    m = {}
    load = timed(by_name.get("audio_io.load_pcm", []))
    decoded = 0
    resample_in = {spans[i][3]: spans[i][6]["in"] for i in by_name.get("audio_io.resample", [])
                   if spans[i][6]}
    for i in load:
        if spans[i][6] and "out" in spans[i][6]:
            decoded += resample_in.get(i, spans[i][6]["out"])
    decode_s = sum(own[i] for i in load)
    m["audio_io.decode_s"] = per(decode_s)
    m["audio_io.decode_ns_per_sample"] = decode_s / decoded * 1e9 if decoded else 0.0
    m["audio_io.bytes_read"] = count("audio_io.load_pcm", "bytes")
    m["audio_io.clipped_samples"] = count("audio_io.load_pcm", "clipped")
    resample_s = total("audio_io.resample")
    resample_out = noted("audio_io.resample", "out")
    m["audio_io.resample_s"] = per(resample_s)
    m["audio_io.resample_ns_per_out"] = resample_s / resample_out * 1e9 if resample_out else 0.0
    m["audio_io.samples_out"] = count("audio_io.resample", "out")

    mel_s = total("dsp.mel_spectrogram") + total("dsp.mel_frame")
    frames_all = noted("dsp.mel_spectrogram", "frames") + noted("dsp.mel_frame", "frames")
    m["dsp.mel_s"] = per(mel_s)
    m["dsp.frames"] = count("dsp.mel_spectrogram", "frames") + count("dsp.mel_frame", "frames")
    m["dsp.us_per_frame"] = mel_s / frames_all * 1e6 if frames_all else 0.0

    loads = [eff[i] for i in by_name.get("inference.load_model", [])]
    m["inference.load_s"] = statistics.median(loads) if loads else 0.0
    fwd = timed(by_name.get("inference.forward", []))
    forward_s = sum(eff[i] for i in fwd)
    m["inference.forward_s"] = per(forward_s)
    m["inference.patches"] = len(first_pass(fwd))
    m["inference.ms_per_patch"] = forward_s / len(fwd) * 1e3 if fwd else 0.0
    m["inference.padded_tracks"] = extra.get("padded_tracks", 0)
    # Ops are replayed for the forward calls of timed passes only.
    for op in sorted(OPS):
        m[f"inference.op_self_s.{op}"] = per(tracer.op_seconds[op])
    m["inference.conv2d_gflop"] = per(tracer.conv_flop) / 1e9
    conv_s = tracer.op_seconds["conv2d"]
    m["inference.conv2d_gflops_per_s"] = tracer.conv_flop / conv_s / 1e9 if conv_s else 0.0
    op_total = sum(tracer.op_seconds.values())
    m["inference.overhead_share"] = 1.0 - op_total / forward_s if forward_s else 0.0

    push = timed(by_name.get("streaming.push", []))
    m["streaming.pushes"] = len(first_pass(push))
    push_s = sum(eff[i] for i in push)
    m["streaming.push_s"] = per(push_s)
    frame_push = [eff[i] for i in push if spans[i][6] and spans[i][6]["frames"]
                  and not spans[i][6]["patches"]]
    patch_push = [eff[i] for i in push if spans[i][6] and spans[i][6]["patches"]]
    m["streaming.frame_push_us_p50"] = statistics.median(frame_push) * 1e6 if frame_push else 0.0
    m["streaming.patch_push_ms_p50"] = statistics.median(patch_push) * 1e3 if patch_push else 0.0
    offline = extra.get("offline_s", 0.0)
    m["streaming.overhead_vs_offline"] = extra["stream_s"] / offline if offline else 0.0
    m["streaming.rss_growth_mb"] = extra.get("rss_growth_mb", 0.0)

    m["transfer.extract_s"] = per(total("transfer.extract_embeddings"))
    train_s = total("transfer.train_head")
    epochs_all = noted("transfer.train_head", "epochs")
    m["transfer.train_head_s"] = per(train_s)
    m["transfer.epochs"] = count("transfer.train_head", "epochs")
    m["transfer.ms_per_epoch"] = train_s / epochs_all * 1e3 if epochs_all else 0.0
    m["transfer.classify_s"] = per(total("transfer.classify_tracks"))
    skipped = [r for i in first_pass(by_name.get("transfer.extract_embeddings", []))
               if spans[i][6] for r in spans[i][6]["skipped"]]
    for reason in SKIP_REASONS:
        m[f"transfer.skipped.{reason}"] = skipped.count(reason)

    m["evaluation.kfold_s"] = per(total("evaluation.kfold"))
    m["evaluation.report_s"] = per(total("evaluation.make_report"))
    m["evaluation.self_s"] = per(sum(own[i] for i in timed(range(len(spans)))
                                     if spans[i][0].startswith("evaluation.")))
    m["evaluation.evaluated"] = count("evaluation.crossval_run", "evaluated") \
        + count("evaluation.cross_collection_eval", "evaluated")
    m["evaluation.discarded"] = count("evaluation.crossval_run", "discarded") \
        + count("evaluation.cross_collection_eval", "discarded")
    m["trace.replay_mismatches"] = tracer.replay_mismatches
    # Traced throughput without replay time; against the untraced
    # throughput_xrt this gives the tracing overhead.
    replay = sum(s[2] - s[1] for s in spans if s[0] == REPLAY and s[4] >= 0)
    m["trace.throughput_xrt"] = out.audio_seconds / (out.busy_seconds - replay)
    return m


# Unit of each per-layer metric, in the order the traced run reports them.
UNITS = {
    "audio_io.decode_s": "s", "audio_io.decode_ns_per_sample": "ns",
    "audio_io.bytes_read": "bytes", "audio_io.clipped_samples": "count",
    "audio_io.resample_s": "s", "audio_io.resample_ns_per_out": "ns",
    "audio_io.samples_out": "count",
    "dsp.mel_s": "s", "dsp.frames": "count", "dsp.us_per_frame": "us",
    "inference.load_s": "s", "inference.forward_s": "s", "inference.patches": "count",
    "inference.ms_per_patch": "ms", "inference.padded_tracks": "count",
    **{f"inference.op_self_s.{op}": "s" for op in sorted(OPS)},
    "inference.conv2d_gflop": "GFLOP", "inference.conv2d_gflops_per_s": "GFLOP/s",
    "inference.overhead_share": "ratio",
    "streaming.pushes": "count", "streaming.push_s": "s", "streaming.frame_push_us_p50": "us",
    "streaming.patch_push_ms_p50": "ms", "streaming.overhead_vs_offline": "ratio",
    "streaming.rss_growth_mb": "MB",
    "transfer.extract_s": "s", "transfer.train_head_s": "s", "transfer.epochs": "count",
    "transfer.ms_per_epoch": "ms", "transfer.classify_s": "s",
    **{f"transfer.skipped.{r}": "count" for r in SKIP_REASONS},
    "evaluation.kfold_s": "s", "evaluation.report_s": "s", "evaluation.self_s": "s",
    "evaluation.evaluated": "count", "evaluation.discarded": "count",
    "trace.replay_mismatches": "count", "trace.throughput_xrt": "x",
}
