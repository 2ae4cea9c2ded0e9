"""The three workloads.

Each workload writes its seeded inputs, sets melstream up (timed as
``setup_s``, median of several repeats), runs passes over the same
inputs until ``seconds`` have gone by, and then checks every output.
A pass is one complete request: tagging a collection, embedding a
dataset and cross-validating both head variants, or streaming one
session.
Counts are taken from the first pass and must repeat in every pass.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import melstream as ms

from . import inputs as gen
from .trace import SETUP_PASS, VERIFY_PASS, Tracer

SETUP_REPEATS = 51

TAG_TRACKS, TAG_DISCARDED, TAG_CLIP_SECONDS = 5, 2, 4.0
# Two tracks shorter than one patch (padded); the longest is 2.5 minutes.
EMBED_LENGTHS = (1.2, 2.4, 9.0, 24.0, 45.0, 75.0, 150.0)
CHUNK = 256                      # 16 ms at 16 kHz, a typical audio-callback block
STREAM_SECONDS = 60.0
RSS_PUSHES = 16000               # pushes of the untraced memory-growth session
HEADS_TRACKS, HEADS_CLASSES, HEADS_MISSING, HEADS_EPOCHS = 400, 8, 5, 20
HEADS_MIN_ACCURACY = 0.5         # four times chance with 8 classes


@dataclass
class Outcome:
    """What one run measured and checked."""

    setup: list = field(default_factory=list)       # seconds per set-up repeat
    audio_seconds: float = 0.0                       # audio handled by the timed passes
    busy_seconds: float = 0.0                        # time the timed operations took
    rates: list = field(default_factory=list)       # audio s per wall s of each timed unit
    latencies: list = field(default_factory=list)   # seconds (or arrays of), median metric
    tail: list = field(default_factory=list)        # seconds (or arrays of), 95th percentile
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: list = field(default_factory=list)     # one per pass
    counts: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)       # inputs to the per-layer metrics
    notes: list = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok

    def timed(self, audio_seconds: float, seconds: float) -> None:
        """Count one timed unit of work toward throughput."""
        self.audio_seconds += audio_seconds
        self.busy_seconds += seconds
        self.rates.append(audio_seconds / seconds)

    def metrics(self) -> dict:
        return {
            "setup_s": statistics.median(self.setup),
            # The median unit's rate, not a ratio of totals: on a host whose
            # speed drifts it spreads less from run to run, like latency_p50.
            "throughput_xrt": statistics.median(self.rates),
            "latency_p50_ms": float(np.median(np.hstack(self.latencies))) * 1e3,
            "latency_p95_ms": float(np.percentile(np.hstack(self.tail), 95)) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


class Api:
    """melstream's public functions, each wrapped in a span when tracing."""

    SPANS = {
        "load_model": "inference.load_model", "load_pcm": "audio_io.load_pcm",
        "predict": "inference.predict", "top_label": "inference.top_label",
        "extract_embeddings": "transfer.extract_embeddings",
        "cross_collection_eval": "evaluation.cross_collection_eval",
        "crossval_run": "evaluation.crossval_run",
        "load_dataset": "evaluation.load_dataset", "load_taxonomy": "evaluation.load_taxonomy",
        "StreamPipeline": "streaming.pipeline",
    }

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        for attr, span in self.SPANS.items():
            fn = getattr(ms, attr)
            setattr(self, attr, tracer.wrap(span, fn) if tracer else fn)
        push, flush = ms.StreamPipeline.push, ms.StreamPipeline.flush
        self.push = tracer.wrap("streaming.push", push) if tracer else push
        self.flush = tracer.wrap("streaming.flush", flush) if tracer else flush

    def at(self, pass_no: int) -> None:
        if self.tracer:
            self.tracer.pass_no = pass_no
            self.tracer.track = {SETUP_PASS: "setup", VERIFY_PASS: "verify"}.get(
                pass_no, f"pass{pass_no}")


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()[:16]


def _setup(out: Outcome, api: Api, make):
    api.at(SETUP_PASS)
    made = None
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        made = make()
        out.setup.append(perf_counter() - start)
    return made


def _passes(out: Outcome, api: Api, seconds: float, one_pass) -> None:
    """Run whole passes until ``seconds`` have gone by (at least one)."""
    begin = perf_counter()
    while out.passes == 0 or perf_counter() - begin < seconds:
        api.at(out.passes)
        one_pass(out.passes)
        out.passes += 1
    api.at(VERIFY_PASS)


def _release_free_heap() -> None:
    """Hand freed heap pages back to the OS (glibc ``malloc_trim``).

    Where a pass's large arrays land on the heap depends on the small
    objects earlier passes left behind; without this, peak RSS moved by
    up to 17 MB with the seed and the number of passes.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc


def _warm_up(graph) -> None:
    # Lets BLAS and FFT set-up finish before the first timed call.
    noise = np.random.default_rng(0).normal(0.0, 0.1, 2 * gen.SR)
    ms.predict(graph, ms.AudioBuffer(noise, gen.SR))


def _check_probs(out: Outcome, rows: np.ndarray, what: str) -> bool:
    return (out.check(bool(np.all(np.isfinite(rows))), f"{what}: non-finite scores")
            and out.check(bool(np.all(np.abs(rows.sum(axis=-1) - 1.0) <= 1e-5)),
                          f"{what}: probability rows do not sum to 1"))


# -- tag-44k -----------------------------------------------------------------------

def tag_44k(seed: int, seconds: float, work: str, api: Api) -> Outcome:
    out = Outcome()
    model = gen.write_bench_model(work, seed)
    plan = gen.tag_inputs(work, seed, TAG_TRACKS, TAG_DISCARDED, TAG_CLIP_SECONDS)
    graph, dataset, taxonomy = _setup(out, api, lambda: (
        api.load_model(*model), api.load_dataset(plan["dataset"], "multi"),
        api.load_taxonomy(plan["taxonomy"])))
    _warm_up(graph)
    results: list[list] = []

    def predictor(path):
        start = perf_counter()
        try:
            buf = api.load_pcm(path, graph.sample_rate)
            pred = api.predict(graph, buf)
            label = api.top_label(pred)
        except Exception as e:  # any raise on a valid clip is a failed operation
            out.latencies.append(perf_counter() - start)
            results[-1].append((path, None, f"{type(e).__name__}: {e}"))
            return ""
        elapsed = perf_counter() - start
        out.latencies.append(elapsed)
        out.timed(TAG_CLIP_SECONDS, elapsed)
        results[-1].append((path, pred, buf.clipped, label))
        return label

    reports = []

    def one_pass(_):
        results.append([])
        reports.append(api.cross_collection_eval(predictor, dataset, taxonomy, graph.labels))

    _passes(out, api, seconds, one_pass)
    out.tail = out.latencies
    clipped = 0
    for i, (calls, report) in enumerate(zip(results, reports)):
        out.attempted += len(calls) + 1
        out.check(report.n_evaluated == plan["evaluated"] and len(calls) == plan["evaluated"],
                  f"pass {i}: {report.n_evaluated} evaluated, planted {plan['evaluated']}")
        out.check(report.n_discarded == plan["discarded"],
                  f"pass {i}: {report.n_discarded} discarded, planted {plan['discarded']}")
        parts = [report.balanced_accuracy, sorted(report.per_class_recall.items())]
        for call in sorted(calls, key=lambda c: c[0]):
            if not out.check(call[1] is not None, f"{call[0]}: {call[-1]}"):
                continue
            path, pred, clip, label = call
            _check_probs(out, pred.per_patch, path)
            out.check(bool(np.all(np.isfinite(pred.aggregated))), f"{path}: non-finite aggregate")
            out.check(label in graph.labels, f"{path}: unknown label {label!r}")
            parts += [os.path.basename(path), label, pred.aggregated, clip]
            clipped += clip if i == 0 else 0
        out.digests.append(_digest(*parts))
    out.check(clipped > 0, "no clipped samples although loud passages were planted")
    out.counts = {"evaluated": reports[0].n_evaluated, "discarded": reports[0].n_discarded,
                  "clipped_samples": clipped, "patches": sum(
                      c[1].per_patch.shape[0] for c in results[0] if c[1] is not None)}
    out.notes.append(f"per-file latency over {len(out.latencies)} files "
                     f"({TAG_CLIP_SECONDS:g} s stereo pcm16 at {gen.SOURCE_SR} Hz)")
    return out


# -- transfer-16k ------------------------------------------------------------------

def _expected_patches(seconds: float) -> int:
    frames = ms.frame_count(int(round(seconds * gen.SR)), 512, 256)
    return max(1, frames // gen.PATCH_FRAMES)


def _check_table(out: Outcome, plan: dict, i: int, table) -> list:
    """Check one pass's ``extract_embeddings`` table; return its digest parts."""
    dim = gen.EMBED_DIM
    out.attempted += len(plan["durations"]) + len(plan["corrupt"])
    for track, reason in plan["corrupt"].items():
        got = table.skipped.get(track, "")
        out.check(got.split(":", 1)[0] == reason,
                  f"pass {i}: {track} skipped as {got!r}, planted {reason}")
    out.check(set(table.skipped) == set(plan["corrupt"]),
              f"pass {i}: skipped {sorted(table.skipped)}, planted {sorted(plan['corrupt'])}")
    parts = []
    for track, secs in sorted(plan["durations"].items()):
        rows = table.rows.get(track)
        if not out.check(rows is not None, f"pass {i}: {track} has no embeddings"):
            continue
        out.check(rows.shape == (_expected_patches(secs), dim) and bool(np.all(np.isfinite(rows))),
                  f"pass {i}: {track} embeddings {rows.shape}, finite={np.all(np.isfinite(rows))}")
        parts += [track, rows]
    return parts


def _check_reports(out: Outcome, plan: dict, i: int, pair: list) -> list:
    """Check one pass's ``crossval_run`` reports for A and B; return digest parts."""
    parts = []
    for variant, rep in zip("AB", pair):
        out.attempted += 1
        out.check(rep.n_evaluated == plan["evaluated"] and rep.n_discarded == plan["discarded"],
                  f"pass {i} variant {variant}: {rep.n_evaluated} evaluated and "
                  f"{rep.n_discarded} discarded, planted {plan['evaluated']} and {plan['discarded']}")
        out.check(np.isfinite(rep.balanced_accuracy)
                  and rep.balanced_accuracy >= HEADS_MIN_ACCURACY,
                  f"pass {i} variant {variant}: balanced accuracy {rep.balanced_accuracy:.3f} "
                  f"is not clearly above chance {1 / HEADS_CLASSES:.3f}")
        parts += [variant, rep.balanced_accuracy, rep.stdev_across_folds,
                  sorted(rep.per_class_recall.items()), sorted(rep.confusion.items())]
    return parts


def transfer_16k(seed: int, seconds: float, work: str, api: Api) -> Outcome:
    """Embed a collection, then cross-validate both heads on a labelled table.

    The heads train on their own class-structured table, because the
    embeddings of an untrained bench CNN carry no classes to learn.
    Each pass is checked as soon as it ends and only the first pass's
    outputs are kept, so the harness holds the same memory however many
    passes fit in the run.
    """
    out = Outcome()
    model = gen.write_bench_model(work, seed)
    plan = gen.embed_inputs(work, seed, EMBED_LENGTHS)
    labelled = gen.heads_inputs(work, seed, HEADS_TRACKS, HEADS_CLASSES, HEADS_MISSING)
    graph, dataset, heads_dataset = _setup(out, api, lambda: (
        api.load_model(*model), api.load_dataset(plan["dataset"]),
        api.load_dataset(labelled["dataset"])))
    _warm_up(graph)
    # One short job per variant lets first-call costs finish before timing.
    for variant in ("A", "B"):
        ms.crossval_run(heads_dataset, graph, ms.HeadSpec(variant, HEADS_CLASSES),
                        ms.TrainSpec(max_epochs=1), k=5, table=labelled["table"])
    train = ms.TrainSpec(max_epochs=HEADS_EPOCHS)
    first, crossval = [], []

    def one_pass(i):
        _release_free_heap()
        start = perf_counter()
        table = api.extract_embeddings(graph, dataset)
        mid = perf_counter()
        pair = [api.crossval_run(heads_dataset, graph, ms.HeadSpec(variant, HEADS_CLASSES),
                                 train, k=5, table=labelled["table"]) for variant in ("A", "B")]
        end = perf_counter()
        crossval.append(end - mid)
        out.latencies.append(end - start)
        out.timed(plan["audio_seconds"], end - start)
        out.digests.append(_digest(*_check_table(out, plan, i, table),
                                   *_check_reports(out, labelled, i, pair)))
        if not first:
            first.extend((table, pair))

    _passes(out, api, seconds, one_pass)
    out.tail = out.latencies
    table, pair = first
    dim = gen.EMBED_DIM
    padded = [t for t, s in plan["durations"].items() if s < gen.PATCH_SECONDS]
    out.check(len(padded) == plan["padded"] and all(
        table.rows.get(t, np.empty((0, dim))).shape[0] == 1 for t in padded),
        f"padded tracks {padded} do not each give one patch (planted {plan['padded']})")
    # The shortest (padded) track again through the building blocks.
    shortest = min(plan["durations"], key=plan["durations"].get)
    path = next(e.audio_path for e in dataset.entries if e.track_id == shortest)
    mel = ms.mel_spectrogram(ms.load_pcm(path, graph.sample_rate), graph.feature_config)
    patches = ms.tile_patches(mel.frames, graph.patch_frames)
    direct = np.stack([ms.forward(graph, p[:, :, None].astype(np.float32), graph.embedding_name)
                       for p in patches])
    out.check(np.array_equal(direct, table.rows.get(shortest)),
              f"{shortest}: embeddings differ from mel -> tile -> forward")
    out.counts = {"tracks": len(plan["durations"]), "padded": len(padded),
                  "patches": sum(r.shape[0] for r in table.rows.values()),
                  "skipped": {t: r.split(":", 1)[0] for t, r in sorted(table.skipped.items())},
                  "evaluated": pair[0].n_evaluated, "discarded": pair[0].n_discarded,
                  "balanced_accuracy_A": round(pair[0].balanced_accuracy, 6),
                  "balanced_accuracy_B": round(pair[1].balanced_accuracy, 6)}
    out.extra["padded_tracks"] = len(padded)
    out.notes.append(f"per-request latency over {len(out.latencies)} passes, each "
                     f"extract_embeddings on {plan['audio_seconds']:g} s of audio, then "
                     f"crossval_run of variants A and B (5 folds, {HEADS_EPOCHS} epochs)")
    out.notes.append(f"crossval_s median {statistics.median(crossval):.6g} s of the pass")
    return out


# -- stream-16k --------------------------------------------------------------------

def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def stream_16k(seed: int, seconds: float, work: str, api: Api) -> Outcome:
    out = Outcome()
    model = gen.write_bench_model(work, seed)
    signal = gen.stream_signal(seed, STREAM_SECONDS)
    chunks = signal.reshape(-1, CHUNK)
    graph = _setup(out, api, lambda: api.StreamPipeline(model=api.load_model(*model)).model)
    _warm_up(graph)
    period = CHUNK / gen.SR
    sessions = []

    def one_pass(_):
        pipe = ms.StreamPipeline(model=graph)
        push = api.push
        durations = np.empty(len(chunks))
        patches, patch_at, frames = [], [], 0
        for i, chunk in enumerate(chunks):
            start = perf_counter()
            r = push(pipe, chunk)
            durations[i] = perf_counter() - start
            frames += len(r.frames)
            if len(r.patch_outputs):
                patches.append(r.patch_outputs)
                patch_at.append(i)
        r = api.flush(pipe)
        frames += len(r.frames)
        if len(r.patch_outputs):
            patches.append(r.patch_outputs)
        # Open loop at 1x: chunk i is due at i * period; replay the measured
        # push durations through a single consumer to get each push's lateness.
        finish, late = 0.0, np.empty(len(chunks))
        for i, d in enumerate(durations):
            finish = max(i * period, finish) + d
            late[i] = finish - i * period
        # Only the session's median is kept, so the harness holds the same
        # memory however many sessions fit in the run.
        out.latencies.append(float(np.median(late)))
        out.tail.append(late[patch_at])
        out.timed(len(signal) / gen.SR, float(durations.sum()))
        sessions.append((np.concatenate(patches) if patches else np.empty((0, 0)), frames,
                         float(late.max())))

    _passes(out, api, seconds, one_pass)

    # Offline reference: predict() on exactly the samples each patch covers.
    hop = gen.PATCH_FRAMES * 256
    span = 512 + (gen.PATCH_FRAMES - 1) * 256
    n_patches = ms.frame_count(len(signal), 512, 256) // gen.PATCH_FRAMES
    expected = np.stack([api.predict(graph, ms.AudioBuffer(signal[j * hop:j * hop + span], gen.SR))
                         .per_patch[0] for j in range(n_patches)])
    n_frames = ms.frame_count(len(signal), 512, 256)
    for i, (patches, frames, _) in enumerate(sessions):
        out.attempted += len(chunks) + 1
        out.check(frames == n_frames, f"session {i}: {frames} frames, expected {n_frames}")
        if out.check(patches.shape == expected.shape and np.array_equal(patches, expected),
                     f"session {i}: patch outputs differ from offline predict"):
            _check_probs(out, patches, f"session {i}")
        out.digests.append(_digest(patches, frames))
    if api.tracer:
        api.tracer.uninstall()
        out.extra.update(_stream_untraced(graph, chunks))
    out.counts = {"pushes": len(chunks), "frames": n_frames, "patches": n_patches}
    out.notes.append(
        f"{len(out.latencies)} sessions of {len(chunks)} pushes; median over sessions of each "
        f"session's median push latency; p95 over the {np.hstack(out.tail).size} pushes that "
        f"emitted a patch; "
        f"generator never late (replayed); worst push lateness "
        f"{max(s[2] for s in sessions) * 1e3:.2f} ms")
    return out


def _stream_untraced(graph, chunks: np.ndarray) -> dict:
    """Untraced figures for the traced run.

    RSS growth (MB) across RSS_PUSHES pushes into one pipeline, measured
    after a first quarter that lets allocations settle; and stream push
    time against offline mel_spectrogram + forward on the same samples,
    alternated so that a change in host speed hits both sides.
    """
    pipe = ms.StreamPipeline(model=graph)
    base = 0.0
    for i in range(RSS_PUSHES):
        if i == RSS_PUSHES // 4:
            base = _rss_mb()
        pipe.push(chunks[i % len(chunks)])
    growth = _rss_mb() - base
    signal = ms.AudioBuffer(chunks.ravel(), gen.SR)
    stream_s = offline_s = 0.0
    for _ in range(3):
        pipe = ms.StreamPipeline(model=graph)
        start = perf_counter()
        for chunk in chunks:
            pipe.push(chunk)
        pipe.flush()
        stream_s += perf_counter() - start
        start = perf_counter()
        mel = ms.mel_spectrogram(signal, graph.feature_config)
        for patch in ms.tile_patches(mel.frames, graph.patch_frames):
            ms.forward(graph, patch[:, :, None].astype(np.float32))
        offline_s += perf_counter() - start
    return {"rss_growth_mb": growth, "stream_s": stream_s, "offline_s": offline_s}


WORKLOADS = {"tag-44k": tag_44k, "transfer-16k": transfer_16k, "stream-16k": stream_16k}
