"""Command-line interface.

Subcommands: melspec, predict, embed, train-head, crossval, cross-eval,
bench. Data goes to stdout (or --output); diagnostics go to stderr.
JSON output is deterministic (sorted keys).

Exit codes:
  0  success
  1  unexpected internal failure
  2  audio decoding or file I/O problem
  3  invalid configuration or flag combination
  4  model manifest or weights failed to load, or the model's input
     cannot take its own patch
  5  track shorter than the analysis window allows
  6  training failure
  7  evaluation or dataset failure
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import MISSING, fields

import numpy as np

from . import __version__
from .audio_io import load_pcm
from .dsp import (_CHOICES, PRESET_SAMPLE_RATE, PRESETS, MelConfig, _field_type,
                  mel_spectrogram, preset)
from .errors import (AudioIOError, ConfigError, DegenerateDataset, EvalError,
                     InputShapeMismatch, MelstreamError, ModelLoadError,
                     SignalTooShort, TrackTooShort, TrainingError)
from .evaluation import (cross_collection_eval, crossval_run, load_dataset,
                         load_taxonomy)
from .inference.model_io import encode_weights, load_model, save_model
from .inference.prediction import (aggregate, embed_patches, predict,
                                   run_patches, tile_patches, top_label)
from .streaming import StreamPipeline
from .transfer import (HeadSpec, TrainSpec, export_head, extract_embeddings,
                       train_head)

FORMATS = ("json", "csv", "bin")
_STREAM_CHUNK = 65536


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors: exit 3, not argparse's 2."""

    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _fail(code: int, exc: BaseException) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _emit_text(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, output: str | None) -> None:
    _emit_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n", output)


def _emit_matrix(rows: np.ndarray, fmt: str, output: str | None, name: str,
                 extra: dict | None = None) -> None:
    if fmt == "json":
        payload = {name: rows, "shape": list(rows.shape)}
        payload.update(extra or {})
        _emit_json(payload, output)
    elif fmt == "csv":
        lines = [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(rows)]
        _emit_text("\n".join(lines) + "\n", output)
    else:
        blob = encode_weights({name: np.ascontiguousarray(rows, dtype=np.float32)})
        if output:
            with open(output, "wb") as fh:
                fh.write(blob)
        else:
            sys.stdout.buffer.write(blob)


def _resolve_seed(text: str) -> int:
    if text == "random":
        return int(np.random.SeedSequence().entropy % (2 ** 32))
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"--seed must be an integer or 'random', got {text!r}") from None


def _reproducibility(seed: int | None, params: dict) -> dict:
    blob = json.dumps(_jsonable(params), sort_keys=True, default=str).encode()
    return {"seed": seed, "config_hash": hashlib.sha256(blob).hexdigest()[:12],
            "version": __version__}


_FEATURE_FLAGS = tuple(f.name for f in fields(MelConfig)) + ("sample_rate",)


def _melspec_config(args) -> tuple[MelConfig, int | None]:
    given = {k: getattr(args, k) for k in _FEATURE_FLAGS if getattr(args, k) is not None}
    if args.preset:
        if given:
            raise ConfigError(
                f"--preset conflicts with explicit feature flags: {sorted(given)}")
        return preset(args.preset), PRESET_SAMPLE_RATE
    missing = [f"--{f.name.replace('_', '-')}" for f in fields(MelConfig)
               if f.default is MISSING and f.name not in given]
    if missing:
        raise ConfigError(f"either --preset or explicit flags required; missing {missing}")
    rate = given.pop("sample_rate", None)
    return MelConfig(**given), rate


def cmd_melspec(args) -> int:
    config, rate = _melspec_config(args)
    buf = load_pcm(args.audio, rate)
    if args.stream:
        if args.chunk < 1:
            raise ConfigError(f"--chunk must be >= 1, got {args.chunk}")
        pipe = StreamPipeline(config=config, sample_rate=buf.sample_rate)
        collected = []
        for start in range(0, len(buf), args.chunk):
            collected.append(pipe.push(buf.samples[start:start + args.chunk]).frames)
        collected.append(pipe.flush().frames)
        frames = np.concatenate(collected) if collected else np.empty((0, config.n_mels))
        if frames.shape[0] == 0:
            raise SignalTooShort(
                f"{len(buf)} samples is less than one frame of {config.frame_size}")
    else:
        frames = mel_spectrogram(buf, config).frames
    _emit_matrix(frames, args.format, args.output, "melspec",
                 extra={"config": config.to_kv(), "sample_rate": buf.sample_rate,
                        "clipped_samples": buf.clipped})
    return 0


def cmd_predict(args) -> int:
    graph = load_model(args.model, args.weights)
    if not graph.labels:
        raise ValueError("model has no labels; it is a feature extractor")
    if args.stream:
        if args.audio:
            raise ConfigError("--stream reads from stdin; drop the audio argument")
        pipe = StreamPipeline(model=graph)
        rows, carry = [], b""  # carry: bytes of a float32 split across two reads
        while block := sys.stdin.buffer.read1(4 * _STREAM_CHUNK):
            raw = carry + block
            whole = len(raw) - len(raw) % 4
            carry = raw[whole:]
            rows.append(pipe.push(np.frombuffer(raw[:whole], dtype="<f4")).patch_outputs)
        if carry:
            raise AudioIOError(f"stdin ended {len(carry)} bytes into a float32 sample")
        rows.append(pipe.flush().patch_outputs)
        per_patch = np.concatenate([r for r in rows if r.size] or [np.empty((0, 0))])
        if per_patch.shape[0] == 0:
            raise TrackTooShort("stream ended before one full patch of audio arrived")
        aggregated = aggregate(per_patch, args.aggregation)
        labels = graph.labels
        n_patches = per_patch.shape[0]
    else:
        if not args.audio:
            raise ConfigError("an audio file is required unless --stream is given")
        buf = load_pcm(args.audio, graph.sample_rate)
        pred = predict(graph, buf, aggregation=args.aggregation,
                       pad_short=not args.no_pad_short)
        aggregated, labels, n_patches = pred.aggregated, pred.labels, pred.per_patch.shape[0]
    order = np.argsort(-aggregated, kind="stable")
    top_n = order[:args.top] if args.top else order
    payload = {
        "scores": {labels[i]: float(aggregated[i]) for i in range(len(labels))},
        "ranking": [labels[int(i)] for i in top_n],
        "top_label": labels[int(order[0])],
        "aggregation": args.aggregation,
        "n_patches": n_patches,
    }
    _emit_json(payload, args.output)
    return 0


def cmd_embed(args) -> int:
    graph = load_model(args.model, args.weights)
    rows = embed_patches(graph, load_pcm(args.audio, graph.sample_rate),
                         pad_short=not args.no_pad_short)
    _emit_matrix(rows, args.format, args.output, "embeddings",
                 extra={"layer": graph.embedding_name})
    return 0


def _head_spec(args, n_classes: int) -> HeadSpec:
    # The class count comes from the dataset, so too few classes is a
    # training-data problem, not a flag problem.
    if n_classes < 2:
        raise DegenerateDataset(f"dataset holds {n_classes} class(es); need at least 2")
    return HeadSpec(variant=args.variant, n_classes=n_classes, hidden=args.hidden)


def _train_spec(args, seed: int) -> TrainSpec:
    return TrainSpec(batch_size=args.batch_size, initial_lr=args.initial_lr,
                     lr_patience_epochs=args.lr_patience, lr_factor=args.lr_factor,
                     max_epochs=args.max_epochs, val_fraction=args.val_fraction,
                     seed=seed)


def cmd_train_head(args) -> int:
    seed = _resolve_seed(args.seed)
    graph = load_model(args.model, args.weights)
    dataset = load_dataset(args.dataset)
    table = extract_embeddings(graph, dataset)
    labels = {t: c for t, c in dataset.single_labels().items() if t in table.rows}
    spec = _head_spec(args, len(set(labels.values())))
    train = _train_spec(args, seed)
    weights = train_head(table, labels, spec, train)
    composite = export_head(weights, graph)
    save_model(composite, args.output, args.output_weights)
    best = min((e["val_loss"] for e in weights.training_log), default=None)
    payload = {
        "classes": list(weights.classes),
        "variant": weights.variant,
        "input_dim": weights.input_dim,
        "best_epoch": weights.best_epoch,
        "best_val_loss": best,
        "epochs_run": len(weights.training_log),
        "n_train": len(weights.train_tracks),
        "n_val": len(weights.val_tracks),
        "n_skipped": len(table.skipped),
        "manifest": args.output,
        "weights": args.output_weights,
        "reproducibility": _reproducibility(seed, {
            "command": "train-head", "dataset": args.dataset, "model": args.model,
            "variant": args.variant, "hidden": args.hidden,
            "train": _jsonable(vars(train))}),
    }
    if args.log:
        payload["training_log"] = weights.training_log
    _emit_json(payload, None)
    return 0


def cmd_crossval(args) -> int:
    seed = _resolve_seed(args.seed)
    graph = load_model(args.model, args.weights)
    dataset = load_dataset(args.dataset)
    spec = _head_spec(args, len(dataset.classes))
    train = _train_spec(args, seed)
    report = crossval_run(dataset, graph, spec, train, k=args.folds)
    payload = {
        "balanced_accuracy": report.balanced_accuracy,
        "stdev_across_folds": report.stdev_across_folds,
        "summary": report.summary(),
        "per_class_recall": report.per_class_recall,
        "n_evaluated": report.n_evaluated,
        "n_discarded": report.n_discarded,
        "folds": args.folds,
        "reproducibility": _reproducibility(seed, {
            "command": "crossval", "dataset": args.dataset, "model": args.model,
            "variant": args.variant, "hidden": args.hidden, "folds": args.folds,
            "train": _jsonable(vars(train))}),
    }
    _emit_json(payload, args.output)
    return 0


def cmd_cross_eval(args) -> int:
    graph = load_model(args.model, args.weights)
    if not graph.labels:
        raise ConfigError("model has no labels; cross-collection scoring needs a classifier")
    taxonomy = load_taxonomy(args.taxonomy)
    external = load_dataset(args.dataset, label_mode="multi")

    def predictor(audio_path: str) -> str:
        buf = load_pcm(audio_path, graph.sample_rate)
        return top_label(predict(graph, buf, aggregation=args.aggregation))

    report = cross_collection_eval(predictor, external, taxonomy, graph.labels)
    payload = {
        "balanced_accuracy": report.balanced_accuracy,
        "summary": report.summary(),
        "per_class_recall": report.per_class_recall,
        "n_evaluated": report.n_evaluated,
        "n_discarded": report.n_discarded,
        "reproducibility": _reproducibility(None, {
            "command": "cross-eval", "dataset": args.dataset, "model": args.model,
            "taxonomy": args.taxonomy, "aggregation": args.aggregation}),
    }
    if report.confusion is not None:
        payload["confusion"] = report.confusion
    _emit_json(payload, args.output)
    return 0


def _timed(fn, trials: int) -> dict:
    laps = []
    for _ in range(trials):
        t0 = time.perf_counter()
        fn()
        laps.append(time.perf_counter() - t0)
    return {"mean_s": float(np.mean(laps)), "min_s": float(min(laps)),
            "max_s": float(max(laps))}


def cmd_bench(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    graph = load_model(args.model, args.weights)
    buf = load_pcm(args.audio, graph.sample_rate)
    patches = tile_patches(mel_spectrogram(buf, graph.feature_config).frames,
                           graph.patch_frames)
    phases = {
        "model_load": _timed(lambda: load_model(args.model, args.weights), args.trials),
        "feature_extraction": _timed(lambda: mel_spectrogram(buf, graph.feature_config),
                                     args.trials),
        "inference": _timed(lambda: run_patches(graph, patches), args.trials),
        "end_to_end": _timed(
            lambda: predict(graph, load_pcm(args.audio, graph.sample_rate)), args.trials),
    }
    payload = {
        "audio_seconds": buf.duration,
        "trials": args.trials,
        "n_patches": len(patches),
        "phases": phases,
        "real_time_factor": phases["end_to_end"]["mean_s"] / buf.duration,
    }
    _emit_json(payload, args.output)
    return 0


def _add_model_args(sub) -> None:
    sub.add_argument("--model", required=True, help="model manifest path")
    sub.add_argument("--weights", required=True, help="model weights path")


def _add_train_args(sub) -> None:
    sub.add_argument("--dataset", required=True, help="CSV manifest of labeled tracks")
    sub.add_argument("--variant", choices=("A", "B"), default="A")
    sub.add_argument("--hidden", type=int, default=100)
    sub.add_argument("--batch-size", type=int, default=32)
    sub.add_argument("--initial-lr", type=float, default=0.001)
    sub.add_argument("--lr-patience", type=int, default=75)
    sub.add_argument("--lr-factor", type=float, default=0.5)
    sub.add_argument("--max-epochs", type=int, default=150)
    sub.add_argument("--val-fraction", type=float, default=0.2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="melstream",
                     description="Streaming mel analysis, model inference and evaluation.")
    parser.add_argument("--version", action="version", version=f"melstream {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("melspec", help="mel spectrogram of a WAV file")
    p.add_argument("audio")
    p.add_argument("--preset", choices=sorted(PRESETS))
    for f in fields(MelConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=_field_type(f),
                       choices=_CHOICES.get(f.name))
    p.add_argument("--sample-rate", type=int, help="analysis rate; default: the file's rate")
    p.add_argument("--stream", action="store_true",
                   help="run through the streaming pipeline in --chunk sample pieces")
    p.add_argument("--chunk", type=int, default=4096)
    p.add_argument("--output")
    p.add_argument("--format", choices=FORMATS, default="json")
    p.set_defaults(func=cmd_melspec)

    p = subs.add_parser("predict", help="classify a track")
    p.add_argument("audio", nargs="?")
    _add_model_args(p)
    p.add_argument("--aggregation", choices=("mean", "max"), default="mean")
    p.add_argument("--top", type=int, default=0, help="limit the ranking to N labels")
    p.add_argument("--no-pad-short", action="store_true",
                   help="reject tracks shorter than one patch instead of zero-padding")
    p.add_argument("--stream", action="store_true",
                   help="read raw float32 little-endian mono samples from stdin "
                        "at the model's sample rate")
    p.add_argument("--output")
    p.set_defaults(func=cmd_predict)

    p = subs.add_parser("embed", help="per-patch embeddings of a track")
    p.add_argument("audio")
    _add_model_args(p)
    p.add_argument("--no-pad-short", action="store_true")
    p.add_argument("--output")
    p.add_argument("--format", choices=FORMATS, default="json")
    p.set_defaults(func=cmd_embed)

    p = subs.add_parser("train-head", help="train a classifier head on frozen embeddings")
    _add_model_args(p)
    _add_train_args(p)
    p.add_argument("--seed", default="42", help="integer or 'random'")
    p.add_argument("--output", required=True, help="manifest path for the stitched model")
    p.add_argument("--output-weights", required=True, help="weights path for the stitched model")
    p.add_argument("--log", action="store_true", help="include the per-epoch training log")
    p.set_defaults(func=cmd_train_head)

    p = subs.add_parser("crossval", help="k-fold cross-validation of a transfer head")
    _add_model_args(p)
    _add_train_args(p)
    p.add_argument("--seed", default="42", help="integer or 'random'")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--output")
    p.set_defaults(func=cmd_crossval)

    p = subs.add_parser("cross-eval", help="score a model on a foreign collection")
    _add_model_args(p)
    p.add_argument("--dataset", required=True, help="external CSV manifest (multi-label)")
    p.add_argument("--taxonomy", required=True, help="TSV tag hierarchy")
    p.add_argument("--aggregation", choices=("mean", "max"), default="mean")
    p.add_argument("--output")
    p.set_defaults(func=cmd_cross_eval)

    p = subs.add_parser("bench", help="time the pipeline phases on one track")
    p.add_argument("audio")
    _add_model_args(p)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--output")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrackTooShort, SignalTooShort) as e:
        return _fail(5, e)
    except AudioIOError as e:
        return _fail(2, e)
    except ConfigError as e:
        return _fail(3, e)
    except (ModelLoadError, InputShapeMismatch) as e:
        return _fail(4, e)
    except TrainingError as e:
        return _fail(6, e)
    except EvalError as e:
        return _fail(7, e)
    except ValueError as e:
        return _fail(3, e)
    except OSError as e:
        return _fail(2, e)
    except MelstreamError as e:
        return _fail(1, e)
