"""Track-level prediction by patch tiling.

A track's mel frames are cut into consecutive non-overlapping patches of
``patch_frames`` frames. A trailing partial patch is dropped; a track
shorter than one patch is zero-padded to a single patch (or rejected
when padding is disabled). Per-patch activations are aggregated across
patches by mean (default) or max.

This module is the one path from audio to per-patch outputs: ``predict``,
``embed_patches`` and the command line run their patches through
:func:`run_patches`. The stream pipeline runs the graph evaluation that
``forward`` runs (see ``graph``) on the patch :func:`patch_to_input` views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..audio_io import AudioBuffer, resample
from ..dsp import mel_spectrogram
from ..errors import InputShapeMismatch, SignalTooShort, TrackTooShort
from .graph import ModelGraph, forward

AGGREGATIONS = ("mean", "max")


@dataclass(frozen=True)
class Prediction:
    """Per-patch and aggregated class activations."""

    per_patch: np.ndarray    # (n_patches, n_classes) float32
    aggregated: np.ndarray   # (n_classes,) float32
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.per_patch.ndim != 2 or self.aggregated.shape != (self.per_patch.shape[1],):
            raise ValueError("inconsistent prediction shapes")
        if len(self.labels) != self.per_patch.shape[1]:
            raise ValueError("label count does not match activation width")


def tile_patches(frames: np.ndarray, patch_frames: int, pad_short: bool = True) -> np.ndarray:
    """Cut (T, n_mels) mel frames into (P, patch_frames, n_mels) patches."""
    frames = np.asarray(frames)
    t, n_mels = frames.shape
    if t < patch_frames:
        if not pad_short:
            raise TrackTooShort(f"{t} mel frames is less than one patch of {patch_frames}")
        padded = np.zeros((patch_frames, n_mels), dtype=frames.dtype)
        padded[:t] = frames
        return padded[None]
    p = t // patch_frames
    return frames[:p * patch_frames].reshape(p, patch_frames, n_mels)


def patch_to_input(patch: np.ndarray, graph: ModelGraph) -> np.ndarray:
    """Adapt a (patch_frames, n_mels) patch to the graph's input shape."""
    x = np.ascontiguousarray(patch, dtype=np.float32)
    target = graph.input_shape
    if x.shape == target:
        return x
    if len(target) == 3 and target[2] == 1 and x.shape == target[:2]:
        return x[:, :, None]
    if len(target) == 1 and x.size == target[0]:
        return x.reshape(target)
    raise InputShapeMismatch(
        f"patch of shape {x.shape} cannot feed graph input {target}")


def _track_patches(graph: ModelGraph, buf: AudioBuffer, pad_short: bool) -> np.ndarray:
    """Resample a track to the graph's rate, take its mel frames and tile them."""
    if buf.sample_rate != graph.sample_rate:
        buf = resample(buf, graph.sample_rate)
    try:
        mel = mel_spectrogram(buf, graph.feature_config)
    except SignalTooShort as e:
        raise TrackTooShort(str(e)) from None
    return tile_patches(mel.frames, graph.patch_frames, pad_short=pad_short)


def run_patches(graph: ModelGraph, patches: np.ndarray, until: str | None = None) -> np.ndarray:
    """Run each (patch_frames, n_mels) patch through the graph up to ``until``.

    Returns one (n_patches, dim) float32 row per patch, the node's output raveled.
    """
    return np.stack([forward(graph, patch_to_input(p, graph), until).ravel() for p in patches])


def aggregate(per_patch: np.ndarray, aggregation: str) -> np.ndarray:
    """Combine (n_patches, n_classes) activations into one float32 row."""
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"aggregation must be one of {AGGREGATIONS}, got {aggregation!r}")
    if aggregation == "mean":
        aggregated = per_patch.mean(axis=0)
        # float32 summation can land a hair outside the per-patch envelope.
        aggregated = np.clip(aggregated, per_patch.min(axis=0), per_patch.max(axis=0))
    else:
        aggregated = per_patch.max(axis=0)
    return aggregated.astype(np.float32)


def predict(graph: ModelGraph, buf: AudioBuffer, aggregation: str = "mean",
            pad_short: bool = True) -> Prediction:
    """Classify a whole track."""
    if not graph.labels:
        raise ValueError("graph has no labels; it is a feature extractor")
    per_patch = run_patches(graph, _track_patches(graph, buf, pad_short))
    return Prediction(per_patch=per_patch, aggregated=aggregate(per_patch, aggregation),
                      labels=graph.labels)


def top_label(prediction: Prediction) -> str:
    """Label with the highest aggregated activation; ties break to the lowest index."""
    return prediction.labels[int(np.argmax(prediction.aggregated))]


def embed_patches(graph: ModelGraph, buf: AudioBuffer, pad_short: bool = True) -> np.ndarray:
    """Per-patch embeddings (n_patches, dim) from the graph's embedding layer."""
    return run_patches(graph, _track_patches(graph, buf, pad_short), graph.embedding_name)
