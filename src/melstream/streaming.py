"""A push-based streaming front end.

A :class:`StreamPipeline` is built from a model, or from a config and a
rate. It accepts audio in arbitrary chunk sizes and emits mel frames
(and, when built from a model, per-patch activations) exactly as the
offline pipeline would: each push frames every frame it completes with
the same strided view and the same kernel, in the same blocks, so values
are bit-identical; trailing partial frames and patches are dropped at
flush.

With a model attached, the patch is a float32 buffer viewed once as the
model's input, and the graph's time-local prefix runs while it fills.
The prefix is the nodes, fed only by the rank-3 input or by each other,
whose output row t reads only input rows t..t+halo: valid conv2d with
time-stride 1 (halo kh - 1), max and mean pooling with pool and stride 1
in time, batch_norm, relu, elu, sigmoid, dropout, and a concat off axis
0 of inputs with equal halos. The push that completes a prefix block's
input rows runs that block; the push that completes the patch runs the
blocks left and then the rest of the graph. Offline ``forward`` runs the
same graph evaluation all at once, so the outputs are equal by
construction, whatever BLAS does with a block's row count. A model
without a prefix runs whole on the patch-completing push. A chunk with
NaN or infinity, or that is not 1-D, raises ``UnsupportedFormat`` before any
state changes.

Between pushes the pipeline holds fewer than one frame of samples, fewer
than one patch of mel rows and one patch of prefix rows, so memory stays
bounded no matter how the input is chunked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .audio_io import _rate
from .dsp import _MEL_BLOCK, MelConfig, _frame_view, _front_end, _mel_frame
from .errors import AlreadyFlushed, UnsupportedFormat
from .inference.graph import _Evaluation
from .inference.prediction import patch_to_input


@dataclass
class PushResult:
    """Outputs completed by one push (or flush) call."""

    frames: np.ndarray          # (k, n_mels); k may be 0
    patch_outputs: np.ndarray   # (m, out_dim); empty (0, 0) without a model


@dataclass
class LatencyReport:
    algorithmic_latency: int            # samples before the first output
    per_chunk_wall_time: dict = field(default_factory=dict)


class StreamPipeline:
    """Push-driven mel (and optional patch inference) pipeline.

    Construct with either a :class:`MelConfig` and a sample rate, or a
    loaded model graph alone: its embedded feature config and rate are
    used, and every completed patch of mel frames is run through the
    graph. A model given with a config or a rate raises ``ValueError``.
    Input shorter than one patch yields no patch output.
    """

    def __init__(self, config: MelConfig | None = None, sample_rate: int | None = None,
                 model=None):
        if model is not None:
            if config is not None or sample_rate is not None:
                raise ValueError("give a model, or a config and a sample_rate, not both")
            config = model.feature_config
            sample_rate = model.sample_rate
        if config is None or sample_rate is None:
            raise ValueError("need a model, or a config and a sample_rate")

        self.config = config
        self.sample_rate = _rate(sample_rate, "sample_rate")
        self.model = model
        self._front = _front_end(config, self.sample_rate)
        # Samples of the next frame and rows of the next patch, each with its fill count.
        self._tail = np.zeros(config.frame_size)
        self._tail_held = 0
        self._patch_held = 0
        if model is not None:
            # The held patch, viewed once as the model's input; a model that cannot take a
            # (patch_frames, n_mels) patch fails here, not at the first patch.
            self._patch = np.zeros((model.patch_frames, config.n_mels), dtype=np.float32)
            self._eval = _Evaluation(model, model.output_name,
                                     {model.input_name: patch_to_input(self._patch, model)})
        self._flushed = False
        self._pushes, self._push_total, self._push_min, self._push_max = 0, 0.0, float("inf"), 0.0
        self.frames_emitted = 0
        self.patches_emitted = 0

    def _patches(self, rows: np.ndarray) -> list:
        """Append mel rows to the held patch; run each prefix block and patch that fills."""
        outputs, patch = [], self._patch
        while len(rows):
            take = min(len(patch) - self._patch_held, len(rows))
            patch[self._patch_held:self._patch_held + take] = rows[:take]
            rows, self._patch_held = rows[take:], self._patch_held + take
            if self._patch_held < len(patch):
                self._eval.advance(self._patch_held)
            else:
                # flatten copies: the output may be a row buffer the next patch overwrites.
                outputs.append(self._eval.finish().flatten())
                self._patch_held = 0
        self.patches_emitted += len(outputs)
        return outputs

    def push(self, chunk) -> PushResult:
        """Feed samples; returns everything newly computable."""
        if self._flushed:
            raise AlreadyFlushed("push after flush")
        cfg = self.config
        chunk = np.asarray(chunk)
        if chunk.ndim != 1:
            raise UnsupportedFormat(f"stream chunk must be 1-D, got shape {chunk.shape}")
        # Checked before concatenate widens the chunk to float64, where a float32
        # signalling NaN warns. count_nonzero takes ~1.2 µs on 256 samples, .all() ~2 µs.
        if np.count_nonzero(np.isfinite(chunk)) < chunk.size:
            raise UnsupportedFormat("stream chunk contains non-finite samples")
        start = time.perf_counter()
        x = np.concatenate((self._tail[:self._tail_held], chunk), dtype=np.float64)
        segments = _frame_view(x, cfg.frame_size, cfg.hop_size)
        t = len(segments)
        frames = np.empty((t, cfg.n_mels))
        for i in range(0, t, _MEL_BLOCK):
            frames[i:i + _MEL_BLOCK] = _mel_frame(segments[i:i + _MEL_BLOCK], *self._front)
        rest = x[t * cfg.hop_size:]
        self._tail[:rest.size] = rest
        self._tail_held = rest.size
        self.frames_emitted += t
        patches = self._patches(frames) if self.model is not None else []
        elapsed = time.perf_counter() - start
        self._pushes += 1
        self._push_total += elapsed
        self._push_min = min(self._push_min, elapsed)
        self._push_max = max(self._push_max, elapsed)
        return PushResult(frames=frames, patch_outputs=_stack(patches))

    def flush(self) -> PushResult:
        """Close the stream; trailing partial frames and patches are dropped."""
        if self._flushed:
            raise AlreadyFlushed("flush called twice")
        self._flushed = True
        return PushResult(frames=np.empty((0, self.config.n_mels)), patch_outputs=_stack([]))

    def latency_report(self) -> LatencyReport:
        """Algorithmic latency plus wall-time stats over the pushes so far."""
        if not self._pushes:
            raise ValueError("latency_report needs at least one processed chunk")
        cfg = self.config
        if self.model is None:
            latency = cfg.frame_size
        else:
            latency = cfg.frame_size + (self.model.patch_frames - 1) * cfg.hop_size
        return LatencyReport(
            algorithmic_latency=latency,
            per_chunk_wall_time={"min": self._push_min,
                                 "mean": self._push_total / self._pushes,
                                 "max": self._push_max, "chunks": self._pushes},
        )


def _stack(patches: list) -> np.ndarray:
    return np.stack(patches) if patches else np.empty((0, 0), dtype=np.float32)
