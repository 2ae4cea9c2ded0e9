"""Ring buffers and a push-based streaming front end.

A :class:`StreamPipeline` accepts audio in arbitrary chunk sizes and
emits mel frames (and, when a model is attached, per-patch activations)
exactly as the offline pipeline would: same frame arithmetic, same
kernel, bit-identical values, trailing partial frames and patches
dropped at flush. Memory stays bounded by the ring capacities no matter
how the input is chunked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dsp import MelConfig, _compression_fn, _mel_frame, mel_filterbank, window_vector
from .errors import AlreadyFlushed, BufferOverflow
from .inference.prediction import patch_to_input, run_patches

DEFAULT_CAPACITY_FACTOR = 4


class RingBuffer:
    """Fixed-capacity FIFO over rows of a fixed width.

    Positions are monotonic counters; ``write_pos - read_pos`` is the
    fill level and never exceeds the capacity. One producer and one
    consumer; reads may peek ahead of the consume point so overlapping
    frame extraction advances by the hop while seeing the full frame.
    """

    def __init__(self, capacity: int, width: int = 1):
        if capacity < 1 or width < 1:
            raise ValueError("capacity and width must be >= 1")
        self.capacity = capacity
        self.width = width
        self._data = np.zeros((capacity, width))
        self.read_pos = 0
        self.write_pos = 0

    @property
    def count(self) -> int:
        return self.write_pos - self.read_pos

    @property
    def free(self) -> int:
        return self.capacity - self.count

    def write(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[:, None]
        n = rows.shape[0]
        if n > self.free:
            raise BufferOverflow(f"write of {n} rows exceeds free space {self.free}")
        start = self.write_pos % self.capacity
        first = min(n, self.capacity - start)
        self._data[start:start + first] = rows[:first]
        if first < n:
            self._data[:n - first] = rows[first:]
        self.write_pos += n

    def peek(self, n: int) -> np.ndarray:
        if n > self.count:
            raise ValueError(f"peek of {n} rows exceeds fill level {self.count}")
        start = self.read_pos % self.capacity
        first = min(n, self.capacity - start)
        out = np.empty((n, self.width))
        out[:first] = self._data[start:start + first]
        if first < n:
            out[first:] = self._data[:n - first]
        return out

    def advance(self, n: int) -> None:
        if n > self.count:
            raise ValueError(f"advance of {n} rows exceeds fill level {self.count}")
        self.read_pos += n

    def read(self, n: int) -> np.ndarray:
        out = self.peek(n)
        self.advance(n)
        return out


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

    Construct with either an explicit :class:`MelConfig` plus sample
    rate, or a loaded model graph (its embedded feature config and rate
    are used, and every completed patch of mel frames is run through the
    graph). Input shorter than one patch yields no patch output.
    """

    def __init__(self, config: MelConfig | None = None, sample_rate: int | None = None,
                 model=None, capacity_factor: int = DEFAULT_CAPACITY_FACTOR):
        if model is not None:
            if config is not None and config != model.feature_config:
                raise ValueError("explicit config disagrees with the model's feature config")
            config = model.feature_config
            sample_rate = model.sample_rate
        if config is None:
            raise ValueError("need a MelConfig or a model")
        if sample_rate is None or sample_rate <= 0:
            raise ValueError("need a positive sample_rate")
        if capacity_factor < 1:
            raise ValueError("capacity_factor must be >= 1")

        self.config = config
        self.sample_rate = int(sample_rate)
        self.model = model
        self._window = window_vector(config.window, config.frame_size)
        self._fb = mel_filterbank(config, self.sample_rate)
        self._compress = _compression_fn(config)
        self._samples = RingBuffer(capacity_factor * config.frame_size, 1)
        self._frames = None
        if model is not None:
            # A model that cannot take a (patch_frames, n_mels) patch fails here, not at
            # the first patch.
            patch_to_input(np.zeros((model.patch_frames, config.n_mels)), model)
            self._frames = RingBuffer(capacity_factor * model.patch_frames, config.n_mels)
        self._flushed = False
        self._pushes, self._push_total, self._push_min, self._push_max = 0, 0.0, float("inf"), 0.0
        self.frames_emitted = 0
        self.patches_emitted = 0

    def _drain(self, frames_out: list, patches_out: list) -> bool:
        cfg = self.config
        progressed = False
        # hop_size <= frame_size (enforced by MelConfig), so the advance
        # below never outruns the fill level.
        while self._samples.count >= cfg.frame_size:
            seg = self._samples.peek(cfg.frame_size).T  # (1, frame_size)
            self._samples.advance(cfg.hop_size)
            mel = _mel_frame(seg, self._window, cfg.fft_size, self._fb,
                             cfg.spectrum_type, self._compress)
            frames_out.append(mel)
            self.frames_emitted += 1
            progressed = True
            if self._frames is not None:
                self._frames.write(mel)
                if self._frames.count >= self.model.patch_frames:
                    patch = self._frames.read(self.model.patch_frames)
                    patches_out.append(run_patches(self.model, patch[None])[0])
                    self.patches_emitted += 1
        return progressed

    def _result(self, frames: list, patches: list) -> PushResult:
        n_mels = self.config.n_mels
        f = np.concatenate(frames) if frames else np.empty((0, n_mels))
        p = np.stack(patches) if patches else np.empty((0, 0), dtype=np.float32)
        return PushResult(frames=f, patch_outputs=p)

    def push(self, chunk) -> PushResult:
        """Feed samples; returns everything newly computable."""
        if self._flushed:
            raise AlreadyFlushed("push after flush")
        chunk = np.asarray(chunk, dtype=np.float64).ravel()
        start = time.perf_counter()
        frames: list = []
        patches: list = []
        i = 0
        while True:
            if i < chunk.size:
                take = min(self._samples.free, chunk.size - i)
                if take:
                    self._samples.write(chunk[i:i + take])
                    i += take
            progressed = self._drain(frames, patches)
            if i >= chunk.size and not progressed:
                break
        elapsed = time.perf_counter() - start
        self._pushes += 1
        self._push_total += elapsed
        self._push_min = min(self._push_min, elapsed)
        self._push_max = max(self._push_max, elapsed)
        return self._result(frames, patches)

    def flush(self) -> PushResult:
        """Close the stream; trailing partial frames and patches are dropped."""
        if self._flushed:
            raise AlreadyFlushed("flush called twice")
        frames: list = []
        patches: list = []
        self._drain(frames, patches)
        self._flushed = True
        return self._result(frames, patches)

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
