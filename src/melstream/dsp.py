"""Configurable mel-spectrogram front end.

The pipeline is: slice the signal into frames (no tail padding), apply a
window, zero-pad to the FFT size, take the magnitude or power spectrum,
project through a triangular mel filterbank, compress. Every stage is
configurable so the output can be matched to the front ends used by
common audio analysis stacks.

Windows are periodic (DFT-even). Filterbank triangles are evaluated
continuously at the FFT bin frequencies with unit peak; ``filter_norm``
can rescale them to unit area or by 2/bandwidth. Two named presets are
provided; they are nominal reconstructions of widely used front ends,
not byte-compatibility guarantees with any third-party extractor.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .audio_io import AudioBuffer
from .errors import ConfigError, EmptyFilter, SignalTooShort

# Allowed names per MelConfig field; its checks and the melspec flag choices read them here.
_CHOICES = {
    "window": ("hann", "hamming", "blackman-harris", "rectangular"),
    "mel_scale": ("htk", "slaney"),
    "filter_norm": ("none", "area", "band-width"),
    "spectrum_type": ("magnitude", "power"),
}

LOG_FLOOR = 1e-10

# Bounds on what a config can make the front end allocate: the FFT size, and the
# n_mels x (fft_size // 2 + 1) filterbank weights (64 MB of float64). The presets use 96 x 257.
_MAX_FFT = 1 << 16
_MAX_FILTER_WEIGHTS = 1 << 23

# Frames per mel kernel call, offline and per push; rows do not depend on it, 256 cost memory.
_MEL_BLOCK = 64

# No whitespace: the spec is written to a manifest line and must come back unchanged.
_SHIFTED_LOG_RE = re.compile(r"shifted-log\(([^()\s]+)\)")

# Slaney mel scale constants: linear below the break, log above.
_SLANEY_BREAK_HZ = 1000.0
_SLANEY_BREAK_MEL = 15.0
_SLANEY_LINEAR = 200.0 / 3.0
_SLANEY_LOGSTEP = math.log(6.4) / 27.0


def hz_to_mel(f, scale: str = "htk"):
    """Map frequency in Hz to mel. Accepts scalars or arrays."""
    f = np.asarray(f, dtype=np.float64)
    if scale == "htk":
        m = 2595.0 * np.log10(1.0 + f / 700.0)
    elif scale == "slaney":
        m = np.where(
            f < _SLANEY_BREAK_HZ,
            f / _SLANEY_LINEAR,
            _SLANEY_BREAK_MEL + np.log(np.maximum(f, _SLANEY_BREAK_HZ) / _SLANEY_BREAK_HZ) / _SLANEY_LOGSTEP,
        )
    else:
        raise ConfigError(f"unknown mel scale {scale!r}")
    return m if m.ndim else float(m)


def mel_to_hz(m, scale: str = "htk"):
    """Inverse of :func:`hz_to_mel`."""
    m = np.asarray(m, dtype=np.float64)
    if scale == "htk":
        f = 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    elif scale == "slaney":
        f = np.where(
            m < _SLANEY_BREAK_MEL,
            m * _SLANEY_LINEAR,
            _SLANEY_BREAK_HZ * np.exp(_SLANEY_LOGSTEP * (np.maximum(m, _SLANEY_BREAK_MEL) - _SLANEY_BREAK_MEL)),
        )
    else:
        raise ConfigError(f"unknown mel scale {scale!r}")
    return f if f.ndim else float(f)


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


def parse_compression(value: str) -> tuple[str, float]:
    """Split a compression spec into (kind, scale). Scale is 0 unless shifted-log."""
    if value in ("none", "natural-log", "log10"):
        return value, 0.0
    m = _SHIFTED_LOG_RE.fullmatch(value)
    if m:
        try:
            scale = float(m.group(1))
        except ValueError:
            raise ConfigError(f"bad shifted-log scale in {value!r}") from None
        if not math.isfinite(scale) or scale <= 0:
            raise ConfigError(f"shifted-log scale must be positive, got {value!r}")
        return "shifted-log", scale
    raise ConfigError(f"unknown compression {value!r}")


@dataclass(frozen=True)
class MelConfig:
    """Full description of one mel front end.

    ``compression`` is one of none, natural-log, log10 or
    shifted-log(SCALE), e.g. ``shifted-log(10000)``.
    """

    frame_size: int
    hop_size: int
    n_mels: int
    window: str = "hann"
    fft_size: int | None = None
    f_min: float = 0.0
    f_max: float = 8000.0
    mel_scale: str = "htk"
    filter_norm: str = "none"
    spectrum_type: str = "power"
    compression: str = "none"

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if _field_type(f) is int and v is not None:
                # Stored as node int params are: True is 1, np.int64(8) is 8.
                try:
                    object.__setattr__(self, f.name, operator.index(v))
                except TypeError:
                    raise ConfigError(f"{f.name} must be an integer, got {v!r}") from None
        if self.frame_size < 1:
            raise ConfigError(f"frame_size must be >= 1, got {self.frame_size}")
        if not 1 <= self.hop_size <= self.frame_size:
            raise ConfigError(f"hop_size must be in 1..frame_size, got {self.hop_size}")
        fft = self.fft_size if self.fft_size is not None else _next_pow2(self.frame_size)
        if fft < self.frame_size or fft & (fft - 1):
            raise ConfigError(f"fft_size must be a power of two >= frame_size, got {fft}")
        if fft > _MAX_FFT:
            raise ConfigError(f"fft_size must be at most {_MAX_FFT}, got {fft}")
        object.__setattr__(self, "fft_size", int(fft))
        if self.n_mels < 1:
            raise ConfigError(f"n_mels must be >= 1, got {self.n_mels}")
        if self.n_mels * (fft // 2 + 1) > _MAX_FILTER_WEIGHTS:
            raise ConfigError(f"n_mels {self.n_mels} x {fft // 2 + 1} FFT bins exceeds the "
                              f"{_MAX_FILTER_WEIGHTS} filterbank weights allowed")
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name.replace('_', ' ')} {getattr(self, name)!r}")
        if not (math.isfinite(self.f_min) and math.isfinite(self.f_max)):
            raise ConfigError("f_min and f_max must be finite")
        if self.f_min < 0 or self.f_min >= self.f_max:
            raise ConfigError(f"need 0 <= f_min < f_max, got {self.f_min}..{self.f_max}")
        parse_compression(self.compression)

    def to_kv(self) -> dict[str, str]:
        """Serialize to a flat key-value mapping (field names as keys)."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = _float_text(float(v)) if _field_type(f) is float else str(v)
        return out

    @classmethod
    def from_kv(cls, kv: dict[str, str]) -> "MelConfig":
        """Rebuild a config from :meth:`to_kv` output."""
        known = {f.name for f in fields(cls)}
        unknown = set(kv) - known
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        missing = known - set(kv)
        if missing:
            raise ConfigError(f"missing config keys {sorted(missing)}")
        try:
            return cls(**{f.name: _field_type(f)(kv[f.name]) for f in fields(cls)})
        except ValueError as e:
            raise ConfigError(f"bad config value: {e}") from None


def _float_text(v: float) -> str:
    """``format(v, "g")`` when that text reads back as ``v``, else the exact ``repr``."""
    text = format(v, "g")
    return text if float(text) == v else repr(float(v))


def _field_type(f) -> type:
    """The type a field's text is parsed with, read from its annotation (``int | None`` is int)."""
    return {"int": int, "float": float, "str": str}[f.type.split(" | ")[0]]


PRESET_SAMPLE_RATE = 16000

PRESETS: dict[str, MelConfig] = {
    "musicnn-96": MelConfig(
        frame_size=512, hop_size=256, n_mels=96, window="hann", fft_size=512,
        f_min=0.0, f_max=8000.0, mel_scale="htk", filter_norm="none",
        spectrum_type="power", compression="shifted-log(10000)",
    ),
    "vgg-64": MelConfig(
        frame_size=400, hop_size=160, n_mels=64, window="hann", fft_size=512,
        f_min=0.0, f_max=8000.0, mel_scale="htk", filter_norm="none",
        spectrum_type="power", compression="natural-log",
    ),
}


def preset(name: str) -> MelConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}, have {sorted(PRESETS)}")
    return PRESETS[name]


def window_vector(kind: str, length: int) -> np.ndarray:
    """Periodic window of the given length."""
    if kind not in _CHOICES["window"]:
        raise ConfigError(f"unknown window {kind!r}")
    if kind == "rectangular":
        return np.ones(length)
    n = np.arange(length, dtype=np.float64)
    phase = 2.0 * np.pi * n / length
    if kind == "hann":
        return 0.5 - 0.5 * np.cos(phase)
    if kind == "hamming":
        return 0.54 - 0.46 * np.cos(phase)
    # 4-term blackman-harris
    return (0.35875 - 0.48829 * np.cos(phase)
            + 0.14128 * np.cos(2.0 * phase) - 0.01168 * np.cos(3.0 * phase))


def frame_count(n_samples: int, frame_size: int, hop_size: int) -> int:
    if n_samples < frame_size:
        raise SignalTooShort(f"signal of {n_samples} samples shorter than one frame ({frame_size})")
    return (n_samples - frame_size) // hop_size + 1


def _frame_view(x: np.ndarray, frame_size: int, hop_size: int) -> np.ndarray:
    """Every whole frame of ``x`` as a (t, frame_size) view; t may be 0.

    A direct ndarray costs ~1 µs; ``sliding_window_view`` costs >10 µs on every push.
    """
    x = np.ascontiguousarray(x)
    t = max((x.size - frame_size) // hop_size + 1, 0)
    return np.ndarray((t, frame_size), x.dtype, x, strides=(hop_size * x.itemsize, x.itemsize))


def _spectrum(windowed: np.ndarray, fft_size: int, spectrum_type: str) -> np.ndarray:
    spec = np.fft.rfft(windowed, n=fft_size)
    if spectrum_type == "power":
        return spec.real ** 2 + spec.imag ** 2
    return np.abs(spec)


def mel_filterbank(config: MelConfig, sample_rate: int) -> np.ndarray:
    """Triangular filterbank as an (n_mels, fft_size // 2 + 1) matrix."""
    if config.f_max > sample_rate / 2.0:
        raise ConfigError(
            f"f_max {config.f_max} exceeds Nyquist {sample_rate / 2.0} at {sample_rate} Hz")
    mel_pts = np.linspace(hz_to_mel(config.f_min, config.mel_scale),
                          hz_to_mel(config.f_max, config.mel_scale),
                          config.n_mels + 2)
    hz_pts = mel_to_hz(mel_pts, config.mel_scale)
    bin_hz = np.arange(config.fft_size // 2 + 1) * (sample_rate / config.fft_size)
    # Row i is filter i: columns of its lower edge, centre and upper edge in Hz.
    lo, center, hi = hz_pts[:-2, None], hz_pts[1:-1, None], hz_pts[2:, None]
    fb = np.clip(np.minimum((bin_hz - lo) / (center - lo), (hi - bin_hz) / (hi - center)),
                 0.0, None)
    empty = np.flatnonzero(~fb.any(axis=1))
    if empty.size:
        i = empty[0]
        raise EmptyFilter(
            f"mel filter {i} ({hz_pts[i]:.1f}-{hz_pts[i + 2]:.1f} Hz) has no nonzero weight "
            f"at fft_size {config.fft_size}")
    if config.filter_norm == "area":
        fb /= fb.sum(axis=1, keepdims=True)
    elif config.filter_norm == "band-width":
        fb *= 2.0 / (hi - lo)
    return fb


def _compression_fn(config: MelConfig):
    kind, scale = parse_compression(config.compression)
    if kind == "none":
        return lambda x: x
    if kind == "natural-log":
        return lambda x: np.log(np.maximum(x, LOG_FLOOR))
    if kind == "log10":
        return lambda x: np.log10(np.maximum(x, LOG_FLOOR))
    return lambda x: np.log10(1.0 + scale * x)


@lru_cache(maxsize=4)
def _front_end(config: MelConfig, sample_rate: int) -> tuple:
    """The kernel's trailing arguments: window, FFT size, filterbank, spectrum type, compression.

    Built once per (config, rate) and shared, so its arrays are read-only. ConfigError means the
    config cannot run at the rate: f_max above Nyquist (so any rate <= 0) or an empty mel filter.
    """
    window = window_vector(config.window, config.frame_size)
    filterbank = mel_filterbank(config, sample_rate)
    window.setflags(write=False)
    filterbank.setflags(write=False)
    return window, config.fft_size, filterbank, config.spectrum_type, _compression_fn(config)


def _mel_frame(segments: np.ndarray, window: np.ndarray, fft_size: int,
               filterbank: np.ndarray, spectrum_type: str, compress) -> np.ndarray:
    # Single shared kernel, (k, frame_size) segments to (k, n_mels) rows, called on blocks
    # of up to _MEL_BLOCK frames offline and per push. One mat-vec per frame keeps a row
    # independent of k; a (k, bins) @ filterbank.T GEMM does not.
    spec = _spectrum(segments * window, fft_size, spectrum_type)
    return compress(np.matmul(filterbank, spec[:, :, None])[:, :, 0])


@dataclass(frozen=True)
class MelSpectrogram:
    """Mel frames (T, n_mels) plus the config and rate that produced them.

    ``frames`` is a read-only view: a float64 array given in is not
    copied, so it shares memory with the spectrogram and stays writable
    by its owner.
    """

    frames: np.ndarray
    config: MelConfig
    sample_rate: int

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64).view()
        if frames.ndim != 2 or frames.shape[1] != self.config.n_mels:
            raise ValueError(f"frames must be (T, {self.config.n_mels}), got {frames.shape}")
        if not np.all(np.isfinite(frames)):
            raise ValueError("mel frames contain non-finite values")
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def mel_spectrogram(buf: AudioBuffer, config: MelConfig) -> MelSpectrogram:
    """Offline mel spectrogram of a whole buffer."""
    x = buf.samples
    t = frame_count(x.size, config.frame_size, config.hop_size)
    front = _front_end(config, buf.sample_rate)
    segments = _frame_view(x, config.frame_size, config.hop_size)
    out = np.empty((t, config.n_mels))
    for i in range(0, t, _MEL_BLOCK):
        out[i:i + _MEL_BLOCK] = _mel_frame(segments[i:i + _MEL_BLOCK], *front)
    return MelSpectrogram(out, config, buf.sample_rate)
