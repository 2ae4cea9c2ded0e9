"""WAV ingestion, channel mixdown and band-limited resampling.

The canonical representation downstream is :class:`AudioBuffer`: a mono
float signal plus its sample rate. Only RIFF/WAVE containers carrying
integer PCM (16, 24 or 32 bit) or IEEE float32 payloads are accepted,
with 1 to 8 channels. Multichannel audio is mixed down by averaging the
channels, then resampled to the requested rate.

Resampling uses a windowed-sinc kernel (Kaiser window, 80 dB design) in
polyphase form, evaluated once per phase for each call.
Filter rows are normalized to unit sum, so a constant signal stays
exactly constant at any rate pair, including at the edges.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CorruptHeader, EmptyAudio, UnsupportedFormat

_WAVE_PCM = 0x0001
_WAVE_FLOAT = 0x0003
_WAVE_EXTENSIBLE = 0xFFFE

_MAX_CHANNELS = 8
# Highest sample rate read or resampled; it bounds the resampler's phase table.
_MAX_RATE = 384000
# Lowest rate a WAV header may declare; it bounds the output length of upsampling a file.
_MIN_RATE = 1000

# Resampler quality preset: stopband attenuation and the fraction of the
# smaller Nyquist treated as guaranteed passband.
_STOP_ATTEN_DB = 80.0
_PASSBAND_FRACTION = 0.45
_RESAMPLE_BLOCK = 4096


def _rate(value, name: str) -> int:
    """``value`` as an int if it is a positive integer value (44100.0 is one), else ValueError."""
    if not (value > 0 and float(value).is_integer()):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class AudioBuffer:
    """Mono signal plus its sample rate.

    samples are float64, finite and non-empty. They are a read-only view:
    a float64 array given in is not copied, so it shares memory with the
    buffer and stays writable by its owner. Buffers produced by
    :func:`load_pcm` are hard-clipped to [-1, 1]; ``clipped`` counts how
    many samples exceeded that range before clipping.
    """

    samples: np.ndarray
    sample_rate: int
    clipped: int = 0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64).view()
        if samples.ndim != 1 or samples.size == 0:
            raise EmptyAudio("buffer must hold a non-empty 1-D signal")
        if not np.all(np.isfinite(samples)):
            raise ValueError("buffer contains non-finite samples")
        rate = _rate(self.sample_rate, "sample_rate")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", rate)
        object.__setattr__(self, "clipped", int(self.clipped))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate


def _parse_wav(data: bytes):
    """Return (format_tag, channels, rate, bits, payload); the payload is a view of ``data``."""
    data = memoryview(data)
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CorruptHeader("not a RIFF/WAVE file")
    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + size]
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            # Tolerate a declared size running past EOF: keep what is there.
            payload = body
        pos += 8 + size + (size & 1)
    if fmt is None:
        raise CorruptHeader("missing fmt chunk")
    if payload is None:
        raise CorruptHeader("missing data chunk")
    if len(fmt) < 16:
        raise CorruptHeader("fmt chunk truncated")
    tag, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _WAVE_EXTENSIBLE:
        if len(fmt) < 26:
            raise CorruptHeader("extensible fmt chunk truncated")
        (tag,) = struct.unpack_from("<H", fmt, 24)
    if rate <= 0:
        raise CorruptHeader(f"invalid sample rate {rate}")
    if not _MIN_RATE <= rate <= _MAX_RATE:
        raise UnsupportedFormat(
            f"sample rate {rate} Hz outside the supported {_MIN_RATE}..{_MAX_RATE}")
    return tag, channels, rate, bits, payload


def _decode_payload(payload: bytes, tag: int, bits: int, channels: int) -> np.ndarray:
    """Decode interleaved sample bytes to a (frames, channels) float64 array."""
    frame_bytes = channels * (bits // 8)
    if bits % 8 or frame_bytes == 0:
        raise UnsupportedFormat(f"{bits}-bit samples not supported")
    usable = (len(payload) // frame_bytes) * frame_bytes
    if usable == 0:
        raise EmptyAudio("data chunk holds no complete frame")
    payload = payload[:usable]

    if tag == _WAVE_FLOAT:
        if bits != 32:
            raise UnsupportedFormat(f"{bits}-bit float WAV not supported")
        f32 = np.frombuffer(payload, dtype="<f4")
        # Checked before widening: a signalling NaN warns when cast to float64.
        if not np.all(np.isfinite(f32)):
            raise UnsupportedFormat("float WAV contains non-finite samples")
        flat = f32.astype(np.float64)
    elif tag == _WAVE_PCM:
        # Scaled in place: dividing into a new array would hold two float64 copies.
        if bits == 16:
            flat = np.frombuffer(payload, dtype="<i2").astype(np.float64)
            flat /= 2.0 ** 15
        elif bits == 32:
            flat = np.frombuffer(payload, dtype="<i4").astype(np.float64)
            flat /= 2.0 ** 31
        elif bits == 24:
            raw = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
            vals = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
            vals = np.where(vals & 0x800000, vals - 0x1000000, vals)
            flat = vals.astype(np.float64)
            flat /= 2.0 ** 23
        else:
            raise UnsupportedFormat(f"{bits}-bit integer PCM not supported")
    else:
        raise UnsupportedFormat(f"WAV codec tag 0x{tag:04X} not supported")
    return flat.reshape(-1, channels)


def load_pcm(path, target_rate: int | None = None) -> AudioBuffer:
    """Decode a WAV file to a mono buffer at ``target_rate``.

    ``None`` keeps the file's own rate. Channels are averaged before
    resampling. Samples outside [-1, 1] after resampling are
    hard-clipped; the count of clipped samples is reported on the
    returned buffer.
    """
    if target_rate is not None:
        target_rate = _rate(target_rate, "target_rate")
    data = Path(path).read_bytes()
    tag, channels, rate, bits, payload = _parse_wav(data)
    if not 1 <= channels <= _MAX_CHANNELS:
        raise UnsupportedFormat(f"{channels} channels outside supported range 1..{_MAX_CHANNELS}")
    frames = _decode_payload(payload, tag, bits, channels)
    # A single channel is taken as a view: the mean of one value is that value.
    mono = frames[:, 0] if channels == 1 else frames.mean(axis=1)
    buf = AudioBuffer(mono, rate)
    if target_rate is not None:
        buf = resample(buf, target_rate)
    clipped = int(np.count_nonzero(buf.samples > 1.0) + np.count_nonzero(buf.samples < -1.0))
    samples = np.clip(buf.samples, -1.0, 1.0) if clipped else buf.samples
    return AudioBuffer(samples, buf.sample_rate, clipped=clipped)


def _kernel_design(source: int, target: int):
    """Cutoff (cycles per input sample), Kaiser beta and half-width in taps."""
    low = min(source, target)
    pass_hz = _PASSBAND_FRACTION * (low / 2.0)
    stop_hz = low / 2.0
    cutoff = (pass_hz + stop_hz) / 2.0 / source
    width = (stop_hz - pass_hz) / source
    beta = 0.1102 * (_STOP_ATTEN_DB - 8.7)
    n_taps = int(np.ceil((_STOP_ATTEN_DB - 8.0) / (2.285 * 2.0 * np.pi * width)))
    half = max(n_taps // 2, 4)
    return cutoff, beta, half


def _resample_sinc(x: np.ndarray, source: int, target: int) -> np.ndarray:
    """Polyphase resampling from one table of the phases the output uses.

    Output j uses phase ``j * down % up``, which repeats with period
    ``up = target / gcd``, so the table holds ``min(n_out, up)`` rows of taps
    in float64: 65 KB for 44100 -> 16000, 6.5 MB for 44101 -> 16000, and
    under about 60 MB for any rate pair up to ``_MAX_RATE`` (384 kHz).
    """
    cutoff, beta, half = _kernel_design(source, target)
    g = np.gcd(source, target)
    up, down = target // g, source // g
    offsets = np.arange(-half, half + 1, dtype=np.int64)
    # Window k covers x[k - half : k + half + 1], zero-padded outside x;
    # inside marks which of those taps fall within x.
    windows = sliding_window_view(np.pad(x, half), offsets.size)
    inside = sliding_window_view(np.pad(np.ones(x.size), half), offsets.size)
    out = np.empty(int(round(x.size * target / source)))
    # Row r holds the taps of output r's phase, r * down % up; output j uses row j % up.
    tau = (np.arange(min(out.size, up), dtype=np.int64) * down % up)[:, None] / up - offsets
    win_arg = np.clip(1.0 - (tau / half) ** 2, 0.0, None)
    table = np.sinc(2.0 * cutoff * tau) * (np.i0(beta * np.sqrt(win_arg)) / np.i0(beta))
    table *= np.abs(tau) <= half
    for start in range(0, out.size, _RESAMPLE_BLOCK):
        # Output j reads sample j * down // up: exact, where flooring a float
        # position can land one sample off.
        j = np.arange(start, min(start + _RESAMPLE_BLOCK, out.size), dtype=np.int64)
        base = j * down // up
        taps = table[j % up]
        # Each row is divided by the sum of its taps inside x, so edges keep constants constant.
        out[start:start + base.size] = (np.einsum("ij,ij->i", windows[base], taps)
                                        / np.einsum("ij,ij->i", inside[base], taps))
    return out


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Resample to ``target_rate``; identity when the rates already match."""
    target_rate = _rate(target_rate, "target_rate")
    if target_rate == buf.sample_rate:
        return buf
    if max(buf.sample_rate, target_rate) > _MAX_RATE:
        raise ValueError(f"cannot resample {buf.sample_rate} -> {target_rate} Hz: "
                         f"rates above {_MAX_RATE} are not supported")
    y = _resample_sinc(buf.samples, buf.sample_rate, target_rate)
    if y.size == 0:
        raise EmptyAudio("resampling produced no output samples")
    return AudioBuffer(y, target_rate, clipped=buf.clipped)


def write_wav(path, samples, sample_rate: int, fmt: str = "pcm16") -> None:
    """Write a mono or multichannel WAV file (pcm16 or float32).

    Only files that :func:`load_pcm` reads back are written: a rate,
    channel count or non-finite sample it would refuse raises
    ``ValueError`` before the file is opened.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.size == 0:
        raise ValueError("samples must be a non-empty 1-D or 2-D array")
    channels = x.shape[1]
    sample_rate = _rate(sample_rate, "sample_rate")
    if not _MIN_RATE <= sample_rate <= _MAX_RATE:
        raise ValueError(f"sample rate {sample_rate} Hz outside the supported "
                         f"{_MIN_RATE}..{_MAX_RATE}")
    if not 1 <= channels <= _MAX_CHANNELS:
        raise ValueError(f"{channels} channels outside supported range 1..{_MAX_CHANNELS}")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples contain non-finite values")
    if fmt == "pcm16":
        payload = np.round(np.clip(x, -1.0, 1.0) * 32767.0).astype("<i2").tobytes()
        bits, tag = 16, _WAVE_PCM
    elif fmt == "float32":
        payload = x.astype("<f4").tobytes()
        bits, tag = 32, _WAVE_FLOAT
    else:
        raise ValueError(f"unknown wav format {fmt!r}")
    block_align = channels * bits // 8
    header = (
        b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, tag, channels, sample_rate,
                                sample_rate * block_align, block_align, bits)
        + b"data" + struct.pack("<I", len(payload))
    )
    Path(path).write_bytes(header + payload)
