"""WAV ingestion, channel mixdown and band-limited resampling.

The canonical representation downstream is :class:`AudioBuffer`: a mono
float signal plus its sample rate. The WAV subset is defined once: the
``_CODECS`` table (16, 24 or 32-bit integer PCM, float32), the ``_FMT``
chunk layout and :func:`_parse_wav`'s header rule (1 to 8 channels, 1 kHz
to 384 kHz), which :func:`write_wav` applies to its own header too.
Channels are averaged, then resampled to the requested rate.

Resampling uses a windowed-sinc kernel (Kaiser window, 80 dB design) in
polyphase form, evaluated once per phase for each call. A phase's outputs
read the signal at a fixed stride, so each phase is one product of a
strided view with its taps; outputs whose window runs past the signal, and
all outputs when phases hold few of them, are gathered in blocks instead.
Filter rows are normalized to unit sum, so a constant signal stays
exactly constant at any rate pair, including at the edges.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AudioIOError, CorruptHeader, EmptyAudio, UnsupportedFormat

_WAVE_PCM = 0x0001
_WAVE_FLOAT = 0x0003
_WAVE_EXTENSIBLE = 0xFFFE

# (codec tag, bits) -> the little-endian dtype samples widen from, and their full
# scale. A 24-bit sample is assembled as the top three bytes of an int32, so it
# scales like 32-bit PCM.
_CODECS = {
    (_WAVE_PCM, 16): ("<i2", 2.0 ** 15),
    (_WAVE_PCM, 24): ("<i4", 2.0 ** 31),
    (_WAVE_PCM, 32): ("<i4", 2.0 ** 31),
    (_WAVE_FLOAT, 32): ("<f4", 1.0),
}
# write_wav's formats, as keys of _CODECS.
_WRITE_FORMATS = {"pcm16": (_WAVE_PCM, 16), "float32": (_WAVE_FLOAT, 32)}
# The fmt chunk: codec tag, channels, rate, byte rate, block align, bits.
_FMT = struct.Struct("<HHIIHH")

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
# Below this many outputs per phase, a phase's strided product costs more than its gather.
_MIN_PER_PHASE = 32


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
        samples = np.asarray(self.samples)
        if samples.ndim != 1 or samples.size == 0:
            raise EmptyAudio("buffer must hold a non-empty 1-D signal")
        # Checked before widening: a float32 signalling NaN warns when cast to float64.
        if not np.all(np.isfinite(samples)):
            raise ValueError("buffer contains non-finite samples")
        samples = samples.astype(np.float64, copy=False).view()
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
    """Return (codec, channels, rate, payload); codec is a key of ``_CODECS``.

    The payload is a view of ``data``. A header outside the WAV subset
    raises CorruptHeader or UnsupportedFormat.
    """
    data = memoryview(data)
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CorruptHeader("not a RIFF/WAVE file")
    fmt = payload = None
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
    if len(fmt) < _FMT.size:
        raise CorruptHeader("fmt chunk truncated")
    tag, channels, rate, _byte_rate, _block_align, bits = _FMT.unpack_from(fmt)
    if tag == _WAVE_EXTENSIBLE:
        if len(fmt) < 26:
            raise CorruptHeader("extensible fmt chunk truncated")
        (tag,) = struct.unpack_from("<H", fmt, 24)
    if rate <= 0:
        raise CorruptHeader(f"invalid sample rate {rate}")
    if not _MIN_RATE <= rate <= _MAX_RATE:
        raise UnsupportedFormat(
            f"sample rate {rate} Hz outside the supported {_MIN_RATE}..{_MAX_RATE}")
    if not 1 <= channels <= _MAX_CHANNELS:
        raise UnsupportedFormat(f"{channels} channels outside supported range 1..{_MAX_CHANNELS}")
    if (tag, bits) not in _CODECS:
        raise UnsupportedFormat(f"{bits}-bit samples of WAV codec tag 0x{tag:04X} not supported")
    return (tag, bits), channels, rate, payload


def _decode_payload(payload: bytes, codec, channels: int) -> np.ndarray:
    """Decode interleaved sample bytes to a (frames, channels) float64 array."""
    dtype, scale = _CODECS[codec]
    width = codec[1] // 8
    usable = (len(payload) // (channels * width)) * channels * width
    if usable == 0:
        raise EmptyAudio("data chunk holds no complete frame")
    raw = np.frombuffer(payload[:usable], dtype=np.uint8 if width == 3 else dtype)
    if width == 3:
        raw = np.pad(raw.reshape(-1, 3), ((0, 0), (1, 0))).view(dtype)[:, 0]
    # Checked before widening: a signalling NaN warns when cast to float64.
    if raw.dtype.kind == "f" and not np.all(np.isfinite(raw)):
        raise UnsupportedFormat("float WAV contains non-finite samples")
    # Scaled in place: dividing into a new array would hold two float64 copies.
    flat = raw.astype(np.float64)
    flat /= scale
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
    codec, channels, rate, payload = _parse_wav(Path(path).read_bytes())
    frames = _decode_payload(payload, codec, channels)
    # A single channel is taken as a view: the mean of one value is that value.
    # More are added a column at a time, ~10x faster than mean(axis=1) over short
    # rows, in mean's order (it pairs eight) and from its +0.0, so the bits match.
    mono = frames[:, 0]
    if channels > 1:
        cols = [frames[:, c] for c in range(channels)]
        if channels == 8:
            cols = [cols[0] + cols[1] + (cols[2] + cols[3]), cols[4] + cols[5] + (cols[6] + cols[7])]
        mono = cols[0] + 0.0
        for col in cols[1:]:
            mono += col
        mono /= channels
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


@lru_cache(maxsize=4)
def _phase_table(source: int, target: int, rows: int) -> tuple:
    """Taps of the first ``rows`` phases of ``source -> target``, and each row's sum.

    Row r holds the taps of output r's phase, ``r * down % up``, in float64;
    output j uses row ``j % up``. Every track at a rate pair shares them, so the
    arrays are read-only. A table holds ``min(n_out, up)`` rows, ``up = target / gcd``:
    65 KB for 44100 -> 16000, 6.5 MB for 44101 -> 16000 and under about 60 MB for
    any pair up to ``_MAX_RATE`` (384 kHz). So the cache keeps at most four tables,
    under 240 MB in the worst case, a few hundred KB for the common rates.
    """
    cutoff, beta, half = _kernel_design(source, target)
    g = np.gcd(source, target)
    up, down = target // g, source // g
    tau = (np.arange(rows, dtype=np.int64) * down % up)[:, None] / up - np.arange(-half, half + 1)
    win_arg = np.clip(1.0 - (tau / half) ** 2, 0.0, None)
    table = np.sinc(2.0 * cutoff * tau) * (np.i0(beta * np.sqrt(win_arg)) / np.i0(beta))
    table *= np.abs(tau) <= half
    tap_sums = np.einsum("ij,ij->i", np.ones_like(table), table)
    table.setflags(write=False)
    tap_sums.setflags(write=False)
    return table, tap_sums


def _resample_sinc(x: np.ndarray, source: int, target: int) -> np.ndarray:
    """Polyphase resampling from one cached table of the phases the output uses.

    Phases with ``_MIN_PER_PHASE`` outputs or more run strided; the edges,
    and every output of a pair with fewer (coprime rates on short inputs),
    are gathered. Both paths give the same bits.
    """
    _, _, half = _kernel_design(source, target)
    g = np.gcd(source, target)
    up, down = target // g, source // g
    offsets = np.arange(-half, half + 1, dtype=np.int64)
    # Window k covers x[k - half : k + half + 1], zero-padded outside x.
    windows = sliding_window_view(np.pad(x, half), offsets.size)
    out = np.empty(int(round(x.size * target / source)))
    table, tap_sums = _phase_table(source, target, min(out.size, up))
    # Outputs lo..hi-1 read only inside x, so each divides by its row's full tap sum;
    # the rest, and all outputs when phases hold few, are gathered below.
    lo = hi = out.size
    if out.size >= _MIN_PER_PHASE * up:
        # Phase r serves outputs r, r + up, ...: windows from r * down // up, down apart.
        for r in range(up):
            rows = windows[r * down // up::down][:len(range(r, out.size, up))]
            np.einsum("ij,j->i", rows, table[r], out=out[r::up])
            out[r::up] /= tap_sums[r]
        lo, hi = -(-half * up // down), -(-(x.size - half) * up // down)
    for span in (range(min(lo, out.size)), range(max(hi, lo), out.size)):
        for start in span[::_RESAMPLE_BLOCK]:
            # Output j reads window j * down // up: exact, where flooring a float
            # position can land one sample off.
            j = np.arange(start, min(start + _RESAMPLE_BLOCK, span.stop), dtype=np.int64)
            base = j * down // up
            taps = table[j % up]
            # Each row is divided by the sum of its taps inside x, so edges keep constants constant.
            at = base[:, None] + offsets
            inside = ((at >= 0) & (at < x.size)).astype(np.float64)
            out[j] = (np.einsum("ij,ij->i", windows[base], taps)
                      / np.einsum("ij,ij->i", inside, taps))
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

    Only files that :func:`load_pcm` reads back are written: the header
    goes through its header read, and samples must be finite in float32.
    A refusal raises ``ValueError`` before the file is opened.
    """
    if fmt not in _WRITE_FORMATS:
        raise ValueError(f"unknown wav format {fmt!r}")
    x = np.asarray(samples)
    x = x[:, None] if x.ndim == 1 else x
    if x.ndim != 2 or x.size == 0:
        raise ValueError("samples must be a non-empty 1-D or 2-D array")
    # Checked before any cast: widening a float32 signalling NaN warns, and a
    # finite float64 beyond float32's range would be written as inf.
    if not np.all(np.abs(x) <= np.finfo(np.float32).max):
        raise ValueError("samples contain non-finite values or values beyond float32's range")
    tag, bits = _WRITE_FORMATS[fmt]
    channels, rate = x.shape[1], _rate(sample_rate, "sample_rate")
    block_align = channels * bits // 8
    size = x.size * bits // 8
    try:
        header = (b"RIFF" + struct.pack("<I", 36 + size) + b"WAVE"
                  + b"fmt " + struct.pack("<I", _FMT.size)
                  + _FMT.pack(tag, channels, rate, rate * block_align, block_align, bits)
                  + b"data" + struct.pack("<I", size))
        _parse_wav(header)
    except (AudioIOError, struct.error) as exc:
        raise ValueError(f"load_pcm could not read this file back: {exc}") from None
    dtype, scale = _CODECS[tag, bits]
    if np.dtype(dtype).kind == "i":
        x = np.round(np.clip(x, -1.0, 1.0) * (scale - 1.0))
    Path(path).write_bytes(header + x.astype(dtype).tobytes())
