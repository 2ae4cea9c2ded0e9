import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import melstream as ms
from melstream import audio_io
from melstream.errors import CorruptHeader, EmptyAudio, UnsupportedFormat

from oracles import ref_resample, ref_resample_blocked
from util import tone


def build_wav(payload: bytes, tag=1, channels=1, rate=16000, bits=16) -> bytes:
    """Hand-assembled RIFF container, independent of write_wav."""
    block_align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * block_align,
                      block_align, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) % 2:
        chunks += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


class TestDecoding:
    def test_pcm16_round_trip(self, tmp_path):
        x = tone(440.0, 0.25)
        path = tmp_path / "t.wav"
        ms.write_wav(path, x, 16000)
        buf = ms.load_pcm(path)
        assert buf.sample_rate == 16000
        assert len(buf) == x.size
        assert np.max(np.abs(buf.samples - x)) < 1e-3

    def test_float32_round_trip_exact(self, tmp_path):
        x = np.linspace(-1.0, 1.0, 1000)
        path = tmp_path / "t.wav"
        ms.write_wav(path, x, 8000, fmt="float32")
        buf = ms.load_pcm(path)
        assert np.array_equal(buf.samples, x.astype(np.float32).astype(np.float64))

    def test_pcm16_known_codes(self, tmp_path):
        payload = struct.pack("<4h", 0, 16384, -16384, -32768)
        path = tmp_path / "t.wav"
        path.write_bytes(build_wav(payload))
        buf = ms.load_pcm(path)
        assert np.allclose(buf.samples, [0.0, 0.5, -0.5, -1.0])

    def test_pcm24_decoding(self, tmp_path):
        def pack24(v):
            return struct.pack("<i", v)[:3]
        vals = [0, 0x400000, -0x400000, 0x7FFFFF, -0x800000]
        payload = b"".join(pack24(v) for v in vals)
        path = tmp_path / "t.wav"
        path.write_bytes(build_wav(payload, bits=24))
        buf = ms.load_pcm(path)
        expect = np.array(vals, dtype=np.float64) / 2 ** 23
        assert np.allclose(buf.samples, expect)

    def test_pcm32_decoding(self, tmp_path):
        payload = struct.pack("<3i", 0, 2 ** 30, -(2 ** 31))
        path = tmp_path / "t.wav"
        path.write_bytes(build_wav(payload, bits=32))
        buf = ms.load_pcm(path)
        assert np.allclose(buf.samples, [0.0, 0.5, -1.0])

    def test_stereo_mixdown_is_mean(self, tmp_path):
        left = np.full(100, 0.5, dtype=np.float32)
        right = np.full(100, -0.25, dtype=np.float32)
        payload = np.stack([left, right], axis=1).astype("<f4").tobytes()
        path = tmp_path / "t.wav"
        path.write_bytes(build_wav(payload, tag=3, channels=2, bits=32))
        buf = ms.load_pcm(path)
        assert np.allclose(buf.samples, 0.125)

    @pytest.mark.parametrize("channels", range(1, 9))
    @pytest.mark.parametrize("codec", sorted(audio_io._CODECS), ids=lambda c: f"tag{c[0]}-{c[1]}bit")
    def test_mixdown_bits_equal_mean(self, tmp_path, codec, channels):
        # load_pcm adds channel columns itself; its bits must be mean(axis=1)'s,
        # and a single channel is that channel. Float32 values span exponents
        # -60..60, where the order of an 8-channel sum changes the result.
        tag, bits = codec
        rng = np.random.default_rng(bits * 10 + channels)
        shape = (4096, channels)
        if tag == audio_io._WAVE_FLOAT:
            exponents = rng.integers(-60, 61, shape)
            exponents[shape[0] // 2:] = rng.integers(-60, 1, (shape[0] // 2, channels))
            values = (rng.standard_normal(shape) * 2.0 ** exponents).astype("<f4")
            values[:4] = -0.0
            values[4:8, 0] = 0.0
            payload, frames = values.tobytes(), values.astype(np.float64)
        else:
            codes = rng.integers(-2 ** (bits - 1), 2 ** (bits - 1), shape)
            raw = codes.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :bits // 8]
            payload, frames = raw.tobytes(), codes / 2.0 ** (bits - 1)
        path = tmp_path / "t.wav"
        path.write_bytes(build_wav(payload, tag=tag, channels=channels, bits=bits))
        expect = np.clip(frames[:, 0] if channels == 1 else frames.mean(axis=1), -1.0, 1.0)
        got = ms.load_pcm(path).samples
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
        if tag == audio_io._WAVE_FLOAT and channels == 8:
            in_order = np.clip(sum(frames[:, c] for c in range(8)) / 8, -1.0, 1.0)
            assert not np.array_equal(in_order, expect)

    def test_clipping_counted_and_applied(self, tmp_path):
        x = np.array([0.0, 1.5, -2.0, 0.5], dtype=np.float32)
        path = tmp_path / "t.wav"
        path.write_bytes(build_wav(x.astype("<f4").tobytes(), tag=3, bits=32))
        buf = ms.load_pcm(path)
        assert buf.clipped == 2
        assert np.max(np.abs(buf.samples)) <= 1.0

    def test_peak_memory_per_sample(self, tmp_path):
        # The file's bytes, the decoded float64 signal (a mono file is not mixed down
        # into a copy) and a bool mask come to about 1.4 x 8 bytes per sample; one more
        # float64 temporary (a copy of the data chunk, a mixed-down or unscaled copy, or
        # |x| for the clip count) passes 2 x 8.
        path = tmp_path / "t.wav"
        ms.write_wav(path, tone(440.0, 10.0), 16000)
        tracemalloc.start()
        try:
            buf = ms.load_pcm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * len(buf)

    def test_peak_memory_upsampling(self, tmp_path):
        # 8 kHz to 16 kHz, per output sample: the file's bytes (1), the decoded signal
        # and its zero-padded copy (4 each) and the float64 output (8) come to about 17
        # bytes; one more float64 array as long as the input (4), such as a padded
        # ones array or an index or divisor per output, passes 2.5 x 8.
        path = tmp_path / "t.wav"
        ms.write_wav(path, tone(440.0, 10.0, sr=8000), 8000)
        tracemalloc.start()
        try:
            buf = ms.load_pcm(path, 16000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * len(buf)

    def test_extra_chunks_are_skipped(self, tmp_path):
        payload = struct.pack("<2h", 1000, -1000)
        junk = b"LIST" + struct.pack("<I", 5) + b"junk\x00" + b"\x00"
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        chunks = junk + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        chunks += b"data" + struct.pack("<I", len(payload)) + payload
        data = b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks
        path = tmp_path / "t.wav"
        path.write_bytes(data)
        assert len(ms.load_pcm(path)) == 2


class TestDecodingErrors:
    def test_not_riff(self, tmp_path):
        path = tmp_path / "t.wav"
        path.write_bytes(b"OGGS" + b"\x00" * 64)
        with pytest.raises(CorruptHeader):
            ms.load_pcm(path)

    def test_empty_data_chunk(self, tmp_path):
        path = tmp_path / "t.wav"
        path.write_bytes(build_wav(b""))
        with pytest.raises(EmptyAudio):
            ms.load_pcm(path)

    def test_unsupported_bit_depth(self, tmp_path):
        path = tmp_path / "t.wav"
        path.write_bytes(build_wav(b"\x80\x80", bits=8))
        with pytest.raises(UnsupportedFormat):
            ms.load_pcm(path)

    def test_unsupported_codec_tag(self, tmp_path):
        path = tmp_path / "t.wav"
        path.write_bytes(build_wav(struct.pack("<2h", 0, 0), tag=7))
        with pytest.raises(UnsupportedFormat):
            ms.load_pcm(path)

    def test_too_many_channels(self, tmp_path):
        payload = struct.pack("<9h", *([0] * 9))
        path = tmp_path / "t.wav"
        path.write_bytes(build_wav(payload, channels=9))
        with pytest.raises(UnsupportedFormat):
            ms.load_pcm(path)

    def test_rate_above_cap_rejected_before_any_table(self, tmp_path):
        # Resampling a 4294967295 Hz header to 16 kHz would ask for a 117 GiB
        # phase table; no target is given here, so nothing large is allocated.
        path = tmp_path / "t.wav"
        ms.write_wav(path, tone(440.0, 0.01), 16000)
        data = bytearray(path.read_bytes())
        for rate, ok in ((384000, True), (384001, False),
                         (0xFFFFFFFF, False)):
            struct.pack_into("<I", data, 24, rate)
            path.write_bytes(bytes(data))
            if ok:
                assert ms.load_pcm(path).sample_rate == rate
            else:
                with pytest.raises(UnsupportedFormat, match="sample rate"):
                    ms.load_pcm(path)

    def test_rate_below_floor_rejected(self, tmp_path):
        # A 1 Hz header would turn 100 frames into 1.6 M samples at 16 kHz.
        path = tmp_path / "t.wav"
        for rate, error in ((0, CorruptHeader), (1, UnsupportedFormat),
                            (999, UnsupportedFormat), (1000, None)):
            path.write_bytes(build_wav(struct.pack("<100h", *range(100)), rate=rate))
            if error is None:
                assert len(ms.load_pcm(path, 16000)) == 1600
            else:
                with pytest.raises(error, match="sample rate"):
                    ms.load_pcm(path, 16000)

    def test_signalling_nan_rejected_without_warning(self, tmp_path):
        payload = struct.pack("<f", 0.25) + struct.pack("<I", 0x7F800001)
        path = tmp_path / "t.wav"
        path.write_bytes(build_wav(payload, tag=3, bits=32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnsupportedFormat, match="non-finite"):
                ms.load_pcm(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            ms.load_pcm(tmp_path / "nope.wav")


class TestResampler:
    def test_same_rate_is_identity(self):
        buf = ms.AudioBuffer(np.ones(100), 16000)
        assert ms.resample(buf, 16000) is buf

    @pytest.mark.parametrize("source,target", [
        (44100, 16000), (48000, 16000), (16000, 44100),
        (22050, 16000), (8000, 16000), (16000, 12000),
    ])
    def test_constant_signal_stays_constant(self, source, target):
        buf = ms.AudioBuffer(np.full(source, 0.7), source)
        out = ms.resample(buf, target)
        assert out.sample_rate == target
        assert len(out) == int(round(source * target / source))
        assert np.max(np.abs(out.samples - 0.7)) < 1e-9

    def test_output_length_rule(self):
        buf = ms.AudioBuffer(np.ones(1001), 44100)
        out = ms.resample(buf, 16000)
        assert len(out) == int(round(1001 * 16000 / 44100))

    def test_tone_survives_downsample(self):
        # a windowed in-band tone keeps its shape through 44100 -> 16000
        sr_in, sr_out, freq = 44100, 16000, 1000.0
        n = sr_in
        t = np.arange(n) / sr_in
        env = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
        x = env * np.sin(2.0 * np.pi * freq * t)
        out = ms.resample(ms.AudioBuffer(x, sr_in), sr_out).samples
        t2 = np.arange(out.size) / sr_out
        env2 = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(out.size) / out.size)
        expect = env2 * np.sin(2.0 * np.pi * freq * t2)
        err = np.sqrt(np.mean((out - expect) ** 2))
        assert err < 1e-3

    def test_high_frequencies_removed(self):
        # content above the target Nyquist must be attenuated, not aliased
        sr_in, sr_out = 44100, 16000
        t = np.arange(sr_in) / sr_in
        x = np.sin(2.0 * np.pi * 15000.0 * t)  # above 8 kHz target Nyquist
        out = ms.resample(ms.AudioBuffer(x, sr_in), sr_out).samples
        interior = out[1000:-1000]
        assert np.sqrt(np.mean(interior ** 2)) < 0.01

    # Pairs from the constant test plus a coprime one (up = 16000 phases).
    # 2 s keeps the oracle's float positions j * source / target from
    # drifting away from the exact ones as j grows.
    @pytest.mark.parametrize("source,target", [
        (44100, 16000), (48000, 16000), (16000, 44100), (22050, 16000),
        (8000, 16000), (16000, 12000), (44101, 16000),
    ])
    def test_matches_direct_oracle(self, source, target):
        x = np.random.default_rng(source + target).standard_normal(2 * source)
        out = ms.resample(ms.AudioBuffer(x, source), target).samples
        ref = ref_resample(x, source, target)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) < 1e-10

    @pytest.mark.parametrize("source,target", [(44100, 16000), (16000, 44100), (44101, 16000)])
    def test_input_shorter_than_kernel_matches_oracle(self, source, target):
        x = np.random.default_rng(7).standard_normal(7)
        out = ms.resample(ms.AudioBuffer(x, source), target).samples
        assert np.max(np.abs(out - ref_resample(x, source, target))) < 1e-10

    @pytest.mark.parametrize("source,target", [(44100, 16000), (16000, 44100), (44101, 16000)])
    def test_output_independent_of_block_size(self, monkeypatch, source, target):
        # Bit-identical rows for any blocking: what a chunked resampler
        # needs to agree with the offline one. 4500 outputs: more than
        # one 4096-output block.
        x = np.random.default_rng(3).standard_normal(4500 * source // target)
        outs = []
        for block in (1, 7, 4096, 65536):
            monkeypatch.setattr(audio_io, "_RESAMPLE_BLOCK", block)
            outs.append(ms.resample(ms.AudioBuffer(x, source), target).samples)
        for out in outs[1:]:
            assert np.array_equal(out, outs[0])

    # The six pairs at an input shorter than one window, inputs with few
    # outputs per phase (gathered), and 2.3 s (strided phases for all but 44101).
    @pytest.mark.parametrize("length", [7, 30, 1000, 2.3])
    @pytest.mark.parametrize("source,target", [
        (44100, 16000), (48000, 16000), (22050, 16000), (16000, 44100), (8000, 16000),
        (44101, 16000),
    ])
    def test_bits_equal_blocked_reference(self, source, target, length):
        # An int length is samples, a float one seconds.
        n = int(length * source) if isinstance(length, float) else length
        x = np.random.default_rng(n).standard_normal(n)
        out = audio_io._resample_sinc(x, source, target)
        ref = ref_resample_blocked(x, source, target)
        assert out.shape == ref.shape
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("extra", [-1, 0])
    def test_bits_equal_blocked_reference_at_phase_rule(self, extra):
        # 44101 -> 16000 has up = 16000 phases: one output short of
        # _MIN_PER_PHASE per phase every output is gathered; at it, phases run strided.
        source, target = 44101, 16000
        n_out = audio_io._MIN_PER_PHASE * target + extra
        n = n_out * source // target
        while int(round(n * target / source)) < n_out:
            n += 1
        x = np.random.default_rng(11).standard_normal(n)
        out = audio_io._resample_sinc(x, source, target)
        assert out.size == n_out
        assert np.array_equal(out.view(np.uint64),
                              ref_resample_blocked(x, source, target).view(np.uint64))

    def test_strided_row_product_equals_gathered(self):
        # The strided phase path relies on einsum giving a row times one tap row the
        # same bits as the gathered copy times that row repeated.
        rng = np.random.default_rng(21)
        x = rng.standard_normal(5000)
        for width in range(1, 130):
            windows = sliding_window_view(x, width)
            taps = rng.standard_normal(width)
            for start, step in ((0, 1), (3, 3), (7, 441), (1, 160)):
                rows = windows[start::step][:200]
                gathered = np.einsum("ij,ij->i", np.ascontiguousarray(rows),
                                     np.tile(taps, (rows.shape[0], 1)))
                out = np.empty(2 * rows.shape[0])
                np.einsum("ij,j->i", rows, taps, out=out[1::2])
                assert np.array_equal(out[1::2].view(np.uint64), gathered.view(np.uint64))

    @pytest.fixture
    def i0_sizes(self, monkeypatch):
        """The size of each np.i0 call made from here on, from an empty phase-table cache."""
        audio_io._phase_table.cache_clear()
        sizes, i0 = [], np.i0

        def counting_i0(x):
            sizes.append(np.size(x))
            return i0(x)

        monkeypatch.setattr(np, "i0", counting_i0)
        return sizes

    def test_kernel_evaluated_once_per_phase(self, i0_sizes):
        # 44101 -> 16000 is coprime: up = 16000 phases, more than one block
        # holds. 4 s gives 64000 outputs, so a table per block would evaluate
        # every phase four times.
        source, target = 44101, 16000
        _, _, half = audio_io._kernel_design(source, target)
        x = np.random.default_rng(5).standard_normal(4 * source)
        ms.resample(ms.AudioBuffer(x, source), target)
        assert sum(i0_sizes) <= target * (2 * half + 1) + 1

    def test_short_input_evaluates_only_used_phases(self, i0_sizes):
        # 7 samples at 44101 Hz give 3 outputs at 16000 Hz; the 16000-phase
        # table would evaluate more than 5000 times as many taps.
        source, target = 44101, 16000
        _, _, half = audio_io._kernel_design(source, target)
        x = np.random.default_rng(7).standard_normal(7)
        out = ms.resample(ms.AudioBuffer(x, source), target).samples
        assert sum(i0_sizes) <= out.size * (2 * half + 1) + 1

    @pytest.mark.parametrize("seconds", [4.0, 1e-3])
    def test_second_call_at_a_pair_evaluates_no_kernel(self, i0_sizes, seconds):
        # Both sides of the phase/gather rule: the table is built once per
        # (pair, rows) and every later call reads it, with the same bits.
        source, target = 44100, 16000
        x = np.random.default_rng(9).standard_normal(int(seconds * source))
        first = ms.resample(ms.AudioBuffer(x, source), target).samples
        assert i0_sizes
        i0_sizes.clear()
        second = ms.resample(ms.AudioBuffer(x[::-1].copy(), source), target).samples
        again = ms.resample(ms.AudioBuffer(x, source), target).samples
        assert i0_sizes == []
        assert np.array_equal(again.view(np.uint64), first.view(np.uint64))
        assert np.array_equal(second.view(np.uint64),
                              ref_resample_blocked(x[::-1].copy(), source, target).view(np.uint64))

    def test_cached_table_is_read_only(self):
        table, tap_sums = audio_io._phase_table(44100, 16000, 160)
        for arr in (table, tap_sums):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("source,target", [(384001, 16000), (16000, 384001)])
    def test_rates_above_cap_rejected(self, source, target):
        with pytest.raises(ValueError, match="not supported"):
            ms.resample(ms.AudioBuffer(np.ones(16), source), target)

    def test_rate_at_cap_accepted(self):
        out = ms.resample(ms.AudioBuffer(np.full(480, 0.5), 16000), 384000)
        assert len(out) == 480 * 24 and np.allclose(out.samples, 0.5)


class TestAudioBuffer:
    def test_rejects_empty(self):
        with pytest.raises(EmptyAudio):
            ms.AudioBuffer(np.empty(0), 16000)

    def test_rejects_non_finite(self):
        # The float32 signalling NaN is refused before widening to float64, which
        # warns, and warnings are errors here.
        snan = np.array([0, 0x7F800001], dtype=np.uint32).view(np.float32)
        for x in (np.array([0.0, np.nan]), snan):
            with pytest.raises(ValueError, match="non-finite"):
                ms.AudioBuffer(x, 16000)

    def test_duration(self):
        assert ms.AudioBuffer(np.zeros(8000), 16000).duration == 0.5

    def test_samples_read_only(self):
        buf = ms.AudioBuffer(np.zeros(10), 16000)
        with pytest.raises(ValueError):
            buf.samples[0] = 1.0

    def test_callers_array_stays_writable(self):
        x = np.zeros(10)
        buf = ms.AudioBuffer(x, 16000)
        x[0] = 1.0
        assert buf.samples[0] == 1.0 and not buf.samples.flags.writeable


class TestRateRule:
    """Every rate argument is a positive integer value; 44100.0 counts, 16000.5 does not."""

    @staticmethod
    def _sites(tmp_path):
        path = tmp_path / "t.wav"
        ms.write_wav(path, tone(440.0, 0.1, sr=22050), 22050)
        buf = ms.AudioBuffer(np.zeros(100), 22050)
        cfg = ms.MelConfig(frame_size=512, hop_size=256, n_mels=6, f_max=4000.0)
        return {
            "AudioBuffer": lambda rate: ms.AudioBuffer(np.zeros(100), rate).sample_rate,
            "StreamPipeline":
                lambda rate: ms.StreamPipeline(config=cfg, sample_rate=rate).sample_rate,
            "resample": lambda rate: ms.resample(buf, rate).sample_rate,
            "load_pcm": lambda rate: ms.load_pcm(path, rate).sample_rate,
        }

    @pytest.mark.parametrize("site", ["AudioBuffer", "StreamPipeline", "resample", "load_pcm"])
    @pytest.mark.parametrize("rate", [16000.9, 16000.5, 22050.5, 0, -16000, np.nan, np.inf])
    def test_non_integer_or_non_positive_rate_raises(self, tmp_path, site, rate):
        with pytest.raises(ValueError, match="positive integer"):
            self._sites(tmp_path)[site](rate)

    @pytest.mark.parametrize("site", ["AudioBuffer", "StreamPipeline", "resample", "load_pcm"])
    def test_integral_float_rate_is_that_integer(self, tmp_path, site):
        for rate in (44100.0, np.float32(16000.0), np.int64(8000)):
            got = self._sites(tmp_path)[site](rate)
            assert got == int(rate) and type(got) is int


class TestWriteWav:
    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            ms.write_wav(tmp_path / "t.wav", np.zeros(10), 16000, fmt="mp3")

    @pytest.mark.parametrize("fmt", ["pcm16", "float32"])
    @pytest.mark.parametrize("samples, rate", [
        (np.zeros(10), 0), (np.zeros(10), 500), (np.zeros(10), 500000),
        (np.zeros(10), 16000.5), (np.zeros((10, 9)), 16000),
        (np.array([0.0, np.nan]), 16000), (np.array([0.0, -np.inf]), 16000),
    ], ids=["rate-0", "rate-500", "rate-500000", "rate-16000.5", "9-channels", "nan", "inf"])
    def test_refuses_what_load_pcm_cannot_read(self, tmp_path, samples, rate, fmt):
        path = tmp_path / "t.wav"
        with pytest.raises(ValueError):
            ms.write_wav(path, samples, rate, fmt=fmt)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["pcm16", "float32"])
    def test_every_write_reads_back_or_raises(self, tmp_path, fmt):
        # Rates, channel counts and sample values crossed; whether load_pcm can read a
        # case is stated here from its rules, not asked of the reader.
        f32max = float(np.finfo(np.float32).max)
        kinds = {
            "zeros": [0.0], "ones": [1.0, -1.0], "1.5": [1.5, -1.5], "nan": [0.0, np.nan],
            "inf": [np.inf, -np.inf], "1e40": [1e40, -1e40], "f32max": [f32max, -f32max],
            "signalling-nan": np.array([0, 0x7F800001], dtype=np.uint32).view(np.float32),
        }
        unwritable = {"nan", "inf", "1e40", "signalling-nan"}
        rng = np.random.default_rng(18)
        path = tmp_path / "t.wav"
        for rate in (0, 999, 1000, 16000, 44100.0, 16000.5, 384000, 384001):
            for channels in (1, 2, 8, 9):
                for kind, values in kinds.items():
                    x = rng.permutation(np.resize(np.asarray(values), 16 * channels))
                    x = x.reshape(16, channels)
                    if kind == "signalling-nan":
                        assert np.any(x.view(np.uint32) == 0x7F800001)
                    if (rate not in (1000, 16000, 44100, 384000) or channels > 8
                            or kind in unwritable):
                        with pytest.raises(ValueError):
                            ms.write_wav(path, x, rate, fmt=fmt)
                        assert not path.exists(), (rate, channels, kind)
                        continue
                    ms.write_wav(path, x, rate, fmt=fmt)
                    buf = ms.load_pcm(path)
                    path.unlink()
                    assert buf.sample_rate == rate and len(buf) == 16
                    if fmt == "pcm16":
                        clipped = np.clip(x, -1.0, 1.0)
                        assert np.max(np.abs(buf.samples - clipped.mean(axis=1))) <= 1 / 32767
                        codes = np.round(clipped * 32767.0)
                        assert np.array_equal(buf.samples, (codes / 32768.0).mean(axis=1))
                    else:
                        expect = x.astype(np.float32).astype(np.float64).mean(axis=1)
                        assert np.array_equal(buf.samples, np.clip(expect, -1.0, 1.0))

    def test_load_at_explicit_rate_resamples(self, tmp_path):
        path = tmp_path / "t.wav"
        ms.write_wav(path, tone(440.0, 0.5, sr=44100), 44100)
        buf = ms.load_pcm(path, 16000)
        assert buf.sample_rate == 16000
        assert len(buf) == int(round(0.5 * 44100 * 16000 / 44100))
