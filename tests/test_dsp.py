import re
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

import melstream as ms
from melstream import dsp
from melstream.dsp import LOG_FLOOR, _spectrum, mel_filterbank, parse_compression, window_vector
from melstream.errors import ConfigError, EmptyFilter, SignalTooShort

import oracles

# frozen reference values, computed by hand from the scale formulas
HTK_MEL_1000 = 999.9855371396244
HTK_MEL_700 = 781.1728387480312
SLANEY_MEL_1000 = 15.0
SLANEY_MEL_4000 = 35.163760314616646


class TestMelScales:
    def test_htk_frozen_points(self):
        assert ms.hz_to_mel(1000.0, "htk") == pytest.approx(HTK_MEL_1000, abs=1e-9)
        assert ms.hz_to_mel(700.0, "htk") == pytest.approx(HTK_MEL_700, abs=1e-9)
        assert ms.hz_to_mel(0.0, "htk") == 0.0

    def test_slaney_frozen_points(self):
        assert ms.hz_to_mel(1000.0, "slaney") == pytest.approx(SLANEY_MEL_1000, abs=1e-9)
        assert ms.hz_to_mel(4000.0, "slaney") == pytest.approx(SLANEY_MEL_4000, abs=1e-9)
        assert ms.hz_to_mel(500.0, "slaney") == pytest.approx(7.5, abs=1e-12)

    @pytest.mark.parametrize("scale", ["htk", "slaney"])
    def test_round_trip(self, scale):
        f = np.linspace(0.0, 7999.0, 301)
        back = ms.mel_to_hz(ms.hz_to_mel(f, scale), scale)
        assert np.max(np.abs(back - f)) < 1e-6

    def test_slaney_continuous_at_knee(self):
        below = ms.hz_to_mel(1000.0 - 1e-9, "slaney")
        above = ms.hz_to_mel(1000.0 + 1e-9, "slaney")
        assert abs(above - below) < 1e-6

    def test_unknown_scale(self):
        with pytest.raises(ConfigError):
            ms.hz_to_mel(100.0, "bark")


class TestWindows:
    @pytest.mark.parametrize("kind", ["hann", "hamming", "blackman-harris",
                                      "rectangular"])
    def test_matches_reference_formula(self, kind):
        for n in (8, 64, 400, 512):
            got = ms.window_vector(kind, n)
            assert np.max(np.abs(got - oracles.ref_window(kind, n))) < 1e-12

    def test_hann_is_periodic_not_symmetric(self):
        w = ms.window_vector("hann", 8)
        assert w[0] == 0.0
        assert w[4] == pytest.approx(1.0)
        # periodic: w[k] == w[n-k] for k >= 1, and w[-1] != 0
        assert w[-1] != 0.0
        assert w[1] == pytest.approx(w[7])

    def test_unknown_window(self):
        with pytest.raises(ConfigError):
            ms.window_vector("kaiser", 64)


class TestFraming:
    def test_frozen_frame_counts(self):
        assert ms.frame_count(48000, 512, 256) == 186
        assert ms.frame_count(207 * 16000, 512, 256) == 12936
        assert ms.frame_count(30 * 16000, 512, 256) == 1874

    def test_tail_dropped_no_padding(self):
        # one sample short of the next frame start adds no frame
        assert ms.frame_count(512 + 256 - 1, 512, 256) == 1
        assert ms.frame_count(512 + 256, 512, 256) == 2

    def test_too_short(self):
        with pytest.raises(SignalTooShort):
            ms.frame_count(511, 512, 256)


class TestSpectrum:
    def test_matches_dft_matrix(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 96)
        bins = oracles.ref_dft_bins(x * oracles.ref_window("hann", 96), 128)
        got = _spectrum(x * window_vector("hann", 96), 128, "power")
        assert np.max(np.abs(got - (bins.real ** 2 + bins.imag ** 2))) < 1e-8

    def test_magnitude_mode(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, 64)
        got = _spectrum(x, 64, "magnitude")
        bins = oracles.ref_dft_bins(x, 64)
        assert np.max(np.abs(got - np.abs(bins))) < 1e-10


class TestFilterbank:
    def test_matches_independent_triangles(self):
        cfg = ms.MelConfig(frame_size=256, hop_size=128, n_mels=20, f_min=80.0,
                           f_max=7600.0)
        got = mel_filterbank(cfg, 16000)
        ref = oracles.ref_filterbank(20, 256, 16000, 80.0, 7600.0, "htk", "none")
        assert got.shape == (20, 129)
        assert np.max(np.abs(got - ref)) < 1e-10

    @pytest.mark.parametrize("scale", ["htk", "slaney"])
    @pytest.mark.parametrize("norm", ["none", "area", "band-width"])
    def test_all_scale_norm_combinations(self, scale, norm):
        cfg = ms.MelConfig(frame_size=512, hop_size=256, n_mels=40, f_min=0.0,
                           f_max=8000.0, mel_scale=scale, filter_norm=norm)
        got = mel_filterbank(cfg, 16000)
        ref = oracles.ref_filterbank(40, 512, 16000, 0.0, 8000.0, scale, norm)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_area_norm_rows_sum_to_one(self):
        cfg = ms.MelConfig(frame_size=512, hop_size=256, n_mels=32,
                           filter_norm="area")
        fb = mel_filterbank(cfg, 16000)
        assert np.allclose(fb.sum(axis=1), 1.0)

    def test_unit_peak_without_norm(self):
        # wide filters hit their apex at some bin, narrow ones stay below 1
        cfg = ms.MelConfig(frame_size=1024, hop_size=256, n_mels=8)
        fb = mel_filterbank(cfg, 16000)
        assert fb.max() <= 1.0 + 1e-12
        assert fb.max() > 0.9

    def test_empty_filter_raises(self):
        cfg = ms.MelConfig(frame_size=64, hop_size=32, n_mels=60, f_max=8000.0)
        with pytest.raises(EmptyFilter):
            mel_filterbank(cfg, 16000)

    def test_f_max_above_nyquist(self):
        # The Nyquist rule also refuses every rate <= 0, before any filter can come out empty.
        cfg = ms.MelConfig(frame_size=512, hop_size=256, n_mels=16, f_max=8000.0)
        for rate in (8000, 0, -8000):
            with pytest.raises(ConfigError) as exc:
                mel_filterbank(cfg, rate)
            assert not isinstance(exc.value, EmptyFilter), rate

    def test_shared_front_end_is_read_only(self):
        window, _, filterbank, _, _ = dsp._front_end(ms.preset("musicnn-96"), 16000)
        for array in (window, filterbank):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        assert dsp._front_end(ms.preset("musicnn-96"), 16000)[2] is filterbank

    @pytest.mark.parametrize("name", sorted(dsp.PRESETS))
    @pytest.mark.parametrize("norm", ["none", "area", "band-width"])
    @pytest.mark.parametrize("scale", ["htk", "slaney"])
    @pytest.mark.parametrize("rate", [16000, 22050, 44100])
    def test_equals_per_filter_loop(self, name, norm, scale, rate):
        # At the preset's FFT size the lowest filters of a 44.1 kHz bank fall between
        # bins and must raise; at 2048 they do not.
        for fft_size in (ms.preset(name).fft_size, 2048):
            cfg = replace(ms.preset(name), mel_scale=scale, filter_norm=norm, fft_size=fft_size)
            try:
                ref = oracles.ref_mel_filterbank(cfg.n_mels, fft_size, rate, cfg.f_min,
                                                 cfg.f_max, scale, norm)
            except ValueError as e:
                with pytest.raises(EmptyFilter, match=f"^{re.escape(str(e))}$"):
                    mel_filterbank(cfg, rate)
            else:
                assert np.array_equal(mel_filterbank(cfg, rate), ref)

    def test_empty_filter_names_the_first_empty_row(self):
        cfg = ms.MelConfig(frame_size=128, hop_size=64, n_mels=64, f_min=40.0, f_max=4000.0)
        message = "mel filter 4 (129.2-177.7 Hz) has no nonzero weight at fft_size 128"
        with pytest.raises(ValueError, match=re.escape(message)):
            oracles.ref_mel_filterbank(64, 128, 8000, 40.0, 4000.0, "htk", "none")
        with pytest.raises(EmptyFilter, match=f"^{re.escape(message)}$"):
            mel_filterbank(cfg, 8000)

    def test_nyquist_checked_before_any_filter(self):
        # 64 bands at fft_size 64 would leave empty filters, but f_max is the first fault.
        cfg = ms.MelConfig(frame_size=64, hop_size=32, n_mels=64, f_max=8000.0)
        with pytest.raises(ConfigError, match="exceeds Nyquist") as info:
            mel_filterbank(cfg, 8000)
        assert not isinstance(info.value, EmptyFilter)


class TestCompression:
    def test_parse(self):
        assert parse_compression("none") == ("none", 0.0)
        assert parse_compression("natural-log") == ("natural-log", 0.0)
        assert parse_compression("log10") == ("log10", 0.0)
        assert parse_compression("shifted-log(10000)") == ("shifted-log", 10000.0)
        assert parse_compression("shifted-log(0.5)") == ("shifted-log", 0.5)

    @pytest.mark.parametrize("bad", ["log", "shifted-log", "shifted-log()",
                                     "shifted-log(x)", "shifted-log(-1)"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_compression(bad)

    def test_log_floor_applies(self):
        cfg = ms.MelConfig(frame_size=64, hop_size=32, n_mels=4, f_max=4000.0,
                           compression="natural-log")
        buf = ms.AudioBuffer(np.full(128, 1e-12), 8000)  # near-silent
        mel = ms.mel_spectrogram(buf, cfg)
        assert np.min(mel.frames) >= np.log(LOG_FLOOR) - 1e-9

    def test_shifted_log_formula(self):
        cfg = ms.MelConfig(frame_size=64, hop_size=32, n_mels=4, f_max=4000.0)
        buf = ms.AudioBuffer(np.sin(np.arange(256) * 0.3), 8000)
        plain = ms.mel_spectrogram(buf, cfg).frames
        shifted = ms.mel_spectrogram(
            buf, replace(cfg, compression="shifted-log(10000)")).frames
        assert np.allclose(shifted, np.log10(1.0 + 10000.0 * plain))


class TestMelConfig:
    def test_defaults_and_fft_inference(self):
        cfg = ms.MelConfig(frame_size=400, hop_size=160, n_mels=64)
        assert cfg.fft_size == 512  # next power of two
        assert cfg.window == "hann"
        assert cfg.spectrum_type == "power"

    @pytest.mark.parametrize("kwargs", [
        dict(frame_size=0, hop_size=1, n_mels=4),
        dict(frame_size=64, hop_size=0, n_mels=4),
        dict(frame_size=64, hop_size=65, n_mels=4),
        dict(frame_size=64, hop_size=32, n_mels=0),
        dict(frame_size=64, hop_size=32, n_mels=4, fft_size=63),
        dict(frame_size=64, hop_size=32, n_mels=4, fft_size=96),
        dict(frame_size=64, hop_size=32, n_mels=4, f_min=-1.0),
        dict(frame_size=64, hop_size=32, n_mels=4, f_min=5000.0, f_max=4000.0),
        dict(frame_size=64, hop_size=32, n_mels=4, window="tukey"),
        dict(frame_size=64, hop_size=32, n_mels=4, mel_scale="bark"),
        dict(frame_size=64, hop_size=32, n_mels=4, filter_norm="l2"),
        dict(frame_size=64, hop_size=32, n_mels=4, spectrum_type="db"),
        dict(frame_size=64, hop_size=32, n_mels=4, compression="sqrt"),
        dict(frame_size=64, hop_size=32, n_mels=4, compression="shifted-log(1\n)"),
        dict(frame_size=64, hop_size=32, n_mels=4, compression="shifted-log(1)\n"),
        dict(frame_size=64, hop_size=32.5, n_mels=4),
        dict(frame_size=64, hop_size=32, n_mels=4, fft_size=1 << 17),
        dict(frame_size=64, hop_size=32, n_mels=4, fft_size=1 << 31),
        dict(frame_size=1 << 17, hop_size=32, n_mels=4),
        dict(frame_size=64, hop_size=32, n_mels=256, fft_size=1 << 16),
        dict(frame_size=64, hop_size=32, n_mels=254201),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ms.MelConfig(**kwargs)

    @pytest.mark.parametrize("n_mels, fft_size", [(255, 1 << 16), (254200, 64)])
    def test_largest_filterbank_allowed(self, n_mels, fft_size):
        # One more mel than these crosses the 2^23-weight bound (see test_validation).
        cfg = ms.MelConfig(frame_size=64, hop_size=32, n_mels=n_mels, fft_size=fft_size)
        assert n_mels * (cfg.fft_size // 2 + 1) <= 1 << 23 < (n_mels + 1) * (cfg.fft_size // 2 + 1)

    def test_kv_round_trip(self):
        cfg = ms.MelConfig(frame_size=512, hop_size=256, n_mels=96, f_min=20.0,
                           f_max=7500.0, mel_scale="slaney", filter_norm="area",
                           spectrum_type="magnitude",
                           compression="shifted-log(10000)")
        assert ms.MelConfig.from_kv(cfg.to_kv()) == cfg

    def test_kv_round_trip_every_field_off_default(self):
        cfg = ms.MelConfig(frame_size=300, hop_size=75, n_mels=24, window="blackman-harris",
                           fft_size=1024, f_min=31.5, f_max=7200.25, mel_scale="slaney",
                           filter_norm="band-width", spectrum_type="magnitude",
                           compression="log10")
        for f in fields(ms.MelConfig):
            if f.default is not MISSING:
                assert getattr(cfg, f.name) != f.default, f.name
        assert ms.MelConfig.from_kv(cfg.to_kv()) == cfg

    @pytest.mark.parametrize("f_min, f_max", [(12.34567, 7999.9999),
                                              (np.float32(0.1), np.float32(7999.9))])
    def test_kv_round_trip_beyond_six_digits(self, f_min, f_max):
        # Compared as float64 too: numpy compares a float32 with a float in float32.
        cfg = ms.MelConfig(frame_size=512, hop_size=256, n_mels=96, f_min=f_min, f_max=f_max)
        back = ms.MelConfig.from_kv(cfg.to_kv())
        assert back == cfg
        assert (float(back.f_min), float(back.f_max)) == (float(f_min), float(f_max))

    @pytest.mark.parametrize("v", [0.0, 1.0, 0.5, 1e-3, 1e-05, 8000.0])
    def test_float_text_keeps_short_form(self, v):
        assert dsp._float_text(v) == format(v, "g")

    @pytest.mark.parametrize("v", [0.1 + 0.2, 5e-324, 1.7976931348623157e308])
    def test_float_text_reads_back_exactly(self, v):
        assert float(dsp._float_text(v)) == v

    @pytest.mark.parametrize("key, value", [("hop_size", "abc"), ("fft_size", "None"),
                                            ("f_min", "low"), ("window", "tukey")])
    def test_from_kv_rejects_bad_values(self, key, value):
        kv = ms.MelConfig(frame_size=64, hop_size=32, n_mels=4).to_kv()
        kv[key] = value
        with pytest.raises(ConfigError):
            ms.MelConfig.from_kv(kv)

    def test_from_kv_rejects_missing_key(self):
        kv = ms.MelConfig(frame_size=64, hop_size=32, n_mels=4).to_kv()
        del kv["window"]
        with pytest.raises(ConfigError, match="missing config keys"):
            ms.MelConfig.from_kv(kv)

    @pytest.mark.parametrize("field, value, message", [
        ("window", "tukey", "unknown window 'tukey'"),
        ("mel_scale", "bark", "unknown mel scale 'bark'"),
        ("filter_norm", "l2", "unknown filter norm 'l2'"),
        ("spectrum_type", "db", "unknown spectrum type 'db'"),
    ], ids=["window", "mel_scale", "filter_norm", "spectrum_type"])
    def test_name_check_messages(self, field, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ms.MelConfig(frame_size=64, hop_size=32, n_mels=4, **{field: value})

    def test_from_kv_rejects_unknown_key(self):
        kv = ms.MelConfig(frame_size=64, hop_size=32, n_mels=4).to_kv()
        kv["gain"] = "1"
        with pytest.raises(ConfigError):
            ms.MelConfig.from_kv(kv)


class TestPresets:
    def test_musicnn_96(self):
        cfg = ms.preset("musicnn-96")
        assert (cfg.frame_size, cfg.hop_size, cfg.n_mels) == (512, 256, 96)
        assert cfg.fft_size == 512
        assert cfg.window == "hann"
        assert (cfg.f_min, cfg.f_max) == (0.0, 8000.0)
        assert cfg.mel_scale == "htk"
        assert cfg.filter_norm == "none"
        assert cfg.spectrum_type == "power"
        assert cfg.compression == "shifted-log(10000)"

    def test_vgg_64(self):
        cfg = ms.preset("vgg-64")
        assert (cfg.frame_size, cfg.hop_size, cfg.n_mels) == (400, 160, 64)
        assert cfg.fft_size == 512
        assert cfg.compression == "natural-log"

    def test_preset_rate(self):
        assert ms.PRESET_SAMPLE_RATE == 16000

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            ms.preset("musicnn-128")


class TestMelSpectrogram:
    def test_matches_full_reference_pipeline(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.9, 0.9, 2000)
        cfg = ms.MelConfig(frame_size=128, hop_size=64, n_mels=16, f_min=50.0,
                           f_max=3800.0, window="hamming",
                           compression="natural-log")
        got = ms.mel_spectrogram(ms.AudioBuffer(x, 8000), cfg).frames
        ref = oracles.ref_mel_spectrogram(
            x, 8000, 128, 64, 16, window="hamming", f_min=50.0, f_max=3800.0,
            compression="natural-log")
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) < 1e-8

    def test_shape_for_three_seconds(self):
        buf = ms.AudioBuffer(np.random.default_rng(0).uniform(-1, 1, 48000), 16000)
        mel = ms.mel_spectrogram(buf, ms.preset("musicnn-96"))
        assert mel.frames.shape == (186, 96)

    def test_prefix_property(self):
        # more audio only appends frames; the prefix is untouched
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, 4096)
        cfg = ms.MelConfig(frame_size=256, hop_size=128, n_mels=8, f_max=4000.0)
        short = ms.mel_spectrogram(ms.AudioBuffer(x[:2048], 8000), cfg).frames
        full = ms.mel_spectrogram(ms.AudioBuffer(x, 8000), cfg).frames
        assert np.array_equal(full[:short.shape[0]], short)

    @pytest.mark.parametrize("name", sorted(dsp.PRESETS))
    def test_blocks_match_per_frame_kernel(self, monkeypatch, name):
        # Streaming computes one frame per call, so every row must equal the
        # per-frame kernel's bit for bit, whatever the offline block size.
        x = np.random.default_rng(5).uniform(-1.0, 1.0, 3 * 16000)
        for spectrum in ("power", "magnitude"):
            for compression in ("none", "natural-log", "log10", "shifted-log(10000)"):
                cfg = replace(ms.preset(name), spectrum_type=spectrum, compression=compression)
                window = window_vector(cfg.window, cfg.frame_size)
                fb = mel_filterbank(cfg, 16000)
                t = (x.size - cfg.frame_size) // cfg.hop_size + 1
                ref = np.stack([oracles.ref_mel_frame(
                    x[i * cfg.hop_size:i * cfg.hop_size + cfg.frame_size], window,
                    cfg.fft_size, fb, spectrum, compression) for i in range(t)])
                for block in (1, 7, 64, 4096):
                    monkeypatch.setattr(dsp, "_MEL_BLOCK", block)
                    got = ms.mel_spectrogram(ms.AudioBuffer(x, 16000), cfg).frames
                    assert np.array_equal(got, ref), (spectrum, compression, block)

    def test_frames_read_only(self):
        buf = ms.AudioBuffer(np.ones(1024), 8000)
        cfg = ms.MelConfig(frame_size=256, hop_size=128, n_mels=8, f_max=4000.0)
        mel = ms.mel_spectrogram(buf, cfg)
        with pytest.raises(ValueError):
            mel.frames[0, 0] = 5.0

    def test_callers_array_stays_writable(self):
        cfg = ms.MelConfig(frame_size=256, hop_size=128, n_mels=8, f_max=4000.0)
        frames = np.zeros((3, 8))
        mel = ms.MelSpectrogram(frames, cfg, 8000)
        frames[0, 0] = 1.0
        assert mel.frames[0, 0] == 1.0 and not mel.frames.flags.writeable
