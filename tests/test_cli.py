"""CLI behavior: payloads, formats, exit codes, reproducibility."""

import argparse
import io
import json
import struct
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest

import melstream as ms
from melstream import dsp
from melstream.cli import (_STREAM_CHUNK, _add_train_args, _resolve_seed, _train_spec,
                           build_parser, main)
from melstream.errors import ConfigError
from melstream.inference.model_io import read_weights

from util import dataset_csv, linear_classifier, tone, write_tone_wav

CFG = ms.MelConfig(frame_size=64, hop_size=32, n_mels=6, f_max=4000.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def tone_wav(tmp_path):
    p = tmp_path / "tone.wav"
    write_tone_wav(p, 1000.0, 3.5)
    return str(p)


@pytest.fixture
def tiny_model(tmp_path):
    """A small trainable backbone over 4-frame, 6-mel patches."""
    rng = np.random.default_rng(3)
    nodes = [ms.Node("flat", "flatten", ("in",), {}),
             ms.Node("logits", "dense", ("flat",), {"weight": "w", "bias": "b"}),
             ms.Node("probs", "softmax", ("logits",), {})]
    weights = {"w": rng.normal(scale=0.05, size=(24, 2)).astype(np.float32),
               "b": np.zeros(2, dtype=np.float32)}
    graph = ms.build_graph(input_name="in", input_shape=(4, 6, 1),
                           output_name="probs", embedding_name="flat",
                           nodes=nodes, weights=weights,
                           labels=("low", "high"), patch_frames=4,
                           feature_config=CFG, sample_rate=8000)
    manifest = tmp_path / "model.txt"
    wpath = tmp_path / "model.bin"
    ms.save_model(graph, manifest, wpath)
    return graph, str(manifest), str(wpath)


@pytest.fixture
def tiny_dataset(tmp_path):
    rows = []
    for i in range(8):
        freq = 400.0 if i % 2 == 0 else 3000.0
        wav = tmp_path / f"track{i}.wav"
        write_tone_wav(wav, freq, 1.0, sr=8000)
        rows.append((f"track{i}", str(wav), ("low" if i % 2 == 0 else "high",)))
    csv_path = tmp_path / "dataset.csv"
    dataset_csv(csv_path, rows)
    return str(csv_path)


class TestMelspec:
    def test_preset_json(self, capsys, tone_wav):
        payload = run_json(capsys, "melspec", tone_wav, "--preset", "musicnn-96")
        assert payload["shape"] == [217, 96]
        assert payload["sample_rate"] == 16000
        assert payload["clipped_samples"] == 0
        assert payload["config"]["n_mels"] == "96"
        got = np.array(payload["melspec"])
        buf = ms.load_pcm(tone_wav, 16000)
        expect = ms.mel_spectrogram(buf, ms.preset("musicnn-96")).frames
        assert np.allclose(got, expect, rtol=0, atol=1e-12)

    def test_csv_values_round_trip(self, capsys, tone_wav, tmp_path):
        out = tmp_path / "mel.csv"
        code, _, err = run(capsys, "melspec", tone_wav, "--preset", "vgg-64",
                           "--format", "csv", "--output", str(out))
        assert code == 0, err
        rows = [[float(v) for v in line.split(",")]
                for line in out.read_text().strip().splitlines()]
        buf = ms.load_pcm(tone_wav, 16000)
        expect = ms.mel_spectrogram(buf, ms.preset("vgg-64")).frames
        assert np.array_equal(np.array(rows), expect)

    def test_bin_round_trip(self, capsys, tone_wav, tmp_path):
        out = tmp_path / "mel.bin"
        code, _, err = run(capsys, "melspec", tone_wav, "--preset", "musicnn-96",
                           "--format", "bin", "--output", str(out))
        assert code == 0, err
        stored = read_weights(out)
        buf = ms.load_pcm(tone_wav, 16000)
        expect = ms.mel_spectrogram(buf, ms.preset("musicnn-96")).frames
        assert np.array_equal(stored["melspec"], expect.astype(np.float32))

    def test_stream_matches_offline_bytes(self, capsys, tone_wav, tmp_path):
        a = tmp_path / "offline.csv"
        b = tmp_path / "stream.csv"
        assert run(capsys, "melspec", tone_wav, "--preset", "musicnn-96",
                   "--format", "csv", "--output", str(a))[0] == 0
        assert run(capsys, "melspec", tone_wav, "--preset", "musicnn-96",
                   "--format", "csv", "--output", str(b),
                   "--stream", "--chunk", "3001")[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_flags(self, capsys, tone_wav):
        payload = run_json(capsys, "melspec", tone_wav, "--frame-size", "400",
                           "--hop-size", "160", "--n-mels", "64",
                           "--compression", "natural-log")
        assert payload["shape"][1] == 64
        assert payload["config"]["compression"] == "natural-log"

    def test_preset_conflicts_with_flags(self, capsys, tone_wav):
        code, _, err = run(capsys, "melspec", tone_wav, "--preset", "musicnn-96",
                           "--n-mels", "32")
        assert code == 3
        assert "preset" in err

    def test_missing_required_flags(self, capsys, tone_wav):
        code, _, _ = run(capsys, "melspec", tone_wav, "--frame-size", "400")
        assert code == 3

    def test_feature_flags_mirror_melconfig(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        flags = {a.dest: a for a in sub.choices["melspec"]._actions}
        hints = get_type_hints(ms.MelConfig)
        for f in fields(ms.MelConfig):
            flag = flags[f.name]
            assert flag.option_strings == ["--" + f.name.replace("_", "-")]
            assert flag.type is (get_args(hints[f.name]) or (hints[f.name],))[0]
            assert flag.choices == dsp._CHOICES.get(f.name)
            for name in flag.choices or ():
                ms.MelConfig(frame_size=64, hop_size=32, n_mels=4, **{f.name: name})
        assert flags["filter_norm"].choices == ("none", "area", "band-width")

    def test_bad_filter_norm_is_a_usage_error(self, capsys, tone_wav):
        with pytest.raises(SystemExit) as exc:
            main(["melspec", tone_wav, "--frame-size", "400", "--hop-size", "160",
                  "--n-mels", "64", "--filter-norm", "bogus"])
        assert exc.value.code == 3
        assert "invalid choice" in capsys.readouterr().err

    def test_rate_above_cap(self, capsys, tone_wav, tmp_path):
        code, _, err = run(capsys, "melspec", tone_wav, "--frame-size", "400",
                           "--hop-size", "160", "--n-mels", "64", "--sample-rate", "400000")
        assert code == 3, err
        data = bytearray(Path(tone_wav).read_bytes())
        struct.pack_into("<I", data, 24, 0xFFFFFFFF)
        p = tmp_path / "fast.wav"
        p.write_bytes(bytes(data))
        code, _, err = run(capsys, "melspec", str(p), "--preset", "musicnn-96")
        assert code == 2, err

    def test_rate_below_floor_exits_2(self, capsys, tmp_path):
        # 100 frames, so a reader without the floor resamples only 1.6 M samples.
        p = tmp_path / "slow.wav"
        ms.write_wav(p, tone(440.0, 0.1, sr=1000), 1000)
        data = bytearray(p.read_bytes())
        struct.pack_into("<I", data, 24, 1)
        p.write_bytes(bytes(data))
        code, _, err = run(capsys, "melspec", str(p), "--preset", "musicnn-96")
        assert code == 2, err
        assert "sample rate 1 Hz" in err

    @pytest.mark.parametrize("flags, what", [
        (("--n-mels", "6", "--fft-size", "131072"), "fft_size"),
        (("--n-mels", "256", "--fft-size", "65536"), "filterbank"),
        (("--n-mels", "254201"), "filterbank"),
    ], ids=["fft-size", "filterbank-wide", "filterbank-tall"])
    def test_front_end_above_its_bounds_exits_3(self, capsys, tone_wav, flags, what):
        code, _, err = run(capsys, "melspec", tone_wav, "--frame-size", "64",
                           "--hop-size", "32", *flags)
        assert code == 3, err
        assert what in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "melspec", str(tmp_path / "nope.wav"),
                         "--preset", "musicnn-96")
        assert code == 2

    def test_corrupt_wav(self, capsys, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"RIFFxxxxWAVE" + b"\x00" * 40)
        code, _, _ = run(capsys, "melspec", str(p), "--preset", "musicnn-96")
        assert code == 2

    def test_too_short(self, capsys, tmp_path):
        p = tmp_path / "short.wav"
        write_tone_wav(p, 440.0, 0.01)  # 160 samples < one 512 frame
        code, _, _ = run(capsys, "melspec", str(p), "--preset", "musicnn-96")
        assert code == 5
        code, _, _ = run(capsys, "melspec", str(p), "--preset", "musicnn-96",
                         "--stream")
        assert code == 5

    def test_stream_too_short_exits_before_any_push(self, capsys, monkeypatch, tmp_path):
        p = tmp_path / "short.wav"
        write_tone_wav(p, 440.0, 0.01)  # 160 samples < one 512 frame
        monkeypatch.setattr(ms.StreamPipeline, "push", lambda *a: pytest.fail("pushed"))
        code, _, err = run(capsys, "melspec", str(p), "--preset", "musicnn-96", "--stream")
        assert code == 5, err

    def test_bad_chunk(self, capsys, tone_wav):
        code, _, _ = run(capsys, "melspec", tone_wav, "--preset", "musicnn-96",
                         "--stream", "--chunk", "0")
        assert code == 3


class TestPredict:
    def test_offline_payload(self, capsys, tiny_model, tmp_path):
        graph, manifest, weights = tiny_model
        wav = tmp_path / "t.wav"
        write_tone_wav(wav, 800.0, 1.0, sr=8000)
        payload = run_json(capsys, "predict", str(wav), "--model", manifest,
                           "--weights", weights)
        assert set(payload["scores"]) == {"low", "high"}
        assert payload["top_label"] == payload["ranking"][0]
        assert payload["aggregation"] == "mean"
        assert payload["n_patches"] >= 1
        buf = ms.load_pcm(str(wav), graph.sample_rate)
        pred = ms.predict(graph, buf)
        for i, label in enumerate(graph.labels):
            assert payload["scores"][label] == pytest.approx(float(pred.aggregated[i]))

    def test_top_limits_ranking(self, capsys, tiny_model, tmp_path):
        _, manifest, weights = tiny_model
        wav = tmp_path / "t.wav"
        write_tone_wav(wav, 800.0, 1.0, sr=8000)
        payload = run_json(capsys, "predict", str(wav), "--model", manifest,
                           "--weights", weights, "--top", "1")
        assert len(payload["ranking"]) == 1

    @pytest.mark.parametrize("top", ["-1", "-5"])
    def test_negative_top_exits_3_before_loading(self, capsys, monkeypatch, tiny_model, tmp_path,
                                                 top):
        _, manifest, weights = tiny_model
        wav = tmp_path / "t.wav"
        write_tone_wav(wav, 800.0, 1.0, sr=8000)
        monkeypatch.setattr("melstream.cli.load_model", lambda *a: pytest.fail("loaded"))
        code, _, err = run(capsys, "predict", str(wav), "--model", manifest,
                           "--weights", weights, "--top", top)
        assert code == 3, err
        assert "--top" in err

    def test_stream_matches_offline(self, capsys, monkeypatch, tiny_model, tmp_path):
        graph, manifest, weights = tiny_model
        wav = tmp_path / "t.wav"
        write_tone_wav(wav, 800.0, 30.0, sr=8000)
        raw = ms.load_pcm(str(wav), graph.sample_rate).samples.astype("<f4").tobytes()
        assert len(raw) > 3 * 4 * _STREAM_CHUNK

        class Pipe(io.BytesIO):
            """Stdin without read-all that serves at most ``cap`` bytes per read1."""

            def __init__(self, data, cap):
                super().__init__(data)
                self.cap = cap

            def read(self, size=-1):
                raise AssertionError("stdin must be read in blocks")

            def read1(self, size=-1):
                return super().read1(min(size, self.cap))

        consumed = []  # stdin bytes read when each push starts
        real_push = ms.StreamPipeline.push
        monkeypatch.setattr(ms.StreamPipeline, "push", lambda pipe, x: (
            consumed.append(sys.stdin.buffer.tell()) or real_push(pipe, x)))
        for aggregation in ("mean", "max"):
            offline = run_json(capsys, "predict", str(wav), "--model", manifest,
                               "--weights", weights, "--aggregation", aggregation)
            for cap in (len(raw), 1001):  # whole blocks; short reads splitting float32 samples
                consumed.clear()
                monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": Pipe(raw, cap)})())
                streamed = run_json(capsys, "predict", "--stream", "--model", manifest,
                                    "--weights", weights, "--aggregation", aggregation)
                assert streamed == offline
                assert consumed[0] < len(raw)  # pushing began before stdin ended

    def test_stream_rejects_audio_argument(self, capsys, tiny_model, tone_wav):
        _, manifest, weights = tiny_model
        code, _, _ = run(capsys, "predict", tone_wav, "--stream",
                         "--model", manifest, "--weights", weights)
        assert code == 3

    def test_stream_misaligned_bytes(self, capsys, monkeypatch, tiny_model):
        _, manifest, weights = tiny_model
        monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": io.BytesIO(b"\x00" * 6)})())
        code, _, _ = run(capsys, "predict", "--stream", "--model", manifest,
                         "--weights", weights)
        assert code == 2

    def test_stream_too_short(self, capsys, monkeypatch, tiny_model):
        _, manifest, weights = tiny_model
        raw = np.zeros(16, dtype="<f4").tobytes()
        monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": io.BytesIO(raw)})())
        code, _, _ = run(capsys, "predict", "--stream", "--model", manifest,
                         "--weights", weights)
        assert code == 5

    @pytest.mark.parametrize("where, value", [(0, np.nan), (1950, np.nan), (700, np.inf)],
                             ids=["nan-first", "nan-in-tail", "inf"])
    def test_stream_non_finite_sample_exits_2(self, capsys, monkeypatch, tiny_model,
                                              where, value):
        # 2000 samples make 61 frames: 15 whole 4-frame patches, then frame 60 (samples
        # 1920..1983) in a partial patch that is dropped at flush.
        _, manifest, weights = tiny_model
        x = tone(800.0, 0.25, 8000).astype("<f4")
        x[where] = value
        monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": io.BytesIO(x.tobytes())})())
        code, _, err = run(capsys, "predict", "--stream", "--model", manifest,
                           "--weights", weights)
        assert code == 2, err
        assert "non-finite" in err

    def test_stream_signalling_nan_exits_2(self, capsys, monkeypatch, tiny_model):
        # Under warnings-as-errors, widening the sample first would escape as a RuntimeWarning.
        _, manifest, weights = tiny_model
        x = tone(800.0, 0.25, 8000).astype("<f4")
        x.view("<u4")[700] = 0x7F800001
        monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": io.BytesIO(x.tobytes())})())
        code, _, err = run(capsys, "predict", "--stream", "--model", manifest,
                           "--weights", weights)
        assert code == 2, err
        assert "non-finite" in err

    def test_no_audio_no_stream(self, capsys, tiny_model):
        _, manifest, weights = tiny_model
        code, _, _ = run(capsys, "predict", "--model", manifest, "--weights", weights)
        assert code == 3

    def test_missing_model_file(self, capsys, tone_wav, tmp_path):
        code, _, _ = run(capsys, "predict", tone_wav,
                         "--model", str(tmp_path / "no.txt"),
                         "--weights", str(tmp_path / "no.bin"))
        assert code == 2

    def test_corrupt_manifest(self, capsys, tone_wav, tmp_path):
        m = tmp_path / "m.txt"
        w = tmp_path / "w.bin"
        m.write_text("not a manifest\n")
        w.write_bytes(b"MSTW" + b"\x00" * 8)
        code, _, _ = run(capsys, "predict", tone_wav, "--model", str(m),
                         "--weights", str(w))
        assert code == 4

    @pytest.mark.parametrize("old, new", [
        ("feature_config.hop_size 32", "feature_config.hop_size abc"),
        ("feature_config.window hann\n", ""),
    ], ids=["bad-int", "missing-key"])
    def test_malformed_feature_config_exits_4(self, capsys, tone_wav, tiny_model, old, new):
        _, manifest, weights = tiny_model
        text = Path(manifest).read_text(encoding="utf-8")
        assert old in text
        with open(manifest, "w", encoding="utf-8") as f:
            f.write(text.replace(old, new))
        code, _, err = run(capsys, "predict", tone_wav, "--model", manifest,
                           "--weights", weights)
        assert code == 4, err

    @pytest.mark.parametrize("old, new, what", [
        ("feature_config.fft_size 64", "feature_config.fft_size 131072", "fft_size"),
        ("feature_config.n_mels 6", "feature_config.n_mels 254201", "filterbank"),
    ], ids=["fft-size", "filterbank"])
    def test_front_end_above_its_bounds_exits_4(self, capsys, tone_wav, tiny_model,
                                                old, new, what):
        _, manifest, weights = tiny_model
        text = Path(manifest).read_text(encoding="utf-8")
        assert old in text
        Path(manifest).write_text(text.replace(old, new), encoding="utf-8")
        code, _, err = run(capsys, "predict", tone_wav, "--model", manifest,
                           "--weights", weights)
        assert code == 4, err
        assert what in err

    def test_f_max_above_model_nyquist_exits_4(self, capsys, tone_wav, tiny_model):
        # CFG's f_max is 4000, the tiny model's Nyquist; at 7000 Hz the model cannot run.
        _, manifest, weights = tiny_model
        path = Path(manifest)
        path.write_text(path.read_text().replace("sample_rate 8000", "sample_rate 7000"))
        code, _, err = run(capsys, "predict", tone_wav, "--model", manifest,
                           "--weights", weights)
        assert code == 4, err
        assert "Nyquist" in err

    def test_invalid_utf8_weight_name_exits_4(self, capsys, tone_wav, tiny_model):
        _, manifest, weights = tiny_model
        # Weights: past magic, version, count and the first name length. The
        # manifest is read before the weights, so its case fails on the manifest alone.
        for path, offset in ((weights, 4 + 8 + 2), (manifest, 0)):
            with open(path, "r+b") as f:
                f.seek(offset)
                f.write(b"\xff")
            code, _, _ = run(capsys, "predict", tone_wav, "--model", manifest,
                             "--weights", weights)
            assert code == 4

    def test_unlabeled_model_rejected(self, capsys, monkeypatch, tmp_path):
        nodes = [ms.Node("flat", "flatten", ("in",), {})]
        graph = ms.build_graph(input_name="in", input_shape=(4, 6, 1),
                               output_name="flat", embedding_name="flat",
                               nodes=nodes, weights={}, labels=(),
                               patch_frames=4, feature_config=CFG, sample_rate=8000)
        ms.save_model(graph, tmp_path / "m.txt", tmp_path / "w.bin")
        wav = tmp_path / "t.wav"
        write_tone_wav(wav, 500.0, 1.0, sr=8000)
        code, _, _ = run(capsys, "predict", str(wav), "--model",
                         str(tmp_path / "m.txt"), "--weights", str(tmp_path / "w.bin"))
        assert code == 3

        class Unread:
            def read1(self, size=-1):
                raise AssertionError("stdin read before the model's labels were checked")

        monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": Unread()})())
        monkeypatch.setattr(ms.StreamPipeline, "push", lambda *a: pytest.fail("pushed"))
        code, _, _ = run(capsys, "predict", "--stream", "--model",
                         str(tmp_path / "m.txt"), "--weights", str(tmp_path / "w.bin"))
        assert code == 3


class TestEmbed:
    def test_embeddings_match_forward(self, capsys, tiny_model, tmp_path):
        graph, manifest, weights = tiny_model
        wav = tmp_path / "t.wav"
        for sr in (8000, 44100):  # the model's rate, and one the file must be resampled from
            write_tone_wav(wav, 800.0, 1.0, sr=sr)
            payload = run_json(capsys, "embed", str(wav), "--model", manifest,
                               "--weights", weights)
            assert payload["layer"] == "flat"
            rows = np.array(payload["embeddings"], dtype=np.float32)
            expect = ms.embed_patches(graph, ms.load_pcm(str(wav)))
            assert np.array_equal(rows, expect)

    def test_short_track_padded_or_rejected(self, capsys, tiny_model, tmp_path):
        _, manifest, weights = tiny_model
        wav = tmp_path / "t.wav"
        write_tone_wav(wav, 800.0, 0.01, sr=8000)  # 80 samples: one frame of a 4-frame patch
        payload = run_json(capsys, "embed", str(wav), "--model", manifest,
                           "--weights", weights)
        assert payload["shape"] == [1, 24]
        code, _, _ = run(capsys, "embed", str(wav), "--model", manifest,
                         "--weights", weights, "--no-pad-short")
        assert code == 5

    def test_bin_format(self, capsys, tiny_model, tmp_path):
        graph, manifest, weights = tiny_model
        wav = tmp_path / "t.wav"
        write_tone_wav(wav, 800.0, 1.0, sr=8000)
        out = tmp_path / "emb.bin"
        code, _, err = run(capsys, "embed", str(wav), "--model", manifest,
                           "--weights", weights, "--format", "bin",
                           "--output", str(out))
        assert code == 0, err
        stored = read_weights(out)
        buf = ms.load_pcm(str(wav), graph.sample_rate)
        assert np.array_equal(stored["embeddings"], ms.embed_patches(graph, buf))


class TestModelErrors:
    """A model that loads but cannot run its own patches fails as a model error (exit 4)."""

    @pytest.mark.parametrize("command", ["predict", "predict-stream", "embed", "train-head",
                                         "crossval"])
    def test_input_that_cannot_take_its_patch_exits_4(self, capsys, monkeypatch, tiny_model,
                                                      tiny_dataset, tone_wav, tmp_path,
                                                      command):
        # The 4-frame input cannot take a 3-frame patch.
        _, manifest, weights = tiny_model
        path = Path(manifest)
        text = path.read_text()
        assert "patch_frames 4\n" in text
        path.write_text(text.replace("patch_frames 4\n", "patch_frames 3\n"))
        model = ("--model", manifest, "--weights", weights)
        argv = {
            "predict": ("predict", tone_wav, *model),
            "predict-stream": ("predict", "--stream", *model),
            "embed": ("embed", tone_wav, *model),
            "train-head": ("train-head", *model, "--dataset", tiny_dataset,
                           "--max-epochs", "1", "--output", str(tmp_path / "h.txt"),
                           "--output-weights", str(tmp_path / "h.bin")),
            "crossval": ("crossval", *model, "--dataset", tiny_dataset, "--folds", "2",
                         "--max-epochs", "1"),
        }[command]
        raw = tone(800.0, 0.25, 8000).astype("<f4").tobytes()
        monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": io.BytesIO(raw)})())
        code, _, err = run(capsys, *argv)
        assert code == 4, err
        assert "cannot feed graph input" in err

    @pytest.mark.parametrize("command", ["predict", "predict-stream", "embed"])
    def test_empty_mel_filter_exits_4(self, capsys, monkeypatch, tiny_model, tone_wav, command):
        # 40 mel filters between 0 and 4 kHz leave the lowest without a bin of a 64-point FFT.
        _, manifest, weights = tiny_model
        path = Path(manifest)
        text = path.read_text()
        assert "feature_config.n_mels 6\n" in text
        path.write_text(text.replace("feature_config.n_mels 6\n", "feature_config.n_mels 40\n"))
        model = ("--model", manifest, "--weights", weights)
        argv = {"predict": ("predict", tone_wav, *model),
                "predict-stream": ("predict", "--stream", *model),
                "embed": ("embed", tone_wav, *model)}[command]
        raw = tone(800.0, 0.25, 8000).astype("<f4").tobytes()
        monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": io.BytesIO(raw)})())
        code, _, err = run(capsys, *argv)
        assert code == 4, err
        assert "no nonzero weight" in err

    def test_rate_above_the_resampler_exits_4(self, capsys, tone_wav, tiny_model):
        _, manifest, weights = tiny_model
        path = Path(manifest)
        path.write_text(path.read_text().replace("sample_rate 8000", "sample_rate 500000"))
        code, _, err = run(capsys, "predict", tone_wav, "--model", manifest,
                           "--weights", weights)
        assert code == 4, err
        assert "sample_rate" in err


class TestTrainHead:
    def test_train_and_reload(self, capsys, tiny_model, tiny_dataset, tmp_path):
        _, manifest, weights = tiny_model
        out_m = tmp_path / "head.txt"
        out_w = tmp_path / "head.bin"
        payload = run_json(capsys, "train-head", "--model", manifest,
                           "--weights", weights, "--dataset", tiny_dataset,
                           "--max-epochs", "3", "--seed", "7",
                           "--output", str(out_m), "--output-weights", str(out_w))
        assert payload["classes"] == ["high", "low"]
        assert payload["epochs_run"] == 3
        assert payload["n_skipped"] == 0
        assert payload["n_train"] + payload["n_val"] == 8
        assert payload["reproducibility"]["seed"] == 7
        assert len(payload["reproducibility"]["config_hash"]) == 12
        assert payload["reproducibility"]["version"] == ms.__version__
        assert "training_log" not in payload

        composite = ms.load_model(out_m, out_w)
        assert composite.labels == ("high", "low")
        assert composite.output_name == "head_softmax"

    def test_log_flag(self, capsys, tiny_model, tiny_dataset, tmp_path):
        _, manifest, weights = tiny_model
        payload = run_json(capsys, "train-head", "--model", manifest,
                           "--weights", weights, "--dataset", tiny_dataset,
                           "--max-epochs", "2", "--log",
                           "--output", str(tmp_path / "h.txt"),
                           "--output-weights", str(tmp_path / "h.bin"))
        assert [e["epoch"] for e in payload["training_log"]] == [1, 2]

    def test_degenerate_dataset_exits_6(self, capsys, tiny_model, tmp_path):
        _, manifest, weights = tiny_model
        wav = tmp_path / "only.wav"
        write_tone_wav(wav, 500.0, 1.0, sr=8000)
        csv_path = tmp_path / "one_class.csv"
        dataset_csv(csv_path, [(f"t{i}", str(wav), ("same",)) for i in range(4)])
        code, _, _ = run(capsys, "train-head", "--model", manifest,
                         "--weights", weights, "--dataset", str(csv_path),
                         "--max-epochs", "1",
                         "--output", str(tmp_path / "h.txt"),
                         "--output-weights", str(tmp_path / "h.bin"))
        assert code == 6

    def test_bad_dataset_exits_7(self, capsys, tiny_model, tmp_path):
        _, manifest, weights = tiny_model
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("track_id,labels\nt1,x\n")
        code, _, _ = run(capsys, "train-head", "--model", manifest,
                         "--weights", weights, "--dataset", str(csv_path),
                         "--output", str(tmp_path / "h.txt"),
                         "--output-weights", str(tmp_path / "h.bin"))
        assert code == 7

    def test_bad_seed_exits_3(self, capsys, tiny_model, tiny_dataset, tmp_path):
        _, manifest, weights = tiny_model
        code, _, _ = run(capsys, "train-head", "--model", manifest,
                         "--weights", weights, "--dataset", tiny_dataset,
                         "--seed", "sometimes",
                         "--output", str(tmp_path / "h.txt"),
                         "--output-weights", str(tmp_path / "h.bin"))
        assert code == 3

    def test_every_train_spec_field_has_a_flag(self):
        # Each training flag (not --dataset, --variant or --hidden) plus --seed sets one
        # TrainSpec field, and each field is set by one of them.
        probe = argparse.ArgumentParser()
        _add_train_args(probe)
        flags = [a for a in probe._actions
                 if a.dest not in ("help", "dataset", "variant", "hidden")]
        argv = ["train-head", "--model", "m", "--weights", "w", "--dataset", "d",
                "--output", "o", "--output-weights", "ow", "--seed", "7"]
        for a in flags:
            argv += [a.option_strings[0], str(a.default + 1 if a.type is int else a.default / 2)]
        args = build_parser().parse_args(argv)
        train = _train_spec(args, _resolve_seed(args.seed))
        assert len(flags) + 1 == len(fields(ms.TrainSpec))
        for f in fields(ms.TrainSpec):
            assert getattr(train, f.name) != f.default, f.name


class TestCrossval:
    def test_report_payload(self, capsys, tiny_model, tiny_dataset):
        _, manifest, weights = tiny_model
        payload = run_json(capsys, "crossval", "--model", manifest,
                           "--weights", weights, "--dataset", tiny_dataset,
                           "--folds", "2", "--max-epochs", "2")
        assert 0.0 <= payload["balanced_accuracy"] <= 1.0
        assert payload["folds"] == 2
        assert payload["n_evaluated"] == 8
        assert "±" in payload["summary"]
        assert set(payload["per_class_recall"]) == {"low", "high"}

    def test_deterministic_output(self, capsys, tiny_model, tiny_dataset):
        _, manifest, weights = tiny_model
        args = ("crossval", "--model", manifest, "--weights", weights,
                "--dataset", tiny_dataset, "--folds", "2", "--max-epochs", "2")
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_random_seed(self, capsys, tiny_model, tiny_dataset):
        _, manifest, weights = tiny_model
        payload = run_json(capsys, "crossval", "--model", manifest,
                           "--weights", weights, "--dataset", tiny_dataset,
                           "--folds", "2", "--max-epochs", "1", "--seed", "random")
        assert isinstance(payload["reproducibility"]["seed"], int)
        assert 0 <= payload["reproducibility"]["seed"] < 2 ** 32


class TestHeadTracks:
    """train-head and crossval size the head from the tracks that decoded."""

    def test_class_with_no_readable_track_is_discarded(self, capsys, tiny_model, tiny_dataset,
                                                       tmp_path):
        _, manifest, weights = tiny_model
        rows = Path(tiny_dataset).read_text().splitlines()
        for i in range(3):
            bad = tmp_path / f"mid{i}.wav"
            bad.write_bytes(b"not a wav file")
            rows.append(f"mid{i},{bad},mid")
        csv_path = tmp_path / "three_classes.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        payload = run_json(capsys, "crossval", "--model", manifest, "--weights", weights,
                           "--dataset", str(csv_path), "--folds", "2", "--max-epochs", "1")
        assert payload["n_evaluated"] == 8
        assert payload["n_discarded"] == 3
        assert set(payload["per_class_recall"]) == {"low", "high"}

    @pytest.mark.parametrize("command", ["train-head", "crossval"])
    def test_no_track_decodes_exits_7(self, capsys, tiny_model, tmp_path, command):
        _, manifest, weights = tiny_model
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not a wav file")
        csv_path = tmp_path / "unreadable.csv"
        dataset_csv(csv_path, [(f"t{i}", str(bad), ("low" if i % 2 else "high",))
                               for i in range(4)])
        argv = {"train-head": ("--output", str(tmp_path / "h.txt"),
                               "--output-weights", str(tmp_path / "h.bin")),
                "crossval": ("--folds", "2")}[command]
        code, _, err = run(capsys, command, "--model", manifest, "--weights", weights,
                           "--dataset", str(csv_path), "--max-epochs", "1", *argv)
        assert code == 7, err
        assert "no track produced embeddings" in err


class TestCrossEval:
    def _constant_model(self, tmp_path):
        # Zero weights and a biased dense layer: always predicts "rock".
        nodes = [ms.Node("flat", "flatten", ("in",), {}),
                 ms.Node("logits", "dense", ("flat",), {"weight": "w", "bias": "b"}),
                 ms.Node("probs", "softmax", ("logits",), {})]
        weights = {"w": np.zeros((24, 2), dtype=np.float32),
                   "b": np.array([1.0, 0.0], dtype=np.float32)}
        graph = ms.build_graph(input_name="in", input_shape=(4, 6, 1),
                               output_name="probs", embedding_name="flat",
                               nodes=nodes, weights=weights,
                               labels=("rock", "electronic"), patch_frames=4,
                               feature_config=CFG, sample_rate=8000)
        ms.save_model(graph, tmp_path / "ce.txt", tmp_path / "ce.bin")
        return str(tmp_path / "ce.txt"), str(tmp_path / "ce.bin")

    def _taxonomy(self, tmp_path):
        p = tmp_path / "tax.tsv"
        p.write_text("classes\trock\telectronic\n"
                     "progressive rock\trock\n"
                     "techno\telectronic\n")
        return str(p)

    def test_scoring_and_discards(self, capsys, tmp_path):
        manifest, weights = self._constant_model(tmp_path)
        tax = self._taxonomy(tmp_path)
        wav = tmp_path / "x.wav"
        write_tone_wav(wav, 700.0, 1.0, sr=8000)
        csv_path = tmp_path / "ext.csv"
        dataset_csv(csv_path, [
            ("e1", str(wav), ("progressive rock",)),
            ("e2", str(wav), ("techno",)),
            ("e3", str(wav), ("polka",)),
        ])
        payload = run_json(capsys, "cross-eval", "--model", manifest,
                           "--weights", weights, "--dataset", str(csv_path),
                           "--taxonomy", tax)
        assert payload["n_discarded"] == 1
        assert payload["n_evaluated"] == 2
        # Constant "rock" predictor: rock recall 1, electronic recall 0.
        assert payload["per_class_recall"] == {"rock": 1.0, "electronic": 0.0}
        assert payload["balanced_accuracy"] == 0.5
        assert payload["confusion"] == {"rock": {"rock": 1}, "electronic": {"rock": 1}}

    def test_no_seed(self, capsys, tmp_path):
        # Scoring draws no random numbers, so there is no seed to set or report.
        manifest, weights = self._constant_model(tmp_path)
        wav = tmp_path / "x.wav"
        write_tone_wav(wav, 700.0, 1.0, sr=8000)
        csv_path = tmp_path / "ext.csv"
        dataset_csv(csv_path, [("e1", str(wav), ("techno",))])
        args = ("cross-eval", "--model", manifest, "--weights", weights,
                "--dataset", str(csv_path), "--taxonomy", self._taxonomy(tmp_path))
        assert run_json(capsys, *args)["reproducibility"]["seed"] is None
        with pytest.raises(SystemExit) as exc:
            main([*args, "--seed", "1"])
        assert exc.value.code == 3

    def test_unlabeled_model_exits_3(self, capsys, tmp_path):
        nodes = [ms.Node("flat", "flatten", ("in",), {})]
        graph = ms.build_graph(input_name="in", input_shape=(4, 6, 1),
                               output_name="flat", embedding_name="flat",
                               nodes=nodes, weights={}, labels=(),
                               patch_frames=4, feature_config=CFG, sample_rate=8000)
        ms.save_model(graph, tmp_path / "m.txt", tmp_path / "w.bin")
        code, _, _ = run(capsys, "cross-eval", "--model", str(tmp_path / "m.txt"),
                         "--weights", str(tmp_path / "w.bin"),
                         "--dataset", "unused.csv", "--taxonomy", "unused.tsv")
        assert code == 3

    def test_cyclic_taxonomy_exits_7(self, capsys, tmp_path):
        manifest, weights = self._constant_model(tmp_path)
        tax = tmp_path / "cyc.tsv"
        tax.write_text("classes\trock\na\tb\nb\ta\n")
        csv_path = tmp_path / "ext.csv"
        wav = tmp_path / "x.wav"
        write_tone_wav(wav, 700.0, 1.0, sr=8000)
        dataset_csv(csv_path, [("e1", str(wav), ("a",))])
        code, _, _ = run(capsys, "cross-eval", "--model", manifest,
                         "--weights", weights, "--dataset", str(csv_path),
                         "--taxonomy", str(tax))
        assert code == 7


class TestBench:
    def test_phases(self, capsys, tiny_model, tmp_path):
        _, manifest, weights = tiny_model
        wav = tmp_path / "t.wav"
        write_tone_wav(wav, 900.0, 1.0, sr=8000)
        payload = run_json(capsys, "bench", str(wav), "--model", manifest,
                           "--weights", weights, "--trials", "2")
        assert set(payload["phases"]) == {"model_load", "feature_extraction",
                                          "inference", "end_to_end"}
        for phase in payload["phases"].values():
            assert set(phase) == {"mean_s", "min_s", "max_s"}
            assert 0 <= phase["min_s"] <= phase["mean_s"] <= phase["max_s"]
        assert payload["real_time_factor"] > 0
        assert payload["trials"] == 2
        assert payload["audio_seconds"] == pytest.approx(1.0)

    def test_bad_trials(self, capsys, tiny_model, tmp_path):
        _, manifest, weights = tiny_model
        wav = tmp_path / "t.wav"
        write_tone_wav(wav, 900.0, 1.0, sr=8000)
        code, _, _ = run(capsys, "bench", str(wav), "--model", manifest,
                         "--weights", weights, "--trials", "0")
        assert code == 3


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert ms.__version__ in capsys.readouterr().out

    def test_no_command_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 3

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["melspec", "x.wav", "--bogus"])
        assert exc.value.code == 3

    def test_resolve_seed(self):
        assert _resolve_seed("17") == 17
        r = _resolve_seed("random")
        assert isinstance(r, int) and 0 <= r < 2 ** 32
        with pytest.raises(ConfigError):
            _resolve_seed("maybe")
