"""Container format: weights binary and manifest text."""

import struct

import numpy as np
import pytest

import melstream as ms
import melstream.inference.graph as graph_module
from melstream import dsp
import melstream.inference.model_io as model_io
from melstream.errors import ManifestError, MissingWeight, ModelLoadError, ShapeMismatch
from melstream.evaluation import DatasetEntry
from melstream.inference import OPS
from melstream.inference.model_io import (encode_weights, format_manifest,
                                          parse_manifest, read_weights,
                                          write_weights)

from util import VALID_CNN_RATE, linear_classifier, valid_cnn, write_tone_wav


def _load_with_node(tmp_path, line):
    """load_model on a saved linear_classifier whose manifest gains one node line."""
    manifest = tmp_path / "m.txt"
    ms.save_model(linear_classifier(seed=3), manifest, tmp_path / "m.bin")
    manifest.write_text(manifest.read_text() + line + "\n")
    return ms.load_model(manifest, tmp_path / "m.bin")


class TestWeightsBinary:
    def test_golden_bytes(self):
        # Hand-assemble the expected encoding for two small tensors.
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        b = np.array([1.5], dtype=np.float32)
        got = encode_weights({"a": a, "b": b})

        expect = bytearray()
        expect += b"MSTW"
        expect += struct.pack("<II", 1, 2)
        expect += struct.pack("<H", 1) + b"a"
        expect += struct.pack("<B", 2)
        expect += struct.pack("<II", 2, 3)
        expect += a.astype("<f4").tobytes()
        expect += struct.pack("<H", 1) + b"b"
        expect += struct.pack("<B", 1)
        expect += struct.pack("<I", 1)
        expect += b.astype("<f4").tobytes()
        assert got == bytes(expect)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        weights = {
            "conv/kernel": rng.normal(size=(3, 3, 1, 4)).astype(np.float32),
            "scalar": np.float32(2.5) * np.ones((1,), dtype=np.float32),
            "deep": rng.normal(size=(2, 2, 2, 2)).astype(np.float32),
        }
        p = tmp_path / "w.bin"
        write_weights(p, weights)
        back = read_weights(p)
        assert set(back) == set(weights)
        for name in weights:
            assert back[name].dtype == np.float32
            assert np.array_equal(back[name], weights[name])

    def test_float64_input_cast_once(self, tmp_path):
        w = {"x": np.array([1.0 / 3.0], dtype=np.float64)}
        p = tmp_path / "w.bin"
        write_weights(p, w)
        back = read_weights(p)
        assert back["x"].dtype == np.float32
        assert back["x"][0] == np.float32(1.0 / 3.0)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "w.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ModelLoadError):
            read_weights(p)

    def test_too_short(self, tmp_path):
        p = tmp_path / "w.bin"
        p.write_bytes(b"MSTW\x01")
        with pytest.raises(ModelLoadError):
            read_weights(p)

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "w.bin"
        p.write_bytes(b"MSTW" + struct.pack("<II", 2, 0))
        with pytest.raises(ModelLoadError):
            read_weights(p)

    def test_truncated_tensor_data(self, tmp_path):
        data = encode_weights({"x": np.ones((4, 4), dtype=np.float32)})
        p = tmp_path / "w.bin"
        p.write_bytes(data[:-8])
        with pytest.raises(ModelLoadError):
            read_weights(p)

    def test_truncated_header(self, tmp_path):
        data = encode_weights({"longname": np.ones(3, dtype=np.float32)})
        p = tmp_path / "w.bin"
        # Cut inside the dims block of the first entry.
        p.write_bytes(data[: 4 + 8 + 2 + len("longname") + 1 + 2])
        with pytest.raises(ModelLoadError):
            read_weights(p)

    def test_name_cut_short_by_eof(self, tmp_path):
        # The cut splits the two-byte "é": the length check comes before decoding.
        data = encode_weights({"aé": np.ones(3, dtype=np.float32)})
        p = tmp_path / "w.bin"
        p.write_bytes(data[: 4 + 8 + 2 + 2])
        with pytest.raises(ModelLoadError, match="inside a name"):
            read_weights(p)

    def test_invalid_utf8_name(self, tmp_path):
        data = bytearray(encode_weights({"x": np.ones(2, dtype=np.float32)}))
        data[4 + 8 + 2] = 0xFF
        p = tmp_path / "w.bin"
        p.write_bytes(bytes(data))
        with pytest.raises(ModelLoadError):
            read_weights(p)

    def test_duplicate_names_rejected(self, tmp_path):
        one = encode_weights({"x": np.ones(2, dtype=np.float32)})
        entry = one[12:]
        p = tmp_path / "w.bin"
        p.write_bytes(b"MSTW" + struct.pack("<II", 1, 2) + entry + entry)
        with pytest.raises(ModelLoadError):
            read_weights(p)

    @pytest.mark.parametrize("dims", [(1,) * 65, (0, 0xFFFFFFFF, 0xFFFFFFFF)])
    def test_shape_numpy_refuses(self, tmp_path, dims):
        # Both pass the size check (one element, or none) but numpy cannot make the array.
        name = b"x"
        entry = struct.pack("<H", len(name)) + name + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
        p = tmp_path / "w.bin"
        p.write_bytes(b"MSTW" + struct.pack("<II", 1, 1) + entry + b"\0" * 4)
        with pytest.raises(ModelLoadError, match="bad tensor shape"):
            read_weights(p)

    def test_empty_dict(self, tmp_path):
        p = tmp_path / "w.bin"
        write_weights(p, {})
        assert read_weights(p) == {}


class TestManifestText:
    def test_format_parse_round_trip(self):
        g = linear_classifier(seed=3)
        text = format_manifest(g)
        pieces = parse_manifest(text)
        assert pieces["input_name"] == g.input_name
        assert pieces["input_shape"] == g.input_shape
        assert pieces["output_name"] == g.output_name
        assert pieces["embedding_name"] == g.embedding_name
        assert pieces["patch_frames"] == g.patch_frames
        assert pieces["sample_rate"] == g.sample_rate
        assert pieces["labels"] == g.labels
        assert pieces["feature_config"] == g.feature_config
        assert pieces["weight_decls"] == {k: v.shape for k, v in g.weights.items()}
        assert [n.name for n in pieces["nodes"]] == [n.name for n in g.nodes]
        assert [n.op for n in pieces["nodes"]] == [n.op for n in g.nodes]

    def test_comments_and_blank_lines_ignored(self):
        g = linear_classifier(seed=3)
        text = format_manifest(g)
        noisy = "# header comment\n\n" + text.replace(
            "\noutput", "\n  # indented comment\n\noutput")
        pieces = parse_manifest(noisy)
        assert pieces["output_name"] == g.output_name

    @pytest.mark.parametrize("key", ["format_version", "input", "output",
                                     "embedding", "patch_frames", "sample_rate"])
    def test_missing_required_key(self, key):
        text = format_manifest(linear_classifier(seed=3))
        kept = "\n".join(l for l in text.splitlines()
                         if not l.startswith(key + " "))
        with pytest.raises(ManifestError):
            parse_manifest(kept)

    def test_duplicate_header_key(self):
        text = format_manifest(linear_classifier(seed=3))
        with pytest.raises(ManifestError):
            parse_manifest(text + "output probs\n")

    def test_duplicate_weight_declaration(self):
        text = format_manifest(linear_classifier(seed=3))
        line = next(l for l in text.splitlines() if l.startswith("weight "))
        with pytest.raises(ManifestError):
            parse_manifest(text + line + "\n")

    def test_unknown_key(self):
        text = format_manifest(linear_classifier(seed=3))
        with pytest.raises(ManifestError):
            parse_manifest(text + "frobnicate 3\n")

    @pytest.mark.parametrize("dims", ["3,0", "-1", "a,b", ""])
    def test_bad_dims(self, dims):
        with pytest.raises(ManifestError):
            parse_manifest(f"format_version 1\ninput in {dims}\n")

    def test_bad_format_version(self):
        text = format_manifest(linear_classifier(seed=3))
        bumped = text.replace("format_version 1", "format_version 9", 1)
        with pytest.raises(ManifestError):
            parse_manifest(bumped)

    def test_empty_labels_means_feature_extractor(self):
        g = linear_classifier(seed=3)
        text = "\n".join(l for l in format_manifest(g).splitlines()
                         if not l.startswith("labels "))
        assert parse_manifest(text)["labels"] == ()

    def test_node_line_unknown_param(self):
        with pytest.raises(ManifestError):
            parse_manifest("format_version 1\ninput in 4\noutput n\n"
                           "embedding n\npatch_frames 4\nsample_rate 8000\n"
                           "node n relu inputs=in bogus=1\n")

    def test_node_line_bad_value(self):
        with pytest.raises(ManifestError):
            parse_manifest("format_version 1\ninput in 4\noutput n\n"
                           "embedding n\npatch_frames 4\nsample_rate 8000\n"
                           "node n elu inputs=in alpha=soft\n")

    def test_node_line_bare_token(self):
        with pytest.raises(ManifestError):
            parse_manifest("format_version 1\ninput in 4\noutput n\n"
                           "embedding n\npatch_frames 4\nsample_rate 8000\n"
                           "node n relu in\n")

    # Param values are checked once, by build_graph, so these load a whole model.
    def test_node_line_missing_required_weight(self, tmp_path):
        with pytest.raises(ManifestError, match="requires 'weight'"):
            _load_with_node(tmp_path, "node n dense inputs=in")

    def test_node_line_missing_required_param(self, tmp_path):
        with pytest.raises(ManifestError, match="requires 'pool'"):
            _load_with_node(tmp_path, "node n max_pool2d inputs=in")

    @pytest.mark.parametrize("node", ["node n max_pool2d inputs=in pool=0,2",
                                      "node n mean_pool2d inputs=in pool=2,2 stride=1,0",
                                      "node n max_pool2d inputs=in pool=-1,2",
                                      "node n conv2d inputs=in weight=k stride=0,1"],
                             ids=["pool-zero", "stride-zero", "pool-negative", "conv-stride-zero"])
    def test_node_line_non_positive_pair(self, tmp_path, node):
        with pytest.raises(ManifestError, match="must be positive"):
            _load_with_node(tmp_path, node)

    @pytest.mark.parametrize("old, new", [
        ("feature_config.hop_size 256", "feature_config.hop_size abc"),
        ("feature_config.window hann\n", ""),
        ("feature_config.window hann", "feature_config.window tukey"),
        ("feature_config.f_min 0", "feature_config.f_min 9000"),
    ], ids=["bad-int", "missing-key", "unknown-window", "f_min-above-f_max"])
    def test_malformed_feature_config_is_a_manifest_error(self, tmp_path, old, new):
        g = linear_classifier(seed=3)
        text = format_manifest(g)
        assert old in text
        with pytest.raises(ManifestError, match="feature_config"):
            parse_manifest(text.replace(old, new))
        ms.save_model(g, tmp_path / "m.txt", tmp_path / "m.bin")
        (tmp_path / "m.txt").write_text(text.replace(old, new))
        with pytest.raises(ManifestError):
            ms.load_model(tmp_path / "m.txt", tmp_path / "m.bin")


class TestSaveLoad:
    def test_params_normalized_once_per_node_per_load(self, tmp_path, monkeypatch):
        g = valid_cnn()
        ms.save_model(g, tmp_path / "m.txt", tmp_path / "m.bin")
        calls = []
        normalize = graph_module.normalize_params

        def counting(name, op, given):
            calls.append(name)
            return normalize(name, op, given)

        monkeypatch.setattr(graph_module, "normalize_params", counting)
        monkeypatch.setattr(model_io, "normalize_params", counting, raising=False)
        loaded = ms.load_model(tmp_path / "m.txt", tmp_path / "m.bin")
        assert sorted(calls) == sorted(node.name for node in g.nodes)
        assert [n.params for n in loaded.nodes] == [n.params for n in g.nodes]

    def test_forward_bit_exact_after_round_trip(self, tmp_path):
        g = linear_classifier(seed=11)
        ms.save_model(g, tmp_path / "m.txt", tmp_path / "m.bin")
        g2 = ms.load_model(tmp_path / "m.txt", tmp_path / "m.bin")

        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, g.input_shape).astype(np.float32)
        a = ms.forward(g, x)
        b = ms.forward(g2, x)
        assert a.dtype == b.dtype == np.float32
        assert np.array_equal(a, b)
        assert g2.labels == g.labels
        assert g2.feature_config == g.feature_config

    def test_save_is_deterministic(self, tmp_path):
        g = linear_classifier(seed=11)
        ms.save_model(g, tmp_path / "a.txt", tmp_path / "a.bin")
        ms.save_model(g, tmp_path / "b.txt", tmp_path / "b.bin")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_declared_shape_mismatch(self, tmp_path):
        g = linear_classifier(seed=11)
        ms.save_model(g, tmp_path / "m.txt", tmp_path / "m.bin")
        text = (tmp_path / "m.txt").read_text()
        name, arr = next(iter(g.weights.items()))
        dims = ",".join(str(d) for d in arr.shape)
        wrong = ",".join(str(d + 1) for d in arr.shape)
        (tmp_path / "m.txt").write_text(
            text.replace(f"weight {name} {dims}", f"weight {name} {wrong}", 1))
        with pytest.raises(ShapeMismatch):
            ms.load_model(tmp_path / "m.txt", tmp_path / "m.bin")

    def test_invalid_utf8_manifest(self, tmp_path):
        g = linear_classifier(seed=11)
        ms.save_model(g, tmp_path / "m.txt", tmp_path / "m.bin")
        with open(tmp_path / "m.txt", "ab") as f:
            f.write(b"# \xff\n")
        with pytest.raises(ManifestError, match="UTF-8"):
            ms.load_model(tmp_path / "m.txt", tmp_path / "m.bin")

    def test_declared_weight_absent_from_file(self, tmp_path):
        g = linear_classifier(seed=11)
        ms.save_model(g, tmp_path / "m.txt", tmp_path / "m.bin")
        kept = {k: v for k, v in list(g.weights.items())[1:]}
        write_weights(tmp_path / "m.bin", kept)
        with pytest.raises(MissingWeight):
            ms.load_model(tmp_path / "m.txt", tmp_path / "m.bin")

    def test_referenced_weight_not_declared(self, tmp_path):
        # Weight present in the binary but its manifest declaration removed:
        # the node reference should fail with the undeclared hint.
        g = linear_classifier(seed=11)
        ms.save_model(g, tmp_path / "m.txt", tmp_path / "m.bin")
        name = next(iter(g.weights))
        lines = [l for l in (tmp_path / "m.txt").read_text().splitlines()
                 if not l.startswith(f"weight {name} ")]
        (tmp_path / "m.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(MissingWeight, match="not declared"):
            ms.load_model(tmp_path / "m.txt", tmp_path / "m.bin")

    def test_extra_stored_weights_ignored(self, tmp_path):
        g = linear_classifier(seed=11)
        ms.save_model(g, tmp_path / "m.txt", tmp_path / "m.bin")
        stored = read_weights(tmp_path / "m.bin")
        stored["unused_extra"] = np.zeros(3, dtype=np.float32)
        write_weights(tmp_path / "m.bin", stored)
        g2 = ms.load_model(tmp_path / "m.txt", tmp_path / "m.bin")
        assert "unused_extra" not in g2.weights


# Every op with each of its params set off the default, as (input shape, params, weight shapes).
_OFF_DEFAULT = {
    "conv2d": ((6, 5, 2), {"weight": "k", "bias": "b", "stride": (2, 1), "padding": "same"},
               {"k": (3, 2, 2, 4), "b": (4,)}),
    "dense": ((10,), {"weight": "w", "bias": "b"}, {"w": (10, 3), "b": (3,)}),
    "batch_norm": ((6, 5, 2), {"gamma": "g", "beta": "be", "mean": "m", "variance": "v",
                               "epsilon": 1.234567891e-3},
                   {"g": (2,), "be": (2,), "m": (2,), "v": (2,)}),
    "max_pool2d": ((6, 5, 2), {"pool": (2, 3), "stride": (1, 2)}, {}),
    "mean_pool2d": ((6, 5, 2), {"pool": (3, 2), "stride": (2, 1)}, {}),
    "relu": ((6, 5, 2), {}, {}),
    "elu": ((6, 5, 2), {"alpha": 0.123456789}, {}),
    "sigmoid": ((6, 5, 2), {}, {}),
    "softmax": ((6, 5, 2), {}, {}),
    "flatten": ((6, 5, 2), {}, {}),
    "dropout": ((6, 5, 2), {}, {}),
    "concat": ((6, 5, 2), {"axis": 1}, {}),
}


def _off_default_graph(op):
    shape, params, wshapes = _OFF_DEFAULT[op]
    rng = np.random.default_rng(5)
    weights = {k: rng.uniform(0.5, 1.5, s).astype(np.float32) for k, s in wshapes.items()}
    inputs = ("in", "in") if op == "concat" else ("in",)
    return ms.build_graph(input_name="in", input_shape=shape, output_name="n",
                          embedding_name="n", nodes=[ms.Node("n", op, inputs, params)],
                          weights=weights, labels=(), patch_frames=6,
                          feature_config=ms.preset("musicnn-96"), sample_rate=16000)


def _rebuilt(g, **changes):
    """``g`` built again by build_graph, with some of its arguments replaced."""
    args = {"input_name": g.input_name, "input_shape": g.input_shape,
            "output_name": g.output_name, "embedding_name": g.embedding_name,
            "nodes": g.nodes, "weights": g.weights, "labels": g.labels,
            "patch_frames": g.patch_frames, "feature_config": g.feature_config,
            "sample_rate": g.sample_rate}
    return ms.build_graph(**{**args, **changes})


class TestEveryGraphReloads:
    def test_cases_cover_every_op(self):
        assert set(_OFF_DEFAULT) == set(OPS)

    @pytest.mark.parametrize("op", sorted(_OFF_DEFAULT))
    def test_round_trip_bit_exact(self, tmp_path, op):
        for p, (_, default) in OPS[op].params.items():
            assert _OFF_DEFAULT[op][1][p] != default, p
        g = _off_default_graph(op)
        ms.save_model(g, tmp_path / "m.txt", tmp_path / "m.bin")
        g2 = ms.load_model(tmp_path / "m.txt", tmp_path / "m.bin")
        assert format_manifest(g2) == (tmp_path / "m.txt").read_text()
        assert g2.nodes[0].params == g.nodes[0].params
        x = np.random.default_rng(6).uniform(-2, 2, g.input_shape).astype(np.float32)
        assert np.array_equal(ms.forward(g, x), ms.forward(g2, x))

    def test_labels_with_inner_spaces_reload(self, tmp_path):
        g = _rebuilt(linear_classifier(seed=3), labels=("hip hop", "drum  and bass", "r&b"))
        ms.save_model(g, tmp_path / "m.txt", tmp_path / "m.bin")
        assert ms.load_model(tmp_path / "m.txt", tmp_path / "m.bin").labels == g.labels

    def test_config_beyond_six_digits_reloads(self, tmp_path):
        # The second config gives an integer field as a bool, which is stored as 1.
        for cfg in (ms.MelConfig(frame_size=512, hop_size=256, n_mels=96, f_min=12.34567,
                                 f_max=7999.9999),
                    ms.MelConfig(frame_size=512, hop_size=True, n_mels=96)):
            g = _rebuilt(linear_classifier(seed=3), feature_config=cfg)
            ms.save_model(g, tmp_path / "m.txt", tmp_path / "m.bin")
            assert ms.load_model(tmp_path / "m.txt", tmp_path / "m.bin").feature_config == \
                g.feature_config

    @pytest.mark.parametrize("old, new", [
        ("epsilon=0.001234567891", "epsilon=nan"),
        ("output n\n", "output n\ninput in 6,5,2\n"),
        ("feature_config.window hann\n", "feature_config.window hann\n" * 2),
        ("epsilon=0.001234567891", "epsilon=0.5 epsilon=0.001234567891"),
        ("sample_rate 16000", "sample_rate 500000"),
        ("feature_config.n_mels 96", "feature_config.n_mels 256"),
    ], ids=["float-nan", "second-input", "repeated-feature-config", "repeated-param",
            "rate-above-resampler", "empty-mel-filter"])
    def test_manifest_rejected_at_load(self, tmp_path, old, new):
        ms.save_model(_off_default_graph("batch_norm"), tmp_path / "m.txt", tmp_path / "m.bin")
        text = (tmp_path / "m.txt").read_text()
        assert old in text
        (tmp_path / "m.txt").write_text(text.replace(old, new))
        with pytest.raises(ManifestError):
            ms.load_model(tmp_path / "m.txt", tmp_path / "m.bin")

    def test_f_max_above_model_nyquist(self, tmp_path):
        g = linear_classifier(seed=3)
        ms.save_model(g, tmp_path / "m.txt", tmp_path / "m.bin")
        text = (tmp_path / "m.txt").read_text()
        assert "sample_rate 16000\n" in text and "feature_config.f_max 8000\n" in text
        (tmp_path / "m.txt").write_text(text.replace("sample_rate 16000", "sample_rate 8000"))
        with pytest.raises(ManifestError, match="Nyquist"):
            ms.load_model(tmp_path / "m.txt", tmp_path / "m.bin")


class TestFrontEndBuiltOnce:
    """``load_model`` builds the model's mel front end; running the model never builds it again."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls, real = [], dsp.mel_filterbank
        monkeypatch.setattr(dsp, "mel_filterbank", lambda *a: calls.append(a) or real(*a))
        dsp._front_end.cache_clear()
        yield calls
        dsp._front_end.cache_clear()

    def test_no_rebuild_after_the_first_load(self, tmp_path, builds):
        ms.save_model(valid_cnn(), tmp_path / "m.txt", tmp_path / "m.bin")
        wavs = [tmp_path / f"t{i}.wav" for i in range(3)]
        for i, wav in enumerate(wavs):
            write_tone_wav(wav, 300.0 + 200 * i, 0.8, sr=VALID_CNN_RATE)
        dsp._front_end.cache_clear()
        builds.clear()
        graph = ms.load_model(tmp_path / "m.txt", tmp_path / "m.bin")
        assert len(builds) == 1
        for wav in wavs:
            ms.predict(graph, ms.load_pcm(wav))
        ms.embed_patches(graph, ms.load_pcm(wavs[0]))
        ms.extract_embeddings(graph, ms.DatasetManifest(
            entries=[DatasetEntry(f"t{i}", str(wav), ("x",)) for i, wav in enumerate(wavs)]))
        ms.StreamPipeline(model=graph).push(ms.load_pcm(wavs[0]).samples)
        assert len(builds) == 1
