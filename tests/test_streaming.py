import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import melstream as ms
import melstream.inference.graph as graph_module
import melstream.streaming
from melstream.dsp import _MEL_BLOCK
from melstream.errors import AlreadyFlushed, InputShapeMismatch, UnsupportedFormat
from melstream.inference.prediction import run_patches

from util import VALID_CNN_CONFIG, VALID_CNN_RATE, linear_classifier, valid_cnn


def stream_all(pipe, signal, chunks):
    """Push `signal` split at the given chunk sizes; return frames, patches."""
    frames, patches = [], []
    i = 0
    for n in chunks:
        r = pipe.push(signal[i:i + n])
        frames.append(r.frames)
        if r.patch_outputs.size:
            patches.append(r.patch_outputs)
        i += n
    assert i >= len(signal)
    r = pipe.flush()
    frames.append(r.frames)
    if r.patch_outputs.size:
        patches.append(r.patch_outputs)
    f = np.concatenate(frames) if frames else np.empty((0, 0))
    p = np.concatenate(patches) if patches else np.empty((0, 0))
    return f, p


def random_chunking(rng, total, lo=1, hi=5000):
    sizes = []
    left = total
    while left > 0:
        n = int(rng.integers(lo, hi + 1))
        sizes.append(min(n, left))
        left -= sizes[-1]
    return sizes


class TestStreamEqualsOffline:
    @pytest.mark.parametrize("preset_name", ["musicnn-96", "vgg-64"])
    def test_presets_random_chunks(self, preset_name):
        rng = np.random.default_rng(11)
        cfg = ms.preset(preset_name)
        x = rng.uniform(-1, 1, 16000 * 2 + 137)
        offline = ms.mel_spectrogram(ms.AudioBuffer(x, 16000), cfg).frames
        for trial in range(5):
            pipe = ms.StreamPipeline(config=cfg, sample_rate=16000)
            frames, _ = stream_all(pipe, x, random_chunking(rng, x.size))
            assert np.array_equal(frames, offline), f"trial {trial}"

    def test_single_sample_chunks(self):
        cfg = ms.MelConfig(frame_size=64, hop_size=32, n_mels=6, f_max=4000.0)
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, 700)
        offline = ms.mel_spectrogram(ms.AudioBuffer(x, 8000), cfg).frames
        pipe = ms.StreamPipeline(config=cfg, sample_rate=8000)
        frames, _ = stream_all(pipe, x, [1] * x.size)
        assert np.array_equal(frames, offline)

    def test_one_giant_chunk(self):
        cfg = ms.preset("musicnn-96")
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, 16000 * 4)
        offline = ms.mel_spectrogram(ms.AudioBuffer(x, 16000), cfg).frames
        pipe = ms.StreamPipeline(config=cfg, sample_rate=16000)
        frames, _ = stream_all(pipe, x, [x.size])
        assert np.array_equal(frames, offline)

    def test_chunk_larger_than_ring_capacity(self):
        # pushes bigger than the ring must loop internally, not overflow
        cfg = ms.MelConfig(frame_size=128, hop_size=64, n_mels=8, f_max=4000.0)
        rng = np.random.default_rng(14)
        x = rng.uniform(-1, 1, 50000)
        offline = ms.mel_spectrogram(ms.AudioBuffer(x, 8000), cfg).frames
        pipe = ms.StreamPipeline(config=cfg, sample_rate=8000)
        frames, _ = stream_all(pipe, x, [x.size])
        assert np.array_equal(frames, offline)

    def test_kernel_called_through_module_name_in_blocks(self, monkeypatch):
        # Tracers patch streaming._mel_frame and count its rows; no call may exceed the
        # offline block, and the rows must add up to the frames emitted.
        calls = []
        kernel = melstream.streaming._mel_frame

        def counting(segments, *args):
            calls.append(len(segments))
            return kernel(segments, *args)

        monkeypatch.setattr(melstream.streaming, "_mel_frame", counting)
        cfg = ms.MelConfig(frame_size=64, hop_size=32, n_mels=6, f_max=4000.0)
        rng = np.random.default_rng(17)
        x = rng.uniform(-1, 1, 32 * 300 + 500)
        offline = ms.mel_spectrogram(ms.AudioBuffer(x, 8000), cfg).frames
        pipe = ms.StreamPipeline(config=cfg, sample_rate=8000)
        frames, _ = stream_all(pipe, x, [32 * 300] + [1] * 500)
        assert np.array_equal(frames, offline)
        assert calls[0] == _MEL_BLOCK and max(calls) <= _MEL_BLOCK
        assert all(n >= 1 for n in calls)
        assert sum(calls) == pipe.frames_emitted == len(offline)


class TestPartials:
    def test_flush_drops_partial_frame(self):
        cfg = ms.MelConfig(frame_size=64, hop_size=32, n_mels=6, f_max=4000.0)
        pipe = ms.StreamPipeline(config=cfg, sample_rate=8000)
        r1 = pipe.push(np.ones(63))
        assert r1.frames.shape[0] == 0
        r2 = pipe.flush()
        assert r2.frames.shape[0] == 0

    def test_no_patch_for_sub_patch_stream(self):
        graph = linear_classifier(patch_frames=10)
        pipe = ms.StreamPipeline(model=graph)
        # 9 frames worth of samples: 512 + 8*256 = 2560
        r1 = pipe.push(np.zeros(2560))
        r2 = pipe.flush()
        assert r1.frames.shape[0] + r2.frames.shape[0] == 9
        assert r1.patch_outputs.shape[0] == 0
        assert r2.patch_outputs.shape[0] == 0

    def test_push_after_flush(self):
        cfg = ms.MelConfig(frame_size=64, hop_size=32, n_mels=6, f_max=4000.0)
        pipe = ms.StreamPipeline(config=cfg, sample_rate=8000)
        pipe.push(np.zeros(100))
        pipe.flush()
        with pytest.raises(AlreadyFlushed):
            pipe.push(np.zeros(10))
        with pytest.raises(AlreadyFlushed):
            pipe.flush()


class TestModelStreaming:
    def test_patches_match_offline_predict(self):
        graph = linear_classifier(patch_frames=20)
        rng = np.random.default_rng(15)
        x = rng.uniform(-0.9, 0.9, 16000 * 3)
        buf = ms.AudioBuffer(x, 16000)
        offline = ms.predict(graph, buf).per_patch
        pipe = ms.StreamPipeline(model=graph)
        _, patches = stream_all(pipe, x, random_chunking(rng, x.size, 50, 20000))
        assert patches.dtype == np.float32
        assert np.array_equal(patches, offline)

    def test_counters(self):
        graph = linear_classifier(patch_frames=10)
        pipe = ms.StreamPipeline(model=graph)
        x = np.random.default_rng(16).uniform(-1, 1, 16000)
        pipe.push(x)
        pipe.flush()
        assert pipe.frames_emitted == ms.frame_count(16000, 512, 256)
        assert pipe.patches_emitted == pipe.frames_emitted // 10

    def test_config_model_disagreement(self):
        graph = linear_classifier()
        other = ms.MelConfig(frame_size=64, hop_size=32, n_mels=6, f_max=4000.0)
        with pytest.raises(ValueError):
            ms.StreamPipeline(config=other, model=graph)

    def test_rate_model_disagreement(self):
        graph = linear_classifier()
        with pytest.raises(ValueError, match="sample_rate"):
            ms.StreamPipeline(model=graph, sample_rate=44100)
        pipe = ms.StreamPipeline(model=graph, sample_rate=graph.sample_rate)
        assert pipe.sample_rate == graph.sample_rate

    def test_model_input_checked_at_construction(self):
        cfg = ms.MelConfig(frame_size=64, hop_size=32, n_mels=6, f_max=4000.0)
        graph = ms.build_graph(input_name="in", input_shape=(5, 6, 1), output_name="flat",
                               embedding_name="flat",
                               nodes=[ms.Node("flat", "flatten", ("in",), {})], weights={},
                               labels=(), patch_frames=4, feature_config=cfg, sample_rate=8000)
        with pytest.raises(InputShapeMismatch):
            ms.StreamPipeline(model=graph)


def _valid_cnn_signal(patches: int = 3, seed: int = 21) -> np.ndarray:
    # 256 + 39 * 64 samples make one 40-frame patch; add a partial patch after the last.
    return np.random.default_rng(seed).uniform(-0.9, 0.9, patches * 2752 + 900)


class TestPrefixStreaming:
    """A model with a time-local prefix: blocks run as the patch fills."""

    @pytest.mark.parametrize("chunk", [1, 7, 256, 4096, 65536])
    def test_patches_match_offline_predict(self, chunk):
        graph = valid_cnn()
        x = _valid_cnn_signal()
        offline = ms.predict(graph, ms.AudioBuffer(x, VALID_CNN_RATE)).per_patch
        pipe = ms.StreamPipeline(model=graph)
        _, patches = stream_all(pipe, x, [chunk] * -(-x.size // chunk))
        assert offline.shape == (3, 5)
        assert np.array_equal(patches, offline)

    @pytest.mark.parametrize("block", [1, 2, 5, 16, 64])
    def test_random_cuts_at_any_block_size(self, monkeypatch, block):
        monkeypatch.setattr(graph_module, "_ROW_BLOCK", block)
        graph = valid_cnn()
        rng = np.random.default_rng(22 + block)
        x = _valid_cnn_signal(seed=block)
        offline = ms.predict(graph, ms.AudioBuffer(x, VALID_CNN_RATE)).per_patch
        for trial in range(4):
            pipe = ms.StreamPipeline(model=graph)
            _, patches = stream_all(pipe, x, random_chunking(rng, x.size, 1, 3000))
            assert np.array_equal(patches, offline), f"trial {trial}"

    def test_prefix_output_not_overwritten_by_later_patches(self):
        # The output is the prefix's last node, so the suffix is empty; one push
        # completes three patches.
        graph = valid_cnn(output="front")
        x = _valid_cnn_signal()
        mel = ms.mel_spectrogram(ms.AudioBuffer(x, VALID_CNN_RATE), graph.feature_config)
        offline = run_patches(graph, ms.tile_patches(mel.frames, graph.patch_frames))
        _, patches = stream_all(ms.StreamPipeline(model=graph), x, [x.size])
        assert patches.shape == (3, 34 * 18)
        assert np.array_equal(patches, offline)

    def test_held_rows_do_not_grow(self):
        pipe = ms.StreamPipeline(model=valid_cnn())
        x = _valid_cnn_signal(patches=6)
        sizes = []
        for i in range(0, x.size, 97):
            pipe.push(x[i:i + 97])
            sizes.append((pipe._patch.shape, {k: v.shape for k, v in pipe._eval._rows.items()}))
        assert pipe.patches_emitted == 6
        assert all(size == ((40, 24), {"front": (34, 1, 18)}) for size in sizes)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_stream_matches_offline_at_blas_threads(self, threads):
        # A 120-frame patch makes the convs' GEMMs large enough to be threaded.
        code = textwrap.dedent("""
            import numpy as np
            import melstream as ms
            from test_streaming import random_chunking, stream_all
            from util import VALID_CNN_RATE, valid_cnn

            graph = valid_cnn(patch_frames=120)
            x = np.random.default_rng(5).uniform(-0.9, 0.9, 3 * 7872 + 500)
            offline = ms.predict(graph, ms.AudioBuffer(x, VALID_CNN_RATE)).per_patch
            rng = np.random.default_rng(6)
            cuts = [[7] * -(-x.size // 7), [256] * -(-x.size // 256), [x.size],
                    random_chunking(rng, x.size, 1, 5000)]
            for chunks in cuts:
                _, patches = stream_all(ms.StreamPipeline(model=graph), x, chunks)
                assert patches.shape == (3, 5) and np.array_equal(patches, offline)
            print("equal")
        """)
        tests = Path(__file__).resolve().parent
        src = Path(ms.__file__).resolve().parents[1]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join((str(src), str(tests)))}
        run = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["equal"]


@pytest.mark.parametrize("shape", [(40, 24), (40, 24, 1), (960,)], ids=["rank-2", "rank-3",
                                                                      "rank-1"])
@pytest.mark.parametrize("chunk", [7, 333])
def test_every_input_layout_matches_run_patches(shape, chunk):
    # The stream writes rows into its patch and the model reads the view patch_to_input
    # took once; a copy there would leave the model a stale input. At rank 3 the relu
    # is a prefix node, so the input is also read in blocks as the patch fills.
    graph = ms.build_graph(
        input_name="in", input_shape=shape, output_name="logits", embedding_name="flat",
        nodes=[ms.Node("act", "relu", ("in",), {}), ms.Node("flat", "flatten", ("act",), {}),
               ms.Node("logits", "dense", ("flat",), {"weight": "w"})],
        weights={"w": np.random.default_rng(41).normal(size=(960, 3)).astype(np.float32)},
        labels=(), patch_frames=40, feature_config=VALID_CNN_CONFIG, sample_rate=VALID_CNN_RATE)
    x = _valid_cnn_signal()
    mel = ms.mel_spectrogram(ms.AudioBuffer(x, VALID_CNN_RATE), graph.feature_config)
    offline = run_patches(graph, ms.tile_patches(mel.frames, graph.patch_frames))
    _, patches = stream_all(ms.StreamPipeline(model=graph), x, [chunk] * -(-x.size // chunk))
    assert patches.shape == (3, 3)
    assert np.array_equal(patches, offline)


class TestNonFinite:
    """A chunk holding NaN or infinity is refused whole, before any state changes."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_without_a_model(self, bad):
        cfg = ms.MelConfig(frame_size=64, hop_size=32, n_mels=6, f_max=4000.0)
        x = np.random.default_rng(31).uniform(-1, 1, 700)
        offline = ms.mel_spectrogram(ms.AudioBuffer(x, 8000), cfg).frames
        pipe = ms.StreamPipeline(config=cfg, sample_rate=8000)
        first = pipe.push(x[:300]).frames
        poisoned = x[300:].copy()
        poisoned[50] = bad
        with pytest.raises(UnsupportedFormat, match="non-finite"):
            pipe.push(poisoned)
        rest, _ = stream_all(pipe, x[300:], [400])
        assert np.array_equal(np.concatenate((first, rest)), offline)
        assert pipe.latency_report().per_chunk_wall_time["chunks"] == 2

    def test_with_a_model(self):
        graph = valid_cnn()
        x = _valid_cnn_signal()
        offline = ms.predict(graph, ms.AudioBuffer(x, VALID_CNN_RATE)).per_patch
        pipe = ms.StreamPipeline(model=graph)
        outputs = []
        # Mid first patch, across the next two patches, and in the trailing partial patch.
        for a, b in ((0, 1500), (1500, x.size - 300), (x.size - 300, x.size)):
            poisoned = x[a:b].copy()
            poisoned[-1] = np.nan
            with pytest.raises(UnsupportedFormat):
                pipe.push(poisoned)
            outputs.append(pipe.push(x[a:b]).patch_outputs)
        assert np.array_equal(np.concatenate([o for o in outputs if o.size]), offline)
        assert pipe.patches_emitted == 3


class TestLatency:
    def test_frame_latency(self):
        cfg = ms.preset("musicnn-96")
        pipe = ms.StreamPipeline(config=cfg, sample_rate=16000)
        pipe.push(np.zeros(1024))
        rep = pipe.latency_report()
        assert rep.algorithmic_latency == 512
        assert rep.per_chunk_wall_time["chunks"] == 1
        assert rep.per_chunk_wall_time["min"] <= rep.per_chunk_wall_time["mean"]

    def test_patch_latency(self):
        graph = linear_classifier(patch_frames=186)
        pipe = ms.StreamPipeline(model=graph)
        pipe.push(np.zeros(100))
        # first patch completes once frame 186 is done:
        # 512 samples for the first frame, then 185 further hops of 256
        assert pipe.latency_report().algorithmic_latency == 512 + 185 * 256 == 47872

    def test_push_stats_do_not_grow_with_pushes(self):
        def sizes(pipe):
            return {k: len(v) for k, v in vars(pipe).items() if hasattr(v, "__len__")}

        # With a model attached the held patch rows must not grow either.
        for pipe in (ms.StreamPipeline(config=ms.preset("vgg-64"), sample_rate=16000),
                     ms.StreamPipeline(model=linear_classifier(patch_frames=10))):
            for _ in range(10):
                pipe.push(np.zeros(16))
            before = sizes(pipe)
            for _ in range(10 ** 4 - 10):
                pipe.push(np.zeros(16))
            assert sizes(pipe) == before
            wall = pipe.latency_report().per_chunk_wall_time
            assert wall["chunks"] == 10 ** 4
            assert 0.0 <= wall["min"] <= wall["max"]
            assert wall["min"] * (1 - 1e-9) <= wall["mean"] <= wall["max"] * (1 + 1e-9)

    def test_report_requires_a_push(self):
        pipe = ms.StreamPipeline(config=ms.preset("vgg-64"), sample_rate=16000)
        with pytest.raises(ValueError):
            pipe.latency_report()

    def test_first_emission_at_latency_boundary(self):
        cfg = ms.preset("musicnn-96")
        pipe = ms.StreamPipeline(config=cfg, sample_rate=16000)
        assert pipe.push(np.zeros(511)).frames.shape[0] == 0
        assert pipe.push(np.zeros(1)).frames.shape[0] == 1
