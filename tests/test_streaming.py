import numpy as np
import pytest

import melstream as ms
import melstream.streaming
from melstream.dsp import _MEL_BLOCK
from melstream.errors import AlreadyFlushed, InputShapeMismatch

from util import linear_classifier


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
