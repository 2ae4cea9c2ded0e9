"""``forward`` equals the plain reference forward bit for bit, at every node.

``oracles.ref_forward`` runs each node once on whole tensors through its
op's kernel. ``forward`` runs the time-local prefix in row blocks, with
conv2d -> batch_norm -> relu -> max_pool2d chains pooled first, so a fault
in the blocks or the chains shows here as a changed bit. The checks hold
on the BLAS the benchmark digests are pinned on; blocks of one or two rows
are known to round differently (see ``TestTimeLocalPrefix``).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import melstream as ms

import oracles
from util import valid_cnn

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from melbench.inputs import bench_model, stream_signal  # noqa: E402


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def _patches(graph, signal):
    mel = ms.mel_spectrogram(ms.AudioBuffer(signal, graph.sample_rate), graph.feature_config)
    return [p[..., None] for p in ms.tile_patches(mel.frames, graph.patch_frames)]


def _assert_every_node_matches(graph, x):
    ref = oracles.ref_forward(graph, x)
    assert graph._chains, "no pool-first chain to check"
    for node in graph.nodes:
        assert np.array_equal(_bits(ms.forward(graph, x, node.name)), _bits(ref[node.name])), \
            node.name


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_bench_model(seed):
    g = bench_model(seed)
    (x,) = _patches(g, stream_signal(seed, 3.1))
    _assert_every_node_matches(g, x)


def test_valid_cnn():
    g = valid_cnn()
    _assert_every_node_matches(g, np.random.default_rng(33).uniform(-3.0, 3.0, (40, 24, 1)))


def test_bench_model_stream():
    g = bench_model(7)
    signal = stream_signal(7, 6.1)
    pipe = ms.StreamPipeline(model=g)
    outputs = [pipe.push(signal[i:i + 256]).patch_outputs for i in range(0, signal.size, 256)]
    streamed = np.concatenate([o for o in outputs if o.size])
    patches = _patches(g, signal)
    assert len(streamed) == len(patches) == 2
    for row, x in zip(streamed, patches):
        assert np.array_equal(_bits(row), _bits(oracles.ref_forward(g, x)[g.output_name]))
