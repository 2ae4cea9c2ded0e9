"""The benchmark tracer still finds the lookups it wraps.

``melbench/trace.py`` replaces module attributes by name; a refactor that
renames or rebinds one of them would silently zero its per-layer metrics.
"""

import sys
from pathlib import Path

import numpy as np

import melstream as ms

from util import linear_classifier

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from melbench.trace import REPLAY, Tracer  # noqa: E402


def test_tracer_sees_every_layer_and_replays_exactly():
    graph = linear_classifier(patch_frames=20)
    rng = np.random.default_rng(11)
    tracer = Tracer()
    tracer.pass_no = 0
    tracer.install()
    try:
        ms.predict(graph, ms.AudioBuffer(rng.uniform(-0.5, 0.5, 2 * 44100), 44100))
        pipe = ms.StreamPipeline(model=graph)
        for chunk in np.array_split(rng.uniform(-0.5, 0.5, 16000), 4):
            pipe.push(chunk)
        pipe.flush()
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    for name in ("audio_io.resample", "dsp.mel_spectrogram", "inference.forward",
                 "dsp.mel_frame", REPLAY):
        assert name in names
    assert pipe.patches_emitted > 0
    assert tracer.replay_mismatches == 0
    # melbench adds dsp.mel_spectrogram and dsp.mel_frame frames together, so a
    # kernel call made under an offline spectrogram would count its frames twice.
    for span in tracer.spans:
        if span[0] != "dsp.mel_frame":
            continue
        parent = span[3]
        while parent >= 0:
            assert tracer.spans[parent][0] != "dsp.mel_spectrogram"
            parent = tracer.spans[parent][3]
