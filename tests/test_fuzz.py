"""Seeded byte-mutation fuzz over the WAV reader and the model container.

Every mutated input must load or raise its documented error: an
``AudioIOError`` for a WAV file (CLI exit 2), a ``ModelLoadError`` for a
manifest or weights file (CLI exit 4). WAV files are loaded at their own
rate: a target rate would turn a mutated 1 Hz header into a 16000x
upsample.
"""

import re
import struct

import numpy as np
import pytest

import melstream as ms
from melstream.cli import main
from melstream.errors import AudioIOError, ModelLoadError

from util import tone, toy_cnn

CASES = 300
# Values written over 32-bit fields: zero, one, small, sign bit, all ones.
FIELD_VALUES = (0, 1, 7, 2 ** 31, 0xFFFFFFFF)
HEADER_BYTES = 64


def mutate(data: bytes, rng) -> bytes:
    """One seeded mutation: bit flips, a truncation, an insertion or a field overwrite."""
    out = bytearray(data)
    kind = rng.integers(4)
    if kind == 0:
        for pos in rng.integers(len(out), size=rng.integers(1, 4)):
            out[pos] ^= 1 << int(rng.integers(8))
    elif kind == 1:
        del out[rng.integers(len(out)):]
    elif kind == 2:
        pos = int(rng.integers(len(out) + 1))
        out[pos:pos] = rng.bytes(int(rng.integers(1, 9)))
    else:
        # Aligned offsets in the header, where the length, count and rate fields live.
        pos = 4 * int(rng.integers(min(len(out), HEADER_BYTES) // 4))
        out[pos:pos + 4] = struct.pack("<I", FIELD_VALUES[rng.integers(len(FIELD_VALUES))])
    return bytes(out)


def mutate_manifest(text: str, rng) -> bytes:
    """Half the time a number in the text becomes a field value, else a byte mutation."""
    numbers = list(re.finditer(r"\d+(\.\d+)?", text))
    if rng.integers(2):
        m = numbers[rng.integers(len(numbers))]
        value = FIELD_VALUES[rng.integers(len(FIELD_VALUES))]
        text = text[:m.start()] + str(value) + text[m.end():]
        return text.encode("utf-8")
    return mutate(text.encode("utf-8"), rng)


@pytest.fixture(scope="module")
def wav_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("wav")
    stereo, mono = d / "stereo.wav", d / "mono.wav"
    x = tone(440.0, 0.05, sr=8000)
    ms.write_wav(stereo, np.stack([x, -0.5 * x], axis=1), 8000, fmt="pcm16")
    ms.write_wav(mono, x, 8000, fmt="float32")
    return stereo.read_bytes(), mono.read_bytes()


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("model")
    ms.save_model(toy_cnn(n_labels=3, patch_frames=8), d / "m.txt", d / "m.bin")
    return (d / "m.txt").read_text(encoding="utf-8"), (d / "m.bin").read_bytes()


def test_mutated_wavs_load_or_raise_audio_errors(tmp_path, wav_files):
    rng = np.random.default_rng(2020)
    path = tmp_path / "fuzz.wav"
    failed = []
    for i in range(CASES):
        path.write_bytes(mutate(wav_files[i % 2], rng))
        try:
            buf = ms.load_pcm(path)
        except AudioIOError:
            if len(failed) < 3:
                failed.append(path.read_bytes())
            continue
        assert 1 <= buf.sample_rate and np.all(np.abs(buf.samples) <= 1.0)
    assert failed
    for data in failed:
        path.write_bytes(data)
        assert main(["melspec", str(path), "--frame-size", "64", "--hop-size", "32",
                     "--n-mels", "4"]) == 2


def test_mutated_models_load_or_raise_model_errors(tmp_path, model_files):
    rng = np.random.default_rng(2017)
    text, blob = model_files
    manifest, weights = tmp_path / "m.txt", tmp_path / "m.bin"
    failed = []
    for i in range(CASES):
        if i % 2:
            manifest.write_bytes(mutate_manifest(text, rng))
            weights.write_bytes(blob)
        else:
            manifest.write_text(text, encoding="utf-8")
            weights.write_bytes(mutate(blob, rng))
        try:
            ms.load_model(manifest, weights)
        except ModelLoadError:
            if len(failed) < 4:
                failed.append((manifest.read_bytes(), weights.read_bytes()))
    assert len(failed) == 4
    audio = tmp_path / "a.wav"
    ms.write_wav(audio, tone(440.0, 0.1), 16000)
    for m, w in failed:
        manifest.write_bytes(m)
        weights.write_bytes(w)
        assert main(["predict", str(audio), "--model", str(manifest),
                     "--weights", str(weights)]) == 4
