"""Seeded inputs for the melstream benchmark.

Everything here is a pure function of the seed: the same seed writes the
same bytes. melstream only ever sees what these functions produce (WAV
files, CSV manifests, a taxonomy TSV, a saved model and an embedding
table); the harness keeps the planted counts so it can check the
program's outputs against them.
"""

from __future__ import annotations

import os
import struct

import numpy as np

import melstream as ms

SR = ms.PRESET_SAMPLE_RATE
SOURCE_SR = 44100
PATCH_FRAMES = 187
N_LABELS = 10
EMBED_DIM = 200
LABELS = ("rock", "pop", "jazz", "classical", "electronic",
          "hiphop", "metal", "blues", "country", "reggae")
# Seconds of 16 kHz audio one patch spans (frame + 186 hops).
PATCH_SECONDS = (512 + (PATCH_FRAMES - 1) * 256) / SR


# -- the bench CNN -----------------------------------------------------------

def bench_model(seed: int) -> ms.ModelGraph:
    """A musicnn-sized tagger over 187x96 patches with a 200-dim embedding.

    The front end has timbral (wide-in-frequency) and temporal
    (frequency-pooled) branches joined by concat, a two-layer mid end,
    global max and mean pooling, then dense(200) as the embedding and a
    softmax over 10 labels. It uses every op kind the engine has.
    """
    cfg = ms.preset("musicnn-96")
    rng = np.random.default_rng(seed)
    weights: dict[str, np.ndarray] = {}
    nodes: list[ms.Node] = []

    def w(name, shape, fan_in):
        weights[name] = (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(np.float32)
        return name

    def bn(prefix, channels):
        weights[f"{prefix}_g"] = rng.uniform(0.8, 1.2, channels).astype(np.float32)
        weights[f"{prefix}_b"] = rng.normal(0.0, 0.05, channels).astype(np.float32)
        weights[f"{prefix}_m"] = rng.normal(0.0, 0.05, channels).astype(np.float32)
        weights[f"{prefix}_v"] = rng.uniform(0.5, 1.5, channels).astype(np.float32)
        return {"gamma": f"{prefix}_g", "beta": f"{prefix}_b",
                "mean": f"{prefix}_m", "variance": f"{prefix}_v"}

    def node(name, op, inputs, **params):
        nodes.append(ms.Node(name, op, tuple(inputs), params))
        return name

    t = PATCH_FRAMES - 6  # time steps left by the valid 7-tap front-end convs
    # Timbral branches: kernels spanning 90% and 40% of the mel axis.
    branches, front_ch = [], 16
    for tag, (kf, ch) in {"tw": (86, 64), "tn": (38, 96)}.items():
        front_ch += ch
        x = node(f"{tag}_conv", "conv2d", ["in"], weight=w(f"{tag}_k", (7, kf, 1, ch), 7 * kf),
                 bias=w(f"{tag}_bias", (ch,), 1e6), stride=(1, 1), padding="valid")
        x = node(f"{tag}_bn", "batch_norm", [x], **bn(f"{tag}_bn", ch))
        x = node(f"{tag}_relu", "relu", [x])
        branches.append(node(f"{tag}_pool", "max_pool2d", [x], pool=(1, 96 - kf + 1)))
    # Temporal branch: frequency-pooled energy envelope.
    x = node("te_pool", "mean_pool2d", ["in"], pool=(1, 96))
    x = node("te_conv", "conv2d", [x], weight=w("te_k", (7, 1, 1, 16), 7),
             stride=(1, 1), padding="valid")
    x = node("te_bn", "batch_norm", [x], **bn("te_bn", 16))
    branches.append(node("te_elu", "elu", [x], alpha=1.0))
    front = node("front", "concat", branches, axis=2)            # (t, 1, front_ch)

    # Mid end: two temporal convs, the second gated by a sigmoid branch.
    m1 = node("mid1_conv", "conv2d", [front], weight=w("mid1_k", (7, 1, front_ch, 64), 7 * front_ch),
              bias=w("mid1_bias", (64,), 1e6), stride=(1, 1), padding="same")
    m1 = node("mid1_bn", "batch_norm", [m1], **bn("mid1_bn", 64))
    m1 = node("mid1_relu", "relu", [m1])
    m2 = node("mid2_conv", "conv2d", [m1], weight=w("mid2_k", (7, 1, 64, 64), 7 * 64),
              stride=(1, 1), padding="same")
    m2 = node("mid2_bn", "batch_norm", [m2], **bn("mid2_bn", 64))
    m2 = node("mid2_elu", "elu", [m2], alpha=1.0)
    gate = node("mid_gate", "sigmoid", [m1])
    mid = node("mid", "concat", [front, m1, m2, gate], axis=2)   # (t, 1, front_ch + 192)

    # Back end: global max and mean over time, dense embedding, softmax.
    pmax = node("g_max", "max_pool2d", [mid], pool=(t, 1))
    pmean = node("g_mean", "mean_pool2d", [mid], pool=(t, 1))
    pooled = node("pooled", "concat", [pmax, pmean], axis=2)
    pooled_dim = 2 * (front_ch + 192)
    flat = node("flat", "flatten", [pooled])
    drop = node("drop", "dropout", [flat])
    emb = node("penultimate", "dense", [drop], weight=w("emb_w", (pooled_dim, EMBED_DIM), pooled_dim),
               bias=w("emb_b", (EMBED_DIM,), 1e6))
    x = node("emb_relu", "relu", [emb])
    x = node("logits", "dense", [x], weight=w("out_w", (EMBED_DIM, N_LABELS), EMBED_DIM),
             bias=w("out_b", (N_LABELS,), 1e6))
    out = node("probs", "softmax", [x])
    return ms.build_graph(
        input_name="in", input_shape=(PATCH_FRAMES, cfg.n_mels, 1), output_name=out,
        embedding_name=emb, nodes=nodes, weights=weights, labels=LABELS,
        patch_frames=PATCH_FRAMES, feature_config=cfg, sample_rate=SR)


def write_bench_model(root: str, seed: int) -> tuple[str, str]:
    manifest = os.path.join(root, "bench_model.txt")
    weights = os.path.join(root, "bench_model.mstw")
    ms.save_model(bench_model(seed), manifest, weights)
    return manifest, weights


# -- music-like audio --------------------------------------------------------

def music(rng: np.random.Generator, seconds: float, sr: int, channels: int = 1,
          loud: bool = False) -> np.ndarray:
    """Notes with harmonics and attack/decay envelopes, drum-like noise
    onsets and a noise floor. ``loud`` boosts one half-second passage
    far past full scale."""
    n = int(round(seconds * sr))
    mix = rng.normal(0.0, 0.003, n)
    pos = 0
    while pos < n:
        length = int(sr * rng.uniform(0.12, 0.6))
        seg = slice(pos, min(pos + length, n))
        tt = np.arange(seg.stop - seg.start) / sr
        f0 = 55.0 * 2.0 ** (rng.integers(12, 48) / 12.0)
        env = np.minimum(tt / 0.01, 1.0) * np.exp(-tt * rng.uniform(2.0, 8.0))
        note = sum((0.6 / h) * np.sin(2 * np.pi * h * f0 * tt + rng.uniform(0, 2 * np.pi))
                   for h in range(1, 6) if h * f0 < sr / 2)
        mix[seg] += rng.uniform(0.08, 0.2) * env * note
        if rng.random() < 0.5:  # percussive onset
            hit = min(int(0.08 * sr), seg.stop - seg.start)
            mix[pos:pos + hit] += 0.3 * rng.normal(0.0, 1.0, hit) * np.exp(-np.arange(hit) / (0.015 * sr))
        pos += length
    if loud:
        start = int(rng.integers(0, max(n - sr // 2, 1)))
        mix[start:start + sr // 2] *= 30.0  # saturates: hard-clipped edges ring past full scale
    if channels == 1:
        return mix
    pan = rng.uniform(0.7, 1.0)
    side = rng.normal(0.0, 0.003, n)
    return np.stack([pan * mix + side, (2.0 - pan) * mix - side], axis=1)


BLOCK_SECONDS = 20.0


def write_music(path: str, rng: np.random.Generator, seconds: float, sr: int,
                channels: int = 1, loud: bool = False) -> None:
    """Write ``seconds`` of :func:`music` as pcm16 WAV, block by block.

    Samples are quantized as ``melstream.write_wav`` does. Writing in
    blocks keeps the harness's own memory below what decoding the file
    takes, so ``peak_rss_mb`` reflects melstream, not the generator.
    """
    n_blocks = max(1, int(np.ceil(seconds / BLOCK_SECONDS)))
    lengths = [int(round(seconds * sr * (b + 1) / n_blocks)) - int(round(seconds * sr * b / n_blocks))
               for b in range(n_blocks)]
    loud_block = int(rng.integers(n_blocks)) if loud else -1
    with open(path, "wb") as fh:
        fh.write(_wav_header(tag=1, channels=channels, bits=16, rate=sr,
                             payload_len=sum(lengths) * channels * 2))
        for b, n in enumerate(lengths):
            x = music(rng, n / sr, sr, channels, loud=b == loud_block)
            fh.write(np.round(np.clip(x, -1.0, 1.0) * 32767.0).astype("<i2").tobytes())


def _wav_header(tag: int, channels: int, bits: int, rate: int, payload_len: int) -> bytes:
    align = channels * bits // 8
    return (b"RIFF" + struct.pack("<I", 36 + payload_len) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, tag, channels, rate, rate * align, align, bits)
            + b"data" + struct.pack("<I", payload_len))


# -- corrupt files, one per documented decode error ---------------------------

def _corrupt_bytes(reason: str, rng: np.random.Generator) -> bytes:
    if reason == "CorruptHeader":      # no RIFF/WAVE magic
        return bytes(rng.integers(0, 256, 256, dtype=np.uint8))
    if reason == "UnsupportedFormat":  # 8-bit integer PCM
        payload = bytes(rng.integers(0, 256, 4000, dtype=np.uint8))
        return _wav_header(1, 1, 8, SR, len(payload)) + payload
    if reason == "EmptyAudio":         # data chunk shorter than one frame
        return _wav_header(1, 1, 16, SR, 1) + b"\x01"
    raise ValueError(reason)


CORRUPT_REASONS = ("CorruptHeader", "UnsupportedFormat", "EmptyAudio")


def _write_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("track_id,audio_path,labels\n")
        for track, audio, labels in rows:
            fh.write(f"{track},{audio},{';'.join(labels)}\n")


# -- per-workload inputs -------------------------------------------------------

# Foreign vocabulary: tags walk up through parents to the model's classes;
# "ambient" and "spoken" are taxonomy classes the model does not have.
FOREIGN_TAGS = {
    "indie-rock": "rock", "grunge": "rock", "synthpop": "pop", "bebop": "jazz",
    "baroque": "classical", "techno": "electronic", "house": "electronic",
    "trap": "hiphop", "doom": "metal", "delta-blues": "blues", "bluegrass": "country",
    "dub": "reggae", "drone": "ambient", "podcast": "spoken", "audiobook": "spoken",
}
TAXONOMY_CLASSES = LABELS + ("ambient", "spoken")
OUT_OF_VOCAB = ("drone", "podcast", "audiobook", "field-recording")


def tag_inputs(root: str, seed: int, n_tracks: int, n_discarded: int, seconds: float) -> dict:
    """Stereo pcm16 44.1 kHz clips, a foreign-vocabulary dataset CSV and
    its taxonomy. ``n_discarded`` tracks carry only tags outside the
    model's vocabulary; every third clip has a saturated passage."""
    rng = np.random.default_rng([seed, 1])
    in_vocab = [t for t, p in FOREIGN_TAGS.items() if p in LABELS]
    rows = []
    for i in range(n_tracks + n_discarded):
        track = f"clip{i:03d}"
        path = os.path.join(root, f"{track}.wav")
        if i < n_discarded:
            tags = (str(rng.choice(OUT_OF_VOCAB)),)
        else:
            tags = tuple(sorted({str(t) for t in rng.choice(in_vocab, size=2)}))
        write_music(path, rng, seconds, SOURCE_SR, channels=2, loud=i % 3 == 0)
        rows.append((track, path, tags))
    dataset = os.path.join(root, "foreign.csv")
    _write_csv(dataset, rows)
    taxonomy = os.path.join(root, "taxonomy.tsv")
    with open(taxonomy, "w", encoding="utf-8") as fh:
        fh.write("classes\t" + "\t".join(TAXONOMY_CLASSES) + "\n")
        for tag, parent in FOREIGN_TAGS.items():
            fh.write(f"{tag}\t{parent}\n")
    return {"dataset": dataset, "taxonomy": taxonomy, "evaluated": n_tracks,
            "discarded": n_discarded, "audio_seconds": n_tracks * seconds}


def embed_inputs(root: str, seed: int, lengths: tuple[float, ...]) -> dict:
    """16 kHz mono tracks of the given lengths plus one corrupt file per
    documented decode error, listed in a dataset CSV."""
    rng = np.random.default_rng([seed, 2])
    rows, durations = [], {}
    for i, seconds in enumerate(lengths):
        track = f"track{i:03d}"
        path = os.path.join(root, f"{track}.wav")
        write_music(path, rng, seconds, SR)
        rows.append((track, path, (LABELS[i % N_LABELS],)))
        durations[track] = seconds
    corrupt = {}
    for k, reason in enumerate(CORRUPT_REASONS):
        track = f"bad-{reason}"
        path = os.path.join(root, f"{track}.wav")
        with open(path, "wb") as fh:
            fh.write(_corrupt_bytes(reason, rng))
        rows.insert(2 * k + 1, (track, path, (LABELS[0],)))
        corrupt[track] = reason
    # A fixed order: which allocations precede the longest decode sets the
    # peak RSS, so shuffling per seed would make peak_rss_mb seed-dependent.
    dataset = os.path.join(root, "embed.csv")
    _write_csv(dataset, rows)
    return {"dataset": dataset, "durations": durations, "corrupt": corrupt,
            "padded": sum(1 for s in lengths if s < PATCH_SECONDS),
            "audio_seconds": float(sum(lengths))}


def stream_signal(seed: int, seconds: float) -> np.ndarray:
    """The 16 kHz stream, float32 to halve what the harness holds."""
    return music(np.random.default_rng([seed, 3]), seconds, SR).astype(np.float32)


def heads_inputs(root: str, seed: int, n_tracks: int, n_classes: int, n_missing: int) -> dict:
    """A class-structured 200-dim embedding table and the labels CSV for
    it. ``n_missing`` CSV rows have no embeddings, so crossval discards
    them."""
    rng = np.random.default_rng([seed, 4])
    classes = tuple(f"class{c}" for c in range(n_classes))
    centroids = rng.normal(0.0, 1.0, (n_classes, EMBED_DIM))
    rows, table_rows = [], {}
    for i in range(n_tracks + n_missing):
        track = f"t{i:04d}"
        cls = i % n_classes
        rows.append((track, os.path.join(root, f"{track}.wav"), (classes[cls],)))
        if i >= n_tracks:
            continue
        n_patches = int(rng.integers(2, 7))
        centre = centroids[cls] + rng.normal(0.0, 1.5, EMBED_DIM)
        table_rows[track] = (centre + rng.normal(0.0, 4.0, (n_patches, EMBED_DIM))).astype(np.float32)
    dataset = os.path.join(root, "heads.csv")
    _write_csv(dataset, rows)
    table = ms.EmbeddingTable(rows=table_rows, dim=EMBED_DIM, source_layer="penultimate")
    return {"dataset": dataset, "table": table, "classes": classes,
            "evaluated": n_tracks, "discarded": n_missing,
            "audio_seconds": PATCH_SECONDS * sum(r.shape[0] for r in table_rows.values())}
