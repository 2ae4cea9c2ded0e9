"""Shared builders for the test suite (these DO use the package)."""

import numpy as np

import melstream as ms

TONE_SR = 16000


def tone(freq: float, seconds: float, sr: int = TONE_SR, amp: float = 0.4,
         phase: float = 0.0) -> np.ndarray:
    t = np.arange(int(round(seconds * sr)), dtype=np.float64) / sr
    return amp * np.sin(2.0 * np.pi * freq * t + phase)


def write_tone_wav(path, freq: float, seconds: float, sr: int = TONE_SR,
                   amp: float = 0.4, phase: float = 0.0, fmt: str = "pcm16") -> None:
    ms.write_wav(path, tone(freq, seconds, sr, amp, phase), sr, fmt=fmt)


def linear_classifier(n_labels: int = 3, patch_frames: int = 186,
                      seed: int = 0, preset_name: str = "musicnn-96"):
    """flatten -> dense -> softmax classifier over mel patches."""
    cfg = ms.preset(preset_name)
    rng = np.random.default_rng(seed)
    dim = patch_frames * cfg.n_mels
    nodes = [ms.Node("flat", "flatten", ("in",), {}),
             ms.Node("logits", "dense", ("flat",), {"weight": "w", "bias": "b"}),
             ms.Node("probs", "softmax", ("logits",), {})]
    weights = {"w": rng.normal(scale=0.01, size=(dim, n_labels)).astype(np.float32),
               "b": np.zeros(n_labels, dtype=np.float32)}
    labels = tuple(f"label{i}" for i in range(n_labels))
    return ms.build_graph(input_name="in", input_shape=(patch_frames, cfg.n_mels, 1),
                          output_name="probs", embedding_name="flat", nodes=nodes,
                          weights=weights, labels=labels, patch_frames=patch_frames,
                          feature_config=cfg, sample_rate=ms.PRESET_SAMPLE_RATE)


def identity_backbone(patch_frames: int = 186, preset_name: str = "musicnn-96"):
    """Unlabeled feature extractor whose embedding is the flattened mel patch."""
    cfg = ms.preset(preset_name)
    nodes = [ms.Node("flat", "flatten", ("in",), {})]
    return ms.build_graph(input_name="in", input_shape=(patch_frames, cfg.n_mels, 1),
                          output_name="flat", embedding_name="flat", nodes=nodes,
                          weights={}, labels=(), patch_frames=patch_frames,
                          feature_config=cfg, sample_rate=ms.PRESET_SAMPLE_RATE)


def toy_cnn(n_labels: int = 8, patch_frames: int = 186, seed: int = 5):
    """Two strided convs, global average pool, dense, softmax."""
    cfg = ms.preset("musicnn-96")
    rng = np.random.default_rng(seed)
    h2 = -(-patch_frames // 2)
    w2 = -(-cfg.n_mels // 2)
    h4 = -(-h2 // 2)
    w4 = -(-w2 // 2)
    nodes = [
        ms.Node("c1", "conv2d", ("in",),
                {"weight": "k1", "bias": "b1", "stride": (2, 2), "padding": "same"}),
        ms.Node("r1", "relu", ("c1",), {}),
        ms.Node("c2", "conv2d", ("r1",),
                {"weight": "k2", "bias": "b2", "stride": (2, 2), "padding": "same"}),
        ms.Node("r2", "relu", ("c2",), {}),
        ms.Node("gap", "mean_pool2d", ("r2",), {"pool": (h4, w4)}),
        ms.Node("flat", "flatten", ("gap",), {}),
        ms.Node("logits", "dense", ("flat",), {"weight": "wd", "bias": "bd"}),
        ms.Node("probs", "softmax", ("logits",), {}),
    ]
    weights = {
        "k1": rng.normal(scale=0.3, size=(3, 3, 1, 8)).astype(np.float32),
        "b1": np.zeros(8, dtype=np.float32),
        "k2": rng.normal(scale=0.2, size=(3, 3, 8, 16)).astype(np.float32),
        "b2": np.zeros(16, dtype=np.float32),
        "wd": rng.normal(scale=0.3, size=(16, n_labels)).astype(np.float32),
        "bd": np.zeros(n_labels, dtype=np.float32),
    }
    labels = tuple(f"genre{i}" for i in range(n_labels))
    return ms.build_graph(input_name="in", input_shape=(patch_frames, cfg.n_mels, 1),
                          output_name="probs", embedding_name="flat", nodes=nodes,
                          weights=weights, labels=labels, patch_frames=patch_frames,
                          feature_config=cfg, sample_rate=ms.PRESET_SAMPLE_RATE)


def dataset_csv(path, rows) -> None:
    """rows: iterable of (track_id, audio_path, labels_tuple)."""
    lines = ["track_id,audio_path,labels"]
    for track, audio, labels in rows:
        lines.append(f"{track},{audio},{';'.join(labels)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


VALID_CNN_CONFIG = ms.MelConfig(frame_size=256, hop_size=64, n_mels=24, f_max=4000.0,
                                compression="log10")
VALID_CNN_RATE = 8000


def valid_cnn(n_labels: int = 5, patch_frames: int = 40, seed: int = 9, output: str = "probs"):
    """A small graph with a time-local prefix up to the ``front`` concat.

    Two valid 7-tap convs of different widths, each max-pooled over frequency
    only, and a mean-pooled elu branch meet in a concat off axis 0; a
    same-padded conv and global pooling follow.
    """
    cfg = VALID_CNN_CONFIG
    rng = np.random.default_rng(seed)
    weights = {}

    def w(name, *shape):
        fan_in = int(np.prod(shape[:-1])) if len(shape) > 1 else 100
        weights[name] = rng.normal(scale=fan_in ** -0.5, size=shape).astype(np.float32)
        return name

    def bn(prefix, channels):
        weights[f"{prefix}_g"] = rng.uniform(0.5, 1.5, channels).astype(np.float32)
        weights[f"{prefix}_b"] = rng.normal(0.0, 0.1, channels).astype(np.float32)
        weights[f"{prefix}_m"] = rng.normal(0.0, 0.1, channels).astype(np.float32)
        weights[f"{prefix}_v"] = rng.uniform(0.5, 1.5, channels).astype(np.float32)
        return {"gamma": f"{prefix}_g", "beta": f"{prefix}_b",
                "mean": f"{prefix}_m", "variance": f"{prefix}_v"}

    t = patch_frames - 6
    nodes = [
        ms.Node("a_conv", "conv2d", ("in",), {"weight": w("ka", 7, 18, 1, 8), "bias": w("ba", 8)}),
        ms.Node("a_bn", "batch_norm", ("a_conv",), bn("a_bn", 8)),
        ms.Node("a_relu", "relu", ("a_bn",), {}),
        ms.Node("a_pool", "max_pool2d", ("a_relu",), {"pool": (1, 7)}),
        ms.Node("b_conv", "conv2d", ("in",), {"weight": w("kb", 7, 8, 1, 6)}),
        ms.Node("b_drop", "dropout", ("b_conv",), {}),
        ms.Node("b_pool", "max_pool2d", ("b_drop",), {"pool": (1, 17), "stride": (1, 1)}),
        ms.Node("e_pool", "mean_pool2d", ("in",), {"pool": (1, 24)}),
        ms.Node("e_conv", "conv2d", ("e_pool",), {"weight": w("ke", 7, 1, 1, 4)}),
        ms.Node("e_elu", "elu", ("e_conv",), {"alpha": 0.7}),
        ms.Node("front", "concat", ("a_pool", "b_pool", "e_elu"), {"axis": -1}),
        ms.Node("mid", "conv2d", ("front",),
                {"weight": w("km", 3, 1, 18, 8), "bias": w("bm", 8), "padding": "same"}),
        ms.Node("mid_relu", "relu", ("mid",), {}),
        ms.Node("g_max", "max_pool2d", ("mid_relu",), {"pool": (t, 1)}),
        ms.Node("flat", "flatten", ("g_max",), {}),
        ms.Node("logits", "dense", ("flat",), {"weight": w("wd", 8, n_labels)}),
        ms.Node("probs", "softmax", ("logits",), {}),
    ]
    labels = tuple(f"tag{i}" for i in range(n_labels)) if output == "probs" else ()
    return ms.build_graph(input_name="in", input_shape=(patch_frames, cfg.n_mels, 1),
                          output_name=output, embedding_name="flat", nodes=nodes,
                          weights=weights, labels=labels, patch_frames=patch_frames,
                          feature_config=cfg, sample_rate=VALID_CNN_RATE)
