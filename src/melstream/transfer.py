"""Classifier heads trained on frozen-backbone embeddings.

A head is a list of dense ``(W, b)`` layers with a relu between
consecutive layers and a softmax on the last; that list is its only
structure. Variant A is one layer over the embedding; variant B puts a
hidden layer (100 units by default) before it. Training follows a fixed
protocol: a stratified track-level 80/20 train/validation split,
mini-batches of 32 distinct tracks with one randomly drawn patch
embedding per track, cross-entropy loss, Adam with the constants of
:func:`adam_step`, and a halving of the learning rate whenever the best
validation loss is 75 epochs stale (the staleness anchor resets after
each halving). The returned weights
are those of the epoch with the lowest validation loss. Identical inputs
and seed give bit-identical results.

Head arithmetic runs in float64; :func:`export_head` casts the trained
layers to float32 once when stitching them onto the backbone, so the
in-memory composite and its serialized round trip agree bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .audio_io import load_pcm
from .errors import (DegenerateDataset, DimMismatch, MelstreamError,
                     NonFiniteGradient, NonFiniteLoss)
from .inference.graph import ModelGraph, Node, _needed, build_graph
from .inference.ops import weight_param_names
from .inference.prediction import embed_patches, patch_to_input

VARIANTS = ("A", "B")


@dataclass
class EmbeddingTable:
    """Per-track patch embeddings: track_id -> (n_patches, dim) float32."""

    rows: dict[str, np.ndarray]
    dim: int
    source_layer: str
    skipped: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class HeadSpec:
    variant: str
    n_classes: int
    hidden: int = 100

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.variant == "B" and self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")


@dataclass(frozen=True)
class TrainSpec:
    batch_size: int = 32
    initial_lr: float = 0.001
    lr_patience_epochs: int = 75
    lr_factor: float = 0.5
    max_epochs: int = 150
    val_fraction: float = 0.2
    seed: int = 42

    def __post_init__(self):
        positive = ("batch_size", "initial_lr", "lr_patience_epochs", "lr_factor")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if not 0 < self.val_fraction < 1:
            raise ValueError("val_fraction must be in (0, 1)")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if not self.lr_factor < 1:
            raise ValueError("lr_factor must be < 1")


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def zeros_like(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params], step=0)


@dataclass
class HeadWeights:
    """Trained head: (W, b) per layer in float64, plus the training record."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    classes: tuple[str, ...]
    variant: str
    input_dim: int
    training_log: list[dict]
    best_epoch: int
    train_tracks: tuple[str, ...]
    val_tracks: tuple[str, ...]


def extract_embeddings(graph: ModelGraph, dataset) -> EmbeddingTable:
    """Embeddings for every track of a dataset manifest.

    A track shorter than one patch is zero-padded to one. Per-track
    failures (an unreadable file, a signal shorter than one frame) are
    collected in ``skipped`` rather than raised. A graph whose input
    cannot take its own patch fails every track, so it raises
    ``InputShapeMismatch`` before the first one.
    """
    patch_to_input(np.zeros((graph.patch_frames, graph.feature_config.n_mels)), graph)
    dim = math.prod(graph.node_shapes[graph.embedding_name])
    table = EmbeddingTable(rows={}, dim=dim, source_layer=graph.embedding_name)
    for entry in dataset.entries:
        try:
            buf = load_pcm(entry.audio_path, graph.sample_rate)
            table.rows[entry.track_id] = embed_patches(graph, buf)
        except (MelstreamError, OSError) as e:
            table.skipped[entry.track_id] = f"{type(e).__name__}: {e}"
    return table


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              epsilon: float = 1e-8) -> tuple[list[np.ndarray], AdamState]:
    """One Adam update with bias correction. Functional: returns new values."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads and state must have matching lengths")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient("gradient contains NaN or infinity")
    t = state.step + 1
    new_m, new_v, new_p = [], [], []
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        new_m.append(m)
        new_v.append(v)
        new_p.append(p - lr * (m / bc1) / (np.sqrt(v / bc2) + epsilon))
    return new_p, AdamState(m=new_m, v=new_v, step=t)


def _glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_head(spec: HeadSpec, input_dim: int, rng: np.random.Generator):
    """Glorot-uniform weights, zero biases, float64, drawn first layer first."""
    dims = [input_dim] + ([spec.hidden] if spec.variant == "B" else []) + [spec.n_classes]
    return [(_glorot_uniform(rng, fan_in, fan_out), np.zeros(fan_out))
            for fan_in, fan_out in zip(dims, dims[1:])]


def _softmax64(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _activations(layers, x) -> list[np.ndarray]:
    """Each layer's input: ``x`` as a float64 batch, then each hidden relu output."""
    acts = [np.atleast_2d(np.asarray(x, dtype=np.float64))]
    for w, b in layers[:-1]:
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    return acts


def head_logits(layers, x: np.ndarray) -> np.ndarray:
    w, b = layers[-1]
    return _activations(layers, x)[-1] @ w + b


def head_probs(layers, x) -> np.ndarray:
    """Softmax class probabilities for one embedding or a (n, dim) batch."""
    return _softmax64(head_logits(layers, x))


def head_loss_and_grads(layers, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over a batch plus analytic gradients.

    ``x`` is (n, dim) float64, ``y`` an int class index per row. Gradients
    come back as a flat list matching [W1, b1, W2, b2, ...].
    """
    acts = _activations(layers, x)
    y = np.asarray(y)
    n = acts[0].shape[0]
    w, b = layers[-1]
    probs = _softmax64(acts[-1] @ w + b)
    loss = float(-np.log(np.maximum(probs[np.arange(n), y], 1e-300)).mean())
    d = probs.copy()
    d[np.arange(n), y] -= 1.0
    d /= n
    grads: list[np.ndarray] = []
    for i in range(len(layers) - 1, -1, -1):
        grads = [acts[i].T @ d, d.sum(axis=0)] + grads
        if i:
            # Back through the relu in front of layer i: it passed only positive entries.
            d = d @ layers[i][0].T
            d[acts[i] <= 0.0] = 0.0
    return loss, grads


def _flatten_layers(layers):
    flat = []
    for w, b in layers:
        flat.extend((w, b))
    return flat


def _unflatten_layers(flat):
    return [(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]


def _stratified_split(labels: dict[str, str], classes, val_fraction: float,
                      rng: np.random.Generator):
    train_ids: list[str] = []
    val_ids: list[str] = []
    for cls in classes:
        members = sorted(t for t, c in labels.items() if c == cls)
        order = rng.permutation(len(members))
        n_val = int(len(members) * val_fraction + 0.5)
        n_val = min(max(n_val, 1), len(members) - 1)
        for j, idx in enumerate(order):
            (val_ids if j < n_val else train_ids).append(members[idx])
    return sorted(train_ids), sorted(val_ids)


def _stack_tracks(table: EmbeddingTable, track_ids):
    """The tracks' rows stacked in float64, with each track's start row and row count."""
    counts = np.array([table.rows[t].shape[0] for t in track_ids])
    starts = np.cumsum(counts) - counts
    return np.concatenate([table.rows[t] for t in track_ids]).astype(np.float64), starts, counts


def _val_loss(layers, rows, starts, counts, y) -> float:
    # Each track weighs equally: mean cross-entropy over its patches first. Tracks
    # with n patches are averaged as the rows of one (tracks, n) matrix, which sums
    # in the order a per-track mean does (np.add.reduceat does not).
    probs = head_probs(layers, rows)
    nll = -np.log(np.maximum(probs[np.arange(rows.shape[0]), np.repeat(y, counts)], 1e-300))
    per_track = np.empty(counts.size)
    for n in np.unique(counts):
        of_n = counts == n
        per_track[of_n] = nll[starts[of_n, None] + np.arange(n)].mean(axis=1)
    return float(np.mean(per_track))


def train_head(table: EmbeddingTable, labels: dict[str, str], spec: HeadSpec,
               train: TrainSpec) -> HeadWeights:
    """Train a head on frozen embeddings. See the module docstring for the protocol."""
    for track in labels:
        if track not in table.rows:
            raise DegenerateDataset(f"labeled track {track!r} missing from the embedding table")
        if len(table.rows[track]) == 0:
            raise DegenerateDataset(f"labeled track {track!r} has no embedding rows")
    classes = tuple(sorted(set(labels.values())))
    if len(classes) < 2:
        raise DegenerateDataset(f"need at least 2 classes, got {len(classes)}")
    if len(classes) != spec.n_classes:
        raise DegenerateDataset(
            f"labels hold {len(classes)} classes but the head expects {spec.n_classes}")
    counts = {c: sum(1 for v in labels.values() if v == c) for c in classes}
    thin = [c for c, n in counts.items() if n < 2]
    if thin:
        raise DegenerateDataset(f"classes with fewer than 2 tracks: {thin}")
    class_index = {c: i for i, c in enumerate(classes)}

    rng = np.random.default_rng(train.seed)
    train_ids, val_ids = _stratified_split(labels, classes, train.val_fraction, rng)
    params = _flatten_layers(init_head(spec, table.dim, rng))

    train_rows, train_starts, train_counts = _stack_tracks(table, train_ids)
    val_rows, val_starts, val_counts = _stack_tracks(table, val_ids)
    y_train = np.array([class_index[labels[t]] for t in train_ids])
    y_val = np.array([class_index[labels[t]] for t in val_ids])
    state = AdamState.zeros_like(params)
    lr = train.initial_lr
    best_loss = math.inf
    best_epoch = 0
    best_params = [p.copy() for p in params]
    anchor = 0  # epoch of the last improvement or halving
    log: list[dict] = []

    n_batches = -(-len(train_ids) // train.batch_size)
    for epoch in range(1, train.max_epochs + 1):
        order = rng.permutation(len(train_ids))
        batch_losses = []
        for b in range(n_batches):
            chunk = order[b * train.batch_size:(b + 1) * train.batch_size]
            # One patch per track; an array of bounds draws what one call per row would.
            xs = train_rows[train_starts[chunk] + rng.integers(train_counts[chunk])]
            loss, grads = head_loss_and_grads(_unflatten_layers(params), xs, y_train[chunk])
            if not math.isfinite(loss):
                raise NonFiniteLoss(f"training loss became {loss} at epoch {epoch}")
            params, state = adam_step(params, grads, state, lr)
            batch_losses.append(loss)

        val = _val_loss(_unflatten_layers(params), val_rows, val_starts, val_counts, y_val)
        if not math.isfinite(val):
            raise NonFiniteLoss(f"validation loss became {val} at epoch {epoch}")
        log.append({"epoch": epoch, "train_loss": float(np.mean(batch_losses)),
                    "val_loss": val, "lr": lr})
        if val < best_loss:
            best_loss = val
            best_epoch = epoch
            best_params = [p.copy() for p in params]
            anchor = epoch
        elif epoch - anchor >= train.lr_patience_epochs:
            lr *= train.lr_factor
            anchor = epoch

    return HeadWeights(layers=_unflatten_layers(best_params), classes=classes,
                       variant=spec.variant, input_dim=table.dim, training_log=log,
                       best_epoch=best_epoch, train_tracks=tuple(train_ids),
                       val_tracks=tuple(val_ids))


def classify_tracks(weights: HeadWeights, table: EmbeddingTable, track_ids) -> dict[str, str]:
    """Track-level class by mean of per-patch probabilities."""
    out = {}
    for track in track_ids:
        probs = head_probs(weights.layers, table.rows[track]).mean(axis=0)
        out[track] = weights.classes[int(np.argmax(probs))]
    return out


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    suffix = 1
    while name in taken:
        name = f"{base}_{suffix}"
        suffix += 1
    taken.add(name)
    return name


def export_head(weights: HeadWeights, backbone: ModelGraph) -> ModelGraph:
    """Stitch a trained head onto its backbone as a standalone graph.

    The backbone is truncated after its embedding layer; the head layers
    (cast to float32) and a softmax output are appended. The result
    serializes and reloads bit-exactly.
    """
    emb_shape = backbone.node_shapes[backbone.embedding_name]
    emb_dim = math.prod(emb_shape)
    if emb_dim != weights.input_dim:
        raise DimMismatch(
            f"head expects {weights.input_dim}-dim input, backbone embedding "
            f"{backbone.embedding_name!r} yields {emb_dim}")

    # Keep only what the embedding needs, with the weights it reads as params or inputs.
    needed = _needed(backbone, backbone.embedding_name)
    nodes = [n for n in backbone.nodes if n.name in needed]
    new_weights: dict[str, np.ndarray] = {}
    for node in nodes:
        for ref in [node.params[p] for p in weight_param_names(node.op)] + list(node.inputs):
            if ref in backbone.weights:
                new_weights[ref] = backbone.weights[ref]

    taken = {n.name for n in nodes} | set(new_weights) | {backbone.input_name}
    prev = backbone.embedding_name
    if len(emb_shape) > 1:
        flat = _fresh_name("head_flatten", taken)
        nodes.append(Node(name=flat, op="flatten", inputs=(prev,), params={}))
        prev = flat

    names = ["head_dense"] if weights.variant == "A" else ["head_hidden", "head_out"]
    for i, ((w, b), base) in enumerate(zip(weights.layers, names)):
        if i:
            relu = _fresh_name("head_relu", taken)
            nodes.append(Node(name=relu, op="relu", inputs=(prev,), params={}))
            prev = relu
        wname = _fresh_name(f"{base}_w", taken)
        bname = _fresh_name(f"{base}_b", taken)
        new_weights[wname] = w.astype(np.float32)
        new_weights[bname] = b.astype(np.float32)
        dense = _fresh_name(base, taken)
        nodes.append(Node(name=dense, op="dense", inputs=(prev,),
                          params={"weight": wname, "bias": bname}))
        prev = dense
    out = _fresh_name("head_softmax", taken)
    nodes.append(Node(name=out, op="softmax", inputs=(prev,), params={}))

    return build_graph(
        input_name=backbone.input_name, input_shape=backbone.input_shape,
        output_name=out, embedding_name=backbone.embedding_name, nodes=nodes,
        weights=new_weights, labels=weights.classes,
        patch_frames=backbone.patch_frames, feature_config=backbone.feature_config,
        sample_rate=backbone.sample_rate)
