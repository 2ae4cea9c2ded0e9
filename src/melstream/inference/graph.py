"""Model graphs: construction, validation and evaluation.

A graph is an ordered list of nodes over one input tensor. References
must point backwards (earlier nodes, the graph input, or a weight), so
validation rejects self or forward references as cycles. One pass at
build time validates each node, resolves its weight params to arrays and
infers its shape; evaluation runs the stored steps, checking the input
shape and that every activation stays finite.

The same pass marks the graph's time-local prefix: the nodes fed only by
a rank-3 input or by other prefix nodes whose op has a row rule in
``ops.OPS`` (output row t reads only input rows t..t+halo). An
``_Evaluation`` runs the prefix in fixed blocks of ``_ROW_BLOCK`` output
rows, each cut from the input with its halo, then the suffix whole: all
at once for ``forward_from``, block by block as a stream's patch fills.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from ..audio_io import _MAX_RATE
from ..dsp import MelConfig
from ..errors import (CyclicGraph, InputShapeMismatch, ManifestError, MissingWeight,
                      NonFiniteActivation, ShapeMismatch, UnknownNode)
from .ops import _KINDS, _REQUIRED, op_def, weight_param_names

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-/]+$")
# A label must come back whole from the manifest's ``labels a;b;c`` line.
_LABEL_RE = re.compile(r"[^;\s]+(?: +[^;\s]+)*")

FORMAT_VERSION = 1
# Prefix rows per block; blocks start at row 0, so the last block of a patch may be shorter.
_ROW_BLOCK = 32


@dataclass(frozen=True)
class Node:
    name: str
    op: str
    inputs: tuple[str, ...]
    params: dict


@dataclass(frozen=True)
class ModelGraph:
    """Validated inference graph plus everything needed to run audio through it."""

    input_name: str
    input_shape: tuple[int, ...]
    output_name: str
    embedding_name: str
    nodes: tuple[Node, ...]
    weights: dict[str, np.ndarray]
    labels: tuple[str, ...]
    patch_frames: int
    feature_config: MelConfig
    sample_rate: int
    node_shapes: dict[str, tuple[int, ...]]
    # One (node, op kernel, resolved weight params) per node, in node order.
    _steps: tuple = field(repr=False)
    # Halo rows of the rank-3 input (0) and of each time-local prefix node.
    _halos: dict = field(repr=False)
    # (first output row, end of the input rows read) of each prefix block, in order.
    _blocks: tuple = field(repr=False)


def _check_name(name: str, what: str) -> None:
    if not _NAME_RE.match(name):
        raise ManifestError(f"invalid {what} name {name!r}")


def normalize_params(name: str, op: str, given: dict) -> dict:
    """Check a node's params against its op's schema and fill in the defaults."""
    schema = op_def(op).params
    if not given.keys() <= schema.keys():
        raise ManifestError(f"node {name!r}: unknown params {sorted(set(given) - set(schema))}")
    params = {}
    for p, (kind, default) in schema.items():
        value = given.get(p)
        if value is None and default is _REQUIRED:
            raise ManifestError(f"node {name!r}: op {op!r} requires {p!r}")
        try:
            params[p] = default if value is None else _KINDS[kind].check(value)
        except (TypeError, ValueError) as e:
            raise ManifestError(f"node {name!r}: bad {p} {value!r}: {e}") from None
    return params


def build_graph(*, input_name, input_shape, output_name, embedding_name, nodes,
                weights, labels, patch_frames, feature_config, sample_rate) -> ModelGraph:
    """Validate and assemble a ModelGraph; the single constructor for the package."""
    labels = tuple(labels)
    input_shape = tuple(int(d) for d in input_shape)

    _check_name(input_name, "input")
    if any(d < 1 for d in input_shape) or not input_shape:
        raise ManifestError(f"input shape must be positive, got {input_shape}")
    if patch_frames < 1:
        raise ManifestError(f"patch_frames must be >= 1, got {patch_frames}")
    if not 0 < sample_rate <= _MAX_RATE:
        raise ManifestError(f"sample_rate must lie in 1..{_MAX_RATE} (the highest rate the "
                            f"resampler reaches), got {sample_rate}")
    if not all(isinstance(label, str) and _LABEL_RE.fullmatch(label) for label in labels):
        raise ManifestError(f"labels must be non-empty, without ';', line breaks or outer "
                            f"spaces, got {labels!r}")
    if not isinstance(feature_config, MelConfig):
        raise ManifestError("feature_config must be a MelConfig")
    if feature_config.f_max > sample_rate / 2.0:
        raise ManifestError(f"feature_config f_max {feature_config.f_max} exceeds the Nyquist "
                            f"frequency {sample_rate / 2.0} of sample_rate {sample_rate}")

    weights = {str(k): np.ascontiguousarray(v, dtype=np.float32) for k, v in weights.items()}
    for wname in weights:
        _check_name(wname, "weight")
    if input_name in weights:
        raise ManifestError(f"weight name {input_name!r} collides with the input")

    nodes = tuple(nodes)
    names = {node.name for node in nodes}
    if output_name not in names:
        raise ManifestError(f"output node {output_name!r} does not exist")
    if embedding_name not in names:
        raise ManifestError(f"embedding node {embedding_name!r} does not exist")

    # One pass in order: shapes holds the input and every node defined so far.
    shapes: dict[str, tuple[int, ...]] = {input_name: input_shape}
    halos = {input_name: 0} if len(input_shape) == 3 else {}
    steps = []
    for node in nodes:
        _check_name(node.name, "node")
        if node.name in shapes or node.name in weights:
            raise ManifestError(
                f"node name {node.name!r} is a duplicate or collides with input or weight")
        d = op_def(node.op)
        node = Node(name=node.name, op=node.op, inputs=tuple(node.inputs),
                    params=normalize_params(node.name, node.op, node.params))
        if len(node.inputs) < d.min_inputs or (
                d.max_inputs is not None and len(node.inputs) > d.max_inputs):
            raise ManifestError(
                f"node {node.name!r}: op {node.op} takes {d.min_inputs}..{d.max_inputs or ''} "
                f"inputs, got {len(node.inputs)}")
        for ref in node.inputs:
            if ref in shapes or ref in weights:
                continue
            if ref in names:
                raise CyclicGraph(
                    f"node {node.name!r} references {ref!r}, which is not defined earlier")
            raise ManifestError(f"node {node.name!r} references undefined name {ref!r}")
        wts = {}
        for p in weight_param_names(node.op):
            wname = node.params[p]
            if wname is not None and wname not in weights:
                raise MissingWeight(f"node {node.name!r} references missing weight {wname!r}")
            wts[p] = None if wname is None else weights[wname]
        in_shapes = [shapes[r] if r in shapes else weights[r].shape for r in node.inputs]
        wshapes = {p: None if w is None else w.shape for p, w in wts.items()}
        shapes[node.name] = tuple(int(x) for x in d.infer(in_shapes, wshapes, node.params))
        steps.append((node, d.apply, wts))
        in_halos = {halos.get(ref) for ref in node.inputs}
        if d.rows is not None and len(in_halos) == 1 and None not in in_halos:
            added = d.rows(node.params, wshapes)
            if added is not None:
                halos[node.name] = in_halos.pop() + added

    rows, halo = input_shape[0], max(halos.values(), default=0)
    blocks = tuple((r0, min(r0 + _ROW_BLOCK + halo, rows))
                   for r0 in range(0, rows - halo, _ROW_BLOCK)) if len(halos) > 1 else ()
    if labels and shapes[output_name] != (len(labels),):
        raise ShapeMismatch(
            f"{len(labels)} labels but output {output_name!r} has shape {shapes[output_name]}")
    return ModelGraph(
        input_name=input_name, input_shape=input_shape, output_name=output_name,
        embedding_name=embedding_name, nodes=tuple(node for node, _, _ in steps),
        weights=weights, labels=labels, patch_frames=int(patch_frames),
        feature_config=feature_config, sample_rate=int(sample_rate), node_shapes=shapes,
        _steps=tuple(steps), _halos=halos, _blocks=blocks)


def _needed(graph: ModelGraph, target: str, given=()) -> set[str]:
    """Every name ``target`` depends on, not looking past the names in ``given``.

    Nodes are in topological order, so one sweep from the back reaches all
    of them. The set holds the target, nodes, the graph input and weights.
    """
    needed = {target}
    for node in reversed(graph.nodes):
        if node.name in needed and node.name not in given:
            needed.update(node.inputs)
    return needed


def _run(steps, memo: dict, weights: dict) -> None:
    """Run steps in order into ``memo``, checking that every activation is finite."""
    for node, apply, wts in steps:
        inputs = [memo[r] if r in memo else weights[r] for r in node.inputs]
        out = np.ascontiguousarray(apply(inputs, wts, node.params), dtype=np.float32)
        if not np.isfinite(out).all():
            raise NonFiniteActivation(f"node {node.name!r} produced non-finite values")
        memo[node.name] = out


class _Evaluation:
    """Evaluates ``target`` from ``sources``, which map names to tensors read in place.

    Prefix blocks write the rows the suffix or the caller reads into buffers
    kept across calls; the suffix runs whole once every block has run.
    """

    def __init__(self, graph: ModelGraph, target: str, sources: dict):
        needed = _needed(graph, target, sources)
        if graph.input_name in needed and graph.input_name not in sources:
            raise InputShapeMismatch(f"graph input {graph.input_name!r} was not provided")
        steps = [s for s in graph._steps if s[0].name in needed and s[0].name not in sources]
        self._graph, self._target, self._sources = graph, target, sources
        self._prefix = [s for s in steps if s[0].name in graph._halos]
        self._suffix = [s for s in steps if s[0].name not in graph._halos]
        read = {target}.union(*(node.inputs for node, _, _ in self._suffix))
        self._rows = {node.name: np.empty(graph.node_shapes[node.name], dtype=np.float32)
                      for node, _, _ in self._prefix if node.name in read}
        self._blocks = graph._blocks if self._prefix else ()
        self._done = 0

    def advance(self, held: int) -> None:
        """Run every block not yet run whose input rows end at or before row ``held``.

        A block reads input rows r0..end, so each prefix node gets its rows
        r0..end - halo; it keeps its first ``_ROW_BLOCK`` rows, the last block all.
        """
        graph, halos = self._graph, self._graph._halos
        while self._done < len(self._blocks) and self._blocks[self._done][1] <= held:
            r0, end = self._blocks[self._done]
            memo = {name: value[r0:end - halos[name]] for name, value in self._sources.items()
                    if name in halos}
            _run(self._prefix, memo, graph.weights)
            last = end == graph.input_shape[0]
            for name, buf in self._rows.items():
                part = memo[name] if last else memo[name][:_ROW_BLOCK]
                buf[r0:r0 + len(part)] = part
            self._done += 1

    def finish(self) -> np.ndarray:
        """Run the blocks left and the suffix, rewind; the target returned may be a row buffer."""
        self.advance(self._graph.input_shape[0])
        self._done = 0
        memo = {**self._sources, **self._rows}
        _run(self._suffix, memo, self._graph.weights)
        return memo[self._target]


def forward_from(graph: ModelGraph, seeds: dict, until: str | None = None) -> np.ndarray:
    """Evaluate up to ``until`` (default: the output) from precomputed activations.

    ``seeds`` maps the graph input and/or node names to tensors; anything
    not seeded is computed from its own inputs. Useful for resuming from
    an intermediate layer. The time-local prefix runs in row blocks, the
    rest whole.
    """
    target = until if until is not None else graph.output_name
    if target not in graph.node_shapes:
        raise UnknownNode(f"no node named {target!r}")

    memo: dict[str, np.ndarray] = {}
    for key, value in seeds.items():
        if key not in graph.node_shapes:
            raise UnknownNode(f"seed {key!r} names no node or input")
        arr = np.ascontiguousarray(value, dtype=np.float32)
        if tuple(arr.shape) != graph.node_shapes[key]:
            raise InputShapeMismatch(
                f"{key!r} expects shape {graph.node_shapes[key]}, got {arr.shape}")
        memo[key] = arr
    return _Evaluation(graph, target, memo).finish()


def forward(graph: ModelGraph, x, until: str | None = None) -> np.ndarray:
    """Run one input tensor through the graph, stopping at ``until`` if given."""
    return forward_from(graph, {graph.input_name: x}, until)
