"""Model graphs: construction, validation and evaluation.

A graph is an ordered list of nodes over one input tensor. References
must point backwards (earlier nodes, the graph input, or a weight), so
validation rejects self or forward references as cycles. Shapes are
inferred once at build time; evaluation checks the input shape and that
every activation stays finite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from ..dsp import MelConfig
from ..errors import (CyclicGraph, InputShapeMismatch, ManifestError, MissingWeight,
                      NonFiniteActivation, UnknownNode)
from .ops import op_def, weight_param_names

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-/]+$")

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Node:
    name: str
    op: str
    inputs: tuple[str, ...]
    params: dict


@dataclass
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
    node_shapes: dict[str, tuple[int, ...]] = field(default_factory=dict)


def _check_name(name: str, what: str) -> None:
    if not _NAME_RE.match(name):
        raise ManifestError(f"invalid {what} name {name!r}")


def normalize_params(name: str, op: str, given: dict) -> dict:
    """Check a node's params against its op's schema and fill in the defaults."""
    schema = op_def(op).params
    unknown = set(given) - set(schema)
    if unknown:
        raise ManifestError(f"node {name!r}: unknown params {sorted(unknown)}")
    params = {}
    for p, (kind, default) in schema.items():
        if p in given:
            params[p] = given[p]
        elif default is None and kind not in ("weight_opt", "int_pair_opt"):
            raise ManifestError(f"node {name!r}: op {op!r} requires {p!r}")
        else:
            params[p] = default
    return params


def build_graph(*, input_name, input_shape, output_name, embedding_name, nodes,
                weights, labels, patch_frames, feature_config, sample_rate) -> ModelGraph:
    """Validate and assemble a ModelGraph; the single constructor for the package."""
    nodes = tuple(nodes)
    labels = tuple(labels)
    input_shape = tuple(int(d) for d in input_shape)

    _check_name(input_name, "input")
    if any(d < 1 for d in input_shape) or not input_shape:
        raise ManifestError(f"input shape must be positive, got {input_shape}")
    if patch_frames < 1:
        raise ManifestError(f"patch_frames must be >= 1, got {patch_frames}")
    if sample_rate <= 0:
        raise ManifestError(f"sample_rate must be positive, got {sample_rate}")
    if not isinstance(feature_config, MelConfig):
        raise ManifestError("feature_config must be a MelConfig")

    weights = {str(k): np.ascontiguousarray(v, dtype=np.float32) for k, v in weights.items()}
    for wname in weights:
        _check_name(wname, "weight")

    node_names: list[str] = []
    normalized = []
    for node in nodes:
        _check_name(node.name, "node")
        if node.name in node_names:
            raise ManifestError(f"duplicate node name {node.name!r}")
        if node.name == input_name or node.name in weights:
            raise ManifestError(f"node name {node.name!r} collides with input or weight")
        node_names.append(node.name)
        normalized.append(Node(name=node.name, op=node.op, inputs=tuple(node.inputs),
                               params=normalize_params(node.name, node.op, node.params)))
    nodes = tuple(normalized)
    name_set = set(node_names)

    for index, node in enumerate(nodes):
        d = op_def(node.op)
        if d.max_inputs is not None and not d.min_inputs <= len(node.inputs) <= d.max_inputs:
            raise ManifestError(
                f"node {node.name!r}: op {node.op} takes {d.min_inputs}..{d.max_inputs} "
                f"inputs, got {len(node.inputs)}")
        if len(node.inputs) < d.min_inputs:
            raise ManifestError(f"node {node.name!r}: too few inputs")
        earlier = set(node_names[:index])
        for ref in node.inputs:
            if ref == input_name or ref in earlier or ref in weights:
                continue
            if ref in name_set:
                raise CyclicGraph(
                    f"node {node.name!r} references {ref!r}, which is not defined earlier")
            raise ManifestError(f"node {node.name!r} references undefined name {ref!r}")
        for p, (kind, _) in d.params.items():
            if kind in ("weight", "weight_opt"):
                wname = node.params.get(p)
                if wname is None:
                    continue
                if wname not in weights:
                    raise MissingWeight(f"node {node.name!r} references missing weight {wname!r}")

    if output_name not in name_set:
        raise ManifestError(f"output node {output_name!r} does not exist")
    if embedding_name not in name_set:
        raise ManifestError(f"embedding node {embedding_name!r} does not exist")

    graph = ModelGraph(
        input_name=input_name, input_shape=input_shape, output_name=output_name,
        embedding_name=embedding_name, nodes=nodes, weights=weights, labels=labels,
        patch_frames=int(patch_frames), feature_config=feature_config,
        sample_rate=int(sample_rate))
    graph.node_shapes = _infer_shapes(graph)

    if labels:
        out_shape = graph.node_shapes[output_name]
        if out_shape != (len(labels),):
            from ..errors import ShapeMismatch
            raise ShapeMismatch(
                f"{len(labels)} labels but output {output_name!r} has shape {out_shape}")
    return graph


def _infer_shapes(graph: ModelGraph) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {graph.input_name: graph.input_shape}
    for node in graph.nodes:
        d = op_def(node.op)
        in_shapes = []
        for ref in node.inputs:
            in_shapes.append(shapes[ref] if ref in shapes else tuple(graph.weights[ref].shape))
        wshapes = {}
        for p in weight_param_names(node.op):
            wname = node.params.get(p)
            if wname is not None:
                wshapes[p] = tuple(graph.weights[wname].shape)
            else:
                wshapes[p] = None
        shapes[node.name] = tuple(int(x) for x in d.infer(in_shapes, wshapes, node.params))
    return shapes


def _resolve_weights(graph: ModelGraph, node: Node) -> dict:
    wts = {}
    for p in weight_param_names(node.op):
        wname = node.params.get(p)
        wts[p] = graph.weights[wname] if wname is not None else None
    return wts


def forward_from(graph: ModelGraph, seeds: dict, until: str | None = None) -> np.ndarray:
    """Evaluate up to ``until`` (default: the output) from precomputed activations.

    ``seeds`` maps the graph input and/or node names to tensors; anything
    not seeded is computed from its own inputs. Useful for resuming from
    an intermediate layer.
    """
    target = until if until is not None else graph.output_name
    names = {n.name for n in graph.nodes}
    if target != graph.input_name and target not in names:
        raise UnknownNode(f"no node named {target!r}")

    memo: dict[str, np.ndarray] = {}
    for key, value in seeds.items():
        if key != graph.input_name and key not in names:
            raise UnknownNode(f"seed {key!r} names no node or input")
        arr = np.ascontiguousarray(value, dtype=np.float32)
        expected = graph.input_shape if key == graph.input_name else graph.node_shapes[key]
        if tuple(arr.shape) != expected:
            raise InputShapeMismatch(f"{key!r} expects shape {expected}, got {arr.shape}")
        memo[key] = arr
    if target in memo:
        return memo[target]

    node_by_name = {n.name: n for n in graph.nodes}
    needed: set[str] = set()
    stack = [target]
    while stack:
        name = stack.pop()
        if name in memo or name in needed or name in graph.weights:
            continue
        if name == graph.input_name:
            raise InputShapeMismatch(f"graph input {graph.input_name!r} was not provided")
        node = node_by_name[name]
        needed.add(name)
        stack.extend(node.inputs)

    for node in graph.nodes:
        if node.name not in needed:
            continue
        inputs = [memo[r] if r in memo else graph.weights[r] for r in node.inputs]
        out = op_def(node.op).apply(inputs, _resolve_weights(graph, node), node.params)
        out = np.ascontiguousarray(out, dtype=np.float32)
        if not np.all(np.isfinite(out)):
            raise NonFiniteActivation(f"node {node.name!r} produced non-finite values")
        memo[node.name] = out
    return memo[target]


def forward(graph: ModelGraph, x, until: str | None = None) -> np.ndarray:
    """Run one input tensor through the graph, stopping at ``until`` if given."""
    return forward_from(graph, {graph.input_name: x}, until)
