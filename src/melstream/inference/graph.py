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

A prefix chain conv2d -> batch_norm -> relu -> max_pool2d whose conv, bn
and relu outputs each have one reader runs as one pool-first step: the
GEMM, the pool's window max of the raw product (the min for channels whose
float32 batch_norm scale is negative), then bias, batch_norm and relu on
the pooled rows only. Every float32 stage is monotone per channel, so the
bits are the plain steps'; a chain with a -0.0 beta, or whose conv, bn or
relu output is the target or a seed, runs plain. The full-tensor finite
checks of those stages give way to a bound: one ``max|x|`` of the block's
conv input, against a per-chain limit under which no stage can overflow
(``_chain_limit``). Where a block's input exceeds the limit, that chain runs
as its plain steps on the same input, which name the node that makes a
non-finite value.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..audio_io import _MAX_RATE
from ..dsp import MelConfig, _front_end
from ..errors import (ConfigError, CyclicGraph, InputShapeMismatch, ManifestError, MissingWeight,
                      NonFiniteActivation, ShapeMismatch, UnknownNode)
from .ops import _KINDS, _REQUIRED, _bn_scale, _conv_gemm, _pool, op_def, weight_param_names

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-/]+$")
# A label must come back whole from the manifest's ``labels a;b;c`` line.
_LABEL_RE = re.compile(r"[^;\s]+(?: +[^;\s]+)*")

FORMAT_VERSION = 1
# Prefix rows per block; blocks start at row 0, so the last block of a patch may be shorter.
_ROW_BLOCK = 32
# float32's unit roundoff and largest value, for the overflow bound of pool-first chains.
_U = 2.0 ** -24
_F32_MAX = float(np.finfo(np.float32).max)


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

    @functools.cached_property
    def _chains(self) -> dict:
        """Each pool-first step of the prefix, by its conv's name.

        Built by the first block run, not by ``build_graph``: a setup that builds
        many graphs pays nothing for it.
        """
        return _pool_first_chains(self)


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
    if not (0 < sample_rate <= _MAX_RATE and sample_rate == int(sample_rate)):
        raise ManifestError(f"sample_rate must be an integer in 1..{_MAX_RATE} (the highest rate "
                            f"the resampler reaches), got {sample_rate}")
    if not all(isinstance(label, str) and _LABEL_RE.fullmatch(label) for label in labels):
        raise ManifestError(f"labels must be non-empty, without ';', line breaks or outer "
                            f"spaces, got {labels!r}")
    if not isinstance(feature_config, MelConfig):
        raise ManifestError("feature_config must be a MelConfig")
    try:
        _front_end(feature_config, sample_rate)
    except ConfigError as e:
        raise ManifestError(f"feature_config cannot run at {sample_rate} Hz: {e}") from None

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


class _Chain(NamedTuple):
    steps: tuple  # the plain (node, op kernel, weight params) steps, conv2d to max_pool2d
    limit: float  # the largest max|x| of a conv input for which no stage can overflow
    negative: np.ndarray | None  # channels with a negative scale, pooled by their min

    @property
    def names(self) -> list[str]:
        return [node.name for node, _, _ in self.steps]


def _chain_limit(kernel, bias, mean, scale, beta) -> float:
    """The largest max|x| of a conv input for which no stage of a chain can overflow.

    With u = 2**-24 and K = kh*kw*ci, the GEMM gives |y_c| <= (1 + K*u / (1 - K*u)) *
    ||k_c||_1 * max|x| in any summation order (Higham, *Accuracy and Stability of
    Numerical Algorithms*, section 3.1). Each later float32 op is bounded by
    (|a| + |b|)(1 + u) or |a||b|(1 + u) of the bounds of its operands. So every stage
    is bounded by g*M + a per channel, for M = max|x|, and the limit keeps each bound
    at or under half float32's max; that margin also covers the float64 arithmetic
    here. It is -1, never met, when a parameter is not finite.
    """
    if not all(np.isfinite(v).all() for v in (kernel, bias, mean, scale, beta)):
        return -1.0
    k = kernel.shape[0] * kernel.shape[1] * kernel.shape[2]
    g = (1 + k * _U / (1 - k * _U)) * np.abs(kernel, dtype=np.float64).sum(axis=(0, 1, 2))
    a = np.zeros_like(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        limits = [(_F32_MAX / 2 - a) / g]
        # + bias, - mean, * scale, + beta.
        for add, mul in ((bias, 1.0), (mean, 1.0), (0.0, scale), (beta, 1.0)):
            mul = np.abs(mul, dtype=np.float64) * (1 + _U)
            g, a = g * mul, (a + np.abs(add, dtype=np.float64)) * mul
            limits.append((_F32_MAX / 2 - a) / g)
    # A 0/0 makes the limit NaN, never met; capping at float32's max refuses an inf input.
    return float(np.min(limits, initial=_F32_MAX))


def _pool_first_chains(graph: ModelGraph) -> dict:
    """The pool-first step of each prefix chain whose conv, bn and relu outputs have one
    reader each, by conv name; a step is (node named as the pool, kernel, ``_Chain``)."""
    readers: dict[str, list] = {}
    for node in graph.nodes:
        for ref in node.inputs:
            readers.setdefault(ref, []).append(node)
    steps = {step[0].name: step for step in graph._steps}
    chains = {}
    for conv in (node for node in graph.nodes if node.op == "conv2d"):
        chain = [conv]
        for op in ("batch_norm", "relu", "max_pool2d"):
            after = readers.get(chain[-1].name, [])
            if len(after) != 1 or after[0].op != op:
                break
            chain.append(after[0])
        if len(chain) < 4 or chain[-1].name not in graph._halos:
            continue
        (_, _, conv_wts), (bn, _, bn_wts) = steps[conv.name], steps[chain[1].name]
        beta = bn_wts["beta"]
        # batch_norm ends by adding beta, so only a -0.0 beta lets it output -0.0; the
        # bits would then hang on how a pool breaks a tie of -0.0 with +0.0.
        if np.any(np.signbit(beta) & (beta == 0)):
            continue
        kernel, scale = conv_wts["weight"], _bn_scale(bn_wts, bn.params)
        bias = conv_wts["bias"] if conv_wts["bias"] is not None else np.zeros(kernel.shape[3])
        negative = scale < 0
        chains[conv.name] = (
            Node(chain[-1].name, "pool_first", conv.inputs, chain[-1].params), _pool_first,
            _Chain(tuple(steps[n.name] for n in chain),
                   _chain_limit(kernel, bias, bn_wts["mean"], scale, beta),
                   negative if negative.any() else None))
    return chains


def _pool_first(inputs, chain: _Chain, params):
    """One block of a conv2d -> batch_norm -> relu -> max_pool2d chain, pooled first.

    The pool takes the window max of the raw GEMM output, or the min where the
    channel's scale is negative; bias, batch_norm and relu then run on the pooled
    rows only. Each float32 stage is monotone per channel, so the bits are the plain
    steps'. When max|x| exceeds the chain's limit, no bound shows that every stage
    stays finite, so that chain runs as its plain steps.
    """
    (x,) = inputs
    (conv, _, conv_wts), (bn, bn_apply, bn_wts), (relu, relu_apply, _), (pool, _, _) = chain.steps
    if not np.abs(x).max() <= chain.limit:
        memo = {conv.inputs[0]: x}
        _run(chain.steps, memo, {})
        return memo[pool.name]
    y = _conv_gemm(x, conv_wts["weight"], conv.params)
    out = _pool([y], params, np.max)
    if chain.negative is not None:
        out[..., chain.negative] = _pool([y[..., chain.negative]], params, np.min)
    if conv_wts["bias"] is not None:
        out += conv_wts["bias"]
    return relu_apply([bn_apply([out], bn_wts, bn.params)], {}, relu.params)


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
        out = apply(inputs, wts, node.params)
        out = np.ascontiguousarray(out, dtype=np.float32)
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
        self._fused = None
        self._done = 0

    def _pool_first_plan(self) -> list:
        """The prefix steps, each chain that runs whole here put as its pool-first step.

        A chain runs whole when all four nodes are steps here (none is seeded) and
        neither its conv, bn nor relu output is the target. The step takes the conv's
        place, so every node before it has run, and none after it reads the chain
        but through the pool.
        """
        names = {node.name for node, _, _ in self._prefix}
        fused = {conv: step for conv, step in self._graph._chains.items()
                 if names.issuperset(step[2].names) and self._target not in step[2].names[:3]}
        skip = {name for step in fused.values() for name in step[2].names[1:]}
        return [fused.get(s[0].name, s) for s in self._prefix if s[0].name not in skip]

    def advance(self, held: int) -> None:
        """Run every block not yet run whose input rows end at or before row ``held``.

        A block reads input rows r0..end, so each prefix node gets its rows
        r0..end - halo; it keeps its first ``_ROW_BLOCK`` rows, the last block all.
        """
        graph, halos = self._graph, self._graph._halos
        while self._done < len(self._blocks) and self._blocks[self._done][1] <= held:
            r0, end = self._blocks[self._done]
            if self._fused is None:
                self._fused = self._pool_first_plan()
            memo = {name: value[r0:end - halos[name]] for name, value in self._sources.items()
                    if name in halos}
            _run(self._fused, memo, graph.weights)
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
