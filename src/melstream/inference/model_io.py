"""Model container: a text manifest plus a binary weights file.

Manifest grammar (UTF-8, one statement per line, ``#`` comments):

    format_version 1
    input <name> <d0,d1,...>
    output <node>
    embedding <node>
    patch_frames <int>
    sample_rate <int>
    labels <a;b;c>                      # optional; empty = feature extractor
    feature_config.<field> <value>      # every MelConfig field, exact names
    weight <name> <d0,d1,...>           # declared shape of each stored weight
    node <name> <op> [inputs=a,b] [key=value ...]

Each key appears once. A node param has one of five kinds, defined in
``ops._KINDS`` with its check, reader and writer: ``weight`` (a weight
name), ``pair`` (``h,w``, two integers >= 1), ``padding`` (``same`` or
``valid``), ``float`` (finite; written in the shortest text that reads
back exactly) and ``int``. So any graph ``build_graph`` accepts saves and
reloads bit-exactly.

Weights file layout (all little-endian): magic ``MSTW``, u32 format
version, u32 entry count, then per entry a u16 name length, the UTF-8
name, a u8 rank, u32 dims, and the raw float32 row-major data.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..dsp import MelConfig
from ..errors import ConfigError, ManifestError, MissingWeight, ModelLoadError, ShapeMismatch
from .graph import FORMAT_VERSION, ModelGraph, Node, build_graph
from .ops import _KINDS, op_def, weight_param_names

WEIGHTS_MAGIC = b"MSTW"
WEIGHTS_VERSION = 1


# -- weights binary ----------------------------------------------------------

def encode_weights(weights: dict[str, np.ndarray]) -> bytes:
    out = bytearray()
    out += WEIGHTS_MAGIC
    out += struct.pack("<II", WEIGHTS_VERSION, len(weights))
    for name, arr in weights.items():
        arr = np.ascontiguousarray(arr, dtype="<f4")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"weight name too long: {name!r}")
        if arr.ndim > 0xFF:
            raise ValueError(f"weight rank {arr.ndim} too large: {name!r}")
        out += struct.pack("<H", len(encoded)) + encoded
        out += struct.pack("<B", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.tobytes(order="C")
    return bytes(out)


def write_weights(path, weights: dict[str, np.ndarray]) -> None:
    Path(path).write_bytes(encode_weights(weights))


def read_weights(path) -> dict[str, np.ndarray]:
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != WEIGHTS_MAGIC:
        raise ModelLoadError("not a weights file (bad magic)")
    version, count = struct.unpack_from("<II", data, 4)
    if version != WEIGHTS_VERSION:
        raise ModelLoadError(f"unsupported weights format version {version}")
    weights: dict[str, np.ndarray] = {}
    offset = 12
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            if len(data) < offset + name_len:
                raise ModelLoadError("weights file truncated inside a name")
            name = data[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<B", data, offset)
            offset += 1
            dims = struct.unpack_from(f"<{rank}I", data, offset)
            offset += 4 * rank
            n = 1
            for d in dims:
                n *= d
            end = offset + 4 * n
            if end > len(data):
                raise ModelLoadError("weights file truncated inside tensor data")
            arr = np.frombuffer(data, dtype="<f4", count=n, offset=offset)
            try:
                weights[name] = arr.reshape(dims).astype(np.float32)
            except ValueError as e:  # numpy refuses the rank or the dims
                raise ModelLoadError(f"bad tensor shape in weights file: {e}") from None
            offset = end
    except struct.error:
        raise ModelLoadError("weights file truncated") from None
    except UnicodeDecodeError:
        raise ModelLoadError("weight name is not valid UTF-8") from None
    if len(weights) != count:
        raise ModelLoadError("duplicate weight names in weights file")
    return weights


# -- manifest text -----------------------------------------------------------

def _name_dims(text: str) -> tuple[str, tuple[int, ...]]:
    """Read the ``<name> <d0,d1,...>`` of an input or weight line."""
    parts = text.split()
    if len(parts) != 2:
        raise ValueError("needs a name and dims")
    dims = tuple(int(d) for d in parts[1].split(","))
    if min(dims) < 1:
        raise ValueError("dims must be positive")
    return parts[0], dims


# Header keys in file order, each (text reader, text writer for a graph); only labels may be absent.
_HEADER = {
    "format_version": (int, lambda g: FORMAT_VERSION),
    "input": (_name_dims, lambda g: f"{g.input_name} {','.join(map(str, g.input_shape))}"),
    "output": (str, lambda g: g.output_name),
    "embedding": (str, lambda g: g.embedding_name),
    "patch_frames": (int, lambda g: g.patch_frames),
    "sample_rate": (int, lambda g: g.sample_rate),
    "labels": (lambda t: tuple(s for s in t.split(";") if s), lambda g: ";".join(g.labels)),
}
_CONFIG = "feature_config."


def _parse_node_line(rest: str) -> Node:
    tokens = rest.split()
    if len(tokens) < 2:
        raise ManifestError(f"node line needs a name and an op: {rest!r}")
    name, kind = tokens[0], tokens[1]
    schema = op_def(kind).params
    params = {}
    for token in tokens[2:]:
        key, eq, value = token.partition("=")
        if not eq or key in params:
            raise ManifestError(f"bad or repeated token {token!r} on node {name!r}")
        if key == "inputs":
            params[key] = tuple(v for v in value.split(",") if v)
            continue
        if key not in schema:
            raise ManifestError(f"op {kind} has no param {key!r}")
        try:
            params[key] = _KINDS[schema[key][0]].read(value)
        except ValueError:
            raise ManifestError(f"bad value {value!r} for {key!r} on node {name!r}") from None
    inputs = params.pop("inputs", ())
    return Node(name=name, op=kind, inputs=inputs, params=params)


def parse_manifest(text: str) -> dict:
    """Parse manifest text into its pieces (no weights attached yet).

    Node param values are read but not checked; ``build_graph`` checks them.
    """
    seen: dict = {}  # header values, and feature_config.* texts under their full keys
    weight_decls: dict[str, tuple[int, ...]] = {}
    nodes: list[Node] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key in seen:
            raise ManifestError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key == "node":
                nodes.append(_parse_node_line(rest))
            elif key == "weight":
                name, dims = _name_dims(rest)
                if name in weight_decls:
                    raise ManifestError(f"line {lineno}: duplicate weight declaration {name!r}")
                weight_decls[name] = dims
            elif key in _HEADER:
                seen[key] = _HEADER[key][0](rest)
            elif key.startswith(_CONFIG):
                seen[key] = rest
            else:
                raise ManifestError(f"line {lineno}: unknown manifest key {key!r}")
        except ValueError as e:
            raise ManifestError(f"line {lineno}: bad {key} line {rest!r}: {e}") from None

    for required in _HEADER:
        if required not in seen and required != "labels":
            raise ManifestError(f"manifest missing required key {required!r}")
    if seen["format_version"] != FORMAT_VERSION:
        raise ManifestError(f"unsupported manifest format_version {seen['format_version']}")
    try:
        config = MelConfig.from_kv(
            {k[len(_CONFIG):]: v for k, v in seen.items() if k.startswith(_CONFIG)})
    except ConfigError as e:
        raise ManifestError(f"bad feature_config: {e}") from None

    return {
        "input_name": seen["input"][0],
        "input_shape": seen["input"][1],
        "output_name": seen["output"],
        "embedding_name": seen["embedding"],
        "patch_frames": seen["patch_frames"],
        "sample_rate": seen["sample_rate"],
        "labels": seen.get("labels", ()),
        "feature_config": config,
        "weight_decls": weight_decls,
        "nodes": nodes,
    }


def format_manifest(graph: ModelGraph) -> str:
    """Deterministic manifest text for a graph."""
    lines = [f"{key} {write(graph)}" for key, (_, write) in _HEADER.items()
             if key != "labels" or graph.labels]
    lines += [f"{_CONFIG}{key} {value}" for key, value in graph.feature_config.to_kv().items()]
    lines += [f"weight {name} {','.join(map(str, w.shape))}" for name, w in graph.weights.items()]
    for node in graph.nodes:
        parts = [f"node {node.name} {node.op}"]
        if node.inputs:
            parts.append(f"inputs={','.join(node.inputs)}")
        for key, (kind, _) in op_def(node.op).params.items():
            if node.params[key] is not None:
                parts.append(f"{key}={_KINDS[kind].write(node.params[key])}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# -- top level ---------------------------------------------------------------

def load_model(manifest_path, weights_path) -> ModelGraph:
    """Load and validate a model container."""
    try:
        text = Path(manifest_path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ManifestError("manifest is not valid UTF-8") from None
    pieces = parse_manifest(text)
    stored = read_weights(weights_path)
    weights: dict[str, np.ndarray] = {}
    for name, declared in pieces.pop("weight_decls").items():
        if name not in stored:
            raise MissingWeight(f"manifest declares weight {name!r} absent from the weights file")
        if tuple(stored[name].shape) != declared:
            raise ShapeMismatch(
                f"weight {name!r} declared {declared} but stored {tuple(stored[name].shape)}")
        weights[name] = stored[name]
    # build_graph checks every reference; this only names a stored weight left undeclared.
    undeclared = stored.keys() - weights.keys()
    for node in pieces["nodes"] if undeclared else ():
        for key in weight_param_names(node.op):
            if node.params.get(key) in undeclared:
                raise MissingWeight(f"node {node.name!r} references weight {node.params[key]!r} "
                                    "(present in the weights file but not declared)")
    return build_graph(weights=weights, **pieces)


def save_model(graph: ModelGraph, manifest_path, weights_path) -> None:
    """Write the manifest and weights; the pair round-trips bit-exactly."""
    Path(manifest_path).write_text(format_manifest(graph), encoding="utf-8")
    write_weights(weights_path, graph.weights)
