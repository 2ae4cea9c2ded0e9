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
from .graph import FORMAT_VERSION, ModelGraph, Node, build_graph, normalize_params
from .ops import op_def, weight_param_names

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

def _parse_dims(text: str, context: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ManifestError(f"bad dims {text!r} in {context}") from None
    if not dims or any(d < 1 for d in dims):
        raise ManifestError(f"dims must be positive in {context}, got {text!r}")
    return dims


def _parse_node_line(rest: str) -> Node:
    tokens = rest.split()
    if len(tokens) < 2:
        raise ManifestError(f"node line needs a name and an op: {rest!r}")
    name, kind = tokens[0], tokens[1]
    d = op_def(kind)
    inputs: tuple[str, ...] = ()
    params = {}
    for token in tokens[2:]:
        if "=" not in token:
            raise ManifestError(f"bad token {token!r} on node {name!r}")
        key, value = token.split("=", 1)
        if key == "inputs":
            inputs = tuple(v for v in value.split(",") if v)
            continue
        if key not in d.params:
            raise ManifestError(f"op {kind} has no param {key!r}")
        pkind = d.params[key][0]
        try:
            if pkind in ("weight", "weight_opt"):
                params[key] = value
            elif pkind in ("int_pair", "int_pair_opt"):
                a, b = value.split(",")
                params[key] = (int(a), int(b))
            elif pkind == "int":
                params[key] = int(value)
            elif pkind == "float":
                params[key] = float(value)
            elif pkind == "padding":
                if value not in ("same", "valid"):
                    raise ValueError(value)
                params[key] = value
            else:
                raise ManifestError(f"unhandled param kind {pkind}")
        except (ValueError, TypeError):
            raise ManifestError(f"bad value {value!r} for {key!r} on node {name!r}") from None
    return Node(name=name, op=kind, inputs=inputs, params=normalize_params(name, kind, params))


def parse_manifest(text: str) -> dict:
    """Parse manifest text into its pieces (no weights attached yet)."""
    seen: dict[str, str] = {}
    feature_kv: dict[str, str] = {}
    weight_decls: dict[str, tuple[int, ...]] = {}
    nodes: list[Node] = []
    input_name = None
    input_shape = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "node":
            nodes.append(_parse_node_line(rest))
            continue
        if key == "weight":
            parts = rest.split()
            if len(parts) != 2:
                raise ManifestError(f"line {lineno}: weight line needs a name and dims")
            if parts[0] in weight_decls:
                raise ManifestError(f"line {lineno}: duplicate weight declaration {parts[0]!r}")
            weight_decls[parts[0]] = _parse_dims(parts[1], f"weight {parts[0]!r}")
            continue
        if key == "input":
            parts = rest.split()
            if len(parts) != 2:
                raise ManifestError(f"line {lineno}: input line needs a name and dims")
            input_name, input_shape = parts[0], _parse_dims(parts[1], "input")
            continue
        if key.startswith("feature_config."):
            feature_kv[key[len("feature_config."):]] = rest
            continue
        if key in ("format_version", "output", "embedding", "patch_frames",
                   "sample_rate", "labels"):
            if key in seen:
                raise ManifestError(f"line {lineno}: duplicate key {key!r}")
            seen[key] = rest
            continue
        raise ManifestError(f"line {lineno}: unknown manifest key {key!r}")

    for required in ("format_version", "output", "embedding", "patch_frames", "sample_rate"):
        if required not in seen:
            raise ManifestError(f"manifest missing required key {required!r}")
    if input_name is None:
        raise ManifestError("manifest missing required key 'input'")
    try:
        version = int(seen["format_version"])
        patch_frames = int(seen["patch_frames"])
        sample_rate = int(seen["sample_rate"])
    except ValueError as e:
        raise ManifestError(f"bad integer in manifest header: {e}") from None
    if version != FORMAT_VERSION:
        raise ManifestError(f"unsupported manifest format_version {version}")
    labels = tuple(s for s in seen.get("labels", "").split(";") if s)
    try:
        config = MelConfig.from_kv(feature_kv)
    except ConfigError as e:
        raise ManifestError(f"bad feature_config: {e}") from None

    return {
        "input_name": input_name,
        "input_shape": input_shape,
        "output_name": seen["output"],
        "embedding_name": seen["embedding"],
        "patch_frames": patch_frames,
        "sample_rate": sample_rate,
        "labels": labels,
        "feature_config": config,
        "weight_decls": weight_decls,
        "nodes": nodes,
    }


def _format_param(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def format_manifest(graph: ModelGraph) -> str:
    """Deterministic manifest text for a graph."""
    lines = [f"format_version {FORMAT_VERSION}"]
    lines.append(f"input {graph.input_name} {','.join(str(d) for d in graph.input_shape)}")
    lines.append(f"output {graph.output_name}")
    lines.append(f"embedding {graph.embedding_name}")
    lines.append(f"patch_frames {graph.patch_frames}")
    lines.append(f"sample_rate {graph.sample_rate}")
    if graph.labels:
        lines.append(f"labels {';'.join(graph.labels)}")
    for key, value in graph.feature_config.to_kv().items():
        lines.append(f"feature_config.{key} {value}")
    for name, arr in graph.weights.items():
        lines.append(f"weight {name} {','.join(str(d) for d in arr.shape)}")
    for node in graph.nodes:
        parts = [f"node {node.name} {node.op}"]
        if node.inputs:
            parts.append(f"inputs={','.join(node.inputs)}")
        d = op_def(node.op)
        for key in d.params:
            value = node.params.get(key)
            if value is None:
                continue
            parts.append(f"{key}={_format_param(value)}")
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
    node_names = {n.name for n in pieces["nodes"]}
    for node in pieces["nodes"]:
        for key in weight_param_names(node.op):
            name = node.params.get(key)
            if name is not None and name not in weights:
                hint = " (present in the weights file but not declared)" if name in stored else ""
                raise MissingWeight(f"node {node.name!r} references weight {name!r}{hint}")
        for ref in node.inputs:
            if ref in stored and ref not in weights and ref not in node_names:
                raise ManifestError(f"weight {ref!r} used but not declared in the manifest")
    return build_graph(weights=weights, **pieces)


def save_model(graph: ModelGraph, manifest_path, weights_path) -> None:
    """Write the manifest and weights; the pair round-trips bit-exactly."""
    Path(manifest_path).write_text(format_manifest(graph), encoding="utf-8")
    write_weights(weights_path, graph.weights)
