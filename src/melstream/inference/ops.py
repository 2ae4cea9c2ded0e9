"""Layer kernels and their shape rules.

All arithmetic is float32, single example (no batch axis). Spatial
tensors are rank 3, height x width x channels. conv2d kernels are
[kh, kw, in_ch, out_ch]; dense weights [in, out]; batch_norm parameters
are per-channel vectors over the last axis. Convolution supports same
and valid padding; pooling is valid-only with stride defaulting to the
pool size. dropout is the identity at inference time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ..dsp import _float_text
from ..errors import ShapeMismatch, UnsupportedOp

F32 = np.float32


def _pad_amounts(size: int, k: int, stride: int) -> tuple[int, int]:
    # TF-style same padding: output ceil(size / stride).
    out = -(-size // stride)
    total = max((out - 1) * stride + k - size, 0)
    before = total // 2
    return before, total - before


def _windows(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    # (oh, ow, kh, kw, C) view over a rank-3 HWC array; a direct ndarray, because
    # sliding_window_view costs ~10 µs a call and a prefix block makes several.
    x = np.ascontiguousarray(x)
    (h, w, c), (s0, s1, s2) = x.shape, x.strides
    return np.ndarray(((h - kh) // sh + 1, (w - kw) // sw + 1, kh, kw, c), x.dtype, x,
                      strides=(s0 * sh, s1 * sw, s0, s1, s2))


def _conv_gemm(x, kernel, params):
    """conv2d's product of ``x`` with ``kernel``, without the bias: (oh, ow, out_ch)."""
    kh, kw, ci, co = kernel.shape
    sh, sw = params["stride"]
    if params["padding"] == "same":
        ph = _pad_amounts(x.shape[0], kh, sh)
        pw = _pad_amounts(x.shape[1], kw, sw)
        x = np.pad(x, (ph, pw, (0, 0)))
    win = _windows(x, kh, kw, sh, sw)
    oh, ow = win.shape[:2]
    cols = np.ascontiguousarray(win, dtype=F32).reshape(oh * ow, kh * kw * ci)
    return (cols @ kernel.reshape(kh * kw * ci, co)).reshape(oh, ow, co)


def _conv2d(inputs, wts, params):
    y = _conv_gemm(inputs[0], wts["weight"], params)
    return y if wts.get("bias") is None else y + wts["bias"]


def _conv2d_shape(in_shapes, wshapes, params):
    (xs,) = in_shapes
    if len(xs) != 3:
        raise ShapeMismatch(f"conv2d expects a rank-3 input, got {xs}")
    ks = wshapes["weight"]
    if len(ks) != 4:
        raise ShapeMismatch(f"conv2d kernel must be rank 4, got {ks}")
    kh, kw, ci, co = ks
    if xs[2] != ci:
        raise ShapeMismatch(f"conv2d input has {xs[2]} channels, kernel expects {ci}")
    bs = wshapes.get("bias")
    if bs is not None and bs != (co,):
        raise ShapeMismatch(f"conv2d bias must be ({co},), got {bs}")
    sh, sw = params["stride"]
    if params["padding"] == "same":
        oh, ow = -(-xs[0] // sh), -(-xs[1] // sw)
    else:
        if xs[0] < kh or xs[1] < kw:
            raise ShapeMismatch(f"conv2d kernel {kh}x{kw} larger than input {xs[0]}x{xs[1]}")
        oh, ow = (xs[0] - kh) // sh + 1, (xs[1] - kw) // sw + 1
    return (oh, ow, co)


def _dense(inputs, wts, params):
    (x,) = inputs
    y = x @ wts["weight"]
    if wts.get("bias") is not None:
        y = y + wts["bias"]
    return y


def _dense_shape(in_shapes, wshapes, params):
    (xs,) = in_shapes
    ws = wshapes["weight"]
    if len(xs) != 1 or len(ws) != 2:
        raise ShapeMismatch(f"dense expects a rank-1 input and rank-2 weight, got {xs} and {ws}")
    if xs[0] != ws[0]:
        raise ShapeMismatch(f"dense input dim {xs[0]} does not match weight rows {ws[0]}")
    bs = wshapes.get("bias")
    if bs is not None and bs != (ws[1],):
        raise ShapeMismatch(f"dense bias must be ({ws[1]},), got {bs}")
    return (ws[1],)


def _bn_scale(wts, params) -> np.ndarray:
    """batch_norm's per-channel float32 scale, ``gamma / sqrt(variance + epsilon)``."""
    return wts["gamma"] / np.sqrt(wts["variance"] + F32(params["epsilon"]))


def _batch_norm(inputs, wts, params):
    (x,) = inputs
    return (x - wts["mean"]) * _bn_scale(wts, params) + wts["beta"]


def _batch_norm_shape(in_shapes, wshapes, params):
    (xs,) = in_shapes
    c = (xs[-1],)
    for p in ("gamma", "beta", "mean", "variance"):
        if wshapes[p] != c:
            raise ShapeMismatch(f"batch_norm {p} must be {c}, got {wshapes[p]}")
    if params["epsilon"] < 0:
        raise ShapeMismatch("batch_norm epsilon must be >= 0")
    return xs


def _pool(inputs, params, reduce_fn):
    (x,) = inputs
    ph, pw = params["pool"]
    sh, sw = params["stride"] if params["stride"] is not None else (ph, pw)
    win = _windows(x, ph, pw, sh, sw)
    return reduce_fn(win, axis=(2, 3))


def _pool_shape(in_shapes, wshapes, params):
    (xs,) = in_shapes
    if len(xs) != 3:
        raise ShapeMismatch(f"pooling expects a rank-3 input, got {xs}")
    ph, pw = params["pool"]
    sh, sw = params["stride"] if params["stride"] is not None else (ph, pw)
    if xs[0] < ph or xs[1] < pw:
        raise ShapeMismatch(f"pool {ph}x{pw} larger than input {xs[0]}x{xs[1]}")
    return ((xs[0] - ph) // sh + 1, (xs[1] - pw) // sw + 1, xs[2])


def _relu(inputs, wts, params):
    return np.maximum(inputs[0], F32(0))


def _elu(inputs, wts, params):
    x = inputs[0]
    pos = x > 0
    # expm1 runs on x <= 0 only, so a large activation cannot overflow it; np.where, unlike
    # np.minimum, passes a -0.0 through as it is.
    return np.where(pos, x, F32(params["alpha"]) * np.expm1(np.where(pos, F32(0), x))).astype(F32)


def _sigmoid(inputs, wts, params):
    x = inputs[0]
    # Split by sign so exp never overflows.
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e)).astype(F32)


def _softmax(inputs, wts, params):
    x = inputs[0]
    z = np.exp(x - x.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def _flatten(inputs, wts, params):
    return np.ascontiguousarray(inputs[0]).reshape(-1)


def _flatten_shape(in_shapes, wshapes, params):
    n = 1
    for d in in_shapes[0]:
        n *= d
    return (n,)


def _concat(inputs, wts, params):
    return np.concatenate(inputs, axis=params["axis"])


def _concat_shape(in_shapes, wshapes, params):
    axis = params["axis"]
    first = in_shapes[0]
    if not -len(first) <= axis < len(first):
        raise ShapeMismatch(f"concat axis {axis} out of range for rank {len(first)}")
    axis %= len(first)
    total = 0
    for s in in_shapes:
        if len(s) != len(first) or any(a != b for i, (a, b) in enumerate(zip(s, first)) if i != axis):
            raise ShapeMismatch(f"concat inputs disagree off-axis: {in_shapes}")
        total += s[axis]
    return first[:axis] + (total,) + first[axis + 1:]


def _identity(inputs, wts, params):
    return inputs[0]


def _same_shape(in_shapes, wshapes, params):
    return in_shapes[0]


# A param whose default is _REQUIRED must be given; one whose default is None may be left
# out. An explicit None counts as not given.
_REQUIRED = object()


class _Kind(NamedTuple):
    check: Callable  # value -> the value kept in Node.params; TypeError/ValueError if invalid
    read: Callable  # manifest text -> value
    write: Callable  # kept value -> text that read turns back into the same value


def _bad(reason: str):
    raise ValueError(reason)


def _pair(v):
    if not isinstance(v, (tuple, list)):
        raise ValueError("must be two integers")
    a, b = map(operator.index, v)
    if a < 1 or b < 1:
        raise ValueError("must be positive")
    return (a, b)


_KINDS: dict[str, _Kind] = {
    "weight": _Kind(lambda v: v if isinstance(v, str) else _bad("must be a weight name"), str, str),
    "pair": _Kind(_pair, lambda t: tuple(map(int, t.split(","))), lambda v: f"{v[0]},{v[1]}"),
    "padding": _Kind(lambda v: v if v in ("same", "valid") else _bad("must be same or valid"),
                     str, str),
    "float": _Kind(lambda v: float(v) if math.isfinite(v) else _bad("must be finite"),
                   float, _float_text),
    "int": _Kind(operator.index, int, str),
}


@dataclass(frozen=True)
class OpDef:
    apply: Callable
    infer: Callable
    params: dict  # param name -> (kind in _KINDS, default)
    min_inputs: int = 1
    max_inputs: int = 1
    # Row rule on rank-3 inputs: (params, weight shapes) -> the halo rows the op adds when
    # its output row t reads only input rows t..t+halo, else None. No rule: never time-local.
    rows: Callable | None = None


def _pointwise_rows(params, wshapes):
    return 0


def _conv2d_rows(params, wshapes):
    if params["padding"] == "valid" and params["stride"][0] == 1:
        return wshapes["weight"][0] - 1
    return None


def _pool_rows(params, wshapes):
    stride = params["stride"] if params["stride"] is not None else params["pool"]
    return 0 if params["pool"][0] == stride[0] == 1 else None


def _concat_rows(params, wshapes):
    return 0 if params["axis"] % 3 else None


OPS: dict[str, OpDef] = {
    "conv2d": OpDef(_conv2d, _conv2d_shape, {
        "weight": ("weight", _REQUIRED), "bias": ("weight", None),
        "stride": ("pair", (1, 1)), "padding": ("padding", "valid")}, rows=_conv2d_rows),
    "dense": OpDef(_dense, _dense_shape, {
        "weight": ("weight", _REQUIRED), "bias": ("weight", None)}),
    "batch_norm": OpDef(_batch_norm, _batch_norm_shape, {
        "gamma": ("weight", _REQUIRED), "beta": ("weight", _REQUIRED),
        "mean": ("weight", _REQUIRED), "variance": ("weight", _REQUIRED),
        "epsilon": ("float", 1e-3)}, rows=_pointwise_rows),
    "max_pool2d": OpDef(lambda i, w, p: _pool(i, p, np.max), _pool_shape, {
        "pool": ("pair", _REQUIRED), "stride": ("pair", None)}, rows=_pool_rows),
    "mean_pool2d": OpDef(lambda i, w, p: _pool(i, p, np.mean), _pool_shape, {
        "pool": ("pair", _REQUIRED), "stride": ("pair", None)}, rows=_pool_rows),
    "relu": OpDef(_relu, _same_shape, {}, rows=_pointwise_rows),
    "elu": OpDef(_elu, _same_shape, {"alpha": ("float", 1.0)}, rows=_pointwise_rows),
    "sigmoid": OpDef(_sigmoid, _same_shape, {}, rows=_pointwise_rows),
    "softmax": OpDef(_softmax, _same_shape, {}),
    "flatten": OpDef(_flatten, _flatten_shape, {}),
    "dropout": OpDef(_identity, _same_shape, {}, rows=_pointwise_rows),
    "concat": OpDef(_concat, _concat_shape, {"axis": ("int", 0)}, min_inputs=1, max_inputs=None,
                    rows=_concat_rows),
}


def op_def(kind: str) -> OpDef:
    if kind not in OPS:
        raise UnsupportedOp(f"op {kind!r} not supported (have {sorted(OPS)})")
    return OPS[kind]


def weight_param_names(kind: str) -> list[str]:
    """Params of an op that reference weights, required first."""
    d = op_def(kind)
    return [p for p, (k, _) in d.params.items() if k == "weight"]
