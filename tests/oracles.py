"""Independent reference implementations used to check the package.

Everything here is written from the documented contracts with plain
loops, explicit DFT matrices and float64 math. Nothing imports from
melstream, so agreement between the two is meaningful. The one exception
is :func:`ref_forward`: it composes the package's own op kernels, so that
the graph evaluation around them (row blocks, pool-first chains) is
checked bit for bit, while the loop references below check the kernels.
"""

import math

import numpy as np


# -- mel pipeline -------------------------------------------------------------

def ref_window(kind: str, n: int) -> np.ndarray:
    i = np.arange(n, dtype=np.float64)
    if kind == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * i / n)
    if kind == "hamming":
        return 0.54 - 0.46 * np.cos(2.0 * np.pi * i / n)
    if kind == "blackman-harris":
        a = (0.35875, 0.48829, 0.14128, 0.01168)
        return (a[0] - a[1] * np.cos(2.0 * np.pi * i / n)
                + a[2] * np.cos(4.0 * np.pi * i / n)
                - a[3] * np.cos(6.0 * np.pi * i / n))
    if kind == "rectangular":
        return np.ones(n)
    raise ValueError(kind)


def ref_hz_to_mel(f: float, scale: str) -> float:
    if scale == "htk":
        return 2595.0 * math.log10(1.0 + f / 700.0)
    if f < 1000.0:
        return f / (200.0 / 3.0)
    return 15.0 + math.log(f / 1000.0) / (math.log(6.4) / 27.0)


def ref_mel_to_hz(m: float, scale: str) -> float:
    if scale == "htk":
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    if m < 15.0:
        return m * (200.0 / 3.0)
    return 1000.0 * math.exp((m - 15.0) * (math.log(6.4) / 27.0))


def ref_filterbank(n_mels: int, fft_size: int, sample_rate: int, f_min: float,
                   f_max: float, scale: str, norm: str) -> np.ndarray:
    lo_m = ref_hz_to_mel(f_min, scale)
    hi_m = ref_hz_to_mel(f_max, scale)
    pts = [ref_mel_to_hz(lo_m + (hi_m - lo_m) * k / (n_mels + 1), scale)
           for k in range(n_mels + 2)]
    n_bins = fft_size // 2 + 1
    fb = np.zeros((n_mels, n_bins))
    for i in range(n_mels):
        lo, center, hi = pts[i], pts[i + 1], pts[i + 2]
        for k in range(n_bins):
            f = k * sample_rate / fft_size
            w = min((f - lo) / (center - lo), (hi - f) / (hi - center))
            fb[i, k] = max(w, 0.0)
        if norm == "area":
            fb[i] /= fb[i].sum()
        elif norm == "band-width":
            fb[i] *= 2.0 / (hi - lo)
    return fb


def ref_mel_filterbank(n_mels: int, fft_size: int, sample_rate: int, f_min: float,
                       f_max: float, scale: str, norm: str) -> np.ndarray:
    """The filterbank built one filter at a time, the way the package once did.

    Unlike :func:`ref_filterbank` this repeats the package's own numpy
    arithmetic, so a filterbank that agrees with it agrees bit for bit. An
    empty filter raises ValueError with the package's EmptyFilter message.
    """
    def to_mel(f):
        f = np.asarray(f, dtype=np.float64)
        if scale == "htk":
            return 2595.0 * np.log10(1.0 + f / 700.0)
        return np.where(f < 1000.0, f / (200.0 / 3.0),
                        15.0 + np.log(np.maximum(f, 1000.0) / 1000.0) / (math.log(6.4) / 27.0))

    def to_hz(m):
        if scale == "htk":
            return 700.0 * (10.0 ** (m / 2595.0) - 1.0)
        return np.where(m < 15.0, m * (200.0 / 3.0),
                        1000.0 * np.exp(math.log(6.4) / 27.0 * (np.maximum(m, 15.0) - 15.0)))

    hz_pts = to_hz(np.linspace(float(to_mel(f_min)), float(to_mel(f_max)), n_mels + 2))
    n_bins = fft_size // 2 + 1
    bin_hz = np.arange(n_bins) * (sample_rate / fft_size)
    fb = np.zeros((n_mels, n_bins))
    for i in range(n_mels):
        lo, center, hi = hz_pts[i], hz_pts[i + 1], hz_pts[i + 2]
        up = (bin_hz - lo) / (center - lo)
        down = (hi - bin_hz) / (hi - center)
        tri = np.clip(np.minimum(up, down), 0.0, None)
        if not tri.any():
            raise ValueError(f"mel filter {i} ({lo:.1f}-{hi:.1f} Hz) has no nonzero weight "
                             f"at fft_size {fft_size}")
        if norm == "area":
            tri = tri / tri.sum()
        elif norm == "band-width":
            tri = tri * (2.0 / (hi - lo))
        fb[i] = tri
    return fb


_DFT_MATRICES: dict[int, np.ndarray] = {}


def ref_dft_bins(x: np.ndarray, fft_size: int) -> np.ndarray:
    """First fft_size//2 + 1 DFT coefficients via an explicit matrix."""
    padded = np.zeros(fft_size)
    padded[:x.size] = x
    mat = _DFT_MATRICES.get(fft_size)
    if mat is None:
        k = np.arange(fft_size // 2 + 1)[:, None]
        n = np.arange(fft_size)[None, :]
        mat = np.exp(-2j * np.pi * k * n / fft_size)
        _DFT_MATRICES[fft_size] = mat
    return mat @ padded


def ref_compress(x: np.ndarray, compression: str) -> np.ndarray:
    if compression == "none":
        return x
    if compression == "natural-log":
        return np.log(np.maximum(x, 1e-10))
    if compression == "log10":
        return np.log10(np.maximum(x, 1e-10))
    assert compression.startswith("shifted-log(") and compression.endswith(")")
    scale = float(compression[len("shifted-log("):-1])
    return np.log10(1.0 + scale * x)


def ref_mel_spectrogram(x: np.ndarray, sample_rate: int, frame_size: int,
                        hop_size: int, n_mels: int, window: str = "hann",
                        fft_size: int | None = None, f_min: float = 0.0,
                        f_max: float = 8000.0, mel_scale: str = "htk",
                        filter_norm: str = "none", spectrum_type: str = "power",
                        compression: str = "none") -> np.ndarray:
    if fft_size is None:
        fft_size = 1
        while fft_size < frame_size:
            fft_size *= 2
    t = (x.size - frame_size) // hop_size + 1
    win = ref_window(window, frame_size)
    fb = ref_filterbank(n_mels, fft_size, sample_rate, f_min, f_max,
                        mel_scale, filter_norm)
    rows = []
    for i in range(t):
        seg = x[i * hop_size:i * hop_size + frame_size] * win
        bins = ref_dft_bins(seg, fft_size)
        if spectrum_type == "power":
            spec = bins.real ** 2 + bins.imag ** 2
        else:
            spec = np.abs(bins)
        rows.append(ref_compress(fb @ spec, compression))
    return np.stack(rows)


def ref_mel_frame(segment: np.ndarray, window: np.ndarray, fft_size: int,
                  filterbank: np.ndarray, spectrum_type: str, compression: str) -> np.ndarray:
    """One mel row the way the per-frame kernel made it: rfft, then one mat-vec.

    Unlike :func:`ref_mel_spectrogram` this repeats the package's own
    arithmetic, so rows that agree with it agree bit for bit.
    """
    spec = np.fft.rfft(segment * window, n=fft_size)
    if spectrum_type == "power":
        spec = spec.real ** 2 + spec.imag ** 2
    else:
        spec = np.abs(spec)
    return ref_compress(filterbank @ spec, compression)


# -- resampling ---------------------------------------------------------------

def _ref_kernel_design(source: int, target: int):
    """Cutoff (cycles per input sample), Kaiser beta and half-width in taps.

    80 dB Kaiser design with the transition band from 0.45 to 1.0 of the
    smaller Nyquist.
    """
    atten_db, passband_fraction = 80.0, 0.45
    low = min(source, target)
    pass_hz = passband_fraction * (low / 2.0)
    stop_hz = low / 2.0
    cutoff = (pass_hz + stop_hz) / 2.0 / source
    width = (stop_hz - pass_hz) / source
    beta = 0.1102 * (atten_db - 8.7)
    half = max(int(np.ceil((atten_db - 8.0) / (2.285 * 2.0 * np.pi * width))) // 2, 4)
    return cutoff, beta, half


def ref_resample(x: np.ndarray, source: int, target: int) -> np.ndarray:
    """Windowed-sinc resampling evaluated directly at every output position.

    80 dB Kaiser design with the transition band from 0.45 to 1.0 of the
    smaller Nyquist. Output j sits at input position j * source / target
    (a float, so the position drifts by rounding as j grows); the taps
    that fall outside the signal are dropped and each row is divided by
    its tap sum. Output length is round(len(x) * target / source).
    """
    cutoff, beta, half = _ref_kernel_design(source, target)
    n_out = int(round(x.size * target / source))
    pos = np.arange(n_out, dtype=np.float64) * (source / target)
    idx = np.floor(pos).astype(np.int64)[:, None] + np.arange(-half, half + 2)[None, :]
    tau = pos[:, None] - idx
    win_arg = np.clip(1.0 - (tau / half) ** 2, 0.0, None)
    taps = np.sinc(2.0 * cutoff * tau) * (np.i0(beta * np.sqrt(win_arg)) / np.i0(beta))
    taps *= (np.abs(tau) <= half) & (idx >= 0) & (idx < x.size)
    gathered = x[np.clip(idx, 0, x.size - 1)]
    return (gathered * taps).sum(axis=1) / taps.sum(axis=1)


def ref_resample_blocked(x: np.ndarray, source: int, target: int) -> np.ndarray:
    """The package's polyphase resampler as it ran with one gather per block of outputs.

    Same phase table and arithmetic as the package (exact positions
    ``j * down // up``, one ``einsum`` row product for the numerator and one
    for the tap sum inside x), so a resampler that agrees with it agrees bit
    for bit.
    """
    cutoff, beta, half = _ref_kernel_design(source, target)
    g = math.gcd(source, target)
    up, down = target // g, source // g
    offsets = np.arange(-half, half + 1, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(x, half), offsets.size)
    inside = np.lib.stride_tricks.sliding_window_view(np.pad(np.ones(x.size), half), offsets.size)
    out = np.empty(int(round(x.size * target / source)))
    tau = (np.arange(min(out.size, up), dtype=np.int64) * down % up)[:, None] / up - offsets
    win_arg = np.clip(1.0 - (tau / half) ** 2, 0.0, None)
    table = np.sinc(2.0 * cutoff * tau) * (np.i0(beta * np.sqrt(win_arg)) / np.i0(beta))
    table *= np.abs(tau) <= half
    for start in range(0, out.size, 4096):
        j = np.arange(start, min(start + 4096, out.size), dtype=np.int64)
        base = j * down // up
        taps = table[j % up]
        out[start:start + base.size] = (np.einsum("ij,ij->i", windows[base], taps)
                                        / np.einsum("ij,ij->i", inside[base], taps))
    return out


# -- neural ops (nested loops, float64) ---------------------------------------

def ref_conv2d(x, kernel, bias, stride, padding):
    h, w, ci = x.shape
    kh, kw, _, co = kernel.shape
    sh, sw = stride
    if padding == "same":
        oh = -(-h // sh)
        ow = -(-w // sw)
        pad_h = max((oh - 1) * sh + kh - h, 0)
        pad_w = max((ow - 1) * sw + kw - w, 0)
        top, left = pad_h // 2, pad_w // 2
        padded = np.zeros((h + pad_h, w + pad_w, ci))
        padded[top:top + h, left:left + w] = x
        x = padded
        h, w = x.shape[:2]
    else:
        oh = (h - kh) // sh + 1
        ow = (w - kw) // sw + 1
    out = np.zeros((oh, ow, co))
    for oi in range(oh):
        for oj in range(ow):
            for oc in range(co):
                acc = 0.0
                for di in range(kh):
                    for dj in range(kw):
                        for c in range(ci):
                            acc += x[oi * sh + di, oj * sw + dj, c] * kernel[di, dj, c, oc]
                out[oi, oj, oc] = acc + (bias[oc] if bias is not None else 0.0)
    return out


def ref_dense(x, weight, bias):
    n_in, n_out = weight.shape
    out = np.zeros(n_out)
    for j in range(n_out):
        acc = 0.0
        for i in range(n_in):
            acc += x[i] * weight[i, j]
        out[j] = acc + (bias[j] if bias is not None else 0.0)
    return out


def ref_batch_norm(x, gamma, beta, mean, variance, epsilon):
    return (x - mean) * gamma / np.sqrt(variance + epsilon) + beta


def ref_pool(x, pool, stride, mode):
    h, w, c = x.shape
    ph, pw = pool
    sh, sw = stride
    oh = (h - ph) // sh + 1
    ow = (w - pw) // sw + 1
    out = np.zeros((oh, ow, c))
    for oi in range(oh):
        for oj in range(ow):
            for ch in range(c):
                block = [x[oi * sh + di, oj * sw + dj, ch]
                         for di in range(ph) for dj in range(pw)]
                out[oi, oj, ch] = max(block) if mode == "max" else sum(block) / len(block)
    return out


def ref_relu(x):
    return np.maximum(x, 0.0)


def ref_elu(x, alpha=1.0):
    return np.where(x > 0.0, x, alpha * (np.exp(x) - 1.0))


def ref_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def ref_softmax(x):
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ref_forward(graph, x) -> dict:
    """Every activation of ``graph`` on input ``x``, by name, the input included.

    Each node runs once, in order, on whole tensors through its op's kernel
    ``ops.OPS[op].apply``: no row blocks, no pool-first chains.
    """
    from melstream.inference.ops import OPS

    memo = {graph.input_name: np.ascontiguousarray(x, dtype=np.float32)}
    for node in graph.nodes:
        op = OPS[node.op]
        wts = {p: None if node.params[p] is None else graph.weights[node.params[p]]
               for p, (kind, _) in op.params.items() if kind == "weight"}
        inputs = [memo[r] if r in memo else graph.weights[r] for r in node.inputs]
        memo[node.name] = np.ascontiguousarray(op.apply(inputs, wts, node.params),
                                               dtype=np.float32)
    return memo


# -- metrics ------------------------------------------------------------------

def ref_average_precision(scores, positives) -> float:
    """Threshold-sweep average precision: AP = sum P(t) * (R(t) - R_prev)."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    n_pos = int(positives.sum())
    thresholds = sorted(set(scores.tolist()), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        sel = scores >= t
        tp = int((positives & sel).sum())
        precision = tp / int(sel.sum())
        recall = tp / n_pos
        ap += precision * (recall - prev_recall)
        prev_recall = recall
    return ap


def ref_average_precision_blocks(scores, positives) -> float:
    """Average precision by one pass over blocks of tied scores, best first."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    p = np.asarray(positives, dtype=bool)[order]
    n_pos = int(p.sum())
    ap = 0.0
    tp = 0
    seen = 0
    i = 0
    while i < s.size:
        j = i
        while j < s.size and s[j] == s[i]:
            j += 1
        block_pos = int(p[i:j].sum())
        tp += block_pos
        seen += j - i
        if block_pos:
            ap += (tp / seen) * (block_pos / n_pos)
        i = j
    return float(ap)


# -- head training ------------------------------------------------------------

def ref_val_loss(layers, variant: str, rows_by_track, y_by_track) -> float:
    """Validation loss one track at a time: each track's mean cross-entropy, then their mean.

    ``layers`` is [(W, b)] for variant A or [(W1, b1), (W2, b2)] for B,
    applied with relu between; the arithmetic repeats the package's.
    """
    per_track = []
    for rows, y in zip(rows_by_track, y_by_track):
        x = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if variant == "A":
            (w, b), = layers
            z = x @ w + b
        else:
            (w1, b1), (w2, b2) = layers
            z = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
        probs = ref_softmax(z)
        per_track.append(float(-np.log(np.maximum(probs[:, y], 1e-300)).mean()))
    return float(np.mean(per_track))


def ref_head_batches(rows_by_track, y_by_track, batch_size: int, epochs: int, rng):
    """Mini-batches as drawn one row at a time: a track order per epoch, then
    one random patch for each track of a batch. Yields (xs, ys)."""
    n = len(rows_by_track)
    for _ in range(epochs):
        order = rng.permutation(n)
        for b in range(0, n, batch_size):
            chunk = order[b:b + batch_size]
            xs = np.empty((chunk.size, rows_by_track[0].shape[1]))
            ys = np.empty(chunk.size, dtype=np.int64)
            for row, idx in enumerate(chunk):
                patches = rows_by_track[idx]
                xs[row] = patches[int(rng.integers(patches.shape[0]))]
                ys[row] = y_by_track[idx]
            yield xs, ys


def ref_lr_schedule(val_losses, initial_lr, patience, factor):
    """Learning rate in effect during each epoch, from the validation curve.

    An epoch improves when its loss is strictly below the best so far.
    When (epoch - anchor) reaches the patience with no improvement, the
    rate halves after that epoch; the anchor resets on improvement and
    on each halving.
    """
    lr = initial_lr
    best = math.inf
    anchor = 0
    rates = []
    for epoch, loss in enumerate(val_losses, start=1):
        rates.append(lr)
        if loss < best:
            best = loss
            anchor = epoch
        elif epoch - anchor >= patience:
            lr *= factor
            anchor = epoch
    return rates


def central_diff_grads(loss_fn, params, h=1e-4):
    """Numeric gradient of loss_fn(params) for a list of float64 arrays."""
    grads = []
    for pi, p in enumerate(params):
        g = np.zeros_like(p)
        flat = p.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_fn(params)
            flat[i] = orig - h
            lo = loss_fn(params)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads
