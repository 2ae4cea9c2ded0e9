"""Acceptance checks, one per shipped guarantee.

Each test exercises a full guarantee at its stated tolerance and prints
one ``[PASS] criterion N`` line with the measured margin. Run the whole
module with ``pytest tests/test_acceptance.py -v``.
"""

import json
import math
import time

import numpy as np
import pytest

import melstream as ms
from melstream.cli import main as cli_main
from melstream.transfer import head_loss_and_grads, head_probs, init_head

import oracles
from util import identity_backbone, tone, toy_cnn

pytestmark = pytest.mark.acceptance


def _report(capsys, criterion: int, detail: str) -> None:
    # Capture is suspended so the line shows up under a plain pytest run.
    with capsys.disabled():
        print(f"\n[PASS] criterion {criterion}: {detail}")


def _random_mel_config(rng) -> tuple[ms.MelConfig, int]:
    """A random valid analysis setup (filterbank guaranteed non-empty)."""
    while True:
        frame = int(rng.choice([64, 128, 256, 512]))
        fft = frame * int(rng.choice([1, 2]))
        sample_rate = int(rng.choice([8000, 16000, 22050]))
        config = ms.MelConfig(
            frame_size=frame,
            hop_size=int(rng.integers(max(1, frame // 8), frame + 1)),
            n_mels=int(rng.integers(4, max(5, fft // 2 // 8))),
            window=str(rng.choice(["hann", "hamming", "blackman-harris",
                                   "rectangular"])),
            fft_size=fft,
            f_min=float(rng.choice([0.0, 50.0])),
            f_max=float(sample_rate / 2 * rng.uniform(0.7, 1.0)),
            mel_scale=str(rng.choice(["htk", "slaney"])),
            filter_norm=str(rng.choice(["none", "area", "band-width"])),
            spectrum_type=str(rng.choice(["power", "magnitude"])),
            compression=str(rng.choice(["none", "natural-log", "log10",
                                        "shifted-log(10000)"])),
        )
        try:
            ms.mel_filterbank(config, sample_rate)
        except ms.errors.EmptyFilter:
            continue
        return config, sample_rate


def test_c01_dsp_oracle(capsys):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        config, sample_rate = _random_mel_config(rng)
        n = int(rng.integers(config.frame_size, 4097))
        signal = rng.uniform(-1.0, 1.0, n)
        got = ms.mel_spectrogram(ms.AudioBuffer(signal, sample_rate), config).frames
        ref = oracles.ref_mel_spectrogram(
            signal, sample_rate, config.frame_size, config.hop_size,
            config.n_mels, window=config.window, fft_size=config.fft_size,
            f_min=config.f_min, f_max=config.f_max, mel_scale=config.mel_scale,
            filter_norm=config.filter_norm, spectrum_type=config.spectrum_type,
            compression=config.compression)
        assert got.shape == ref.shape
        rel = np.abs(got - ref) / np.maximum(np.abs(ref), 1e-12)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-4
    assert elapsed < 10.0
    _report(capsys, 1, f"100 random signals, max relative cell error "
               f"{worst:.3e} (tol 1e-4) in {elapsed:.1f}s (limit 10s)")


def test_c02_streaming_equivalence(capsys):
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    for _ in range(100):
        config, sample_rate = _random_mel_config(rng)
        n = int(rng.integers(config.frame_size, 12000))
        signal = rng.uniform(-1.0, 1.0, n)
        offline = ms.mel_spectrogram(ms.AudioBuffer(signal, sample_rate), config).frames

        n_cuts = int(rng.integers(0, 13))
        cuts = sorted(int(c) for c in rng.integers(0, n + 1, size=n_cuts))
        bounds = [0] + cuts + [n]
        pipe = ms.StreamPipeline(config=config, sample_rate=sample_rate)
        pieces = [pipe.push(signal[a:b]).frames for a, b in zip(bounds, bounds[1:])]
        pieces.append(pipe.flush().frames)
        streamed = np.concatenate(pieces)
        assert streamed.shape == offline.shape
        assert np.array_equal(streamed, offline)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(capsys, 2, f"100 random (signal, chunking) pairs bit-identical to offline "
               f"in {elapsed:.1f}s (limit 10s)")


def _random_inference_graph(rng):
    """Random stack of supported ops, dims <= 16, with local shape tracking."""
    shape = (int(rng.integers(4, 13)), int(rng.integers(4, 13)),
             int(rng.integers(1, 5)))
    input_shape = shape
    nodes, weights = [], {}
    prev = "in"
    for li in range(int(rng.integers(1, 5))):
        rank3 = len(shape) == 3
        if rank3 and min(shape[0], shape[1]) < 2:
            ops = ["batch_norm", "relu", "elu", "sigmoid", "flatten"]
        elif rank3:
            ops = ["conv2d", "max_pool2d", "mean_pool2d", "batch_norm",
                   "relu", "elu", "sigmoid", "flatten"]
        else:
            ops = ["dense", "batch_norm", "relu", "elu", "sigmoid", "softmax"]
        op = str(rng.choice(ops))
        name = f"n{li}"
        params = {}
        if op == "conv2d":
            kh = int(rng.integers(1, min(3, shape[0]) + 1))
            kw = int(rng.integers(1, min(3, shape[1]) + 1))
            cout = int(rng.integers(1, 5))
            stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            padding = str(rng.choice(["same", "valid"]))
            wname, bname = f"w{li}", f"b{li}"
            weights[wname] = rng.uniform(-0.5, 0.5, (kh, kw, shape[2], cout)).astype(np.float32)
            weights[bname] = rng.uniform(-0.5, 0.5, cout).astype(np.float32)
            params = {"weight": wname, "bias": bname, "stride": stride,
                      "padding": padding}
            sh, sw = stride
            if padding == "same":
                shape = (-(-shape[0] // sh), -(-shape[1] // sw), cout)
            else:
                shape = ((shape[0] - kh) // sh + 1, (shape[1] - kw) // sw + 1, cout)
        elif op in ("max_pool2d", "mean_pool2d"):
            ph = int(rng.integers(1, min(3, shape[0]) + 1))
            pw = int(rng.integers(1, min(3, shape[1]) + 1))
            params = {"pool": (ph, pw)}
            shape = ((shape[0] - ph) // ph + 1, (shape[1] - pw) // pw + 1, shape[2])
        elif op == "batch_norm":
            d = shape[-1]
            for key, low, high in (("gamma", 0.5, 1.5), ("beta", -0.5, 0.5),
                                   ("mean", -0.5, 0.5), ("variance", 0.5, 2.0)):
                wname = f"{key}{li}"
                weights[wname] = rng.uniform(low, high, d).astype(np.float32)
                params[key] = wname
        elif op == "dense":
            dout = int(rng.integers(1, 17))
            wname, bname = f"w{li}", f"b{li}"
            weights[wname] = rng.uniform(-0.5, 0.5, (shape[0], dout)).astype(np.float32)
            weights[bname] = rng.uniform(-0.5, 0.5, dout).astype(np.float32)
            params = {"weight": wname, "bias": bname}
            shape = (dout,)
        elif op == "flatten":
            shape = (shape[0] * shape[1] * shape[2],)
        nodes.append(ms.Node(name, op, (prev,), params))
        prev = name
    cfg = ms.MelConfig(frame_size=64, hop_size=32, n_mels=6, f_max=4000.0)
    graph = ms.build_graph(input_name="in", input_shape=input_shape,
                           output_name=prev, embedding_name=prev, nodes=nodes,
                           weights=weights, labels=(), patch_frames=4,
                           feature_config=cfg, sample_rate=8000)
    assert graph.node_shapes[prev] == shape
    return graph


def _oracle_forward(graph, x):
    cur = np.asarray(x, dtype=np.float64)
    w64 = {k: v.astype(np.float64) for k, v in graph.weights.items()}
    for node in graph.nodes:
        p = node.params
        if node.op == "conv2d":
            cur = oracles.ref_conv2d(cur, w64[p["weight"]], w64[p["bias"]],
                                     p["stride"], p["padding"])
        elif node.op in ("max_pool2d", "mean_pool2d"):
            stride = p["stride"] or p["pool"]
            cur = oracles.ref_pool(cur, p["pool"], stride,
                                   "max" if node.op == "max_pool2d" else "mean")
        elif node.op == "batch_norm":
            cur = oracles.ref_batch_norm(cur, w64[p["gamma"]], w64[p["beta"]],
                                         w64[p["mean"]], w64[p["variance"]],
                                         p["epsilon"])
        elif node.op == "dense":
            cur = oracles.ref_dense(cur, w64[p["weight"]], w64[p["bias"]])
        elif node.op == "flatten":
            cur = cur.reshape(-1)
        elif node.op == "relu":
            cur = oracles.ref_relu(cur)
        elif node.op == "elu":
            cur = oracles.ref_elu(cur, p["alpha"])
        elif node.op == "sigmoid":
            cur = oracles.ref_sigmoid(cur)
        elif node.op == "softmax":
            cur = oracles.ref_softmax(cur)
        else:
            raise AssertionError(f"unexpected op {node.op}")
    return cur


def test_c03_inference_oracle(capsys):
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        graph = _random_inference_graph(rng)
        x = rng.uniform(-1.0, 1.0, graph.input_shape).astype(np.float32)
        got = ms.forward(graph, x)
        ref = _oracle_forward(graph, x)
        assert got.shape == ref.shape
        worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst <= 1e-5
    _report(capsys, 3, f"50 random graphs vs nested-loop oracle, "
               f"max abs error {worst:.3e} (tol 1e-5)")


def test_c04_gradient_check(capsys):
    rng = np.random.default_rng(404)
    worst = 0.0
    for case in range(20):
        variant = "A" if case % 2 == 0 else "B"
        dim = int(rng.integers(2, 9))
        n_classes = int(rng.integers(2, 6))
        hidden = int(rng.integers(2, 7))
        batch = int(rng.integers(1, 9))
        spec = ms.HeadSpec(variant, n_classes, hidden=hidden)
        layers = init_head(spec, dim, rng)
        x = rng.normal(size=(batch, dim))
        y = rng.integers(0, n_classes, size=batch)
        _, grads = head_loss_and_grads(layers, x, y)

        def loss_fn(flat):
            pairs = [(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]
            return head_loss_and_grads(pairs, x, y)[0]

        flat = [a for pair in layers for a in pair]
        numeric = oracles.central_diff_grads(loss_fn, flat, h=1e-4)
        for a, n in zip(grads, numeric):
            rel = np.abs(a - n) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
            worst = max(worst, float(rel.max()))
    assert worst <= 1e-4
    _report(capsys, 4, f"20 random head instances, analytic vs central differences "
               f"(h=1e-4), max relative error {worst:.3e} (tol 1e-4)")


def test_c05_training_protocol(capsys):
    rng = np.random.default_rng(505)
    rows, labels = {}, {}
    for i in range(500):
        cls = i % 2
        center = np.zeros(200)
        center[cls] = 4.0
        rows[f"t{i:03d}"] = (center + rng.normal(scale=0.1, size=(3, 200))).astype(np.float32)
        labels[f"t{i:03d}"] = f"c{cls}"
    table = ms.EmbeddingTable(rows=rows, dim=200, source_layer="emb")

    t0 = time.perf_counter()
    out = ms.train_head(table, labels, ms.HeadSpec("A", 2), ms.TrainSpec())
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert len(out.training_log) <= 150

    preds = ms.classify_tracks(out, table, out.val_tracks)
    truth = {t: (labels[t],) for t in out.val_tracks}
    ba = ms.balanced_accuracy(truth, preds)
    assert ba >= 0.99

    rates = [e["lr"] for e in out.training_log]
    expect = oracles.ref_lr_schedule([e["val_loss"] for e in out.training_log],
                                     ms.TrainSpec().initial_lr, 75, 0.5)
    assert rates == expect
    for prev, cur in zip(rates, rates[1:]):
        assert cur == prev or cur == prev * 0.5
    _report(capsys, 5, f"500-track separable run: validation balanced accuracy {ba:.3f} "
               f"(floor 0.99) in {elapsed:.1f}s (limit 60s); "
               f"rate schedule matches the halving protocol")


def test_c06_metric_oracles(capsys):
    rng = np.random.default_rng(606)
    checked = 0
    for n in range(1, 11):
        distinct = rng.normal(size=n)
        tied = np.round(distinct * 2.0) / 2.0
        for mask in range(1, 2 ** n):
            pos = np.array([(mask >> i) & 1 == 1 for i in range(n)])
            for scores in (distinct, tied):
                got = ms.average_precision(scores, pos)
                ref = oracles.ref_average_precision(scores, pos)
                assert abs(got - ref) < 1e-12
                checked += 1

    truth = {"t1": ("a",), "t2": ("a",), "t3": ("a",), "t4": ("a",),
             "t5": ("b",), "t6": ("b",)}
    pred = {"t1": "a", "t2": "a", "t3": "a", "t4": "b", "t5": "b", "t6": "a"}
    assert ms.balanced_accuracy(truth, pred) == 0.625

    chance_report = []
    for n_classes in (2, 5, 10):
        classes = [f"c{j}" for j in range(n_classes)]
        mc_truth = {f"t{i}": (classes[i % n_classes],) for i in range(5 * n_classes)}
        tracks = sorted(mc_truth)
        total = 0.0
        trials = 10_000
        for _ in range(trials):
            mc_pred = {t: classes[int(j)] for t, j in
                       zip(tracks, rng.integers(0, n_classes, size=len(tracks)))}
            total += ms.balanced_accuracy(mc_truth, mc_pred)
        mean = total / trials
        assert abs(mean - 1.0 / n_classes) <= 0.02
        chance_report.append(f"{n_classes} classes {mean:.4f}")
    _report(capsys, 6, f"average precision equals the exhaustive-threshold oracle on "
               f"{checked} datasets of <= 10 items; hand example 0.625 exact; "
               f"random-predictor chance ({'; '.join(chance_report)}) "
               f"within 1/n +- 0.02 over 10k trials")


def test_c07_cross_collection_harness(capsys):
    taxonomy = ms.Taxonomy(
        classes=("rock", "electronic", "jazz"),
        parent={"progressive rock": "rock",
                "symphonic prog": "progressive rock",
                "techno": "electronic",
                "bebop": "jazz"})
    assert ms.map_tags(("progressive rock",), taxonomy) == ("rock",)

    foreign = {"rock": ("progressive rock", "symphonic prog"),
               "electronic": ("techno", "electronic"),
               "jazz": ("bebop", "jazz")}
    wrong = {"rock": "jazz", "electronic": "rock", "jazz": "electronic"}
    entries = []
    planted = {}
    for cls in ("rock", "electronic", "jazz"):
        for i in range(100):
            track = f"{cls}{i:03d}"
            path = f"{track}.wav"
            entries.append(ms.evaluation.DatasetEntry(track, path,
                                                      (foreign[cls][i % 2],)))
            planted[path] = cls if i < 70 else wrong[cls]
    for i in range(5):
        entries.append(ms.evaluation.DatasetEntry(f"junk{i}", f"junk{i}.wav",
                                                  ("polka",)))
    external = ms.DatasetManifest(entries=entries, label_mode="multi")

    report = ms.cross_collection_eval(planted.__getitem__, external, taxonomy,
                                      model_classes=("rock", "electronic", "jazz"))
    assert report.n_evaluated == 300
    assert report.n_discarded == 5
    assert abs(report.balanced_accuracy - 0.70) <= 0.02
    _report(capsys, 7, f"planted 70%-per-class predictor scores balanced accuracy "
               f"{report.balanced_accuracy:.3f} (target 0.70 +- 0.02); "
               f"'progressive rock' resolves to 'rock'")


def test_c08_five_fold_protocol(capsys):
    labels = {f"t{i:04d}": f"c{i % 10}" for i in range(1000)}
    folds = ms.stratified_kfold(labels, k=5, seed=42)
    assert len(folds) == 5
    for fold in folds:
        assert len(fold) == 200
        for cls in {f"c{j}" for j in range(10)}:
            assert sum(1 for t in fold if labels[t] == cls) == 20
    assert sorted(t for f in folds for t in f) == sorted(labels)

    rng = np.random.default_rng(808)
    rows = {}
    entries = []
    for track, cls in labels.items():
        onehot = np.zeros(10)
        onehot[int(cls[1:])] = 1.0
        rows[track] = np.tile(onehot, (2, 1)).astype(np.float32)
        entries.append(ms.evaluation.DatasetEntry(track, f"{track}.wav", (cls,)))
    table = ms.EmbeddingTable(rows=rows, dim=10, source_layer="oracle")
    dataset = ms.DatasetManifest(entries=entries)

    report = ms.crossval_run(dataset, None, ms.HeadSpec("A", 10),
                             ms.TrainSpec(max_epochs=60, initial_lr=0.02),
                             k=5, table=table)
    assert report.balanced_accuracy == 1.0
    assert report.stdev_across_folds == 0.0
    assert report.n_evaluated == 1000
    _report(capsys, 8, "1000-track, 10-class dataset: folds of 200 with exactly 20 "
               "per class; label-oracle backbone scores "
               f"{report.summary()} (target 1.00+-0.00)")


def test_c09_end_to_end_synthetic(tmp_path, capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    entries = []
    for i in range(200):
        cls = "low" if i % 2 == 0 else "high"
        freq = 1000.0 if cls == "low" else 4000.0
        path = tmp_path / f"clip{i:03d}.wav"
        amp = float(rng.uniform(0.2, 0.6))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        ms.write_wav(path, tone(freq, 3.0, sr=16000, amp=amp, phase=phase), 16000)
        entries.append(ms.evaluation.DatasetEntry(f"clip{i:03d}", str(path), (cls,)))
    dataset = ms.DatasetManifest(entries=entries)

    backbone = identity_backbone()
    report = ms.crossval_run(dataset, backbone, ms.HeadSpec("A", 2),
                             ms.TrainSpec(max_epochs=40, initial_lr=0.005),
                             k=5)
    elapsed = time.perf_counter() - t0
    assert report.n_evaluated == 200
    assert report.n_discarded == 0
    assert report.balanced_accuracy >= 0.95
    assert elapsed < 300.0
    _report(capsys, 9, f"200 generated 3s clips (1 kHz vs 4 kHz), identity backbone + "
               f"variant A head: cross-validated balanced accuracy "
               f"{report.balanced_accuracy:.3f} (floor 0.95) in {elapsed:.0f}s "
               f"(limit 300s)")


def test_c10_performance(tmp_path, capsys):
    sr = 16000
    seconds = 207.0
    rng = np.random.default_rng(1010)
    samples = (0.3 * np.sin(2.0 * np.pi * 440.0 * np.arange(int(seconds * sr)) / sr)
               + 0.05 * rng.standard_normal(int(seconds * sr)))
    wav = tmp_path / "long.wav"
    ms.write_wav(wav, np.clip(samples, -1.0, 1.0), sr)

    graph = toy_cnn()
    manifest = tmp_path / "toy.txt"
    weights = tmp_path / "toy.bin"
    ms.save_model(graph, manifest, weights)

    out = tmp_path / "bench.json"
    code = cli_main(["bench", str(wav), "--model", str(manifest),
                     "--weights", str(weights), "--trials", "3",
                     "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["audio_seconds"] == pytest.approx(seconds)
    assert payload["n_patches"] == 69
    assert set(payload["phases"]) == {"model_load", "feature_extraction",
                                      "inference", "end_to_end"}
    for phase in payload["phases"].values():
        assert set(phase) == {"mean_s", "min_s", "max_s"}
    rtf = payload["real_time_factor"]
    assert rtf < 0.25
    _report(capsys, 10, f"bench on a generated 207s track (musicnn-96 toy CNN): "
                f"real-time factor {rtf:.4f} (limit 0.25); report separates "
                f"load, feature-extraction and inference phases")
