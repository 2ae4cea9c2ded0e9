"""Head training on frozen embeddings: optimizer, protocol, export."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import melstream as ms
from melstream import transfer
from melstream.errors import (DegenerateDataset, DimMismatch, InputShapeMismatch,
                              NonFiniteGradient, NonFiniteLoss)
from melstream.evaluation import DatasetEntry
from melstream.transfer import (head_loss_and_grads, head_probs, init_head,
                                train_head)

import oracles
from util import write_tone_wav

CFG = ms.MelConfig(frame_size=64, hop_size=32, n_mels=6, f_max=4000.0)


def toy_table(n_tracks=20, dim=8, n_patches=3, n_classes=2, seed=0,
              separation=4.0, random_labels=False):
    """Synthetic separable embeddings: class k clusters around separation*e_k.

    With ``random_labels`` the embeddings are pure noise, so the labels
    carry no signal at all.
    """
    rng = np.random.default_rng(seed)
    rows, labels = {}, {}
    for i in range(n_tracks):
        cls = i % n_classes
        center = np.zeros(dim)
        if not random_labels:
            center[cls] = separation
        noise = rng.normal(scale=0.1, size=(n_patches, dim))
        rows[f"t{i:03d}"] = (center + noise).astype(np.float32)
        labels[f"t{i:03d}"] = f"c{cls}"
    table = ms.EmbeddingTable(rows=rows, dim=dim, source_layer="emb")
    return table, labels


def tiny_backbone(embedding="flat"):
    """conv -> relu -> flatten feature extractor with a disposable tail."""
    rng = np.random.default_rng(9)
    nodes = [ms.Node("c", "conv2d", ("in",),
                     {"weight": "k", "bias": "kb", "padding": "same"}),
             ms.Node("r", "relu", ("c",), {}),
             ms.Node("flat", "flatten", ("r",), {}),
             ms.Node("tail", "sigmoid", ("flat",), {})]
    weights = {"k": rng.normal(scale=0.4, size=(3, 3, 1, 2)).astype(np.float32),
               "kb": rng.normal(scale=0.1, size=2).astype(np.float32)}
    return ms.build_graph(input_name="in", input_shape=(4, 6, 1),
                          output_name="tail", embedding_name=embedding,
                          nodes=nodes, weights=weights, labels=(),
                          patch_frames=4, feature_config=CFG, sample_rate=8000)


class TestAdamStep:
    def test_first_step_hand_computed(self):
        # With zero state, bias correction makes step one equal
        # p - lr * g / (|g| + eps) elementwise.
        p = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, -0.1, 0.0])
        state = ms.AdamState.zeros_like([p])
        new, state2 = ms.adam_step([p], [g], state, lr=0.5)
        expect = p - 0.5 * g / (np.abs(g) + 1e-8)
        assert np.allclose(new[0], expect, rtol=0, atol=1e-12)
        assert state2.step == 1
        assert np.allclose(state2.m[0], 0.1 * g)
        assert np.allclose(state2.v[0], 0.001 * g * g)

    def test_second_step_hand_computed(self):
        p = np.array([0.0])
        g1 = np.array([1.0])
        g2 = np.array([-0.5])
        state = ms.AdamState.zeros_like([p])
        p1, state = ms.adam_step([p], [g1], state, lr=0.1)
        p2, state = ms.adam_step(p1, [g2], state, lr=0.1)
        m = 0.9 * (0.1 * 1.0) + 0.1 * (-0.5)
        v = 0.999 * (0.001 * 1.0) + 0.001 * 0.25
        mhat = m / (1 - 0.9 ** 2)
        vhat = v / (1 - 0.999 ** 2)
        expect = p1[0] - 0.1 * mhat / (math.sqrt(vhat) + 1e-8)
        assert np.allclose(p2[0], expect, rtol=0, atol=1e-15)
        assert state.step == 2

    def test_functional_purity(self):
        p = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        state = ms.AdamState.zeros_like([p])
        p_copy, m_copy = p.copy(), state.m[0].copy()
        ms.adam_step([p], [g], state, lr=0.1)
        assert np.array_equal(p, p_copy)
        assert np.array_equal(state.m[0], m_copy)
        assert state.step == 0

    def test_non_finite_gradient(self):
        p = np.array([1.0])
        state = ms.AdamState.zeros_like([p])
        with pytest.raises(NonFiniteGradient):
            ms.adam_step([p], [np.array([np.nan])], state, lr=0.1)

    def test_length_mismatch(self):
        p = np.array([1.0])
        state = ms.AdamState.zeros_like([p])
        with pytest.raises(ValueError):
            ms.adam_step([p], [p, p], state, lr=0.1)


class TestHeadMath:
    def test_init_deterministic_and_bounded(self):
        spec = ms.HeadSpec("B", n_classes=3, hidden=7)
        a = init_head(spec, 5, np.random.default_rng(1))
        b = init_head(spec, 5, np.random.default_rng(1))
        assert len(a) == 2
        assert a[0][0].shape == (5, 7) and a[0][1].shape == (7,)
        assert a[1][0].shape == (7, 3) and a[1][1].shape == (3,)
        for (wa, ba), (wb, bb) in zip(a, b):
            assert np.array_equal(wa, wb)
            assert np.all(ba == 0) and np.all(bb == 0)
        limit = math.sqrt(6.0 / (5 + 7))
        assert np.all(np.abs(a[0][0]) <= limit)

    def test_variant_a_single_layer(self):
        layers = init_head(ms.HeadSpec("A", 4), 6, np.random.default_rng(0))
        assert len(layers) == 1
        assert layers[0][0].shape == (6, 4)

    def test_probs_rows_sum_to_one(self):
        layers = init_head(ms.HeadSpec("B", 3), 6, np.random.default_rng(2))
        x = np.random.default_rng(3).normal(size=(5, 6))
        probs = head_probs(layers, x)
        assert probs.shape == (5, 3)
        assert np.allclose(probs.sum(axis=1), 1.0)

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_gradients_match_central_differences(self, variant):
        rng = np.random.default_rng(17)
        spec = ms.HeadSpec(variant, n_classes=3, hidden=5)
        layers = init_head(spec, 4, rng)
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 3, size=6)
        loss, grads = head_loss_and_grads(layers, x, y)

        def loss_fn(flat):
            pairs = [(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]
            return head_loss_and_grads(pairs, x, y)[0]

        flat = [a for pair in layers for a in pair]
        numeric = oracles.central_diff_grads(loss_fn, flat)
        for a, n in zip(grads, numeric):
            rel = np.abs(a - n) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
            assert rel.max() < 1e-6

    def test_loss_is_mean_cross_entropy(self):
        layers = [(np.zeros((2, 2)), np.array([math.log(3.0), 0.0]))]
        x = np.zeros((2, 2))
        y = np.array([0, 1])
        loss, _ = head_loss_and_grads(layers, x, y)
        # probs are (0.75, 0.25) per row
        expect = -(math.log(0.75) + math.log(0.25)) / 2.0
        assert abs(loss - expect) < 1e-12


class TestHeadSpecValidation:
    def test_bad_variant(self):
        with pytest.raises(ValueError):
            ms.HeadSpec("C", 2)

    def test_too_few_classes(self):
        with pytest.raises(ValueError):
            ms.HeadSpec("A", 1)

    def test_bad_hidden(self):
        with pytest.raises(ValueError):
            ms.HeadSpec("B", 2, hidden=0)

    @pytest.mark.parametrize("kw", [{"val_fraction": 0.0}, {"val_fraction": 1.0},
                                    {"lr_factor": 1.0}, {"initial_lr": 0.0},
                                    {"max_epochs": -1}, {"batch_size": 0}])
    def test_train_spec_rejects(self, kw):
        with pytest.raises(ValueError):
            ms.TrainSpec(**kw)


class TestTrainHead:
    def test_split_is_stratified_and_disjoint(self):
        table, labels = toy_table(n_tracks=20, n_classes=2)
        spec = ms.HeadSpec("A", 2)
        out = train_head(table, labels, spec, ms.TrainSpec(max_epochs=0))
        assert set(out.train_tracks) | set(out.val_tracks) == set(labels)
        assert not set(out.train_tracks) & set(out.val_tracks)
        # 10 tracks per class, 20% -> 2 validation tracks per class
        for cls in ("c0", "c1"):
            n_val = sum(1 for t in out.val_tracks if labels[t] == cls)
            assert n_val == 2

    def test_val_count_clamped(self):
        # Two tracks in a class: validation takes exactly one, never all.
        table, labels = toy_table(n_tracks=4, n_classes=2)
        out = train_head(table, labels, ms.HeadSpec("A", 2),
                         ms.TrainSpec(max_epochs=0, val_fraction=0.9))
        for cls in ("c0", "c1"):
            assert sum(1 for t in out.val_tracks if labels[t] == cls) == 1
            assert sum(1 for t in out.train_tracks if labels[t] == cls) == 1

    def test_max_epochs_zero_returns_init(self):
        table, labels = toy_table()
        tspec = ms.TrainSpec(max_epochs=0, seed=5)
        for spec in (ms.HeadSpec("A", 2), ms.HeadSpec("B", 2, hidden=3)):
            out = train_head(table, labels, spec, tspec)
            assert out.training_log == []
            assert out.best_epoch == 0
            # Replay the draws train_head makes before its first epoch.
            rng = np.random.default_rng(tspec.seed)
            train_ids, val_ids = transfer._stratified_split(
                labels, out.classes, tspec.val_fraction, rng)
            assert (out.train_tracks, out.val_tracks) == (tuple(train_ids), tuple(val_ids))
            expect = init_head(spec, table.dim, rng)
            assert len(out.layers) == len(expect)
            for (w, b), (ew, eb) in zip(out.layers, expect):
                assert np.array_equal(w, ew) and np.array_equal(b, eb)

    def test_deterministic(self):
        table, labels = toy_table()
        spec = ms.HeadSpec("B", 2, hidden=6)
        tspec = ms.TrainSpec(max_epochs=5)
        a = train_head(table, labels, spec, tspec)
        b = train_head(table, labels, spec, tspec)
        assert a.training_log == b.training_log
        assert a.train_tracks == b.train_tracks
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    def test_seed_changes_split(self):
        table, labels = toy_table()
        a = train_head(table, labels, ms.HeadSpec("A", 2), ms.TrainSpec(max_epochs=0, seed=1))
        b = train_head(table, labels, ms.HeadSpec("A", 2), ms.TrainSpec(max_epochs=0, seed=2))
        assert a.val_tracks != b.val_tracks

    def test_best_epoch_is_argmin_val(self):
        table, labels = toy_table(n_tracks=16)
        out = train_head(table, labels, ms.HeadSpec("A", 2), ms.TrainSpec(max_epochs=8))
        losses = [e["val_loss"] for e in out.training_log]
        best = min(range(len(losses)), key=lambda i: losses[i]) + 1
        assert out.best_epoch == best

    def test_log_schema_and_epoch_numbering(self):
        table, labels = toy_table()
        out = train_head(table, labels, ms.HeadSpec("A", 2), ms.TrainSpec(max_epochs=4))
        assert [e["epoch"] for e in out.training_log] == [1, 2, 3, 4]
        for e in out.training_log:
            assert set(e) == {"epoch", "train_loss", "val_loss", "lr"}
            assert math.isfinite(e["train_loss"]) and math.isfinite(e["val_loss"])

    def test_lr_schedule_matches_reference(self):
        # Random labels stall validation loss, forcing rate halvings.
        table, labels = toy_table(n_tracks=24, random_labels=True, seed=5)
        tspec = ms.TrainSpec(max_epochs=30, lr_patience_epochs=1)
        out = train_head(table, labels, ms.HeadSpec("A", 2), tspec)
        rates = [e["lr"] for e in out.training_log]
        expect = oracles.ref_lr_schedule([e["val_loss"] for e in out.training_log],
                                         tspec.initial_lr, 1, tspec.lr_factor)
        assert rates == expect
        assert len(set(rates)) >= 2

    def test_separable_data_reaches_low_val_loss(self):
        table, labels = toy_table(n_tracks=30, separation=6.0)
        out = train_head(table, labels, ms.HeadSpec("A", 2),
                         ms.TrainSpec(max_epochs=150, initial_lr=0.01))
        assert min(e["val_loss"] for e in out.training_log) < 0.1
        preds = ms.classify_tracks(out, table, out.val_tracks)
        assert all(preds[t] == labels[t] for t in out.val_tracks)

    def test_best_weights_snapshot_not_final(self):
        # The returned layers reproduce the best epoch's validation loss,
        # not the last epoch's.
        table, labels = toy_table(n_tracks=24, random_labels=True, seed=8)
        out = train_head(table, labels, ms.HeadSpec("A", 2), ms.TrainSpec(max_epochs=20))
        class_index = {c: i for i, c in enumerate(out.classes)}
        per_track = []
        for track in out.val_tracks:
            probs = head_probs(out.layers, table.rows[track])
            y = class_index[labels[track]]
            per_track.append(float(-np.log(np.maximum(probs[:, y], 1e-300)).mean()))
        best = min(e["val_loss"] for e in out.training_log)
        assert abs(float(np.mean(per_track)) - best) < 1e-12

    def test_missing_table_row(self):
        table, labels = toy_table()
        del table.rows["t003"]
        with pytest.raises(DegenerateDataset):
            train_head(table, labels, ms.HeadSpec("A", 2), ms.TrainSpec(max_epochs=1))

    def test_empty_table_row(self):
        # A labelled track with no patches cannot be sampled from.
        table, labels = toy_table()
        table.rows["t003"] = table.rows["t003"][:0]
        with pytest.raises(DegenerateDataset):
            train_head(table, labels, ms.HeadSpec("A", 2), ms.TrainSpec(max_epochs=1))

    def test_single_class(self):
        table, labels = toy_table()
        labels = {t: "same" for t in labels}
        with pytest.raises(DegenerateDataset):
            train_head(table, labels, ms.HeadSpec("A", 2), ms.TrainSpec(max_epochs=1))

    def test_class_count_mismatch(self):
        table, labels = toy_table(n_classes=3, n_tracks=21)
        with pytest.raises(DegenerateDataset):
            train_head(table, labels, ms.HeadSpec("A", 2), ms.TrainSpec(max_epochs=1))

    def test_thin_class(self):
        table, labels = toy_table()
        labels["t000"] = "rare"
        table.rows["t000"] = table.rows["t000"]
        spec = ms.HeadSpec("A", 3)
        with pytest.raises(DegenerateDataset):
            train_head(table, labels, spec, ms.TrainSpec(max_epochs=1))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_embeddings_raise(self):
        table, labels = toy_table()
        table.rows["t001"] = np.full_like(table.rows["t001"], np.inf)
        with pytest.raises((NonFiniteLoss, NonFiniteGradient)):
            train_head(table, labels, ms.HeadSpec("A", 2), ms.TrainSpec(max_epochs=150))

    def test_stacked_val_loss_matches_per_track_loop(self):
        rng = np.random.default_rng(12)
        dim, n_classes = 200, 8
        # Small tables, so one track's last bit still shows in the mean over tracks.
        for fewest, n_tracks in itertools.product((2, 1), [1, 2, 3, 80] * 8):
            rows = {f"t{i:02d}": rng.normal(size=(int(rng.integers(fewest, 13)), dim))
                    .astype(np.float32) for i in range(n_tracks)}
            table = ms.EmbeddingTable(rows=rows, dim=dim, source_layer="emb")
            ids = sorted(rows)
            y = rng.integers(n_classes, size=len(ids))
            for variant in ("A", "B"):
                layers = [(w, rng.normal(size=b.shape))
                          for w, b in init_head(ms.HeadSpec(variant, n_classes), dim, rng)]
                got = transfer._val_loss(layers, *transfer._stack_tracks(table, ids), y)
                ref = oracles.ref_val_loss(layers, variant, [rows[t] for t in ids], y)
                # Variant A with 2+ patches per track runs the same products as the loop.
                # A 1-patch track's product took numpy's vector-matrix path there, and
                # B's 100-wide hidden layer is blocked differently over more rows.
                if variant == "A" and fewest == 2:
                    assert got == ref
                else:
                    assert abs(got - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("seed", [9, 10, 11])
    def test_batches_match_per_row_draws(self, monkeypatch, seed):
        table, labels = toy_table(n_tracks=70, n_classes=3, n_patches=5, seed=seed)
        for i, track in enumerate(sorted(table.rows)):
            table.rows[track] = table.rows[track][:1 + i % 5]
        seen = []
        real = transfer.head_loss_and_grads
        monkeypatch.setattr(transfer, "head_loss_and_grads", lambda layers, x, y: (
            seen.append((x, y)) or real(layers, x, y)))
        spec, tspec = ms.HeadSpec("A", 3), ms.TrainSpec(max_epochs=3, batch_size=16, seed=seed)
        out = train_head(table, labels, spec, tspec)
        # Replay the draws train_head makes before its first epoch.
        rng = np.random.default_rng(seed)
        transfer._stratified_split(labels, out.classes, tspec.val_fraction, rng)
        init_head(spec, table.dim, rng)
        class_index = {c: i for i, c in enumerate(out.classes)}
        expect = list(oracles.ref_head_batches(
            [table.rows[t] for t in out.train_tracks],
            [class_index[labels[t]] for t in out.train_tracks],
            tspec.batch_size, tspec.max_epochs, rng))
        assert len(seen) == len(expect) == 3 * 4
        for (x, y), (ex, ey) in zip(seen, expect):
            assert np.array_equal(x, ex) and np.array_equal(y, ey)


class TestClassifyTracks:
    def test_mean_over_patches_rule(self):
        # Patch argmaxes disagree; the mean decides.
        layers = [(np.eye(2), np.zeros(2))]
        weights = ms.HeadWeights(layers=layers, classes=("a", "b"), variant="A",
                                 input_dim=2, training_log=[], best_epoch=0,
                                 train_tracks=(), val_tracks=())
        rows = {"t": np.array([[4.0, 0.0], [0.0, 1.0], [0.0, 1.0]], dtype=np.float32)}
        table = ms.EmbeddingTable(rows=rows, dim=2, source_layer="e")
        # Patch probs: ~(0.982, 0.018), (0.269, 0.731), (0.269, 0.731).
        # Mean favors class a even though two of three patches vote b.
        assert ms.classify_tracks(weights, table, ["t"]) == {"t": "a"}


class TestExtractEmbeddings:
    def test_rows_and_skips(self, tmp_path):
        wav = tmp_path / "good.wav"
        write_tone_wav(wav, 440.0, 3.5)
        backbone = tiny_backbone()
        ds = ms.DatasetManifest(entries=[
            DatasetEntry("good", str(wav), ("x",)),
            DatasetEntry("gone", str(tmp_path / "missing.wav"), ("x",)),
        ])
        table = ms.extract_embeddings(backbone, ds)
        assert set(table.rows) == {"good"}
        assert list(table.skipped) == ["gone"]
        assert table.rows["good"].dtype == np.float32
        assert table.rows["good"].shape[1] == table.dim == 48
        assert table.source_layer == "flat"

    def test_input_that_cannot_take_its_patch_raises(self, tmp_path):
        # Every track would fail alike, so the model fails before the first one.
        wav = tmp_path / "good.wav"
        write_tone_wav(wav, 440.0, 3.5)
        backbone = dataclasses.replace(tiny_backbone(), patch_frames=3)
        ds = ms.DatasetManifest(entries=[DatasetEntry("good", str(wav), ("x",))])
        with pytest.raises(InputShapeMismatch, match="cannot feed graph input"):
            ms.extract_embeddings(backbone, ds)


class TestExportHead:
    def _train_tiny(self, variant, backbone, n_classes=2, seed=0):
        rng = np.random.default_rng(seed)
        dim = 1
        for d in backbone.node_shapes[backbone.embedding_name]:
            dim *= d
        rows = {f"t{i}": rng.normal(size=(2, dim)).astype(np.float32) for i in range(8)}
        labels = {f"t{i}": f"c{i % n_classes}" for i in range(8)}
        table = ms.EmbeddingTable(rows=rows, dim=dim, source_layer=backbone.embedding_name)
        spec = ms.HeadSpec(variant, n_classes, hidden=5)
        return table, train_head(table, labels, spec, ms.TrainSpec(max_epochs=3))

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_composite_matches_head_probs(self, variant):
        backbone = tiny_backbone()
        table, weights = self._train_tiny(variant, backbone)
        composite = ms.export_head(weights, backbone)

        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, backbone.input_shape).astype(np.float32)
        emb = ms.forward(backbone, x, until=backbone.embedding_name).reshape(-1)
        # The composite runs the f32-cast head; compare against the f64
        # head applied to the same embedding.
        expect = head_probs(weights.layers, emb.astype(np.float64))[0]
        got = ms.forward(composite, x)
        assert got.dtype == np.float32
        assert np.max(np.abs(got - expect)) < 1e-5
        assert composite.labels == weights.classes

    def test_tail_trimmed_and_unused_weights_dropped(self):
        backbone = tiny_backbone()
        _, weights = self._train_tiny("A", backbone)
        composite = ms.export_head(weights, backbone)
        names = [n.name for n in composite.nodes]
        assert "tail" not in names
        assert names[:3] == ["c", "r", "flat"]
        assert composite.embedding_name == "flat"
        assert composite.output_name == "head_softmax"

    def test_rank3_embedding_gets_flatten(self):
        backbone = tiny_backbone(embedding="r")
        _, weights = self._train_tiny("A", backbone)
        composite = ms.export_head(weights, backbone)
        names = [n.name for n in composite.nodes]
        assert "head_flatten" in names
        assert "flat" not in names

    def test_variant_b_chain(self):
        backbone = tiny_backbone()
        _, weights = self._train_tiny("B", backbone)
        names = [n.name for n in ms.export_head(weights, backbone).nodes]
        i = names.index("head_hidden")
        assert names[i:] == ["head_hidden", "head_relu", "head_out", "head_softmax"]

    def test_dim_mismatch(self):
        backbone = tiny_backbone()
        weights = ms.HeadWeights(layers=[(np.zeros((7, 2)), np.zeros(2))],
                                 classes=("a", "b"), variant="A", input_dim=7,
                                 training_log=[], best_epoch=0,
                                 train_tracks=(), val_tracks=())
        with pytest.raises(DimMismatch):
            ms.export_head(weights, backbone)

    def test_name_collisions_resolved(self):
        rng = np.random.default_rng(2)
        nodes = [ms.Node("flat", "flatten", ("in",), {}),
                 ms.Node("head_dense", "dense", ("flat",),
                         {"weight": "head_dense_w", "bias": None}),
                 ms.Node("head_softmax", "sigmoid", ("head_dense",), {})]
        weights = {"head_dense_w": rng.normal(size=(12, 4)).astype(np.float32)}
        backbone = ms.build_graph(input_name="in", input_shape=(4, 3, 1),
                                  output_name="head_softmax",
                                  embedding_name="head_softmax", nodes=nodes,
                                  weights=weights, labels=(), patch_frames=4,
                                  feature_config=CFG, sample_rate=8000)
        head = ms.HeadWeights(layers=[(np.zeros((4, 2)), np.zeros(2))],
                              classes=("a", "b"), variant="A", input_dim=4,
                              training_log=[], best_epoch=0,
                              train_tracks=(), val_tracks=())
        composite = ms.export_head(head, backbone)
        names = [n.name for n in composite.nodes]
        assert "head_dense_1" in names and "head_softmax_1" in names
        assert composite.output_name == "head_softmax_1"
        assert "head_dense_w_1" in composite.weights

    def test_weight_read_as_node_input_kept(self):
        # The embedding concatenates a weight read as an input, not as a param.
        rng = np.random.default_rng(3)
        nodes = [ms.Node("flat", "flatten", ("in",), {}),
                 ms.Node("emb", "concat", ("flat", "extra"), {"axis": 0}),
                 ms.Node("tail", "dense", ("emb",), {"weight": "tail_w"})]
        weights = {"extra": rng.normal(size=3).astype(np.float32),
                   "tail_w": rng.normal(size=(15, 2)).astype(np.float32)}
        backbone = ms.build_graph(input_name="in", input_shape=(4, 3, 1),
                                  output_name="tail", embedding_name="emb", nodes=nodes,
                                  weights=weights, labels=(), patch_frames=4,
                                  feature_config=CFG, sample_rate=8000)
        head = ms.HeadWeights(layers=[(np.zeros((15, 2)), np.zeros(2))],
                              classes=("a", "b"), variant="A", input_dim=15,
                              training_log=[], best_epoch=0,
                              train_tracks=(), val_tracks=())
        composite = ms.export_head(head, backbone)
        assert list(composite.weights)[:1] == ["extra"]
        assert "tail_w" not in composite.weights
        x = rng.uniform(-1, 1, (4, 3, 1)).astype(np.float32)
        assert np.array_equal(ms.forward(composite, x, "emb"), ms.forward(backbone, x, "emb"))

    def test_round_trips_through_container(self, tmp_path):
        backbone = tiny_backbone()
        _, weights = self._train_tiny("B", backbone)
        composite = ms.export_head(weights, backbone)
        ms.save_model(composite, tmp_path / "m.txt", tmp_path / "m.bin")
        back = ms.load_model(tmp_path / "m.txt", tmp_path / "m.bin")
        x = np.random.default_rng(6).uniform(-1, 1, composite.input_shape).astype(np.float32)
        assert np.array_equal(ms.forward(composite, x), ms.forward(back, x))
