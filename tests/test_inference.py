import dataclasses
import warnings

import numpy as np
import pytest

import melstream as ms
import melstream.inference.graph as graph_module
from melstream.errors import (CyclicGraph, InputShapeMismatch, ManifestError,
                              MissingWeight, NonFiniteActivation, ShapeMismatch,
                              TrackTooShort, UnknownNode, UnsupportedOp)
from melstream.inference.ops import OPS, op_def
from melstream.inference.prediction import patch_to_input, tile_patches

import oracles
from util import linear_classifier, toy_cnn, valid_cnn

CFG = ms.MelConfig(frame_size=64, hop_size=32, n_mels=6, f_max=4000.0)


def build(nodes, weights, input_shape, output, embedding=None, labels=(),
          patch_frames=4):
    return ms.build_graph(input_name="in", input_shape=input_shape,
                          output_name=output,
                          embedding_name=embedding or output, nodes=nodes,
                          weights=weights, labels=labels,
                          patch_frames=patch_frames, feature_config=CFG,
                          sample_rate=8000)


def single_op(op, params, input_shape, weights=None):
    g = build([ms.Node("n", op, ("in",), params)], weights or {}, input_shape, "n")
    return g


class TestConv2d:
    @pytest.mark.parametrize("padding", ["valid", "same"])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1), (3, 2)])
    def test_matches_loop_oracle(self, padding, stride):
        rng = np.random.default_rng(hash((padding, stride)) % 2 ** 31)
        x = rng.uniform(-1, 1, (9, 7, 3)).astype(np.float32)
        k = rng.uniform(-1, 1, (3, 2, 3, 4)).astype(np.float32)
        b = rng.uniform(-1, 1, 4).astype(np.float32)
        g = single_op("conv2d", {"weight": "k", "bias": "b", "stride": stride,
                                 "padding": padding}, (9, 7, 3),
                      {"k": k, "b": b})
        got = ms.forward(g, x)
        ref = oracles.ref_conv2d(x.astype(np.float64), k.astype(np.float64),
                                 b.astype(np.float64), stride, padding)
        assert got.shape == ref.shape == g.node_shapes["n"]
        assert np.max(np.abs(got - ref)) < 1e-5

    def test_same_padding_output_shape(self):
        # ceil(in / stride) in both spatial dims
        g = single_op("conv2d", {"weight": "k", "stride": (2, 2), "padding": "same"},
                      (11, 8, 1), {"k": np.zeros((3, 3, 1, 2), dtype=np.float32)})
        assert g.node_shapes["n"] == (6, 4, 2)

    def test_valid_output_shape(self):
        g = single_op("conv2d", {"weight": "k"}, (10, 10, 2),
                      {"k": np.zeros((3, 4, 2, 5), dtype=np.float32)})
        assert g.node_shapes["n"] == (8, 7, 5)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeMismatch):
            single_op("conv2d", {"weight": "k"}, (10, 10, 2),
                      {"k": np.zeros((3, 3, 3, 5), dtype=np.float32)})

    def test_kernel_larger_than_input_valid(self):
        with pytest.raises(ShapeMismatch):
            single_op("conv2d", {"weight": "k"}, (2, 2, 1),
                      {"k": np.zeros((3, 3, 1, 1), dtype=np.float32)})


class TestDense:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-1, 1, 13).astype(np.float32)
        w = rng.uniform(-1, 1, (13, 5)).astype(np.float32)
        b = rng.uniform(-1, 1, 5).astype(np.float32)
        g = single_op("dense", {"weight": "w", "bias": "b"}, (13,),
                      {"w": w, "b": b})
        ref = oracles.ref_dense(x.astype(np.float64), w.astype(np.float64),
                                b.astype(np.float64))
        assert np.max(np.abs(ms.forward(g, x) - ref)) < 1e-5

    def test_bias_optional(self):
        w = np.eye(3, dtype=np.float32)
        g = single_op("dense", {"weight": "w"}, (3,), {"w": w})
        x = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        assert np.array_equal(ms.forward(g, x), x)

    def test_input_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            single_op("dense", {"weight": "w"}, (4,),
                      {"w": np.zeros((3, 2), dtype=np.float32)})


class TestBatchNorm:
    def test_matches_formula(self):
        rng = np.random.default_rng(22)
        x = rng.uniform(-2, 2, (5, 4, 3)).astype(np.float32)
        gamma = rng.uniform(0.5, 1.5, 3).astype(np.float32)
        beta = rng.uniform(-1, 1, 3).astype(np.float32)
        mean = rng.uniform(-1, 1, 3).astype(np.float32)
        var = rng.uniform(0.5, 2.0, 3).astype(np.float32)
        g = single_op("batch_norm",
                      {"gamma": "g", "beta": "b", "mean": "m", "variance": "v",
                       "epsilon": 1e-3},
                      (5, 4, 3), {"g": gamma, "b": beta, "m": mean, "v": var})
        ref = oracles.ref_batch_norm(x.astype(np.float64), gamma, beta, mean,
                                     var, 1e-3)
        assert np.max(np.abs(ms.forward(g, x) - ref)) < 1e-5

    def test_identity_with_zero_epsilon(self):
        c = 4
        ones = np.ones(c, dtype=np.float32)
        zeros = np.zeros(c, dtype=np.float32)
        g = single_op("batch_norm",
                      {"gamma": "g", "beta": "b", "mean": "m", "variance": "v",
                       "epsilon": 0.0},
                      (3, 3, c), {"g": ones, "b": zeros, "m": zeros, "v": ones})
        x = np.random.default_rng(0).uniform(-1, 1, (3, 3, c)).astype(np.float32)
        assert np.array_equal(ms.forward(g, x), x)

    def test_param_length_must_match_channels(self):
        ones = np.ones(3, dtype=np.float32)
        with pytest.raises(ShapeMismatch):
            single_op("batch_norm",
                      {"gamma": "g", "beta": "b", "mean": "m", "variance": "v"},
                      (2, 2, 4), {"g": ones, "b": ones, "m": ones, "v": ones})


class TestPooling:
    @pytest.mark.parametrize("op,mode", [("max_pool2d", "max"), ("mean_pool2d", "avg")])
    def test_matches_loop_oracle(self, op, mode):
        rng = np.random.default_rng(23)
        x = rng.uniform(-1, 1, (7, 6, 2)).astype(np.float32)
        g = single_op(op, {"pool": (2, 3), "stride": (2, 1)}, (7, 6, 2))
        ref = oracles.ref_pool(x.astype(np.float64), (2, 3), (2, 1), mode)
        assert ms.forward(g, x).shape == ref.shape
        assert np.max(np.abs(ms.forward(g, x) - ref)) < 1e-6

    def test_stride_defaults_to_pool(self):
        g = single_op("max_pool2d", {"pool": (2, 2)}, (6, 6, 1))
        assert g.node_shapes["n"] == (3, 3, 1)

    def test_valid_only_truncates(self):
        # 7 rows with pool 2 stride 2 -> 3 windows; the 7th row is unused
        g = single_op("mean_pool2d", {"pool": (2, 2)}, (7, 7, 1))
        assert g.node_shapes["n"] == (3, 3, 1)

    def test_pool_larger_than_input(self):
        with pytest.raises(ShapeMismatch):
            single_op("max_pool2d", {"pool": (8, 2)}, (6, 6, 1))


class TestActivations:
    def test_relu_elu_sigmoid_softmax(self):
        rng = np.random.default_rng(24)
        x = rng.uniform(-4, 4, 17).astype(np.float32)
        for op, ref in (("relu", oracles.ref_relu), ("elu", oracles.ref_elu),
                        ("sigmoid", oracles.ref_sigmoid),
                        ("softmax", oracles.ref_softmax)):
            g = single_op(op, {}, (17,))
            assert np.max(np.abs(ms.forward(g, x) - ref(x.astype(np.float64)))) < 1e-6

    def test_softmax_sums_to_one(self):
        g = single_op("softmax", {}, (9,))
        x = np.array([0, 1, 2, 3, 4, 100, -100, 50, 7], dtype=np.float32)
        out = ms.forward(g, x)
        assert out.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(out >= 0)

    def test_sigmoid_extreme_inputs(self):
        g = single_op("sigmoid", {}, (2,))
        out = ms.forward(g, np.array([500.0, -500.0], dtype=np.float32))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0)

    def test_elu_alpha(self):
        g = single_op("elu", {"alpha": 2.0}, (1,))
        out = ms.forward(g, np.array([-1.0], dtype=np.float32))
        assert out[0] == pytest.approx(2.0 * (np.exp(-1.0) - 1.0), rel=1e-6)

    def test_elu_large_inputs_do_not_overflow(self):
        x = np.concatenate([np.linspace(-60, 1e4, 4001), [-0.0, 0.0, 88.0, 88.7, 89.0]])
        x = x.astype(np.float32)
        g = single_op("elu", {"alpha": 0.7}, x.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ms.forward(g, x)
        assert np.array_equal(out[x > 0], x[x > 0])
        # Bit for bit (-0.0 included) what expm1 on every value gave where it did not overflow.
        low = x[x <= 88]
        old = np.where(low > 0, low, np.float32(0.7) * np.expm1(low)).astype(np.float32)
        assert np.array_equal(out[x <= 88].view(np.uint32), old.view(np.uint32))

    def test_dropout_is_identity(self):
        g = single_op("dropout", {}, (5,))
        x = np.arange(5, dtype=np.float32)
        assert np.array_equal(ms.forward(g, x), x)


class TestConcatFlatten:
    def test_flatten_row_major(self):
        g = single_op("flatten", {}, (2, 3, 2))
        x = np.arange(12, dtype=np.float32).reshape(2, 3, 2)
        assert np.array_equal(ms.forward(g, x), np.arange(12, dtype=np.float32))

    def test_concat(self):
        nodes = [ms.Node("a", "relu", ("in",), {}),
                 ms.Node("b", "sigmoid", ("in",), {}),
                 ms.Node("c", "concat", ("a", "b"), {"axis": 1})]
        g = build(nodes, {}, (2, 3), "c")
        assert g.node_shapes["c"] == (2, 6)
        x = np.ones((2, 3), dtype=np.float32)
        out = ms.forward(g, x)
        assert np.allclose(out[:, :3], 1.0)
        assert np.allclose(out[:, 3:], oracles.ref_sigmoid(1.0))

    def test_concat_shape_disagreement(self):
        nodes = [ms.Node("a", "max_pool2d", ("in",), {"pool": (2, 2)}),
                 ms.Node("c", "concat", ("a", "in"), {"axis": 2})]
        with pytest.raises(ShapeMismatch):
            build(nodes, {}, (4, 4, 1), "c")


class TestGraphValidation:
    def test_forward_reference_is_cyclic(self):
        nodes = [ms.Node("a", "relu", ("b",), {}),
                 ms.Node("b", "relu", ("in",), {})]
        with pytest.raises(CyclicGraph):
            build(nodes, {}, (4,), "b")

    def test_self_reference_is_cyclic(self):
        nodes = [ms.Node("a", "relu", ("a",), {})]
        with pytest.raises(CyclicGraph):
            build(nodes, {}, (4,), "a")

    def test_undefined_input(self):
        nodes = [ms.Node("a", "relu", ("ghost",), {})]
        with pytest.raises(ManifestError):
            build(nodes, {}, (4,), "a")

    def test_unknown_op(self):
        nodes = [ms.Node("a", "attention", ("in",), {})]
        with pytest.raises(UnsupportedOp):
            build(nodes, {}, (4,), "a")

    def test_missing_weight(self):
        nodes = [ms.Node("a", "dense", ("in",), {"weight": "w"})]
        with pytest.raises(MissingWeight):
            build(nodes, {}, (4,), "a")

    def test_duplicate_node_name(self):
        nodes = [ms.Node("a", "relu", ("in",), {}),
                 ms.Node("a", "sigmoid", ("in",), {})]
        with pytest.raises(ManifestError):
            build(nodes, {}, (4,), "a")

    def test_weight_named_like_input(self):
        nodes = [ms.Node("a", "relu", ("in",), {})]
        with pytest.raises(ManifestError, match="collides"):
            build(nodes, {"in": np.ones(4, dtype=np.float32)}, (4,), "a")

    def test_output_must_exist(self):
        nodes = [ms.Node("a", "relu", ("in",), {})]
        with pytest.raises(ManifestError):
            build(nodes, {}, (4,), "zzz")

    def test_labels_must_match_output_dim(self):
        nodes = [ms.Node("a", "relu", ("in",), {})]
        with pytest.raises(ShapeMismatch):
            build(nodes, {}, (4,), "a", labels=("x", "y", "z"))

    @pytest.mark.parametrize("params", [
        {"padding": "SAME"}, {"stride": (1,)}, {"stride": (0, 1)}, {"stride": (1.5, 2)},
        {"stride": "2,2"},
    ], ids=["padding-upper", "stride-one-value", "stride-zero", "stride-float", "stride-text"])
    def test_param_values_checked_at_build(self, params):
        w = {"k": np.ones((1, 1, 1, 1), dtype=np.float32)}
        with pytest.raises(ManifestError):
            single_op("conv2d", {"weight": "k", **params}, (4, 4, 1), w)

    def test_explicit_none_weight_is_missing(self):
        with pytest.raises(ManifestError, match="requires 'weight'"):
            single_op("dense", {"weight": None}, (4,))

    def test_list_pair_stored_as_tuple(self):
        g = single_op("max_pool2d", {"pool": [2, 2], "stride": [1, 2]}, (4, 4, 1))
        assert g.nodes[0].params["pool"] == (2, 2)
        assert g.nodes[0].params["stride"] == (1, 2)

    def test_f_max_above_nyquist(self):
        nodes = [ms.Node("a", "relu", ("in",), {})]
        with pytest.raises(ManifestError, match="Nyquist"):
            ms.build_graph(input_name="in", input_shape=(4,), output_name="a",
                           embedding_name="a", nodes=nodes, weights={}, labels=(),
                           patch_frames=4, feature_config=CFG, sample_rate=7999)

    def test_rate_above_the_resampler(self):
        # The resampler stops at 384 kHz; a model at a higher rate could take no WAV.
        args = dict(input_name="in", input_shape=(4,), output_name="a", embedding_name="a",
                    nodes=[ms.Node("a", "relu", ("in",), {})], weights={}, labels=(),
                    patch_frames=4, feature_config=CFG)
        assert ms.build_graph(**args, sample_rate=384000).sample_rate == 384000
        with pytest.raises(ManifestError, match="sample_rate"):
            ms.build_graph(**args, sample_rate=384001)

    @pytest.mark.parametrize("labels", [("a;b", "c"), ("", "c"), (" a", "c"), ("a\nb", "c")],
                             ids=["semicolon", "empty", "outer-space", "line-break"])
    def test_labels_must_survive_the_manifest(self, labels):
        nodes = [ms.Node("a", "relu", ("in",), {})]
        with pytest.raises(ManifestError, match="labels"):
            build(nodes, {}, (2,), "a", labels=labels)

    def test_empty_labels_allowed(self):
        nodes = [ms.Node("a", "relu", ("in",), {})]
        g = build(nodes, {}, (4,), "a", labels=())
        assert g.labels == ()


class TestFrozenGraph:
    def test_assigning_a_field_raises(self):
        g = linear_classifier(n_labels=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.labels = ("a;b", "c", "d")
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.patch_frames = 7
        assert g.labels == ("label0", "label1", "label2") and g.patch_frames == 186


def _whole(graph, x):
    """Every node's activation, each node run once on whole tensors (no row blocks)."""
    memo = {graph.input_name: np.ascontiguousarray(x, dtype=np.float32)}
    for node in graph.nodes:
        wts = {p: None if node.params[p] is None else graph.weights[node.params[p]]
               for p, (kind, _) in op_def(node.op).params.items() if kind == "weight"}
        inputs = [memo[r] if r in memo else graph.weights[r] for r in node.inputs]
        out = op_def(node.op).apply(inputs, wts, node.params)
        memo[node.name] = np.ascontiguousarray(out, dtype=np.float32)
    return memo


class TestTimeLocalPrefix:
    def test_prefix_ends_at_the_concat(self, monkeypatch):
        monkeypatch.setattr(graph_module, "_ROW_BLOCK", 16)
        g = valid_cnn()
        names = [n.name for n in g.nodes]
        front = names.index("front")
        assert set(g._halos) == {"in", *names[:front + 1]}
        assert g._halos["e_pool"] == 0
        assert {g._halos[n] for n in ("a_pool", "b_pool", "e_elu", "front")} == {6}
        # 34 prefix rows in blocks of 16, each reading its rows plus a 6-row halo.
        assert g._blocks == ((0, 22), (16, 38), (32, 40))

    @pytest.mark.parametrize("make", [linear_classifier, toy_cnn])
    def test_models_without_a_prefix(self, make):
        g = make()
        assert g._halos == {"in": 0} and g._blocks == ()

    @pytest.mark.parametrize("op, params, weights, halo", [
        ("conv2d", {"weight": "k"}, {"k": (3, 2, 3, 4)}, 2),
        ("conv2d", {"weight": "k", "stride": (1, 2)}, {"k": (4, 2, 3, 4)}, 3),
        ("conv2d", {"weight": "k", "stride": (2, 1)}, {"k": (3, 2, 3, 4)}, None),
        ("conv2d", {"weight": "k", "padding": "same"}, {"k": (3, 2, 3, 4)}, None),
        ("max_pool2d", {"pool": (1, 3)}, {}, 0),
        ("mean_pool2d", {"pool": (1, 2), "stride": (1, 2)}, {}, 0),
        ("max_pool2d", {"pool": (2, 1)}, {}, None),
        ("mean_pool2d", {"pool": (1, 2), "stride": (2, 1)}, {}, None),
        ("batch_norm", {"gamma": "c", "beta": "c", "mean": "c", "variance": "c"},
         {"c": (3,)}, 0),
        ("relu", {}, {}, 0), ("elu", {}, {}, 0), ("sigmoid", {}, {}, 0), ("dropout", {}, {}, 0),
        ("softmax", {}, {}, None), ("flatten", {}, {}, None),
        ("concat", {"axis": 1}, {}, 0), ("concat", {"axis": -1}, {}, 0),
        ("concat", {"axis": 0}, {}, None), ("concat", {"axis": -3}, {}, None),
    ])
    def test_row_rules(self, op, params, weights, halo):
        g = single_op(op, params, (9, 7, 3),
                      {k: np.ones(s, dtype=np.float32) for k, s in weights.items()})
        assert g._halos.get("n") == halo

    def test_rank_one_input_has_no_prefix(self):
        assert single_op("relu", {}, (4,))._halos == {}

    def test_node_after_the_suffix_starts_is_suffix(self):
        nodes = [ms.Node("p", "max_pool2d", ("in",), {"pool": (2, 1)}),
                 ms.Node("r", "relu", ("p",), {}),
                 ms.Node("w", "relu", ("in",), {})]
        g = build(nodes, {}, (8, 4, 2), "r")
        assert set(g._halos) == {"in", "w"}

    @pytest.mark.parametrize("block", [1, 2, 5, 16, 64])
    def test_blocks_match_whole_node_evaluation(self, monkeypatch, block):
        # Not bit for bit: a block's GEMM may round differently from the whole patch's.
        monkeypatch.setattr(graph_module, "_ROW_BLOCK", block)
        g = valid_cnn()
        x = np.random.default_rng(31).uniform(0.5, 3.0, (40, 24, 1)).astype(np.float32)
        ref = _whole(g, x)
        for until in (None, "front", "a_relu", "e_pool", "flat"):
            np.testing.assert_allclose(ms.forward(g, x, until), ref[until or g.output_name],
                                       rtol=1e-5, atol=1e-6)
        # A seeded prefix node is cut into the same blocks as the input.
        seeded = ms.forward_from(g, {"in": x, "a_relu": ref["a_relu"], "e_pool": ref["e_pool"]})
        np.testing.assert_allclose(seeded, ref["probs"], rtol=1e-5, atol=1e-6)

    def test_non_finite_prefix_activation_caught(self):
        g = valid_cnn()
        x = np.ones((40, 24, 1), dtype=np.float32)
        x[37, 3, 0] = np.inf
        with pytest.raises(NonFiniteActivation, match="a_conv"):
            ms.forward(g, x)


class TestForward:
    def test_input_shape_checked(self):
        g = single_op("relu", {}, (4,))
        with pytest.raises(InputShapeMismatch):
            ms.forward(g, np.zeros(5, dtype=np.float32))

    def test_output_is_float32(self):
        g = single_op("relu", {}, (4,))
        assert ms.forward(g, np.zeros(4)).dtype == np.float32

    def test_non_finite_weights_caught(self):
        w = np.full((3, 2), np.inf, dtype=np.float32)
        g = single_op("dense", {"weight": "w"}, (3,), {"w": w})
        with pytest.raises(NonFiniteActivation):
            ms.forward(g, np.ones(3, dtype=np.float32))

    def test_until_stops_early(self):
        nodes = [ms.Node("a", "relu", ("in",), {}),
                 ms.Node("b", "softmax", ("a",), {})]
        g = build(nodes, {}, (4,), "b")
        x = np.array([-1.0, 2.0, -3.0, 4.0], dtype=np.float32)
        assert np.array_equal(ms.forward(g, x, "a"), [0.0, 2.0, 0.0, 4.0])

    def test_until_unknown(self):
        g = single_op("relu", {}, (4,))
        with pytest.raises(UnknownNode):
            ms.forward(g, np.zeros(4, dtype=np.float32), "nope")

    def test_compositionality_via_seeds(self):
        # running the tail from an interior activation equals the full pass
        nodes = [ms.Node("a", "relu", ("in",), {}),
                 ms.Node("b", "dense", ("a",), {"weight": "w"}),
                 ms.Node("c", "softmax", ("b",), {})]
        w = np.random.default_rng(3).normal(size=(4, 3)).astype(np.float32)
        g = build(nodes, {"w": w}, (4,), "c", embedding="b")
        x = np.random.default_rng(4).uniform(-1, 1, 4).astype(np.float32)
        mid = ms.forward(g, x, "a")
        full = ms.forward(g, x)
        resumed = ms.forward_from(g, {"a": mid})
        assert np.array_equal(full, resumed)

    def test_forward_from_checks_seed_shape(self):
        nodes = [ms.Node("a", "relu", ("in",), {}),
                 ms.Node("b", "softmax", ("a",), {})]
        g = build(nodes, {}, (4,), "b")
        with pytest.raises(InputShapeMismatch):
            ms.forward_from(g, {"a": np.zeros(3, dtype=np.float32)})

    def test_forward_from_needs_reachable_inputs(self):
        nodes = [ms.Node("a", "relu", ("in",), {}),
                 ms.Node("b", "softmax", ("a",), {})]
        g = build(nodes, {}, (4,), "b")
        with pytest.raises(InputShapeMismatch):
            ms.forward_from(g, {}, "b")

    @staticmethod
    def diamond():
        # in -> a, in -> b, c = concat(a, b)
        nodes = [ms.Node("a", "relu", ("in",), {}),
                 ms.Node("b", "sigmoid", ("in",), {}),
                 ms.Node("c", "concat", ("a", "b"), {"axis": 0})]
        return build(nodes, {}, (4,), "c")

    def test_diamond_one_seeded_branch_still_needs_input(self):
        g = self.diamond()
        with pytest.raises(InputShapeMismatch, match="not provided"):
            ms.forward_from(g, {"a": np.zeros(4, dtype=np.float32)}, "c")

    def test_diamond_both_branches_seeded_skip_input(self):
        g = self.diamond()
        x = np.array([-1.0, 2.0, -3.0, 4.0], dtype=np.float32)
        seeds = {"a": ms.forward(g, x, "a"), "b": ms.forward(g, x, "b")}
        assert np.array_equal(ms.forward_from(g, seeds, "c"), ms.forward(g, x))


class TestPatches:
    def test_tile_counts(self):
        frames = np.zeros((1874, 96))
        assert tile_patches(frames, 186).shape == (10, 186, 96)
        assert tile_patches(np.zeros((12936, 96)), 186).shape == (69, 186, 96)

    def test_short_padded_when_allowed(self):
        frames = np.ones((5, 4))
        out = tile_patches(frames, 8)
        assert out.shape == (1, 8, 4)
        assert np.all(out[0, :5] == 1.0)
        assert np.all(out[0, 5:] == 0.0)

    def test_short_rejected_when_disallowed(self):
        with pytest.raises(TrackTooShort):
            tile_patches(np.ones((5, 4)), 8, pad_short=False)

    def test_partial_tail_dropped_when_full_patch_exists(self):
        out = tile_patches(np.ones((19, 4)), 8)
        assert out.shape == (2, 8, 4)

    def test_patch_to_input_adds_channel(self):
        g = linear_classifier(patch_frames=10)
        x = patch_to_input(np.zeros((10, 96)), g)
        assert x.shape == (10, 96, 1)

    def test_patch_to_input_rejects_mismatch(self):
        g = linear_classifier(patch_frames=10)
        with pytest.raises(InputShapeMismatch):
            patch_to_input(np.zeros((11, 96)), g)


class TestPredict:
    def test_mean_inside_envelope_and_max(self):
        g = linear_classifier(patch_frames=10, seed=9)
        rng = np.random.default_rng(9)
        buf = ms.AudioBuffer(rng.uniform(-1, 1, 16000 * 5), 16000)
        pred = ms.predict(g, buf)
        assert pred.per_patch.shape[0] == ms.frame_count(16000 * 5, 512, 256) // 10
        assert np.all(pred.aggregated >= pred.per_patch.min(axis=0))
        assert np.all(pred.aggregated <= pred.per_patch.max(axis=0))
        mx = ms.predict(g, buf, aggregation="max")
        assert np.array_equal(mx.aggregated, mx.per_patch.max(axis=0))
        with pytest.raises(ValueError, match="aggregation"):
            ms.predict(g, buf, aggregation="median")

    def test_sub_frame_track_rejected(self):
        g = linear_classifier(patch_frames=10)
        buf = ms.AudioBuffer(np.zeros(500), 16000)  # < one frame
        with pytest.raises(TrackTooShort):
            ms.predict(g, buf)

    def test_resamples_foreign_rate(self):
        g = linear_classifier(patch_frames=10, seed=2)
        rng = np.random.default_rng(2)
        x = rng.uniform(-0.5, 0.5, 44100 * 2)
        pred = ms.predict(g, ms.AudioBuffer(x, 44100))
        assert pred.per_patch.shape[0] >= 1

    def test_top_label_tie_breaks_low_index(self):
        from melstream.inference.prediction import Prediction
        p = Prediction(per_patch=np.zeros((1, 3), dtype=np.float32),
                       aggregated=np.array([0.4, 0.4, 0.2], dtype=np.float32),
                       labels=("a", "b", "c"))
        assert ms.top_label(p) == "a"

    def test_feature_extractor_cannot_predict(self):
        from util import identity_backbone
        g = identity_backbone(patch_frames=10)
        buf = ms.AudioBuffer(np.zeros(16000), 16000)
        with pytest.raises(ValueError):
            ms.predict(g, buf)

    def test_embed_patches_shape(self):
        from util import identity_backbone
        g = identity_backbone(patch_frames=10)
        rng = np.random.default_rng(5)
        buf = ms.AudioBuffer(rng.uniform(-1, 1, 16000), 16000)
        emb = ms.embed_patches(g, buf)
        mel = ms.mel_spectrogram(buf, g.feature_config)
        assert emb.shape == (mel.n_frames // 10, 10 * 96)
        # embedding of the identity backbone is the flattened mel patch
        assert np.allclose(emb[0], mel.frames[:10].ravel().astype(np.float32),
                           atol=1e-6)


class TestOpRegistry:
    def test_known_ops(self):
        for name in ("conv2d", "dense", "batch_norm", "max_pool2d", "mean_pool2d",
                     "relu", "elu", "sigmoid", "softmax", "flatten", "concat",
                     "dropout"):
            assert name in OPS

    def test_unknown_op(self):
        with pytest.raises(UnsupportedOp):
            op_def("lstm")
