"""Dataset parsing, taxonomy mapping, metrics, and cross-validation."""

import numpy as np
import pytest

import melstream as ms
from melstream.errors import (ClassTooSmall, DatasetError, DegenerateClass,
                              EmptyInput, NoEvaluableTracks)
from melstream.evaluation import DatasetEntry

import oracles
from util import dataset_csv


def small_taxonomy():
    return ms.Taxonomy(
        classes=("rock", "electronic", "jazz"),
        parent={"progressive rock": "rock",
                "symphonic prog": "progressive rock",
                "techno": "electronic",
                "idm": "electronic"})


class TestLoadDataset:
    def test_single_label_round_trip(self, tmp_path):
        p = tmp_path / "d.csv"
        dataset_csv(p, [("t1", "a.wav", ("rock",)), ("t2", "b.wav", ("jazz",))])
        ds = ms.load_dataset(p)
        assert len(ds) == 2
        assert ds.entries[0] == DatasetEntry("t1", "a.wav", ("rock",))
        assert ds.classes == ("jazz", "rock")
        assert ds.single_labels() == {"t1": "rock", "t2": "jazz"}

    def test_multi_label_mode(self, tmp_path):
        p = tmp_path / "d.csv"
        dataset_csv(p, [("t1", "a.wav", ("rock", "jazz"))])
        ds = ms.load_dataset(p, label_mode="multi")
        assert ds.entries[0].labels == ("rock", "jazz")
        with pytest.raises(ValueError):
            ds.single_labels()

    def test_multi_labels_rejected_in_single_mode(self, tmp_path):
        p = tmp_path / "d.csv"
        dataset_csv(p, [("t1", "a.wav", ("rock", "jazz"))])
        with pytest.raises(DatasetError):
            ms.load_dataset(p)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("track_id,labels\nt1,rock\n")
        with pytest.raises(DatasetError):
            ms.load_dataset(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DatasetError):
            ms.load_dataset(p)

    def test_blank_track_id(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("track_id,audio_path,labels\n,a.wav,rock\n")
        with pytest.raises(DatasetError):
            ms.load_dataset(p)

    def test_no_labels(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("track_id,audio_path,labels\nt1,a.wav,\n")
        with pytest.raises(DatasetError):
            ms.load_dataset(p)

    def test_duplicate_track_id(self, tmp_path):
        p = tmp_path / "d.csv"
        dataset_csv(p, [("t1", "a.wav", ("rock",)), ("t1", "b.wav", ("jazz",))])
        with pytest.raises(DatasetError):
            ms.load_dataset(p)

    def test_label_whitespace_stripped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("track_id,audio_path,labels\nt1,a.wav,rock; jazz ;\n")
        ds = ms.load_dataset(p, label_mode="multi")
        assert ds.entries[0].labels == ("rock", "jazz")

    def test_bad_label_mode(self):
        with pytest.raises(ValueError):
            ms.DatasetManifest(entries=[], label_mode="both")

    def test_utf8_bom_is_not_part_of_the_header(self, tmp_path):
        # Spreadsheets save "CSV UTF-8" with a byte order mark before the header row.
        p = tmp_path / "d.csv"
        p.write_text("track_id,audio_path,labels\nt1,a.wav,rock\n", encoding="utf-8-sig")
        assert ms.load_dataset(p).entries == [DatasetEntry("t1", "a.wav", ("rock",))]


class TestTaxonomy:
    def test_load_and_resolve(self, tmp_path):
        p = tmp_path / "tax.tsv"
        p.write_text("classes\trock\telectronic\tjazz\n"
                     "progressive rock\trock\n"
                     "symphonic prog\tprogressive rock\n"
                     "techno\telectronic\n")
        tax = ms.load_taxonomy(p)
        assert tax.classes == ("rock", "electronic", "jazz")
        assert tax.resolve("rock") == "rock"
        assert tax.resolve("progressive rock") == "rock"
        assert tax.resolve("symphonic prog") == "rock"
        assert tax.resolve("techno") == "electronic"
        assert tax.resolve("polka") is None

    def test_cycle(self):
        with pytest.raises(DatasetError, match="cycle"):
            ms.Taxonomy(classes=("rock",), parent={"a": "b", "b": "a"})

    def test_self_cycle(self):
        with pytest.raises(DatasetError, match="cycle"):
            ms.Taxonomy(classes=("rock",), parent={"a": "a"})

    def test_dead_end(self):
        with pytest.raises(DatasetError, match="never reaches"):
            ms.Taxonomy(classes=("rock",), parent={"a": "ghost"})

    def test_tag_that_is_a_class(self):
        with pytest.raises(DatasetError):
            ms.Taxonomy(classes=("rock",), parent={"rock": "rock"})

    def test_duplicate_classes(self):
        with pytest.raises(DatasetError):
            ms.Taxonomy(classes=("rock", "rock"), parent={})

    def test_utf8_bom_is_not_part_of_the_first_line(self, tmp_path):
        p = tmp_path / "tax.tsv"
        p.write_text("classes\trock\tjazz\nfusion\tjazz\n", encoding="utf-8-sig")
        tax = ms.load_taxonomy(p)
        assert tax.classes == ("rock", "jazz") and tax.resolve("fusion") == "jazz"

    @pytest.mark.parametrize("text, error", [
        ("classes\trock\n\n\nbad\n", "tax.tsv:4: expected"),
        ("\nclasses\trock\n\nbad\n", "tax.tsv:4: expected"),
        ("classes\trock\na\trock\n\na\trock\n", "tax.tsv:4: duplicate"),
    ])
    def test_error_names_the_file_line(self, tmp_path, text, error):
        # Blank lines are skipped, but they still count when a line is named.
        p = tmp_path / "tax.tsv"
        p.write_text(text)
        with pytest.raises(DatasetError, match=error):
            ms.load_taxonomy(p)

    def test_file_errors(self, tmp_path):
        cases = ["", "genres\trock\n", "classes\n",
                 "classes\trock\nonly_one_field\n",
                 "classes\trock\na\trock\na\trock\n",
                 # An empty class name: a trailing tab, a double tab, a lone tab.
                 "classes\tjazz\t\n", "classes\t\tjazz\n", "classes\t\n"]
        for i, text in enumerate(cases):
            p = tmp_path / f"t{i}.tsv"
            p.write_text(text)
            with pytest.raises(DatasetError):
                ms.load_taxonomy(p)


class TestMapTags:
    def test_progressive_rock_maps_to_rock(self):
        assert ms.map_tags(("progressive rock",), small_taxonomy()) == ("rock",)

    def test_order_and_dedup(self):
        tax = small_taxonomy()
        got = ms.map_tags(("techno", "symphonic prog", "idm", "jazz"), tax)
        assert got == ("electronic", "rock", "jazz")

    def test_unmatched_dropped(self):
        assert ms.map_tags(("polka", "noise"), small_taxonomy()) == ()

    def test_empty_input(self):
        assert ms.map_tags((), small_taxonomy()) == ()


class TestStratifiedKfold:
    def test_partition_properties(self):
        labels = {f"t{i:03d}": f"c{i % 4}" for i in range(40)}
        folds = ms.stratified_kfold(labels, k=4, seed=1)
        assert len(folds) == 4
        everything = [t for f in folds for t in f]
        assert sorted(everything) == sorted(labels)
        # 10 tracks per class into 4 folds: per-class counts differ by <= 1.
        for cls in ("c0", "c1", "c2", "c3"):
            counts = [sum(1 for t in f if labels[t] == cls) for f in folds]
            assert max(counts) - min(counts) <= 1
            assert sum(counts) == 10

    def test_uneven_classes_stay_within_one(self):
        labels = {f"a{i}": "x" for i in range(7)}
        labels.update({f"b{i}": "y" for i in range(8)})
        folds = ms.stratified_kfold(labels, k=5, seed=2)
        for f in folds:
            assert sum(1 for t in f if labels[t] == "x") in (1, 2)
            assert sum(1 for t in f if labels[t] == "y") in (1, 2)

    def test_exact_balance_when_divisible(self):
        labels = {f"t{i:03d}": f"c{i % 5}" for i in range(100)}
        folds = ms.stratified_kfold(labels, k=4, seed=3)
        for f in folds:
            assert len(f) == 25
            for cls in {f"c{j}" for j in range(5)}:
                assert sum(1 for t in f if labels[t] == cls) == 5

    def test_deterministic(self):
        labels = {f"t{i}": f"c{i % 3}" for i in range(30)}
        assert ms.stratified_kfold(labels, 3, seed=7) == ms.stratified_kfold(labels, 3, seed=7)
        assert ms.stratified_kfold(labels, 3, seed=7) != ms.stratified_kfold(labels, 3, seed=8)

    def test_class_too_small(self):
        labels = {"a": "x", "b": "x", "c": "y"}
        with pytest.raises(ClassTooSmall):
            ms.stratified_kfold(labels, k=2, seed=0)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            ms.stratified_kfold({"a": "x"}, k=1, seed=0)


class TestRecallAndBalancedAccuracy:
    def test_hand_example(self):
        # class a: 3 of 4 right (0.75); class b: 1 of 2 right (0.5).
        truth = {"t1": ("a",), "t2": ("a",), "t3": ("a",), "t4": ("a",),
                 "t5": ("b",), "t6": ("b",)}
        pred = {"t1": "a", "t2": "a", "t3": "a", "t4": "b",
                "t5": "b", "t6": "a"}
        recalls = ms.per_class_recall(truth, pred)
        assert recalls == {"a": 0.75, "b": 0.5}
        assert ms.balanced_accuracy(truth, pred) == 0.625

    def test_multi_label_rule(self):
        # t1 counts toward both classes; its single prediction can only
        # be a hit for one of them.
        truth = {"t1": ("a", "b"), "t2": ("b",)}
        pred = {"t1": "a", "t2": "b"}
        recalls = ms.per_class_recall(truth, pred)
        assert recalls == {"a": 1.0, "b": 0.5}

    def test_missing_prediction(self):
        with pytest.raises(EmptyInput):
            ms.per_class_recall({"t": ("a",)}, {})

    def test_empty(self):
        with pytest.raises(EmptyInput):
            ms.per_class_recall({}, {})


class TestAveragePrecision:
    def test_hand_example(self):
        scores = np.array([0.9, 0.8, 0.7, 0.6])
        pos = np.array([True, False, True, False])
        assert abs(ms.average_precision(scores, pos) - 5.0 / 6.0) < 1e-12

    def test_perfect_ranking(self):
        assert ms.average_precision(np.array([0.9, 0.8, 0.1]),
                                    np.array([True, True, False])) == 1.0

    def test_all_tied_is_prevalence(self):
        scores = np.zeros(4)
        pos = np.array([True, False, True, False])
        assert ms.average_precision(scores, pos) == 0.5

    def test_matches_reference_exhaustively(self):
        rng = np.random.default_rng(0)
        for n in range(1, 8):
            for mask in range(1, 2 ** n):
                pos = np.array([(mask >> i) & 1 == 1 for i in range(n)])
                scores = rng.normal(size=n)
                tied = np.round(scores * 2) / 2  # coarse grid forces ties
                for s in (scores, tied):
                    got = ms.average_precision(s, pos)
                    ref = oracles.ref_average_precision(s, pos)
                    assert abs(got - ref) < 1e-12

    def test_matches_block_loop_on_random_ties(self):
        rng = np.random.default_rng(11)
        grid = np.array([-np.inf, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, np.inf])
        for n in (1, 2, 9, 64, 500, 3000):
            for trial in range(10):
                scores = (rng.choice(grid, size=n) if trial % 2
                          else np.round(rng.normal(size=n) * 4) / 4)
                pos = rng.random(n) < 0.3
                pos[rng.integers(n)] = True
                got = ms.average_precision(scores, pos)
                assert got == oracles.ref_average_precision_blocks(scores, pos)

    def test_no_positives(self):
        with pytest.raises(DegenerateClass):
            ms.average_precision(np.array([0.5]), np.array([False]))

    def test_empty(self):
        with pytest.raises(EmptyInput):
            ms.average_precision(np.array([]), np.array([], dtype=bool))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ms.average_precision(np.array([0.5, 0.4]), np.array([True]))


class TestAucPr:
    def test_macro_mean(self):
        truth = {"t1": ("a",), "t2": ("b",), "t3": ("a",)}
        scores = {"t1": np.array([0.9, 0.1]),
                  "t2": np.array([0.2, 0.8]),
                  "t3": np.array([0.7, 0.3])}
        got = ms.auc_pr(truth, scores, ("a", "b"))
        tracks = sorted(truth)
        mat = np.stack([scores[t] for t in tracks])
        expect = np.mean([
            oracles.ref_average_precision(mat[:, 0], np.array([t in ("t1", "t3") for t in tracks])),
            oracles.ref_average_precision(mat[:, 1], np.array([t == "t2" for t in tracks])),
        ])
        assert abs(got - expect) < 1e-12

    def test_class_without_positives(self):
        with pytest.raises(DegenerateClass):
            ms.auc_pr({"t1": ("a",)}, {"t1": np.array([0.5, 0.5])}, ("a", "b"))

    def test_missing_scores(self):
        with pytest.raises(EmptyInput):
            ms.auc_pr({"t1": ("a",)}, {}, ("a",))

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            ms.auc_pr({"t1": ("a",)}, {"t1": np.array([0.5])}, ("a", "b"))


class TestReport:
    def test_balanced_accuracy_is_mean_of_recalls(self):
        rng = np.random.default_rng(2)
        classes = ("a", "b", "c")
        truth = {f"t{i}": (classes[i % 3],) for i in range(30)}
        pred = {t: classes[rng.integers(3)] for t in truth}
        report = ms.make_report(truth, pred)
        assert report.balanced_accuracy == pytest.approx(
            np.mean(list(report.per_class_recall.values())))
        assert report.n_evaluated == 30
        assert report.n_discarded == 0

    def test_confusion_single_label_only(self):
        truth = {"t1": ("a",), "t2": ("a",), "t3": ("b",)}
        pred = {"t1": "a", "t2": "b", "t3": "b"}
        report = ms.make_report(truth, pred)
        assert report.confusion == {"a": {"a": 1, "b": 1}, "b": {"b": 1}}

        multi = ms.make_report({"t1": ("a", "b"), "t2": ("b",)},
                               {"t1": "a", "t2": "b"})
        assert multi.confusion is None

    def test_stdev_from_fold_scores(self):
        truth = {"t1": ("a",), "t2": ("b",)}
        pred = {"t1": "a", "t2": "b"}
        report = ms.make_report(truth, pred, fold_scores=[0.92, 0.96])
        assert report.stdev_across_folds == pytest.approx(0.028284271247461926)
        assert ms.make_report(truth, pred, fold_scores=[0.9]).stdev_across_folds is None

    def test_summary_format(self):
        report = ms.EvalReport(balanced_accuracy=0.9412, per_class_recall={},
                               confusion=None, n_evaluated=10, n_discarded=0,
                               stdev_across_folds=0.0213)
        assert report.summary() == "0.94±0.02"
        report.stdev_across_folds = None
        assert report.summary() == "0.94"

    def test_auc_pr_attached_when_scores_given(self):
        truth = {"t1": ("a",), "t2": ("b",)}
        pred = {"t1": "a", "t2": "b"}
        scores = {"t1": np.array([0.9, 0.1]), "t2": np.array([0.1, 0.9])}
        report = ms.make_report(truth, pred, scores=scores, classes=("a", "b"))
        assert report.auc_pr == 1.0


class TestCrossCollectionEval:
    def _external(self):
        return ms.DatasetManifest(entries=[
            DatasetEntry("e1", "p1.wav", ("symphonic prog",)),
            DatasetEntry("e2", "p2.wav", ("techno", "idm")),
            DatasetEntry("e3", "p3.wav", ("polka",)),
            DatasetEntry("e4", "p4.wav", ("jazz", "polka")),
        ], label_mode="multi")

    def test_mapping_discard_and_scoring(self):
        tax = small_taxonomy()
        calls = []

        def predictor(path):
            calls.append(path)
            return {"p1.wav": "rock", "p2.wav": "jazz", "p4.wav": "jazz"}[path]

        report = ms.cross_collection_eval(predictor, self._external(), tax,
                                          model_classes=("rock", "electronic", "jazz"))
        # e3 has no mappable tag and is discarded before prediction.
        assert report.n_discarded == 1
        assert report.n_evaluated == 3
        assert "p3.wav" not in calls
        assert report.per_class_recall == {"electronic": 0.0, "jazz": 1.0, "rock": 1.0}
        assert report.balanced_accuracy == pytest.approx(2.0 / 3.0)

    def test_truth_restricted_to_model_vocabulary(self):
        tax = small_taxonomy()
        report = ms.cross_collection_eval(lambda p: "rock", self._external(), tax,
                                          model_classes=("rock",))
        # Only e1 keeps a truth tag inside the model's vocabulary.
        assert report.n_evaluated == 1
        assert report.n_discarded == 3
        assert report.balanced_accuracy == 1.0

    def test_no_evaluable_tracks(self):
        tax = small_taxonomy()
        with pytest.raises(NoEvaluableTracks):
            ms.cross_collection_eval(lambda p: "x", self._external(), tax,
                                     model_classes=("metal",))


class TestCrossvalRun:
    def _dataset_and_table(self, n=40, n_classes=4, dim=6):
        entries = []
        rows = {}
        labels = {}
        rng = np.random.default_rng(11)
        for i in range(n):
            cls = i % n_classes
            track = f"t{i:03d}"
            entries.append(DatasetEntry(track, f"{track}.wav", (f"c{cls}",)))
            center = np.zeros(dim)
            center[cls] = 5.0
            rows[track] = (center + rng.normal(scale=0.05, size=(2, dim))).astype(np.float32)
            labels[track] = f"c{cls}"
        ds = ms.DatasetManifest(entries=entries)
        table = ms.EmbeddingTable(rows=rows, dim=dim, source_layer="emb")
        return ds, table

    def test_separable_table_scores_one(self):
        ds, table = self._dataset_and_table()
        spec = ms.HeadSpec("A", 4)
        tspec = ms.TrainSpec(max_epochs=60, initial_lr=0.02)
        report = ms.crossval_run(ds, None, spec, tspec, k=4, table=table)
        assert report.balanced_accuracy == 1.0
        assert report.n_evaluated == 40
        assert report.stdev_across_folds == 0.0
        assert report.confusion is not None

    def test_tracks_without_embeddings_are_discarded(self):
        ds, table = self._dataset_and_table(n=24, n_classes=2)
        del table.rows["t000"]
        report = ms.crossval_run(ds, None, ms.HeadSpec("A", 2),
                                 ms.TrainSpec(max_epochs=5), k=3, table=table)
        assert report.n_discarded == 1
        assert report.n_evaluated == 23

    def test_empty_table(self):
        ds, table = self._dataset_and_table(n=8, n_classes=2)
        table.rows.clear()
        with pytest.raises(NoEvaluableTracks):
            ms.crossval_run(ds, None, ms.HeadSpec("A", 2),
                            ms.TrainSpec(max_epochs=1), k=2, table=table)
