"""Dataset manifests, tag taxonomies, metrics and cross-validation.

Datasets are CSV manifests (track_id, audio_path, labels) where the
labels column holds one tag or several joined with ";". Taxonomies map
foreign tag vocabularies onto a model's classes via parent links, so a
model can be scored on a collection it was never tuned for: tags are
matched directly first, then walked upward until an ancestor matches,
and tracks whose tags all fall outside the model's vocabulary are
dropped from scoring rather than counted wrong.

Metrics: balanced accuracy is the unweighted mean of per-class recall
(with multi-label truth a prediction counts for class c on the tracks
whose truth contains c); auc_pr is the macro average of per-class
average precision computed over all score thresholds, with tied scores
handled as one block.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, field

import numpy as np

from .errors import (ClassTooSmall, DatasetError, DegenerateClass, EmptyInput,
                     NoEvaluableTracks)

LABEL_MODES = ("single", "multi")
_REQUIRED_COLUMNS = ("track_id", "audio_path", "labels")


@dataclass(frozen=True)
class DatasetEntry:
    track_id: str
    audio_path: str
    labels: tuple[str, ...]


@dataclass
class DatasetManifest:
    entries: list[DatasetEntry]
    label_mode: str = "single"

    def __post_init__(self):
        if self.label_mode not in LABEL_MODES:
            raise ValueError(f"label_mode must be one of {LABEL_MODES}")
        seen = set()
        for e in self.entries:
            if e.track_id in seen:
                raise DatasetError(f"duplicate track_id {e.track_id!r}")
            seen.add(e.track_id)
            if not e.labels:
                raise DatasetError(f"track {e.track_id!r} has no labels")
            if self.label_mode == "single" and len(e.labels) != 1:
                raise DatasetError(
                    f"track {e.track_id!r} has {len(e.labels)} labels in single-label mode")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(sorted({lab for e in self.entries for lab in e.labels}))

    def single_labels(self) -> dict[str, str]:
        if self.label_mode != "single":
            raise ValueError("single_labels() requires single-label mode")
        return {e.track_id: e.labels[0] for e in self.entries}


def load_dataset(path: str, label_mode: str = "single") -> DatasetManifest:
    """Read a CSV manifest. The header row is mandatory."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DatasetError(f"{path}: empty file")
        missing = [c for c in _REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise DatasetError(f"{path}: missing columns {missing}")
        entries = []
        for lineno, row in enumerate(reader, start=2):
            track = (row["track_id"] or "").strip()
            audio = (row["audio_path"] or "").strip()
            raw = (row["labels"] or "").strip()
            if not track or not audio:
                raise DatasetError(f"{path}:{lineno}: blank track_id or audio_path")
            labels = tuple(s.strip() for s in raw.split(";") if s.strip())
            entries.append(DatasetEntry(track_id=track, audio_path=audio, labels=labels))
    return DatasetManifest(entries=entries, label_mode=label_mode)


@dataclass
class Taxonomy:
    """Tag hierarchy: every tag has at most one parent; roots map to classes."""

    classes: tuple[str, ...]
    parent: dict[str, str]
    tag_to_class: dict[str, str] = field(init=False)

    def __post_init__(self):
        if len(set(self.classes)) != len(self.classes):
            raise DatasetError("duplicate class names in taxonomy")
        class_set = set(self.classes)
        resolved: dict[str, str] = {c: c for c in self.classes}
        for tag in self.parent:
            if tag in class_set:
                raise DatasetError(f"tag {tag!r} is also a class; classes cannot have parents")
        for tag in self.parent:
            if tag in resolved:
                continue
            chain = []
            cur = tag
            while cur not in resolved:
                if cur in chain:
                    raise DatasetError(f"taxonomy cycle through {cur!r}")
                chain.append(cur)
                nxt = self.parent.get(cur)
                if nxt is None:
                    raise DatasetError(f"tag {chain[0]!r} never reaches a class")
                cur = nxt
            for c in chain:
                resolved[c] = resolved[cur]
        object.__setattr__(self, "tag_to_class", resolved)

    def resolve(self, tag: str) -> str | None:
        return self.tag_to_class.get(tag)


def load_taxonomy(path: str) -> Taxonomy:
    """Read a TSV taxonomy: first line ``classes<TAB>a<TAB>b...``, then one
    ``tag<TAB>parent`` pair per line."""
    with open(path, encoding="utf-8-sig") as fh:
        lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise DatasetError(f"{path}: empty taxonomy")
    head = lines[0][1].split("\t")
    if head[0] != "classes" or len(head) < 2 or "" in head:
        raise DatasetError(f"{path}: first line must be 'classes<TAB>...' with no empty names")
    parent: dict[str, str] = {}
    for lineno, line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise DatasetError(f"{path}:{lineno}: expected 'tag<TAB>parent'")
        if parts[0] in parent:
            raise DatasetError(f"{path}:{lineno}: duplicate tag {parts[0]!r}")
        parent[parts[0]] = parts[1]
    return Taxonomy(classes=tuple(head[1:]), parent=parent)


def map_tags(tags, taxonomy: Taxonomy) -> tuple[str, ...]:
    """Resolve foreign tags to taxonomy classes, dropping the unmatched.

    Order follows the input; duplicates collapse to the first occurrence.
    """
    out: list[str] = []
    for tag in tags:
        cls = taxonomy.resolve(tag)
        if cls is not None and cls not in out:
            out.append(cls)
    return tuple(out)


def stratified_kfold(labels: dict[str, str], k: int, seed: int) -> list[tuple[str, ...]]:
    """Deal each class's tracks round-robin into k folds after a seeded shuffle."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    folds: list[list[str]] = [[] for _ in range(k)]
    by_class: dict[str, list[str]] = {}
    for track in sorted(labels):
        by_class.setdefault(labels[track], []).append(track)
    for cls in sorted(by_class):
        members = by_class[cls]
        if len(members) < k:
            raise ClassTooSmall(
                f"class {cls!r} has {len(members)} tracks, fewer than k={k}")
        order = rng.permutation(len(members))
        for j, idx in enumerate(order):
            folds[j % k].append(members[idx])
    return [tuple(sorted(f)) for f in folds]


def per_class_recall(truth: dict[str, tuple[str, ...]],
                     predicted: dict[str, str]) -> dict[str, float]:
    """Recall per class; with multi-label truth, a track counts toward every
    class in its truth set and is a hit for those matching its prediction."""
    if not truth:
        raise EmptyInput("no tracks to evaluate")
    for track in truth:
        if track not in predicted:
            raise EmptyInput(f"track {track!r} has no prediction")
    hits: dict[str, int] = {}
    totals: dict[str, int] = {}
    for track, classes in truth.items():
        for cls in classes:
            totals[cls] = totals.get(cls, 0) + 1
            if predicted[track] == cls:
                hits[cls] = hits.get(cls, 0) + 1
    return {cls: hits.get(cls, 0) / totals[cls] for cls in sorted(totals)}


def balanced_accuracy(truth: dict[str, tuple[str, ...]],
                      predicted: dict[str, str]) -> float:
    recalls = per_class_recall(truth, predicted)
    return float(np.mean(list(recalls.values())))


def average_precision(scores: np.ndarray, positives: np.ndarray) -> float:
    """Average precision over all thresholds; tied scores form one block."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    if scores.shape != positives.shape or scores.ndim != 1:
        raise ValueError("scores and positives must be 1-d and the same length")
    if scores.size == 0:
        raise EmptyInput("no scores")
    n_pos = int(positives.sum())
    if n_pos == 0:
        raise DegenerateClass("no positive examples")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    p = positives[order]
    # Last index of each block of tied scores (!=, unlike np.diff, keeps repeated infs tied).
    ends = np.append(np.flatnonzero(s[1:] != s[:-1]), s.size - 1)
    tp = np.cumsum(p)[ends]
    terms = (tp / (ends + 1)) * (np.diff(tp, prepend=0) / n_pos)
    return float(np.cumsum(terms)[-1])  # summed in block order, as a loop would


def auc_pr(truth: dict[str, tuple[str, ...]], scores: dict[str, np.ndarray],
           classes: tuple[str, ...]) -> float:
    """Macro average precision across classes.

    ``scores[track]`` is one score per class, aligned with ``classes``.
    Classes with no positive tracks raise DegenerateClass.
    """
    if not truth:
        raise EmptyInput("no tracks to evaluate")
    if not classes:
        raise EmptyInput("no classes")
    tracks = sorted(truth)
    for track in tracks:
        if track not in scores:
            raise EmptyInput(f"track {track!r} has no scores")
    mat = np.stack([np.asarray(scores[t], dtype=np.float64) for t in tracks])
    if mat.shape[1] != len(classes):
        raise ValueError(f"scores have {mat.shape[1]} columns, expected {len(classes)}")
    aps = []
    for ci, cls in enumerate(classes):
        pos = np.array([cls in truth[t] for t in tracks])
        if not pos.any():
            raise DegenerateClass(f"class {cls!r} has no positive tracks")
        aps.append(average_precision(mat[:, ci], pos))
    return float(np.mean(aps))


@dataclass
class EvalReport:
    balanced_accuracy: float
    per_class_recall: dict[str, float]
    confusion: dict[str, dict[str, int]] | None
    n_evaluated: int
    n_discarded: int
    stdev_across_folds: float | None = None
    auc_pr: float | None = None

    def summary(self) -> str:
        if self.stdev_across_folds is None:
            return f"{self.balanced_accuracy:.2f}"
        return f"{self.balanced_accuracy:.2f}±{self.stdev_across_folds:.2f}"


def make_report(truth: dict[str, tuple[str, ...]], predicted: dict[str, str],
                n_discarded: int = 0, fold_scores: list[float] | None = None,
                scores: dict[str, np.ndarray] | None = None,
                classes: tuple[str, ...] | None = None) -> EvalReport:
    """Score pooled predictions; balanced_accuracy is always the mean of
    per_class_recall values, and stdev_across_folds comes from fold_scores."""
    recalls = per_class_recall(truth, predicted)
    single = all(len(v) == 1 for v in truth.values())
    confusion = None
    if single:
        confusion = {}
        for track, classes_t in truth.items():
            row = confusion.setdefault(classes_t[0], {})
            pred = predicted[track]
            row[pred] = row.get(pred, 0) + 1
    stdev = None
    if fold_scores is not None and len(fold_scores) >= 2:
        stdev = float(statistics.stdev(fold_scores))
    ap = None
    if scores is not None and classes is not None:
        ap = auc_pr(truth, scores, classes)
    return EvalReport(balanced_accuracy=float(np.mean(list(recalls.values()))),
                      per_class_recall=recalls, confusion=confusion,
                      n_evaluated=len(truth), n_discarded=n_discarded,
                      stdev_across_folds=stdev, auc_pr=ap)


def cross_collection_eval(predictor, external: DatasetManifest, taxonomy: Taxonomy,
                          model_classes: tuple[str, ...]) -> EvalReport:
    """Score a model on a foreign collection through a taxonomy.

    ``predictor`` maps an audio path to a predicted class name (any
    callable; a ModelGraph can be wrapped upstream). Tracks whose mapped
    tags share nothing with ``model_classes`` are discarded; for the
    rest, truth is the mapped tags restricted to the model's vocabulary.
    """
    usable = set(model_classes)
    truth: dict[str, tuple[str, ...]] = {}
    predicted: dict[str, str] = {}
    discarded = 0
    for entry in external.entries:
        mapped = tuple(c for c in map_tags(entry.labels, taxonomy) if c in usable)
        if not mapped:
            discarded += 1
            continue
        truth[entry.track_id] = mapped
        predicted[entry.track_id] = predictor(entry.audio_path)
    if not truth:
        raise NoEvaluableTracks(
            f"none of the {len(external)} tracks map onto the model's classes")
    return make_report(truth, predicted, n_discarded=discarded)


def crossval_run(dataset: DatasetManifest, backbone, head_spec, train_spec,
                 k: int = 5, table=None) -> EvalReport:
    """K-fold cross-validation of a transfer head on frozen embeddings.

    Embeddings are extracted once (or supplied via ``table``); each fold
    trains a head on the other folds with seed ``train_spec.seed + i``
    and predicts the held-out tracks.
    """
    from dataclasses import replace as dc_replace

    from .transfer import classify_tracks, extract_embeddings, train_head

    labels = dataset.single_labels()
    if table is None:
        table = extract_embeddings(backbone, dataset)
    labels = {t: c for t, c in labels.items() if t in table.rows}
    n_discarded = len(dataset) - len(labels)
    if not labels:
        raise NoEvaluableTracks("no track produced embeddings")
    folds = stratified_kfold(labels, k, train_spec.seed)

    truth: dict[str, tuple[str, ...]] = {}
    predicted: dict[str, str] = {}
    fold_scores = []
    for i, held in enumerate(folds):
        held_set = set(held)
        train_labels = {t: c for t, c in labels.items() if t not in held_set}
        weights = train_head(table, train_labels,
                             head_spec, dc_replace(train_spec, seed=train_spec.seed + i))
        preds = classify_tracks(weights, table, held)
        fold_truth = {t: (labels[t],) for t in held}
        truth.update(fold_truth)
        predicted.update(preds)
        fold_scores.append(balanced_accuracy(fold_truth, preds))
    return make_report(truth, predicted, n_discarded=n_discarded, fold_scores=fold_scores)
