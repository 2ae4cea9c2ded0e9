"""Streaming mel-spectrogram analysis, file-defined model inference,
transfer-learning heads and cross-collection evaluation."""

from . import errors
from .audio_io import AudioBuffer, load_pcm, resample, write_wav
from .dsp import (LOG_FLOOR, PRESET_SAMPLE_RATE, PRESETS, MelConfig,
                  MelSpectrogram, frame_count, hz_to_mel, mel_filterbank,
                  mel_spectrogram, mel_to_hz, preset, window_vector)
from .evaluation import (DatasetManifest, EvalReport, Taxonomy, auc_pr,
                         average_precision, balanced_accuracy,
                         cross_collection_eval, crossval_run, load_dataset,
                         load_taxonomy, make_report, map_tags, per_class_recall,
                         stratified_kfold)
from .inference import (ModelGraph, Node, Prediction, build_graph,
                        embed_patches, forward, forward_from, load_model,
                        predict, read_weights, save_model, tile_patches,
                        top_label, write_weights)
from .streaming import PushResult, StreamPipeline
from .transfer import (AdamState, EmbeddingTable, HeadSpec, HeadWeights,
                       TrainSpec, adam_step, classify_tracks, export_head,
                       extract_embeddings, head_probs, train_head)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "AudioBuffer", "DatasetManifest", "EmbeddingTable",
    "EvalReport", "HeadSpec", "HeadWeights", "LOG_FLOOR", "MelConfig",
    "MelSpectrogram", "ModelGraph", "Node", "PRESETS", "PRESET_SAMPLE_RATE",
    "Prediction", "PushResult", "StreamPipeline",
    "Taxonomy", "TrainSpec", "adam_step", "auc_pr", "average_precision",
    "balanced_accuracy", "build_graph", "classify_tracks",
    "cross_collection_eval", "crossval_run", "embed_patches", "errors",
    "export_head", "extract_embeddings", "forward", "forward_from",
    "frame_count", "head_probs", "hz_to_mel", "load_dataset", "load_model",
    "load_pcm", "load_taxonomy", "make_report", "map_tags", "mel_filterbank",
    "mel_spectrogram", "mel_to_hz", "per_class_recall", "predict", "preset",
    "read_weights", "resample", "save_model", "stratified_kfold",
    "tile_patches", "top_label", "train_head", "window_vector", "write_wav",
    "write_weights",
]
