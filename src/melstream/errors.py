"""Exception types shared across the toolkit."""


class MelstreamError(Exception):
    """Base class for every error raised by this package."""


# -- audio decoding ---------------------------------------------------------

class AudioIOError(MelstreamError):
    """Base class for audio decoding failures."""


class UnsupportedFormat(AudioIOError):
    """Container or codec outside the supported WAV subset."""


class CorruptHeader(AudioIOError):
    """File is not a parseable RIFF/WAVE stream."""


class EmptyAudio(AudioIOError):
    """Decoded (or resampled) signal holds no samples."""


# -- feature extraction -----------------------------------------------------

class ConfigError(MelstreamError):
    """Invalid feature-extraction configuration."""


class EmptyFilter(ConfigError):
    """A mel filter has no nonzero weight at the configured FFT resolution."""


class SignalTooShort(MelstreamError):
    """Signal shorter than one analysis frame."""


# -- streaming --------------------------------------------------------------

class AlreadyFlushed(MelstreamError):
    """Pipeline used after flush()."""


# -- inference --------------------------------------------------------------

class ModelLoadError(MelstreamError):
    """Base class for model container failures."""


class ManifestError(ModelLoadError):
    """Manifest text is malformed or references undefined names."""


class MissingWeight(ModelLoadError):
    """Manifest declares a weight the weights file does not contain."""


class ShapeMismatch(ModelLoadError):
    """Declared, stored or inferred tensor shapes disagree."""


class UnsupportedOp(ModelLoadError):
    """Node op kind outside the supported set."""


class CyclicGraph(ModelLoadError):
    """Node references itself or a node defined later."""


class UnknownNode(MelstreamError):
    """Requested node name does not exist in the graph."""


class InputShapeMismatch(MelstreamError):
    """Input tensor does not match the graph's declared input shape."""


class NonFiniteActivation(MelstreamError):
    """A layer produced NaN or infinity."""


class TrackTooShort(MelstreamError):
    """Track yields less than one patch and padding is disabled."""


# -- transfer learning ------------------------------------------------------

class TrainingError(MelstreamError):
    """Base class for head-training failures."""


class DegenerateDataset(TrainingError):
    """Labels unusable for training (too few classes or tracks)."""


class NonFiniteGradient(TrainingError):
    """A gradient became NaN or infinity."""


class NonFiniteLoss(TrainingError):
    """The training loss became NaN or infinity."""


class DimMismatch(TrainingError):
    """Head input dimension disagrees with the backbone embedding."""


# -- evaluation -------------------------------------------------------------

class EvalError(MelstreamError):
    """Base class for evaluation failures."""


class DatasetError(EvalError):
    """A dataset manifest or taxonomy file is malformed."""


class ClassTooSmall(EvalError):
    """A class has fewer members than the number of folds."""


class EmptyInput(EvalError):
    """Metric called with no predictions."""


class DegenerateClass(EvalError):
    """A scored class has no positive instances."""


class NoEvaluableTracks(EvalError):
    """No track produced embeddings, or none survived taxonomy mapping."""
